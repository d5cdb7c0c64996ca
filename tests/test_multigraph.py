import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from graphoncalc import (Multigraph, canonical_key, complete_graph,
                         disjoint_union, enumerate_Hn, enumerate_Hnp,
                         glue_product, graph_from_json, graph_to_json,
                         matching, parallel_edges, path_graph, simplify,
                         single_edge, star_graph, strip_isolated)
from graphoncalc.limits import CapExceeded, Limits

from .bruteforce import (brute_canonical_key, brute_enumerate_Hn,
                         brute_enumerate_Hnp)


class TestConstruction:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Multigraph(2, [(0, 0)])

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            Multigraph(2, [(0, 1, 0)])

    def test_rejects_label_gaps(self):
        with pytest.raises(ValueError):
            Multigraph(3, [(0, 1)], {2: 0})

    def test_rejects_non_injective_labels(self):
        with pytest.raises(ValueError):
            Multigraph(3, [(0, 1)], {1: 0, 2: 0})

    def test_merges_parallel_edges(self):
        g = Multigraph(2, [(0, 1), (1, 0)])
        assert g.pairs == (((0, 1), 2),)
        assert g.edge_count == 2


class TestCanonicalKey:
    def test_relabelling_invariance_k2(self):
        a = Multigraph(2, [(0, 1)])
        b = Multigraph(2, [(1, 0)])
        assert canonical_key(a) == canonical_key(b)

    def test_path_orientations(self):
        a = Multigraph(3, [(0, 1), (1, 2)])
        b = Multigraph(3, [(1, 0), (1, 2)])
        assert canonical_key(a) == canonical_key(b)

    def test_double_edge_vs_path(self):
        assert canonical_key(parallel_edges(2)) != canonical_key(path_graph(2))

    def test_matches_brute_oracle_on_small_classes(self):
        rng = random.Random(42)
        graphs = [g for n in range(4) for g in enumerate_Hn(n)]
        graphs += [g.padded(g.vertex_count + 1) for g in graphs]
        for g in graphs:
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            h = g.permuted(perm)
            assert canonical_key(g) == canonical_key(h)
            assert brute_canonical_key(g) == brute_canonical_key(h)
        # distinct classes stay distinct under both keys
        keys = [canonical_key(g) for g in enumerate_Hn(3)]
        brute = [brute_canonical_key(g) for g in enumerate_Hn(3)]
        assert len(set(keys)) == len(keys) == len(set(brute))

    def test_labelled_keys_respect_labels(self):
        pinned = Multigraph(2, [(0, 1)], {1: 0})
        other = Multigraph(2, [(0, 1)], {1: 1})
        assert canonical_key(pinned) == canonical_key(other)
        two = Multigraph(3, [(0, 1)], {1: 0, 2: 1})
        swapped = Multigraph(3, [(0, 1)], {1: 1, 2: 0})
        free = Multigraph(3, [(0, 1)], {1: 0, 2: 2})
        assert canonical_key(two) == canonical_key(swapped)
        assert canonical_key(two) != canonical_key(free)

    def test_star_keys_are_cheap(self):
        # twin collapse keeps highly symmetric graphs from exploding
        a = star_graph(18)
        perm = list(range(1, 19)) + [0]
        assert canonical_key(a) == canonical_key(a.permuted(perm))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_key_is_permutation_invariant(self, data):
        nv = data.draw(st.integers(2, 6))
        pairs = list(itertools.combinations(range(nv), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=6))
        g = Multigraph(nv, edges)
        perm = data.draw(st.permutations(range(nv)))
        assert canonical_key(g) == canonical_key(g.permuted(list(perm)))


class TestEnumeration:
    def test_first_counts(self):
        assert len(enumerate_Hn(0)) == 1
        assert enumerate_Hn(0)[0] == Multigraph(0)
        assert len(enumerate_Hn(1)) == 1
        assert len(enumerate_Hn(2)) == 3
        assert len(enumerate_Hn(3)) == 8
        assert len(enumerate_Hn(4)) == 23

    def test_h2_members(self):
        keys = {canonical_key(g) for g in enumerate_Hn(2)}
        assert keys == {canonical_key(parallel_edges(2)),
                        canonical_key(path_graph(2)),
                        canonical_key(matching(2))}

    @pytest.mark.parametrize("n", range(5))
    def test_matches_brute_oracle(self, n):
        produced = {brute_canonical_key(g) for g in enumerate_Hn(n)}
        assert produced == brute_enumerate_Hn(n)

    def test_no_isolated_vertices(self):
        for n in range(1, 5):
            for g in enumerate_Hn(n):
                assert all(g.degree(v) > 0 for v in range(g.vertex_count))

    def test_canonical_order_is_deterministic(self):
        listed = enumerate_Hn(3)
        assert [canonical_key(g) for g in listed] == sorted(
            canonical_key(g) for g in listed)

    def test_labelled_counts(self):
        assert len(enumerate_Hn(0, 1)) == 1
        assert len(enumerate_Hn(1, 1)) == 2
        for g in enumerate_Hn(2, 1):
            labelled = g.labelled_vertices()
            assert all(g.degree(v) > 0 or v in labelled
                       for v in range(g.vertex_count))

    def test_class_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_Hn(4, limits=Limits(max_classes=5))


class TestEnumerateWithVertexCount:
    def test_single_edge_cases(self):
        assert [g.pairs for g in enumerate_Hnp(1, 2)] == [(((0, 1), 1),)]
        (g,) = enumerate_Hnp(1, 3)
        assert g.vertex_count == 3 and g.edge_count == 1

    @pytest.mark.parametrize("n,p", [(1, 2), (2, 3), (2, 4), (3, 4), (3, 6)])
    def test_agrees_with_padding_construction(self, n, p):
        padded = {canonical_key(g.padded(p)) for g in enumerate_Hn(n)
                  if g.vertex_count <= p}
        produced = {canonical_key(g) for g in enumerate_Hnp(n, p)}
        assert produced == padded

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bijective_iff_p_at_least_2n(self, n):
        assert len(enumerate_Hnp(n, 2 * n)) == len(enumerate_Hn(n))
        assert len(enumerate_Hnp(n, 2 * n + 1)) == len(enumerate_Hn(n))
        if n > 1:  # p must stay >= 2
            assert len(enumerate_Hnp(n, 2 * n - 1)) < len(enumerate_Hn(n))

    @pytest.mark.parametrize("n,p", [(2, 4), (3, 3), (3, 6), (3, 8),
                                     (4, 4), (4, 5), (4, 6)])
    def test_matches_multiset_oracle(self, n, p):
        assert ([canonical_key(g) for g in enumerate_Hnp(n, p)]
                == [canonical_key(g) for g in brute_enumerate_Hnp(n, p)])

    def test_class_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_Hnp(4, 8, limits=Limits(max_classes=5))

    def test_many_isolated_vertices(self):
        classes = enumerate_Hnp(4, 15)
        assert len(classes) == len(enumerate_Hn(4)) == 23
        assert all(g.vertex_count == 15 for g in classes)

    def test_strip_is_injective_on_result(self):
        for g in enumerate_Hnp(3, 5):
            assert g.vertex_count == 5
        keys = [canonical_key(strip_isolated(g)) for g in enumerate_Hnp(3, 5)]
        assert len(set(keys)) == len(keys)


class TestStripSimplifyGlue:
    def test_strip_examples(self):
        assert strip_isolated(single_edge().padded(3)) == single_edge()
        assert strip_isolated(Multigraph(3)) == Multigraph(0)

    def test_strip_idempotent_and_fixed(self):
        for g in enumerate_Hn(3):
            assert strip_isolated(g) == g
            padded = g.padded(g.vertex_count + 2)
            once = strip_isolated(padded)
            assert strip_isolated(once) == once

    def test_strip_keeps_labelled_isolated(self):
        g = Multigraph(3, [(1, 2)], {1: 0})
        assert strip_isolated(g) == g

    def test_simplify(self):
        assert canonical_key(simplify(parallel_edges(2))) == \
            canonical_key(single_edge())
        assert canonical_key(simplify(parallel_edges(3))) == \
            canonical_key(single_edge())
        g = path_graph(2)
        assert simplify(g) == g

    def test_glue_unlabelled_is_disjoint_union(self):
        g = glue_product(single_edge(), single_edge())
        assert canonical_key(g) == canonical_key(matching(2))
        assert g.edge_count == 2

    def test_glue_identifies_labels(self):
        e = Multigraph(2, [(0, 1)], {1: 0})
        s2 = glue_product(e, e)
        expected = Multigraph(3, [(0, 1), (0, 2)], {1: 0})
        assert canonical_key(s2) == canonical_key(expected)

    def test_glue_unit(self):
        unit = Multigraph(1, (), {1: 0})
        e = Multigraph(2, [(0, 1)], {1: 0})
        assert canonical_key(glue_product(e, unit)) == canonical_key(e)

    def test_glue_pads_smaller_label_count(self):
        e1 = Multigraph(2, [(0, 1)], {1: 0})
        e2 = Multigraph(3, [(0, 1), (1, 2)], {1: 0, 2: 2})
        glued = glue_product(e1, e2)
        assert glued.k == 2
        assert glued.edge_count == 3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2))
    def test_glue_commutative_with_additive_edges(self, i, j, which):
        pool = enumerate_Hn(2, which)
        g = pool[i % len(pool)]
        h = pool[j % len(pool)]
        gh = glue_product(g, h)
        hg = glue_product(h, g)
        assert canonical_key(gh) == canonical_key(hg)
        if which == 0:
            assert gh.edge_count == g.edge_count + h.edge_count


class TestJson:
    def test_round_trip(self):
        g = Multigraph(4, [(0, 1, 2), (2, 3)], {1: 2})
        assert graph_from_json(graph_to_json(g)) == g

    def test_multiplicity_optional(self):
        g = graph_from_json({"vertices": 2, "edges": [[0, 1]]})
        assert g == single_edge()

    def test_malformed(self):
        with pytest.raises(ValueError):
            graph_from_json({"edges": []})


def test_builders_are_what_they_say():
    assert complete_graph(3).edge_count == 3
    assert star_graph(3).degree(0) == 3
    assert disjoint_union(single_edge(), single_edge()) == matching(2)

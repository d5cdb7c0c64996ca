import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from graphoncalc import (DEFAULT_LIMITS, WIDE_LIMITS, CapExceeded, Limits,
                         Multigraph, QuantumGraph, canonical_key,
                         complete_graph, count_aut, count_hom, count_surj,
                         enumerate_Hn, extract_T, matching, parallel_edges,
                         path_graph, single_edge, star_graph, t_combinatorial)
from graphoncalc import morphisms
from graphoncalc.density import _plan
from graphoncalc.consistency import (apply_constraint, pi_formula,
                                     verify_structure)
from graphoncalc.morphisms import surjection_table, surjection_weight_sum
from graphoncalc.multigraph import _enumerate_classes
from graphoncalc.series import whitney_matrix

from .bruteforce import (backtrack_hom, backtrack_surj,
                         backtrack_surjection_weight_sum, brute_hom,
                         brute_surj, classical_simple_hom,
                         inclusion_exclusion_surj, random_blow_up,
                         random_image, random_image_short_of,
                         random_labelled, random_multigraph,
                         random_union_of_components, reach_source_plan,
                         twin_fold_surjection_sum)


class TestHom:
    def test_frozen_examples(self):
        assert count_hom(single_edge(), single_edge()) == 2
        assert count_hom(complete_graph(3), complete_graph(3)) == 6
        assert count_hom(star_graph(3), single_edge()) == 2

    def test_no_edges_in_target(self):
        empty3 = Multigraph(3)
        assert count_hom(single_edge(), empty3) == 0
        assert count_hom(Multigraph(0), empty3) == 1

    def test_multiplicity_powers(self):
        # each parallel source copy picks a target copy independently
        assert count_hom(parallel_edges(2), parallel_edges(3)) == 2 * 9

    def test_matches_explicit_enumeration(self):
        rng = random.Random(5)
        pool = [g for n in (1, 2) for g in enumerate_Hn(n)]
        for _ in range(25):
            h = rng.choice(pool)
            g = rng.choice(pool)
            assert count_hom(h, g) == brute_hom(h, g)

    def test_matches_classical_count_on_simple_targets(self):
        rng = random.Random(6)
        simple = [g for n in (1, 2, 3) for g in enumerate_Hn(n) if g.is_simple()]
        for _ in range(20):
            h = rng.choice(simple)
            g = rng.choice(simple)
            assert count_hom(h, g) == classical_simple_hom(h, g)

    def test_labelled_maps_fix_labels(self):
        e = Multigraph(2, [(0, 1)], {1: 0})
        # the labelled endpoint is pinned, the other must preserve the edge
        assert count_hom(e, e) == brute_hom(e, e) == 1


class TestSurj:
    def test_empty_target(self):
        """The empty graph has one surjection onto itself, the empty map;
        a graph with vertices has none onto it."""
        empty = Multigraph(0)
        assert count_surj(empty, empty) == 1
        assert surjection_weight_sum(empty, empty, 3) == 1
        assert count_surj(Multigraph(2), empty) == 0
        assert surjection_weight_sum(Multigraph(1), empty, 2) == 0
        assert count_surj(single_edge(), empty) == 0

    def test_frozen_examples(self):
        assert count_surj(single_edge(), single_edge()) == 2
        assert count_surj(parallel_edges(2), single_edge()) == 2
        assert count_surj(single_edge(), parallel_edges(2)) == 0

    def test_matches_explicit_enumeration(self):
        rng = random.Random(7)
        pool = [g for n in (1, 2) for g in enumerate_Hn(n)]
        for _ in range(25):
            h = rng.choice(pool)
            g = rng.choice(pool)
            assert count_surj(h, g) == brute_surj(h, g)

    def test_matches_inclusion_exclusion(self):
        pool = [g for n in (1, 2) for g in enumerate_Hn(n)]
        pool += list(enumerate_Hn(3))[:4]
        for h in pool:
            for g in pool[:6]:
                assert count_surj(h, g) == inclusion_exclusion_surj(h, g)

    def test_labelled_surjections(self):
        e1 = Multigraph(2, [(0, 1)], {1: 0})
        e2 = Multigraph(3, [(1, 2)], {1: 0})
        assert count_surj(e1, e1) == brute_surj(e1, e1) == 1
        # collapsing the labelled isolated vertex onto the edge still covers e1
        assert count_surj(e2, e1) == brute_surj(e2, e1) == 2
        assert count_surj(e2, e2) == brute_surj(e2, e2) == 2
        assert count_surj(e1, e2) == brute_surj(e1, e2) == 0

    @pytest.mark.parametrize("h, g", [
        # in the first and last pair h is smaller than g, so the up-front
        # checks alone would answer 0
        (Multigraph(2, [(0, 1)], {1: 0}), complete_graph(3)),
        (Multigraph(3, [(1, 2)], {1: 0}), single_edge()),
        (single_edge(), Multigraph(3, [(0, 1), (1, 2)], {1: 0})),
    ])
    def test_label_count_mismatch_raises(self, h, g):
        with pytest.raises(ValueError, match="label counts"):
            count_surj(h, g)
        with pytest.raises(ValueError, match="label counts"):
            surjection_weight_sum(h, g, 2)

    @pytest.mark.parametrize("h", [single_edge(), path_graph(2)])
    def test_negative_fiber_cap_raises(self, h):
        # path_graph(2) has more vertices than -1 times any target's, so a
        # capped-fiber test would answer 0 where the falling factorial of a
        # negative k is undefined
        with pytest.raises(ValueError, match="k must be"):
            surjection_weight_sum(h, single_edge(), -1)

    def test_dominated_by_hom(self):
        pool = [g for n in (1, 2, 3) for g in enumerate_Hn(n)]
        for h in pool:
            for g in pool:
                assert count_surj(h, g) <= count_hom(h, g)

    def test_partial_order_reflexive_transitive(self):
        pool = [g for n in (1, 2, 3) for g in enumerate_Hn(n)]
        surjects = {(canonical_key(a), canonical_key(b)): count_surj(a, b) > 0
                    for a in pool for b in pool}
        for a in pool:
            assert surjects[(canonical_key(a), canonical_key(a))]
        keys = [canonical_key(g) for g in pool]
        for a in keys:
            for b in keys:
                for c in keys:
                    if surjects[(a, b)] and surjects[(b, c)]:
                        assert surjects[(a, c)]


def _random_labelled(rng, max_vertices: int, max_edges: int, labels: int):
    """A random multigraph with `labels` random vertices labelled; a draw
    with fewer vertices than labels is rejected."""
    g = random_multigraph(rng, max_vertices, max_edges)
    assume(g.vertex_count >= labels)
    return random_labelled(rng, g, labels)


class TestRandomPairsAgainstOracles:
    """Labelled and unlabelled random pairs: the pruned surjection search
    against the plain backtracking search it replaced (half the targets are
    random images of the source, so that surjections exist), and count_hom
    against explicit enumeration."""

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 3),
           st.integers(1, 3), st.booleans())
    def test_counts_and_weighted_sums(self, rng, labels, k, image):
        h = _random_labelled(rng, 5, 5, labels)
        if image:
            g = random_image(rng, h, rng.randint(max(labels, 1), 4))
        else:
            g = _random_labelled(rng, 4, 4, labels)
        assert count_surj(h, g) == backtrack_surj(h, g)
        assert surjection_weight_sum(h, g, k) == \
            backtrack_surjection_weight_sum(h, g, k)

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 3),
           st.sampled_from([None, 1, 2, 3]), st.integers(0, 2))
    def test_degree_budget_boundary(self, rng, labels, k, short):
        # g is an image of h with exactly `short` fewer edges, so the fibers'
        # degree overshoot budget is 0, 2 or 4 and surjections often exist
        h = _random_labelled(rng, 5, 6, labels)
        vertices = rng.randint(max(labels, 1), 4)
        g = random_image_short_of(rng, h, vertices, short)
        assume(g is not None)
        if k is None:
            assert count_surj(h, g) == backtrack_surj(h, g)
        else:
            assert surjection_weight_sum(h, g, k) == \
                backtrack_surjection_weight_sum(h, g, k)

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 2),
           st.sampled_from([None, 1, 2, 3]), st.booleans())
    def test_twin_rich_sources(self, rng, labels, k, image):
        # sources built of twin classes, some members pinned: the search
        # visits one leaf per class of twin swaps and weighs it by t!/prod r!
        h = random_blow_up(rng)
        assume(h.vertex_count >= labels)
        h = random_labelled(rng, h, labels)
        if image:
            g = random_image(rng, h, rng.randint(max(labels, 1), 4))
        else:
            g = random_labelled(rng, random_blow_up(rng, 4), labels)
        if k is None:
            assert count_surj(h, g) == backtrack_surj(h, g)
        else:
            assert surjection_weight_sum(h, g, k) == \
                backtrack_surjection_weight_sum(h, g, k)

    @pytest.mark.parametrize("h", [
        star_graph(4),
        # doubled leaves at both ends of an edge
        Multigraph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]),
        # K_{2,3}
        Multigraph(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)]),
        # adjacent twins 0, 1 joined by a double edge
        Multigraph(4, [(0, 1, 2), (0, 2), (1, 2), (2, 3)]),
        # twins next to pins: a 3-star's centre, one side or one leaf of
        # K_{2,3}, a leaf and a centre of the doubled leaves
        Multigraph(4, [(0, 1), (0, 2), (0, 3)], {1: 0}),
        Multigraph(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)], {1: 0}),
        Multigraph(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)], {1: 2}),
        Multigraph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)], {1: 2, 2: 1}),
    ], ids=["star4", "doubled-leaves", "K23", "adjacent-twins", "pinned-centre",
            "K23-pinned-side", "K23-pinned-leaf", "doubled-leaves-pinned"])
    def test_twin_families(self, h):
        rng = random.Random(12)
        targets = [h] + [random_image(rng, h, rng.randint(max(h.k, 1), 4))
                         for _ in range(6)]
        for g in targets:
            assert count_surj(h, g) == backtrack_surj(h, g)
            for k in (1, 2, 3):
                assert surjection_weight_sum(h, g, k) == \
                    backtrack_surjection_weight_sum(h, g, k)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 3))
    def test_hom_matches_explicit_enumeration(self, rng, labels):
        h = _random_labelled(rng, 4, 3, labels)
        g = _random_labelled(rng, 3, 3, labels)
        assert count_hom(h, g) == brute_hom(h, g)

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 3), st.booleans())
    def test_hom_matches_backtracking_on_larger_pairs(self, rng, labels, image):
        # up to 7 source vertices and 9 edges: past what brute_hom enumerates
        h = _random_labelled(rng, 7, 9, labels)
        if image:
            g = random_image(rng, h, rng.randint(max(labels, 1), 5))
        else:
            g = _random_labelled(rng, 5, 6, labels)
        assert count_hom(h, g) == backtrack_hom(h, g)

    def test_labelled_class_pairs(self):
        # with two labels, 3,882 of the 69^2 pairs are 0; the degree tests
        # refuse 1,379 of them that pass the vertex and pair counts
        for k in (1, 2):
            classes = enumerate_Hn(3, k)
            for h in classes:
                for g in classes:
                    assert count_surj(h, g) == backtrack_surj(h, g)

    def test_weighted_class_pairs(self):
        # every pair of unlabelled 4-edge and labelled 3-edge classes, 17,457
        # weighted sums in all: with k given, the capped-fiber tests refuse
        # pairs that pass the count and degree tests; the surjection table
        # skips the pairs that cannot be quotients, and with two labels
        # searches one pair per label-swap orbit
        for n, labels in ((4, 0), (3, 1), (3, 2)):
            for k in (1, 2, 3):
                classes, table = surjection_table(n, labels, k)
                assert len(classes) == len(enumerate_Hn(n, labels))
                for h, row in zip(classes, table):
                    for g, entry in zip(classes, row):
                        expected = backtrack_surjection_weight_sum(h, g, k)
                        assert surjection_weight_sum(h, g, k) == expected
                        assert entry == expected


class TestComponentMemo:
    """Sources made of several components, where the search memoizes the
    subtotal of each later component at the step that completes the one
    before: the search against the twin-folding search without a memo and
    against the plain backtracking search."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(2, 5),
           st.integers(0, 3), st.booleans(),
           st.sampled_from([None, 1, 2, 3]), st.integers(0, 2))
    def test_disjoint_unions(self, rng, parts, labels, spread, k, short):
        h, spans = random_union_of_components(rng, parts)
        assume(h.vertex_count <= 8 and h.vertex_count >= labels)
        if spread and 2 <= labels <= parts:
            # labels in different components
            pinned = [rng.choice(span) for span in rng.sample(spans, labels)]
            h = Multigraph(h.vertex_count, [(u, v, m) for (u, v), m in h.pairs],
                           dict(zip(range(1, labels + 1), pinned)))
        else:
            h = random_labelled(rng, h, labels)
        vertices = rng.randint(max(labels, 1), 4)
        # short > 0 leaves the fibers a degree overshoot (spare > 0)
        g = (random_image(rng, h, vertices) if short == 0 else
             random_image_short_of(rng, h, vertices, short))
        assume(g is not None)
        expected = twin_fold_surjection_sum(h, g, k)
        if k is None:
            assert count_surj(h, g) == expected == backtrack_surj(h, g)
        else:
            assert surjection_weight_sum(h, g, k) == expected == \
                backtrack_surjection_weight_sum(h, g, k)

    @pytest.mark.parametrize("n, labels, k", [
        (4, 0, None), (5, 0, None), (5, 0, 2), (4, 0, 3), (4, 2, None),
        (3, 3, None)])
    def test_tables_match_the_unmemoized_search(self, n, labels, k):
        classes, table = surjection_table(n, labels, k)
        assert table == tuple(
            tuple(twin_fold_surjection_sum(h, g, k) for g in classes)
            for h in classes)


class TestSourcePlan:
    """The search plan takes its cut steps from the density plan's empty
    separators, less the steps a twin class spans: the whole plan against
    the one built when each cut step was derived from every step's reach."""

    @staticmethod
    def _plan(g):
        return morphisms._source_plan(g, morphisms._record(g))

    @pytest.mark.parametrize("n, labels", [
        *((n, labels) for n in range(4) for labels in range(4)),
        (4, 0), (4, 1), (4, 2), (5, 0), (6, 0)])
    def test_every_class(self, n, labels):
        plans = [self._plan(g) for g in enumerate_Hn(n, labels)]
        assert plans == [reach_source_plan(g)
                         for g in enumerate_Hn(n, labels)]
        if n >= 2:
            assert any(any(plan.cut) for plan in plans)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(2, 6),
           st.integers(0, 3))
    def test_isolated_vertices_are_twins_across_components(self, rng, parts,
                                                          labels):
        h, _ = random_union_of_components(rng, parts)
        assume(h.vertex_count >= labels)
        h = random_labelled(rng, h, labels)
        assert self._plan(h) == reach_source_plan(h)


class TestSurjectionTable:
    @pytest.mark.parametrize("n, k", [(3, 2), (2, 3)])
    def test_whitney_entries_match_the_oracle(self, n, k):
        # one search per orbit of S_2, or of S_3, acting on the labels
        pins = {1: Fraction(1, 3), 2: Fraction(2, 3), 3: Fraction(1, 2)}
        W = whitney_matrix(n, k, {lab: pins[lab] for lab in range(1, k + 1)})
        for H, row in zip(W.classes, W.rows):
            scale = W.p ** (H.vertex_count - k)
            for G, entry in zip(W.classes, row):
                assert entry * scale == backtrack_surj(H, G)

    @staticmethod
    def _searched(monkeypatch) -> list:
        searched = []
        real = morphisms._surjective_vertex_map_sum

        def counting(h, g, k, *, limits):
            searched.append((h, g))
            return real(h, g, k, limits=limits)
        monkeypatch.setattr(morphisms, "_surjective_vertex_map_sum", counting)
        return searched

    def test_whitney_4_2_searches(self, monkeypatch):
        # 78,961 pairs: 14,839 calls of the search, of which 8,215 pass the
        # pre-search tests; re-indexed to the enumeration order, the rows
        # are those of the pairwise loop the table replaced, at the
        # benchmark's pins and parts
        searched = self._searched(monkeypatch)
        W = whitney_matrix(4, 2, {1: Fraction(7, 31), 2: Fraction(29, 37)},
                           p=13, limits=WIDE_LIMITS)
        assert len(W.classes) == 281
        assert len(searched) == 14_839
        assert all(h.vertex_count > g.vertex_count
                   or canonical_key(h) == canonical_key(g)
                   for h, g in searched)
        position = {canonical_key(g): i for i, g in enumerate(W.classes)}
        order = [position[canonical_key(g)] for g in enumerate_Hn(4, 2)]
        listed = tuple(tuple(W.rows[i][j] for j in order) for i in order)
        assert hashlib.sha256(repr(listed).encode()).hexdigest() == (
            "d202270e524bf873483461f02007702e644de8d09a241d8a4353bb95a73c5417")
        assert hashlib.sha256(repr(W.rows).encode()).hexdigest() == (
            "c584661bf1c649dda2c81c2faa1a5b80d203bcb0ac85583cf58fab25322f1c8d")

    def test_pi_4_2_searches(self, monkeypatch):
        # 23 classes: 219 of the 529 pairs, and no automorphism count (|Aut|
        # is read off the table's diagonal)
        morphisms._surjection_table.cache_clear()
        searched = self._searched(monkeypatch)
        pi_formula(4, 2)
        assert len(searched) == 219
        assert all(h.vertex_count > g.vertex_count
                   or canonical_key(h) == canonical_key(g)
                   for h, g in searched)

    def test_a_proven_zero_needs_no_search(self, monkeypatch):
        # the 3-path and the 3-star have 4 vertices each, so neither is a
        # quotient of the other; count_surj searches the pair (it passes the
        # degree tests, and max_maps=0 refuses any search), the table never
        # does
        path, star = canonical_key(path_graph(3)), canonical_key(star_graph(3))
        with pytest.raises(CapExceeded):
            count_surj(path_graph(3), star_graph(3), limits=Limits(max_maps=0))
        searched = self._searched(monkeypatch)
        classes, table = surjection_table(3)
        keys = [canonical_key(g) for g in classes]
        assert table[keys.index(path)][keys.index(star)] == 0
        assert searched
        assert not [(h, g) for h, g in searched
                    if {canonical_key(h), canonical_key(g)} == {path, star}]

    @pytest.mark.parametrize("matrix", [
        lambda: whitney_matrix(3, 1, {1: Fraction(1, 3)}).rows,
        lambda: whitney_matrix(2, 2, {1: Fraction(1, 3),
                                      2: Fraction(2, 3)}).rows,
        lambda: whitney_matrix(3, 0).rows,
        # entry (g, h) of a scale matrix counts h onto g: the transpose
        lambda: list(zip(*pi_formula(3, 2).rows()))])
    def test_lower_triangular_as_listed(self, matrix):
        # the classes come in the surjection order, so no entry above the
        # diagonal is nonzero and the diagonal is positive
        rows = matrix()
        assert len(rows) > 1
        for i, row in enumerate(rows):
            assert row[i] > 0
            assert not any(row[i + 1:])

    def test_negative_fiber_cap_raises(self):
        with pytest.raises(ValueError):
            surjection_table(1, 0, -1)

    def test_each_table_is_searched_once_per_process(self, monkeypatch):
        # the Whitney table does not depend on p or the pins, and the
        # report's weighted tables serve every later scale matrix
        whitney_matrix(3, 1, {1: Fraction(1, 3)})
        fine = extract_T(QuantumGraph.from_graph(matching(3)), 3, 6)
        assert verify_structure(3).passed
        searched = self._searched(monkeypatch)
        whitney_matrix(3, 1, {1: Fraction(1, 3)}, p=8)
        assert searched == []
        pi_formula(3, 2)
        apply_constraint(fine, 2)
        assert searched == []


class TestWorkCap:
    def test_matching_within_default_caps(self):
        # the whole map space is 8^8 > max_maps; the search visits far less
        assert count_aut(matching(4), limits=DEFAULT_LIMITS) == 384

    def test_degree_cut_fits_a_tighter_cap(self):
        # a 4-star with one leaf extended: the search visits 11 nodes, 48
        # without the fiber-degree cut (which max_maps=24 would refuse); the
        # three other leaves are twins, and without folding them the search
        # visits 24 nodes
        h = Multigraph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5)])
        assert count_aut(h, limits=Limits(max_maps=24)) == 6

    @pytest.mark.parametrize("h, order, nodes", [
        (star_graph(5), 120, 33),
        (matching(4), 384, 83),
    ])
    def test_twin_fold_fits_a_tighter_cap(self, h, order, nodes):
        # the search visits one leaf per class of twin swaps: 33 nodes for
        # the 5-star and 83 for the 4-matching, where visiting every leaf
        # takes 327 and 1,265
        assert count_aut(h, limits=Limits(max_maps=nodes)) == order
        with pytest.raises(CapExceeded, match=f"visited {nodes} nodes"):
            count_aut(h, limits=Limits(max_maps=nodes - 1))

    def test_memo_fits_a_weighted_search_of_many_components(self):
        # the 5-matching onto itself: 5! 2^5 automorphisms, each weighed by
        # (2)_1 = 2 on each of 10 fibers.  The subtotal of the edges after
        # each completed edge is computed once per state and read back, so
        # the search computes 196 nodes, where the search without the memo
        # computes 976
        weighted = 3840 * 2 ** 10
        assert surjection_weight_sum(matching(5), matching(5), 2,
                                     limits=Limits(max_maps=196)) == weighted
        with pytest.raises(CapExceeded, match="visited 196 nodes"):
            surjection_weight_sum(matching(5), matching(5), 2,
                                  limits=Limits(max_maps=195))

    def test_each_labelled_vertex_is_one_search_node(self):
        # a star with leaf multiplicities 1, 2, 3 and its centre labelled, so
        # no two free vertices are twins: the pinned centre is the first
        # search step, so the search visits 10 nodes
        h = Multigraph(4, [(0, 1), (0, 2, 2), (0, 3, 3)], {1: 0})
        assert count_aut(h, limits=Limits(max_maps=10)) == 12
        with pytest.raises(CapExceeded, match="visited 10 nodes"):
            count_aut(h, limits=Limits(max_maps=9))

    @pytest.mark.parametrize("h, g", [
        # labelled degrees: the labelled centre of a 2-path has degree 2, its
        # image (the labelled end) degree 1, and no edge is spare
        (Multigraph(3, [(0, 1), (1, 2)], {1: 1}),
         Multigraph(3, [(0, 1), (1, 2)], {1: 0})),
        # prefix sums, equal edge counts: the 3-star's top degree 3 exceeds
        # the 3-path's 2
        (star_graph(3), path_graph(3)),
        # prefix sums, 2 spare edge ends: the top two h-degrees sum to
        # 5 + 4 = 9, past the top two g-degrees 4 + 2 plus 2
        (Multigraph(3, [(0, 1, 4), (0, 2)]),
         Multigraph(3, [(0, 1, 2), (0, 2, 2)])),
    ])
    def test_degree_tests_refuse_before_the_search(self, h, g):
        # each pair passes the vertex, pair and edge counts and fails one
        # degree test by one, so the search never starts: max_maps=0 refuses
        # any search, even one that stops at its first node
        assert backtrack_surj(h, g) == 0
        assert count_surj(h, g, limits=Limits(max_maps=0)) == 0

    @pytest.mark.parametrize("h, g, k", [
        # vertices: 3 source vertices in fibers of at most one over 2
        (path_graph(2), single_edge(), 1),
        # capped degree prefix: the 4-star's centre has degree 4, and its
        # fiber of at most 2 vertices reaches degree 2 + 1 = 3
        (Multigraph(7, [(0, 1), (1, 2), (3, 4), (5, 6)]), star_graph(4), 2),
        # pair multiplicities: the triple g-pair receives one h-pair, of
        # multiplicity at most 2
        (Multigraph(4, [(0, 1, 2), (0, 2, 2), (1, 3)]),
         Multigraph(3, [(0, 1, 3), (0, 2), (1, 2)]), 2),
    ], ids=["vertices", "capped-degree-prefix", "pair-multiplicities"])
    def test_capped_fiber_tests_refuse_before_the_search(self, h, g, k):
        # each pair passes the count and degree tests and fails one
        # capped-fiber test by one, so the search never starts
        assert backtrack_surjection_weight_sum(h, g, k) == 0
        assert surjection_weight_sum(h, g, k, limits=Limits(max_maps=0)) == 0

    def test_tiny_cap_raises(self):
        tiny = Limits(max_maps=10)
        with pytest.raises(CapExceeded, match="max_maps.*--max-maps"):
            count_aut(matching(4), limits=tiny)
        with pytest.raises(CapExceeded, match="visited 11 nodes"):
            count_hom(matching(4), single_edge(), limits=tiny)


def test_surjection_search_keeps_its_plans_out_of_the_density_cache():
    _enumerate_classes.cache_clear()  # fresh class objects, no records
    morphisms._surjection_table.cache_clear()
    _plan.cache_clear()
    W = whitney_matrix(3, 1, {1: Fraction(1, 3)})
    assert all(g._record.plan is not None for g in W.classes)
    assert _plan.cache_info().currsize == 0


class TestRecord:
    """The search record is built once per graph and kept on it; its plan is
    added once, the first time the graph is searched as a source."""

    @pytest.fixture()
    def records(self, monkeypatch):
        made = []
        record = morphisms._Record

        def counting(*args):
            made.append(record(*args))
            return made[-1]

        monkeypatch.setattr(morphisms, "_Record", counting)
        return made

    @pytest.fixture()
    def plans(self, monkeypatch):
        # each plan build asks `_make_plan` for the graph's search order
        made = []
        make_plan = morphisms._make_plan

        def counting(*args):
            made.append(args)
            return make_plan(*args)

        monkeypatch.setattr(morphisms, "_make_plan", counting)
        return made

    def test_one_record_per_whitney_class(self, records, plans):
        _enumerate_classes.cache_clear()  # fresh class objects, no records
        morphisms._surjection_table.cache_clear()
        pins = {1: Fraction(1, 3)}
        classes = whitney_matrix(3, 1, pins).classes
        assert len(records) == len(plans) == len(classes)
        assert all(g._record.plan is not None for g in classes)
        whitney_matrix(3, 1, pins)
        assert len(records) == len(plans) == len(classes)

    def test_hom_and_surj_share_the_target_record(self, records, plans):
        h = Multigraph(4, [(0, 1, 2), (1, 2), (2, 3)])
        g = Multigraph(3, [(0, 1, 2), (1, 2)])
        count_hom(h, g)
        record = g._record
        assert records == [record]
        assert plans == []  # a homomorphism count reads the rows only
        assert count_surj(h, g) == backtrack_surj(h, g)
        count_aut(g)
        assert g._record is record
        assert len(records) == 2  # g's, then h's
        assert len(plans) == 2  # h's, then g's, as the source of count_aut

    def test_refused_pairs_build_no_plan(self, plans):
        # the degree tests refuse the pair, so the source is never searched
        assert count_surj(star_graph(3), path_graph(3)) == 0
        assert plans == []
        # with k = 2 the capped-fiber tests refuse a pair the degree tests
        # pass: the 4-star's centre needs a fiber of 3 vertices
        h = Multigraph(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
        g = star_graph(4)
        assert surjection_weight_sum(h, g, 2) == 0
        assert plans == []
        assert count_surj(h, g) == backtrack_surj(h, g) > 0
        assert len(plans) == 1

    def test_records_outlast_many_targets(self, records, plans):
        h = parallel_edges(3)
        targets = [Multigraph(2 + m % 3, [(0, 1, 1 + m // 3)])
                   for m in range(1100)]
        for _ in range(2):
            for g in targets:
                count_surj(h, g)
        assert len(records) == 1 + len(targets)
        assert len(plans) == 1


class TestHomAtDefaultCaps:
    """Trees with 10 free vertices into a 14-vertex multigraph at the default
    caps, against closed forms: the density caps on parts (12) and
    integrated vertices (8) do not apply to homomorphism counts."""

    def _target(self):
        rng = random.Random(31)
        pairs = [(a, b) for a in range(14) for b in range(a + 1, 14)]
        return Multigraph(14, [rng.choice(pairs) for _ in range(40)])

    def test_star9_is_the_degree_moment(self):
        g = self._target()
        assert count_hom(star_graph(9), g, limits=DEFAULT_LIMITS) == \
            sum(g.degree(v) ** 9 for v in range(g.vertex_count))

    def test_path9_is_a_matrix_power(self):
        g = self._target()
        mat = [[g.multiplicity(a, b) for b in range(14)] for a in range(14)]
        vec = [1] * 14
        for _ in range(9):
            vec = [sum(x * y for x, y in zip(row, vec)) for row in mat]
        assert count_hom(path_graph(9), g, limits=DEFAULT_LIMITS) == sum(vec)


class TestAut:
    def test_frozen_examples(self):
        assert count_aut(single_edge()) == 2
        assert count_aut(parallel_edges(2)) == 4
        assert count_aut(complete_graph(3)) == 6
        assert count_aut(path_graph(2)) == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matching_formula(self, n):
        assert count_aut(matching(n)) == 2 ** n * math.factorial(n)

    def test_equals_self_surjections(self):
        for n in (1, 2, 3):
            for g in enumerate_Hn(n):
                assert count_aut(g) == count_surj(g, g)

    def test_labelled_automorphisms_fix_labels(self):
        plain = parallel_edges(2)
        pinned = Multigraph(2, [(0, 1, 2)], {1: 0})
        assert count_aut(plain) == 4
        assert count_aut(pinned) == 2  # vertex swap is gone, edge swap stays


class TestDensityBridge:
    def test_frozen_examples(self):
        assert t_combinatorial(single_edge(), single_edge()) == Fraction(1, 2)
        assert t_combinatorial(complete_graph(3), complete_graph(3)) == \
            Fraction(2, 9)
        assert t_combinatorial(Multigraph(0), complete_graph(3)) == 1

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            t_combinatorial(single_edge(), Multigraph(0))

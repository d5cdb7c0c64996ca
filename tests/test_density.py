import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from graphoncalc import (ARG, DecoratedDensity, Multigraph, StepKernel,
                         basis_edge, complete_graph, density, enumerate_Hn,
                         eval_decorated, from_graph, glue_product,
                         labelled_density, l1_norm, multiplicativity_check,
                         parallel_edges, path_graph, permute_parts,
                         pins_from_json, refine, simplify, single_edge,
                         star_graph, t_combinatorial)
from graphoncalc.limits import CapExceeded, Limits

from .bruteforce import (backtrack_density, random_kernel, random_labelled,
                         random_multigraph, random_signed_kernel)


class TestUnlabelledDensity:
    def test_constant_kernel(self):
        rng = random.Random(0)
        for n in (1, 2, 3):
            for h in enumerate_Hn(n):
                c = Fraction(rng.randint(0, 8), 8)
                assert density(h, StepKernel.constant(c)) == c ** h.edge_count

    def test_empty_graph(self):
        f = random_kernel(random.Random(1), 3)
        assert density(Multigraph(0), f) == 1

    def test_graph_kernel_examples(self):
        fk2 = from_graph(single_edge())
        assert density(single_edge(), fk2) == Fraction(1, 2)
        assert density(star_graph(3), fk2) == Fraction(1, 8)

    def test_combinatorial_bridge(self):
        rng = random.Random(2)
        graphs = [g for n in (1, 2, 3) for g in enumerate_Hn(n)]
        for _ in range(25):
            h = rng.choice(graphs)
            g = random_multigraph(rng, max_vertices=4, max_edges=4)
            assert density(h, from_graph(g)) == t_combinatorial(h, g)

    def test_refine_and_permute_invariance(self):
        rng = random.Random(3)
        graphs = [g for n in (1, 2, 3) for g in enumerate_Hn(n)]
        for _ in range(10):
            f = random_kernel(rng, 3)
            h = rng.choice(graphs)
            value = density(h, f)
            assert density(h, refine(f, 2)) == value
            sigma = [1, 2, 3]
            rng.shuffle(sigma)
            assert density(h, permute_parts(f, sigma)) == value

    def test_zero_one_kernels_see_simple_graph(self):
        rng = random.Random(4)
        graphs = [g for n in (2, 3) for g in enumerate_Hn(n)]
        for _ in range(15):
            f = random_kernel(rng, 3, denominator=1)  # 0/1-valued
            h = rng.choice(graphs)
            assert density(h, f) == density(simplify(h), f)

    def test_l1_lipschitz_bound(self):
        rng = random.Random(5)
        graphs = [g for n in (1, 2, 3) for g in enumerate_Hn(n)]
        for _ in range(25):
            f = random_kernel(rng, 3)
            g = random_kernel(rng, 3)
            h = rng.choice(graphs)
            lhs = abs(density(h, f) - density(h, g))
            assert lhs <= h.edge_count * l1_norm(f - g)

    def test_vertex_cap(self):
        with pytest.raises(CapExceeded):
            density(star_graph(9), StepKernel.constant(Fraction(1, 2)))
        density(star_graph(9), StepKernel.constant(Fraction(1, 2)),
                limits=Limits(max_vertices=10))

    def test_parts_cap(self):
        big = StepKernel.zero(13)
        with pytest.raises(CapExceeded):
            density(single_edge(), big)

    def test_cap_messages_name_the_field_and_the_flag(self):
        with pytest.raises(CapExceeded, match=r"kernel has 13 parts, over the "
                           r"max_parts cap of 12 \(raise it with --max-parts\)"):
            density(single_edge(), StepKernel.zero(13))
        with pytest.raises(CapExceeded, match=r"10 integrated vertices, over "
                           r"the max_vertices cap of 8 \(raise it with "
                           r"--max-vertices\)"):
            density(star_graph(9), StepKernel.constant(Fraction(1, 2)))

    @pytest.mark.parametrize("cap", [cap.name for cap in fields(Limits)])
    def test_negative_caps_are_refused(self, cap):
        with pytest.raises(ValueError, match=f"{cap} must be at least 0, not -1"):
            Limits(**{cap: -1})
        # a cap of 0 stays valid: it refuses any work the cap counts
        assert getattr(Limits(**{cap: 0}), cap) == 0

    def test_node_cap_bounds_the_density_search(self):
        f = random_kernel(random.Random(22), 4, lo=1)
        with pytest.raises(CapExceeded, match=r"over the max_maps cap of 10 "
                           r"\(raise it with --max-maps\)"):
            density(complete_graph(4), f, limits=Limits(max_maps=10))


class TestTreesOnManyParts:
    """Stars and paths on 8 vertices over a dense 12-part kernel at the
    default caps, against closed forms: the plain backtracking core needed
    12^8 maps for each."""

    P = 12

    def _kernel(self):
        return random_kernel(random.Random(21), self.P, lo=1)

    def test_star7_is_the_row_sum_moment(self):
        f = self._kernel()
        expect = Fraction(sum(sum(row) ** 7 for row in f.matrix), self.P ** 8)
        assert density(star_graph(7), f) == expect

    def test_path7_is_a_matrix_power(self):
        f = self._kernel()
        vec = [Fraction(1)] * self.P
        for _ in range(7):
            vec = [sum(x * y for x, y in zip(row, vec)) for row in f.matrix]
        assert density(path_graph(7), f) == sum(vec) / self.P ** 8


class TestCoreAgainstBacktracking:
    """density, labelled_density and eval_decorated against the plain
    backtracking core they replaced, on random multigraphs (parallel edges,
    isolated vertices, no edges at all) with 0-3 pinned labels and dense,
    sparse, signed or basis-edge kernels on 1-8 parts."""

    KINDS = ("dense", "sparse", "signed", "basis")

    @staticmethod
    def _kernel(rng, kind, parts):
        if kind == "basis" and parts > 1:
            a, b = sorted(rng.sample(range(1, parts + 1), 2))
            return basis_edge(parts, a, b)
        if kind == "dense":
            return random_kernel(rng, parts, lo=1)
        if kind == "signed":
            return random_signed_kernel(rng, parts, denominator=3)
        return random_kernel(rng, parts, denominator=2)  # 1/3 of cells zero

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 3),
           st.integers(1, 8), st.sampled_from(KINDS), st.booleans())
    def test_matches_oracle(self, rng, labels, parts, kind, ensure_edge):
        g = random_multigraph(rng, 5, 6, ensure_edge=ensure_edge)
        assume(g.vertex_count >= labels)
        h = random_labelled(rng, g, labels)
        f = self._kernel(rng, kind, parts)
        factors = [(u, v, f, m) for (u, v), m in g.pairs]
        assert density(g, f) == backtrack_density(
            g.vertex_count, parts, factors, {})

        part = {lab: rng.randrange(parts) for lab, _ in h.labels}
        pins = {lab: Fraction(2 * c + 1, 2 * parts) for lab, c in part.items()}
        fixed = {v: part[lab] for lab, v in h.labels}
        assert labelled_density(h, f, pins) == backtrack_density(
            h.vertex_count, parts, factors, fixed)

        slots = {(u, v, i): rng.choice(
                     [ARG, self._kernel(rng, rng.choice(self.KINDS), parts)])
                 for (u, v), m in h.pairs for i in range(m)}
        d = DecoratedDensity.build(h, slots, pins)
        copies = [(u, v, f if k is ARG else k, 1)
                  for (u, v, _), k in slots.items()]
        assert eval_decorated(d, f) == backtrack_density(
            h.vertex_count, parts, copies, fixed)


class TestLabelledDensity:
    def test_no_labels_reduces_to_density(self):
        f = random_kernel(random.Random(6), 3)
        h = path_graph(2)
        assert labelled_density(h, f, {}) == density(h, f)

    def test_fully_pinned_edge_reads_cell(self):
        f = random_kernel(random.Random(7), 4)
        h = Multigraph(2, [(0, 1)], {1: 0, 2: 1})
        pins = {1: Fraction(1, 8), 2: Fraction(5, 8)}  # parts 1 and 3
        assert labelled_density(h, f, pins) == f.matrix[0][2]

    def test_pin_representative_independence(self):
        f = random_kernel(random.Random(8), 4)
        h = Multigraph(2, [(0, 1)], {1: 0})
        v1 = labelled_density(h, f, {1: Fraction(1, 8)})
        v2 = labelled_density(h, f, {1: Fraction(3, 16)})  # same part
        assert v1 == v2

    def test_boundary_pin_rejected(self):
        f = random_kernel(random.Random(9), 4)
        h = Multigraph(2, [(0, 1)], {1: 0})
        with pytest.raises(ValueError):
            labelled_density(h, f, {1: Fraction(1, 4)})
        with pytest.raises(ValueError):
            labelled_density(h, f, {1: Fraction(0)})

    def test_missing_pin_rejected(self):
        f = random_kernel(random.Random(10), 4)
        h = Multigraph(2, [(0, 1)], {1: 0})
        with pytest.raises(ValueError):
            labelled_density(h, f, {})

    @pytest.mark.parametrize("x", [Fraction(3, 2), Fraction(5, 4),
                                   Fraction(-1, 2), Fraction(0), Fraction(1)])
    def test_pin_outside_unit_interval_names_the_range(self, x):
        # 0, 1 and 5/4 also sit on part boundaries at 4 parts
        f = random_kernel(random.Random(9), 4)
        h = Multigraph(2, [(0, 1)], {1: 0})
        with pytest.raises(ValueError, match=r"outside \(0, 1\)"):
            labelled_density(h, f, {1: x})

    @pytest.mark.parametrize("x", [Fraction(1, 4), Fraction(1, 2),
                                   Fraction(3, 4)])
    def test_pin_on_boundary_names_the_boundary(self, x):
        f = random_kernel(random.Random(9), 4)
        h = Multigraph(2, [(0, 1)], {1: 0})
        with pytest.raises(ValueError, match="part boundary at 4 parts"):
            labelled_density(h, f, {1: x})

    def test_pin_for_a_missing_label_rejected(self):
        f = random_kernel(random.Random(10), 4)
        h = Multigraph(2, [(0, 1)], {1: 0})
        with pytest.raises(ValueError, match=r"does not have: \[7\]"):
            labelled_density(h, f, {1: Fraction(1, 3), 7: Fraction(1, 5)})
        with pytest.raises(ValueError, match=r"does not have: \[1\]"):
            labelled_density(path_graph(2), f, {1: Fraction(1, 3)})

    def test_pinned_product_identity(self):
        rng = random.Random(11)
        pins = {1: Fraction(1, 8), 2: Fraction(7, 16)}
        h1 = Multigraph(3, [(0, 1), (1, 2)], {1: 0, 2: 2})
        h2 = Multigraph(3, [(0, 2, 2)], {1: 0, 2: 1})
        for _ in range(10):
            f = random_kernel(rng, 4)
            lhs = labelled_density(h1, f, pins) * labelled_density(h2, f, pins)
            rhs = labelled_density(glue_product(h1, h2), f, pins)
            assert lhs == rhs

    def test_labelled_isolated_vertex_is_free(self):
        f = random_kernel(random.Random(12), 4)
        h = Multigraph(3, [(1, 2)], {1: 0})
        assert labelled_density(h, f, {1: Fraction(1, 8)}) == \
            density(path_graph(1), f)


class TestDecorated:
    def test_all_arg_slots_reduce_to_density(self):
        f = random_kernel(random.Random(13), 3)
        h = path_graph(2)
        d = DecoratedDensity.build(h, {(0, 1, 0): ARG, (1, 2, 0): ARG})
        assert eval_decorated(d, f) == density(h, f)

    def test_all_concrete_is_constant_in_argument(self):
        rng = random.Random(14)
        g1 = random_kernel(rng, 3)
        g2 = random_kernel(rng, 3)
        h = path_graph(2)
        d = DecoratedDensity.build(h, {(0, 1, 0): g1, (1, 2, 0): g2})
        v1 = eval_decorated(d, random_kernel(rng, 3))
        v2 = eval_decorated(d, random_kernel(rng, 2))
        assert v1 == v2

    def test_single_decorated_edge_integrates_direction(self):
        rng = random.Random(15)
        g = random_kernel(rng, 3)
        d = DecoratedDensity.build(single_edge(), {(0, 1, 0): g})
        mean = Fraction(sum(sum(row) for row in g.matrix), 9)
        assert eval_decorated(d, random_kernel(rng, 2)) == mean

    def test_parallel_slots_can_differ(self):
        rng = random.Random(16)
        g1 = basis_edge(2, 1, 2)
        g2 = StepKernel.constant(Fraction(1, 2), 2)
        d = DecoratedDensity.build(parallel_edges(2),
                                   {(0, 1, 0): g1, (0, 1, 1): g2})
        # integrand is g1(x,y) * g2(x,y): mean of the entrywise product
        assert eval_decorated(d, StepKernel.zero(2)) == Fraction(1, 4)

    def test_slot_cover_validation(self):
        with pytest.raises(ValueError):
            DecoratedDensity.build(parallel_edges(2), {(0, 1, 0): ARG})
        with pytest.raises(ValueError):
            DecoratedDensity.build(single_edge(),
                                   {(0, 1, 0): ARG, (0, 1, 1): ARG})

    def test_pinned_decorated(self):
        f = random_kernel(random.Random(17), 4)
        g = random_kernel(random.Random(18), 4)
        h = Multigraph(2, [(0, 1)], {1: 0})
        d = DecoratedDensity.build(h, {(0, 1, 0): g}, {1: Fraction(1, 8)})
        expect = Fraction(sum(g.matrix[0]), 4)
        assert eval_decorated(d, f) == expect


class TestMultiplicativity:
    def test_disjoint_union_identity(self):
        rng = random.Random(19)
        graphs = [g for n in (1, 2) for g in enumerate_Hn(n)]
        for _ in range(15):
            f = random_kernel(rng, 3)
            assert multiplicativity_check(rng.choice(graphs),
                                          rng.choice(graphs), f)

    def test_empty_factor(self):
        f = random_kernel(random.Random(20), 3)
        assert multiplicativity_check(Multigraph(0), path_graph(2), f)


def test_pins_json_round_trip():
    pins = pins_from_json({"1": "1/3", "2": "0.5"})
    assert pins == {1: Fraction(1, 3), 2: Fraction(1, 2)}
    with pytest.raises(ValueError):
        pins_from_json({"1": "not-a-number"})

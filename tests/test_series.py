import dataclasses
import math
import random
from fractions import Fraction

import pytest

from graphoncalc import (DecoratedDensity, DerivativeRequest, Multigraph,
                         QuantumGraph, StepKernel, basis_edge, canonical_key,
                         complete_graph, count_surj, density, disjoint_union,
                         enumerate_Hn, eval_decorated, eval_quantum,
                         eval_series, from_graph, gateaux_exact,
                         lagrange_interpolate, matching, parallel_edges,
                         path_graph, quantum_from_json, quantum_multiply,
                         quantum_to_json, radius_of_convergence, single_edge,
                         star_graph, taylor_recover, whitney_matrix)
from graphoncalc import series
from graphoncalc.density import part_of
from graphoncalc.limits import DEFAULT_LIMITS, CapExceeded, WIDE_LIMITS
from graphoncalc.series import GeometricTail, PowerSeries

from .bruteforce import gauss_determinant, random_kernel


def k3_power(m):
    g = Multigraph(0)
    for _ in range(m):
        g = disjoint_union(g, complete_graph(3))
    return g


def geometric_triangle_series(top_m=6):
    slices = {3 * m: QuantumGraph.from_graph(k3_power(m), Fraction(1, 2 ** m))
              for m in range(top_m + 1)}
    tail = GeometricTail(start=3 * (top_m + 1), stride=3, ratio=Fraction(1, 2),
                         scale=Fraction(1, 2 ** (top_m + 1)))
    return PowerSeries(slices, tail=tail)


class TestQuantumGraph:
    def test_product_of_edges_is_matching(self):
        F = QuantumGraph.from_graph(single_edge())
        product = quantum_multiply(F, F)
        assert product.coefficient(matching(2)) == 1
        assert len(product.terms()) == 1

    def test_unit_element(self):
        F = QuantumGraph.from_graph(path_graph(2), Fraction(2, 3))
        assert quantum_multiply(F, QuantumGraph.unit()) == F

    def test_zero_coefficients_dropped(self):
        F = QuantumGraph.from_graph(single_edge()) \
            - QuantumGraph.from_graph(Multigraph(2, [(1, 0)]))
        assert F.is_zero

    def test_evaluation_examples(self):
        c = StepKernel.constant(Fraction(1, 2))
        F = (QuantumGraph.from_graph(single_edge(), 3)
             + QuantumGraph.from_graph(complete_graph(3), -2))
        assert eval_quantum(F, c) == Fraction(3, 2) - Fraction(2, 8)
        assert eval_quantum(QuantumGraph.unit(), c) == 1
        assert eval_quantum(QuantumGraph.from_graph(complete_graph(3)),
                            from_graph(single_edge())) == 0

    def test_evaluation_is_algebra_homomorphism(self):
        rng = random.Random(0)
        pool = [g for n in (0, 1, 2) for g in enumerate_Hn(n)]
        for _ in range(10):
            F = QuantumGraph([(rng.choice(pool),
                               Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                              for _ in range(2)])
            G = QuantumGraph([(rng.choice(pool),
                               Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                              for _ in range(2)])
            f = random_kernel(rng, 2)
            assert eval_quantum(quantum_multiply(F, G), f, limits=WIDE_LIMITS) \
                == eval_quantum(F, f) * eval_quantum(G, f)

    def test_labelled_evaluation_homomorphism(self):
        rng = random.Random(1)
        pins = {1: Fraction(1, 8)}
        e = Multigraph(2, [(0, 1)], {1: 0})
        s = Multigraph(3, [(0, 1), (0, 2)], {1: 0})
        F = QuantumGraph.from_graph(e, 2)
        G = QuantumGraph.from_graph(s, Fraction(1, 3))
        for _ in range(5):
            f = random_kernel(rng, 4)
            assert eval_quantum(quantum_multiply(F, G), f, pins) == \
                eval_quantum(F, f, pins) * eval_quantum(G, f, pins)

    def test_json_round_trip(self):
        F = QuantumGraph([(single_edge(), Fraction(3, 7)),
                          (parallel_edges(2), -2)])
        assert quantum_from_json(quantum_to_json(F)) == F

    def test_product_operator_is_the_gluing_product(self):
        F = QuantumGraph.from_graph(single_edge(), 3)
        G = QuantumGraph.from_graph(path_graph(2), Fraction(1, 2))
        assert F * G == quantum_multiply(F, G)
        assert (F * G).terms() == [
            (disjoint_union(single_edge(), path_graph(2)), Fraction(3, 2))]
        with pytest.raises(TypeError):
            F * 2

    def test_equality_pads_the_smaller_label_count(self):
        edge = QuantumGraph.from_graph(single_edge())
        padded = QuantumGraph([(single_edge(), 1)], k=1)
        pinned = QuantumGraph([(Multigraph(2, [(0, 1)], {1: 0}), 1)], k=1)
        assert edge == padded and padded == edge
        assert edge != pinned and pinned != edge

    @pytest.mark.parametrize("build", [
        lambda: QuantumGraph.zero(-2),
        lambda: QuantumGraph([(single_edge(), 1)], k=-1),
        lambda: quantum_from_json({"k": -1, "terms": []})],
        ids=["zero", "with-terms", "json"])
    def test_negative_label_count_is_refused(self, build):
        with pytest.raises(ValueError,
                           match="label count k must be at least 0"):
            build()


class TestRadius:
    def test_geometric_triangle_series(self):
        S = geometric_triangle_series()
        result = radius_of_convergence(S)
        assert result.exact is not None
        assert abs(result.exact - 2 ** (1 / 3)) <= 1e-9

    def test_polynomial_radius_infinite(self):
        S = PowerSeries.polynomial(QuantumGraph.from_graph(path_graph(2)))
        assert radius_of_convergence(S) == (math.inf, math.inf)

    def test_zero_series(self):
        S = PowerSeries({})
        assert radius_of_convergence(S).lower == math.inf

    def test_truncation_with_only_a_constant_term(self):
        S = PowerSeries({0: Fraction(5, 2) * QuantumGraph.unit()},
                        complete=False)
        assert radius_of_convergence(S) == (math.inf, None)

    @pytest.mark.parametrize("k, pins", [
        (2, {1: Fraction(1, 3)}), (1, {2: Fraction(1, 3)}),
        (0, {1: Fraction(1, 3)}), (1, {1: Fraction(1, 3), 2: Fraction(2, 3)})])
    def test_pins_must_cover_the_labels(self, k, pins):
        with pytest.raises(ValueError, match="pins must cover labels 1..k"):
            PowerSeries({}, k=k, pins=pins)

    def test_truncation_only_is_heuristic(self):
        S = PowerSeries({3: QuantumGraph.from_graph(complete_graph(3),
                                                    Fraction(1, 2))},
                        complete=False)
        result = radius_of_convergence(S)
        assert result.exact is None
        assert result.lower == pytest.approx(2 ** (1 / 3))


class TestEvalSeries:
    def test_polynomial_exact_with_zero_tail(self):
        F = QuantumGraph.from_graph(single_edge(), 3) \
            + QuantumGraph.from_graph(parallel_edges(2), Fraction(1, 5))
        S = PowerSeries.polynomial(F)
        f = random_kernel(random.Random(2), 3)
        value, tail = eval_series(S, f, 2)
        assert value == eval_quantum(F, f)
        assert tail == 0

    def test_partial_sum_below_truncation(self):
        F = QuantumGraph.from_graph(single_edge(), 3) \
            + QuantumGraph.from_graph(parallel_edges(2), Fraction(1, 5))
        S = PowerSeries.polynomial(F)
        f = random_kernel(random.Random(3), 2)
        value, tail = eval_series(S, f, 1)
        assert value == 3 * density(single_edge(), f)
        assert tail == Fraction(1, 5) * f.max_abs() ** 2

    def test_geometric_series_at_one(self):
        S = geometric_triangle_series()
        one = StepKernel.constant(1)
        value, tail = eval_series(S, one, 18, limits=WIDE_LIMITS)
        assert value == 2 - Fraction(1, 64)
        assert tail == Fraction(1, 64)
        # tighter truncation still brackets the limit
        value9, tail9 = eval_series(S, one, 9, limits=WIDE_LIMITS)
        assert value9 < 2 <= value9 + tail9

    def test_tail_requires_kernel_inside_radius(self):
        S = geometric_triangle_series()
        with pytest.raises(ValueError):
            eval_series(S, StepKernel.constant(2), 18, limits=WIDE_LIMITS)

    def test_truncated_coefficients_unavailable(self):
        S = geometric_triangle_series()
        with pytest.raises(ValueError):
            eval_series(S, StepKernel.constant(1), 100, limits=WIDE_LIMITS)

    def test_no_tail_bound_from_the_tail_start_on(self):
        # with no slice stored, a tail may start at degree 0; its degree-0
        # norm, 1, is in neither a partial sum through N = 0 nor a bound
        # from degree 1 on (1/2 * 1/2 / (1 - 1/4) = 1/3), so N = 0 is refused
        S = PowerSeries({}, tail=GeometricTail(0, 1, Fraction(1, 2),
                                               Fraction(1)))
        assert S.max_degree == 0 and not S.complete
        with pytest.raises(ValueError, match="from degree 0 are not stored"):
            eval_series(S, StepKernel.constant(Fraction(1, 2)), 0)

    def test_divergence_witness_descends(self):
        # alternating triangle-power / star series evaluated at 3 * edge kernel
        slices = {}
        for m in range(1, 6):
            slices[3 * m] = (
                QuantumGraph.from_graph(k3_power(m), Fraction(1, 2 ** m))
                + QuantumGraph.from_graph(star_graph(3 * m),
                                          -Fraction(1, 2 ** m)))
        S = PowerSeries(slices, complete=False)
        witness = Fraction(3) * from_graph(single_edge())
        partials = [eval_series(S, witness, N, limits=WIDE_LIMITS).value
                    for N in (3, 6, 9, 12, 15)]
        assert all(b < a for a, b in zip(partials, partials[1:]))


class TestSeriesArithmetic:
    def test_sum_radius_at_least_min(self):
        S1 = geometric_triangle_series()
        slices = {3 * m: QuantumGraph.from_graph(k3_power(m), Fraction(1, 3 ** m))
                  for m in range(7)}
        S2 = PowerSeries(slices, tail=GeometricTail(21, 3, Fraction(1, 3),
                                                    Fraction(1, 3 ** 7)))
        bound = min(radius_of_convergence(S1).lower,
                    radius_of_convergence(S2).lower)
        total = S1.linear_combination(S2, 1, Fraction(1, 2))
        assert radius_of_convergence(total).lower >= bound - 1e-12

    def test_sum_with_equal_ratios_stays_exact_shape(self):
        S = geometric_triangle_series()
        double = S.linear_combination(S, 1, 1)
        assert double.tail.scale == 2 * S.tail.scale
        value, _ = eval_series(double, StepKernel.constant(1), 6,
                               limits=WIDE_LIMITS)
        base, _ = eval_series(S, StepKernel.constant(1), 6, limits=WIDE_LIMITS)
        assert value == 2 * base

    @staticmethod
    def _poly(*terms):
        return PowerSeries.polynomial(QuantumGraph(terms))

    def test_sum_and_difference_of_polynomials(self):
        A = self._poly((single_edge(), 2), (complete_graph(3), Fraction(1, 3)))
        B = self._poly((single_edge(), 5), (path_graph(2), -1))
        total, difference = A + B, A - B
        assert total.complete and total.tail is None
        assert total.slices == {
            1: QuantumGraph.from_graph(single_edge(), 7),
            2: QuantumGraph.from_graph(path_graph(2), -1),
            3: QuantumGraph.from_graph(complete_graph(3), Fraction(1, 3))}
        assert difference.complete and difference.tail is None
        assert difference.slices == {
            1: QuantumGraph.from_graph(single_edge(), -3),
            2: QuantumGraph.from_graph(path_graph(2), 1),
            3: QuantumGraph.from_graph(complete_graph(3), Fraction(1, 3))}
        assert (A - A).slices == {} and (A - A).complete

    def test_polynomial_below_the_tail_scales_it_exactly(self):
        # past degree 3 only S contributes, so its tail is scaled by |c|
        S = geometric_triangle_series()
        P = self._poly((single_edge(), 4), (complete_graph(3), 1))
        assert (P - S).tail == GeometricTail(21, 3, Fraction(1, 2),
                                             Fraction(1, 128))
        combined = P.linear_combination(S, 3, Fraction(-5, 2))
        assert combined.tail == GeometricTail(21, 3, Fraction(1, 2),
                                              Fraction(5, 256))
        assert not combined.complete and not combined.tail.is_bound
        assert (S + P).tail == S.tail
        assert (P - S).slice(3) == QuantumGraph.from_graph(
            complete_graph(3), Fraction(1, 2))

    def test_polynomial_reaching_the_tail_start_drops_it(self):
        S = geometric_triangle_series()
        P = self._poly((k3_power(7), 1))
        for total in (P + S, S - P):
            assert total.tail is None and not total.complete
            assert total.max_degree == 21

    def test_tails_on_different_grids_are_dropped(self):
        S = geometric_triangle_series()
        shifted = PowerSeries({0: QuantumGraph.unit()},
                              tail=GeometricTail(3, 3, Fraction(1, 2),
                                                 Fraction(1)))
        strided = PowerSeries({0: QuantumGraph.unit()},
                              tail=GeometricTail(21, 1, Fraction(1, 2),
                                                 Fraction(1)))
        for other in (shifted, strided):
            total = S + other
            assert total.tail is None and not total.complete

    def test_incomplete_side_without_a_tail_gives_none(self):
        S = geometric_triangle_series()
        bare = PowerSeries({3: QuantumGraph.from_graph(complete_graph(3))},
                           complete=False)
        P = self._poly((single_edge(), 1))
        for total in (S + bare, bare - S, P + bare, bare - P):
            assert total.tail is None and not total.complete
        assert (P + bare).slices == {
            1: QuantumGraph.from_graph(single_edge()),
            3: QuantumGraph.from_graph(complete_graph(3))}

    def test_product_tail_with_the_polynomial_on_the_right(self):
        # S's norms are 2^-m at degree 3m; with P = 1 + K3/5 the product's
        # norm at 3m is 2^-m (1 + 2/5), so at degree 21 it is 7/640
        S = geometric_triangle_series()
        P = self._poly((Multigraph(0), 1), (complete_graph(3), Fraction(1, 5)))
        expected = GeometricTail(21, 3, Fraction(1, 2), Fraction(7, 640),
                                 is_bound=True)
        assert (S * P).tail == expected
        assert (P * S).tail == expected
        assert (S * P).max_degree == 18

    def test_geometric_profile_refuses_what_is_not_one_law(self):
        K3 = QuantumGraph.from_graph(complete_graph(3))
        tail = GeometricTail(6, 3, Fraction(1, 2), Fraction(1, 4))
        assert series._pure_geometric_profile(
            PowerSeries({3: Fraction(1, 2) * K3}, tail=tail)) == (
                3, 3, Fraction(1, 2), Fraction(1, 2))
        for S in (PowerSeries({3: K3}, complete=False),
                  PowerSeries({3: K3}, tail=dataclasses.replace(
                      tail, is_bound=True)),
                  # degree 1 is off the tail's grid of degrees 0 mod 3
                  PowerSeries({1: QuantumGraph.from_graph(single_edge())},
                              tail=tail),
                  # the law gives norm 1/2 at degree 3, not 1
                  PowerSeries({3: K3}, tail=tail)):
            assert series._pure_geometric_profile(S) is None

    def test_product_tails_that_cannot_be_bounded(self):
        S = geometric_triangle_series(2)
        P = self._poly((Multigraph(0), 1), (complete_graph(3), Fraction(1, 5)))
        # norms 2^-m at degree 3m, times 1 + 2/5, from degree 9 on
        bound = P * S
        assert bound.tail == GeometricTail(9, 3, Fraction(1, 2),
                                           Fraction(7, 40), is_bound=True)
        zero = PowerSeries({})
        edge = self._poly((single_edge(), 1))
        # two truncations; a bound tail; no nonzero polynomial degree; a
        # polynomial degree off the tail's grid
        for product in (S * S, P * bound, zero * S, edge * S):
            assert product.tail is None and not product.complete
        # kept through the truncation, degree 6: 2 (1/4) + (1/2)^2 of K3 K3
        assert (S * S).max_degree == 6
        assert (S * S).slice(6) == QuantumGraph.from_graph(k3_power(2),
                                                           Fraction(3, 4))
        assert (zero * S).slices == {}
        assert (edge * S).slices == {
            1: QuantumGraph.from_graph(single_edge()),
            4: QuantumGraph.from_graph(
                disjoint_union(single_edge(), complete_graph(3)),
                Fraction(1, 2))}

    def test_product_radius_at_least_min(self):
        S = geometric_triangle_series()
        poly = PowerSeries({0: QuantumGraph.unit(),
                            3: QuantumGraph.from_graph(complete_graph(3),
                                                       Fraction(1, 5))})
        product = poly * S
        assert radius_of_convergence(product).lower >= \
            radius_of_convergence(S).lower - 1e-12
        # the bound really is a bound: evaluation plus tail brackets the truth
        half = StepKernel.constant(Fraction(1, 2))
        value, tail = eval_series(product, half, product.max_degree,
                                  limits=WIDE_LIMITS)
        poly_value = 1 + Fraction(1, 5) * Fraction(1, 8)
        geo_value = Fraction(16, 15)  # sum of (1/2)(1/8)^... at c = 1/2
        truth = poly_value * geo_value
        assert value <= truth <= value + tail

    def test_convolution_identity_through_degree_six(self):
        rng = random.Random(4)
        A = PowerSeries({n: QuantumGraph.from_graph(matching(n) if n else
                                                    Multigraph(0),
                                                    Fraction(1, 3 ** n))
                         for n in range(4)})
        B = PowerSeries({n: QuantumGraph.from_graph(path_graph(n) if n else
                                                    Multigraph(0),
                                                    Fraction((-1) ** n, n + 1))
                         for n in range(4)})
        product = A * B
        for _ in range(3):
            f = random_kernel(rng, 2)
            for degree in range(7):
                direct = eval_quantum(product.slice(degree), f,
                                      limits=WIDE_LIMITS)
                convolved = sum(
                    eval_quantum(A.slice(a), f, limits=WIDE_LIMITS)
                    * eval_quantum(B.slice(degree - a), f, limits=WIDE_LIMITS)
                    for a in range(degree + 1))
                assert direct == convolved

    def test_termwise_differentiation_of_polynomials(self):
        rng = random.Random(5)
        F = QuantumGraph.from_graph(single_edge(), 2) \
            + QuantumGraph.from_graph(parallel_edges(2), Fraction(1, 3)) \
            + QuantumGraph.from_graph(complete_graph(3), -1)
        S = PowerSeries.polynomial(F)
        base = random_kernel(rng, 2)
        dirs = (random_kernel(rng, 2), random_kernel(rng, 2))
        request = DerivativeRequest(base, dirs)
        total = gateaux_exact(F, request)
        by_slice = sum(gateaux_exact(S.slice(n), request)
                       for n in S.slices)
        assert total == by_slice


class TestTaylorRecover:
    def _oracle_for(self, F, p):
        def oracle(dirs):
            base = StepKernel.zero(dirs[0].parts if dirs else p)
            return gateaux_exact(F, DerivativeRequest(base, dirs))
        return oracle

    def test_constructed_round_trip(self):
        F = (QuantumGraph.from_graph(single_edge(), 3)
             + QuantumGraph.from_graph(complete_graph(3), -2)
             + QuantumGraph.from_graph(parallel_edges(2), 5))
        report = taylor_recover(self._oracle_for(F, 6), 3, 6)
        assert report.as_quantum() == F
        assert report.all_residuals_ok

    def test_zero_oracle(self):
        report = taylor_recover(lambda dirs: Fraction(0), 2, 4)
        assert report.as_quantum().is_zero

    def test_constant_term_recovered(self):
        F = Fraction(7, 2) * QuantumGraph.unit()
        report = taylor_recover(self._oracle_for(F, 4), 2, 4)
        assert report.as_quantum() == F

    def test_random_round_trips(self):
        rng = random.Random(6)
        support = [g for n in range(4) for g in enumerate_Hn(n)]
        for _ in range(5):
            F = QuantumGraph([(g, Fraction(rng.randint(-12, 12),
                                           rng.randint(1, 8)))
                              for g in support])
            report = taylor_recover(self._oracle_for(F, 6), 3, 6)
            assert report.as_quantum() == F

    def test_degree_zero_is_solved_on_the_empty_graph_table(self, monkeypatch):
        """Degree 0 is the 1 x 1 table S_0 = [[1]] of the empty graph, solved
        and checked as every other degree: a table reading 2 halves the
        constant coefficient."""
        assert series.surjection_table(0) == ((Multigraph(0),), ((1,),))
        table = series.surjection_table

        def doubled(n, labels=0, k=None, *, limits=DEFAULT_LIMITS):
            return (table(n, labels, k, limits=limits) if n else
                    ((Multigraph(0),), ((2,),)))

        monkeypatch.setattr(series, "surjection_table", doubled)
        report = taylor_recover(lambda dirs: Fraction(0 if dirs else 7), 1, 2)
        assert report.degree_coefficients[0] == (
            0, ((Multigraph(0), Fraction(7, 2)),))
        assert report.residual_ok == ((0, True), (1, True))

    def test_one_oracle_call_per_class(self):
        calls = []
        report = taylor_recover(lambda dirs: calls.append(dirs) or Fraction(0),
                                3, 6)
        assert report.as_quantum().is_zero
        # the value at 0, the 1 + 3 + 8 classes of 1..3 edges, and the
        # three calls of the symmetry and linearity spot check
        assert len(calls) == 1 + 12 + 3

    def test_count_above_the_diagonal_fails_the_residual(self, monkeypatch):
        """Back substitution reads S on and below its diagonal only; the
        residual is the full product against S, so a count put above the
        diagonal fails degree 2 and leaves the coefficients alone."""
        table = series.surjection_table

        def corrupted(n, labels=0, k=None, *, limits=DEFAULT_LIMITS):
            classes, S = table(n, labels, k, limits=limits)
            if n == 2:
                S = [list(row) for row in S]
                S[0][1] += 1
            return classes, S

        monkeypatch.setattr(series, "surjection_table", corrupted)
        F = (QuantumGraph.from_graph(single_edge(), 3)
             + QuantumGraph.from_graph(path_graph(2), -2)
             + QuantumGraph.from_graph(parallel_edges(2), 5)
             + QuantumGraph.from_graph(matching(2), Fraction(1, 4)))
        report = taylor_recover(self._oracle_for(F, 6), 2, 6)
        assert report.residual_ok == ((0, True), (1, True), (2, False))
        assert report.as_quantum() == F

    def test_p_too_small_rejected(self):
        with pytest.raises(ValueError):
            taylor_recover(lambda dirs: Fraction(0), 3, 4)

    def test_asymmetric_oracle_detected(self):
        state = {"calls": 0}

        def crooked(dirs):
            state["calls"] += 1
            return Fraction(state["calls"])

        with pytest.raises(ValueError):
            taylor_recover(crooked, 2, 4)

    def test_order_dependent_oracle_detected(self):
        """Linear in each slot, but it tells its slots apart; only swapping
        two distinct directions shows it."""
        def ordered(dirs):
            if len(dirs) != 2:
                return Fraction(0)
            return dirs[0].value(1, 2) * dirs[1].value(3, 4)

        with pytest.raises(ValueError, match="not symmetric"):
            taylor_recover(ordered, 2, 4)


class TestWhitneyMatrix:
    def test_single_edge_case(self):
        W = whitney_matrix(1, 0)
        assert W.rows == ((Fraction(2, W.p ** 2),),)

    @pytest.mark.parametrize("n,k,pins", [
        (1, 0, {}), (2, 0, {}), (3, 0, {}),
        (1, 1, {1: Fraction(1, 3)}), (2, 1, {1: Fraction(1, 3)}),
        (1, 2, {1: Fraction(1, 3), 2: Fraction(2, 3)}),
    ])
    def test_nonsingular(self, n, k, pins):
        W = whitney_matrix(n, k, pins)
        assert W.determinant() != 0

    def test_triangular_support(self):
        W = whitney_matrix(2, 1, {1: Fraction(1, 3)})
        for i, H in enumerate(W.classes):
            assert W.rows[i][i] > 0
            for j, G in enumerate(W.classes):
                if W.rows[i][j] != 0:
                    assert count_surj(H, G) > 0

    def test_pin_separation_bound(self):
        pins = {1: Fraction(1, 3), 2: Fraction(2, 5)}
        W = whitney_matrix(1, 2, pins)
        gap = abs(Fraction(1, 3) - Fraction(2, 5))
        assert W.p > 2 * 1 + 2 / gap
        assert math.gcd(W.p, 3) == 1 and math.gcd(W.p, 5) == 1
        parts = {part_of(x, W.p) for x in pins.values()}
        assert len(parts) == 2

    def test_indistinct_pins_rejected(self):
        with pytest.raises(ValueError):
            whitney_matrix(1, 2, {1: Fraction(1, 3), 2: Fraction(1, 3)})

    @pytest.mark.parametrize("n, k, pins, p, message", [
        (1, 0, {}, -3, "at least 1"),
        (1, 0, {}, 0, "at least 1"),
        # 1/2 is the boundary between the two parts
        (1, 1, {1: Fraction(1, 2)}, 2, "part boundary"),
        # 1/3 and 2/5 both lie in the first of two parts
        (1, 2, {1: Fraction(1, 3), 2: Fraction(2, 5)}, 2, "distinct parts"),
    ])
    def test_explicit_parts_checked(self, n, k, pins, p, message):
        with pytest.raises(ValueError, match=message):
            whitney_matrix(n, k, pins, p=p)

    def test_explicit_parts_accepted(self):
        pins = {1: Fraction(1, 3), 2: Fraction(2, 5)}
        assert whitney_matrix(1, 2, pins, p=8).p == 8
        assert whitney_matrix(1, 0, p=1).rows == ((Fraction(2),),)

    @pytest.mark.parametrize("n, k", [(2, 0), (3, 1), (3, 2), (2, 3)])
    def test_determinant_matches_elimination(self, n, k):
        pins = {1: Fraction(7, 31), 2: Fraction(29, 37), 3: Fraction(1, 2)}
        W = whitney_matrix(n, k, {lab: pins[lab] for lab in range(1, k + 1)})
        assert W.determinant() == gauss_determinant(W.rows) != 0

    def test_determinant_refuses_an_entry_above_the_diagonal(self):
        W = whitney_matrix(2, 0)
        # the double edge surjects onto nothing else: put a count in its row
        # under the 2-matching, which comes after it in the surjection order
        i = W.classes.index(parallel_edges(2))
        j = W.classes.index(matching(2))
        rows = [list(row) for row in W.rows]
        rows[i][j] = Fraction(1)
        crooked = dataclasses.replace(W, rows=tuple(map(tuple, rows)))
        with pytest.raises(ArithmeticError, match="2v 0-1x2.*4v 0-1 2-3"):
            crooked.determinant()

    def test_matches_derivative_route(self):
        # independent cross-check: entries as derivative evaluations of the
        # pinned densities on basis tuples aligned with the pin parts
        import itertools as it
        n, k = 1, 1
        pins = {1: Fraction(1, 3)}
        W = whitney_matrix(n, k, pins)
        p = W.p
        pin_parts = {lab: part_of(x, p) for lab, x in pins.items()}
        for i, H in enumerate(W.classes):
            for j, G in enumerate(W.classes):
                label_of = {v: lab for lab, v in G.labels}
                phi = {}
                used = set(pin_parts.values())
                free_parts = (q for q in range(1, p + 1) if q not in used)
                for v in range(G.vertex_count):
                    phi[v] = (pin_parts[label_of[v]] if v in label_of
                              else next(free_parts))
                g_slots = G.edge_slots()
                h_slots = [(u, v, c) for (u, v), m in H.pairs
                           for c in range(m)]
                total = Fraction(0)
                if len(h_slots) == len(g_slots):
                    for perm in it.permutations(range(len(g_slots))):
                        mapping = {}
                        for slot, target in zip(h_slots, perm):
                            a, b = g_slots[target]
                            lo, hi = sorted((phi[a], phi[b]))
                            mapping[slot] = basis_edge(p, lo, hi)
                        d = DecoratedDensity.build(H, mapping, pins)
                        total += eval_decorated(d, StepKernel.zero(p))
                assert total == W.rows[i][j]


class TestLagrange:
    def test_two_constants(self):
        points = [StepKernel.constant(Fraction(1, 3)),
                  StepKernel.constant(Fraction(2, 3))]
        F = lagrange_interpolate(points, [1, 0])
        assert eval_quantum(F, points[0]) == 1
        assert eval_quantum(F, points[1]) == 0
        # the separating graph for constants is the single edge
        degrees = F.degrees()
        assert degrees and max(degrees) <= 1

    def test_single_point(self):
        F = lagrange_interpolate([StepKernel.constant(Fraction(1, 2))],
                                 [Fraction(7, 3)])
        assert F == Fraction(7, 3) * QuantumGraph.unit()

    def test_three_kernels(self):
        rng = random.Random(7)
        points = [random_kernel(rng, 2), random_kernel(rng, 3),
                  StepKernel.constant(Fraction(9, 16))]
        values = [Fraction(1), Fraction(-2), Fraction(0)]
        F = lagrange_interpolate(points, values, limits=WIDE_LIMITS)
        for pt, v in zip(points, values):
            assert eval_quantum(F, pt, limits=WIDE_LIMITS) == v

    def test_one_value_per_point(self):
        with pytest.raises(ValueError, match="need one value per point"):
            lagrange_interpolate([StepKernel.constant(Fraction(1, 2))], [1, 2])

    def test_identical_points_cannot_be_separated(self):
        f = StepKernel.constant(Fraction(1, 2))
        with pytest.raises(CapExceeded):
            lagrange_interpolate([f, f], [0, 1])

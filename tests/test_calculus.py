import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphoncalc import (DerivativeRequest, Multigraph, QuantumGraph,
                         StepKernel, basis_edge, calculus, canonical_key,
                         complete_graph, count_surj, cycle_graph, density,
                         enumerate_Hn, enumerate_Hnp, eval_quantum, extract_T,
                         gamma, gateaux_exact, gateaux_numeric,
                         graph_signature, matching, multigraph, parallel_edges,
                         path_graph, permute_parts, sidorenko_star_check,
                         single_edge, star_graph, strip_isolated,
                         verify_structure)

from .bruteforce import (backtrack_density, brute_orbit_count, keyed_orbits,
                         permutation_gateaux, random_kernel, random_multigraph,
                         random_signed_kernel, random_sparse_kernel)


def _mean(f: StepKernel) -> Fraction:
    return Fraction(sum(sum(row) for row in f.matrix), f.parts ** 2)


def _interior_kernel(rng, parts):
    return random_kernel(rng, parts, denominator=16, lo=2, hi=14)


def _on_parts(f: StepKernel, parts: int) -> StepKernel:
    """f on `parts` equal parts (a multiple of f.parts): the a-th of them
    lies inside part a * f.parts // parts of f."""
    return StepKernel([[f.matrix[a * f.parts // parts][b * f.parts // parts]
                        for b in range(parts)] for a in range(parts)])


def _derivative_oracle(F, base, dirs) -> Fraction:
    """Sum over terms and over injective maps of the directions to the
    term's edge copies of the density with the mapped copies reading their
    direction and the rest the base, by `backtrack_density`."""
    parts = math.lcm(base.parts, *(d.parts for d in dirs))
    base = _on_parts(base, parts)
    dirs = [_on_parts(d, parts) for d in dirs]
    total = Fraction(0)
    for H, coeff in F.terms():
        copies = H.edge_slots()
        for chosen in itertools.permutations(range(len(copies)), len(dirs)):
            kernels = [base] * len(copies)
            for pos, d in zip(chosen, dirs):
                kernels[pos] = d
            total += coeff * backtrack_density(
                H.vertex_count, parts,
                [(u, v, f, 1) for (u, v), f in zip(copies, kernels)], {})
    return total


class TestGateauxExact:
    def test_edge_density_is_linear(self):
        rng = random.Random(0)
        F = QuantumGraph.from_graph(single_edge())
        for _ in range(5):
            base = random_kernel(rng, 3)
            direction = random_kernel(rng, 3)
            value = gateaux_exact(F, DerivativeRequest(base, (direction,)))
            assert value == _mean(direction)

    def test_double_edge_second_derivative_at_zero(self):
        rng = random.Random(1)
        F = QuantumGraph.from_graph(parallel_edges(2))
        g = random_kernel(rng, 3)
        value = gateaux_exact(F, DerivativeRequest(StepKernel.zero(3), (g, g)))
        squares = Fraction(sum(x * x for row in g.matrix for x in row), 9)
        assert value == 2 * squares

    def test_vanishes_above_edge_count(self):
        rng = random.Random(2)
        for h in (single_edge(), parallel_edges(2), complete_graph(3)):
            F = QuantumGraph.from_graph(h)
            base = random_kernel(rng, 2)
            dirs = tuple(random_kernel(rng, 2)
                         for _ in range(h.edge_count + 1))
            assert gateaux_exact(F, DerivativeRequest(base, dirs)) == 0

    def test_order_zero_is_evaluation(self):
        rng = random.Random(3)
        F = (QuantumGraph.from_graph(single_edge(), 3)
             + QuantumGraph.from_graph(complete_graph(3), -2))
        base = random_kernel(rng, 2)
        assert gateaux_exact(F, DerivativeRequest(base, ())) == \
            3 * density(single_edge(), base) \
            - 2 * density(complete_graph(3), base)

    def test_order_zero_at_the_zero_kernel(self):
        # the orbit sum with no directions skips every term with an edge
        # there; the edgeless ones, the empty graph included, have density 1
        F = QuantumGraph([(Multigraph(0), Fraction(5, 2)),
                          (Multigraph(3), -1), (single_edge(), 7),
                          (path_graph(2), Fraction(1, 3))])
        zero = StepKernel.zero(3)
        value = gateaux_exact(F, DerivativeRequest(zero, ()))
        assert value == Fraction(3, 2) == eval_quantum(F, zero)

    def test_multilinearity(self):
        rng = random.Random(4)
        F = QuantumGraph.from_graph(complete_graph(3))
        base = random_kernel(rng, 2)
        g1, g2, extra = (random_kernel(rng, 2) for _ in range(3))
        c = Fraction(3, 7)
        lhs = gateaux_exact(F, DerivativeRequest(base, (g1 + c * extra, g2)))
        rhs = gateaux_exact(F, DerivativeRequest(base, (g1, g2))) \
            + c * gateaux_exact(F, DerivativeRequest(base, (extra, g2)))
        assert lhs == rhs

    def test_symmetry_in_directions(self):
        rng = random.Random(5)
        F = QuantumGraph.from_graph(path_graph(3))
        base = random_kernel(rng, 2)
        dirs = [random_kernel(rng, 2) for _ in range(3)]
        reference = gateaux_exact(F, DerivativeRequest(base, tuple(dirs)))
        for perm in itertools.permutations(dirs):
            assert gateaux_exact(F, DerivativeRequest(base, perm)) == reference

    def test_measure_preserving_invariance(self):
        rng = random.Random(6)
        F = QuantumGraph.from_graph(path_graph(2), 2) \
            + QuantumGraph.from_graph(parallel_edges(2), -1)
        base = random_kernel(rng, 4)
        dirs = [random_kernel(rng, 4) for _ in range(2)]
        sigma = [1, 2, 3, 4]
        rng.shuffle(sigma)
        lhs = gateaux_exact(F, DerivativeRequest(
            permute_parts(base, sigma),
            tuple(permute_parts(g, sigma) for g in dirs)))
        assert lhs == gateaux_exact(F, DerivativeRequest(base, tuple(dirs)))

    def test_strict_mode_checks_admissibility(self):
        F = QuantumGraph.from_graph(single_edge())
        down = basis_edge(2, 1, 2).scaled(-1)
        request = DerivativeRequest(StepKernel.zero(2), (down,))
        assert gateaux_exact(F, request) == _mean(down)  # extension is fine
        with pytest.raises(ValueError):
            gateaux_exact(F, request, strict=True)

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 4),
           st.lists(st.tuples(st.integers(1, 4),
                              st.sampled_from(("new", "same", "equal", "base"))),
                    max_size=4),
           st.integers(1, 3))
    def test_matches_exact_oracle(self, rng, base_parts, dir_specs, n_terms):
        """Orders 0-4, against the sum over every slot assignment and the
        backtracking density; a direction may repeat an earlier one as the
        same object or as an equal but distinct kernel (on the same or on
        twice the parts), or be the base itself."""
        F = QuantumGraph([(random_multigraph(rng, 4, 4, ensure_edge=False),
                           Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                          for _ in range(n_terms)])
        base = random_signed_kernel(rng, base_parts, denominator=3)
        dirs = []
        for parts, kind in dir_specs:
            if kind == "base":
                dirs.append(base)
            elif kind == "same" and dirs:
                dirs.append(rng.choice(dirs))
            elif kind == "equal" and dirs:
                earlier = rng.choice(dirs)
                # twice the parts only up to 4, so every kernel's part count
                # divides 12 (the max_parts cap)
                dirs.append(_on_parts(earlier, 2 * earlier.parts)
                            if earlier.parts <= 2 and rng.random() < 0.5
                            else StepKernel(earlier.matrix))
            else:
                dirs.append(random_signed_kernel(rng, parts, denominator=3))
        request = DerivativeRequest(base, tuple(dirs))
        value = gateaux_exact(F, request)
        assert value == permutation_gateaux(F, request)
        assert value == _derivative_oracle(F, base, dirs)

    def test_labelled_combination_rejected(self):
        F = QuantumGraph.from_graph(Multigraph(2, [(0, 1)], {1: 0}))
        with pytest.raises(ValueError):
            gateaux_exact(F, DerivativeRequest(StepKernel.zero(2), ()))


class TestGateauxNumeric:
    def test_matches_exact_on_random_instances(self):
        rng = random.Random(7)
        graphs = [g for n in (1, 2, 3) for g in enumerate_Hn(n)]
        for _ in range(20):
            h = rng.choice(graphs)
            F = QuantumGraph.from_graph(h)
            m = rng.randint(1, min(3, h.edge_count))
            base = _interior_kernel(rng, rng.randint(1, 3))
            dirs = tuple(_interior_kernel(rng, base.parts) for _ in range(m))
            request = DerivativeRequest(base, dirs)
            exact = float(gateaux_exact(F, request))
            approx = gateaux_numeric(F, request, Fraction(1, 10 ** 4))
            assert exact != 0
            assert abs(approx - exact) <= 1e-6 * abs(exact)

    def test_constant_functional(self):
        rng = random.Random(8)
        F = QuantumGraph.unit()
        base = _interior_kernel(rng, 2)
        request = DerivativeRequest(base, (_interior_kernel(rng, 2),))
        assert gateaux_numeric(F, request) == 0.0

    def test_order_two_swap_symmetry(self):
        rng = random.Random(9)
        F = QuantumGraph.from_graph(complete_graph(3))
        base = _interior_kernel(rng, 2)
        g1, g2 = _interior_kernel(rng, 2), _interior_kernel(rng, 2)
        a = gateaux_numeric(F, DerivativeRequest(base, (g1, g2)))
        b = gateaux_numeric(F, DerivativeRequest(base, (g2, g1)))
        assert a == b

    def test_order_zero_is_evaluation(self):
        rng = random.Random(11)
        F = (QuantumGraph.from_graph(single_edge(), 3)
             + QuantumGraph.from_graph(complete_graph(3), -2))
        base = _interior_kernel(rng, 2)
        assert gateaux_numeric(F, DerivativeRequest(base, ())) == \
            float(eval_quantum(F, base))

    @pytest.mark.parametrize("step", [0, Fraction(-1, 100), -0.5])
    def test_step_must_be_positive(self, step):
        rng = random.Random(12)
        base = _interior_kernel(rng, 2)
        F = QuantumGraph.from_graph(single_edge())
        for dirs in ((), (_interior_kernel(rng, 2),)):
            with pytest.raises(ValueError, match="step must be positive"):
                gateaux_numeric(F, DerivativeRequest(base, dirs), step)

    def test_order_cap(self):
        F = QuantumGraph.from_graph(star_graph(4))
        rng = random.Random(10)
        dirs = tuple(_interior_kernel(rng, 2) for _ in range(4))
        with pytest.raises(ValueError):
            gateaux_numeric(F, DerivativeRequest(_interior_kernel(rng, 2), dirs))


class TestGamma:
    def test_double_edge_with_padding(self):
        g = gamma(2, 4, [(1, 2), (1, 2)])
        assert g.vertex_count == 4
        assert g.pairs == (((0, 1), 2),)

    def test_orbit_invariance(self):
        rng = random.Random(11)
        for _ in range(20):
            n, p = rng.choice([(2, 3), (2, 4), (3, 4), (3, 5)])
            pairs = list(itertools.combinations(range(1, p + 1), 2))
            x = [rng.choice(pairs) for _ in range(n)]
            g = gamma(n, p, x)
            sigma = list(range(1, p + 1))
            rng.shuffle(sigma)
            relabelled = [tuple(sorted((sigma[a - 1], sigma[b - 1])))
                          for a, b in x]
            rng.shuffle(relabelled)
            assert canonical_key(gamma(n, p, relabelled)) == canonical_key(g)

    def test_every_class_is_hit(self):
        for n, p in ((1, 2), (2, 3), (2, 4), (3, 6)):
            hit = {canonical_key(gamma(n, p, [(u + 1, v + 1)
                                              for u, v in h.edge_slots()]))
                   for h in enumerate_Hnp(n, p)}
            assert hit == {canonical_key(h) for h in enumerate_Hnp(n, p)}

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma(2, 3, [(1, 2)])
        with pytest.raises(ValueError):
            gamma(1, 3, [(2, 2)])
        with pytest.raises(ValueError):
            gamma(1, 3, [(1, 4)])


class TestExtractT:
    def test_edge_functional_entries(self):
        F = QuantumGraph.from_graph(single_edge())
        for p in (2, 3, 5):
            vec = extract_T(F, 1, p)
            (h,) = vec.classes
            assert vec.value(h) == Fraction(2, p * p)

    def test_wrong_degree_vanishes(self):
        F = QuantumGraph.from_graph(complete_graph(3))
        vec = extract_T(F, 2, 4)
        assert all(v == 0 for v in vec.entries.values())
        vec = extract_T(F, 4, 8)
        assert all(v == 0 for v in vec.entries.values())

    def test_surjection_formula(self):
        for n in (1, 2):
            for p in (2, 3, 4):
                for H in enumerate_Hn(n):
                    vec = extract_T(QuantumGraph.from_graph(H), n, p)
                    for h in vec.classes:
                        expected = Fraction(
                            count_surj(H, strip_isolated(h)),
                            p ** H.vertex_count)
                        assert vec.value(h) == expected

    def test_well_defined_on_orbit_tuples(self):
        rng = random.Random(12)
        F = QuantumGraph.from_graph(path_graph(2), 1) \
            + QuantumGraph.from_graph(parallel_edges(2), Fraction(1, 3))
        n, p = 2, 4
        vec = extract_T(F, n, p)
        for h in enumerate_Hnp(n, p):
            slots = [(u + 1, v + 1) for u, v in h.edge_slots()]
            sigma = list(range(1, p + 1))
            rng.shuffle(sigma)
            moved = [tuple(sorted((sigma[a - 1], sigma[b - 1])))
                     for a, b in slots]
            rng.shuffle(moved)
            dirs = tuple(basis_edge(p, a, b) for a, b in moved)
            value = gateaux_exact(F, DerivativeRequest(StepKernel.zero(p), dirs))
            assert value == vec.value(h)

    def test_linearity_in_functional(self):
        F1 = QuantumGraph.from_graph(path_graph(2))
        F2 = QuantumGraph.from_graph(parallel_edges(2))
        combo = F1 + 5 * F2
        v1 = extract_T(F1, 2, 4)
        v2 = extract_T(F2, 2, 4)
        vc = extract_T(combo, 2, 4)
        for h in vc.classes:
            assert vc.value(h) == v1.value(h) + 5 * v2.value(h)

    @pytest.mark.parametrize("h", [single_edge(), path_graph(2),
                                   Multigraph(4, [(0, 1, 3)])])
    def test_value_of_another_class_is_refused(self, h):
        """Only the 2-edge classes on exactly 4 vertices have a value."""
        vec = extract_T(QuantumGraph.from_graph(cycle_graph(4)), 2, 4)
        with pytest.raises(ValueError, match=(
                f"{graph_signature(h)} is not a class of 2-edge multigraphs "
                "on exactly 4 vertices")):
            vec.value(h)

    def test_matches_permutation_oracle_on_every_class(self):
        for n in (1, 2, 3):
            p = 2 * n
            for H in enumerate_Hn(n):
                F = QuantumGraph.from_graph(H)
                vec = extract_T(F, n, p)
                for h in vec.classes:
                    dirs = tuple(basis_edge(p, u + 1, v + 1)
                                 for u, v in h.edge_slots())
                    assert vec.value(h) == permutation_gateaux(
                        F, DerivativeRequest(StepKernel.zero(p), dirs))


def _reuse_functionals() -> list[QuantumGraph]:
    """Combinations with up to 4 edges per term, parallel edges among them."""
    return [QuantumGraph.from_graph(cycle_graph(4)),
            QuantumGraph.from_graph(path_graph(2))
            + QuantumGraph.from_graph(parallel_edges(2), Fraction(-2, 3)),
            QuantumGraph.from_graph(complete_graph(3), 3)
            + QuantumGraph.from_graph(Multigraph(3, [(0, 1, 2), (1, 2)])),
            QuantumGraph.from_graph(star_graph(3), Fraction(1, 5))
            + QuantumGraph.from_graph(single_edge(), 7)]


def _reuse_case(name: str) -> tuple[StepKernel, tuple[StepKernel, ...]]:
    rng = random.Random(name)
    if name == "order 0":
        return random_signed_kernel(rng, 3, denominator=3), ()
    if name == "equal kernels, distinct objects":
        d, e = (random_signed_kernel(rng, 2, denominator=3) for _ in range(2))
        return StepKernel.zero(2), (d, StepKernel(e.matrix), e,
                                    StepKernel(d.matrix))
    if name == "mixed part counts":
        d = random_signed_kernel(rng, 2, denominator=3)
        return (StepKernel.zero(1),
                (d, basis_edge(3, 1, 3), _on_parts(d, 4)))
    base = random_signed_kernel(rng, 2, denominator=3)  # "nonzero base"
    return base, (basis_edge(2, 1, 2), random_sparse_kernel(rng, 4, 2, 3),
                  StepKernel(base.matrix))


class TestReusedRequest:
    """A request is prepared once and then serves every F, any number of
    times, with the values of a fresh request and of the permutation
    oracle."""

    @pytest.mark.parametrize("name", [
        "equal kernels, distinct objects", "mixed part counts",
        "nonzero base", "order 0"])
    def test_matches_fresh_requests_and_oracle(self, monkeypatch, name):
        base, dirs = _reuse_case(name)
        shared = DerivativeRequest(base, dirs)
        requests = _counting_prepare(monkeypatch)
        functionals = _reuse_functionals()
        first = [gateaux_exact(F, shared) for F in functionals]
        for _ in range(2):
            assert [gateaux_exact(F, shared) for F in functionals] == first
        assert [id(r) for r in requests] == [id(shared)]
        for F, value in zip(functionals, first):
            assert gateaux_exact(F, DerivativeRequest(base, dirs)) == value
            assert permutation_gateaux(F, shared) == value
        assert len(requests) == 1 + len(functionals)
        assert any(first)

    def test_strict_is_checked_on_every_call(self):
        down = basis_edge(2, 1, 2).scaled(-1)
        request = DerivativeRequest(StepKernel.zero(2), (down, down))
        functionals = _reuse_functionals()
        values = [gateaux_exact(F, request) for F in functionals]
        assert values == [permutation_gateaux(F, request) for F in functionals]
        for F in functionals:
            with pytest.raises(ValueError, match="not admissible"):
                gateaux_exact(F, request, strict=True)
        assert [gateaux_exact(F, request) for F in functionals] == values
        up = DerivativeRequest(StepKernel.zero(2), (-down, -down))
        assert [gateaux_exact(F, up, strict=True) for F in functionals] \
            == values


def _partitions(m: int, top: int | None = None):
    """The partitions of m into parts of at most `top`, largest part first."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, top or m), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first, *rest)


def _counting_evaluate(monkeypatch) -> list:
    """Record one entry per `density._evaluate` call made by `calculus`."""
    calls = []
    real = calculus._evaluate
    monkeypatch.setattr(calculus, "_evaluate", lambda *args, **kwargs: (
        calls.append(1), real(*args, **kwargs))[1])
    return calls


def _counting_tables(monkeypatch) -> list:
    """Record the counts of every orbit table `calculus` builds."""
    built = []
    real = calculus._orbits
    monkeypatch.setattr(calculus, "_orbits", lambda H, counts: (
        built.append(counts), real(H, counts))[1])
    return built


def _counting_prepare(monkeypatch) -> list:
    """Record every request `calculus` prepares."""
    prepared = []
    real = calculus._prepare
    monkeypatch.setattr(calculus, "_prepare", lambda request: (
        prepared.append(request), real(request))[1])
    return prepared


class TestOrbitTables:
    """Each class builds one orbit table per partition of the direction
    count, keeps it, and reads it back for every later request."""

    def test_verify_structure_builds_one_table_per_partition(self,
                                                              monkeypatch):
        multigraph._enumerate_classes.cache_clear()
        built = _counting_tables(monkeypatch)
        assert verify_structure(4).passed
        # 23 classes of 4 edges, 5 partitions of 4
        assert len(built) == 115
        assert set(built) == {(0, 4), (0, 3, 1), (0, 2, 2), (0, 2, 1, 1),
                              (0, 1, 1, 1, 1)}

    @pytest.mark.parametrize(
        "n, tables, orbits, checks, evaluations, prepared", [
            (3, 24, 36, 780, 337, 57),
            (4, 115, 355, 14_309, 3_073, 146),
        ])
    def test_verify_structure_derivative_work(self, monkeypatch, n, tables,
                                              orbits, checks, evaluations,
                                              prepared):
        """The tables, their orbits, the `_vanishes` checks, the
        `_evaluate` calls and the requests prepared by a fresh
        `verify_structure(n)`: a missing automorphism generator would split
        orbits and raise the middle three, and a basis request prepared per
        density class rather than per class h and scale would raise the
        last (to 456 and 3,358, its `gateaux_exact` calls)."""
        multigraph._enumerate_classes.cache_clear()
        multigraph._enumerate_with_vertices.cache_clear()
        sizes = []
        real_orbits = calculus._orbits
        monkeypatch.setattr(calculus, "_orbits", lambda H, counts: (
            table := real_orbits(H, counts), sizes.append(len(table)))[0])
        checked = []
        real_vanishes = calculus._vanishes
        monkeypatch.setattr(calculus, "_vanishes", lambda *args: (
            checked.append(1), real_vanishes(*args))[1])
        evaluated = _counting_evaluate(monkeypatch)
        requests = _counting_prepare(monkeypatch)
        assert verify_structure(n).passed
        assert (len(sizes), sum(sizes), len(checked), len(evaluated)) \
            == (tables, orbits, checks, evaluations)
        assert len(requests) == len(set(map(id, requests))) == prepared

    def test_reversed_directions_share_the_table(self, monkeypatch):
        built = _counting_tables(monkeypatch)
        rng = random.Random(18)
        base = random_signed_kernel(rng, 2, denominator=3)
        d = [random_signed_kernel(rng, 2, denominator=3) for _ in range(2)]
        F = QuantumGraph.from_graph(cycle_graph(4))
        dirs = (d[0], d[0], d[1])
        value = gateaux_exact(F, DerivativeRequest(base, dirs))
        assert built == [(0, 2, 1)]
        assert gateaux_exact(F, DerivativeRequest(base, dirs[::-1])) == value
        assert built == [(0, 2, 1)]

    def test_second_extract_T_builds_no_table(self, monkeypatch):
        built = _counting_tables(monkeypatch)
        F = QuantumGraph.from_graph(Multigraph(4, [(0, 1, 2), (1, 2), (2, 3)]))
        first = extract_T(F, 4, 6)
        tables = len(built)
        assert tables > 0
        assert extract_T(F, 4, 6) == first
        assert len(built) == tables


class TestOrbitSum:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_orbits_match_brute_count(self, n):
        """The orbit tables hold one entry per Aut(H)-orbit, for the direction
        class counts of `extract_T`'s basis tuples in the order of their
        edges, the partitions `gateaux_exact` sorts them into, and one of
        order below n; the weights count every slot assignment once."""
        patterns = {(0, *(m for _, m in h.pairs)) for h in enumerate_Hn(n)}
        patterns |= {(0, *sorted(c[1:], reverse=True)) for c in patterns}
        if n >= 2:
            patterns.add((n - 2, 1))
        for H in enumerate_Hn(n):
            if H.vertex_count > 6:
                continue
            for counts in patterns:
                orbits = calculus._orbits(H, counts)
                assert len(orbits) == brute_orbit_count(H, counts)
                assert sum(w for _, w in orbits) \
                    == math.perm(H.edge_count, sum(counts))

    def test_tables_match_keyed_orbits(self):
        """Whole tables, factors, weights and order, equal the oracle's that
        keys each labelling: every class of n <= 4 edges for every key
        b + lambda, lambda a partition of m <= n and b in {0, n - m} (546
        tables), and every 5-edge class for (0, lambda), lambda a partition
        of 5 (462 tables)."""
        keys = [(H, (b, *part)) for n in range(1, 5) for H in enumerate_Hn(n)
                for m in range(n + 1) for part in _partitions(m)
                for b in sorted({0, n - m})]
        keys += [(H, (0, *part)) for H in enumerate_Hn(5)
                 for part in _partitions(5)]
        assert len(keys) == 546 + 462
        for H, counts in keys:
            assert calculus._orbits(H, counts) == keyed_orbits(H, counts)

    def test_large_groups_are_not_enumerated(self, monkeypatch):
        """Order 1 on K7, K8 or star7: no group is listed, and every pair is
        in one orbit, so each derivative is one evaluation."""
        calls = _counting_evaluate(monkeypatch)
        base = random_signed_kernel(random.Random(14), 2, denominator=5)
        direction = random_signed_kernel(random.Random(15), 2, denominator=5)
        for g in (complete_graph(7), complete_graph(8), star_graph(7)):
            F = QuantumGraph.from_graph(g)
            request = DerivativeRequest(base, (direction,))
            calls.clear()
            value = gateaux_exact(F, request)
            assert len(calls) == 1
            assert value == permutation_gateaux(F, request)

    def test_zero_base_evaluates_only_full_terms(self, monkeypatch):
        """At the zero kernel only terms with as many edges as directions
        survive: P2 and a double edge, one orbit each."""
        calls = _counting_evaluate(monkeypatch)
        rng = random.Random(17)
        d = [random_signed_kernel(rng, 3, denominator=4) for _ in range(2)]
        F = (QuantumGraph.from_graph(single_edge(), 5)
             + QuantumGraph.from_graph(path_graph(2), -2)
             + QuantumGraph.from_graph(parallel_edges(2), 3)
             + QuantumGraph.from_graph(complete_graph(3))
             + QuantumGraph.from_graph(star_graph(3), -1))
        request = DerivativeRequest(StepKernel.zero(3), d)
        value = gateaux_exact(F, request)
        assert len(calls) == 2
        assert value == permutation_gateaux(F, request)
        assert value != 0

    def test_evaluations_per_orbit(self, monkeypatch):
        """C4 on four distinct directions: 24 assignments, 3 orbits under its
        8 automorphisms; two equal directions leave 12 assignments in 2.
        A matching of three edges: 6 assignments in one orbit, though its
        48 automorphisms outnumber them (edge flips move no pair)."""
        calls = _counting_evaluate(monkeypatch)
        C4 = QuantumGraph.from_graph(cycle_graph(4))
        rng = random.Random(16)
        base = random_signed_kernel(rng, 2, denominator=3)
        d = [random_signed_kernel(rng, 2, denominator=3) for _ in range(4)]
        for F, dirs, evaluations in (
                (C4, (d[0], d[1], d[2], d[3]), 3),
                (C4, (d[0], d[0], d[2], d[3]), 2),
                (QuantumGraph.from_graph(matching(3)), (d[0], d[1], d[2]), 1)):
            calls.clear()
            request = DerivativeRequest(base, dirs)
            value = gateaux_exact(F, request)
            assert len(calls) == evaluations
            assert value == permutation_gateaux(F, request)


def _sparse_case(rng):
    """A functional with multi-edge terms, a zero or sparse signed base, and
    1-4 directions that are basis edges or single-cell signed kernels, on 1-4
    parts each (so every refinement stays within 12 parts)."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        g = random_multigraph(rng, 4, 4)
        if rng.random() < 0.5:  # double one of its pairs
            (u, v), _ = rng.choice(g.pairs)
            g = Multigraph(g.vertex_count,
                           [(a, b, m) for (a, b), m in g.pairs] + [(u, v)])
        terms.append((g, Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
    parts = rng.randint(1, 4)
    base = (StepKernel.zero(parts) if rng.random() < 0.5
            else random_sparse_kernel(rng, parts, rng.randint(1, 3), 3))
    dirs = []
    for _ in range(rng.randint(1, 4)):
        p = rng.randint(2, 4)
        if rng.random() < 0.5:
            a, b = sorted(rng.sample(range(1, p + 1), 2))
            dirs.append(basis_edge(p, a, b))
        else:
            dirs.append(random_sparse_kernel(rng, p, 1, 3))
    return QuantumGraph(terms), DerivativeRequest(base, tuple(dirs))


class TestSupportFilter:
    """Orbits whose support masks prove them zero are not evaluated."""

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_permutation_oracle(self, rng):
        F, request = _sparse_case(rng)
        assert gateaux_exact(F, request) == permutation_gateaux(F, request)

    def test_filter_fires_and_lets_terms_through(self, monkeypatch):
        """Over fixed sparse cases the filter skips orbits and evaluates
        the others, one evaluation each, and every value matches the oracle."""
        calls = _counting_evaluate(monkeypatch)
        verdicts = []
        real = calculus._vanishes
        monkeypatch.setattr(calculus, "_vanishes", lambda *args: (
            verdicts.append(real(*args)), verdicts[-1])[1])
        rng = random.Random(18)
        for _ in range(60):
            F, request = _sparse_case(rng)
            assert gateaux_exact(F, request) == permutation_gateaux(F, request)
        assert 0 < verdicts.count(True) and 0 < verdicts.count(False)
        assert len(calls) == verdicts.count(False)

    def test_extract_T_C4_evaluations(self, monkeypatch):
        calls = _counting_evaluate(monkeypatch)
        vec = extract_T(QuantumGraph.from_graph(cycle_graph(4)), 4, 8)
        assert len(calls) == 14
        assert sum(v != 0 for v in vec.entries.values()) == 3

    @pytest.mark.parametrize("graph,p,edges,evaluations,value", [
        # only the pair mask fires: the two cells differ
        (parallel_edges(2), 3, [(1, 2), (1, 3)], 0, 0),
        # the vertex mask fires at the middle vertex: rows {1, 2} and {3, 4}
        (path_graph(2), 4, [(1, 2), (3, 4)], 0, 0),
        # both masks let it through, and it is nonzero
        (path_graph(2), 4, [(1, 2), (2, 3)], 1, Fraction(1, 32)),
        # sound but not complete: K3 cannot map into one edge
        (complete_graph(3), 4, [(1, 2)] * 3, 1, 0),
    ])
    def test_evaluations_on_basis_edges(self, monkeypatch, graph, p, edges,
                                        evaluations, value):
        calls = _counting_evaluate(monkeypatch)
        F = QuantumGraph.from_graph(graph)
        request = DerivativeRequest(
            StepKernel.zero(p), tuple(basis_edge(p, a, b) for a, b in edges))
        assert gateaux_exact(F, request) == value
        assert len(calls) == evaluations
        assert permutation_gateaux(F, request) == value


class TestSidorenkoStars:
    def test_constant_kernel_equality(self):
        result = sidorenko_star_check(3, StepKernel.constant(Fraction(2, 5)))
        assert result.holds and result.equality and result.row_means_constant

    def test_graph_kernel_equality_case(self):
        from graphoncalc import from_graph
        result = sidorenko_star_check(2, from_graph(single_edge()))
        assert result.star_density == Fraction(1, 4)
        assert result.edge_density_power == Fraction(1, 4)
        assert result.equality and result.row_means_constant

    def test_unbalanced_kernel_strict(self):
        f = StepKernel([[Fraction(1, 2), Fraction(1, 2)],
                        [Fraction(1, 2), 0]])
        result = sidorenko_star_check(2, f)
        assert result.holds and not result.equality
        assert not result.row_means_constant

    def test_random_kernels_hold(self):
        rng = random.Random(13)
        for _ in range(30):
            f = random_kernel(rng, rng.randint(1, 5))
            k = rng.randint(1, 4)
            result = sidorenko_star_check(k, f)
            assert result.holds
            if k >= 2:  # for k = 1 the star is the edge and equality is free
                assert result.equality == result.row_means_constant

    def test_rejects_kernel_outside_unit_interval(self):
        with pytest.raises(ValueError):
            sidorenko_star_check(2, StepKernel.constant(2))

import math
import random
from fractions import Fraction

import pytest

from graphoncalc import (ConsistencyMatrix, ConsistencyVector, Multigraph,
                         QuantumGraph, apply_constraint, canonical_key,
                         count_aut, count_surj, enumerate_Hn, enumerate_Hnp,
                         extract_T, graph_signature, matching, pi_fiber_oracle,
                         pi_formula, strip_isolated, surjection_total_order,
                         verify_structure)
from graphoncalc.limits import DEFAULT_LIMITS, CapExceeded, Limits
from graphoncalc import consistency, linalg, morphisms, multigraph, series
from graphoncalc.morphisms import surjection_weight_sum

from .bruteforce import recomputing_verify_structure


class TestPiFormula:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_diagonal_law(self, n, k):
        matrix = pi_formula(n, k)
        for g in matrix.classes:
            assert matrix.value(g, g) == k ** g.vertex_count

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_diagonal_weight_is_aut_times_k_to_the_vertices(self, n, k):
        """`pi_formula` reads |Aut(H)| off the weighted sum of H onto itself:
        its surjections are the automorphisms, every fiber of size 1."""
        for H in enumerate_Hn(n):
            assert (surjection_weight_sum(H, H, k)
                    == count_aut(H) * k ** H.vertex_count)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_entries_are_weight_sums_over_count_aut(self, n, k):
        matrix = pi_formula(n, k)
        for G in matrix.classes:
            for H in matrix.classes:
                assert (matrix.value(G, H) * count_aut(H)
                        == surjection_weight_sum(H, G, k))

    def test_crooked_diagonal_raises(self, monkeypatch):
        table = consistency.surjection_table

        def crooked(n, labels=0, k=None, *, limits=DEFAULT_LIMITS):
            classes, rows = table(n, labels, k, limits=limits)
            return classes, ((rows[0][0] + 1, *rows[0][1:]), *rows[1:])

        monkeypatch.setattr(consistency, "surjection_table", crooked)
        with pytest.raises(ArithmeticError, match="positive multiple"):
            pi_formula(2, 2)

    def test_zero_diagonal_raises(self, monkeypatch):
        table = consistency.surjection_table

        def zeroed(n, labels=0, k=None, *, limits=DEFAULT_LIMITS):
            classes, rows = table(n, labels, k, limits=limits)
            return classes, ((0, *rows[0][1:]), *rows[1:])

        monkeypatch.setattr(consistency, "surjection_table", zeroed)
        with pytest.raises(ArithmeticError, match="not a positive multiple"):
            pi_formula(2, 2)

    def test_entry_not_divisible_by_aut_raises(self, monkeypatch):
        # the last 2-edge class, the 2-matching, has 8 automorphisms
        table = consistency.surjection_table

        def skewed(n, labels=0, k=None, *, limits=DEFAULT_LIMITS):
            classes, rows = table(n, labels, k, limits=limits)
            return classes, (*rows[:-1], (rows[-1][0] + 1, *rows[-1][1:]))

        monkeypatch.setattr(consistency, "surjection_table", skewed)
        with pytest.raises(ArithmeticError,
                           match=r"is not divisible by \|Aut\| = 8"):
            pi_formula(2, 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matching_column_law(self, n, k):
        matrix = pi_formula(n, k)
        column = matching(n)
        for g in matrix.classes:
            expected = 1
            for v in range(g.vertex_count):
                expected *= math.perm(k, g.degree(v))
            assert matrix.value(g, column) == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_split_factor_one_is_identity(self, n):
        matrix = pi_formula(n, 1)
        for g in matrix.classes:
            for h in matrix.classes:
                expected = 1 if canonical_key(g) == canonical_key(h) else 0
                assert matrix.value(g, h) == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_support_is_surjection_relation(self, n):
        matrix = pi_formula(n, 3)
        for g in matrix.classes:
            for h in matrix.classes:
                positive = matrix.value(g, h) > 0
                assert positive == (count_surj(h, g) > 0)

    @pytest.mark.parametrize("graph", [
        Multigraph(2, [(0, 1)]), Multigraph(5, [(0, 1), (2, 3)]),
        Multigraph(3, [(0, 1, 2)])], ids=["1-edge", "padded", "isolated"])
    def test_a_graph_of_no_class_is_refused(self, graph):
        """Only the 2-edge classes without isolated vertices have a
        position; a padded class or a 1-edge graph has none."""
        matrix = pi_formula(2, 2)
        message = (f"{graph_signature(graph)} is not a class of 2-edge "
                   "multigraphs without isolated vertices")
        with pytest.raises(ValueError, match=message):
            matrix.value(graph, matrix.classes[0])
        with pytest.raises(ValueError, match=message):
            matrix.value(matrix.classes[0], graph)
        with pytest.raises(ValueError, match=message):
            matrix.rows((*matrix.classes, graph))

    def test_rows_follow_the_order_given(self):
        matrix = pi_formula(2, 2)
        assert matrix.rows() == [[4, 8, 4], [0, 8, 8], [0, 0, 16]]
        assert matrix.rows(matrix.classes[::-1]) == [
            [16, 0, 0], [8, 8, 0], [4, 8, 4]]
        assert matrix.rows(()) == []

    @pytest.mark.parametrize("n", [1, 2])
    def test_triangular_in_total_order(self, n):
        matrix = pi_formula(n, 2)
        ordered = surjection_total_order(matrix.classes)
        rows = matrix.rows(tuple(ordered))
        for i in range(len(rows)):
            assert rows[i][i] > 0
            for j in range(i):
                assert rows[i][j] == 0


class TestFiberOracle:
    @pytest.mark.parametrize("n,k", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_agrees_with_formula(self, n, k):
        assert pi_fiber_oracle(n, k, 2 * n) == pi_formula(n, k)

    def test_independent_of_p(self):
        assert pi_fiber_oracle(2, 2, 4) == pi_fiber_oracle(2, 2, 5)

    @pytest.mark.parametrize("n,k", [(1, 2), (2, 2), (2, 3)])
    def test_total_mass(self, n, k):
        matrix = pi_fiber_oracle(n, k, 2 * n)
        for g in matrix.classes:
            assert sum(matrix.value(g, h) for h in matrix.classes) == k ** (2 * n)

    def test_diagonal_positive(self):
        matrix = pi_fiber_oracle(2, 2, 4)
        for g in matrix.classes:
            assert matrix.value(g, g) > 0

    def test_needs_wide_scale(self):
        with pytest.raises(ValueError):
            pi_fiber_oracle(2, 2, 3)

    def test_refined_graphs_are_sized_by_the_class(self, monkeypatch):
        """A refined tuple of class g spans the k |V(g)| parts g's parts
        split into, whatever p is: at p = 40 the single edge's refinements
        have 4 vertices, not k p = 80."""
        built = []
        real = consistency.Multigraph

        def counting(vertex_count, *args, **kw):
            built.append(vertex_count)
            return real(vertex_count, *args, **kw)

        monkeypatch.setattr(consistency, "Multigraph", counting)
        matrix = pi_fiber_oracle(1, 2, 40)
        assert built and max(built) <= 4
        assert matrix == pi_fiber_oracle(1, 2, 2)

    def test_tuple_cap(self):
        with pytest.raises(CapExceeded,
                           match="max_index_tuples cap of 50.*--max-index-tuples"):
            pi_fiber_oracle(2, 3, 4, limits=Limits(max_index_tuples=50))


class TestApplyConstraint:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("k", [2, 3])
    def test_relation_for_density_derivatives(self, n, p, k):
        for H in enumerate_Hn(n):
            F = QuantumGraph.from_graph(H)
            fine = extract_T(F, n, k * p)
            assert apply_constraint(fine, k) == extract_T(F, n, p)

    def test_canonicalizes_nothing_per_call(self, monkeypatch):
        """The stripped key of every class at both scales is computed once,
        with the classes, so a call makes no `canonical_key` call."""
        F = QuantumGraph.from_graph(matching(2)) + QuantumGraph.from_graph(
            Multigraph(3, [(0, 1), (1, 2)]))
        fine = extract_T(F, 2, 6)
        expected = extract_T(F, 2, 3)
        assert apply_constraint(fine, 2) == expected
        calls = []
        for module in (consistency, multigraph):
            real = module.canonical_key
            monkeypatch.setattr(module, "canonical_key", lambda g, real=real: (
                calls.append(g), real(g))[1])
        for _ in range(3):
            assert apply_constraint(fine, 2) == expected
        assert calls == []

    def test_zero_vector(self):
        classes = enumerate_Hnp(2, 6)
        zero = ConsistencyVector(2, 6, classes,
                                 {canonical_key(h): Fraction(0)
                                  for h in classes})
        out = apply_constraint(zero, 3)
        assert all(v == 0 for v in out.entries.values())

    def test_composition_of_scales(self):
        rng = random.Random(0)
        n, p, k1, k2 = 2, 2, 2, 3
        classes = enumerate_Hnp(n, k1 * k2 * p)
        vec = ConsistencyVector(n, k1 * k2 * p, classes,
                                {canonical_key(h): Fraction(rng.randint(-9, 9),
                                                            rng.randint(1, 7))
                                 for h in classes})
        one_step = apply_constraint(vec, k1 * k2)
        two_step = apply_constraint(apply_constraint(vec, k1), k2)
        assert one_step == two_step

    def test_scale_mismatch_rejected(self):
        classes = enumerate_Hnp(1, 3)
        vec = ConsistencyVector(1, 3, classes,
                                {canonical_key(h): Fraction(1)
                                 for h in classes})
        with pytest.raises(ValueError):
            apply_constraint(vec, 2)


    def test_entries_of_other_classes_are_refused(self):
        classes = enumerate_Hnp(3, 6)
        vec = ConsistencyVector(2, 6, classes,
                                {canonical_key(h): Fraction(1)
                                 for h in classes})
        with pytest.raises(ValueError, match=(
                f"{graph_signature(classes[0])} is not a class of 2-edge "
                "multigraphs on exactly 6 vertices")):
            apply_constraint(vec, 2)
        # the classes are the 2-edge ones, the entries are not
        vec = ConsistencyVector(2, 6, enumerate_Hnp(2, 6), vec.entries)
        with pytest.raises(ValueError, match=(
                "an entry of the vector is not a class of 2-edge multigraphs "
                "on exactly 6 vertices")):
            apply_constraint(vec, 2)


class TestStructureReport:
    def test_n1_passes(self):
        report = verify_structure(1, p_max=3, k_max=3)
        assert report.passed

    def test_n2_passes(self):
        report = verify_structure(2, p_max=4, k_max=2)
        assert report.passed
        names = [c.name for c in report.checks]
        assert "scale-change relation" in names

    @pytest.mark.parametrize("args,message", [
        ((0,), "n must be at least 1"),
        ((2, 4, 1), "k_max must be at least 2"),
        ((2, 4, 0), "k_max must be at least 2"),
        ((2, 1, 3), "p_max must be at least 2")])
    def test_rejects_inputs_with_nothing_to_check(self, args, message):
        with pytest.raises(ValueError, match=message):
            verify_structure(*args)

    def test_zero_diagonal_fails_triangularity(self, monkeypatch):
        formula = consistency.pi_formula

        def zeroed(n, k, *, limits=DEFAULT_LIMITS):
            matrix = formula(n, k, limits=limits)
            if k != 2:
                return matrix
            table = [list(row) for row in matrix.table]
            table[0][0] = 0
            return ConsistencyMatrix(n, k, matrix.classes,
                                     tuple(map(tuple, table)))

        monkeypatch.setattr(consistency, "pi_formula", zeroed)
        report = verify_structure(2, p_max=4, k_max=2)
        failed = {c.name: c.detail for c in report.checks if not c.passed}
        assert failed["triangularity k=2"] == "non-positive diagonal"
        assert not report.passed

    def test_corrupted_surjection_count_fails_the_relation(self, monkeypatch):
        # the report and `surjection_matrix` both read S through their own
        # module's `surjection_table`; the corruption wraps the cached
        # table and never enters the cache, so no other test reads it
        table = morphisms.surjection_table

        def corrupted(n, labels=0, k=None, *, limits=DEFAULT_LIMITS):
            classes, table_rows = table(n, labels, k, limits=limits)
            counts = [list(row) for row in table_rows]
            if k is None:
                # the last class in surjection order has the most simple
                # edges and vertices: add 1 to its count onto a quotient
                i = len(counts) - 1
                j = next(j for j, c in enumerate(counts[i]) if c and j != i)
                counts[i][j] += 1
            return classes, counts

        monkeypatch.setattr(consistency, "surjection_table", corrupted)
        monkeypatch.setattr(series, "surjection_table", corrupted)
        report = verify_structure(2, p_max=4, k_max=2)
        assert "scale-change relation" in [
            c.name for c in report.checks if not c.passed]

    def test_swapped_surjection_matrix_rows_fail_the_counts(self, monkeypatch):
        """(e) reads the matrix Taylor recovery solves: two rows of
        `surjection_matrix(3, 6)` swapped, through the positions in S it
        reads, fail (e) and nothing else."""
        positions = series.surjection_positions

        def swapped(n, p, *, limits=DEFAULT_LIMITS):
            keys = positions(n, p, limits=limits)
            if (n, p) != (3, 6):
                return keys
            (a, x), (b, y) = list(keys.items())[:2]
            return {**keys, a: y, b: x}

        monkeypatch.setattr(series, "surjection_positions", swapped)
        report = verify_structure(3)
        assert [c.name for c in report.checks if not c.passed] == [
            "derivatives are surjection counts"]
        assert report.checks[-1].detail.startswith("T_6(")

    def test_surjection_matrix_reads_the_report_table(self, monkeypatch):
        """S is searched once per edge count: after the report, the Taylor
        matrices of that edge count search no pair at any scale."""
        assert verify_structure(4).passed
        calls = []
        search = morphisms._surjective_vertex_map_sum
        monkeypatch.setattr(morphisms, "_surjective_vertex_map_sum",
                            lambda *args, **kw: (calls.append(args),
                                                 search(*args, **kw))[1])
        for p in range(2, 13):
            series.surjection_matrix(4, p)
        assert calls == []

    def test_n3_t_matrix_nonsingular(self):
        classes = enumerate_Hn(3)
        coarse = enumerate_Hnp(3, 6)
        rows = []
        for H in classes:
            vec = extract_T(QuantumGraph.from_graph(H), 3, 6)
            rows.append([vec.entries[canonical_key(h)] for h in coarse])
        assert linalg.determinant(rows) != 0


class TestStructureAgainstRecomputing:
    @pytest.mark.parametrize("n,p_max,k_max,limits", [
        pytest.param(1, 3, 3, DEFAULT_LIMITS, id="1-3-3"),
        pytest.param(2, 4, 2, DEFAULT_LIMITS, id="2-4-2"),
        pytest.param(2, None, 3, DEFAULT_LIMITS, id="2-None-3"),
        pytest.param(3, None, 3, DEFAULT_LIMITS, id="3-None-3"),
        pytest.param(3, 4, 2, DEFAULT_LIMITS, id="3-4-2"),
        pytest.param(2, 4, 3, Limits(max_parts=4), id="2-4-3-max_parts4")])
    def test_same_report(self, n, p_max, k_max, limits):
        report = verify_structure(n, p_max, k_max, limits=limits)
        assert report.passed
        assert report.summary() == recomputing_verify_structure(
            n, p_max, k_max, limits=limits).summary()

    @staticmethod
    def _failures(n, p_max, k_max, limits=DEFAULT_LIMITS):
        report = verify_structure(n, p_max, k_max, limits=limits)
        assert report.summary() == recomputing_verify_structure(
            n, p_max, k_max, limits=limits).summary()
        return [(c.name, c.detail) for c in report.checks if not c.passed]

    def test_perturbed_derivative_entry_fails_alike(self, monkeypatch):
        extract = consistency.extract_T
        H = enumerate_Hn(2)[1]

        def perturbed(F, n, p, *, limits=DEFAULT_LIMITS):
            vec = extract(F, n, p, limits=limits)
            if p != 3 or canonical_key(F.terms()[0][0]) != canonical_key(H):
                return vec
            entries = dict(vec.entries)
            entries[canonical_key(vec.classes[0])] += 1
            return ConsistencyVector(vec.n, vec.p, vec.classes, entries)

        monkeypatch.setattr(consistency, "extract_T", perturbed)
        assert self._failures(2, 4, 2) == [
            ("derivatives are surjection counts",
             f"T_3({graph_signature(H)}) is not |Surj(H, h)| / p^|V(H)|")]

    def test_entry_above_the_diagonal_fails_alike(self, monkeypatch):
        formula = consistency.pi_formula

        def perturbed(n, k, *, limits=DEFAULT_LIMITS):
            matrix = formula(n, k, limits=limits)
            if k != 2:
                return matrix
            table = [list(row) for row in matrix.table]
            table[-1][0] = 1
            return ConsistencyMatrix(n, k, matrix.classes,
                                     tuple(map(tuple, table)))

        monkeypatch.setattr(consistency, "pi_formula", perturbed)
        failures = self._failures(2, 4, 3)
        assert failures[0] == ("triangularity k=2",
                               "support violates the surjection condition")

    def test_corrupted_pi_3_fails_under_a_parts_cap(self, monkeypatch):
        # at max_parts = 4 no (p, 3) step fits, and the per-step relation
        # read pi_3 nowhere; the identity reads it at every scale
        formula = consistency.pi_formula

        def corrupted(n, k, *, limits=DEFAULT_LIMITS):
            matrix = formula(n, k, limits=limits)
            if k != 3:
                return matrix
            table = [list(row) for row in matrix.table]
            # the first nonzero entry off the diagonal, column by column
            a, b = next((a, b) for b in range(len(table))
                        for a in range(len(table)) if table[a][b] and a != b)
            table[a][b] += 1
            return ConsistencyMatrix(n, k, matrix.classes,
                                     tuple(map(tuple, table)))

        monkeypatch.setattr(consistency, "pi_formula", corrupted)
        failures = self._failures(2, 4, 3, Limits(max_parts=4))
        assert [name for name, _ in failures] == ["scale-change relation"]
        assert failures[0][1].endswith("at k=3")


class TestLinearConsistencyDimension:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_solution_space_has_class_count_dimension(self, n):
        # one block of unknowns per scale on the divisor chain 2 | 2n | 4n
        # (scales outside a chain are not pinned by any in-window constraint,
        # so the window must be multiplicatively closed for the dimension
        # count to reproduce the full product-space statement)
        scales = sorted({2, 2 * n, 4 * n})
        blocks = {p: enumerate_Hnp(n, p) for p in scales}
        offsets = {}
        total = 0
        for p in scales:
            offsets[p] = total
            total += len(blocks[p])
        rows = []
        for p in scales:
            for k in range(2, 4 * n // p + 1):
                if p * k not in blocks:
                    continue
                matrix = pi_formula(n, k)
                for i, g in enumerate(blocks[p]):
                    row = [Fraction(0)] * total
                    row[offsets[p] + i] = Fraction(-1)
                    gs = strip_isolated(g)
                    for j, h in enumerate(blocks[p * k]):
                        hs = strip_isolated(h)
                        row[offsets[p * k] + j] += matrix.value(gs, hs)
                    rows.append(row)
        nullity = total - linalg.rank(rows)
        assert nullity == len(enumerate_Hn(n))

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphoncalc import (StepKernel, basis_edge, cut_norm, enumerate_Hn,
                         density, from_graph, is_admissible, kernel_from_json,
                         kernel_to_json, l1_norm, matching, parallel_edges,
                         permute_parts, refine, single_edge, tensor_product)
from graphoncalc.limits import CapExceeded, Limits

from .bruteforce import cut_norm_subset_oracle, random_kernel, random_signed_kernel


_CELLS = st.one_of(st.just(Fraction(0)),
                   st.fractions(min_value=-3, max_value=3, max_denominator=12))


class TestIntegerized:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_exact_integer_form(self, data):
        p = data.draw(st.integers(1, 4))
        rows = [[Fraction(0)] * p for _ in range(p)]
        for a in range(p):
            for b in range(a, p):
                rows[a][b] = rows[b][a] = data.draw(_CELLS)
        f = StepKernel(rows)
        denom, ints = f.integerized()
        assert denom == math.lcm(*(x.denominator for row in rows for x in row))
        for i in range(p):
            for j in range(p):
                assert type(ints[i][j]) is int
                assert Fraction(ints[i][j], denom) == rows[i][j]


class TestZero:
    def test_one_shared_kernel_per_part_count(self):
        zero = StepKernel.zero(3)
        assert zero is StepKernel.zero(3)
        assert zero is StepKernel.zero(parts=3)
        assert StepKernel.zero() is StepKernel.zero(1)
        assert StepKernel.zero(2) is not zero
        assert zero.matrix == ((Fraction(0),) * 3,) * 3
        assert zero.support() == (0, 0)

    def test_shared_kernel_is_immutable(self):
        zero = StepKernel.zero(3)
        for name, value in (("parts", 4), ("matrix", ()), ("_support", None),
                            ("anything", 1)):
            with pytest.raises(AttributeError):
                setattr(zero, name, value)
        assert zero.parts == 3 and zero.matrix == ((Fraction(0),) * 3,) * 3

    def test_arithmetic_returns_new_kernels(self):
        zero = StepKernel.zero(2)
        k = random_signed_kernel(random.Random(4), 2, denominator=5)
        results = [zero + k, k + zero, -zero, zero.scaled(3), 2 * zero,
                   zero - k]
        assert all(r is not zero for r in results)
        assert results[:2] == [k, k] and results[-1] == -k
        assert all(r == zero for r in results[2:5])
        assert zero.matrix == ((Fraction(0),) * 2,) * 2
        assert StepKernel.zero(2) is zero


class TestBasisAndRefine:
    def test_basis_matrix(self):
        e = basis_edge(2, 1, 2)
        assert e.matrix == ((Fraction(0), Fraction(1)),
                            (Fraction(1), Fraction(0)))

    def test_basis_rejects_diagonal_and_range(self):
        with pytest.raises(ValueError):
            basis_edge(3, 2, 2)
        with pytest.raises(ValueError):
            basis_edge(3, 0, 2)
        with pytest.raises(ValueError):
            basis_edge(3, 2, 4)

    def test_basis_mass(self):
        for p in (2, 3, 5):
            assert l1_norm(basis_edge(p, 1, 2)) == Fraction(2, p * p)

    def test_splitting_identity(self):
        # refining a basis element is the double sum of finer basis elements
        p, k, a, b = 3, 2, 1, 3
        refined = refine(basis_edge(p, a, b), k)
        total = StepKernel.zero(k * p)
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                total = total + basis_edge(k * p, k * (a - 1) + i,
                                           k * (b - 1) + j)
        assert refined == total

    def test_refine_identity_and_constant(self):
        f = random_kernel(random.Random(0), 3)
        assert refine(f, 1) == f
        c = StepKernel.constant(Fraction(2, 7))
        assert refine(c, 3).matrix == tuple(
            tuple(Fraction(2, 7) for _ in range(3)) for _ in range(3))

    def test_refine_preserves_norms(self):
        rng = random.Random(1)
        for _ in range(10):
            f = random_signed_kernel(rng, rng.randint(1, 4))
            assert l1_norm(refine(f, 3)) == l1_norm(f)
            assert cut_norm(refine(f, 2)) == cut_norm(f)


class TestNorms:
    def test_l1_examples(self):
        assert l1_norm(StepKernel.constant(Fraction(3, 4))) == Fraction(3, 4)
        assert l1_norm(basis_edge(2, 1, 2)) == Fraction(1, 2)
        f = random_kernel(random.Random(2), 3)
        assert l1_norm(f - f) == 0

    def test_cut_nonnegative_kernel_is_mean(self):
        rng = random.Random(3)
        for _ in range(10):
            f = random_kernel(rng, rng.randint(1, 5))
            assert cut_norm(f) == l1_norm(f)

    def test_cut_zero(self):
        assert cut_norm(StepKernel.zero(4)) == 0

    def test_cut_signed_example(self):
        f = StepKernel([[1, -1], [-1, 1]])
        assert cut_norm(f) == cut_norm_subset_oracle(f) == Fraction(1, 4)

    def test_cut_matches_subset_oracle(self):
        rng = random.Random(4)
        for _ in range(30):
            f = random_signed_kernel(rng, rng.randint(1, 6))
            assert cut_norm(f) == cut_norm_subset_oracle(f)

    def test_cut_dominated_by_l1(self):
        rng = random.Random(5)
        for _ in range(20):
            f = random_signed_kernel(rng, rng.randint(1, 5))
            assert cut_norm(f) <= l1_norm(f)

    def test_cut_cap(self):
        with pytest.raises(CapExceeded, match="max_cut_parts cap of 4"):
            cut_norm(StepKernel.zero(5), limits=Limits(max_cut_parts=4))


class TestTensor:
    def test_constant_times_constant(self):
        c = tensor_product(StepKernel.constant(Fraction(1, 2)),
                           StepKernel.constant(Fraction(1, 3)))
        assert c == StepKernel.constant(Fraction(1, 6))

    def test_multiplicativity_small_graphs(self):
        rng = random.Random(6)
        graphs = [g for n in (1, 2, 3) for g in enumerate_Hn(n)]
        for _ in range(15):
            f = random_kernel(rng, rng.randint(1, 3))
            g = random_kernel(rng, rng.randint(1, 3))
            h = rng.choice(graphs)
            assert density(h, tensor_product(f, g)) == \
                density(h, f) * density(h, g)

    def test_tensor_with_one(self):
        f = random_kernel(random.Random(7), 3)
        t = tensor_product(f, StepKernel.constant(1))
        for h in enumerate_Hn(2):
            assert density(h, t) == density(h, f)


class TestPermuteParts:
    def test_identity(self):
        f = random_kernel(random.Random(8), 4)
        assert permute_parts(f, [1, 2, 3, 4]) == f

    def test_density_invariance(self):
        rng = random.Random(9)
        graphs = [g for n in (1, 2, 3) for g in enumerate_Hn(n)]
        for _ in range(10):
            f = random_kernel(rng, 4)
            sigma = [1, 2, 3, 4]
            rng.shuffle(sigma)
            fs = permute_parts(f, sigma)
            h = rng.choice(graphs)
            assert density(h, fs) == density(h, f)

    def test_inverse_round_trip(self):
        rng = random.Random(10)
        f = random_kernel(rng, 5)
        sigma = [3, 1, 5, 2, 4]
        inverse = [sigma.index(a) + 1 for a in range(1, 6)]
        assert permute_parts(permute_parts(f, sigma), inverse) == f

    def test_rejects_non_permutation(self):
        f = random_kernel(random.Random(11), 3)
        with pytest.raises(ValueError):
            permute_parts(f, [1, 1, 2])


class TestAdmissibility:
    def test_interior_base_accepts_everything(self):
        g = random_signed_kernel(random.Random(12), 3)
        assert is_admissible(StepKernel.constant(Fraction(1, 2)), g)

    def test_zero_base_needs_nonnegative_direction(self):
        g = StepKernel([[0, Fraction(-1, 2)], [Fraction(-1, 2), 0]])
        assert not is_admissible(StepKernel.zero(2), g)
        assert is_admissible(StepKernel.zero(2), basis_edge(2, 1, 2))

    def test_one_base_needs_nonpositive_direction(self):
        assert not is_admissible(StepKernel.constant(1), basis_edge(2, 1, 2))
        assert is_admissible(StepKernel.constant(1),
                             basis_edge(2, 1, 2).scaled(-1))

    def test_zero_direction_always_admissible(self):
        assert is_admissible(StepKernel.zero(3), StepKernel.zero(1))

    def test_base_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            is_admissible(StepKernel.constant(2), StepKernel.zero(1))

    def test_mixed_part_counts_use_common_refinement(self):
        base = StepKernel([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
        down = StepKernel.constant(Fraction(-1, 4))
        assert not is_admissible(base, down)  # hits the zero diagonal cells
        assert is_admissible(base, refine(basis_edge(2, 1, 2), 3))


class TestFromGraph:
    def test_single_edge_kernel(self):
        f = from_graph(single_edge())
        assert f.matrix == ((Fraction(0), Fraction(1)),
                            (Fraction(1), Fraction(0)))

    def test_multiplicities_become_weights(self):
        f = from_graph(parallel_edges(2))
        assert f.matrix[0][1] == 2

    def test_matching_kernel_density(self):
        f = from_graph(matching(2))
        assert density(single_edge(), f) == Fraction(4, 16)


class TestJsonAndArithmetic:
    def test_round_trip(self):
        f = random_signed_kernel(random.Random(13), 3)
        assert kernel_from_json(kernel_to_json(f)) == f

    def test_integers_allowed(self):
        f = kernel_from_json({"parts": 2, "matrix": [[0, 1], [1, 0]]})
        assert f == basis_edge(2, 1, 2)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            StepKernel([[0, 1], [2, 0]])

    def test_mixed_parts_arithmetic(self):
        a = StepKernel.constant(Fraction(1, 2), 2)
        b = random_kernel(random.Random(14), 3)
        assert (a + b) - b == refine(a, 3)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3))
    def test_scaling_l1_homogeneous(self, p, c):
        f = random_signed_kernel(random.Random(p * 31 + c), p)
        assert l1_norm(f.scaled(Fraction(-c, 2))) == Fraction(c, 2) * l1_norm(f)

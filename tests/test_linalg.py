import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphoncalc import linalg, whitney_matrix

from .bruteforce import gauss_determinant, gauss_rank, gauss_solve, random_matrix

KINDS = ("dense", "sparse", "singular", "triangular")


def _check_against_gauss(rows, rhs):
    det = linalg.determinant(rows)
    assert isinstance(det, Fraction)
    assert det == gauss_determinant(rows)
    assert linalg.rank(rows) == gauss_rank(rows)
    if det == 0:
        with pytest.raises(ValueError, match="singular"):
            linalg.solve(rows, rhs)
    else:
        x = linalg.solve(rows, rhs)
        assert x == gauss_solve(rows, rhs)
        assert all(isinstance(v, Fraction) for v in x)


class TestAgainstGaussOracle:
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(rng=st.randoms(use_true_random=False), n=st.integers(1, 7))
    def test_square(self, kind, rng, n):
        rows = random_matrix(rng, kind, n)
        rhs = random_matrix(rng, "dense", n)[0]
        _check_against_gauss(rows, rhs)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("mixed", [False, True])
    @settings(max_examples=20, deadline=None)
    @given(rng=st.randoms(use_true_random=False), n=st.integers(1, 6))
    def test_int_entries(self, kind, mixed, rng, n):
        # int rows (as consistency matrices come), or ints mixed with
        # Fractions: every result is a Fraction, and the caller's rows keep
        # their values and their types
        def entry(x):
            return x if mixed and rng.random() < 0.5 else int(60 * x)

        rows = [[entry(x) for x in row] for row in random_matrix(rng, kind, n)]
        rhs = [entry(x) for x in random_matrix(rng, "dense", n)[0]]
        before = [[(type(x), x) for x in row] for row in [*rows, rhs]]
        _check_against_gauss(rows, rhs)
        assert [[(type(x), x) for x in row] for row in [*rows, rhs]] == before

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 6),
           st.integers(1, 6))
    def test_rectangular_rank(self, rng, n_rows, n_cols):
        n = max(n_rows, n_cols)
        rows = [row[:n_cols] for row in random_matrix(rng, "sparse", n)[:n_rows]]
        assert linalg.rank(rows) == gauss_rank(rows)

    @pytest.mark.parametrize("seed", range(3))
    def test_whitney_shaped(self, seed):
        rng = random.Random(seed)
        # mostly zero, triangular up to a row permutation, entries c / p^j
        rows = [list(row) for row in
                whitney_matrix(3, 1, {1: Fraction(1, 3)}).rows]
        rng.shuffle(rows)
        rhs = random_matrix(rng, "dense", len(rows))[0]
        _check_against_gauss(rows, rhs)

    def test_singular_solve_raises(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        with pytest.raises(ValueError, match="singular"):
            linalg.solve(rows, [Fraction(1), Fraction(0)])

    def test_empty(self):
        assert linalg.determinant([]) == 1
        assert linalg.solve([], []) == []
        assert linalg.rank([]) == 0

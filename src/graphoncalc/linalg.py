"""Small exact linear algebra over Fractions: determinant, solve, rank.

All three run one Gaussian elimination with the first nonzero pivot.  In
the library it serves only the structure report's invertibility (b) and
derivative-basis (c) determinants; the tests use the rest.  Whitney
determinants do not come here: a Whitney table is lower triangular in the
surjection order, so its determinant is the product of the diagonal, and
Taylor recovery back-substitutes on the triangular table S.  The matrices
here, the scale matrices and the derivative vectors of one edge count, are
surjection-count tables up to the order and scale of their rows and
columns, so mostly zero, and each pivot step updates only the rows with a
nonzero in the pivot column, and in them only the pivot row's nonzero
columns.

Entries may be Fractions or ints (the consistency matrices are ints), mixed
freely; results are Fractions.  Elimination runs on a copy of the rows that
converts only the non-Fraction entries: a Fraction is immutable, so the copy
shares it, and the caller's rows are never changed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _eliminate(m: list[list[Fraction]]) -> tuple[list[int], int]:
    """Reduce m to row echelon form in place.

    Returns the pivot column of each of the leading rows, in order, and the
    sign of the row permutation applied.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots: list[int] = []
    sign = 1
    r = 0
    for col in range(n_cols):
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        prow = m[r]
        inv = 1 / prow[col]
        nonzero = [c for c in range(col + 1, n_cols) if prow[c]]
        for i in range(r + 1, n_rows):
            row = m[i]
            if row[col]:
                factor = row[col] * inv
                row[col] = Fraction(0)
                for c in nonzero:
                    row[c] -= factor * prow[c]
        pivots.append(col)
        r += 1
    return pivots, sign


def _copy(rows: Sequence[Sequence[Fraction | int]]) -> list[list[Fraction]]:
    return [[x if isinstance(x, Fraction) else Fraction(x) for x in row]
            for row in rows]


def determinant(rows: Sequence[Sequence[Fraction | int]]) -> Fraction:
    m = _copy(rows)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    pivots, sign = _eliminate(m)
    if len(pivots) < n:
        return Fraction(0)
    det = Fraction(sign)
    for i in range(n):
        det *= m[i][i]
    return det


def solve(rows: Sequence[Sequence[Fraction | int]],
          rhs: Sequence[Fraction | int]) -> list[Fraction]:
    """Solve a square system exactly; raises ValueError when singular."""
    n = len(rows)
    if any(len(row) != n for row in rows) or len(rhs) != n:
        raise ValueError("solve needs a square matrix and a matching vector")
    m = _copy([*row, b] for row, b in zip(rows, rhs))
    pivots, _ = _eliminate(m)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        row = m[r]
        acc = row[n]
        for c in range(r + 1, n):
            if row[c]:
                acc -= row[c] * x[c]
        x[r] = acc / row[r]
    return x


def rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    return len(_eliminate(_copy(rows))[0])

"""Symmetric step kernels on [0,1]^2 with exact rational values.

A kernel with p parts is a symmetric p x p matrix of rationals; cell (a, b)
is the value on the product of the a-th and b-th uniform subintervals.  The
basis elements live on a single off-diagonal cell pair; refining splits every
part into k equal pieces without changing any density or norm.

No floating point enters here: all arithmetic is over ``fractions.Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .limits import DEFAULT_LIMITS, CapExceeded, Limits
from .multigraph import Multigraph


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ValueError(f"not an exact rational: {x!r}")


class StepKernel:
    """Immutable symmetric step function, stored as a matrix of Fractions."""

    __slots__ = ("parts", "matrix", "_intform")

    def __init__(self, matrix: Sequence[Sequence], *, _checked: bool = False):
        rows = tuple(tuple(_to_fraction(x) for x in row) for row in matrix)
        p = len(rows)
        if p == 0 or any(len(row) != p for row in rows):
            raise ValueError("matrix must be square and nonempty")
        if not _checked:
            for a in range(p):
                for b in range(a + 1, p):
                    if rows[a][b] != rows[b][a]:
                        raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "parts", p)
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "_intform", None)

    def __setattr__(self, name, value):
        raise AttributeError("StepKernel is immutable")

    @classmethod
    def constant(cls, value, parts: int = 1) -> "StepKernel":
        c = _to_fraction(value)
        return cls([[c] * parts for _ in range(parts)], _checked=True)

    @classmethod
    def zero(cls, parts: int = 1) -> "StepKernel":
        return cls.constant(0, parts)

    # -- values -----------------------------------------------------------

    def value(self, a: int, b: int) -> Fraction:
        """Cell value with 1-based part indices."""
        return self.matrix[a - 1][b - 1]

    def max_abs(self) -> Fraction:
        return max((abs(x) for row in self.matrix for x in row),
                   default=Fraction(0))

    def in_unit_interval(self) -> bool:
        return all(0 <= x <= 1 for row in self.matrix for x in row)

    def integerized(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(denominator, integer matrix) with matrix/denominator == self."""
        if self._intform is None:
            denom = math.lcm(*(x.denominator for row in self.matrix for x in row))
            ints = tuple(tuple(x.numerator * (denom // x.denominator) for x in row)
                         for row in self.matrix)
            object.__setattr__(self, "_intform", (denom, ints))
        return self._intform

    # -- linear structure ---------------------------------------------------

    def refined_to(self, parts: int) -> "StepKernel":
        if parts % self.parts:
            raise ValueError("target part count must be a multiple of the current one")
        return refine(self, parts // self.parts)

    def _binary(self, other, op) -> "StepKernel":
        if not isinstance(other, StepKernel):
            return NotImplemented
        p = math.lcm(self.parts, other.parts)
        a = self.refined_to(p)
        b = other.refined_to(p)
        return StepKernel([[op(a.matrix[i][j], b.matrix[i][j]) for j in range(p)]
                           for i in range(p)], _checked=True)

    def __add__(self, other):
        return self._binary(other, lambda x, y: x + y)

    def __sub__(self, other):
        return self._binary(other, lambda x, y: x - y)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, c) -> "StepKernel":
        c = _to_fraction(c)
        return StepKernel([[c * x for x in row] for row in self.matrix],
                          _checked=True)

    def __rmul__(self, c):
        return self.scaled(c)

    def __eq__(self, other):
        if not isinstance(other, StepKernel):
            return NotImplemented
        p = math.lcm(self.parts, other.parts)
        return self.refined_to(p).matrix == other.refined_to(p).matrix

    __hash__ = None

    def __repr__(self):
        return f"StepKernel(parts={self.parts})"


# -- constructors -----------------------------------------------------------


def basis_edge(p: int, a: int, b: int) -> StepKernel:
    """The indicator kernel on the symmetric cell pair (a, b), 1 <= a < b <= p."""
    if not (1 <= a < b <= p):
        raise ValueError("need 1 <= a < b <= p (no diagonal basis elements)")
    rows = [[Fraction(0)] * p for _ in range(p)]
    rows[a - 1][b - 1] = Fraction(1)
    rows[b - 1][a - 1] = Fraction(1)
    return StepKernel(rows, _checked=True)


def from_graph(g: Multigraph) -> StepKernel:
    """The step kernel of a multigraph: cell (u, v) carries the multiplicity."""
    if g.vertex_count == 0:
        raise ValueError("graph kernel needs at least one vertex")
    p = g.vertex_count
    rows = [[Fraction(0)] * p for _ in range(p)]
    for (u, v), m in g.pairs:
        rows[u][v] = Fraction(m)
        rows[v][u] = Fraction(m)
    return StepKernel(rows, _checked=True)


# -- operations ---------------------------------------------------------------


def refine(f: StepKernel, k: int) -> StepKernel:
    """Split every part into k equal parts; the step function is unchanged."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return f
    p = f.parts
    rows = [[f.matrix[i // k][j // k] for j in range(k * p)] for i in range(k * p)]
    return StepKernel(rows, _checked=True)


def common_refinement(*kernels: StepKernel) -> tuple[StepKernel, ...]:
    p = math.lcm(*(f.parts for f in kernels))
    return tuple(f.refined_to(p) for f in kernels)


def l1_norm(f: StepKernel) -> Fraction:
    total = sum(abs(x) for row in f.matrix for x in row)
    return Fraction(total, f.parts ** 2)


def cut_norm(f: StepKernel, *, limits: Limits = DEFAULT_LIMITS) -> Fraction:
    """sup over measurable S, T of |integral of f over S x T|, exactly.

    For a step function the supremum is attained on unions of parts, and for
    a fixed part subset S the optimal T keeps exactly the rows with positive
    partial sums.  Subsets S are walked in Gray-code order so each step
    updates the column sums by a single row.
    """
    p = f.parts
    if p > limits.max_cut_parts:
        raise CapExceeded(f"cut norm over {p} parts exceeds the cap "
                          f"({limits.max_cut_parts})")
    denom, rows = f.integerized()
    sums = [0] * p
    member = [False] * p
    best = 0
    for step in range(1, 1 << p):
        j = (step & -step).bit_length() - 1
        if member[j]:
            for b in range(p):
                sums[b] -= rows[j][b]
            member[j] = False
        else:
            for b in range(p):
                sums[b] += rows[j][b]
            member[j] = True
        pos = sum(s for s in sums if s > 0)
        neg = -sum(s for s in sums if s < 0)
        if pos > best:
            best = pos
        if neg > best:
            best = neg
    return Fraction(best, denom * p ** 2)


def tensor_product(f: StepKernel, g: StepKernel, *,
                   limits: Limits = DEFAULT_LIMITS) -> StepKernel:
    """Kernel of (x1,x2,y1,y2) -> f(x1,y1) g(x2,y2) under the lexicographic
    identification of part pairs; densities multiply exactly."""
    p = f.parts * g.parts
    if p > limits.max_parts * limits.max_parts:
        raise CapExceeded(f"tensor product would have {p} parts")
    rows = [[f.matrix[i // g.parts][j // g.parts] * g.matrix[i % g.parts][j % g.parts]
             for j in range(p)] for i in range(p)]
    return StepKernel(rows, _checked=True)


def permute_parts(f: StepKernel, sigma: Sequence[int]) -> StepKernel:
    """Relabel parts: new cell (a, b) takes the value at (sigma(a), sigma(b)).

    sigma is given on 1-based part indices, sigma[a-1] = image of a.
    """
    p = f.parts
    if sorted(sigma) != list(range(1, p + 1)):
        raise ValueError("sigma must be a permutation of 1..p")
    rows = [[f.matrix[sigma[a] - 1][sigma[b] - 1] for b in range(p)]
            for a in range(p)]
    return StepKernel(rows, _checked=True)


def is_admissible(f: StepKernel, g: StepKernel) -> bool:
    """True when f + eps*g stays inside the unit-interval kernels for all
    small eps > 0: on cells where f is 0 the direction must be >= 0, and on
    cells where f is 1 it must be <= 0."""
    if not f.in_unit_interval():
        raise ValueError("base kernel must take values in [0, 1]")
    fr, gr = common_refinement(f, g)
    for a in range(fr.parts):
        for b in range(fr.parts):
            x, d = fr.matrix[a][b], gr.matrix[a][b]
            if x == 0 and d < 0:
                return False
            if x == 1 and d > 0:
                return False
    return True


# -- JSON ---------------------------------------------------------------------


def kernel_to_json(f: StepKernel) -> dict:
    return {"parts": f.parts,
            "matrix": [[str(x) for x in row] for row in f.matrix]}


def kernel_from_json(obj: Mapping) -> StepKernel:
    try:
        parts = int(obj["parts"])
        matrix = obj["matrix"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed kernel object: {exc}") from exc
    if len(matrix) != parts:
        raise ValueError("matrix size does not match the declared part count")
    return StepKernel(matrix)

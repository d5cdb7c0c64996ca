"""Exact higher directional derivatives of density functionals.

The m-th derivative of t(H, -) at a base kernel along m directions is a sum
over m-element sets of edge copies of H and bijections onto the direction
slots: the chosen copies evaluate the directions, the rest evaluate the base.
That closed form is what `gateaux_exact` computes, term by term, for any
finite combination of densities; the limit definition survives only in the
finite-difference cross-check `gateaux_numeric`.

Evaluating the derivative at the zero kernel on tuples of basis edges and
indexing the values by the isomorphism class of the tuple's multigraph
yields the class data that the consistency machinery consumes (`extract_T`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .density import _evaluate, density
from .limits import DEFAULT_LIMITS, Limits
from .multigraph import Multigraph, canonical_key, enumerate_Hnp, single_edge, star_graph
from .series import QuantumGraph, basis_tuple, eval_quantum
from .stepkernel import (StepKernel, common_refinement, is_admissible,
                         _to_fraction)


@dataclass(frozen=True)
class DerivativeRequest:
    """Base kernel, ordered direction kernels, and the implied order."""

    base: StepKernel
    directions: tuple[StepKernel, ...]

    def __post_init__(self):
        object.__setattr__(self, "directions", tuple(self.directions))

    @property
    def order(self) -> int:
        return len(self.directions)


def gateaux_exact(F: QuantumGraph, request: DerivativeRequest, *,
                  strict: bool = False,
                  limits: Limits = DEFAULT_LIMITS) -> Fraction:
    """Exact derivative of order len(directions) at the base kernel.

    Multilinear in the directions and symmetric under permuting them; exactly
    zero once the order exceeds every edge count in F.  With `strict=True`
    each direction must be admissible at the base (one-sided movements stay
    inside the unit-interval kernels); by default the closed formula is used
    as the multilinear extension without that check.
    """
    if F.k:
        raise ValueError("derivatives act on unlabelled density combinations")
    m = request.order
    if m == 0:
        return eval_quantum(F, request.base, limits=limits)
    refined = common_refinement(request.base, *request.directions)
    base, dirs = refined[0], refined[1:]
    if strict:
        for d in dirs:
            if not is_admissible(base, d):
                raise ValueError("direction is not admissible at the base kernel")

    total = Fraction(0)
    for H, coeff in F.terms():
        slots = [(u, v) for (u, v), mult in H.pairs for _ in range(mult)]
        if m > len(slots):
            continue
        # chosen[j] is the slot that carries direction j
        for chosen in itertools.permutations(range(len(slots)), m):
            factors = [(u, v, base, 1) for u, v in slots]
            for pos, direction in zip(chosen, dirs):
                factors[pos] = (*slots[pos], direction, 1)
            total += coeff * _evaluate(H, base.parts, factors, {}, limits=limits)
    return total


def gateaux_numeric(F: QuantumGraph, request: DerivativeRequest, step=None, *,
                    limits: Limits = DEFAULT_LIMITS) -> float:
    """Central finite-difference approximation of the same derivative.

    The stencil values are computed in exact rational arithmetic (the step is
    a rational), so the only error is the h^2 truncation of the stencil; the
    result is returned as a float.  Orders up to 3.
    """
    m = request.order
    if m == 0:
        return float(eval_quantum(F, request.base, limits=limits))
    if m > 3:
        raise ValueError("the numeric cross-check supports orders up to 3")
    if step is None:
        step = Fraction(1, 10**4)
    h = _to_fraction(step if not isinstance(step, float) else str(step))
    if h <= 0:
        raise ValueError("step must be positive")

    total = Fraction(0)
    for signs in itertools.product((1, -1), repeat=m):
        point = request.base
        for s, g in zip(signs, request.directions):
            point = point + (s * h) * g
        weight = 1
        for s in signs:
            weight *= s
        total += weight * eval_quantum(F, point, limits=limits)
    return float(total / (2 * h) ** m)


def gamma(n: int, p: int, x: Sequence[tuple[int, int]]) -> Multigraph:
    """The p-vertex multigraph whose l-th edge joins the parts of the l-th
    basis-edge index pair (1-based, a < b)."""
    if len(x) != n:
        raise ValueError(f"expected {n} index pairs, got {len(x)}")
    for a, b in x:
        if not (1 <= a < b <= p):
            raise ValueError(f"basis indices need 1 <= a < b <= p: ({a},{b})")
    return Multigraph(p, [(a - 1, b - 1) for a, b in x])


@dataclass(frozen=True)
class ConsistencyVector:
    """Derivative data of a class function at 0, indexed by the isomorphism
    classes of n-edge multigraphs on exactly p vertices."""

    n: int
    p: int
    classes: tuple[Multigraph, ...]
    entries: dict[bytes, Fraction]

    def value(self, h: Multigraph) -> Fraction:
        return self.entries[canonical_key(h)]

    def as_items(self) -> list[tuple[Multigraph, Fraction]]:
        return [(h, self.entries[canonical_key(h)]) for h in self.classes]

    def __eq__(self, other):
        if not isinstance(other, ConsistencyVector):
            return NotImplemented
        return (self.n, self.p, self.entries) == (other.n, other.p, other.entries)


def extract_T(F: QuantumGraph, n: int, p: int, *,
              limits: Limits = DEFAULT_LIMITS) -> ConsistencyVector:
    """Evaluate the n-th derivative of F at 0 on one basis tuple per class of
    n-edge p-vertex multigraphs.

    Well-definedness (independence of the representative tuple) is the orbit
    property of the tuple-to-graph map; it is asserted here and exercised by
    the test suite.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    classes = enumerate_Hnp(n, p, limits=limits)
    base = StepKernel.zero(p)
    entries = {canonical_key(h): gateaux_exact(
                   F, DerivativeRequest(base, basis_tuple(h, p)), limits=limits)
               for h in classes}
    return ConsistencyVector(n, p, classes, entries)


@dataclass(frozen=True)
class StarComparison:
    """Exact comparison of a star density against the same-edge-density
    constant kernel, with the equality certificate."""

    star_density: Fraction
    edge_density_power: Fraction
    holds: bool
    equality: bool
    row_means_constant: bool


def sidorenko_star_check(k: int, f: StepKernel, *,
                         limits: Limits = DEFAULT_LIMITS) -> StarComparison:
    """t(S_k, f) >= c^k for the k-edge star, c the edge density of f; equality
    exactly when every row mean of f equals c."""
    if k < 1:
        raise ValueError("the star needs at least one edge")
    if not f.in_unit_interval():
        raise ValueError("the star inequality needs a kernel with values in [0, 1]")
    c = density(single_edge(), f, limits=limits)
    lhs = density(star_graph(k), f, limits=limits)
    rhs = c ** k
    row_means = [Fraction(sum(row), f.parts) for row in f.matrix]
    constant_rows = all(r == c for r in row_means)
    return StarComparison(lhs, rhs, lhs >= rhs, lhs == rhs, constant_rows)

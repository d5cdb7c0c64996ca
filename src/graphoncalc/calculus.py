"""Exact higher directional derivatives of density functionals.

The m-th derivative of t(H, -) at a base kernel along m directions is a sum
over m-element sets of edge copies of H and bijections onto the direction
slots: the chosen copies evaluate the directions, the rest evaluate the base.
That closed form is what `gateaux_exact` computes, term by term, for any
finite combination of densities; the limit definition survives only in the
finite-difference cross-check `gateaux_numeric`.

A term of the sum depends only on its labelling: how many directions of
each class (equal kernels, detected by their integer form, form one class)
sit on each pair of H.  An automorphism of H moves a labelling to another
with the same density, so `gateaux_exact` evaluates one labelling per orbit,
with equal kernels on a pair merged into one factor with an exponent, and
weights it by the number of slot assignments in the orbit.  The orbits are
found from a generating set of Aut(H) (`automorphism_generators`, read off
the search behind `canonical_key`) acting on H's pairs: `multigraph.orbits`
joins each labelling with its images under the generators, the same
routine that folds the label permutations of `morphisms.surjection_table`,
so the orbits are exact however large Aut(H) is, and no labelling is
canonicalized.  At the zero kernel only terms with as many edges as
directions are evaluated: a copy left on the base zeroes its term.

The orbit table of a term depends only on H and the number of directions
in each class, and `gateaux_exact` numbers the direction classes by
decreasing count, so the counts after the base's are a partition.  The
numbering is free: renaming classes maps labellings to labellings and
orbits to orbits, with the same weights and densities.  So a table serves
every request whose counts form the same partition, whatever the order of
the directions (in `extract_T`, whatever the vertex numbering of the class
representative that gives them), and it is kept on H (`Multigraph._tables`,
by counts) for as long as H lives, not in a bounded cache.

Most labellings on sparse kernels, such as the basis edges `extract_T`
uses, have density 0, and their kernels' supports show it before any
search (node and arc consistency: Mackworth, "Consistency in networks of
relations", 1977).  Each kernel class has two support bitmasks,
`StepKernel.support`: the rows with a nonzero cell, and the nonzero cells.
A labelling is skipped when, at some vertex, no row is nonzero in every
factor there (the AND of their row masks is 0), or, on some pair, no cell
is nonzero in every factor on it (the AND of their cell masks is 0): every
vertex map then reads a zero cell.  The skip is exact but not complete; a
labelling that passes may still have density 0.

What `gateaux_exact` reads of a request besides F, the kernels refined to
one part count, grouped into classes and counted, their support masks and
whether the base is zero, depends on the request alone.  A
`DerivativeRequest` computes it on first use and keeps it (`prepared`), so
one request serves any number of combinations F with one preparation;
`strict` admissibility is still checked on every call.

Evaluating the derivative at the zero kernel on tuples of basis edges and
indexing the values by the isomorphism class of the tuple's multigraph
yields the class data that the consistency machinery consumes (`extract_T`).
The class fixes its basis tuple, so its request is built once and kept on
the class (`Multigraph._request`): the structure report's `extract_T` calls
for every density class share one prepared request per class and scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

from .density import _evaluate, density
from .limits import DEFAULT_LIMITS, Limits
from .multigraph import (Multigraph, automorphism_generators, canonical_key,
                         enumerate_Hnp, graph_signature, orbits, single_edge,
                         star_graph)
from .series import QuantumGraph, basis_tuple, eval_quantum
from .stepkernel import (StepKernel, common_refinement, is_admissible,
                         _to_fraction)


class _Prepared(NamedTuple):
    """What `gateaux_exact` reads of a request besides its order: one
    kernel per class of equal kernels, refined to one part count (the
    base's class first, then by decreasing count), the number of
    directions in each class, each class's `StepKernel.support`, and
    whether the base is the zero kernel."""

    kernels: tuple[StepKernel, ...]
    counts: tuple[int, ...]
    supports: tuple[tuple[int, int], ...]
    zero_base: bool


@dataclass(frozen=True)
class DerivativeRequest:
    """Base kernel, ordered direction kernels, and the implied order.

    Its prepared form (`prepared`, see `_prepare`) is computed on first use
    and kept, so one request serves any number of combinations F."""

    base: StepKernel
    directions: tuple[StepKernel, ...]

    def __post_init__(self):
        object.__setattr__(self, "directions", tuple(self.directions))

    @property
    def order(self) -> int:
        return len(self.directions)

    @cached_property
    def prepared(self) -> _Prepared:
        return _prepare(self)


def _prepare(request: DerivativeRequest) -> _Prepared:
    """The request's kernels on one part count, grouped into classes of
    equal kernels by their integer form, in one pass.

    Class 0 is the base's, its count the directions equal to the base; the
    others go by decreasing count, ties in order of first appearance, so
    the counts after the first are a partition.
    """
    groups: dict[tuple, list] = {}
    for kernel in common_refinement(request.base, *request.directions):
        groups.setdefault(kernel.integerized(), [kernel, 0])[1] += 1
    (base, seen), *rest = groups.values()
    rest.sort(key=lambda group: -group[1])
    kernels = (base, *(kernel for kernel, _ in rest))
    supports = tuple(kernel.support() for kernel in kernels)
    # a zero row mask is the zero kernel
    return _Prepared(kernels, (seen - 1, *(count for _, count in rest)),
                     supports, not supports[0][0])


def _labellings(mults: Sequence[int],
                counts: Sequence[int]) -> list[tuple[tuple[int, ...], ...]]:
    """Every way to put counts[c] directions of class c on pairs of
    multiplicities `mults`, at most mults[i] on pair i: per pair, how many
    directions of each class its copies carry."""
    rows = [[0] * len(counts) for _ in mults]
    room = list(mults)
    out = []

    def place(c: int, i: int, left: int) -> None:
        if i == len(mults):
            if left:
                return
            if c + 1 < len(counts):
                place(c + 1, 0, counts[c + 1])
            else:
                out.append(tuple(map(tuple, rows)))
            return
        for x in range(min(left, room[i]) + 1):
            rows[i][c] = x
            room[i] -= x
            place(c, i + 1, left - x)
            room[i] += x
        rows[i][c] = 0

    place(0, 0, counts[0])
    return out


def _orbits(H: Multigraph, counts: tuple[int, ...]) -> tuple[tuple[tuple, int], ...]:
    """One labelling (see `_labellings`) per orbit under Aut(H), as the
    factors (u, v, kernel class, exponent) it evaluates (class 0 is the
    base), with the number of slot assignments in its orbit.

    Any counts are accepted.  `gateaux_exact` asks only for a base count
    followed by a partition, and keeps each table on H
    (`Multigraph._tables`, by counts), so H builds one table per such key
    in its lifetime.

    The orbits are closed under Aut(H) acting on H's pairs: `orbits`
    (multigraph) grows each one from its first labelling in `_labellings`
    order by the images under `automorphism_generators(H)`, as pair
    permutations, until none is new, and the orbits are listed by their
    first labellings; each weighs by its size.  A missing generator
    would split orbits, costing evaluations but no exactness: a labelling's
    density and weight are invariant under Aut(H).

    A labelling with L[i][c] directions of class c on pair i comes from
    prod_c counts[c]! / prod_i L[i][c]! choices of which directions go where,
    times mults[i]! / (mults[i] - |L[i]|)! placements on each pair's copies.
    """
    index = {pair: i for i, (pair, _) in enumerate(H.pairs)}
    moves = []
    for perm in automorphism_generators(H):
        image = [index[min(perm[u], perm[v]), max(perm[u], perm[v])]
                 for (u, v), _ in H.pairs]
        # a labelling's image puts on pair j what pair source[j] carried
        source = sorted(range(len(image)), key=image.__getitem__)
        if source != sorted(source):
            moves.append(source)
    choices = math.prod(map(math.factorial, counts))
    out = []
    for labels, members in orbits(
            _labellings([m for _, m in H.pairs], counts),
            lambda labels: [tuple(map(labels.__getitem__, source))
                            for source in moves]):
        weight = choices * len(members)
        factors = []
        for ((u, v), mult), row in zip(H.pairs, labels):
            weight = weight * math.perm(mult, sum(row)) \
                // math.prod(map(math.factorial, row))
            factors += [(u, v, c, e) for c, e in
                        enumerate((row[0] + mult - sum(row), *row[1:])) if e]
        out.append((tuple(factors), weight))
    return tuple(out)


def _vanishes(vertex_count: int, factors: tuple,
              supports: Sequence[tuple[int, int]]) -> bool:
    """Whether the support masks prove a labelling's density 0.

    `factors` are `_orbits`' (u, v, kernel class, exponent), each pair's
    factors consecutive; `supports[c]` is class c's (row mask, cell mask).
    True when some vertex has no part on which every factor at it has a
    nonzero row, or some pair no cell on which every factor on it is
    nonzero: then every vertex map reads a zero cell.
    """
    at = [-1] * vertex_count
    pair = None
    for u, v, c, _ in factors:
        rows, cells = supports[c]
        at[u] &= rows
        at[v] &= rows
        if (u, v) != pair:
            pair, common = (u, v), cells
        else:
            common &= cells
        if not common:
            return True
    return not all(at)


def gateaux_exact(F: QuantumGraph, request: DerivativeRequest, *,
                  strict: bool = False,
                  limits: Limits = DEFAULT_LIMITS) -> Fraction:
    """Exact derivative of order len(directions) at the base kernel.

    Multilinear in the directions and symmetric under permuting them; exactly
    zero once the order exceeds every edge count in F.  With `strict=True`
    each direction must be admissible at the base (one-sided movements stay
    inside the unit-interval kernels); by default the closed formula is used
    as the multilinear extension without that check.

    One density evaluation per orbit of labellings (`_orbits`, with the
    direction classes numbered by decreasing count), except
    where the kernels' support masks prove the orbit's density 0
    (`_vanishes`): a vertex whose factors' row masks AND to 0, or a pair
    whose factors' cell masks AND to 0.  Order 0 is the same orbit sum with
    no directions: one labelling of weight 1 per term, its density at the
    base, so the value of F there.

    The request is prepared (`DerivativeRequest.prepared`) on its first
    call only; the `strict` check runs on every call.
    """
    if F.k:
        raise ValueError("derivatives act on unlabelled density combinations")
    if strict:
        for d in request.directions:
            if not is_admissible(request.base, d):
                raise ValueError("direction is not admissible at the base kernel")
    m = request.order
    kernels, counts, supports, zero_base = request.prepared
    parts = kernels[0].parts

    # on the zero kernel, a copy left on the base zeroes its term
    total = Fraction(0)
    for H, coeff in F.terms():
        if m > H.edge_count or (zero_base and m < H.edge_count):
            continue
        if H._tables is None:
            object.__setattr__(H, "_tables", {})
        if counts not in H._tables:
            H._tables[counts] = _orbits(H, counts)
        for factors, weight in H._tables[counts]:
            if _vanishes(H.vertex_count, factors, supports):
                continue
            total += coeff * weight * _evaluate(
                H, parts, [(u, v, kernels[c], e) for u, v, c, e in factors],
                {}, limits=limits)
    return total


def gateaux_numeric(F: QuantumGraph, request: DerivativeRequest, step=None, *,
                    limits: Limits = DEFAULT_LIMITS) -> float:
    """Central finite-difference approximation of the same derivative.

    The stencil values are computed in exact rational arithmetic (the step is
    a rational), so the only error is the h^2 truncation of the stencil; the
    result is returned as a float.  Orders up to 3; at order 0 the stencil
    is the one value at the base.
    """
    m = request.order
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


def _by_class(table: Mapping[bytes, int | Fraction], h: Multigraph,
              classes: str) -> int | Fraction:
    """table's entry under h's canonical key; a ValueError naming h and
    `classes` when there is none."""
    try:
        return table[canonical_key(h)]
    except KeyError:
        raise ValueError(f"{graph_signature(h)} is not a class of "
                         f"{classes}") from None


@dataclass(frozen=True)
class ConsistencyVector:
    """Derivative data of a class function at 0, indexed by the isomorphism
    classes of n-edge multigraphs on exactly p vertices."""

    n: int
    p: int
    classes: tuple[Multigraph, ...] = field(compare=False)
    entries: dict[bytes, Fraction]

    def value(self, h: Multigraph) -> Fraction:
        return _by_class(self.entries, h, f"{self.n}-edge multigraphs on "
                         f"exactly {self.p} vertices")

    def as_items(self) -> list[tuple[Multigraph, Fraction]]:
        return [(h, self.entries[canonical_key(h)]) for h in self.classes]


def extract_T(F: QuantumGraph, n: int, p: int, *,
              limits: Limits = DEFAULT_LIMITS) -> ConsistencyVector:
    """Evaluate the n-th derivative of F at 0 on one basis tuple per class of
    n-edge p-vertex multigraphs.

    Well-definedness (independence of the representative tuple) is the orbit
    property of the tuple-to-graph map; nothing here checks it, the test
    suite does (other tuples of the same class give the same value).

    Every representative has exactly p vertices, so its request depends on
    the class alone: it is built and prepared once and kept on the class
    (`Multigraph._request`), and serves every F for as long as the class
    lives.
    """
    classes = enumerate_Hnp(n, p, limits=limits)
    entries = {canonical_key(h): gateaux_exact(F, _basis_request(h),
                                               limits=limits)
               for h in classes}
    return ConsistencyVector(n, p, classes, entries)


def _basis_request(h: Multigraph) -> DerivativeRequest:
    """The request at the zero kernel on `basis_tuple(h, p)`, p = |V(h)|,
    kept on h."""
    if h._request is None:
        p = h.vertex_count
        object.__setattr__(h, "_request", DerivativeRequest(
            StepKernel.zero(p), basis_tuple(h, p)))
    return h._request


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

"""Exact homomorphism densities against step kernels.

The unlabelled density of a multigraph h in a kernel f with p parts is the
average over all vertex-to-part maps of the product of cell values along the
edges, each parallel copy contributing one factor.  Labelled vertices can be
pinned to points of [0,1]; pinned vertices are not integrated.  A decorated
density carries an individual kernel on every edge copy, which is the shape
produced by differentiating densities, so the evaluator here is the single
computational core for the whole calculus.

Every density enters the core through `_evaluate`, with its kernels on one
part count and integerized (one common denominator per kernel).  The
core's plan (`_make_plan`) puts the pinned vertices first, so the factors
between them are read once, as a constant.  After them the core places one
free vertex per search level, multiplies the matrix rows its already-placed
neighbours select into one vector over parts, and descends only into
nonzero entries, so sparse kernels such as basis edges cost almost nothing.
A level's subtotal depends only on the parts of its separator, the placed
free vertices that a later factor still reads, so it is computed once per
separator assignment (recursive conditioning): stars and paths cost
O(|V| p^2), cycles O(|V| p^3), and only dense graphs such as cliques pay
for the full search.  Every free level computed (a cache miss) is a search
node, counted against `max_maps`.

The same core counts homomorphisms: hom(h, g) is the sum over vertex maps
with g's integer adjacency matrix, handed straight to the core, as the
matrix of every pair of h (see `morphisms.count_hom`), and the surjection
search takes its vertex order, labelled vertices first, from `_make_plan`.
The `max_parts` and `max_vertices` caps belong to `_evaluate`, not to the
core, which checks only `max_maps`; each refusal is built by
`Limits.exceeded`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .limits import DEFAULT_LIMITS, Limits
from .multigraph import Multigraph, glue_product
from .stepkernel import StepKernel, common_refinement, _to_fraction

Pins = Mapping[int, Fraction]


class _ArgSlot:
    """Marker for an edge that evaluates the kernel the density is applied to."""

    def __repr__(self):
        return "ARG"


ARG = _ArgSlot()

Slot = tuple[int, int, int]  # (u, v, copy index)


@dataclass(frozen=True)
class DecoratedDensity:
    """A multigraph whose edge copies carry individual kernels and whose
    labelled vertices are pinned to points."""

    graph: Multigraph
    edge_kernels: tuple[tuple[Slot, object], ...]
    pins: tuple[tuple[int, Fraction], ...] = ()

    @classmethod
    def build(cls, graph: Multigraph, edge_kernels: Mapping[Slot, object],
              pins: Pins | None = None) -> "DecoratedDensity":
        slots = [(u, v, i) for (u, v), m in graph.pairs for i in range(m)]
        missing = [s for s in slots if s not in edge_kernels]
        extra = [s for s in edge_kernels if s not in slots]
        if missing or extra:
            raise ValueError(f"edge kernels must cover each edge copy exactly "
                             f"(missing {missing}, extra {extra})")
        pin_items = tuple(sorted((int(lab), _to_fraction(x))
                                 for lab, x in (pins or {}).items()))
        label_set = {lab for lab, _ in graph.labels}
        if not {lab for lab, _ in pin_items} <= label_set:
            raise ValueError("pinned labels must be labels of the graph")
        return cls(graph, tuple(sorted(edge_kernels.items())), pin_items)


def part_of(x: Fraction, p: int) -> int:
    """1-based part containing x; points on part boundaries are rejected."""
    x = _to_fraction(x)
    if not (0 < x < 1):
        raise ValueError(f"pin {x} is outside (0, 1)")
    scaled = x * p
    if scaled.denominator == 1:
        raise ValueError(f"pin {x} sits on a part boundary at {p} parts")
    return math.ceil(scaled)


def _resolve_pins(g: Multigraph, pins: Pins, p: int) -> dict[int, int]:
    """0-based part index for every labelled vertex."""
    label_map = g.label_map
    missing = [lab for lab in label_map if lab not in pins]
    if missing:
        raise ValueError(f"pins must cover all labels; missing {missing}")
    if len(pins) > len(label_map):  # every label is pinned, so some are extra
        extra = sorted(set(pins) - set(label_map))
        raise ValueError(f"pins name labels the graph does not have: {extra}")
    return {label_map[lab]: part_of(_to_fraction(pins[lab]), p) - 1
            for lab in label_map}


def _make_plan(vertex_count: int, pairs: tuple[tuple[int, int], ...],
               pinned: tuple[int, ...]) -> tuple[tuple[int, ...],
                                                tuple[tuple, ...], tuple]:
    """The search plan of `_integrate` for factors on `pairs`: every vertex
    in order, the `pinned` ones first and in the given order; for each
    level, the (neighbour, factor index) of the factors whose other endpoint
    is placed earlier; and for each level its separator, the placed free
    vertices that a factor at this level or later still reads, or None
    where that is every placed free vertex (or there are none) and a cache
    could never hit.

    Each next free vertex touches as many placed vertices as possible, so a
    branch meets its factors, and their zeros, early.
    """
    touching: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
    for idx, (u, v) in enumerate(pairs):
        touching[u].append((v, idx))
        touching[v].append((u, idx))
    placed = set(pinned)
    order = list(pinned)
    pending = [v for v in range(vertex_count) if v not in placed]
    while pending:
        v = max(pending, key=lambda w: (
            sum(1 for x, _ in touching[w] if x in placed), -w))
        order.append(v)
        placed.add(v)
        pending.remove(v)
    position = {v: i for i, v in enumerate(order)}
    levels = [tuple((x, idx) for x, idx in touching[v] if position[x] < i)
              for i, v in enumerate(order)]
    last_read = {x: i for i, ready in enumerate(levels) for x, _ in ready}
    separators = []
    for i in range(len(order)):
        placed_free = order[len(pinned):i]
        sep = tuple(w for w in placed_free if last_read.get(w, -1) >= i)
        separators.append(sep if len(sep) < len(placed_free) else None)
    return tuple(order), tuple(levels), tuple(separators)


_plan = lru_cache(maxsize=1024)(_make_plan)


def _integrate(vertex_count: int, p: int,
               factors: list[tuple[int, int, tuple, int]],
               fixed: dict[int, int], *, limits: Limits) -> int:
    """Integer part of sum over maps tau of prod factor_matrix[tau u][tau v]^e.

    `factors` entries are (u, v, symmetric integer matrix, exponent); `fixed`
    maps a vertex to its forced part (0-based).  The plan's first levels are
    the fixed vertices: their factors, all between fixed vertices, make a
    constant prefactor.  Each later level of the search places one free
    vertex: it multiplies the rows its ready factors select into one vector
    over parts and recurses only into nonzero entries.  A level's subtotal
    depends only on the parts of its separator, so it is computed once per
    separator assignment.  Each free level computed counts as one search
    node against `limits.max_maps`; the count is checked before a level
    branches, so a search stops at most p + 1 nodes past the cap.
    """
    order, levels, separators = _plan(
        vertex_count, tuple((u, v) for u, v, _, _ in factors), tuple(fixed))
    first_free = len(fixed)

    prefactor = 1
    for ready in levels[:first_free]:
        for _, idx in ready:
            u, v, mat, e = factors[idx]
            prefactor *= mat[fixed[u]][fixed[v]] ** e
    if prefactor == 0 or first_free == vertex_count:
        return prefactor

    rows = [mat if e == 1 else tuple(tuple(x ** e for x in row) for row in mat)
            for _, _, mat, e in factors]
    assign = [0] * vertex_count
    for v, c in fixed.items():
        assign[v] = c
    caches = [None if sep is None else {} for sep in separators]
    ones = (1,) * p
    last = len(order) - 1
    cap = limits.max_maps
    nodes = 0

    def rec(i: int) -> int:
        nonlocal nodes
        sep = separators[i]
        if sep is not None:
            key = tuple([assign[w] for w in sep])
            total = caches[i].get(key)
            if total is not None:
                return total
        nodes += 1
        vec = ones
        for x, idx in levels[i]:
            row = rows[idx][assign[x]]
            vec = row if vec is ones else list(map(operator.mul, vec, row))
        if i == last:
            total = sum(vec)
        else:
            # checked where the search branches, not at the leaves, which
            # are most of the nodes
            if nodes > cap:
                raise limits.exceeded("max_maps",
                                      f"search visited {nodes} nodes")
            v = order[i]
            total = 0
            for c, weight in enumerate(vec):
                if weight:
                    assign[v] = c
                    total += weight * rec(i + 1)
        if sep is not None:
            caches[i][key] = total
        return total

    return prefactor * rec(first_free)


def _evaluate(graph: Multigraph, p: int,
              factors: list[tuple[int, int, StepKernel, int]], pins: Pins, *,
              limits: Limits) -> Fraction:
    """The one density entry into `_integrate`: the average over maps of the
    graph's vertices to p parts, with the labelled vertices pinned, of the
    product of kernel[tau u][tau v]^e over the factors (u, v, kernel, e).
    Every kernel has p parts."""
    fixed = _resolve_pins(graph, pins, p)
    n_free = graph.vertex_count - len(fixed)
    if p > limits.max_parts:
        raise limits.exceeded("max_parts", f"kernel has {p} parts")
    if n_free > limits.max_vertices:
        raise limits.exceeded("max_vertices",
                              f"{n_free} integrated vertices")
    int_factors = []
    denominator = 1
    for u, v, kernel, e in factors:
        denom, ints = kernel.integerized()
        int_factors.append((u, v, ints, e))
        denominator *= denom ** e
    numerator = _integrate(graph.vertex_count, p, int_factors, fixed,
                           limits=limits)
    return Fraction(numerator, denominator * p ** n_free)


# -- public operations ---------------------------------------------------------


def density(h: Multigraph, f: StepKernel, *,
            limits: Limits = DEFAULT_LIMITS) -> Fraction:
    """t(h, f) for an unlabelled multigraph; the empty graph has density 1."""
    if h.k:
        raise ValueError("density is for unlabelled graphs; use labelled_density")
    return labelled_density(h, f, {}, limits=limits)


def labelled_density(h: Multigraph, f: StepKernel, pins: Pins, *,
                     limits: Limits = DEFAULT_LIMITS) -> Fraction:
    """Density with the labelled vertices pinned to points; only unlabelled
    vertices are integrated."""
    return _evaluate(h, f.parts, [(u, v, f, m) for (u, v), m in h.pairs],
                     pins, limits=limits)


def eval_decorated(d: DecoratedDensity, f: StepKernel, *,
                   limits: Limits = DEFAULT_LIMITS) -> Fraction:
    """Evaluate a decorated density: ARG edges read f, concrete edges read
    their own kernel."""
    kernels = common_refinement(*(f if kernel is ARG else kernel
                                  for _, kernel in d.edge_kernels))
    factors = [(u, v, kernel, 1)
               for ((u, v, _), _), kernel in zip(d.edge_kernels, kernels)]
    return _evaluate(d.graph, kernels[0].parts if kernels else 1, factors,
                     dict(d.pins), limits=limits)


def multiplicativity_check(h1: Multigraph, h2: Multigraph, f: StepKernel, *,
                           limits: Limits = DEFAULT_LIMITS) -> bool:
    """Exact test of t(h1 ⊔ h2, f) == t(h1, f) * t(h2, f)."""
    product = glue_product(h1, h2)
    return density(product, f, limits=limits) == \
        density(h1, f, limits=limits) * density(h2, f, limits=limits)


def pins_from_json(obj: Mapping) -> dict[int, Fraction]:
    try:
        return {int(lab): Fraction(str(x)) for lab, x in obj.items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed pins object: {exc}") from exc


def pins_to_json(pins: Pins) -> dict:
    return {str(lab): str(x) for lab, x in pins.items()}

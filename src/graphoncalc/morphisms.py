"""Exact counting of node-and-edge homomorphisms between multigraphs.

A morphism H -> G is a pair (V_f, E_f): a vertex map plus an edge map that
sends each parallel copy of an H-edge to one of the parallel copies sitting
over the image pair.  Because the target may have parallel edges, E_f is not
determined by V_f; each H-copy picks one of the target copies independently.
Surjective means both maps are surjective.  Labelled graphs constrain the
vertex map to fix labels pointwise.

All counts are exact Python integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, perm

from .limits import DEFAULT_LIMITS, CapExceeded, Limits
from .multigraph import Multigraph, _adjacency


@lru_cache(maxsize=None)
def _count_surjections(c: int, m: int) -> int:
    """Number of surjective maps from a c-element set onto an m-element set."""
    return sum((-1) ** i * comb(m, i) * (m - i) ** c for i in range(m + 1))


def _pinned_vertices(h: Multigraph, g: Multigraph) -> dict[int, int]:
    if h.k != g.k:
        raise ValueError("label counts must agree (pad the smaller graph first)")
    g_label = g.label_map
    return {v: g_label[lab] for lab, v in h.labels}


def _search_order(h: Multigraph, pinned: dict[int, int]) -> list[int]:
    # Free vertices ordered so each one touches as many already-placed
    # vertices as possible; keeps the backtracking prune effective.
    adj = _adjacency(h)
    placed = set(pinned)
    order: list[int] = []
    free = [v for v in range(h.vertex_count) if v not in pinned]
    while free:
        v = max(free, key=lambda u: (sum(1 for w in adj[u] if w in placed), -u))
        order.append(v)
        placed.add(v)
        free.remove(v)
    return order


def _check_map_cap(h: Multigraph, g: Multigraph, pinned, limits: Limits):
    free = h.vertex_count - len(pinned)
    if g.vertex_count and g.vertex_count ** free > limits.max_maps:
        raise CapExceeded(
            f"vertex-map search space {g.vertex_count}^{free} exceeds the cap")


def count_hom(h: Multigraph, g: Multigraph, *,
              limits: Limits = DEFAULT_LIMITS) -> int:
    """Number of node-and-edge homomorphisms h -> g."""
    if h.edge_count and not g.pairs:
        return 0
    pinned = _pinned_vertices(h, g)
    _check_map_cap(h, g, pinned, limits)
    order = _search_order(h, pinned)
    adj_h = _adjacency(h)
    assign = dict(pinned)
    gv = range(g.vertex_count)

    placed_before: list[list[tuple[int, int]]] = []
    seen = set(pinned)
    for v in order:
        placed_before.append([(w, m) for w, m in adj_h[v].items() if w in seen])
        seen.add(v)

    pinned_factor = 1
    for (u, v), m in h.pairs:
        if u in pinned and v in pinned:
            pinned_factor *= g.multiplicity(assign[u], assign[v]) ** m
    if pinned_factor == 0:
        return 0

    def rec(i: int) -> int:
        if i == len(order):
            return 1
        v = order[i]
        total = 0
        for c in gv:
            f = 1
            for w, m in placed_before[i]:
                mult = g.multiplicity(c, assign[w])
                if mult == 0:
                    f = 0
                    break
                f *= mult ** m
            if f:
                assign[v] = c
                total += f * rec(i + 1)
        return total

    if h.vertex_count == 0:
        return 1
    if g.vertex_count == 0:
        return 0
    # Pinned-only edge factors were separated above; edges with one pinned
    # endpoint are picked up by placed_before since pinned vertices are seen.
    return pinned_factor * rec(0)


def _surjective_vertex_map_sum(h: Multigraph, g: Multigraph, leaf_weight, *,
                               limits: Limits) -> int:
    """Sum leaf_weight(assign) over vertex maps h -> g that are surjective and
    send every h-edge onto a g-pair that carries at least one edge."""
    pinned = _pinned_vertices(h, g)
    _check_map_cap(h, g, pinned, limits)
    if g.vertex_count == 0:
        return leaf_weight({}) if h.vertex_count == 0 else 0
    order = _search_order(h, pinned)
    adj_h = _adjacency(h)
    assign = dict(pinned)
    coverage = [0] * g.vertex_count
    for c in pinned.values():
        coverage[c] += 1
    uncovered = g.vertex_count - sum(1 for c in coverage if c)

    placed_before: list[list[int]] = []
    seen = set(pinned)
    for v in order:
        placed_before.append([w for w in adj_h[v] if w in seen])
        seen.add(v)

    for (u, v), _ in h.pairs:
        if u in pinned and v in pinned and g.multiplicity(assign[u], assign[v]) == 0:
            return 0

    total = 0

    def rec(i: int, uncovered: int):
        nonlocal total
        remaining = len(order) - i
        if uncovered > remaining:
            return
        if i == len(order):
            total += leaf_weight(assign)
            return
        v = order[i]
        for c in range(g.vertex_count):
            ok = True
            for w in placed_before[i]:
                if g.multiplicity(c, assign[w]) == 0:
                    ok = False
                    break
            if not ok:
                continue
            assign[v] = c
            fresh = coverage[c] == 0
            coverage[c] += 1
            rec(i + 1, uncovered - fresh)
            coverage[c] -= 1
            del assign[v]
        return

    rec(0, uncovered)
    return total


def _edge_surjection_count(h: Multigraph, g: Multigraph, assign) -> int:
    load: dict[tuple[int, int], int] = {}
    for (u, v), m in h.pairs:
        a, b = assign[u], assign[v]
        key = (a, b) if a < b else (b, a)
        load[key] = load.get(key, 0) + m
    count = 1
    for pair, m in g.pairs:
        count *= _count_surjections(load.get(pair, 0), m)
        if count == 0:
            return 0
    return count


def count_surj(h: Multigraph, g: Multigraph, *,
               limits: Limits = DEFAULT_LIMITS) -> int:
    """Number of morphisms h -> g with both the vertex and edge map surjective."""
    if h.edge_count < g.edge_count:
        return 0

    def leaf(assign) -> int:
        return _edge_surjection_count(h, g, assign)

    return _surjective_vertex_map_sum(h, g, leaf, limits=limits)


def count_aut(h: Multigraph, *, limits: Limits = DEFAULT_LIMITS) -> int:
    """Order of the automorphism group (label-preserving for labelled h)."""
    return count_surj(h, h, limits=limits)


def surjection_weight_sum(h: Multigraph, g: Multigraph, k: int, *,
                          limits: Limits = DEFAULT_LIMITS) -> int:
    """Sum over surjections psi: h ->> g of prod_v (k)_(|psi^-1(v)|).

    The weight is the falling factorial of k at the vertex-fiber size; it
    depends on the vertex map only, so edge maps contribute a plain count.
    """

    def leaf(assign) -> int:
        edge_ways = _edge_surjection_count(h, g, assign)
        if edge_ways == 0:
            return 0
        fiber = [0] * g.vertex_count
        for c in assign.values():
            fiber[c] += 1
        weight = 1
        for size in fiber:
            weight *= perm(k, size)
            if weight == 0:
                return 0
        return edge_ways * weight

    return _surjective_vertex_map_sum(h, g, leaf, limits=limits)


def t_combinatorial(h: Multigraph, g: Multigraph, *,
                    limits: Limits = DEFAULT_LIMITS) -> Fraction:
    """hom(h, g) normalized by |V(g)|^|V(h)|, as an exact rational."""
    if g.vertex_count == 0:
        raise ValueError("target graph must have at least one vertex")
    return Fraction(count_hom(h, g, limits=limits),
                    g.vertex_count ** h.vertex_count)

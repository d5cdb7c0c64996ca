"""Exact counting of node-and-edge homomorphisms between multigraphs.

A morphism H -> G is a pair (V_f, E_f): a vertex map plus an edge map that
sends each parallel copy of an H-edge to one of the parallel copies sitting
over the image pair.  Because the target may have parallel edges, E_f is not
determined by V_f; each H-copy picks one of the target copies independently.
Surjective means both maps are surjective.  Labelled graphs constrain the
vertex map to fix labels pointwise.

hom(h, g) is computed by the density core (`density._integrate`) on g's
adjacency matrix; surjection counts run a pruned search of their own over
vertex maps, in the density core's vertex order.  Both count search nodes
against `max_maps`.  All counts are exact Python integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, perm

from .density import _cap_exceeded, _integrate, _make_plan
from .limits import DEFAULT_LIMITS, Limits
from .multigraph import Multigraph


@lru_cache(maxsize=None)
def _count_surjections(c: int, m: int) -> int:
    """Number of surjective maps from a c-element set onto an m-element set."""
    return sum((-1) ** i * comb(m, i) * (m - i) ** c for i in range(m + 1))


def _pinned_vertices(h: Multigraph, g: Multigraph) -> dict[int, int]:
    if h.k != g.k:
        raise ValueError("label counts must agree (pad the smaller graph first)")
    g_label = g.label_map
    return {v: g_label[lab] for lab, v in h.labels}


@lru_cache(maxsize=1024)
def _search_plan(h: Multigraph) -> tuple[tuple[int, ...], tuple[tuple, ...],
                                         tuple[int, ...]]:
    """The free vertices in search order; for each, its h-edges (neighbour,
    multiplicity) to the vertices placed before it; and for each step i, the
    h-edge mass placed at steps i, i+1, ... (one more entry, 0, at the end).

    The order is the density core's plan for the distinct pairs of h with
    the labelled vertices pinned (placed first).
    """
    order, levels, _, _ = _make_plan(h.vertex_count,
                                     tuple(pair for pair, _ in h.pairs),
                                     frozenset(h.labelled_vertices()))
    back = tuple(tuple((w, h.pairs[idx][1]) for w, idx in ready)
                 for ready in levels)
    mass = [sum(m for _, m in edges) for edges in back]
    return order, back, tuple(accumulate(reversed(mass), initial=0))[::-1]


def _matrix(g: Multigraph) -> list[list[int]]:
    """Integer adjacency matrix: entry [a][b] is the a-b edge multiplicity."""
    mat = [[0] * g.vertex_count for _ in range(g.vertex_count)]
    for (u, v), m in g.pairs:
        mat[u][v] = mat[v][u] = m
    return mat


def count_hom(h: Multigraph, g: Multigraph, *,
              limits: Limits = DEFAULT_LIMITS) -> int:
    """Number of node-and-edge homomorphisms h -> g.

    This is the density core's sum over vertex maps with g's adjacency
    matrix on every pair of h (each parallel h-copy picks a g-copy) and h's
    labelled vertices pinned to g's.  Only `max_maps` applies.
    """
    mat = _matrix(g)
    return _integrate(h.vertex_count, g.vertex_count,
                      [(u, v, mat, m) for (u, v), m in h.pairs],
                      _pinned_vertices(h, g), limits=limits)


def _surjective_vertex_map_sum(h: Multigraph, g: Multigraph, k: int | None, *,
                               limits: Limits) -> int:
    """Sum over surjections psi: h ->> g of the number of edge maps, times
    prod_v (k)_(|psi^-1(v)|) when k is given.

    All the pruning lives here, so every caller gets it.  Before the search:
    h needs at least as many vertices, distinct pairs and edges as g.
    During it, a branch is cut when the g-vertices not yet covered outnumber
    the h-vertices left, or when the g-edge mass not yet covered exceeds the
    h-edge mass left to place.  With k given, a fiber larger than k has
    weight 0, so no branch grows one.
    """
    pinned = _pinned_vertices(h, g)
    nv = g.vertex_count
    if (h.vertex_count < nv or len(h.pairs) < len(g.pairs)
            or h.edge_count < g.edge_count):
        return 0
    if nv == 0:
        return 1 if h.vertex_count == 0 else 0
    mult = _matrix(g)
    load = [[0] * nv for _ in range(nv)]
    coverage = [0] * nv
    assign = [0] * h.vertex_count
    for v, c in pinned.items():
        assign[v] = c
        coverage[c] += 1
    for (u, v), m in h.pairs:
        if u in pinned and v in pinned:
            a, b = pinned[u], pinned[v]
            if mult[a][b] == 0:
                return 0
            load[a][b] += m
            load[b][a] += m
    order, back, rest = _search_plan(h)
    depth = len(order)
    uncovered = sum(1 for size in coverage if size == 0)
    missing = sum(max(0, m - load[a][b]) for (a, b), m in g.pairs)
    if uncovered > depth or missing > rest[0]:
        return 0
    fiber_cap = h.vertex_count if k is None else k
    cap = limits.max_maps
    nodes = 0
    total = 0

    def rec(i: int, uncovered: int, missing: int):
        nonlocal nodes, total
        nodes += 1
        if nodes > cap:
            raise _cap_exceeded(nodes, limits)
        if i == depth:
            ways = 1
            for (a, b), m in g.pairs:
                ways *= _count_surjections(load[a][b], m)
            if k is not None:
                for size in coverage:
                    ways *= perm(k, size)
            total += ways
            return
        v = order[i]
        edges = back[i]
        free_after = depth - i - 1
        mass_after = rest[i + 1]
        for c in range(nv):
            fresh = coverage[c] == 0
            if uncovered - fresh > free_after or coverage[c] == fiber_cap:
                continue
            row = mult[c]
            for w, _ in edges:
                if not row[assign[w]]:
                    break
            else:
                lrow = load[c]
                gained = 0
                for w, m in edges:
                    d = assign[w]
                    short = row[d] - lrow[d]
                    if short > 0:
                        gained += m if m < short else short
                    lrow[d] += m
                    load[d][c] += m
                if missing - gained <= mass_after:
                    assign[v] = c
                    coverage[c] += 1
                    rec(i + 1, uncovered - fresh, missing - gained)
                    coverage[c] -= 1
                for w, m in edges:
                    d = assign[w]
                    lrow[d] -= m
                    load[d][c] -= m

    rec(0, uncovered, missing)
    return total


def count_surj(h: Multigraph, g: Multigraph, *,
               limits: Limits = DEFAULT_LIMITS) -> int:
    """Number of morphisms h -> g with both the vertex and edge map surjective."""
    return _surjective_vertex_map_sum(h, g, None, limits=limits)


def count_aut(h: Multigraph, *, limits: Limits = DEFAULT_LIMITS) -> int:
    """Order of the automorphism group (label-preserving for labelled h)."""
    return count_surj(h, h, limits=limits)


def surjection_weight_sum(h: Multigraph, g: Multigraph, k: int, *,
                          limits: Limits = DEFAULT_LIMITS) -> int:
    """Sum over surjections psi: h ->> g of prod_v (k)_(|psi^-1(v)|).

    The weight is the falling factorial of k at the vertex-fiber size; it
    depends on the vertex map only, so edge maps contribute a plain count.
    """
    return _surjective_vertex_map_sum(h, g, k, limits=limits)


def t_combinatorial(h: Multigraph, g: Multigraph, *,
                    limits: Limits = DEFAULT_LIMITS) -> Fraction:
    """hom(h, g) normalized by |V(g)|^|V(h)|, as an exact rational."""
    if g.vertex_count == 0:
        raise ValueError("target graph must have at least one vertex")
    return Fraction(count_hom(h, g, limits=limits),
                    g.vertex_count ** h.vertex_count)

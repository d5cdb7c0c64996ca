"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: full permutation scans, explicit
enumeration of vertex and edge maps, exhaustive subset searches, and the
library's earlier implementations, kept as references for the code that
replaced them (the plain backtracking homomorphism and surjection
searches, the twin-folding surjection search without its memo, the
surjection-search plan with its cut steps derived from each step's reach,
the dense Gaussian elimination, the class listing that extends every class
by every edge, the plain backtracking density core, the derivative
summed over every slot assignment and `keyed_orbits`, the derivative orbit
table found by one `canonical_key` per labelling).  None of it shares code
with the production implementations, except that the fixed-vertex-count
enumeration and the augment-everything class listing dedup and order by
`canonical_key`, that `keyed_orbits` lists its labellings with
`calculus._labellings`, that `twin_fold_surjection_sum` and `reach_source_plan`
take their vertex order from `density._make_plan` and their twin classes
from `multigraph._twin_classes`, that `recomputing_verify_structure`, the
structure check by independent routes, reads the library's scale matrices
and derivatives, and that `permutation_gateaux` evaluates each assignment
with the library's `density._evaluate`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, perm, prod

from graphoncalc import (DEFAULT_LIMITS, Multigraph, QuantumGraph, StepKernel,
                         canonical_key, consistency, count_surj, enumerate_Hn,
                         enumerate_Hnp, graph_signature, linalg, strip_isolated,
                         surjection_total_order)
from graphoncalc.calculus import _labellings
from graphoncalc.consistency import StructureCheck, StructureReport
from graphoncalc.density import _evaluate, _make_plan
from graphoncalc.multigraph import _adjacency, _twin_classes
from graphoncalc.series import eval_quantum
from graphoncalc.stepkernel import common_refinement


def _encoding(g: Multigraph, perm) -> tuple:
    """The encoding of g with vertex v moved to position perm[v]: vertex
    count, labels by position, and the upper triangle of multiplicities."""
    n = g.vertex_count
    mult = [[0] * n for _ in range(n)]
    for (u, v), m in g.pairs:
        mult[perm[u]][perm[v]] = m
        mult[perm[v]][perm[u]] = m
    flat = tuple(mult[i][j] for i in range(n) for j in range(i + 1, n))
    labs = [0] * n
    for lab, v in g.labels:
        labs[perm[v]] = lab
    return (n, tuple(labs), flat)


def brute_canonical_key(g: Multigraph) -> tuple:
    """Minimum encoding over all vertex permutations (labels at positions)."""
    return min(_encoding(g, perm)
               for perm in itertools.permutations(range(g.vertex_count)))


def brute_enumerate_Hn(n: int) -> set[tuple]:
    """Brute keys of all classes with n edges and no isolated vertices:
    every loop-free edge multiset on at most 2n vertices.  A new class's
    whole orbit of encodings is marked seen, so each class pays for one
    scan of all vertex permutations and its key is the orbit's minimum."""
    if n == 0:
        return {brute_canonical_key(Multigraph(0))}
    found: set[tuple] = set()
    for nv in range(1, 2 * n + 1):
        pairs = list(itertools.combinations(range(nv), 2))
        identity = range(nv)
        seen: set[tuple] = set()
        for combo in itertools.combinations_with_replacement(pairs, n):
            g = Multigraph(nv, combo)
            if (any(g.degree(v) == 0 for v in range(nv))
                    or _encoding(g, identity) in seen):
                continue
            orbit = {_encoding(g, perm)
                     for perm in itertools.permutations(range(nv))}
            seen |= orbit
            found.add(min(orbit))
    return found


def brute_enumerate_Hnp(n: int, p: int) -> tuple[Multigraph, ...]:
    """Classes with n edges on exactly p vertices, in canonical-key order:
    every multiset of n pairs out of C(p, 2), deduplicated by the library's
    `canonical_key` (itself checked against `brute_canonical_key`)."""
    pairs = list(itertools.combinations(range(p), 2))
    found: dict[bytes, Multigraph] = {}
    for combo in itertools.combinations_with_replacement(pairs, n):
        g = Multigraph(p, combo)
        found.setdefault(canonical_key(g), g)
    return tuple(g for _, g in sorted(found.items()))


@lru_cache(maxsize=None)
def augmenting_enumerate_Hn(n: int, k: int = 0) -> tuple[Multigraph, ...]:
    """The library's earlier class listing: every one-edge extension of every
    (n-1)-edge class (a pair of existing vertices, a pendant edge at each
    vertex, the isolated edge), deduplicated and ordered by `canonical_key`."""
    if n == 0:
        return (Multigraph(k, (), {lab: lab - 1 for lab in range(1, k + 1)}),)
    found: dict[bytes, Multigraph] = {}
    for h in augmenting_enumerate_Hn(n - 1, k):
        nv = h.vertex_count
        edges = [(a, b, m) for (a, b), m in h.pairs]
        added = [(u, v, nv) for u, v in itertools.combinations(range(nv), 2)]
        added += [(u, nv, nv + 1) for u in range(nv)]
        added.append((nv, nv + 1, nv + 2))
        for u, v, vertex_count in added:
            g = Multigraph(vertex_count, [*edges, (u, v, 1)], h.label_map)
            found.setdefault(canonical_key(g), g)
    return tuple(g for _, g in sorted(found.items()))


def _g_slots(g: Multigraph) -> list[tuple[int, int]]:
    return g.edge_slots()


def brute_hom(h: Multigraph, g: Multigraph) -> int:
    """Explicit enumeration of compatible (vertex map, edge map) pairs."""
    if h.k != g.k:
        raise ValueError("label counts must match")
    g_label = g.label_map
    pinned = {v: g_label[lab] for lab, v in h.labels}
    h_slots = _g_slots(h)
    g_slots = _g_slots(g)
    count = 0
    free = [v for v in range(h.vertex_count) if v not in pinned]
    for images in itertools.product(range(g.vertex_count), repeat=len(free)):
        vmap = dict(pinned)
        vmap.update(zip(free, images))
        for emap in itertools.product(range(len(g_slots)), repeat=len(h_slots)):
            ok = True
            for slot_idx, (u, v) in enumerate(h_slots):
                a, b = g_slots[emap[slot_idx]]
                if {vmap[u], vmap[v]} != {a, b}:
                    ok = False
                    break
            if ok:
                count += 1
    return count


def backtrack_hom(h: Multigraph, g: Multigraph) -> int:
    """Homomorphism count by plain backtracking over vertex maps: labelled
    vertices are pinned, the rest are placed in a connectivity-first order,
    and each h-pair multiplies in its g-multiplicity to the power of its
    own, so a branch dies on the first h-pair over a g-pair without edges.
    No caps and no caching."""
    if h.k != g.k:
        raise ValueError("label counts must match")
    g_label = g.label_map
    pinned = {v: g_label[lab] for lab, v in h.labels}
    mult = [[0] * g.vertex_count for _ in range(g.vertex_count)]
    for (a, b), m in g.pairs:
        mult[a][b] = mult[b][a] = m
    adj: dict[int, dict[int, int]] = {v: {} for v in range(h.vertex_count)}
    for (u, v), m in h.pairs:
        adj[u][v] = adj[v][u] = m
    prefactor = 1
    for (u, v), m in h.pairs:
        if u in pinned and v in pinned:
            prefactor *= mult[pinned[u]][pinned[v]] ** m
    placed = set(pinned)
    order: list[int] = []
    back: list[list[tuple[int, int]]] = []
    free = [v for v in range(h.vertex_count) if v not in pinned]
    while free:
        v = max(free, key=lambda u: (sum(1 for w in adj[u] if w in placed), -u))
        order.append(v)
        back.append([(w, m) for w, m in adj[v].items() if w in placed])
        placed.add(v)
        free.remove(v)
    assign = dict(pinned)

    def rec(i: int) -> int:
        if i == len(order):
            return 1
        total = 0
        for c in range(g.vertex_count):
            f = 1
            for w, m in back[i]:
                f *= mult[c][assign[w]] ** m
                if not f:
                    break
            if f:
                assign[order[i]] = c
                total += f * rec(i + 1)
        return total

    return prefactor * rec(0) if prefactor else 0


def brute_surj(h: Multigraph, g: Multigraph) -> int:
    if h.k != g.k:
        raise ValueError("label counts must match")
    g_label = g.label_map
    pinned = {v: g_label[lab] for lab, v in h.labels}
    h_slots = _g_slots(h)
    g_slots = _g_slots(g)
    count = 0
    free = [v for v in range(h.vertex_count) if v not in pinned]
    for images in itertools.product(range(g.vertex_count), repeat=len(free)):
        vmap = dict(pinned)
        vmap.update(zip(free, images))
        if set(vmap.values()) != set(range(g.vertex_count)):
            continue
        for emap in itertools.product(range(len(g_slots)), repeat=len(h_slots)):
            if set(emap) != set(range(len(g_slots))):
                continue
            ok = True
            for slot_idx, (u, v) in enumerate(h_slots):
                a, b = g_slots[emap[slot_idx]]
                if {vmap[u], vmap[v]} != {a, b}:
                    ok = False
                    break
            if ok:
                count += 1
    return count


def inclusion_exclusion_surj(h: Multigraph, g: Multigraph) -> int:
    """Surjection count via inclusion-exclusion over vertex subsets and
    per-pair sub-multiplicities of the target.

    Vertex subsets that cut an edge contribute nothing: summing over the
    subsets of the severed slots telescopes to zero, so only subsets
    containing every edge endpoint survive (dropping isolated vertices is
    the genuine vertex-side inclusion-exclusion).
    """
    if h.k != g.k:
        raise ValueError("label counts must match")
    g_label = g.label_map
    pinned = {v: g_label[lab] for lab, v in h.labels}
    nv = g.vertex_count
    total = 0
    for size in range(nv + 1):
        for subset in itertools.combinations(range(nv), size):
            s = set(subset)
            if any(c not in s for c in pinned.values()):
                continue
            if any(pair[0] not in s or pair[1] not in s for pair, _ in g.pairs):
                continue
            ranges = [range(m + 1) for _, m in g.pairs]
            for chosen in itertools.product(*ranges):
                mult = {pair: t for (pair, _), t in zip(g.pairs, chosen)}
                sign = (-1) ** ((nv - size)
                                + sum(m - t for (_, m), t
                                      in zip(g.pairs, chosen)))
                weight = 1
                for (_, m), t in zip(g.pairs, chosen):
                    weight *= comb(m, t)
                hom = 0
                free = [v for v in range(h.vertex_count) if v not in pinned]
                for images in itertools.product(sorted(s), repeat=len(free)):
                    vmap = dict(pinned)
                    vmap.update(zip(free, images))
                    prod = 1
                    for (u, v), m in h.pairs:
                        a, b = vmap[u], vmap[v]
                        key = (a, b) if a < b else (b, a)
                        prod *= mult.get(key, 0) ** m
                        if prod == 0:
                            break
                    hom += prod
                total += sign * weight * hom
    return total


@lru_cache(maxsize=None)
def _surjection_count(c: int, m: int) -> int:
    """Number of surjective maps from a c-element set onto an m-element set."""
    return sum((-1) ** i * comb(m, i) * (m - i) ** c for i in range(m + 1))


def _backtrack_surjections(h: Multigraph, g: Multigraph, leaf_weight) -> int:
    """Sum leaf_weight(assign) over vertex maps h -> g that are surjective and
    send every h-edge onto a g-pair that carries at least one edge: plain
    backtracking with only the edge-support and vertex-coverage prunes."""
    if h.k != g.k:
        raise ValueError("label counts must match")
    g_label = g.label_map
    pinned = {v: g_label[lab] for lab, v in h.labels}
    if g.vertex_count == 0:
        return leaf_weight({}) if h.vertex_count == 0 else 0
    adj: dict[int, set[int]] = {v: set() for v in range(h.vertex_count)}
    for (u, v), _ in h.pairs:
        adj[u].add(v)
        adj[v].add(u)
    linked: list[set[int]] = [set() for _ in range(g.vertex_count)]
    for (a, b), _ in g.pairs:
        linked[a].add(b)
        linked[b].add(a)
    placed = set(pinned)
    order: list[int] = []
    free = [v for v in range(h.vertex_count) if v not in pinned]
    while free:
        v = max(free, key=lambda u: (sum(1 for w in adj[u] if w in placed), -u))
        order.append(v)
        placed.add(v)
        free.remove(v)
    assign = dict(pinned)
    coverage = [0] * g.vertex_count
    for c in pinned.values():
        coverage[c] += 1

    placed_before: list[list[int]] = []
    seen = set(pinned)
    for v in order:
        placed_before.append([w for w in adj[v] if w in seen])
        seen.add(v)

    for (u, v), _ in h.pairs:
        if u in pinned and v in pinned and g.multiplicity(assign[u], assign[v]) == 0:
            return 0

    total = 0
    depth = len(order)

    def rec(i: int, uncovered: int):
        nonlocal total
        if i == depth:
            total += leaf_weight(assign)
            return
        v = order[i]
        before = placed_before[i]
        left = depth - i - 1
        for c in range(g.vertex_count):
            fresh = coverage[c] == 0
            if uncovered - fresh > left or any(assign[w] not in linked[c]
                                               for w in before):
                continue
            assign[v] = c
            coverage[c] += 1
            rec(i + 1, uncovered - fresh)
            coverage[c] -= 1
            del assign[v]

    uncovered = g.vertex_count - sum(1 for c in coverage if c)
    if uncovered <= depth:
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
        count *= _surjection_count(load.get(pair, 0), m)
    return count


def backtrack_surj(h: Multigraph, g: Multigraph) -> int:
    """Surjective morphism count by the plain backtracking search."""
    return _backtrack_surjections(
        h, g, lambda assign: _edge_surjection_count(h, g, assign))


def backtrack_surjection_weight_sum(h: Multigraph, g: Multigraph, k: int) -> int:
    """Sum over surjections of prod_v (k)_(|fiber of v|), by the plain
    backtracking search."""

    def leaf(assign) -> int:
        fiber = [0] * g.vertex_count
        for c in assign.values():
            fiber[c] += 1
        weight = 1
        for size in fiber:
            weight *= perm(k, size)
        return _edge_surjection_count(h, g, assign) * weight

    return _backtrack_surjections(h, g, leaf)


def twin_fold_surjection_sum(h: Multigraph, g: Multigraph,
                             k: int | None = None) -> int:
    """The library's surjection search before it memoized subtotals: the
    same order, cuts and twin fold, with every weight applied at the leaf
    (edge maps, prod_v (k)_(|fiber of v|) when k is given, and each twin
    class's t!/prod r!), no memo and no cap.  Of the tests that refuse a
    pair before the search it keeps only the vertex and edge counts, so the
    search alone must find the zeros the degree tests find."""
    if h.k != g.k:
        raise ValueError("label counts must match")
    nv = g.vertex_count
    spare = 2 * (h.edge_count - g.edge_count)
    if spare < 0 or h.vertex_count < nv:
        return 0
    if nv == 0:
        return 1
    mult = [[0] * nv for _ in range(nv)]
    for (a, b), m in g.pairs:
        mult[a][b] = mult[b][a] = m
    order, back, rest, h_degree, twin, twin_classes = _twin_fold_plan(h)
    load = [[0] * nv for _ in range(nv)]
    coverage = [0] * nv
    room = [sum(row) for row in mult]
    assign = [0] * h.vertex_count
    depth = len(order)
    choices = [(c,) for _, c in g.labels] + [range(nv)] * (depth - g.k)
    fiber_cap = h.vertex_count if k is None else k
    total = 0

    def rec(i: int, uncovered: int, missing: int, spare: int):
        nonlocal total
        if i == depth:
            ways = 1
            for (a, b), m in g.pairs:
                ways *= _surjection_count(load[a][b], m)
            if k is not None:
                for size in coverage:
                    ways *= perm(k, size)
            for members in twin_classes:
                run = 1
                for s in range(1, len(members)):
                    same = assign[members[s]] == assign[members[s - 1]]
                    run = run + 1 if same else 1
                    ways = ways * (s + 1) // run
            total += ways
            return
        v = order[i]
        dv = h_degree[v]
        t = twin[i]
        for c in choices[i] if t < 0 else range(assign[t], nv):
            fresh = coverage[c] == 0
            if uncovered - fresh > depth - i - 1 or coverage[c] == fiber_cap:
                continue
            r = room[c]
            over = dv - r if dv > r else 0
            if over > spare or any(not mult[c][assign[w]] for w, _ in back[i]):
                continue
            gained = 0
            for w, m in back[i]:
                d = assign[w]
                short = mult[c][d] - load[c][d]
                if short > 0:
                    gained += min(m, short)
                load[c][d] += m
                load[d][c] += m
            if missing - gained <= rest[i + 1]:
                assign[v] = c
                coverage[c] += 1
                room[c] = r - dv + over
                rec(i + 1, uncovered - fresh, missing - gained, spare - over)
                room[c] = r
                coverage[c] -= 1
            for w, m in back[i]:
                d = assign[w]
                load[c][d] -= m
                load[d][c] -= m

    rec(0, nv, g.edge_count, spare)
    return total


@lru_cache(maxsize=1024)
def _twin_fold_plan(h: Multigraph):
    """The search order of h, per step its back edges and the edge mass
    from that step on, the degrees, each step's previous twin (or -1) and
    the twin classes of two or more, for `twin_fold_surjection_sum`."""
    h_degree = [0] * h.vertex_count
    for (u, v), m in h.pairs:
        h_degree[u] += m
        h_degree[v] += m
    order, levels, _ = _make_plan(h.vertex_count,
                                  tuple(pair for pair, _ in h.pairs),
                                  tuple(v for _, v in h.labels))
    back = [[(w, h.pairs[idx][1]) for w, idx in ready] for ready in levels]
    rest = list(itertools.accumulate(
        reversed([sum(m for _, m in edges) for edges in back]),
        initial=0))[::-1]
    classes = _twin_classes(_adjacency(h), order[h.k:])
    previous = {v: u for c in classes for u, v in zip(c, c[1:])}
    return (order, back, rest, h_degree, [previous.get(v, -1) for v in order],
            [c for c in classes if len(c) > 1])


def reach_source_plan(g: Multigraph) -> tuple:
    """The library's surjection-search plan of g as a source, as it was
    built before the cut steps were read off the density plan's
    separators: (order, back edges, edge mass from each step on, degrees,
    previous twins, the twin class each step completes, cut steps).

    Each step's reach is the last step that reads its vertex, as a back
    edge or, for the first member of a twin class, as the class's last
    member; a cut step comes after the labelled vertices and before the
    last step, past the reach of every free step before it."""
    degree = [0] * g.vertex_count
    for (u, v), m in g.pairs:
        degree[u] += m
        degree[v] += m
    order, levels, _ = _make_plan(g.vertex_count,
                                  tuple(pair for pair, _ in g.pairs),
                                  tuple(v for _, v in g.labels))
    back = tuple(tuple((w, g.pairs[idx][1]) for w, idx in ready)
                 for ready in levels)
    rest = tuple(itertools.accumulate(
        reversed([sum(m for _, m in edges) for edges in back]),
        initial=0))[::-1]
    classes = _twin_classes(_adjacency(g), order[g.k:])
    previous = {v: u for c in classes for u, v in zip(c, c[1:])}
    step = {v: i for i, v in enumerate(order)}
    reach = list(range(len(order)))
    for j, edges in enumerate(back):
        for w, _ in edges:
            reach[step[w]] = j
    closes = [()] * len(order)
    for c in classes:
        reach[step[c[0]]] = max(reach[step[c[0]]], step[c[-1]])
        if len(c) > 1:
            closes[step[c[-1]]] = tuple(c)
    furthest = tuple(itertools.accumulate(reach[g.k:], max, initial=g.k))
    cut = tuple(g.k < i < len(order) and furthest[i - g.k] < i
                for i in range(len(order) + 1))
    return (tuple(order), back, rest, tuple(degree[v] for v in order),
            tuple(previous.get(v, -1) for v in order), tuple(closes), cut)


def classical_simple_hom(h: Multigraph, g: Multigraph) -> int:
    """Adjacency-only homomorphism count; valid when g is simple."""
    assert g.is_simple() and not h.k and not g.k
    adj = {(u, v) for (u, v), _ in g.pairs} | {(v, u) for (u, v), _ in g.pairs}
    count = 0
    for images in itertools.product(range(g.vertex_count),
                                    repeat=h.vertex_count):
        if all((images[u], images[v]) in adj for (u, v), _ in h.pairs):
            count += 1
    return count


def _fraction_rows(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def gauss_determinant(rows) -> Fraction:
    """Dense Gaussian elimination with the first nonzero pivot."""
    m = _fraction_rows(rows)
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def gauss_solve(rows, rhs) -> list[Fraction]:
    """Dense Gaussian elimination and back substitution; raises ValueError
    when the matrix is singular."""
    m = _fraction_rows(rows)
    n = len(m)
    b = [Fraction(x) for x in rhs]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            b[col], b[pivot] = b[pivot], b[col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
            b[r] -= factor * b[col]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc -= m[r][c] * x[c]
        x[r] = acc / m[r][r]
    return x


def gauss_rank(rows) -> int:
    """Dense Gaussian elimination over the columns, counting pivots."""
    m = _fraction_rows(rows)
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        for i in range(r + 1, n_rows):
            if m[i][col] == 0:
                continue
            factor = m[i][col] * inv
            for c in range(col, n_cols):
                m[i][c] -= factor * m[r][c]
        r += 1
        if r == n_rows:
            break
    return r


def backtrack_integrate(vertex_count: int, p: int,
                        factors: list[tuple[int, int, tuple, int]],
                        fixed: dict[int, int]) -> int:
    """Integer part of sum over maps tau of prod factor_matrix[tau u][tau v]^e.

    `factors` entries are (u, v, integer matrix, exponent); `fixed` maps a
    vertex to its forced part (0-based).  Vertices are placed in a
    connectivity-first order and a branch dies as soon as a factor hits zero.
    This is the plain backtracking density core without caps or caching.
    """
    free = [v for v in range(vertex_count) if v not in fixed]

    touching: dict[int, list[int]] = {v: [] for v in range(vertex_count)}
    for idx, (u, v, _, _) in enumerate(factors):
        touching[u].append(idx)
        touching[v].append(idx)

    placed = set(fixed)
    order: list[int] = []
    pending = list(free)
    while pending:
        best = max(pending, key=lambda w: (
            sum(1 for idx in touching[w]
                if (factors[idx][0] if factors[idx][1] == w else factors[idx][1])
                in placed), -w))
        order.append(best)
        placed.add(best)
        pending.remove(best)

    assign = dict(fixed)
    prefactor = 1
    ready: list[list[tuple[int, tuple, int]]] = []
    seen = set(fixed)
    consumed = set()
    for v in order:
        here = []
        for idx in touching[v]:
            if idx in consumed:
                continue
            u, w, mat, e = factors[idx]
            other = u if w == v else w
            if other in seen:
                here.append((other, mat, e))
                consumed.add(idx)
        ready.append(here)
        seen.add(v)
    for idx, (u, v, mat, e) in enumerate(factors):
        if idx not in consumed:  # both endpoints fixed
            prefactor *= mat[assign[u]][assign[v]] ** e
    if prefactor == 0:
        return 0

    n_free = len(order)

    def rec(i: int, partial: int) -> int:
        if i == n_free:
            return partial
        v = order[i]
        total = 0
        for c in range(p):
            prod = partial
            for other, mat, e in ready[i]:
                val = mat[c][assign[other]]
                if val == 0:
                    prod = 0
                    break
                prod *= val ** e
            if prod:
                assign[v] = c
                total += rec(i + 1, prod)
        return total

    return prefactor * rec(0, 1)


def backtrack_density(vertex_count: int, p: int,
                      factors: list[tuple[int, int, StepKernel, int]],
                      fixed: dict[int, int]) -> Fraction:
    """Density of the factors (u, v, p-part kernel, exponent) with the
    `fixed` vertices pinned to 0-based parts, by `backtrack_integrate` over
    integer matrices (one common denominator per kernel)."""
    int_factors = []
    denominator = 1
    for u, v, f, e in factors:
        denom = lcm(*(x.denominator for row in f.matrix for x in row))
        ints = tuple(tuple(x.numerator * (denom // x.denominator) for x in row)
                     for row in f.matrix)
        int_factors.append((u, v, ints, e))
        denominator *= denom ** e
    numerator = backtrack_integrate(vertex_count, p, int_factors, fixed)
    return Fraction(numerator, denominator * p ** (vertex_count - len(fixed)))


def permutation_gateaux(F: QuantumGraph, request, *,
                        limits=DEFAULT_LIMITS) -> Fraction:
    """`calculus.gateaux_exact` as it was before it summed over orbits: one
    `density._evaluate` per injective map of the directions to the edge
    copies of each term, every other copy reading the base."""
    m = request.order
    if m == 0:
        return eval_quantum(F, request.base, limits=limits)
    refined = common_refinement(request.base, *request.directions)
    base, dirs = refined[0], refined[1:]
    total = Fraction(0)
    for H, coeff in F.terms():
        slots = H.edge_slots()
        for chosen in itertools.permutations(range(len(slots)), m):
            factors = [(u, v, base, 1) for u, v in slots]
            for pos, direction in zip(chosen, dirs):
                factors[pos] = (*slots[pos], direction, 1)
            total += coeff * _evaluate(H, base.parts, factors, {},
                                       limits=limits)
    return total


def brute_orbit_count(H: Multigraph, counts) -> int:
    """The number of orbits of the labellings of `calculus._orbits` (per
    pair of H, how many directions of each class sit on it, at most the
    pair's multiplicity in all) under the vertex permutations that fix H,
    found by scanning all |V|! permutations."""
    pairs = [pair for pair, _ in H.pairs]
    mults = [m for _, m in H.pairs]
    spreads = [[s for s in itertools.product(range(c + 1), repeat=len(pairs))
                if sum(s) == c] for c in counts]
    labellings = [L for L in (tuple(zip(*spread))
                              for spread in itertools.product(*spreads))
                  if all(sum(row) <= m for row, m in zip(L, mults))]
    index = {pair: i for i, pair in enumerate(pairs)}
    moves = [[index[min(sigma[u], sigma[v]), max(sigma[u], sigma[v])]
              for u, v in pairs]
             for sigma in itertools.permutations(range(H.vertex_count))
             if H.permuted(sigma) == H]

    def image(L, move):
        out = [None] * len(L)
        for i, j in enumerate(move):
            out[j] = L[i]
        return tuple(out)

    return len({min(image(L, move) for move in moves) for L in labellings})


def keyed_orbits(H: Multigraph, counts) -> tuple[tuple[tuple, int], ...]:
    """`calculus._orbits` with one `canonical_key` per labelling: the
    orbits are the key classes of H with each pair's multiplicity replaced
    by a code for (multiplicity, labelling row), injective within the
    table.  Codes determine multiplicities, so an isomorphism of two coded
    graphs is an automorphism of H carrying one labelling to the other, and
    the classes are exactly the orbits.  Same factors, weights and order as
    the library's table."""
    codes: dict[tuple, int] = {}
    orbits: dict[bytes, list] = {}
    for labels in _labellings([m for _, m in H.pairs], counts):
        coded = Multigraph(H.vertex_count, [
            (u, v, codes.setdefault((mult, row), len(codes) + 1))
            for ((u, v), mult), row in zip(H.pairs, labels)])
        orbits.setdefault(canonical_key(coded), [labels, 0])[1] += 1
    choices = prod(map(factorial, counts))
    out = []
    for labels, size in orbits.values():
        weight = choices * size
        factors = []
        for ((u, v), mult), row in zip(H.pairs, labels):
            if not any(row):
                factors.append((u, v, 0, mult))
                continue
            weight = weight * perm(mult, sum(row)) \
                // prod(map(factorial, row))
            factors += [(u, v, c, e) for c, e in
                        enumerate((row[0] + mult - sum(row), *row[1:])) if e]
        out.append((tuple(factors), weight))
    return tuple(out)


def recomputing_verify_structure(n: int, p_max: int | None = None,
                                 k_max: int = 3, *,
                                 limits=DEFAULT_LIMITS) -> StructureReport:
    """`consistency.verify_structure` by independent routes: the surjection
    counts S[H][g] by `count_surj` once per pair, the relation (d) summed
    entry by entry from the scale matrices, the scales (e) reads from the
    (p, k) steps, and each derivative compared with `count_surj` / p^|V|
    through `strip_isolated`.  The scale matrices and derivative vectors are
    read through the `consistency` module, so a test that patches one of
    them there reaches both versions."""
    if p_max is None:
        p_max = 2 * n
    checks: list[StructureCheck] = []
    classes = enumerate_Hn(n, limits=limits)
    ordered = surjection_total_order(classes)
    position = {canonical_key(g): i for i, g in enumerate(ordered)}
    surj = {(canonical_key(H), canonical_key(g)): count_surj(H, g, limits=limits)
            for H in classes for g in classes}

    def S(H, g):
        return surj[canonical_key(H), canonical_key(g)]

    matrices = {}
    for k in range(1, k_max + 1):
        matrix = matrices[k] = consistency.pi_formula(n, k, limits=limits)
        ok = True
        details = []
        for g in ordered:
            for h in ordered:
                value = matrix.value(g, h)
                if value > 0 and S(h, g) == 0:
                    ok = False
                    details.append("support violates the surjection condition")
                if value > 0 and position[canonical_key(g)] > position[canonical_key(h)]:
                    ok = False
                    details.append("entry above the diagonal order")
            if matrix.value(g, g) <= 0:
                ok = False
                details.append("non-positive diagonal")
        checks.append(StructureCheck(
            f"triangularity k={k}", ok,
            details[0] if details else "triangular with positive diagonal"))

        det = linalg.determinant(
            [[Fraction(x) for x in row] for row in matrix.rows(tuple(ordered))])
        checks.append(StructureCheck(
            f"invertibility k={k}", det != 0, f"det = {det}"))

    t_rows = []
    p0 = 2 * n
    coarse = enumerate_Hnp(n, p0, limits=limits)
    for H in classes:
        vec = consistency.extract_T(QuantumGraph.from_graph(H), n, p0,
                                    limits=limits)
        t_rows.append([vec.entries[canonical_key(h)] for h in coarse])
    det = linalg.determinant(t_rows)
    checks.append(StructureCheck(
        f"density-derivative basis at p={p0}", det != 0, f"det = {det}"))

    relation_failures = []
    for k in range(2, k_max + 1):
        for H in ordered:
            for g in ordered:
                total = sum(matrices[k].value(g, h) * S(H, h) for h in classes)
                if total != k ** H.vertex_count * S(H, g):
                    relation_failures.append(
                        f"relation fails for {graph_signature(H)} at k={k}")
    checks.append(StructureCheck(
        "scale-change relation", not relation_failures,
        relation_failures[0] if relation_failures else
        f"Pi_k S = S diag(k^|V(H)|) for k=2..{k_max}: holds at every scale"))

    scales = {p0}
    for p in range(2, p_max + 1):
        for k in range(2, k_max + 1):
            if k * p <= limits.max_parts:
                scales |= {p, k * p}
    count_failures = []
    for p in sorted(scales):
        # the report reads the columns of `surjection_matrix`: listing order
        for H in classes:
            vec = consistency.extract_T(QuantumGraph.from_graph(H), n, p,
                                        limits=limits)
            expected = {canonical_key(h): Fraction(S(H, strip_isolated(h)),
                                                   p ** H.vertex_count)
                        for h in enumerate_Hnp(n, p, limits=limits)}
            if vec.entries != expected:
                count_failures.append(f"T_{p}({graph_signature(H)}) is not "
                                      f"|Surj(H, h)| / p^|V(H)|")
    checks.append(StructureCheck(
        "derivatives are surjection counts", not count_failures,
        count_failures[0] if count_failures else
        "T_p(H)[h] = |Surj(H, h)| / p^|V(H)| at p="
        + ", ".join(str(p) for p in sorted(scales))))
    return StructureReport(n, tuple(checks))


def cut_norm_subset_oracle(f: StepKernel) -> Fraction:
    """Exhaustive maximum of |sum over S x T| over all part subsets."""
    p = f.parts
    best = Fraction(0)
    for s_bits in itertools.product((0, 1), repeat=p):
        for t_bits in itertools.product((0, 1), repeat=p):
            total = Fraction(0)
            for a in range(p):
                if not s_bits[a]:
                    continue
                for b in range(p):
                    if t_bits[b]:
                        total += f.matrix[a][b]
            best = max(best, abs(total))
    return best / p ** 2


# -- random instance helpers ------------------------------------------------


def random_kernel(rng, parts: int, denominator: int = 8,
                  lo: int = 0, hi: int | None = None) -> StepKernel:
    hi = denominator if hi is None else hi
    rows = [[Fraction(0)] * parts for _ in range(parts)]
    for a in range(parts):
        for b in range(a, parts):
            value = Fraction(rng.randint(lo, hi), denominator)
            rows[a][b] = value
            rows[b][a] = value
    return StepKernel(rows)


def random_signed_kernel(rng, parts: int, denominator: int = 8) -> StepKernel:
    return random_kernel(rng, parts, denominator, lo=-denominator,
                         hi=denominator)


def random_sparse_kernel(rng, parts: int, cells: int,
                         denominator: int = 8) -> StepKernel:
    """A symmetric kernel that is nonzero on at most `cells` cell pairs
    (diagonal cells included), each a signed multiple of 1/denominator."""
    pairs = [(a, b) for a in range(parts) for b in range(a, parts)]
    rows = [[Fraction(0)] * parts for _ in range(parts)]
    for a, b in rng.sample(pairs, min(cells, len(pairs))):
        value = Fraction(rng.choice((-1, 1)) * rng.randint(1, denominator),
                         denominator)
        rows[a][b] = rows[b][a] = value
    return StepKernel(rows)


def random_multigraph(rng, max_vertices: int = 4, max_edges: int = 4,
                      ensure_edge: bool = True) -> Multigraph:
    nv = rng.randint(2, max_vertices)
    pairs = list(itertools.combinations(range(nv), 2))
    ne = rng.randint(1 if ensure_edge else 0, max_edges)
    edges = [rng.choice(pairs) for _ in range(ne)]
    return Multigraph(nv, edges)


def random_blow_up(rng, max_vertices: int = 6) -> Multigraph:
    """A random multigraph rich in twin vertices: a random skeleton on 2 or 3
    vertices in which each vertex becomes a class of 1-3 copies.  Copies
    share their vertex's skeleton edges and are joined to each other by one
    random multiplicity (0 for non-adjacent twins), so each class is a twin
    class.  Stars, doubled leaves, K_{2,t} and adjacent twins joined by a
    multi-edge all arise; a draw past `max_vertices` is shrunk class by
    class."""
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
    while sum(sizes) > max_vertices:
        sizes[sizes.index(max(sizes))] -= 1
    first = list(itertools.accumulate(sizes, initial=0))
    members = [range(first[i], first[i + 1]) for i in range(len(sizes))]
    edges = []
    for a, b in itertools.combinations(range(len(sizes)), 2):
        m = rng.randint(0, 2)
        if m:
            edges += [(u, v, m) for u in members[a] for v in members[b]]
    for cls in members:
        m = rng.randint(0, 2)
        if m:
            edges += [(u, v, m) for u, v in itertools.combinations(cls, 2)]
    return Multigraph(first[-1], edges)


def random_union_of_components(rng, parts: int) -> tuple[Multigraph,
                                                         list[range]]:
    """A disjoint union of `parts` small components and the vertex range of
    each: isolated vertices (unlabelled, they are twins across components),
    random multigraphs on 2 or 3 vertices with up to 3 edges, and repeats
    of a component drawn before."""
    components: list[Multigraph] = []
    for _ in range(parts):
        roll = rng.random()
        if components and roll < 0.3:
            components.append(rng.choice(components))
        elif roll < 0.55:
            components.append(Multigraph(1))
        else:
            components.append(random_multigraph(rng, 3, 3))
    edges, spans, first = [], [], 0
    for c in components:
        edges += [(u + first, v + first, m) for (u, v), m in c.pairs]
        spans.append(range(first, first + c.vertex_count))
        first += c.vertex_count
    return Multigraph(first, edges), spans


def random_labelled(rng, g: Multigraph, k: int) -> Multigraph:
    """g with k of its vertices, chosen at random, labelled 1..k."""
    chosen = rng.sample(range(g.vertex_count), k)
    return Multigraph(g.vertex_count, [(u, v, m) for (u, v), m in g.pairs],
                      dict(zip(range(1, k + 1), chosen)))


def _random_map_load(rng, h: Multigraph, vertices: int):
    """A random map of h onto range(vertices), injective on the labelled
    vertices: the labels of the image, the edge mass on each image pair,
    and the mass lost on loops."""
    label_images = rng.sample(range(vertices), h.k)
    image = [rng.randrange(vertices) for _ in range(h.vertex_count)]
    for (lab, v), c in zip(h.labels, label_images):
        image[v] = c
    load: dict[tuple[int, int], int] = {}
    lost = 0
    for (u, v), m in h.pairs:
        a, b = sorted((image[u], image[v]))
        if a == b:
            lost += m
        else:
            load[(a, b)] = load.get((a, b), 0) + m
    return {lab: c for (lab, _), c in zip(h.labels, label_images)}, load, lost


def random_image(rng, h: Multigraph, vertices: int) -> Multigraph:
    """The image of h under a random map onto range(vertices) that is
    injective on the labelled vertices (which keep their labels): loops are
    dropped and each image pair keeps between 1 and all of its copies."""
    labels, load, _ = _random_map_load(rng, h, vertices)
    edges = [(a, b, rng.randint(1, m)) for (a, b), m in load.items()]
    return Multigraph(vertices, edges, labels)


def random_image_short_of(rng, h: Multigraph, vertices: int,
                          short: int) -> Multigraph | None:
    """An image of h as in `random_image` with exactly `short` fewer edges
    than h: the copies lost on loops count, and the rest are dropped at
    random from image pairs that keep at least one copy.  None when none of
    20 random maps allows that."""
    for _ in range(20):
        labels, load, lost = _random_map_load(rng, h, vertices)
        spare = [pair for pair, m in load.items() for _ in range(m - 1)]
        if 0 <= short - lost <= len(spare):
            for pair in rng.sample(spare, short - lost):
                load[pair] -= 1
            edges = [(a, b, m) for (a, b), m in load.items()]
            return Multigraph(vertices, edges, labels)
    return None


def random_matrix(rng, kind: str, n: int) -> list[list[Fraction]]:
    """An n x n matrix of small Fractions: "dense", "sparse" (~80 % zeros),
    "singular" (one row a combination of two others, or zero), or
    "triangular" (upper triangular, nonzero diagonal, rows shuffled)."""

    def cell(zero_frac: float) -> Fraction:
        if rng.random() < zero_frac:
            return Fraction(0)
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                        rng.randint(1, 6))

    zero_frac = {"dense": 0.0, "sparse": 0.8, "singular": 0.3,
                 "triangular": 0.5}[kind]
    rows = [[cell(zero_frac) for _ in range(n)] for _ in range(n)]
    if kind == "singular":
        i, j, l = (rng.randrange(n) for _ in range(3))
        a, b = cell(0.3), cell(0.3)
        rows[i] = ([a * x + b * y for x, y in zip(rows[j], rows[l])]
                   if i not in (j, l) else [Fraction(0)] * n)
    elif kind == "triangular":
        for r in range(n):
            rows[r][:r] = [Fraction(0)] * r
            rows[r][r] = cell(0.0)
        rng.shuffle(rows)
    return rows

"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: full permutation scans, explicit
enumeration of vertex and edge maps, exhaustive subset searches.  None of it
shares code with the production implementations, except that the
fixed-vertex-count enumeration dedups and orders by `canonical_key`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from graphoncalc import Multigraph, StepKernel, canonical_key


def brute_canonical_key(g: Multigraph) -> tuple:
    """Minimum encoding over all vertex permutations (labels at positions)."""
    n = g.vertex_count
    label_of = {v: lab for lab, v in g.labels}
    best = None
    for perm in itertools.permutations(range(n)):
        # perm[v] = position of vertex v
        mult = [[0] * n for _ in range(n)]
        for (u, v), m in g.pairs:
            mult[perm[u]][perm[v]] = m
            mult[perm[v]][perm[u]] = m
        flat = tuple(mult[i][j] for i in range(n) for j in range(i + 1, n))
        labs = [0] * n
        for v, lab in label_of.items():
            labs[perm[v]] = lab
        enc = (n, tuple(labs), flat)
        if best is None or enc < best:
            best = enc
    return best if best is not None else (0, (), ())


def brute_enumerate_Hn(n: int) -> set[tuple]:
    """Brute keys of all classes with n edges and no isolated vertices:
    every loop-free edge multiset on at most 2n vertices."""
    if n == 0:
        return {brute_canonical_key(Multigraph(0))}
    found: set[tuple] = set()
    for nv in range(1, 2 * n + 1):
        pairs = list(itertools.combinations(range(nv), 2))
        for combo in itertools.combinations_with_replacement(pairs, n):
            g = Multigraph(nv, combo)
            if all(g.degree(v) > 0 for v in range(nv)):
                found.add(brute_canonical_key(g))
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


def random_multigraph(rng, max_vertices: int = 4, max_edges: int = 4,
                      ensure_edge: bool = True) -> Multigraph:
    nv = rng.randint(2, max_vertices)
    pairs = list(itertools.combinations(range(nv), 2))
    ne = rng.randint(1 if ensure_edge else 0, max_edges)
    edges = [rng.choice(pairs) for _ in range(ne)]
    return Multigraph(nv, edges)

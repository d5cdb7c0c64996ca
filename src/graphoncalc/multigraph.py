"""Loop-free undirected multigraphs with optional injective vertex labels.

Graphs are immutable.  Parallel edges are stored as multiplicities on
unordered vertex pairs.  A partial labelling is an injective map from
{1, ..., k} into the vertex set; k = 0 means unlabelled.

The central service is :func:`canonical_key`: a totally ordered byte string
that is equal for two graphs exactly when they are isomorphic by a
label-preserving node-and-edge isomorphism.  Everything downstream
(enumeration, quantum-graph bookkeeping, class indexing) dedups on it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .limits import DEFAULT_LIMITS, CapExceeded, Limits

Pair = tuple[int, int]


class Multigraph:
    """An immutable loop-free multigraph with an optional partial labelling."""

    __slots__ = ("vertex_count", "pairs", "labels", "_key")

    def __init__(self, vertex_count: int,
                 edges: Iterable[Sequence[int]] = (),
                 labels: Mapping[int, int] | None = None):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        merged: dict[Pair, int] = {}
        for edge in edges:
            if len(edge) == 2:
                u, v, mult = edge[0], edge[1], 1
            elif len(edge) == 3:
                u, v, mult = edge
            else:
                raise ValueError(f"edge must be (u, v) or (u, v, mult): {edge!r}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge endpoint out of range: {edge!r}")
            if u == v:
                raise ValueError(f"loops are not allowed: {edge!r}")
            if mult < 1:
                raise ValueError(f"edge multiplicity must be >= 1: {edge!r}")
            key = (u, v) if u < v else (v, u)
            merged[key] = merged.get(key, 0) + mult
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "pairs", tuple(sorted(merged.items())))

        label_items: list[tuple[int, int]] = []
        if labels:
            seen_vertices = set()
            for lab in sorted(labels):
                v = labels[lab]
                if not (0 <= v < vertex_count):
                    raise ValueError(f"label {lab} points outside the vertex set")
                if v in seen_vertices:
                    raise ValueError("labelling must be injective")
                seen_vertices.add(v)
                label_items.append((int(lab), v))
            if [lab for lab, _ in label_items] != list(range(1, len(label_items) + 1)):
                raise ValueError("label indices must be exactly 1..k")
        object.__setattr__(self, "labels", tuple(label_items))
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):
        raise AttributeError("Multigraph is immutable")

    # -- basic accessors -------------------------------------------------

    @property
    def k(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        """Number of edges counted with multiplicity."""
        return sum(m for _, m in self.pairs)

    @property
    def label_map(self) -> dict[int, int]:
        return dict(self.labels)

    def multiplicity(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        for pair, m in self.pairs:
            if pair == key:
                return m
        return 0

    def degree(self, v: int) -> int:
        return sum(m for (a, b), m in self.pairs if v in (a, b))

    def edge_slots(self) -> list[Pair]:
        """Every parallel copy as its own entry, in sorted pair order."""
        out: list[Pair] = []
        for pair, m in self.pairs:
            out.extend([pair] * m)
        return out

    def is_simple(self) -> bool:
        return all(m == 1 for _, m in self.pairs)

    def labelled_vertices(self) -> set[int]:
        return {v for _, v in self.labels}

    # -- structural equality (not isomorphism) ---------------------------

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        return (self.vertex_count == other.vertex_count
                and self.pairs == other.pairs
                and self.labels == other.labels)

    def __hash__(self):
        return hash((self.vertex_count, self.pairs, self.labels))

    def __repr__(self):
        parts = [str(self.vertex_count)]
        if self.pairs:
            parts.append("[" + ", ".join(
                f"({u},{v})" if m == 1 else f"({u},{v})x{m}"
                for (u, v), m in self.pairs) + "]")
        if self.labels:
            parts.append("labels=" + repr(self.label_map))
        return f"Multigraph({', '.join(parts)})"

    # -- derived graphs ---------------------------------------------------

    def permuted(self, perm: Sequence[int]) -> "Multigraph":
        """Relabel vertices: vertex v becomes perm[v]."""
        if sorted(perm) != list(range(self.vertex_count)):
            raise ValueError("perm must be a permutation of the vertex set")
        edges = [(perm[u], perm[v], m) for (u, v), m in self.pairs]
        labels = {lab: perm[v] for lab, v in self.labels}
        return Multigraph(self.vertex_count, edges, labels)

    def padded(self, vertex_count: int) -> "Multigraph":
        """Append unlabelled isolated vertices until `vertex_count` vertices."""
        if vertex_count < self.vertex_count:
            raise ValueError("cannot pad to fewer vertices")
        return Multigraph(vertex_count, [(u, v, m) for (u, v), m in self.pairs],
                          self.label_map)


# -- canonical form ------------------------------------------------------


def _adjacency(g: Multigraph) -> dict[int, dict[int, int]]:
    adj: dict[int, dict[int, int]] = {v: {} for v in range(g.vertex_count)}
    for (u, v), m in g.pairs:
        adj[u][v] = m
        adj[v][u] = m
    return adj


def _normalize_colours(colours: dict[int, object]) -> dict[int, int]:
    ranking = {c: i for i, c in enumerate(sorted(set(colours.values())))}
    return {v: ranking[c] for v, c in colours.items()}


def _refine(verts: tuple[int, ...], adj, colours: dict[int, int]) -> dict[int, int]:
    while True:
        sigs = {}
        for v in verts:
            nb = tuple(sorted((colours[w], m) for w, m in adj[v].items()))
            sigs[v] = (colours[v], nb)
        new = _normalize_colours(sigs)
        if new == colours:
            return colours
        colours = new


def _twin_representatives(cell: list[int], verts, adj) -> list[int]:
    # u, v are twins when swapping them is an automorphism; branching on one
    # representative per twin class is enough.
    reps: list[int] = []
    for u in cell:
        for r in reps:
            if all(adj[u].get(w, 0) == adj[r].get(w, 0)
                   for w in verts if w not in (u, r)):
                break
        else:
            reps.append(u)
    return reps


def _encode_ordering(order: list[int], adj, label_of: dict[int, int]) -> tuple:
    m = len(order)
    pos = {v: i for i, v in enumerate(order)}
    flat = []
    for i in range(m):
        row = adj[order[i]]
        for j in range(i + 1, m):
            flat.append(row.get(order[j], 0))
    return (m, tuple(label_of.get(v, 0) for v in order), tuple(flat))


def _canon_component(verts: tuple[int, ...], adj, label_of: dict[int, int]) -> tuple:
    init: dict[int, object] = {}
    for v in verts:
        lab = label_of.get(v)
        init[v] = (0, lab) if lab is not None else (1, 0)
    colours = _normalize_colours(init)

    def search(colours: dict[int, int]) -> tuple:
        colours = _refine(verts, adj, colours)
        cells: dict[int, list[int]] = {}
        for v in verts:
            cells.setdefault(colours[v], []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            order = sorted(verts, key=colours.__getitem__)
            return _encode_ordering(order, adj, label_of)
        best = None
        for u in _twin_representatives(target, verts, adj):
            branched = {v: (colours[v], 0 if v == u else 1) for v in verts}
            enc = search(_normalize_colours(branched))
            if best is None or enc < best:
                best = enc
        return best

    return search(colours)


def canonical_key(g: Multigraph) -> bytes:
    """A byte string equal for two graphs iff they are label-isomorphic.

    Unlabelled isolated vertices are interchangeable, so they enter the key
    only through the total vertex count; the rest of the graph is
    canonicalized component by component with partition refinement and
    individualization (twin classes are branched once).
    """
    if g._key is not None:
        return g._key
    adj = _adjacency(g)
    label_of = {v: lab for lab, v in g.labels}
    active = sorted(v for v in range((g.vertex_count))
                    if adj[v] or v in label_of)

    parent = {v: v for v in active}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (u, v), _ in g.pairs:
        parent[find(u)] = find(v)

    comps: dict[int, list[int]] = {}
    for v in active:
        comps.setdefault(find(v), []).append(v)
    encodings = sorted(
        _canon_component(tuple(vs), adj, label_of) for vs in comps.values())
    key = repr((g.vertex_count, encodings)).encode()
    object.__setattr__(g, "_key", key)
    return key


# -- spec'd graph operations ----------------------------------------------


def strip_isolated(g: Multigraph) -> Multigraph:
    """Drop unlabelled isolated vertices (edges and labels are kept)."""
    adj = _adjacency(g)
    labelled = g.labelled_vertices()
    keep = [v for v in range(g.vertex_count) if adj[v] or v in labelled]
    remap = {v: i for i, v in enumerate(keep)}
    edges = [(remap[u], remap[v], m) for (u, v), m in g.pairs]
    labels = {lab: remap[v] for lab, v in g.labels}
    return Multigraph(len(keep), edges, labels)


def simplify(g: Multigraph) -> Multigraph:
    """Collapse every parallel class to a single edge; vertices unchanged."""
    return Multigraph(g.vertex_count, [(u, v, 1) for (u, v), _ in g.pairs],
                      g.label_map)


def glue_product(g: Multigraph, h: Multigraph) -> Multigraph:
    """Disjoint union with equally labelled vertices identified.

    If the two graphs carry different label counts the smaller one is padded
    with labelled isolated vertices first.  For unlabelled graphs this is the
    plain disjoint union.
    """
    k = max(g.k, h.k)
    g = pad_labels(g, k)
    h = pad_labels(h, k)
    g_label = g.label_map
    h_label_of = {v: lab for lab, v in h.labels}

    remap: dict[int, int] = {}
    next_id = g.vertex_count
    for v in range(h.vertex_count):
        lab = h_label_of.get(v)
        if lab is not None:
            remap[v] = g_label[lab]
        else:
            remap[v] = next_id
            next_id += 1
    edges = [(u, v, m) for (u, v), m in g.pairs]
    edges += [(remap[u], remap[v], m) for (u, v), m in h.pairs]
    return Multigraph(next_id, edges, g_label)


def pad_labels(g: Multigraph, k: int) -> Multigraph:
    """Embed a k'-labelled graph into the k-labelled world (k' <= k) by
    appending labelled isolated vertices."""
    if k < g.k:
        raise ValueError("cannot drop labels")
    if k == g.k:
        return g
    labels = g.label_map
    edges = [(u, v, m) for (u, v), m in g.pairs]
    n = g.vertex_count
    for lab in range(g.k + 1, k + 1):
        labels[lab] = n
        n += 1
    return Multigraph(n, edges, labels)


# -- enumeration -----------------------------------------------------------


@lru_cache(maxsize=None)
def _enumerate_classes(n: int, k: int, limits: Limits) -> tuple[Multigraph, ...]:
    if n == 0:
        base = Multigraph(k, (), {lab: lab - 1 for lab in range(1, k + 1)})
        return (base,)
    result: dict[bytes, Multigraph] = {}
    for h in _enumerate_classes(n - 1, k, limits):
        nv = h.vertex_count
        candidates = []
        for u, v in itertools.combinations(range(nv), 2):
            candidates.append(Multigraph(
                nv, [*((a, b, m) for (a, b), m in h.pairs), (u, v, 1)],
                h.label_map))
        for u in range(nv):
            candidates.append(Multigraph(
                nv + 1, [*((a, b, m) for (a, b), m in h.pairs), (u, nv, 1)],
                h.label_map))
        candidates.append(Multigraph(
            nv + 2, [*((a, b, m) for (a, b), m in h.pairs), (nv, nv + 1, 1)],
            h.label_map))
        for cand in candidates:
            result.setdefault(canonical_key(cand), cand)
        if len(result) > limits.max_classes:
            raise CapExceeded(
                f"more than {limits.max_classes} classes with {n} edges")
    return tuple(g for _, g in sorted(result.items()))


def enumerate_Hn(n: int, k: int = 0, *,
                 limits: Limits = DEFAULT_LIMITS) -> tuple[Multigraph, ...]:
    """All isomorphism classes of k-labelled multigraphs with n edges and no
    unlabelled isolated vertices, in canonical-key order."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    return _enumerate_classes(n, k, limits)


@lru_cache(maxsize=None)
def _enumerate_with_vertices(n: int, p: int, limits: Limits) -> tuple[Multigraph, ...]:
    # A class on exactly p vertices is an n-edge class without isolated
    # vertices that fits in p vertices, padded with isolated ones.
    padded = [h.padded(p) for h in _enumerate_classes(n, 0, limits)
              if h.vertex_count <= p]
    return tuple(sorted(padded, key=canonical_key))


def enumerate_Hnp(n: int, p: int, *,
                  limits: Limits = DEFAULT_LIMITS) -> tuple[Multigraph, ...]:
    """All unlabelled classes with n edges and exactly p vertices (isolated
    vertices allowed), in canonical-key order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if p < 2:
        raise ValueError("p must be at least 2")
    return _enumerate_with_vertices(n, p, limits)


# -- common building blocks -------------------------------------------------


def single_edge() -> Multigraph:
    return Multigraph(2, [(0, 1)])


def parallel_edges(mult: int) -> Multigraph:
    return Multigraph(2, [(0, 1, mult)])


def path_graph(edges: int) -> Multigraph:
    return Multigraph(edges + 1, [(i, i + 1) for i in range(edges)])


def cycle_graph(length: int) -> Multigraph:
    if length < 3:
        raise ValueError("cycles need length >= 3 (no loops or parallel pairs)")
    return Multigraph(length, [(i, (i + 1) % length) for i in range(length)])


def complete_graph(vertices: int) -> Multigraph:
    return Multigraph(vertices, list(itertools.combinations(range(vertices), 2)))


def star_graph(leaves: int) -> Multigraph:
    """Star with `leaves` edges: centre is vertex 0."""
    return Multigraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def matching(n: int) -> Multigraph:
    """n pairwise disjoint edges."""
    return Multigraph(2 * n, [(2 * i, 2 * i + 1) for i in range(n)])


def disjoint_union(g: Multigraph, h: Multigraph) -> Multigraph:
    if g.k or h.k:
        raise ValueError("disjoint_union is for unlabelled graphs; use glue_product")
    edges = [(u, v, m) for (u, v), m in g.pairs]
    off = g.vertex_count
    edges += [(u + off, v + off, m) for (u, v), m in h.pairs]
    return Multigraph(off + h.vertex_count, edges)


def graph_signature(g: Multigraph) -> str:
    """Short human-readable form, e.g. ``3v 0-1 1-2x2``."""
    bits = [f"{g.vertex_count}v"]
    bits += [f"{u}-{v}" + (f"x{m}" if m > 1 else "") for (u, v), m in g.pairs]
    if g.labels:
        bits.append("labels " + ",".join(f"{lab}:{v}" for lab, v in g.labels))
    return " ".join(bits)


# -- JSON ------------------------------------------------------------------


def graph_to_json(g: Multigraph) -> dict:
    obj: dict = {"vertices": g.vertex_count,
                 "edges": [[u, v, m] for (u, v), m in g.pairs]}
    if g.labels:
        obj["labels"] = {str(lab): v for lab, v in g.labels}
    return obj


def graph_from_json(obj: Mapping) -> Multigraph:
    try:
        vertices = int(obj["vertices"])
        edges = [tuple(int(x) for x in e) for e in obj.get("edges", [])]
        labels = {int(lab): int(v) for lab, v in obj.get("labels", {}).items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph object: {exc}") from exc
    return Multigraph(vertices, edges, labels)

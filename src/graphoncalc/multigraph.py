"""Loop-free undirected multigraphs with optional injective vertex labels.

Graphs are immutable.  Parallel edges are stored as multiplicities on
unordered vertex pairs.  A partial labelling is an injective map from
{1, ..., k} into the vertex set; k = 0 means unlabelled.

The central service is :func:`canonical_key`: a totally ordered byte string
that is equal for two graphs exactly when they are isomorphic by a
label-preserving node-and-edge isomorphism.  Everything downstream
(enumeration, quantum-graph bookkeeping, class indexing) dedups on it.
The same search also yields :func:`automorphism_generators`, a generating
set of a graph's automorphism group.  :func:`orbits` splits items into the
orbits of the group a generating set acts by; it is the one orbit routine
of the package: `calculus` runs it on the labellings of the derivative sum
with the automorphism generators, `morphisms` on the pairs of a labelled
surjection table with the label permutations.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .limits import DEFAULT_LIMITS, Limits

Pair = tuple[int, int]


class Multigraph:
    """An immutable loop-free multigraph with an optional partial labelling."""

    # `_key`, `_record`, `_tables` and `_request` are filled on first use
    # and kept: the canonical key, `morphisms._record`, the derivative orbit
    # tables of `calculus._orbits` by direction counts, and the basis-tuple
    # derivative request `calculus.extract_T` reads the class on
    __slots__ = ("vertex_count", "pairs", "labels", "_key", "_record",
                 "_tables", "_request")

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
        object.__setattr__(self, "_record", None)
        object.__setattr__(self, "_tables", None)
        object.__setattr__(self, "_request", None)

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


def _twins(adj, u: int, v: int) -> bool:
    """Whether u and v have the same multiplicity to every other vertex.

    Then swapping u and v is an automorphism of the unlabelled graph, and
    the relation is an equivalence.  `adj` is `_adjacency`'s map of nonzero
    multiplicities; the multiplicity between u and v themselves is free.
    """
    a, b = adj[u], adj[v]
    return (len(a) - (v in a) == len(b) - (u in b)
            and all(w == v or b.get(w) == m for w, m in a.items()))


def _twin_classes(adj, verts: Sequence[int]) -> list[list[int]]:
    """The twin classes of `verts` (`_twins`), in the order of their first
    members, each in the order of `verts`."""
    classes: list[list[int]] = []
    for v in verts:
        for members in classes:
            if _twins(adj, members[0], v):
                members.append(v)
                break
        else:
            classes.append([v])
    return classes


def _encode_ordering(order: list[int], adj, label_of: dict[int, int]) -> tuple:
    m = len(order)
    flat = []
    for i in range(m):
        row = adj[order[i]]
        for j in range(i + 1, m):
            flat.append(row.get(order[j], 0))
    return (m, tuple(label_of.get(v, 0) for v in order), tuple(flat))


def _canon_component(verts: tuple[int, ...], adj,
                     label_of: dict[int, int]) -> tuple[tuple, list[list[int]]]:
    """The least encoding (`_encode_ordering`) of a connected component
    over the leaves of its search tree, and every leaf ordering that reaches
    it, in search order.

    The search refines colours, then branches on the first non-singleton
    cell, one vertex per twin class of it.  Two leaves with the least
    encoding differ by an automorphism of the component (McKay and Piperno,
    "Practical graph isomorphism, II", J. Symbolic Comput. 2014), and the
    leaves a twin branch skips are images of explored ones under twin
    swaps.
    """
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
            return _encode_ordering(order, adj, label_of), [order]
        best = None
        # swapping twins is an automorphism, so branching on one member
        # per twin class is enough
        for u, *_ in _twin_classes(adj, target):
            branched = {v: (colours[v], 0 if v == u else 1) for v in verts}
            enc, leaves = search(_normalize_colours(branched))
            if best is None or enc < best:
                best, best_leaves = enc, leaves
            elif enc == best:
                best_leaves += leaves
        return best, best_leaves

    return search(colours)


def _components(g: Multigraph
                ) -> tuple[dict, dict[int, int], list[tuple[int, ...]]]:
    """g's adjacency (`_adjacency`), its vertex -> label map, and the vertex
    sets of its components apart from unlabelled isolated vertices."""
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
    return adj, label_of, [tuple(vs) for vs in comps.values()]


def canonical_key(g: Multigraph) -> bytes:
    """A byte string equal for two graphs iff they are label-isomorphic.

    Unlabelled isolated vertices are interchangeable, so they enter the key
    only through the total vertex count; the rest of the graph is
    canonicalized component by component with partition refinement and
    individualization (twin classes are branched once).
    """
    if g._key is not None:
        return g._key
    adj, label_of, comps = _components(g)
    encodings = sorted(_canon_component(vs, adj, label_of)[0] for vs in comps)
    key = repr((g.vertex_count, encodings)).encode()
    object.__setattr__(g, "_key", key)
    return key


def automorphism_generators(g: Multigraph) -> list[tuple[int, ...]]:
    """Vertex permutations (v -> perm[v]) that generate the group of g's
    label-preserving automorphisms, from the search `canonical_key` runs:
    - per component, the map from its first least-encoding leaf ordering
      (`_canon_component`) to each other one;
    - per two components with equal encodings, consecutive in encoding
      order, the swap of one's first ordering with the other's;
    - the swaps of consecutive members of each unlabelled twin class.
    An automorphism of a component carries its first leaf to a leaf with the
    same encoding; twin swaps carry that leaf to an explored one, which a
    leaf map reaches.  So the first and third kinds generate each
    component's group, and the second permutes isomorphic components.
    """
    adj, label_of, comps = _components(g)
    searched = sorted((_canon_component(vs, adj, label_of) for vs in comps),
                      key=lambda found: found[0])
    moves = [zip(first, other)
             for _, (first, *others) in searched for other in others]
    moves += [zip(a + b, b + a)
              for (x, (a, *_)), (y, (b, *_)) in itertools.pairwise(searched)
              if x == y]
    unlabelled = [v for v in range(g.vertex_count) if v not in label_of]
    moves += [((a, b), (b, a)) for members in _twin_classes(adj, unlabelled)
              for a, b in itertools.pairwise(members)]
    return [tuple(move.get(v, v) for v in range(g.vertex_count))
            for move in map(dict, moves)]


def orbits(items: Iterable, images: Callable) -> Iterator[tuple[object, list]]:
    """Split `items` into the orbits of the group that `images` generates.

    `items` are distinct, and `images(item)` lists the item's images under
    a generating set.  Each orbit starts from its first item in `items`
    order, the items of earlier orbits skipped, and grows by the images of
    its members until none is new (Butler, *Fundamental Algorithms for
    Permutation Groups*, LNCS 559, 1991).  Yields (first, members), members
    in the order found, first first.  Only the members reached as images
    are remembered, so with no images every item is its own orbit and
    nothing is kept.
    """
    seen = set()
    for first in items:
        if first in seen:
            continue
        members = [first]
        # the loop reaches the members appended while it runs
        for item in members:
            for image in images(item):
                if image != first and image not in seen:
                    seen.add(image)
                    members.append(image)
        yield first, members


def padded_key(key: bytes, vertex_count: int) -> bytes:
    """The canonical key of a graph whose key is `key`, padded with
    unlabelled isolated vertices to `vertex_count` vertices.

    Such vertices enter the key only through its leading vertex count, so
    the padded key is derived without canonicalizing again.
    """
    count, _, rest = key.partition(b", ")
    if int(count[1:]) > vertex_count:
        raise ValueError("cannot pad to fewer vertices")
    return b"(%d, " % vertex_count + rest


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


def _children(h: Multigraph) -> Iterator[Multigraph]:
    """The one-edge extensions of h that `_enumerate_classes` keeps: one per
    twin-class pattern (`_twin_classes`; labelled vertices are classes of
    their own), each only if its added pair has the largest invariant."""
    adj = _adjacency(h)
    nv = h.vertex_count
    label_of = {v: lab for lab, v in h.labels}
    classes = sorted(
        _twin_classes(adj, [v for v in range(nv) if v not in label_of])
        + [[v] for v in label_of])
    added = [(a[0], b[0]) for a, b in itertools.combinations(classes, 2)]
    added += [(a[0], a[1]) for a in classes if len(a) > 1]
    added += [(a[0], nv) for a in classes]
    added.append((nv, nv + 1))

    degree = [sum(adj[v].values()) for v in range(nv)] + [0, 0]
    mult = dict(h.pairs)
    edges = [(a, b, m) for (a, b), m in h.pairs]
    for u, v in added:
        def ends(a: int, b: int) -> list:
            return sorted(((degree[a] + (a in (u, v)), label_of.get(a, 0)),
                           (degree[b] + (b in (u, v)), label_of.get(b, 0))))

        # the invariant compares multiplicities first; h's copy of the
        # added pair has multiplicity top - 1, so it never wins
        top = mult.get((u, v), 0) + 1
        mine = ends(u, v)
        if all(m < top or m == top and ends(a, b) <= mine
               for (a, b), m in h.pairs):
            yield Multigraph(max(nv, v + 1), [*edges, (u, v, 1)], h.label_map)


@lru_cache(maxsize=64)
def _enumerate_classes(n: int, k: int, limits: Limits) -> tuple[Multigraph, ...]:
    """The n-edge classes, each grown from an (n-1)-edge class by one edge
    and deduplicated by `canonical_key`.

    Two rules (`_children`) keep this close to one canonicalization per
    class (McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998):
    - twin-orbit augmentations: a parent gets one added pair per pattern of
      its twin classes.  Swapping two twins is an automorphism of the
      parent, so every pair of one pattern gives an isomorphic child;
    - acceptance: a child is kept only if its added pair has the largest
      invariant (multiplicity, sorted endpoint (degree, label)) among its
      pairs.
    Both are exact.  Take any n-edge class and remove one copy of a pair
    with the largest invariant, dropping any unlabelled vertex left
    isolated.  The result is a listed parent up to isomorphism; its
    augmentation of the removed pair's pattern is generated, is isomorphic
    to the class and adds a pair with that same invariant, so it is kept.
    Hence the keys and their order are those of adding every pair to every
    parent; only the vertex numbering of the kept representatives depends
    on the rules.
    """
    if n == 0:
        base = Multigraph(k, (), {lab: lab - 1 for lab in range(1, k + 1)})
        return (base,)
    result: dict[bytes, Multigraph] = {}
    for h in _enumerate_classes(n - 1, k, limits):
        for child in _children(h):
            result.setdefault(canonical_key(child), child)
        if len(result) > limits.max_classes:
            raise limits.exceeded(
                "max_classes", f"{len(result)} classes with {n} edges so far")
    return tuple(g for _, g in sorted(result.items()))


def enumerate_Hn(n: int, k: int = 0, *,
                 limits: Limits = DEFAULT_LIMITS) -> tuple[Multigraph, ...]:
    """All isomorphism classes of k-labelled multigraphs with n edges and no
    unlabelled isolated vertices, in canonical-key order."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    return _enumerate_classes(n, k, limits)


def surjection_total_order(classes) -> list[Multigraph]:
    """Total order refining 'a representative surjects onto': simple-edge
    count (the number of distinct pairs), then vertex count, then canonical
    key."""
    return sorted(classes, key=lambda g: (len(g.pairs), g.vertex_count,
                                          canonical_key(g)))


@lru_cache(maxsize=64)
def _enumerate_with_vertices(n: int, p: int, limits: Limits
                             ) -> tuple[tuple[Multigraph, ...], Mapping[bytes, int]]:
    # A class on exactly p vertices is an n-edge class without isolated
    # vertices that fits in p vertices, padded with isolated ones; its key
    # is derived from the unpadded class's, listed with that class's
    # position in the surjection order.
    padded = []
    for i, h in enumerate(surjection_total_order(
            _enumerate_classes(n, 0, limits))):
        if h.vertex_count <= p:
            key = padded_key(canonical_key(h), p)
            g = h.padded(p)
            object.__setattr__(g, "_key", key)
            padded.append((key, g, i))
    padded.sort(key=lambda item: item[0])
    return (tuple(g for _, g, _ in padded),
            MappingProxyType({key: i for key, _, i in padded}))


def _check_np(n: int, p: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if p < 2:
        raise ValueError("p must be at least 2")


def enumerate_Hnp(n: int, p: int, *,
                  limits: Limits = DEFAULT_LIMITS) -> tuple[Multigraph, ...]:
    """All unlabelled classes with n edges and exactly p vertices (isolated
    vertices allowed), in canonical-key order."""
    _check_np(n, p)
    return _enumerate_with_vertices(n, p, limits)[0]


def surjection_positions(n: int, p: int, *,
                         limits: Limits = DEFAULT_LIMITS) -> Mapping[bytes, int]:
    """For each class of `enumerate_Hnp(n, p)`, in its order: its canonical
    key -> the position, in `surjection_total_order(enumerate_Hn(n))`, of
    the class it was padded from, which is its row and column in
    `morphisms.surjection_table(n)`.  Read-only, computed once."""
    _check_np(n, p)
    return _enumerate_with_vertices(n, p, limits)[1]


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
    return glue_product(g, h)


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


def _json_int(x) -> int:
    """x if it is a JSON integer, else TypeError (2.5, 2.0, "2" and true
    are not)."""
    if type(x) is not int:
        raise TypeError(f"{x!r} is not an integer")
    return x


def graph_from_json(obj: Mapping) -> Multigraph:
    """The graph of a JSON object: an integer vertex count, edges as
    integer pairs or (u, v, multiplicity) triples, and labels mapping
    integer-string keys to vertices; ValueError if malformed."""
    try:
        vertices = _json_int(obj["vertices"])
        edges = [tuple(map(_json_int, e)) for e in obj.get("edges", [])]
        labels = {int(lab): _json_int(v)
                  for lab, v in obj.get("labels", {}).items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph object: {exc}") from exc
    return Multigraph(vertices, edges, labels)

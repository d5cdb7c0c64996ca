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
against `max_maps`: the levels computed, not those read from a memo.  All
counts are exact Python integers.

Labelled vertices are the first steps of that order, by label: the
surjection search places each as an ordinary step whose one candidate is
the g-vertex with the same label, so every check below applies to them as
to any other vertex, and each counts as one search node.  Every later step
takes every g-vertex as a candidate.  A branch is cut when the g-vertices
not yet covered outnumber the h-vertices left, when the g-edge mass not yet
covered exceeds the h-edge mass left to place, or when the fibers overshoot
their degree budget: every h-edge lands on a g-edge, so at a leaf the
h-degrees in each g-vertex's fiber sum to at least its g-degree, with total
overshoot exactly spare = 2(|E(h)| - |E(g)|).  A fiber's degree sum only
grows, so a branch that already overshoots by more is cut (for equal edge
counts: no fiber's degree sum exceeds its g-vertex's degree).

Before any per-call table is built, a pair is 0 when h has fewer vertices,
distinct pairs or edges than g, or when it fails one of two degree tests
that the same budget gives:
- labelled degrees: sum over labels i of max(0, deg_h(L_i) - deg_g(L_i))
  is at most spare, since the fiber of g's L_i holds h's L_i, so its
  overshoot is at least that difference;
- degree prefix sums: with both degree sequences sorted in descending
  order, h's top-i sum is at most g's top-i sum plus spare, for every i,
  since h's top i vertices land in at most i fibers, whose degree sums are
  their g-degrees plus overshoots (for equal edge counts: majorization).
A search that returns 0 still pays for its per-call tables, and most zero
entries of a labelled surjection-count matrix fail one of these tests.

A weighted sum with k given (the scale-consistency matrices) is 0 unless
every fiber holds 1 to k h-vertices, so three more tests refuse a pair
there before any per-call table is built:
- vertices: |V(h)| <= k |V(g)|;
- capped degree prefix: the fibers of g's top j vertices hold at most
  min(j + |V(h)| - |V(g)|, k j) h-vertices (every other fiber is
  nonempty), whose degrees sum to at least those j g-degrees; so g's top-j
  degree sum is at most h's top-that-many sum, for every j;
- pair multiplicities: each h-pair lands on one g-pair, and each g-pair
  receives at least one h-pair, whose multiplicities sum to at least its
  own; so g's top-j pair-multiplicity sum is at most h's top
  (j + #pairs(h) - #pairs(g)) sum, for every j.
They run only when k is given: the surjection counts behind the Whitney
matrices almost never fail them, and there they cost more than they save.
In `pi_formula(5, 2)`, 794 of the 1,498 pairs that pass the degree tests
are 0, and these tests refuse 356 of them.

The search also folds the source's twins: unlabelled vertices with the same
multiplicity to every other vertex (`multigraph._twin_classes`).  Swapping
two twins is an automorphism of h that keeps a leaf's loads, fiber sizes
and weight, so a vertex with an earlier twin takes only the g-vertices from
its previous twin's image on: along each twin class, in search order, the
images are nondecreasing.  Each class weighs the leaves below the step
that completes it by t!/prod r!, where t is the class size and the r are
the lengths of its runs of equal images: the number of leaves its twin
swaps reach.  The cuts hold at every leaf, so none of them cuts a leaf the
fold keeps.  This is a lex-leader rule for the symmetry of swapping twins
(Crawford, Ginsberg, Luks and Roy, "Symmetry-breaking predicates for
search problems", KR 1996).

A source with several components would otherwise be searched again past
each component for every way of placing the ones before it, so the search
returns the subtotal of every step and keeps it at the cut steps.  A cut
step is a step whose separator in the density core's plan of h is empty
(a free vertex is placed before it, and no step from it on has an edge
back to one), unless a twin class spans it, with members before and from
it on: a component of h, labelled vertices aside, has just been
completed.  The subtotal at a cut step is kept under
the step, the fiber sizes (only which g-vertices are covered, when k is
None) and the loads on g's pairs, and read back when the same key comes
again within the call.  The key is exact: every free vertex placed so far
has placed all its edges, and the labelled vertices' images are fixed, so
the fibers' degree sums, and with them `room` and `spare`, the g-edge mass
not yet covered and the uncovered g-vertices all follow from it, and no
later step reads an earlier image.  The weights move so that a subtotal
depends on that state alone: the twin multinomial at the step that
completes its class, the fiber weight (k)_size as the factor k - size + 1
at each placement, and the edge maps at the leaf, the product over g's
pairs of `_count_surjections(load, m)`, the surjections of the load's
h-copies onto the pair's m copies (m! on every pair, with equal edge
counts).  The rest of the search is the same, so a memo is recursive
conditioning on the components (Darwiche, "Recursive conditioning", AI
2001), as in the density core, whose empty separators are the cut steps.  In `pi_formula(5, 2)`
the search computes 26,917 nodes, 41,384 without the memo; in the
unlabelled 5-edge table S, 39,058 and 84,007.

The Whitney matrices, the scale matrices and Taylor recovery all need a
table of counts between the classes of one edge count n, and
`surjection_table(n, labels, k)` builds every one of them: it lists the
classes itself, in `surjection_total_order`, and searches only the pairs
that can be quotients (Lovász, *Large Networks and Graph Limits*, 2012,
ch. 5-6).  A surjection h ->> g maps n edges onto n edges, so its edge map
is a bijection.  If also |V(h)| = |V(g)|, its vertex map is a bijection
too, and the surjection is an isomorphism.  So a pair is searched only
when |V(h)| > |V(g)| and h has at least as many distinct pairs as g, or
when h is g; in that order such a g comes before h, so the table is lower
triangular.  Every other entry is an exact 0 and costs no call.  With two
or more labels, relabelling both graphs of a pair by one permutation of
the labels keeps its count, and a full class list is closed under it.  So
one pair per orbit is searched, and the orbit is filled by closure under
the index maps of the permutations (1 2) and (1 2 ... k), which generate
them all; the maps cost at most two relabelled `canonical_key`s per class.
Whitney(4, 2) searches 14,839 of its 78,961 pairs this way, and 8,215 of
those pass the tests above.  `surjection_table` keeps every table it
builds, so each is searched once per process: the unlabelled table S
behind Taylor recovery, `series.surjection_matrix` and the structure
report, the weighted tables behind the scale matrices, and the labelled
ones behind the Whitney matrices.

What the counts need of a graph is one `_Record`, built the first time the
graph is counted and kept on the graph (`Multigraph._record`), so a pair
pays no set-up beyond its per-call tables.  It holds what a target gives
(adjacency rows, degrees) and what the degree tests read of both graphs;
the source part, the search `_Plan`, is added the first time the graph is
searched as a source, so `count_hom` and a pair the tests refuse build no
plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import NamedTuple, Sequence

from .density import _integrate, _make_plan
from .limits import DEFAULT_LIMITS, Limits
from .multigraph import (Multigraph, _adjacency, _twin_classes, canonical_key,
                         enumerate_Hn, surjection_total_order)


@lru_cache(maxsize=None)
def _count_surjections(c: int, m: int) -> int:
    """Number of surjective maps from a c-element set onto an m-element set."""
    return sum((-1) ** i * comb(m, i) * (m - i) ** c for i in range(m + 1))


def _check_label_counts(h: Multigraph, g: Multigraph) -> None:
    if h.k != g.k:
        raise ValueError("label counts must agree (pad the smaller graph first)")


class _Plan(NamedTuple):
    """What the surjection search needs of a graph as a source.

    The vertices in search order, labelled ones first by label; per step,
    the edges (neighbour, multiplicity) to the vertices placed before it,
    the edge mass placed at that step or later (one more entry, 0, at the
    end), the degree of the vertex placed, its previous twin (the member
    of its twin class placed last before it, or -1) and the twin class it
    completes (its members in search order, when it is the last of two or
    more, else empty); and per step, one more at the end (never one),
    whether the step is a cut step: its separator in the density plan is
    empty and no twin class spans it (module docstring)."""

    order: tuple[int, ...]
    back: tuple[tuple[tuple[int, int], ...], ...]
    rest: tuple[int, ...]
    step_degree: tuple[int, ...]
    twin: tuple[int, ...]
    closes: tuple[tuple[int, ...], ...]
    cut: tuple[bool, ...]


@dataclass(slots=True)
class _Record:
    """What the morphism counts need of a graph: the integer adjacency rows
    (entry [a][b] is the a-b edge multiplicity; shared, never written), the
    degrees by vertex, the labelled vertices' degrees by label, |E|, and the
    prefix sums, from 0, of the degrees and of the pair multiplicities, each
    sorted in descending order (entry i is the top-i sum); and, once the
    graph is searched as a source, its `_Plan`."""

    rows: list[list[int]]
    degree: tuple[int, ...]
    label_degree: tuple[int, ...]
    edge_count: int
    prefix: tuple[int, ...]
    pair_prefix: tuple[int, ...]
    plan: _Plan | None = None


def _record(g: Multigraph) -> _Record:
    """g's record, built on first use and kept on g, without its plan."""
    if g._record is not None:
        return g._record
    rows = [[0] * g.vertex_count for _ in range(g.vertex_count)]
    for (u, v), m in g.pairs:
        rows[u][v] = rows[v][u] = m
    degree = tuple(map(sum, rows))
    record = _Record(
        rows, degree, tuple(degree[v] for _, v in g.labels), g.edge_count,
        tuple(accumulate(sorted(degree, reverse=True), initial=0)),
        tuple(accumulate(sorted((m for _, m in g.pairs), reverse=True),
                         initial=0)))
    object.__setattr__(g, "_record", record)
    return record


def _source_plan(g: Multigraph, record: _Record) -> _Plan:
    """g's plan, added to its record the first time g is a source.

    The order is the density core's plan for the distinct pairs of g with
    the labelled vertices pinned, so they are its first steps, by label.
    Its cut steps are the steps whose separator in that plan is empty,
    except those a twin class spans: after its first member, up to and
    including its last.
    """
    if record.plan is not None:
        return record.plan
    order, levels, separators = _make_plan(g.vertex_count,
                                           tuple(pair for pair, _ in g.pairs),
                                           tuple(v for _, v in g.labels))
    back = tuple(tuple((w, g.pairs[idx][1]) for w, idx in ready)
                 for ready in levels)
    mass = [sum(m for _, m in edges) for edges in back]
    classes = _twin_classes(_adjacency(g), order[g.k:])
    previous = {v: u for c in classes for u, v in zip(c, c[1:])}
    step = {v: i for i, v in enumerate(order)}
    cut = [sep == () for sep in separators] + [False]
    closes = [()] * len(order)
    for c in classes:
        if len(c) > 1:
            first, last = step[c[0]], step[c[-1]]
            cut[first + 1:last + 1] = [False] * (last - first)
            closes[last] = tuple(c)
    record.plan = _Plan(
        order, back, tuple(accumulate(reversed(mass), initial=0))[::-1],
        tuple(record.degree[v] for v in order),
        tuple(previous.get(v, -1) for v in order), tuple(closes), tuple(cut))
    return record.plan


def count_hom(h: Multigraph, g: Multigraph, *,
              limits: Limits = DEFAULT_LIMITS) -> int:
    """Number of node-and-edge homomorphisms h -> g.

    This is the density core's sum over vertex maps with g's adjacency
    matrix on every pair of h (each parallel h-copy picks a g-copy) and h's
    labelled vertices pinned to g's.  Only `max_maps` applies.
    """
    _check_label_counts(h, g)
    rows = _record(g).rows
    return _integrate(h.vertex_count, g.vertex_count,
                      [(u, v, rows, m) for (u, v), m in h.pairs],
                      {v: c for (_, v), (_, c) in zip(h.labels, g.labels)},
                      limits=limits)


def _surjective_vertex_map_sum(h: Multigraph, g: Multigraph, k: int | None, *,
                               limits: Limits) -> int:
    """Sum over surjections psi: h ->> g of the number of edge maps, times
    prod_v (k)_(|psi^-1(v)|) when k is given.

    All the pruning lives here, so every caller gets it: the count tests,
    the degree tests, the cuts, the twin fold and the memo of the module
    docstring.  With k given, a fiber larger than k has weight 0, so the
    capped-fiber tests run before the search and no branch grows such a
    fiber.  `room[c]` is how far c's fiber is below deg_g(c), clipped at 0,
    and `spare` what is left of the degree budget.  `rec(i, ...)` returns
    the weighted count of the ways to place steps i onwards; `memo` holds
    it at the cut steps, for this call only.
    """
    _check_label_counts(h, g)
    nv = g.vertex_count
    src = _record(h)
    tgt = _record(g)
    spare = 2 * (src.edge_count - tgt.edge_count)
    if (h.vertex_count < nv or len(h.pairs) < len(g.pairs) or spare < 0
            or sum(d - e for d, e in zip(src.label_degree, tgt.label_degree)
                   if d > e) > spare
            or any(a > b + spare for a, b in zip(src.prefix, tgt.prefix))):
        return 0
    if k is not None:
        extra = h.vertex_count - nv
        more = len(h.pairs) - len(g.pairs)
        if (h.vertex_count > k * nv
                or any(b > src.prefix[min(j + extra, k * j)]
                       for j, b in enumerate(tgt.prefix))
                or any(b > src.pair_prefix[j + more]
                       for j, b in enumerate(tgt.pair_prefix))):
            return 0
    if nv == 0:
        return 1 if h.vertex_count == 0 else 0
    plan = _source_plan(h, src)
    mult = tgt.rows
    load = [[0] * nv for _ in range(nv)]
    coverage = [0] * nv
    room = list(tgt.degree)
    assign = [0] * h.vertex_count
    order, back, rest, degree, twin, closes, cut = plan
    depth = len(order)
    choices = [(c,) for _, c in g.labels] + [range(nv)] * (depth - g.k)
    fiber_cap = h.vertex_count if k is None else k
    cap = limits.max_maps
    nodes = 0
    memo: dict[tuple[int, ...], int] = {}

    def rec(i: int, uncovered: int, missing: int, spare: int) -> int:
        nonlocal nodes
        if cut[i]:
            key = (i, *(coverage if k is not None else map(bool, coverage)),
                   *[load[a][b] for (a, b), _ in g.pairs])
            total = memo.get(key, -1)
            if total >= 0:
                return total
        nodes += 1
        if nodes > cap:
            raise limits.exceeded("max_maps", f"search visited {nodes} nodes")
        if i == depth:
            ways = 1
            for (a, b), m in g.pairs:
                ways *= _count_surjections(load[a][b], m)
            return ways
        v = order[i]
        edges = back[i]
        dv = degree[i]
        free_after = depth - i - 1
        mass_after = rest[i + 1]
        t = twin[i]
        members = closes[i]
        total = 0
        for c in choices[i] if t < 0 else range(assign[t], nv):
            fresh = coverage[c] == 0
            if uncovered - fresh > free_after or coverage[c] == fiber_cap:
                continue
            r = room[c]
            over = dv - r if dv > r else 0
            if over > spare:
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
                    room[c] = r - dv + over
                    ways = rec(i + 1, uncovered - fresh, missing - gained,
                               spare - over)
                    room[c] = r
                    coverage[c] -= 1
                    if ways and k is not None:
                        # the fiber weight (k)_size, one factor k - size + 1
                        # per placement (coverage[c] is back to size - 1)
                        ways *= k - coverage[c]
                    if ways and members:
                        # the class's t!/prod r! leaves its twin swaps
                        # reach; each step is exact, as every prefix of a
                        # class has an integer multinomial of its own
                        run = 1
                        for s in range(1, len(members)):
                            same = assign[members[s]] == assign[members[s - 1]]
                            run = run + 1 if same else 1
                            ways = ways * (s + 1) // run
                    total += ways
                for w, m in edges:
                    d = assign[w]
                    lrow[d] -= m
                    load[d][c] -= m
        if cut[i]:
            memo[key] = total
        return total

    return rec(0, nv, tgt.edge_count, spare)


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
    The capped-fiber tests read k as a fiber cap, so k must be at least 0.
    """
    if k < 0:
        raise ValueError("k must be at least 0")
    return _surjective_vertex_map_sum(h, g, k, limits=limits)


def _label_moves(classes: Sequence[Multigraph],
                 labels: int) -> list[list[int]]:
    """Index maps of the label permutations (1 2) and (1 2 ... k) on a full
    class list, each as the list of image indices; none when k < 2."""
    if labels < 2:
        return []
    index = {canonical_key(g): j for j, g in enumerate(classes)}
    swap = {1: 2, 2: 1}
    perms = [swap] if labels == 2 else [swap, {lab: lab % labels + 1
                                               for lab in range(1, labels + 1)}]
    moves = []
    for label_perm in perms:
        images = (Multigraph(g.vertex_count,
                             [(u, v, m) for (u, v), m in g.pairs],
                             {label_perm.get(lab, lab): v
                              for lab, v in g.labels})
                  for g in classes)
        moves.append([index[canonical_key(image)] for image in images])
    return moves


def surjection_table(n: int, labels: int = 0, k: int | None = None, *,
                     limits: Limits = DEFAULT_LIMITS) -> tuple[
        tuple[Multigraph, ...], tuple[tuple[int, ...], ...]]:
    """The `labels`-labelled n-edge classes in `surjection_total_order`, and
    the table of their counts, entry [i][j] `count_surj(classes[i],
    classes[j])`, or `surjection_weight_sum(classes[i], classes[j], k)` when
    k is given, both as tuples.

    In this order the table is lower triangular: a class surjects onto
    another only if that one comes first.  Only the pairs that can be
    quotients are searched (module docstring), and with two or more labels
    one pair per label-permutation orbit of pairs.  Each table is searched
    once per (n, labels, k, limits) in a process and shared by every
    caller: S, the scale matrices and the Whitney matrices alike.
    """
    if k is not None and k < 0:
        raise ValueError("k must be at least 0")
    return _surjection_table(n, labels, k, limits)


@lru_cache(maxsize=64)
def _surjection_table(n: int, labels: int, k: int | None, limits: Limits
                      ) -> tuple[tuple[Multigraph, ...],
                                 tuple[tuple[int, ...], ...]]:
    classes = tuple(surjection_total_order(enumerate_Hn(n, labels,
                                                        limits=limits)))
    moves = _label_moves(classes, labels)
    table = [[0] * len(classes) for _ in classes]
    done: set[tuple[int, int]] = set()
    for i, h in enumerate(classes):
        for j, g in enumerate(classes[:i + 1]):
            if (j < i and g.vertex_count >= h.vertex_count) or (i, j) in done:
                continue
            value = (count_surj(h, g, limits=limits) if k is None else
                     surjection_weight_sum(h, g, k, limits=limits))
            table[i][j] = value
            if not moves:
                continue
            done.add((i, j))
            orbit = [(i, j)]
            while orbit:
                a, b = orbit.pop()
                for move in moves:
                    pair = (move[a], move[b])
                    if pair not in done:
                        done.add(pair)
                        table[pair[0]][pair[1]] = value
                        orbit.append(pair)
    return classes, tuple(map(tuple, table))


def t_combinatorial(h: Multigraph, g: Multigraph, *,
                    limits: Limits = DEFAULT_LIMITS) -> Fraction:
    """hom(h, g) normalized by |V(g)|^|V(h)|, as an exact rational."""
    if g.vertex_count == 0:
        raise ValueError("target graph must have at least one vertex")
    return Fraction(count_hom(h, g, limits=limits),
                    g.vertex_count ** h.vertex_count)

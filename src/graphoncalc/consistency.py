"""The integer matrices relating derivative data across partition scales.

Splitting every part of a p-part kernel into k pieces rewrites a basis-edge
tuple as a k^(2n)-term sum of finer basis tuples.  Classifying the finer
tuples by isomorphism class gives a fixed nonnegative integer matrix, indexed
by n-edge classes, independent of p and of the functional being evaluated.
Two independent routes compute it: the closed formula (automorphism-corrected
weighted surjection counts) and the direct fiber enumeration, which double-
check each other.

`verify_structure` machine-checks the structure theory on them.  Its
scale-change relation (d) is one integer identity per k,
Pi_k S = S diag(k^|V(H)|) with S[H][g] = |Surj(H, g)|; it reads no scale,
so it holds at every p.  S and the weighted tables behind Pi_k are
`morphisms.surjection_table`, which searches each once per process, so
Taylor recovery back-substitutes on the same S.  Both list the classes in
the surjection order, and a matrix keeps its table by position in it.
Check (e) ties S to the derivatives: the n-th derivative of t(H, .) at 0
on a basis tuple of class h is |Surj(H, h)| / p^|V(H)|, which is column H
of `series.surjection_matrix(n, p)`, read from S; (e) checks S through it
at every scale the report reads, which its detail names.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from . import linalg
from .calculus import ConsistencyVector, _by_class, extract_T
from .limits import DEFAULT_LIMITS, Limits
from .morphisms import surjection_table
from .multigraph import (Multigraph, canonical_key, enumerate_Hn,
                         enumerate_Hnp, graph_signature, strip_isolated,
                         surjection_positions, surjection_total_order)
from .series import QuantumGraph, surjection_matrix


@dataclass(frozen=True)
class ConsistencyMatrix:
    """Nonnegative integer matrix over the n-edge classes, listed in
    `surjection_total_order`: entry (classes[a], classes[b]) is
    table[a][b], nonzero only when a representative of classes[b]
    surjects onto one of classes[a], so the table is upper triangular, and
    the diagonal is strictly positive.  Matrices compare by (n, k, table);
    `value` and `rows` find the positions of other graphs by canonical
    key, and refuse a graph of no class with a ValueError."""

    n: int
    k: int
    classes: tuple[Multigraph, ...] = field(compare=False)
    table: tuple[tuple[int, ...], ...]

    def _positions(self, graphs) -> list[int]:
        position = {canonical_key(g): a for a, g in enumerate(self.classes)}
        return [_by_class(position, g, f"{self.n}-edge multigraphs without "
                          "isolated vertices") for g in graphs]

    def value(self, g: Multigraph, h: Multigraph) -> int:
        a, b = self._positions((g, h))
        return self.table[a][b]

    def rows(self, order: tuple[Multigraph, ...] | None = None) -> list[list[int]]:
        index = self._positions(self.classes if order is None else order)
        return [[self.table[a][b] for b in index] for a in index]


def pi_formula(n: int, k: int, *,
               limits: Limits = DEFAULT_LIMITS) -> ConsistencyMatrix:
    """Closed form: entry (g, h) sums, over surjections of a representative H
    of h onto one G of g, the product over G-vertices of the falling
    factorial of k at the fiber size, divided by |Aut(H)| (exactly).

    The sums are `surjection_table(n, 0, k)`, searched once per process,
    whose class order the matrix keeps: row H of that table, divided by
    |Aut(H)|, is column H of the matrix.  A pair is searched only where G
    can be a quotient of H: H with more vertices and at least as many
    distinct pairs as G, or H isomorphic to G.  |Aut(H)| is the sum of H
    onto itself divided by k^|V(H)|, so it needs no search of its own;
    ArithmeticError if that or any entry does not divide exactly."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    classes, table = surjection_table(n, 0, k, limits=limits)
    columns = []
    for i, (H, row) in enumerate(zip(classes, table)):
        # the surjections of H onto itself are its automorphisms, each
        # with every fiber of size 1 and so of weight k^|V(H)|
        scale = k ** H.vertex_count
        aut, remainder = divmod(row[i], scale)
        if remainder or aut < 1:
            raise ArithmeticError(
                f"weighted surjection sum {row[i]} of a class onto itself is "
                f"not a positive multiple of k^|V| = {scale}; morphism "
                f"counting is inconsistent")
        for total in row:
            if total % aut:
                raise ArithmeticError(
                    f"weighted surjection sum {total} is not divisible by "
                    f"|Aut| = {aut}; morphism counting is inconsistent")
        columns.append([total // aut for total in row])
    return ConsistencyMatrix(n, k, classes, tuple(zip(*columns)))


def pi_fiber_oracle(n: int, k: int, p: int, *,
                    limits: Limits = DEFAULT_LIMITS) -> ConsistencyMatrix:
    """Direct route: expand one basis tuple per class into all k^(2n) refined
    tuples and count how many land in each class.  The classes are listed
    in `surjection_total_order`, as `pi_formula` lists them.

    A basis tuple of class g at p >= 2n parts spans |V(g)| of them, so each
    refined tuple is built on the k |V(g)| parts they split into; the parts
    it misses are isolated vertices, which its class drops.  p is only
    checked."""
    if p < 2 * n:
        raise ValueError("the fiber construction needs p >= 2n")
    if k ** (2 * n) > limits.max_index_tuples:
        raise limits.exceeded("max_index_tuples",
                              f"k^(2n) = {k ** (2 * n)} index tuples")
    classes = tuple(surjection_total_order(enumerate_Hn(n, limits=limits)))
    position = {canonical_key(g): b for b, g in enumerate(classes)}
    table = [[0] * len(classes) for _ in classes]
    for g, row in zip(classes, table):
        slots = g.edge_slots()
        for indices in itertools.product(range(1, k + 1), repeat=2 * n):
            edges = []
            for l, (u, v) in enumerate(slots):
                i, j = indices[2 * l], indices[2 * l + 1]
                edges.append((k * u + i - 1, k * v + j - 1))
            refined = Multigraph(k * g.vertex_count, edges)
            row[position[canonical_key(strip_isolated(refined))]] += 1
    return ConsistencyMatrix(n, k, classes, tuple(map(tuple, table)))


def apply_constraint(A: ConsistencyVector, k: int, *,
                     limits: Limits = DEFAULT_LIMITS) -> ConsistencyVector:
    """Push derivative data from the kp-part scale down to the p-part scale
    through the integer matrix; exact.  Each class at either scale is read
    at the position of its unpadded class (`surjection_positions`), which
    is its row and column in the matrix; an entry of A that is not an n-edge
    class on exactly A.p vertices is refused with a ValueError."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if A.p % k:
        raise ValueError(f"vector lives at {A.p} parts, not a multiple of {k}")
    p = A.p // k
    if p < 2:
        raise ValueError("target scale must have at least 2 parts")
    table = pi_formula(A.n, k, limits=limits).table
    fine_positions = surjection_positions(A.n, A.p, limits=limits)
    if A.entries.keys() - fine_positions.keys():
        classes = f"{A.n}-edge multigraphs on exactly {A.p} vertices"
        # name the first class the vector lists that has no position
        for h in A.classes:
            _by_class(fine_positions, h, classes)
        raise ValueError(f"an entry of the vector is not a class of {classes}")
    fine = [(fine_positions[key], value) for key, value in A.entries.items()]
    entries = {}
    for gkey, a in surjection_positions(A.n, p, limits=limits).items():
        row = table[a]
        entries[gkey] = sum((row[b] * value for b, value in fine if row[b]),
                            Fraction(0))
    return ConsistencyVector(A.n, p, enumerate_Hnp(A.n, p, limits=limits),
                             entries)


@dataclass(frozen=True)
class StructureCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class StructureReport:
    n: int
    checks: tuple[StructureCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = [f"structure checks for n={self.n}:"]
        for c in self.checks:
            lines.append(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def verify_structure(n: int, p_max: int | None = None, k_max: int = 3, *,
                     limits: Limits = DEFAULT_LIMITS) -> StructureReport:
    """Machine-check the structure theory at one edge count.

    (a) each scale matrix is triangular with positive diagonal under the
        surjection order and supported on surjection pairs,
    (b) the matrices are invertible (p >= 2n scales),
    (c) the derivative vectors of the n-edge densities span everything:
        their matrix at p = 2n has nonzero determinant,
    (d) the scale-change relation, as the integer identity
        Pi_k S = S diag(k^|V(H)|) for k = 2 .. k_max, where
        S[H][g] = |Surj(H, g)|; it reads no scale, so it holds at every p,
    (e) derivatives are surjection counts: `extract_T(H, n, s)` equals
        column H of `surjection_matrix(n, s)`, |Surj(H, h)| / s^|V(H)| on
        the class h, at s = 2n and at p and k*p for every p <= p_max and
        k <= k_max with k*p within `max_parts`; the detail names those
        scales.

    S is `surjection_table(n)`, searched once per process and shared with
    `surjection_matrix`, so the report runs no surjection search of its
    own beyond that table and the weighted tables of the scale matrices.
    Taylor recovery back-substitutes on S, and (e) checks S through
    `surjection_matrix` at every scale.  With (e), (d)
    is the relation between the derivative vectors at p and k*p parts, for
    every p.
    """
    if p_max is None:
        p_max = 2 * n
    for name, value, least in (("n", n, 1), ("k_max", k_max, 2),
                               ("p_max", p_max, 2)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}")
    checks: list[StructureCheck] = []
    classes = enumerate_Hn(n, limits=limits)
    # S and the scale matrices list the classes in the surjection order, so
    # (a)'s triangularity compares indices; (c) and (e) keep the listing
    # order of the columns of `surjection_matrix`, which fixes (c)'s sign
    ordered, counts = surjection_table(n, limits=limits)

    pi_rows = {}
    for k in range(1, k_max + 1):
        rows = pi_rows[k] = pi_formula(n, k, limits=limits).table
        details = []
        for a, row in enumerate(rows):
            for b, value in enumerate(row):
                if value > 0 and not counts[b][a]:
                    details.append("support violates the surjection condition")
                if value > 0 and a > b:
                    details.append("entry above the diagonal order")
            if row[a] <= 0:
                details.append("non-positive diagonal")
        checks.append(StructureCheck(
            f"triangularity k={k}", not details,
            details[0] if details else "triangular with positive diagonal"))

        det = linalg.determinant(rows)
        checks.append(StructureCheck(
            f"invertibility k={k}", det != 0, f"det = {det}"))

    p0 = 2 * n
    scales = sorted({p0, *(s for p in range(2, p_max + 1)
                           for k in range(2, k_max + 1)
                           if k * p <= limits.max_parts for s in (p, k * p))})
    vectors = {(H, s): extract_T(QuantumGraph.from_graph(H), n, s, limits=limits)
               for H in classes for s in scales}

    t_rows = [[value for _, value in vectors[H, p0].as_items()]
              for H in classes]
    det = linalg.determinant(t_rows)
    checks.append(StructureCheck(
        f"density-derivative basis at p={p0}", det != 0, f"det = {det}"))

    relation = next((f"relation fails for {graph_signature(H)} at k={k}"
                     for k in range(2, k_max + 1)
                     for H, row in zip(ordered, counts)
                     if [sum(map(mul, pi_row, row)) for pi_row in pi_rows[k]]
                     != [k ** H.vertex_count * c for c in row]), None)
    checks.append(StructureCheck(
        "scale-change relation", relation is None, relation or
        f"Pi_k S = S diag(k^|V(H)|) for k=2..{k_max}: holds at every scale"))

    wrong = next((f"T_{s}({graph_signature(H)}) is not |Surj(H, h)| / p^|V(H)|"
                  for s in scales for H, column in zip(
                      classes, zip(*surjection_matrix(n, s, limits=limits)[2]))
                  if tuple(v for _, v in vectors[H, s].as_items()) != column),
                 None)
    checks.append(StructureCheck(
        "derivatives are surjection counts", wrong is None, wrong or
        f"T_p(H)[h] = |Surj(H, h)| / p^|V(H)| at p={', '.join(map(str, scales))}"))
    return StructureReport(n, tuple(checks))

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
so it holds at every p.  S is `morphisms.surjection_counts`, searched once
per edge count in a process, and Taylor recovery back-substitutes on the
same table.  Check (e) ties it to the derivatives: the n-th derivative of
t(H, .) at 0 on a basis tuple of class h is |Surj(H, h)| / p^|V(H)|, which
is column H of `series.surjection_matrix(n, p)`, read from S; (e) checks S
through it at every scale the report reads, which its detail names.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import linalg
from .calculus import ConsistencyVector, extract_T
from .limits import DEFAULT_LIMITS, Limits
from .morphisms import (surjection_counts, surjection_table,
                        surjection_total_order)
from .multigraph import (Multigraph, canonical_key, enumerate_Hn,
                         enumerate_Hnp, graph_signature, strip_isolated,
                         stripped_keys)
from .series import QuantumGraph, surjection_matrix


@dataclass(frozen=True)
class ConsistencyMatrix:
    """Nonnegative integer matrix over the n-edge classes, listed in
    `surjection_total_order`; entry (g, h) is nonzero only when a
    representative of h surjects onto one of g, so `rows()` is upper
    triangular, and the diagonal is strictly positive."""

    n: int
    k: int
    classes: tuple[Multigraph, ...] = field(compare=False)
    entries: dict[tuple[bytes, bytes], int]

    def value(self, g: Multigraph, h: Multigraph) -> int:
        return self.entries[(canonical_key(g), canonical_key(h))]

    def value_by_key(self, gkey: bytes, hkey: bytes) -> int:
        return self.entries[(gkey, hkey)]

    def rows(self, order: tuple[Multigraph, ...] | None = None) -> list[list[int]]:
        order = order or self.classes
        keys = [canonical_key(g) for g in order]
        return [[self.entries[(gk, hk)] for hk in keys] for gk in keys]


@lru_cache(maxsize=64)
def _pi_formula_cached(n: int, k: int, limits: Limits) -> ConsistencyMatrix:
    classes, table = surjection_table(n, 0, k, limits=limits)
    entries: dict[tuple[bytes, bytes], int] = {}
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
        hkey = canonical_key(H)
        for G, total in zip(classes, row):
            quotient, remainder = divmod(total, aut)
            if remainder:
                raise ArithmeticError(
                    f"weighted surjection sum {total} is not divisible by "
                    f"|Aut| = {aut}; morphism counting is inconsistent")
            entries[(canonical_key(G), hkey)] = quotient
    return ConsistencyMatrix(n, k, classes, entries)


def pi_formula(n: int, k: int, *,
               limits: Limits = DEFAULT_LIMITS) -> ConsistencyMatrix:
    """Closed form: entry (g, h) sums, over surjections of a representative H
    of h onto one G of g, the product over G-vertices of the falling
    factorial of k at the fiber size, divided by |Aut(H)| (exactly).

    The sums are `surjection_table(n, 0, k)`, whose class order the matrix
    keeps, so a pair is searched only where G can be a quotient of H: H
    with more vertices and at least as many distinct pairs as G, or H
    isomorphic to G.  |Aut(H)| is the sum of H onto itself divided by
    k^|V(H)|, so it needs no search of its own; ArithmeticError if that or
    any entry does not divide exactly."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return _pi_formula_cached(n, k, limits)


def pi_fiber_oracle(n: int, k: int, p: int, *,
                    limits: Limits = DEFAULT_LIMITS) -> ConsistencyMatrix:
    """Direct route: expand one basis tuple per class into all k^(2n) refined
    tuples and count how many land in each class.  The classes are listed
    in `surjection_total_order`, as `pi_formula` lists them."""
    if p < 2 * n:
        raise ValueError("the fiber construction needs p >= 2n")
    if k ** (2 * n) > limits.max_index_tuples:
        raise limits.exceeded("max_index_tuples",
                              f"k^(2n) = {k ** (2 * n)} index tuples")
    classes = tuple(surjection_total_order(enumerate_Hn(n, limits=limits)))
    keys = {canonical_key(g) for g in classes}
    entries: dict[tuple[bytes, bytes], int] = {
        (gk, hk): 0 for gk in keys for hk in keys}
    for g in classes:
        gkey = canonical_key(g)
        slots = g.edge_slots()
        for indices in itertools.product(range(1, k + 1), repeat=2 * n):
            edges = []
            for l, (u, v) in enumerate(slots):
                i, j = indices[2 * l], indices[2 * l + 1]
                edges.append((k * u + i - 1, k * v + j - 1))
            refined = Multigraph(k * p, edges)
            hkey = canonical_key(strip_isolated(refined))
            entries[(gkey, hkey)] += 1
    return ConsistencyMatrix(n, k, classes, entries)


def apply_constraint(A: ConsistencyVector, k: int, *,
                     limits: Limits = DEFAULT_LIMITS) -> ConsistencyVector:
    """Push derivative data from the kp-part scale down to the p-part scale
    through the integer matrix; exact."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if A.p % k:
        raise ValueError(f"vector lives at {A.p} parts, not a multiple of {k}")
    p = A.p // k
    if p < 2:
        raise ValueError("target scale must have at least 2 parts")
    matrix = pi_formula(A.n, k, limits=limits)
    fine_stripped = stripped_keys(A.n, A.p, limits=limits)
    fine = [(fine_stripped[key], value) for key, value in A.entries.items()]
    entries: dict[bytes, Fraction] = {}
    for gkey, gkey_stripped in stripped_keys(A.n, p, limits=limits).items():
        acc = Fraction(0)
        for hkey_stripped, value in fine:
            weight = matrix.value_by_key(gkey_stripped, hkey_stripped)
            if weight:
                acc += weight * value
        entries[gkey] = acc
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

    S is read from `surjection_counts`, searched once per edge count in a
    process and shared with `surjection_matrix`, so the report runs no
    surjection search of its own beyond that table and the scale matrices.
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
    ordered, counts = surjection_counts(n, limits)

    pi_rows = {}
    for k in range(1, k_max + 1):
        rows = pi_rows[k] = pi_formula(n, k, limits=limits).rows()
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

"""The integer matrices relating derivative data across partition scales.

Splitting every part of a p-part kernel into k pieces rewrites a basis-edge
tuple as a k^(2n)-term sum of finer basis tuples.  Classifying the finer
tuples by isomorphism class gives a fixed nonnegative integer matrix, indexed
by n-edge classes, independent of p and of the functional being evaluated.
Two independent routes compute it: the closed formula (automorphism-corrected
weighted surjection counts) and the direct fiber enumeration, which double-
check each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .calculus import ConsistencyVector, extract_T
from .limits import DEFAULT_LIMITS, CapExceeded, Limits
from .morphisms import count_aut, count_surj, surjection_weight_sum
from .multigraph import (Multigraph, canonical_key, enumerate_Hn,
                         enumerate_Hnp, graph_signature, simplify,
                         strip_isolated)
from .series import QuantumGraph


@dataclass(frozen=True)
class ConsistencyMatrix:
    """Nonnegative integer matrix over the n-edge classes; entry (g, h) is
    nonzero only when a representative of h surjects onto one of g, and the
    diagonal is strictly positive."""

    n: int
    k: int
    classes: tuple[Multigraph, ...]
    entries: dict[tuple[bytes, bytes], int]

    def value(self, g: Multigraph, h: Multigraph) -> int:
        return self.entries[(canonical_key(g), canonical_key(h))]

    def value_by_key(self, gkey: bytes, hkey: bytes) -> int:
        return self.entries[(gkey, hkey)]

    def rows(self, order: tuple[Multigraph, ...] | None = None) -> list[list[int]]:
        order = order or self.classes
        keys = [canonical_key(g) for g in order]
        return [[self.entries[(gk, hk)] for hk in keys] for gk in keys]

    def __eq__(self, other):
        if not isinstance(other, ConsistencyMatrix):
            return NotImplemented
        return (self.n, self.k, self.entries) == (other.n, other.k, other.entries)


@lru_cache(maxsize=None)
def _pi_formula_cached(n: int, k: int, limits: Limits) -> ConsistencyMatrix:
    classes = enumerate_Hn(n, limits=limits)
    entries: dict[tuple[bytes, bytes], int] = {}
    for H in classes:
        aut = count_aut(H, limits=limits)
        hkey = canonical_key(H)
        for G in classes:
            total = surjection_weight_sum(H, G, k, limits=limits)
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
    factorial of k at the fiber size, divided by |Aut(H)| (exactly)."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return _pi_formula_cached(n, k, limits)


def pi_fiber_oracle(n: int, k: int, p: int, *,
                    limits: Limits = DEFAULT_LIMITS) -> ConsistencyMatrix:
    """Direct route: expand one basis tuple per class into all k^(2n) refined
    tuples and count how many land in each class."""
    if p < 2 * n:
        raise ValueError("the fiber construction needs p >= 2n")
    if k ** (2 * n) > limits.max_index_tuples:
        raise CapExceeded(f"k^(2n) = {k ** (2 * n)} exceeds the enumeration cap")
    classes = enumerate_Hn(n, limits=limits)
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
    coarse = enumerate_Hnp(A.n, p, limits=limits)
    fine = [(canonical_key(strip_isolated(h)), A.entries[canonical_key(h)])
            for h in A.classes]
    entries: dict[bytes, Fraction] = {}
    for g in coarse:
        gkey_stripped = canonical_key(strip_isolated(g))
        acc = Fraction(0)
        for hkey_stripped, value in fine:
            weight = matrix.value_by_key(gkey_stripped, hkey_stripped)
            if weight:
                acc += weight * value
        entries[canonical_key(g)] = acc
    return ConsistencyVector(A.n, p, coarse, entries)


def surjection_total_order(classes) -> list[Multigraph]:
    """Total order refining 'a representative surjects onto': simple-edge
    count, then vertex count, then canonical key."""
    return sorted(classes, key=lambda g: (simplify(g).edge_count,
                                          g.vertex_count, canonical_key(g)))


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
    (d) the scale-change relation holds exactly for every n-edge density.
    """
    if p_max is None:
        p_max = 2 * n
    checks: list[StructureCheck] = []
    classes = enumerate_Hn(n, limits=limits)
    ordered = surjection_total_order(classes)
    position = {canonical_key(g): i for i, g in enumerate(ordered)}

    for k in range(1, k_max + 1):
        matrix = pi_formula(n, k, limits=limits)
        ok = True
        details = []
        for g in classes:
            for h in classes:
                value = matrix.value(g, h)
                surjects = count_surj(h, g, limits=limits) > 0
                if value > 0 and not surjects:
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
        vec = extract_T(QuantumGraph.from_graph(H), n, p0, limits=limits)
        t_rows.append([vec.entries[canonical_key(h)] for h in coarse])
    det = linalg.determinant(t_rows)
    checks.append(StructureCheck(
        f"density-derivative basis at p={p0}", det != 0, f"det = {det}"))

    relation_ok = True
    relation_detail = "scale-change relation holds exactly"
    for p in range(2, p_max + 1):
        for k in range(2, k_max + 1):
            if k * p > limits.max_parts:
                continue
            for H in classes:
                F = QuantumGraph.from_graph(H)
                fine = extract_T(F, n, k * p, limits=limits)
                direct = extract_T(F, n, p, limits=limits)
                if apply_constraint(fine, k, limits=limits) != direct:
                    relation_ok = False
                    relation_detail = (f"relation fails for "
                                       f"{graph_signature(H)} at p={p}, k={k}")
    checks.append(StructureCheck("scale-change relation", relation_ok,
                                 relation_detail))
    return StructureReport(n, tuple(checks))

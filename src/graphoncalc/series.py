"""Quantum graphs, graph power series, and Taylor-coefficient recovery.

A quantum graph is a finite rational linear combination of canonical
(partially labelled) multigraphs; the product glues equally labelled
vertices, so evaluation against a kernel is an algebra homomorphism into the
rationals.  Power series are stored as a truncation (one quantum graph per
degree) plus, optionally, a closed form for the degree norms beyond the
truncation, which is what the radius of convergence and tail bounds need.

Taylor recovery back-substitutes on the triangular surjection-count table
S: the table comes from exact morphism counting, the values from whatever
derivative oracle the caller supplies, so the two routes stay independent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .density import Pins, density, labelled_density, part_of
from .limits import DEFAULT_LIMITS, Limits
from .morphisms import surjection_table
from .multigraph import (Multigraph, canonical_key, enumerate_Hn,
                         enumerate_Hnp, glue_product, graph_from_json,
                         graph_signature, graph_to_json, pad_labels,
                         surjection_positions, _json_int)
from .stepkernel import StepKernel, basis_edge, _to_fraction


class QuantumGraph:
    """A finite rational linear combination of labelled multigraphs."""

    __slots__ = ("k", "_terms")

    def __init__(self, terms: Iterable[tuple[Multigraph, object]] = (), k: int = 0):
        if k < 0:
            raise ValueError(f"label count k must be at least 0, not {k}")
        items = [(g, _to_fraction(c)) for g, c in terms]
        k = max([k, *(g.k for g, _ in items)])
        merged: dict[bytes, tuple[Multigraph, Fraction]] = {}
        for g, c in items:
            g = pad_labels(g, k)
            key = canonical_key(g)
            if key in merged:
                old_g, old_c = merged[key]
                merged[key] = (old_g, old_c + c)
            else:
                merged[key] = (g, c)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_terms",
                           {key: gc for key, gc in sorted(merged.items())
                            if gc[1] != 0})

    def __setattr__(self, name, value):
        raise AttributeError("QuantumGraph is immutable")

    @classmethod
    def from_graph(cls, g: Multigraph, coeff=1) -> "QuantumGraph":
        return cls([(g, coeff)])

    @classmethod
    def unit(cls, k: int = 0) -> "QuantumGraph":
        return cls([(Multigraph(k, (), {lab: lab - 1 for lab in range(1, k + 1)}), 1)],
                   k=k)

    @classmethod
    def zero(cls, k: int = 0) -> "QuantumGraph":
        return cls((), k=k)

    # -- inspection -------------------------------------------------------

    def terms(self) -> list[tuple[Multigraph, Fraction]]:
        return list(self._terms.values())

    def coefficient(self, g: Multigraph) -> Fraction:
        g = pad_labels(g, self.k)
        return self._terms.get(canonical_key(g), (None, Fraction(0)))[1]

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degrees(self) -> list[int]:
        return sorted({g.edge_count for g, _ in self._terms.values()})

    @property
    def max_degree(self) -> int:
        return max((g.edge_count for g, _ in self._terms.values()), default=0)

    def degree_slice(self, n: int) -> "QuantumGraph":
        return QuantumGraph([(g, c) for g, c in self._terms.values()
                             if g.edge_count == n], k=self.k)

    def coefficient_norm(self) -> Fraction:
        return sum((abs(c) for _, c in self._terms.values()), Fraction(0))

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "QuantumGraph") -> "QuantumGraph":
        if not isinstance(other, QuantumGraph):
            return NotImplemented
        return QuantumGraph([*self._terms.values(), *other._terms.values()],
                            k=max(self.k, other.k))

    def __sub__(self, other: "QuantumGraph") -> "QuantumGraph":
        return self + (-1) * other

    def __rmul__(self, c) -> "QuantumGraph":
        c = _to_fraction(c)
        return QuantumGraph([(g, c * coeff) for g, coeff in self._terms.values()],
                            k=self.k)

    def __mul__(self, other):
        if isinstance(other, QuantumGraph):
            return quantum_multiply(self, other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, QuantumGraph):
            return NotImplemented
        if self.k != other.k:
            a, b = pad_quantum(self, other)
            return a == b
        return ({k: c for k, (_, c) in self._terms.items()}
                == {k: c for k, (_, c) in other._terms.items()})

    __hash__ = None

    def __repr__(self):
        n = len(self._terms)
        return f"QuantumGraph(k={self.k}, {n} term{'s' if n != 1 else ''})"


def pad_quantum(F: QuantumGraph, G: QuantumGraph) -> tuple[QuantumGraph, QuantumGraph]:
    k = max(F.k, G.k)
    return (QuantumGraph(F.terms(), k=k), QuantumGraph(G.terms(), k=k))


def quantum_multiply(F: QuantumGraph, G: QuantumGraph) -> QuantumGraph:
    """Bilinear extension of the label-gluing product; degrees add."""
    F, G = pad_quantum(F, G)
    out = []
    for g1, c1 in F.terms():
        for g2, c2 in G.terms():
            out.append((glue_product(g1, g2), c1 * c2))
    return QuantumGraph(out, k=F.k)


def eval_quantum(F: QuantumGraph, f: StepKernel, pins: Pins | None = None, *,
                 limits: Limits = DEFAULT_LIMITS) -> Fraction:
    """Evaluate the linear combination of (pinned) densities at a kernel."""
    if F.k and not pins:
        raise ValueError("a labelled quantum graph needs pins to evaluate")
    total = Fraction(0)
    for g, c in F.terms():
        total += c * labelled_density(g, f, pins or {}, limits=limits)
    return total


def quantum_to_json(F: QuantumGraph) -> dict:
    return {"k": F.k,
            "terms": [{"graph": graph_to_json(g), "coeff": str(c)}
                      for g, c in F.terms()]}


def quantum_from_json(obj: Mapping) -> QuantumGraph:
    try:
        k = _json_int(obj.get("k", 0))
        terms = [(graph_from_json(t["graph"]), Fraction(str(t["coeff"])))
                 for t in obj.get("terms", [])]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed quantum graph object: {exc}") from exc
    return QuantumGraph(terms, k=k)


# -- power series -------------------------------------------------------------


@dataclass(frozen=True)
class GeometricTail:
    """Closed-form degree norms beyond a truncation.

    The norm at degree start + j*stride is scale * ratio**j; other degrees
    past `start` carry norm zero.  `is_bound` marks tails that only dominate
    the true norms (sums and products of series can only be bounded this way
    in general), in which case the radius derived from the tail is a
    certified lower bound rather than the exact value.
    """

    start: int
    stride: int
    ratio: Fraction
    scale: Fraction
    is_bound: bool = False

    def __post_init__(self):
        if self.stride < 1 or self.start < 0:
            raise ValueError("tail needs start >= 0 and stride >= 1")
        if self.ratio <= 0 or self.scale < 0:
            raise ValueError("tail needs ratio > 0 and scale >= 0")


class RadiusResult(NamedTuple):
    lower: float
    exact: float | None


class SeriesValue(NamedTuple):
    value: Fraction
    tail_bound: Fraction | None


class PowerSeries:
    """A graph power series: degree slices plus optional tail-norm data.

    `complete=True` declares that every coefficient beyond the stored slices
    is zero (a polynomial).  A series that is a genuine truncation should
    either carry a :class:`GeometricTail` describing its degree norms or be
    flagged incomplete, in which case only heuristic radius estimates are
    available.
    """

    __slots__ = ("k", "pins", "slices", "tail", "complete")

    def __init__(self, slices: Mapping[int, QuantumGraph], *,
                 k: int = 0, pins: Pins | None = None,
                 tail: GeometricTail | None = None,
                 complete: bool | None = None):
        clean: dict[int, QuantumGraph] = {}
        for n, qg in sorted(slices.items()):
            if qg.is_zero:
                continue
            if qg.degrees() not in ([], [n]):
                raise ValueError(f"degree-{n} slice contains other degrees")
            if qg.k > k:
                raise ValueError("slice has more labels than the series")
            clean[n] = QuantumGraph(qg.terms(), k=k)
        if k and not pins:
            raise ValueError("a labelled series needs pins")
        pins = dict(pins or {})
        if sorted(pins) != list(range(1, k + 1)):
            raise ValueError("pins must cover labels 1..k exactly")
        if complete is None:
            complete = tail is None
        if tail is not None:
            if complete:
                raise ValueError("a complete series cannot carry a tail")
            top = max(clean, default=-1)
            if tail.start <= top:
                raise ValueError("tail must start beyond the stored slices")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "pins", pins)
        object.__setattr__(self, "slices", clean)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "complete", complete)

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    @classmethod
    def polynomial(cls, F: QuantumGraph, pins: Pins | None = None) -> "PowerSeries":
        return cls({n: F.degree_slice(n) for n in F.degrees()}, k=F.k, pins=pins)

    @property
    def max_degree(self) -> int:
        return max(self.slices, default=0)

    def slice(self, n: int) -> QuantumGraph:
        return self.slices.get(n, QuantumGraph.zero(self.k))

    # -- arithmetic -------------------------------------------------------

    def _combined_slices(self, other: "PowerSeries", scale_self, scale_other):
        degrees = set(self.slices) | set(other.slices)
        return {n: scale_self * self.slice(n) + scale_other * other.slice(n)
                for n in degrees}

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        return self.linear_combination(other, 1, 1)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self.linear_combination(other, 1, -1)

    def linear_combination(self, other: "PowerSeries", c, d) -> "PowerSeries":
        if self.k != other.k or self.pins != other.pins:
            raise ValueError("series must share labels and pins")
        slices = self._combined_slices(other, _to_fraction(c), _to_fraction(d))
        tail, complete = _combine_tails_add(self, other,
                                            abs(_to_fraction(c)),
                                            abs(_to_fraction(d)))
        return PowerSeries(slices, k=self.k, pins=self.pins, tail=tail,
                           complete=complete)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        if self.k != other.k or self.pins != other.pins:
            raise ValueError("series must share labels and pins")
        if self.complete and other.complete:
            top = self.max_degree + other.max_degree
            complete = True
        else:
            incomplete = [s for s in (self, other) if not s.complete]
            top = min(s.max_degree for s in incomplete)
            complete = False
        slices: dict[int, QuantumGraph] = {}
        for n in range(top + 1):
            acc = QuantumGraph.zero(self.k)
            for a in range(n + 1):
                sa, sb = self.slice(a), other.slice(n - a)
                if not sa.is_zero and not sb.is_zero:
                    acc = acc + quantum_multiply(sa, sb)
            if not acc.is_zero:
                slices[n] = acc
        tail = None if complete else _product_tail_bound(self, other, top)
        return PowerSeries(slices, k=self.k, pins=self.pins, tail=tail,
                           complete=complete)


def _pure_geometric_profile(s: PowerSeries):
    """(start, stride, ratio, scale) when every nonzero norm of s, slices and
    tail alike, follows one geometric law; None otherwise."""
    if s.tail is None or s.tail.is_bound:
        return None
    t = s.tail
    points = [(n, s.slices[n].coefficient_norm()) for n in sorted(s.slices)]
    points = [(n, v) for n, v in points if v != 0]
    for n, v in points:
        if (t.start - n) % t.stride:
            return None
        j = (n - t.start) // t.stride
        if v != t.scale * t.ratio ** j:
            return None
    start = min([t.start, *(n for n, _ in points)])
    j0 = (start - t.start) // t.stride
    return (start, t.stride, t.ratio, t.scale * t.ratio ** j0)


def _combine_tails_add(a: PowerSeries, b: PowerSeries, ca: Fraction, cb: Fraction):
    if a.complete and b.complete:
        return None, True
    ta, tb = a.tail, b.tail
    if a.complete or b.complete:
        poly, tailed = (a, b) if a.complete else (b, a)
        t = tailed.tail
        if t is None:
            return None, False
        if poly.max_degree >= t.start:
            return None, False
        c = cb if a.complete else ca
        # beyond the polynomial's degree only the tailed series contributes,
        # so scaling its norms by |c| is exact
        return GeometricTail(t.start, t.stride, t.ratio, c * t.scale,
                             is_bound=t.is_bound), False
    if ta is None or tb is None:
        return None, False
    if (ta.start, ta.stride) != (tb.start, tb.stride):
        return None, False
    ratio = max(ta.ratio, tb.ratio)
    return GeometricTail(ta.start, ta.stride, ratio,
                         ca * ta.scale + cb * tb.scale, is_bound=True), False


def _product_tail_bound(a: PowerSeries, b: PowerSeries,
                        truncation: int) -> GeometricTail | None:
    """Geometric bound on the product norms when one factor is a polynomial
    aligned with the other's pure geometric norm profile.

    The bound sum_b s_b(poly) * law(m - b) keeps the profile's ratio, so it
    is geometric again; it dominates every degree past the truncation, with
    off-pattern degrees genuinely zero.
    """
    if a.complete:
        poly, ser = a, b
    elif b.complete:
        poly, ser = b, a
    else:
        return None
    profile = _pure_geometric_profile(ser)
    if profile is None:
        return None
    start, stride, ratio, scale = profile
    poly_norms = [(n, poly.slice(n).coefficient_norm()) for n in poly.slices]
    poly_norms = [(n, v) for n, v in poly_norms if v != 0]
    if not poly_norms:
        return None
    if any(n % stride for n, _ in poly_norms):
        return None
    factor = sum(v * ratio ** (-(n // stride)) for n, v in poly_norms)
    # first degree past the truncation that lies on the pattern
    new_start = truncation + 1
    rem = (new_start - start) % stride
    if rem:
        new_start += stride - rem
    j = (new_start - start) // stride
    return GeometricTail(new_start, stride, ratio,
                         scale * ratio ** j * factor, is_bound=True)


def radius_of_convergence(S: PowerSeries) -> RadiusResult:
    """Reciprocal limsup of the n-th roots of the degree norms.

    Exact for polynomials (infinite) and for exact geometric tails;
    a bare truncation only yields a heuristic estimate.
    """
    if S.complete:
        return RadiusResult(math.inf, math.inf)
    if S.tail is not None:
        value = float(S.tail.ratio) ** (-1.0 / S.tail.stride)
        return RadiusResult(value, None if S.tail.is_bound else value)
    roots = [float(S.slices[n].coefficient_norm()) ** (1.0 / n)
             for n in S.slices if n > 0 and not S.slices[n].is_zero]
    if not roots:
        return RadiusResult(math.inf, None)
    return RadiusResult(1.0 / max(roots), None)


def eval_series(S: PowerSeries, f: StepKernel, N: int, *,
                limits: Limits = DEFAULT_LIMITS) -> SeriesValue:
    """Partial sum through degree N, plus a tail bound when the degree norms
    beyond N are known and the kernel is inside the radius."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    if not S.complete and N > S.max_degree:
        raise ValueError(f"coefficients above degree {S.max_degree} are not stored")
    value = Fraction(0)
    for n, qg in S.slices.items():
        if n <= N:
            value += eval_quantum(qg, f, S.pins or None, limits=limits)

    s = f.max_abs()
    bound = Fraction(0)
    for n, qg in S.slices.items():
        if n > N:
            bound += qg.coefficient_norm() * s ** n
    if S.complete:
        return SeriesValue(value, bound)
    tail = S.tail
    if tail is None:
        return SeriesValue(value, None)
    if N >= tail.start:
        # a tail starts past every stored slice, so this is a series with
        # no slice and a tail from degree 0, whose degree 0 is not stored
        raise ValueError(f"coefficients from degree {tail.start} are not stored")
    q = tail.ratio * s ** tail.stride
    if q >= 1:
        raise ValueError("kernel bound is not below the radius of convergence; "
                         "no tail bound exists")
    bound += tail.scale * s ** tail.start / (1 - q)
    return SeriesValue(value, bound)


# -- Taylor recovery -----------------------------------------------------------


DerivativeOracle = Callable[[tuple[StepKernel, ...]], Fraction]


@dataclass(frozen=True)
class TaylorReport:
    """Recovered coefficients per degree, with a residual check per degree."""

    degree_coefficients: tuple[tuple[int, tuple[tuple[Multigraph, Fraction], ...]], ...]
    residual_ok: tuple[tuple[int, bool], ...]

    def as_quantum(self) -> QuantumGraph:
        return QuantumGraph([(g, c) for _, items in self.degree_coefficients
                             for g, c in items])

    @property
    def all_residuals_ok(self) -> bool:
        return all(ok for _, ok in self.residual_ok)


def basis_tuple(h: Multigraph, p: int) -> tuple[StepKernel, ...]:
    """One basis-edge kernel per edge copy of a class representative with
    at most p vertices; isolated vertices do not change it."""
    if h.vertex_count > p:
        raise ValueError("representative has more vertices than parts")
    return tuple(basis_edge(p, u + 1, v + 1) for u, v in h.edge_slots())


_ZERO = Fraction(0)


def _count_entry(count: int, scale: int) -> Fraction:
    """count / scale for a surjection-count matrix entry.  Most entries are
    0, and all of them share one Fraction; Fractions are immutable."""
    return Fraction(count, scale) if count else _ZERO


def surjection_matrix(n: int, p: int, *,
                      limits: Limits = DEFAULT_LIMITS):
    """Rows h in the p-vertex classes, columns H in the no-isolated classes:
    |Surj(H, h-with-isolated-removed)| / p^|V(H)|.

    The counts are read from S = `morphisms.surjection_table(n)`, the
    table of the n-edge classes, searched once per process: each row class
    is a column class padded with isolated vertices, so entry (h, H) is S
    at (H, the class h was padded from), whose position in S is
    `surjection_positions(n, p)[h]`.  No call searches a pair of its own.
    Taylor recovery back-substitutes on S itself; structure-report check
    (e) reads S through this matrix at every scale.
    """
    rows_classes = enumerate_Hnp(n, p, limits=limits)
    col_classes = enumerate_Hn(n, limits=limits)
    classes, counts = surjection_table(n, limits=limits)
    index = {canonical_key(g): i for i, g in enumerate(classes)}
    columns = [(counts[index[canonical_key(H)]], p ** H.vertex_count)
               for H in col_classes]
    matrix = [[_count_entry(row[i], scale) for row, scale in columns]
              for i in surjection_positions(n, p, limits=limits).values()]
    return rows_classes, col_classes, matrix


def _spot_check_oracle(oracle: DerivativeOracle, p: int):
    """Symmetry and linearity on two distinct basis edges, the 2-matching:
    swapping equal directions would test nothing."""
    dirs = (basis_edge(p, 1, 2), basis_edge(p, 3, 4))
    base_val = oracle(dirs)
    if oracle(dirs[::-1]) != base_val:
        raise ValueError("oracle is not symmetric in its direction slots")
    if oracle((dirs[0].scaled(3), dirs[1])) != 3 * base_val:
        raise ValueError("oracle is not linear in its direction slots")


def taylor_recover(oracle: DerivativeOracle, N: int, p: int, *,
                   limits: Limits = DEFAULT_LIMITS) -> TaylorReport:
    """Recover the coefficients of a smooth class function from its exact
    derivatives at the zero kernel, degree by degree.

    `oracle` maps a tuple of m direction kernels to the exact m-th derivative
    at 0 along them; the empty tuple is the value at 0.  Needs N >= 0, and
    p >= 2N so every n-edge class fits in p parts.

    At degree n the oracle on `basis_tuple(g, p)` is the sum over the n-edge
    classes H of |Surj(H, g)| c_H / p^|V(H)|.  The table S of
    `surjection_table(n)`, searched once per process, is lower triangular
    with |Aut(H)| on its diagonal, so the coefficients come out by back
    substitution from the last class, listed in its order.  The residual
    is the full product against S, so a nonzero count above the diagonal
    fails it.  Degree 0 is the same solve on the 1 x 1 table [[1]] of the
    empty graph, whose basis tuple is empty: its coefficient is the value
    at 0.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    if p < max(2, 2 * N):
        raise ValueError("need p >= 2N (and p >= 2)")
    if N >= 2:
        _spot_check_oracle(oracle, p)
    degree_coeffs = []
    residuals = []
    for n in range(N + 1):
        classes, S = surjection_table(n, limits=limits)
        values = [oracle(basis_tuple(g, p)) for g in classes]
        x = [_ZERO] * len(classes)
        for j in reversed(range(len(classes))):
            rest = sum(S[i][j] * x[i] for i in range(j + 1, len(classes)))
            x[j] = Fraction(values[j] - rest, S[j][j])
        residual = all(sum(row[j] * xi for row, xi in zip(S, x)) == v
                       for j, v in enumerate(values))
        degree_coeffs.append((n, tuple((H, xi * p ** H.vertex_count)
                                       for H, xi in zip(classes, x))))
        residuals.append((n, residual))
    return TaylorReport(tuple(degree_coeffs), tuple(residuals))


# -- linear independence matrices ----------------------------------------------


@dataclass(frozen=True)
class WhitneyMatrix:
    """Label-respecting surjection counts |Surj(H, G)| / p^|V0(H)| over the
    k-labelled n-edge classes, listed in `surjection_total_order`; so the
    rows are lower triangular with a positive diagonal, hence invertible."""

    n: int
    k: int
    p: int
    pins: tuple[tuple[int, Fraction], ...]
    classes: tuple[Multigraph, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    def determinant(self) -> Fraction:
        """The product of the diagonal.

        In the surjection order H surjects onto G only if G comes first, so
        the matrix is lower triangular.  Every entry above the diagonal is
        checked to be 0 first.
        """
        for i, row in enumerate(self.rows):
            for j in range(i + 1, len(row)):
                if row[j]:
                    raise ArithmeticError(
                        f"entry ({graph_signature(self.classes[i])}, "
                        f"{graph_signature(self.classes[j])}) is {row[j]}, "
                        f"above the diagonal of the surjection order; "
                        f"morphism counting is inconsistent")
        return math.prod((row[i] for i, row in enumerate(self.rows)),
                         start=Fraction(1))


def whitney_parts(n: int, pins: Pins) -> int:
    """Smallest part count past the separation bound, coprime to every pin
    denominator, so each pin is interior to its own part."""
    pin_values = [_to_fraction(pins[lab]) for lab in sorted(pins)]
    if len(set(pin_values)) != len(pin_values):
        raise ValueError("pins must be pairwise distinct")
    bound = Fraction(2 * n)
    if len(pin_values) >= 2:
        gap = min(abs(a - b) for a, b in itertools.combinations(pin_values, 2))
        bound = 2 * n + Fraction(2, 1) / gap
    p = max(2, math.floor(bound) + 1)
    while True:
        if all(math.gcd(p, x.denominator) == 1 for x in pin_values):
            parts = [part_of(x, p) for x in pin_values]
            if len(set(parts)) == len(parts):
                return p
        p += 1


def whitney_matrix(n: int, k: int, pins: Pins | None = None, p: int | None = None,
                   *, limits: Limits = DEFAULT_LIMITS) -> WhitneyMatrix:
    """The Whitney matrix of the k-labelled n-edge classes at p parts.

    p defaults to `whitney_parts`; an explicit p must be at least 1 and put
    each pin strictly inside a part of its own, else ValueError.  The
    classes and counts are `surjection_table(n, k)`, in its order, searched
    once per process and shared by every p and pins: only pairs that can be
    quotients are searched, and with k >= 2 only one pair per orbit of the
    label permutations.
    """
    pins = {int(lab): _to_fraction(x) for lab, x in (pins or {}).items()}
    if sorted(pins) != list(range(1, k + 1)):
        raise ValueError("pins must cover labels 1..k exactly")
    if p is None:
        p = whitney_parts(n, pins)
    else:
        if p < 1:
            raise ValueError(f"p must be at least 1, not {p}")
        parts = [part_of(x, p) for x in pins.values()]
        if len(set(parts)) < len(parts):
            raise ValueError(f"pins must lie in distinct parts at {p} parts")
    classes, table = surjection_table(n, k, limits=limits)
    rows = tuple(tuple(_count_entry(count, p ** (H.vertex_count - k))
                       for count in counts)
                 for H, counts in zip(classes, table))
    return WhitneyMatrix(n, k, p, tuple(sorted(pins.items())), classes, rows)


# -- Lagrange interpolation ------------------------------------------------------


def find_separating_graph(f: StepKernel, g: StepKernel, *,
                          limits: Limits = DEFAULT_LIMITS) -> Multigraph:
    """First simple graph, in canonical order by edge count, whose densities
    at the two kernels differ; proves they are not weakly equivalent.  Graphs
    with up to `limits.max_separating_edges` edges are tried."""
    cap = limits.max_separating_edges
    for n in range(1, cap + 1):
        for h in enumerate_Hn(n, limits=limits):
            if not h.is_simple():
                continue
            if density(h, f, limits=limits) != density(h, g, limits=limits):
                return h
    raise limits.exceeded(
        "max_separating_edges",
        f"no simple graph with up to {cap} edges separates the kernels")


def lagrange_interpolate(points: Sequence[StepKernel], values: Sequence,
                         *, limits: Limits = DEFAULT_LIMITS) -> QuantumGraph:
    """A quantum graph whose evaluation hits the prescribed value at every
    kernel: a product of affine-in-density factors per point, one factor for
    each other point, built from separating graphs."""
    if len(points) != len(values):
        raise ValueError("need one value per point")
    values = [_to_fraction(v) for v in values]
    total = QuantumGraph.zero()
    for j, target in enumerate(values):
        if target == 0:
            continue
        factor_product = QuantumGraph.unit()
        for i, other in enumerate(points):
            if i == j:
                continue
            h = find_separating_graph(points[j], other, limits=limits)
            tj = density(h, points[j], limits=limits)
            ti = density(h, other, limits=limits)
            # affine factor equal to 1 at points[j] and 0 at points[i]
            factor = QuantumGraph([(h, Fraction(1, 1) / (tj - ti)),
                                   (Multigraph(0), -ti / (tj - ti))])
            factor_product = quantum_multiply(factor_product, factor)
        total = total + target * factor_product
    return total

"""Independent answer checks for every benchmark job.

Nothing here imports graphoncalc.  Densities are recomputed from closed
forms (row means, matrix powers, traces), from a naive full sum, or from
multiplicativity; consistency and Whitney matrices are checked against
laws the theory fixes; derivative data at the zero kernel is recounted by
brute force over vertex maps.  Each check returns a list of problems; an
empty list means the answer is right.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

# Isomorphism classes of multigraphs with n edges and no isolated vertices
# (OEIS A050535).
MULTIGRAPH_CLASSES = {1: 1, 2: 3, 3: 8, 4: 23, 5: 66}


# -- kernels as integer matrices -------------------------------------------------


def integer_kernel(kernel: dict) -> tuple[int, list[list[int]]]:
    """(D, A) with A / D equal to the kernel's rational matrix."""
    rows = [[Fraction(x) for x in row] for row in kernel["matrix"]]
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return d, [[int(x * d) for x in row] for row in rows]


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _matpow(a, k):
    out = a
    for _ in range(k - 1):
        out = _matmul(out, a)
    return out


def _entrywise(a, m):
    return [[x ** m for x in row] for row in a]


# -- densities -------------------------------------------------------------------


def naive_sum(vertices: int, edges, a, fixed: dict[int, int]) -> int:
    """Sum over every map of the free vertices to parts of the product of
    integer cell values along the edges (each copy one factor)."""
    p = len(a)
    free = [v for v in range(vertices) if v not in fixed]
    total = 0
    for parts in itertools.product(range(p), repeat=len(free)):
        tau = dict(fixed)
        tau.update(zip(free, parts))
        prod = 1
        for u, v, m in edges:
            prod *= a[tau[u]][tau[v]] ** m
            if not prod:
                break
        total += prod
    return total


def _clique5(a, pinned: int | None) -> int:
    """Sum over maps of K5: fix three vertices, contract the last two as
    u^T A u with u_x = A[a][x] A[b][x] A[c][x]."""
    p = len(a)
    firsts = range(p) if pinned is None else (pinned,)
    total = 0
    for i in firsts:
        for j in range(p):
            aij = a[i][j]
            for k in range(p):
                w = aij * a[i][k] * a[j][k]
                u = [a[i][x] * a[j][x] * a[k][x] for x in range(p)]
                quad = sum(u[x] * sum(a[x][y] * u[y] for y in range(p))
                           for x in range(p))
                total += w * quad
    return total


def density_pair(job: dict) -> tuple[Fraction, Fraction]:
    """Expected (density, labelled density with vertex 0 pinned)."""
    d, a = integer_kernel(job["kernel"])
    p = len(a)
    pin = math.ceil(Fraction(job["pins"]["1"]) * p) - 1
    kind, params = job["kind"], job["params"]
    edges = job["graph"]["edges"]
    vertices = job["graph"]["vertices"]
    scale = d ** sum(m for _, _, m in edges)
    if kind == "star":
        k = params["k"]
        sums = [sum(row) for row in a]
        t = Fraction(sum(s ** k for s in sums), p * (d * p) ** k)
        return t, Fraction(sums[pin] ** k, (d * p) ** k)
    if kind in ("path", "cycle"):
        k, m = params["k"], params["m"]
        power = _matpow(_entrywise(a, m), k)
        if kind == "path":
            ends = [sum(row) for row in power]
            return (Fraction(sum(ends), scale * p ** (k + 1)),
                    Fraction(ends[pin], scale * p ** k))
        trace = sum(power[i][i] for i in range(p))
        return (Fraction(trace, scale * p ** k),
                Fraction(power[pin][pin], scale * p ** (k - 1)))
    if kind == "parallel":
        m = params["m"]
        rows = [sum(x ** m for x in row) for row in a]
        return Fraction(sum(rows), scale * p * p), Fraction(rows[pin], scale * p)
    if kind == "clique5":
        return (Fraction(_clique5(a, None), scale * p ** 5),
                Fraction(_clique5(a, pin), scale * p ** 4))
    if kind == "naive":
        return (Fraction(naive_sum(vertices, edges, a, {}),
                         scale * p ** vertices),
                Fraction(naive_sum(vertices, edges, a, {0: pin}),
                         scale * p ** (vertices - 1)))
    if kind == "star_times_edge":
        sums = [sum(row) for row in a]
        edge = Fraction(sum(sums), d * p * p)
        star2 = Fraction(sum(s * s for s in sums), p * (d * p) ** 2)
        return star2 * edge, Fraction(sums[pin] ** 2, (d * p) ** 2) * edge
    raise ValueError(f"no oracle for density kind {kind!r}")


def check_density(job: dict, answer: list[str],
                  expected: tuple[Fraction, Fraction]) -> list[str]:
    got = tuple(Fraction(x) for x in answer)
    problems = []
    for label, g, e in zip(("density", "labelled_density"), got, expected):
        if g != e:
            problems.append(f"{job['id']}: {label} {g} != expected {e}")
    return problems


# -- graphs from JSON ------------------------------------------------------------


def _edges(g: dict) -> list[tuple[int, int, int]]:
    out = []
    for e in g["edges"]:
        u, v, m = (e[0], e[1], e[2] if len(e) == 3 else 1)
        out.append((min(u, v), max(u, v), m))
    return out


def _degrees(g: dict) -> list[int]:
    deg = [0] * g["vertices"]
    for u, v, m in _edges(g):
        deg[u] += m
        deg[v] += m
    return deg


def _order_key(g: dict) -> tuple[int, int]:
    """(simple-edge count, vertex count): a surjection never increases it,
    and one between distinct classes always lowers it strictly."""
    return len({(u, v) for u, v, _ in _edges(g)}), g["vertices"]


def canonical(g: dict) -> tuple:
    """Brute-force canonical form: the least sorted edge list over all
    vertex relabellings (graphs here have at most 8 vertices)."""
    n, edges = g["vertices"], _edges(g)
    best = None
    for perm in itertools.permutations(range(n)):
        form = tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v]), m)
                            for u, v, m in edges))
        if best is None or form < best:
            best = form
    return (n, best or ())


# -- matrices --------------------------------------------------------------------


def _surjection_support(classes, rows, source_is_row: bool) -> list[str]:
    """Off-diagonal entries may sit only where the source class's order key
    strictly exceeds the target's, so the matrix is triangular in any order
    refining the key, with the diagonal as the only same-key entries."""
    keys = [_order_key(g) for g in classes]
    problems = []
    if keys != sorted(keys):
        problems.append("classes are not in surjection order")
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if i == j or not Fraction(x):
                continue
            source, target = (i, j) if source_is_row else (j, i)
            if not keys[source] > keys[target]:
                problems.append(f"entry ({i},{j}) = {x} is off the "
                                f"surjection support")
                return problems
    return problems


def check_pi(job: dict, answer: dict) -> list[str]:
    n, k = job["n"], job["k"]
    classes, rows = answer["classes"], answer["rows"]
    problems = []
    if len(classes) != MULTIGRAPH_CLASSES[n]:
        problems.append(f"pi({n},{k}): {len(classes)} classes, expected "
                        f"{MULTIGRAPH_CLASSES[n]}")
        return problems
    matching = [j for j, g in enumerate(classes)
                if g["vertices"] == 2 * n and all(m == 1 for *_, m in _edges(g))]
    if len(matching) != 1:
        return problems + [f"pi({n},{k}): no unique matching class"]
    for i, g in enumerate(classes):
        if rows[i][i] != k ** g["vertices"]:
            problems.append(f"pi({n},{k}) diagonal law fails at row {i}: "
                            f"{rows[i][i]} != {k ** g['vertices']}")
        expected = math.prod(math.perm(k, deg) for deg in _degrees(g))
        if rows[i][matching[0]] != expected:
            problems.append(f"pi({n},{k}) matching column fails at row {i}")
        if sum(rows[i]) != k ** (2 * n):
            problems.append(f"pi({n},{k}) row {i} sums to {sum(rows[i])}, "
                            f"not {k ** (2 * n)}")
    return problems + _surjection_support(classes, rows, source_is_row=False)


def check_whitney(job: dict, answer: dict) -> list[str]:
    rows = [[Fraction(x) for x in row] for row in answer["rows"]]
    problems = _surjection_support(answer["classes"], rows, source_is_row=True)
    diagonal = [rows[i][i] for i in range(len(rows))]
    if any(x <= 0 for x in diagonal):
        problems.append("whitney diagonal is not positive")
    if Fraction(answer["determinant"]) != math.prod(diagonal, start=Fraction(1)):
        problems.append("whitney determinant differs from the product of "
                        "its diagonal")
    return problems


# -- derivative data and Taylor recovery -------------------------------------------


def derivative_table(h: dict, p: int) -> Counter:
    """Vertex maps of h into p parts that collapse no edge, counted by their
    image edge multiset.  The derivative of t(h, .) at 0 along the basis
    edges of a graph g with that edge multiset is this count, times the ways
    to match parallel copies, over p^|V(h)|."""
    h_edges = [(u, v) for u, v, m in _edges(h) for _ in range(m)]
    table: Counter = Counter()
    for tau in itertools.product(range(p), repeat=h["vertices"]):
        image = []
        for u, v in h_edges:
            a, b = tau[u], tau[v]
            if a == b:
                break
            image.append((a, b) if a < b else (b, a))
        else:
            table[tuple(sorted(image))] += 1
    return table


def check_extract_T(job: dict, answer: dict) -> list[str]:
    n, p = job["n"], job["p"]
    (term,) = job["F"]["terms"]
    h, coeff = term["graph"], Fraction(term["coeff"])
    problems = []
    if len(answer["classes"]) != MULTIGRAPH_CLASSES[n]:
        problems.append(f"extract_T: {len(answer['classes'])} classes, "
                        f"expected {MULTIGRAPH_CLASSES[n]}")
    table = derivative_table(h, p)
    for g, value in zip(answer["classes"], answer["values"]):
        wanted = tuple(sorted((u, v) for u, v, m in _edges(g)
                              for _ in range(m)))
        ways = math.prod(math.factorial(m) for *_, m in _edges(g))
        expected = coeff * Fraction(table[wanted] * ways, p ** h["vertices"])
        if Fraction(value) != expected:
            problems.append(f"extract_T entry {g} = {value}, expected "
                            f"{expected}")
    return problems


def _quantum_forms(q: dict) -> dict[tuple, Fraction]:
    out: dict[tuple, Fraction] = {}
    for term in q["terms"]:
        key = canonical(term["graph"])
        out[key] = out.get(key, Fraction(0)) + Fraction(term["coeff"])
    return {key: c for key, c in out.items() if c}


def check_taylor(job: dict, answer: dict) -> list[str]:
    problems = []
    if not answer["residuals_ok"]:
        problems.append("taylor_recover residual check failed")
    if _quantum_forms(answer["recovered"]) != _quantum_forms(job["F"]):
        problems.append("taylor_recover did not round-trip the quantum graph")
    return problems


def check_cli_verify(returncode: int, stdout: str) -> list[str]:
    lines = [line.strip() for line in stdout.splitlines() if line.strip()]
    if returncode != 0 or not lines or lines[-1] != "PASS":
        return [f"verify exited {returncode}, last line "
                f"{lines[-1] if lines else '<none>'!r}"]
    return []


CHECKS = {"extract_T": check_extract_T, "taylor_recover": check_taylor,
          "pi_formula": check_pi, "whitney": check_whitney}

"""Seeded inputs and pinned job lists for the three benchmark workloads.

Everything here is plain data built from the seed: graphs, kernels, quantum
graphs and pins are written as the JSON objects graphoncalc's file formats
use, so the program only ever receives generated inputs.  Every job carries
its own resource caps, because the caps change how much work a job does.
The seed changes input values and job order, never the shape of a job list:
which graphs, part counts and job kinds appear is fixed, so run-to-run
timings compare like with like.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

# graphoncalc's Limits fields at their library defaults, written out so that
# a change to the library's defaults cannot silently change the work done.
DEFAULT_LIMITS = {"max_parts": 12, "max_vertices": 8, "max_maps": 10**7,
                  "max_index_tuples": 10**7, "max_classes": 10**5,
                  "max_cut_parts": 20}

WHY = {
    "dense_density":
        "in-process density and labelled_density of stars, paths, cycles, "
        "cliques and multi-edge graphs on dense 8-12 part kernels: the "
        "density core does the work, enumeration and morphisms none",
    "scale_consistency":
        "fresh process per job: CLI verify consistency -n 3, extract_T(C4, 4, "
        "8), taylor_recover to degree 4 at p=8; enumeration, derivatives and "
        "density on sparse basis-edge kernels",
    "surjection_counts":
        "fresh process per job: pi_formula(5,2), pi_formula(4,3), "
        "whitney_matrix(4,2) and its determinant; morphism search and exact "
        "linear algebra do the work, density none",
}

# -- graphs as JSON objects ------------------------------------------------------


def _graph(vertices: int, edges) -> dict:
    return {"vertices": vertices, "edges": [list(e) for e in edges]}


def star(k: int) -> dict:
    return _graph(k + 1, [(0, i, 1) for i in range(1, k + 1)])


def path(k: int, m: int = 1) -> dict:
    return _graph(k + 1, [(i, i + 1, m) for i in range(k)])


def cycle(k: int, m: int = 1) -> dict:
    return _graph(k, [(i, (i + 1) % k, m) for i in range(k)])


def clique(r: int) -> dict:
    return _graph(r, [(u, v, 1) for u, v in itertools.combinations(range(r), 2)])


def parallel(m: int) -> dict:
    return _graph(2, [(0, 1, m)])


def labelled(graph: dict) -> dict:
    """The same graph with vertex 0 carrying label 1."""
    return {**graph, "labels": {"1": 0}}


# -- dense_density ---------------------------------------------------------------

_ALL_PARTS = (8, 9, 10, 11, 12)
# Six-vertex graphs cost p^6 leaves in a backtracking core; at 12 parts one
# job takes 1-2 s, so they run at 8 parts to keep ~100 jobs in one pass.
_SIX_VERTEX_PARTS = (8,)

# (name, oracle kind, parameters, graph, part counts).  Vertex 0 is the one
# pinned in the labelled variant: a star's centre, a path's end, a cycle or
# clique vertex.
DENSE_FAMILIES = (
    ("star3", "star", {"k": 3}, star(3), _ALL_PARTS),
    ("star4", "star", {"k": 4}, star(4), _ALL_PARTS),
    ("star5", "star", {"k": 5}, star(5), _SIX_VERTEX_PARTS),
    ("path3", "path", {"k": 3, "m": 1}, path(3), _ALL_PARTS),
    ("path4", "path", {"k": 4, "m": 1}, path(4), _ALL_PARTS),
    ("path5", "path", {"k": 5, "m": 1}, path(5), _SIX_VERTEX_PARTS),
    ("cycle4", "cycle", {"k": 4, "m": 1}, cycle(4), _ALL_PARTS),
    ("cycle5", "cycle", {"k": 5, "m": 1}, cycle(5), _ALL_PARTS),
    ("cycle6", "cycle", {"k": 6, "m": 1}, cycle(6), _SIX_VERTEX_PARTS),
    ("clique4", "naive", {}, clique(4), _ALL_PARTS),
    ("clique5", "clique5", {}, clique(5), _ALL_PARTS),
    ("parallel3", "parallel", {"m": 3}, parallel(3), _ALL_PARTS),
    ("path3x2", "path", {"k": 3, "m": 2}, path(3, 2), _ALL_PARTS),
    ("cycle4x2", "cycle", {"k": 4, "m": 2}, cycle(4, 2), _ALL_PARTS),
    ("triangle_x2", "naive", {},
     _graph(3, [(0, 1, 2), (1, 2, 1), (0, 2, 1)]), _ALL_PARTS),
    # a 2-edge star and a disjoint edge: checked by multiplicativity
    ("star2+edge", "star_times_edge", {},
     _graph(5, [(0, 1, 1), (0, 2, 1), (3, 4, 1)]), _ALL_PARTS),
)
KERNELS_PER_CELL = 2
_DENOMINATORS = (97, 100, 128)


def dense_kernel(rng: random.Random, p: int) -> dict:
    """Symmetric p-part kernel with every cell a nonzero rational in (0, 1]."""
    m = [[""] * p for _ in range(p)]
    for i in range(p):
        for j in range(i, p):
            x = str(Fraction(rng.randint(1, 97), rng.choice(_DENOMINATORS)))
            m[i][j] = m[j][i] = x
    return {"parts": p, "matrix": m}


def dense_jobs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    jobs = []
    for name, kind, params, graph, parts in DENSE_FAMILIES:
        for p in parts:
            for rep in range(KERNELS_PER_CELL):
                pin_part = rng.randrange(p)
                jobs.append({
                    "id": f"{name}_p{p}_{rep}", "family": name, "kind": kind,
                    "params": params, "graph": graph,
                    "labelled": labelled(graph),
                    "kernel": dense_kernel(rng, p),
                    # the midpoint of a part is never on a part boundary
                    "pins": {"1": str(Fraction(2 * pin_part + 1, 2 * p))},
                    "limits": dict(DEFAULT_LIMITS)})
    rng.shuffle(jobs)
    return jobs


# -- scale_consistency -----------------------------------------------------------

# The quantum graph's terms are fixed (a constant and graphs with 1 to 4
# edges, at most 4 vertices); the seed picks their coefficients.  The terms
# fix how many density evaluations recovery makes, so they do not vary.
_TAYLOR_GRAPHS = (
    _graph(0, []), _graph(2, [(0, 1, 1)]), path(2), parallel(2), clique(3),
    star(3), cycle(4), _graph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)]))


def taylor_quantum(rng: random.Random) -> dict:
    coeffs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 30),
                       rng.randint(1, 12)) for _ in _TAYLOR_GRAPHS]
    return {"k": 0, "terms": [{"graph": g, "coeff": str(c)}
                              for g, c in zip(_TAYLOR_GRAPHS, coeffs)]}


def scale_jobs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    cli_caps = ["--max-parts", str(DEFAULT_LIMITS["max_parts"]),
                "--max-vertices", str(DEFAULT_LIMITS["max_vertices"]),
                "--max-index-tuples", str(DEFAULT_LIMITS["max_index_tuples"])]
    return [
        {"id": "verify_consistency_n3", "kind": "cli",
         "argv": [*cli_caps, "verify", "consistency", "-n", "3"],
         "limits": dict(DEFAULT_LIMITS)},
        {"id": "extract_T_C4_n4_p8", "kind": "extract_T",
         "F": {"k": 0, "terms": [{"graph": cycle(4), "coeff": "1"}]},
         "n": 4, "p": 8, "limits": dict(DEFAULT_LIMITS)},
        # surjection_matrix(4, 8) searches 8^8 vertex maps, past the default
        # max_maps of 10^7 (which the CLI cannot raise).
        {"id": "taylor_recover_N4_p8", "kind": "taylor_recover",
         "F": taylor_quantum(rng), "N": 4, "p": 8,
         "limits": {**DEFAULT_LIMITS, "max_maps": 10**8}},
    ]


# -- surjection_counts -----------------------------------------------------------

# pi_formula(5, 2) searches 10^10 vertex maps between 10-vertex classes.
_WIDE_MAPS = {**DEFAULT_LIMITS, "max_maps": 10**10}


# The part count sets the size of the matrix entries, so it is pinned rather
# than left to depend on the pins: 13 exceeds the separation bound
# 2n + 2/gap for n = 4 and any two pins more than 2/5 apart, and is coprime to
# the pins' denominators.
WHITNEY_PARTS = 13


def whitney_pins(rng: random.Random) -> dict:
    """Two pins at least 0.46 apart, with denominators 31 and 37."""
    low = Fraction(rng.randint(1, 9), 31)
    high = 1 - Fraction(rng.randint(1, 9), 37)
    return {"1": str(low), "2": str(high)}


def surjection_jobs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [
        {"id": "pi_formula_n5_k2", "kind": "pi_formula", "n": 5, "k": 2,
         "limits": dict(_WIDE_MAPS)},
        {"id": "pi_formula_n4_k3", "kind": "pi_formula", "n": 4, "k": 3,
         "limits": dict(_WIDE_MAPS)},
        {"id": "whitney_n4_k2", "kind": "whitney", "n": 4, "k": 2,
         "pins": whitney_pins(rng), "p": WHITNEY_PARTS,
         "limits": dict(_WIDE_MAPS)},
    ]


JOB_LISTS = {"dense_density": dense_jobs,
             "scale_consistency": scale_jobs,
             "surjection_counts": surjection_jobs}
# dense_density runs its whole job list inside one process; the others start
# a fresh interpreter per job so per-process caches never carry over.
IN_PROCESS = {"dense_density"}

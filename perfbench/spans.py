"""Outside-in span tracing of graphoncalc's layers.

`install` wraps each layer's public entry points at every module binding:
the defining module, every graphoncalc module that imported the name with
``from .x import name``, and the package namespace.  Calls made inside a
module (``density`` calling ``_integrate``) and across modules are therefore
both seen, and graphoncalc's own source is never edited.

A span records its name, parent span, job, start and end, whether a
`CapExceeded` passed through it, and one integer note taken from the call
(classes returned, nonzero result, matrix size).  Spans are kept in flat
arrays in memory and written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# Layer -> traced entry points, named as in the layer's module.
LAYERS = {
    "multigraph": ("canonical_key", "enumerate_Hn", "enumerate_Hnp"),
    "morphisms": ("count_surj", "count_aut", "count_hom",
                  "surjection_weight_sum"),
    "density": ("density", "labelled_density", "_evaluate", "_integrate"),
    "stepkernel": ("StepKernel.integerized", "common_refinement", "cut_norm"),
    "calculus": ("gateaux_exact", "extract_T"),
    "consistency": ("pi_formula", "verify_structure", "apply_constraint"),
    "series": ("surjection_matrix", "taylor_recover", "whitney_matrix"),
    "linalg": ("determinant", "solve"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items()
                   for fn in fns)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}
_ENUMERATION = {_ID["multigraph.enumerate_Hn"], _ID["multigraph.enumerate_Hnp"]}
_MORPHISMS = {_ID[f"morphisms.{fn}"] for fn in LAYERS["morphisms"]}
_LINALG = {_ID["linalg.determinant"], _ID["linalg.solve"]}

# Derived per-layer metrics, computed from span notes and ancestry.
RATIOS = {
    "multigraph.enum_yield": "ratio",
    "morphisms.nonzero_frac": "ratio",
    "density.zero_frac": "ratio",
    "calculus.evals_per_derivative": "ratio",
    "linalg.max_dim": "count",
    "trace.overhead_frac": "ratio",
}


def _note(span_id: int):
    """How a call's arguments or result become the span's integer note."""
    if span_id in _ENUMERATION:
        return lambda args, result: len(result)
    if span_id in _MORPHISMS:
        return lambda args, result: int(result != 0)
    if span_id == _ID["density._integrate"]:
        return lambda args, result: int(result == 0)
    if span_id in _LINALG:
        return lambda args, result: len(args[0])
    return None


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.refused"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(RATIOS)
    return units


class Tracer:
    """In-memory span store for one process."""

    def __init__(self, cap_error: type[BaseException]):
        self.cap_error = cap_error
        self.job = 0
        self.parent = array("i")
        self.name = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.refused = array("b")
        self.note = array("q")
        self.missing: list[str] = []   # entry points graphoncalc lacks
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, span_id: int, fn):
        note = _note(span_id)
        parent, name, job_of = self.parent, self.name, self.job_of
        start, end, refused, notes = (self.start, self.end, self.refused,
                                      self.note)
        stack, cap_error, clock = self._stack, self.cap_error, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(span_id)
            job_of.append(self.job)
            end.append(0.0)
            refused.append(0)
            notes.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except cap_error:
                refused[sid] = 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()
            if note is not None:
                notes[sid] = note(args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write every span: a JSON header line, then the raw arrays."""
        arrays = (self.parent, self.name, self.job_of, self.start, self.end,
                  self.refused, self.note)
        header = {"names": SPAN_NAMES, "spans": len(self),
                  "arrays": ["parent", "name", "job", "start", "end",
                             "refused", "note"],
                  "typecodes": [a.typecode for a in arrays]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for a in arrays:
                a.tofile(handle)

    def summary(self) -> dict:
        """Additive per-process totals; `finish` turns merged totals into
        metrics.  Self time is a span's duration minus its direct children's
        durations, which never overlap in this single-threaded program."""
        n = len(self)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        enum_root = [-1] * n    # outermost enumeration span above or at i
        in_gateaux = [False] * n
        in_morph = [False] * n
        gateaux = _ID["calculus.gateaux_exact"]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                enum_root[i] = enum_root[p]
                in_gateaux[i] = in_gateaux[p] or self.name[p] == gateaux
                in_morph[i] = in_morph[p] or self.name[p] in _MORPHISMS
            if enum_root[i] < 0 and self.name[i] in _ENUMERATION:
                enum_root[i] = i

        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        refused = [0] * len(SPAN_NAMES)
        totals = dict.fromkeys(("enum_classes", "enum_key_calls",
                                "morph_calls", "morph_nonzero",
                                "integrate_zero", "evals_in_gateaux",
                                "max_dim"), 0)
        keycalls_by_root: dict[int, int] = {}
        key_id, evaluate_id = (_ID["multigraph.canonical_key"],
                               _ID["density._evaluate"])
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
            refused[k] += self.refused[i]
            if k == key_id and enum_root[i] >= 0:
                root = enum_root[i]
                keycalls_by_root[root] = keycalls_by_root.get(root, 0) + 1
            elif k in _MORPHISMS and not in_morph[i]:
                totals["morph_calls"] += 1
                totals["morph_nonzero"] += self.note[i]
            elif k == _ID["density._integrate"]:
                totals["integrate_zero"] += self.note[i]
            elif k == evaluate_id and in_gateaux[i]:
                totals["evals_in_gateaux"] += 1
            elif k in _LINALG:
                totals["max_dim"] = max(totals["max_dim"], self.note[i])
        # Classes produced by enumerations that canonicalized anything
        # (a cache hit returns classes without any canonical_key call).
        totals["enum_key_calls"] = sum(keycalls_by_root.values())
        totals["enum_classes"] = sum(self.note[r] for r in keycalls_by_root)
        return {"spans": n, "calls": calls, "self_s": self_s,
                "refused": refused, **totals}


def merge(summaries: list[dict]) -> dict:
    """Sum per-process summaries (max for the matrix size)."""
    out = Tracer(Exception).summary()  # all zeros
    for s in summaries:
        for key, value in s.items():
            if isinstance(value, list):
                out[key] = [a + b for a, b in zip(out[key], value)]
            elif key == "max_dim":
                out[key] = max(out[key], value)
            else:
                out[key] += value
    return out


def finish(total: dict, overhead_frac: float) -> dict[str, float]:
    """Per-layer metric values from merged summaries."""
    metrics: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name in SPAN_NAMES:
        k = _ID[name]
        metrics[f"{name}.calls"] = total["calls"][k]
        metrics[f"{name}.self_s"] = total["self_s"][k]
        metrics[f"{name}.refused"] = total["refused"][k]
        layer_self[name.split(".", 1)[0]] += total["self_s"][k]
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_s"] = seconds

    def ratio(num, den):
        return num / den if den else 0.0

    calls = total["calls"]
    metrics["multigraph.enum_yield"] = ratio(total["enum_classes"],
                                             total["enum_key_calls"])
    metrics["morphisms.nonzero_frac"] = ratio(total["morph_nonzero"],
                                              total["morph_calls"])
    metrics["density.zero_frac"] = ratio(total["integrate_zero"],
                                         calls[_ID["density._integrate"]])
    metrics["calculus.evals_per_derivative"] = ratio(
        total["evals_in_gateaux"], calls[_ID["calculus.gateaux_exact"]])
    metrics["linalg.max_dim"] = total["max_dim"]
    metrics["trace.overhead_frac"] = overhead_frac
    return metrics


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point at every graphoncalc module binding.

    Entry points graphoncalc no longer has go to `tracer.missing` and report
    zero calls, so a later version that removes one still runs traced."""
    import graphoncalc.cli  # noqa: F401  (its imported names get wrapped too)

    modules = [m for key, m in sys.modules.items()
               if key == "graphoncalc" or key.startswith("graphoncalc.")]
    for layer, fns in LAYERS.items():
        home = sys.modules.get(f"graphoncalc.{layer}")
        for fn in fns:
            span_id = _ID[f"{layer}.{fn}"]
            owner_name, _, attr = fn.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                tracer.missing.append(f"{layer}.{fn}")
                continue
            wrapped = tracer.wrap(span_id, original)
            if owner_name:  # a method: its class is its only binding
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)


def per_span_cost(cap_error: type[BaseException], calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function."""
    def noop():
        return None

    scratch = Tracer(cap_error)
    wrapped = scratch.wrap(0, noop)
    best_plain = best_wrapped = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best_plain = min(best_plain, t1 - t0)
        best_wrapped = min(best_wrapped, t2 - t1)
        del scratch.start[:], scratch.end[:], scratch.parent[:]
        del scratch.name[:], scratch.job_of[:], scratch.refused[:]
        del scratch.note[:]
    return max(0.0, (best_wrapped - best_plain) / calls)

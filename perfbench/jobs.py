"""Job process: runs benchmark jobs against graphoncalc and writes answers.

    python3 perfbench/jobs.py setup <inputs.json>
    python3 perfbench/jobs.py job <job.json> <out.json> <trace 0|1>
    python3 perfbench/jobs.py dense <jobs.json> <out.json> <seconds> <trace 0|1>
    python3 perfbench/jobs.py cli <out.json> <trace 0|1> -- <graphon-calc arguments>

`setup` is the set-up probe: import graphoncalc, build the CLI parser, load
the workload's inputs, exit.  `job` runs one API job in a fresh process.
`dense` runs the whole dense_density job list in this process, in whole
passes, for about the given time.  `cli` runs the command line's `run`, as
``graphon-calc`` does.  Untraced, each job's cost is also measured in
reference-kernel runs (see speed.py); traced, its spans are recorded (see
spans.py).  Answers are written as exact ``num/den`` strings; checking them
is the runner's job, not this process's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import spans
from speed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import graphoncalc as gc  # noqa: E402  (must come from this checkout's src/)
from graphoncalc import cli  # noqa: E402

if not Path(gc.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"graphoncalc imported from {gc.__file__}, not from "
                     f"{ROOT / 'src'}")


def _limits(job: dict) -> gc.Limits:
    return gc.Limits(**job["limits"])


def _start_measuring(trace: bool):
    """(tracer, None) for a traced run, (None, started sampler) otherwise."""
    if trace:
        tracer = spans.Tracer(gc.CapExceeded)
        spans.install(tracer)
        return tracer, None
    sampler = SpeedSampler()
    sampler.start()
    return None, sampler


def _measurements(tracer, sampler, t0: float, t1: float, out_path: str) -> dict:
    if sampler is not None:
        sampler.stop()
    return {"seconds": t1 - t0,
            "work": sampler.work(t0, t1) if sampler is not None else None,
            "trace": _trace_report(tracer, t1 - t0, out_path + ".spans")}


def _trace_report(tracer, work_s: float, dump_path: str) -> dict | None:
    if tracer is None:
        return None
    tracer.dump(dump_path)
    return {"summary": tracer.summary(), "work_s": work_s,
            "span_cost_s": spans.per_span_cost(gc.CapExceeded),
            "missing": tracer.missing}


def _in_order(classes, rows_of) -> tuple[list, list]:
    """Classes in surjection_total_order and the matrix re-indexed to it."""
    order = gc.surjection_total_order(classes)
    pos = {gc.canonical_key(g): i for i, g in enumerate(classes)}
    idx = [pos[gc.canonical_key(g)] for g in order]
    return ([gc.graph_to_json(g) for g in order],
            [[rows_of[i][j] for j in idx] for i in idx])


def run_job(job: dict) -> dict:
    """One API job; every call resolves graphoncalc names at call time, so
    traced wrappers installed before it are the ones it reaches."""
    limits = _limits(job)
    kind = job["kind"]
    if kind == "extract_T":
        F = gc.quantum_from_json(job["F"])
        vec = gc.extract_T(F, job["n"], job["p"], limits=limits)
        return {"classes": [gc.graph_to_json(h) for h, _ in vec.as_items()],
                "values": [str(v) for _, v in vec.as_items()]}
    if kind == "taylor_recover":
        F = gc.quantum_from_json(job["F"])
        p = job["p"]

        def oracle(dirs):
            base = gc.StepKernel.zero(dirs[0].parts if dirs else p)
            return gc.gateaux_exact(F, gc.DerivativeRequest(base, dirs),
                                    limits=limits)

        report = gc.taylor_recover(oracle, job["N"], p, limits=limits)
        return {"recovered": gc.quantum_to_json(report.as_quantum()),
                "residuals_ok": report.all_residuals_ok}
    if kind == "pi_formula":
        matrix = gc.pi_formula(job["n"], job["k"], limits=limits)
        classes, rows = _in_order(matrix.classes, matrix.rows())
        return {"classes": classes, "rows": rows}
    if kind == "whitney":
        pins = gc.pins_from_json(job["pins"])
        W = gc.whitney_matrix(job["n"], job["k"], pins, p=job["p"],
                              limits=limits)
        det = W.determinant()
        classes, rows = _in_order(W.classes, W.rows)
        return {"p": W.p, "classes": classes,
                "rows": [[str(x) for x in row] for row in rows],
                "determinant": str(det)}
    raise ValueError(f"unknown job kind {kind!r}")


def dense_attempt(job: dict) -> list[str]:
    """One dense_density job, from fresh graph and kernel objects."""
    limits = _limits(job)
    g = gc.graph_from_json(job["graph"])
    h = gc.graph_from_json(job["labelled"])
    f = gc.kernel_from_json(job["kernel"])
    pins = gc.pins_from_json(job["pins"])
    return [str(gc.density(g, f, limits=limits)),
            str(gc.labelled_density(h, f, pins, limits=limits))]


def run_dense(jobs: list[dict], seconds: float, tracer) -> dict:
    """Whole passes over the job list; another pass starts only if it is
    expected to end within `seconds`, and at least one always runs."""
    attempts, passes = [], []
    clock = time.perf_counter
    begin = clock()
    while True:
        pass_start = clock()
        for job in jobs:
            if tracer is not None:
                tracer.job = len(attempts)
            t0 = clock()
            try:
                answer, error = dense_attempt(job), None
            except gc.CapExceeded as exc:
                answer, error = None, f"CapExceeded: {exc}"
            t1 = clock()
            attempts.append({"id": job["id"], "t0": t0, "t1": t1,
                             "seconds": t1 - t0, "answer": answer,
                             "error": error})
        pass_end = clock()
        passes.append({"t0": pass_start, "t1": pass_end,
                       "seconds": pass_end - pass_start})
        if pass_end - begin + (pass_end - pass_start) > seconds:
            break
    return {"attempts": attempts, "passes": passes, "t0": begin,
            "t1": clock()}


def load_inputs(payload: dict) -> None:
    """Parse every generated input into graphoncalc objects (set-up probe)."""
    parsers = (("graph", gc.graph_from_json), ("labelled", gc.graph_from_json),
               ("kernel", gc.kernel_from_json), ("pins", gc.pins_from_json),
               ("F", gc.quantum_from_json))
    for job in payload["jobs"]:
        for key, parse in parsers:
            if key in job:
                parse(job[key])
        gc.Limits(**job["limits"])


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        cli._build_parser()
        with open(argv[1]) as handle:
            load_inputs(json.load(handle))
        return 0
    if mode == "job":
        job_path, out_path, trace = argv[1], argv[2], argv[3] == "1"
        with open(job_path) as handle:
            job = json.load(handle)
        tracer, sampler = _start_measuring(trace)
        t0 = time.perf_counter()
        try:
            answer, error = run_job(job), None
        except gc.CapExceeded as exc:
            answer, error = None, f"CapExceeded: {exc}"
        t1 = time.perf_counter()
        _write(out_path, {"answer": answer, "error": error,
                          **_measurements(tracer, sampler, t0, t1, out_path)})
        return 2 if error else 0
    if mode == "dense":
        jobs_path, out_path = argv[1], argv[2]
        seconds, trace = float(argv[3]), argv[4] == "1"
        with open(jobs_path) as handle:
            jobs = json.load(handle)["jobs"]
        tracer, sampler = _start_measuring(trace)
        result = run_dense(jobs, seconds, tracer)
        if sampler is not None:
            sampler.stop()
            for item in result["attempts"] + result["passes"]:
                item["work"] = sampler.work(item["t0"], item["t1"])
        result["trace"] = _trace_report(tracer, result["t1"] - result["t0"],
                                        out_path + ".spans")
        _write(out_path, result)
        return 0
    if mode == "cli":
        out_path, rest = argv[1], argv[4:]
        trace = argv[2] == "1"
        tracer, sampler = _start_measuring(trace)
        t0 = time.perf_counter()
        code = cli.run(rest)
        t1 = time.perf_counter()
        sys.stdout.flush()
        _write(out_path, _measurements(tracer, sampler, t0, t1, out_path))
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

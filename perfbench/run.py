"""graphoncalc benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client drives jobs in a closed loop:
each job starts after the previous one finished.  The seed generates every
input (see workloads.py); each answer is checked against an independent
oracle (see oracles.py).  With --trace 0 the last stdout line reports the
end-to-end metrics; with --trace 1 a separate traced run reports per-layer
metrics from spans recorded around each layer's entry points (spans.py).
Full results, the environment and the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracles
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
JOBS = HERE / "jobs.py"
SETUP_PROBES = 7
# Every job process is killed past this point, so a run always ends well
# inside the 180 s a run may take.
DEADLINE_S = 150.0

# Job costs are in "ref": runs of speed.reference_kernel at the speed the
# job's core had at that moment (see speed.py).
END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "job_ref.p50": "ref",
                    "peak_rss_mb": "MB"}


# -- environment ------------------------------------------------------------------


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    return {"commit": _commit(), "src_sha256": _src_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "GRAPHON_CALC_THREADS": "unset",
            "GRAPHON_CALC_THREADS_in_caller": os.environ.get(
                "GRAPHON_CALC_THREADS")}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GRAPHON_CALC_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    # a fixed hash seed removes one source of run-to-run timing noise
    env["PYTHONHASHSEED"] = "0"
    return env


# -- processes -------------------------------------------------------------------


class Runner:
    """Starts job processes one at a time and reaps each one, recording its
    wall time and peak resident memory.  Every process is killed at the
    run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def run(self, argv: list[str], stdout_path: Path) -> dict:
        with open(stdout_path, "wb") as out, \
                open(stdout_path.with_suffix(".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                    env=self.env)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"returncode": proc.returncode, "seconds": seconds,
                "rss_mb": usage.ru_maxrss / 1024.0}


def _python(*args) -> list[str]:
    return [sys.executable, *map(str, args)]


def measure_setup(runner: Runner, inputs_path: Path, run_dir: Path) -> list[float]:
    times = []
    for i in range(SETUP_PROBES):
        res = runner.run(_python(JOBS, "setup", inputs_path),
                         run_dir / f"setup{i}.out")
        if res["returncode"] != 0:
            raise RuntimeError(f"set-up probe failed, see {run_dir}")
        times.append(res["seconds"])
    return times


# -- workloads ---------------------------------------------------------------------


def run_in_process(runner: Runner, jobs: list[dict], inputs_path: Path,
                   run_dir: Path, seconds: float, trace: bool) -> dict:
    """dense_density: one job process runs the whole list in passes."""
    out = run_dir / "dense.json"
    res = runner.run(_python(JOBS, "dense", inputs_path, out, seconds,
                             int(trace)), run_dir / "dense.out")
    if res["returncode"] != 0:
        raise RuntimeError(f"dense job process failed, see {run_dir}")
    result = json.loads(out.read_text())
    expected = {job["id"]: oracles.density_pair(job) for job in jobs}
    by_id = {job["id"]: job for job in jobs}
    records = []
    for attempt in result["attempts"]:
        job = by_id[attempt["id"]]
        problems = ([attempt["error"]] if attempt["error"] else
                    oracles.check_density(job, attempt["answer"],
                                          expected[job["id"]]))
        records.append({"id": job["id"], "seconds": attempt["seconds"],
                        "work": attempt.get("work"), "problems": problems})
    passes = [{"seconds": p["seconds"], "work": p.get("work")}
              for p in result["passes"]]
    return {"records": records, "passes": passes,
            "rss_mb": [res["rss_mb"]],
            "traces": [result["trace"]] if result["trace"] else []}


def run_one_process_job(runner: Runner, job: dict, run_dir: Path,
                        tag: str, trace: bool) -> tuple[dict, dict | None]:
    job_path = run_dir / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    out = run_dir / f"{tag}.result.json"
    stdout_path = run_dir / f"{tag}.out"
    if job["kind"] == "cli":
        argv = _python(JOBS, "cli", out, int(trace), "--", *job["argv"])
    else:
        argv = _python(JOBS, "job", job_path, out, int(trace))
    res = runner.run(argv, stdout_path)
    payload = json.loads(out.read_text()) if out.exists() else {}
    if job["kind"] == "cli":
        problems = oracles.check_cli_verify(res["returncode"],
                                            stdout_path.read_text())
    elif res["returncode"] != 0 or payload.get("answer") is None:
        problems = [payload.get("error") or
                    f"{job['id']} exited {res['returncode']}"]
    else:
        problems = oracles.CHECKS[job["kind"]](job, payload["answer"])
    record = {"id": job["id"], "seconds": res["seconds"],
              "work": payload.get("work"), "rss_mb": res["rss_mb"],
              "returncode": res["returncode"], "problems": problems}
    return record, payload.get("trace")


def run_per_process(runner: Runner, jobs: list[dict], run_dir: Path,
                    seconds: float, trace: bool) -> dict:
    """scale_consistency, surjection_counts: a fresh process per job, whole
    passes over the list, another pass only if it should end in time."""
    records, passes, traces = [], [], []
    begin = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        pass_records = []
        for job in jobs:
            tag = f"pass{len(passes)}-{job['id']}"
            record, job_trace = run_one_process_job(runner, job, run_dir, tag,
                                                    trace)
            pass_records.append(record)
            if job_trace:
                traces.append(job_trace)
        records += pass_records
        pass_s = time.perf_counter() - pass_start
        passes.append({"seconds": pass_s,
                       "work": None if trace else
                       sum(r["work"] or 0.0 for r in pass_records)})
        if time.perf_counter() - begin + pass_s > seconds:
            break
    return {"records": records, "passes": passes,
            "rss_mb": [r["rss_mb"] for r in records], "traces": traces}


# -- metrics -----------------------------------------------------------------------


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def percentiles(values: list[float]) -> dict:
    """p50 and p90 with the sample count.  p90 is a tail estimate only with
    at least ten samples above it, which only dense_density has; it is
    recorded, not bounded."""
    p90 = nearest_rank(values, 0.9)
    return {"samples": len(values), "p50": nearest_rank(values, 0.5),
            "p90": p90, "samples_above_p90": sum(x > p90 for x in values)}


def timings(result: dict) -> dict:
    """Raw seconds, and job costs in reference-kernel runs when measured."""
    out = {"wall_s": statistics.median(p["seconds"] for p in result["passes"]),
           "job_s": percentiles([r["seconds"] for r in result["records"]])}
    if all(r["work"] is not None for r in result["records"]):
        out["wall_ref"] = statistics.median(p["work"]
                                            for p in result["passes"])
        out["job_ref"] = percentiles([r["work"] for r in result["records"]])
    return out


def end_to_end(setup: list[float], result: dict,
               timed: dict) -> dict[str, float]:
    return {"setup_s": statistics.median(setup),
            "wall_ref": timed["wall_ref"],
            "job_ref.p50": timed["job_ref"]["p50"],
            "peak_rss_mb": max(result["rss_mb"])}


def per_layer(result: dict) -> dict[str, float]:
    traces = result["traces"]
    total = spans.merge([t["summary"] for t in traces])
    overhead = sum(t["summary"]["spans"] * t["span_cost_s"] for t in traces)
    work = sum(t["work_s"] for t in traces)
    return spans.finish(total, overhead / max(work - overhead, 1e-9))


def report(metrics: dict[str, float], units: dict[str, str], records) -> dict:
    failed = sum(1 for r in records if r["problems"])
    return {"correct": failed == 0, "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


# -- main --------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.JOB_LISTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "graphoncalc" / "__init__.py").is_file():
        print(f"error: no graphoncalc source under {SRC}; run from the root "
              f"of a graphoncalc checkout", file=sys.stderr)
        return 2
    started = time.monotonic()
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = environment()

    jobs = workloads.JOB_LISTS[args.workload](args.seed)
    inputs_path = run_dir / "inputs.json"
    inputs_path.write_text(json.dumps({"workload": args.workload,
                                       "seed": args.seed, "jobs": jobs}))
    runner = Runner(started + DEADLINE_S)
    trace = bool(args.trace)
    setup = [] if trace else measure_setup(runner, inputs_path, run_dir)
    if args.workload in workloads.IN_PROCESS:
        result = run_in_process(runner, jobs, inputs_path, run_dir,
                                args.seconds, trace)
    else:
        result = run_per_process(runner, jobs, run_dir, args.seconds, trace)

    timed = timings(result)
    if trace:
        metrics, units = per_layer(result), spans.per_layer_metric_units()
    else:
        metrics, units = end_to_end(setup, result, timed), END_TO_END_UNITS
    final = report(metrics, units, result["records"])
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "load": "closed loop, one client, one job at a time",
        "samples": {"jobs": len(result["records"]),
                    "passes": len(result["passes"]),
                    "setup_probes": len(setup)},
        "timings": timed,
        "fail_frac": final["failed"] / final["attempted"],
        "setup_s": setup, "passes": result["passes"],
        "untraced_entry_points": sorted({name for t in result["traces"]
                                         for name in t["missing"]}),
        "jobs": result["records"], "result": final,
    }
    (run_dir / "result.json").write_text(json.dumps(details, indent=1))
    print(json.dumps({"environment": env, "samples": details["samples"],
                      "timings": timed,
                      "fail_frac": details["fail_frac"],
                      "problems": [p for r in result["records"]
                                   for p in r["problems"]][:5]}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

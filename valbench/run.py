"""Validation-job benchmark: ``full_dirty`` and ``append_resume``.

Usage, from the repository root::

    python3 valbench/run.py --workload full_dirty --seed 1 --seconds 30 --trace 0

Every timed run is one ``run_validation(data, out)`` call with the library
defaults, in a fresh process with its own 2-CPU Ray session (see
``valbench/child.py``); runs never overlap. Runs repeat until ``--seconds``
of measuring have passed (at least ``MIN_RUNS`` when the time limit allows).
Every run must pass the correctness gate (``valbench/workloads.py``); a
missing or spurious violation tuple, a crash or a timeout counts as failed.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the job-level metrics as
medians over the runs; ``--trace 1`` adds one traced run and reports the
per-layer metrics (``valbench/tracing.py``). Each run also prints a line with
its own figures and ``probe_ms``, the box-speed probe that ran beside it.

The shared host's speed drifts by a third over minutes, so the timing
metrics are scaled to a reference box speed: ``wall_ref_s`` is ``wall_s``
times ``PROBE_REF_MS / probe_ms`` (``valbench/proc.py``). The raw figures are
in the per-run lines and, with ``--trace 1``, in ``job.wall_s`` and
``job.turns_per_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

#: the whole invocation, preparation included, ends within this many seconds
TOTAL_LIMIT_S = 170.0
#: hard limit of one validation process
RUN_LIMIT_S = 90.0
MIN_RUNS = 3


def _box() -> dict:
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        nproc = None
    return {"nproc": nproc, "os_cpu_count": os.cpu_count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rows", type=int, default=None, help="corpus size hint (self-tests use a tiny one)")
    a = ap.parse_args(argv)
    t_start = time.monotonic()
    # a terminated runner unwinds, so the running child's session is torn down
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "teleharvest_ray", "__init__.py")):
        print(f"teleharvest_ray is not under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    from valbench import proc, tracing, workloads

    if a.workload not in workloads.WORKLOADS:
        print(f"unknown workload {a.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    from teleharvest_ray.config import ValidationConfig

    need = ValidationConfig().validator_num_cpus
    if need > proc.SESSION_CPUS:
        print(f"validator actor needs {need} CPUs; the benchmark session has {proc.SESSION_CPUS}", file=sys.stderr)
        return 2

    def remaining() -> float:
        return TOTAL_LIMIT_S - (time.monotonic() - t_start)

    work = os.path.join(ROOT, ".valbench_work")
    logs = os.path.join(work, "logs")
    os.makedirs(logs, exist_ok=True)
    cache = workloads.Cache(work, a.seed, a.rows or workloads.ROWS_HINT)
    stamp = {"ray_cpus": proc.SESSION_CPUS, **_box()}

    def untimed(dirs: list[tuple[str, str]]) -> None:
        jobs = [(["--data", d, "--out", o], os.path.join(logs, f"prepare-{i}.log")) for i, (d, o) in enumerate(dirs)]
        for r in proc.run_children(ROOT, jobs, min(RUN_LIMIT_S, remaining())):
            if r["summary"]["partitions_error"]:
                raise proc.RunFailed(f"untimed run: {r['summary']['partitions_error']}")

    try:
        cache.prepare(a.workload, untimed)
    except proc.RunFailed as e:
        print(f"preparing {a.workload} failed: {e}", file=sys.stderr)
        return 1
    oracle = cache.oracle(a.workload)

    def timed(i: int, trace_dir: str | None = None) -> dict | None:
        data, out = cache.stage(a.workload)
        os.sync()  # earlier writes are flushed now, not during the timed call
        args = ["--data", data, "--out", out] + (["--trace-dir", trace_dir] if trace_dir else [])
        t0 = time.monotonic()
        try:
            with proc.SpeedProbe() as probe:
                r = proc.run_child(ROOT, args, os.path.join(logs, f"run-{i}.log"), min(RUN_LIMIT_S, remaining()))
            problems = workloads.gate(a.workload, out, oracle, r["summary"])
        except proc.CpuMismatch:
            raise
        except proc.RunFailed as e:
            r, problems = None, [str(e)]
        line = {"run": i, "traced": bool(trace_dir), **stamp, "elapsed_s": round(time.monotonic() - t0, 3)}
        if r is not None:
            r["probe_ms"] = probe.ms(r["call_start"], r["call_end"])
            r["wall_ref_s"] = r["wall_s"] * proc.PROBE_REF_MS / r["probe_ms"]
            line.update({k: r[k] for k in ("setup_s", "wall_s", "probe_ms", "wall_ref_s", "peak_rss_mb",
                                           "out_bytes", "new_turns")})
        if problems:
            line["failed"] = problems
            print("\n".join(problems), file=sys.stderr)
        print(json.dumps(line), flush=True)
        return None if problems else r

    runs, attempted, longest = [], 0, 0.0
    t_measure = time.monotonic()
    reserve = 1.6 if a.trace else 0.0  # room kept for the traced run
    try:
        while attempted < MIN_RUNS or time.monotonic() - t_measure < a.seconds:
            if attempted and remaining() < longest * (1.2 + reserve) + 5:
                break
            t0 = time.monotonic()
            attempted += 1
            r = timed(attempted)
            longest = max(longest, time.monotonic() - t0)
            if r is not None:
                runs.append(r)
        traced = None
        if a.trace and runs:
            trace_dir = os.path.join(work, "trace")
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.makedirs(trace_dir)
            attempted += 1
            traced = timed(attempted, trace_dir)
    except proc.CpuMismatch as e:
        print(f"aborting: {e}", file=sys.stderr)
        return 2
    failed = attempted - len(runs) - (traced is not None)
    if not runs or (a.trace and traced is None):
        print("no run passed the correctness gate; no metrics to report", file=sys.stderr)
        return 1

    def med(f) -> float:
        return statistics.median(f(r) for r in runs)

    if a.trace:
        spans = tracing.load_spans(trace_dir)
        values = tracing.layer_metrics(spans, traced, med(lambda r: r["wall_s"]))
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in values.items()}
        metrics["job.wall_s"] = {"value": med(lambda r: r["wall_s"]), "unit": "s"}
        metrics["job.turns_per_s"] = {"value": med(lambda r: r["new_turns"] / r["wall_s"]), "unit": "1/s"}
    else:
        metrics = {
            "wall_ref_s": {"value": med(lambda r: r["wall_ref_s"]), "unit": "s"},
            "turns_per_ref_s": {"value": med(lambda r: r["new_turns"] / r["wall_ref_s"]), "unit": "1/s"},
            "setup_s": {"value": med(lambda r: r["setup_s"]), "unit": "s"},
            "driver_peak_rss_mb": {"value": med(lambda r: r["peak_rss_mb"]), "unit": "MB"},
            "out_bytes_per_turn": {"value": med(lambda r: r["out_bytes"] / r["new_turns"]), "unit": "B"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

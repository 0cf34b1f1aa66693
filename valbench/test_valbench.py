"""Self-tests of the benchmark at a tiny scale.

Run from the repository root (each starts short-lived Ray sessions, so the
whole file takes a few minutes)::

    python -m pytest valbench/test_valbench.py -q -p no:cacheprovider
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pyarrow.parquet as pq
import pytest

from valbench import proc, workloads
from valbench.run import ROOT

ROWS = 3000
SEED = 7
WORK = os.path.join(ROOT, ".valbench_work")


def _untimed(dirs):
    jobs = [(["--data", d, "--out", o], os.path.join(WORK, f"test-prepare-{i}.log")) for i, (d, o) in enumerate(dirs)]
    proc.run_children(ROOT, jobs, 120)


def _run_once(cache, workload, keep_mtime=True):
    data, out = cache.stage(workload, keep_mtime)
    r = proc.run_child(ROOT, ["--data", data, "--out", out], os.path.join(WORK, "test-run.log"), 120)
    return out, r


@pytest.fixture(scope="module")
def cache():
    os.makedirs(WORK, exist_ok=True)
    c = workloads.Cache(WORK, SEED, ROWS)
    c.prepare("append_resume", _untimed)
    return c


def test_gate_fails_on_dropped_expected_tuple(cache):
    out, r = _run_once(cache, "full_dirty")
    oracle = cache.oracle("full_dirty")
    assert workloads.gate("full_dirty", out, oracle, r["summary"]) == []
    dropped = set(oracle)
    dropped.pop()
    problems = workloads.gate("full_dirty", out, dropped, r["summary"])
    assert len(problems) == 1 and "1 spurious" in problems[0]


def test_gate_fails_on_missing_output_tuple(cache):
    out, r = _run_once(cache, "full_dirty")
    path = os.path.join(out, "violations", "_global.parquet")
    t = pq.read_table(path)
    pq.write_table(t.slice(1), path)
    problems = workloads.gate("full_dirty", out, cache.oracle("full_dirty"), r["summary"])
    assert problems and "missing" in problems[0]


def test_append_resume_runs_the_delta_path(cache):
    out, r = _run_once(cache, "append_resume")
    assert workloads.gate("append_resume", out, cache.oracle("append_resume"), r["summary"]) == []
    assert 0 < r["new_turns"] < r["summary"]["rows_scanned"]


def test_restore_without_mtimes_fails_resume_count_gate(cache):
    out, r = _run_once(cache, "append_resume", keep_mtime=False)
    problems = workloads.gate("append_resume", out, cache.oracle("append_resume"), r["summary"])
    assert any("delta path did not run" in p for p in problems)


def _bench(workload, trace):
    p = subprocess.run(
        [sys.executable, "valbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--rows", str(ROWS)],
        cwd=ROOT, capture_output=True, text=True, timeout=175,
    )
    assert p.returncode == 0, p.stderr[-3000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload,trace",
    [("full_dirty", 0), ("full_dirty", 1), ("append_resume", 0), ("append_resume", 1)],
)
def test_benchmark_json_matches_runner_output(cache, workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert workload in [w["name"] for w in spec["workloads"]]
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    res = _bench(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_runner_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "valbench"), tmp_path / "valbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "valbench/run.py", "--workload", "full_dirty", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=175,
    )
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout


def test_speed_probe_averages_the_passes_inside_the_call():
    probe = proc.SpeedProbe()
    probe.samples = [(1.0, 0.001), (2.0, 0.003), (2.4, 0.005), (3.0, 0.010)]
    assert probe.ms(1.5, 2.5) == pytest.approx(4.0)
    # a call too short to hold a pass falls back to every pass of the run
    assert probe.ms(5.0, 5.1) == pytest.approx(4.75)
    with proc.SpeedProbe() as probe:
        time.sleep(0.3)
    assert len(probe.samples) >= 2 and probe.ms(0, time.monotonic()) > 0


def test_session_without_room_for_the_validator_fails_fast(tmp_path):
    with pytest.raises(proc.CpuMismatch, match="never schedule"):
        proc.run_children(
            ROOT, [(["--data", str(tmp_path), "--out", str(tmp_path / "out"), "--cpus", "1"], str(tmp_path / "log"))], 120
        )


def test_timeout_tears_down_the_run(tmp_path, cache):
    data, out = cache.stage("full_dirty")
    log = str(tmp_path / "log")
    with pytest.raises(proc.RunFailed, match="timed out"):
        proc.run_child(ROOT, ["--data", data, "--out", out], log, 5)
    # nothing of the run survives: not the child, not its Ray session
    marks = [log + ".result.json"]
    if os.path.exists(log + ".result.json.session"):
        with open(log + ".result.json.session") as fh:
            marks.append(fh.read().strip())
        assert not os.path.exists(marks[-1])
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmd = fh.read().decode(errors="replace")
        except OSError:
            continue
        assert not any(m in cmd for m in marks), cmd

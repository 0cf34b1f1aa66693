"""One ``run_validation(data, out)`` call with library defaults, in this process.

Run as ``python -m valbench.child`` by :mod:`valbench.proc`, which starts one
process per run. The process imports the engine, starts its own Ray session
with a fixed CPU count, times the call, and writes a JSON result:

- ``setup_s``: process spawn to a ready Ray session (imports + ``ray.init``);
- ``wall_s``: seconds inside the ``run_validation`` call, and
  ``call_start`` / ``call_end``: its bounds on the ``time.monotonic()``
  clock, which the runner's box-speed probe shares;
- ``peak_rss_mb``: peak RSS of this (driver) process;
- ``out_bytes`` / ``sidecar_bytes``: bytes of files the call created or
  replaced under ``out/`` and ``out/keyspace/``;
- ``new_turns``: turns the call newly validated, from the checkpoint records.

With ``--trace-dir`` the run is traced: :mod:`valbench.tracing` wraps the
layers in this process and, through Ray's ``worker_process_setup_hook``, in
every worker, and each process writes its spans under the trace dir.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _files(root: str) -> dict:
    """``path -> (inode, mtime_ns, size)`` of every file under ``root``."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for n in names:
            p = os.path.join(dirpath, n)
            try:
                st = os.stat(p)
            except FileNotFoundError:
                continue
            out[p] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return out


def _rows_recorded(out_dir: str) -> int:
    ck = os.path.join(out_dir, "checkpoints")
    total = 0
    for fn in os.listdir(ck) if os.path.isdir(ck) else []:
        if fn.endswith(".json") and not fn.startswith("_"):
            with open(os.path.join(ck, fn)) as fh:
                total += int(json.load(fh).get("rows_scanned", 0))
    return total


def _atomic_json(obj, path: str) -> None:
    with open(path + ".tmp", "w") as fh:
        json.dump(obj, fh)
    os.replace(path + ".tmp", path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--cpus", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--data", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-dir")
    a = ap.parse_args(argv)

    import ray
    from teleharvest_ray.config import ValidationConfig
    from teleharvest_ray.pipelines.validate import run_validation

    need = ValidationConfig().validator_num_cpus
    if need > a.cpus:
        print(
            f"validator actor needs {need} CPUs but the session has {a.cpus}: "
            "run_validation would never schedule it",
            file=sys.stderr,
        )
        return 3

    init_kw = {}
    recorder = None
    if a.trace_dir:
        from valbench import tracing

        env = {tracing.TRACE_DIR_ENV: a.trace_dir, tracing.OUT_DIR_ENV: os.path.abspath(a.out)}
        os.environ.update(env)
        recorder = tracing.Recorder(a.trace_dir, os.path.abspath(a.out))
        tracing.install(recorder)
        init_kw["runtime_env"] = {"env_vars": env, "worker_process_setup_hook": tracing.WORKER_HOOK}
    ctx = ray.init(
        address="local",
        num_cpus=a.cpus,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 1024**2,
        **init_kw,
    )
    setup_s = time.time() - a.spawned_at
    with open(a.result + ".session", "w") as fh:
        fh.write(ctx.address_info.get("session_dir") or "")
    before = _files(a.out)
    rows_before = _rows_recorded(a.out)
    call_start = time.monotonic()
    if recorder is not None:
        with recorder.span("validate.run"):
            t0 = time.perf_counter()
            summary = run_validation(a.data, a.out)
            wall_s = time.perf_counter() - t0
        recorder.flush()
    else:
        t0 = time.perf_counter()
        summary = run_validation(a.data, a.out)
        wall_s = time.perf_counter() - t0
    call_end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    after = _files(a.out)
    written = {p: v[2] for p, v in after.items() if before.get(p, (None, None))[:2] != v[:2]}
    keyspace_dir = os.path.join(a.out, "keyspace") + os.sep
    _atomic_json(
        {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "call_start": call_start,
            "call_end": call_end,
            "peak_rss_mb": peak_rss_mb,
            "out_bytes": sum(written.values()),
            "sidecar_bytes": sum(v for p, v in written.items() if p.startswith(keyspace_dir)),
            "new_turns": _rows_recorded(a.out) - rows_before,
            "summary": {k: v for k, v in summary.items() if k != "column_stats"},
        },
        a.result,
    )
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # no ray.shutdown(): the caller kills the run's whole process group and
    # waits for it, which ends the session as surely and a second sooner
    os._exit(code)

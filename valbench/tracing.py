"""Spans around the calls into each layer, recorded from outside the program.

:func:`install` rebinds the names ``teleharvest_ray.pipelines.validate``
imported (and the three helpers ``keyspace_from_states`` calls) to wrappers
that record a span per call. The engine's code is not edited: the driver
process calls :func:`install` itself, and every Ray worker runs
:func:`worker_setup` through ``runtime_env={"worker_process_setup_hook": ...}``
before it executes a task. A worker writes its spans after every
``PartitionValidator`` call, so nothing depends on actor exit.

A span is ``{id, parent, pid, name, start, end, counts, meta}``; ``parent``
is the span open in the same thread when this one started. Times come from
``time.perf_counter`` (system-wide monotonic on Linux), so spans of
different processes share one clock.

:func:`layer_metrics` turns the spans of one traced run into the per-layer
metrics listed in the benchmark's README.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

TRACE_DIR_ENV = "VALBENCH_TRACE_DIR"
OUT_DIR_ENV = "VALBENCH_OUT_DIR"
WORKER_HOOK = "valbench.tracing.worker_setup"

KEY_COLS = ["conv_id", "turn_idx"]


class Recorder:
    """Spans of one process, kept in memory and written out by :meth:`flush`."""

    def __init__(self, trace_dir: str, out_dir: str):
        self.path = os.path.join(trace_dir, f"spans-{os.getpid()}.json")
        self.out_dir = out_dir.rstrip(os.sep) + os.sep
        self.spans: list[dict] = []
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]]["name"] if stack else None

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        s = {
            "id": len(self.spans),
            "parent": stack[-1] if stack else None,
            "pid": os.getpid(),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
            "meta": {},
        }
        self.spans.append(s)
        stack.append(s["id"])
        try:
            yield s
        finally:
            s["end"] = time.perf_counter()
            stack.pop()

    def flush(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump([s for s in self.spans if s["end"] is not None], fh)
        os.replace(tmp, self.path)


def _wrap(rec: Recorder, owner, attr: str, name: str, counts=None) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kw):
        with rec.span(name) as s:
            out = fn(*args, **kw)
            if counts is not None:
                s["counts"].update(counts(args, out))
        return out

    setattr(owner, attr, traced)


def install(rec: Recorder) -> None:
    """Wrap the layers in this process. Called once per process: by the
    traced child for the driver, and by :func:`worker_setup` in each worker."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from teleharvest_ray.pipelines import validate as v
    from teleharvest_ray.stages import keyspace as ks

    def rows_in(args, out):
        return {"rows": args[0].num_rows}

    _wrap(rec, v, "build_profile", "profile.build")
    _wrap(rec, v, "build_conv_last", "row_checks.build_conv_last")
    _wrap(rec, v, "evaluate_chain", "row_checks.evaluate_chain", rows_in)
    _wrap(rec, v, "chain_violations", "row_checks.chain_violations", lambda a, o: {"violations": o.num_rows})
    _wrap(rec, v, "filter_violations", "row_checks.filter_violations")
    _wrap(rec, v, "partition_stats", "stats.partition_stats", rows_in)
    _wrap(rec, v, "merge_stats", "stats.merge")
    _wrap(rec, v, "stats_from_bytes", "stats.merge")
    _wrap(rec, v, "stats_to_bytes", "stats.encode", lambda a, o: {"bytes": len(o)})
    _wrap(rec, v, "stats_summary", "stats.summary")
    _wrap(rec, v, "drift_check", "stats.drift_check")
    _wrap(rec, v, "prep_state", "keyspace.prep_state", rows_in)
    _wrap(rec, v, "merge_conv_partials", "keyspace.conv_partials")
    _wrap(rec, v, "conv_partials_table", "keyspace.conv_partials")
    _wrap(
        rec, v, "keyspace_from_states", "keyspace.from_states",
        lambda a, o: {"confirmed": sum(c in ("dup_key", "seq_gap") for c in o["check_id"].to_pylist())},
    )
    _wrap(rec, ks, "find_dup_hashes", "keyspace.find_dup_hashes", lambda a, o: {"candidates": len(o)})
    _wrap(rec, ks, "_gap_orphan_candidates", "keyspace.gap_orphan", lambda a, o: {"candidates": len(o[0])})
    _wrap(rec, ks, "_scan_convs", "keyspace.scan_convs")
    _wrap(rec, v, "atomic_write_parquet", "checkpoint.write_parquet", lambda a, o: {"bytes": os.path.getsize(a[1])})

    def read_name(path, columns=None) -> str:
        path = str(path)
        if path.startswith(rec.out_dir):
            return "checkpoint.read"
        if columns == KEY_COLS:
            return "read.key_cols"
        if rec.current() == "validate.partition":
            return "read.row_group"
        if columns == ["text", "role", "tool"]:
            return "read.profile"
        return "read.index" if os.path.basename(path) == "conversations.parquet" else "read.footer"

    class TracedParquetFile(pq.ParquetFile):
        def __init__(self, source, *args, **kw):
            with rec.span(read_name(source)):
                super().__init__(source, *args, **kw)

        def read_row_group(self, i, *args, **kw):
            with rec.span("read.row_group") as s:
                t = super().read_row_group(i, *args, **kw)
                s["counts"]["bytes"] = t.nbytes
            return t

    class TracedParquet:
        def __getattr__(self, name):
            return getattr(pq, name)

        ParquetFile = TracedParquetFile

        @staticmethod
        def read_table(source, *args, columns=None, **kw):
            with rec.span(read_name(source, columns)) as s:
                t = pq.read_table(source, *args, columns=columns, **kw)
                s["counts"]["bytes"] = t.nbytes
            return t

    class TracedData:
        def __getattr__(self, name):
            return getattr(rd, name)

        @staticmethod
        def from_items(items, *args, **kw):
            with rec.span("validate.plan"):
                return rd.from_items(items, *args, **kw)

        @staticmethod
        def read_parquet(paths, *args, columns=None, **kw):
            name = "validate.phase2_read_setup" if columns == KEY_COLS else "read.dataset_setup"
            with rec.span(name) as s:
                s["meta"]["files"] = list(paths)
                return rd.read_parquet(paths, *args, columns=columns, **kw)

    v.pq = TracedParquet()
    v.rd = TracedData()

    class TracedStore(v.CheckpointStore):
        def read(self, partition_id):
            with rec.span("checkpoint.read") as s:
                s["meta"]["pid"] = partition_id
                return super().read(partition_id)

        def write(self, partition_id, record):
            with rec.span("checkpoint.write_record") as s:
                s["meta"]["pid"] = partition_id
                super().write(partition_id, record)
                s["counts"]["bytes"] = os.path.getsize(self.record_path(partition_id))

    v.CheckpointStore = TracedStore

    pv = v.PartitionValidator
    _wrap(rec, pv, "__init__", "validate.actor_init")
    _wrap(rec, pv, "_one", "validate.partition")
    call = pv.__call__

    @functools.wraps(call)
    def call_and_flush(self, batch):
        try:
            return call(self, batch)
        finally:
            rec.flush()

    pv.__call__ = call_and_flush


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: trace this worker process."""
    install(Recorder(os.environ[TRACE_DIR_ENV], os.environ[OUT_DIR_ENV]))


def load_spans(trace_dir: str) -> list[dict]:
    spans = []
    for p in sorted(glob.glob(os.path.join(trace_dir, "spans-*.json"))):
        with open(p) as fh:
            spans.extend(json.load(fh))
    return spans


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("turns_per_s_core"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if "bytes" in metric:
        return "B"
    if "coverage" in metric:
        return "share"
    if metric.endswith("_per_violation"):
        return "rows/violation"
    return "count"


def layer_metrics(spans: list[dict], run: dict, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced run.

    ``run`` is the traced child's result (for the wall and the sidecar
    bytes); ``untraced_wall_s`` is the median wall of the untraced runs."""
    import pyarrow.parquet as pq

    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def total(*names) -> float:
        return sum(_dur(s) for n in names for s in by_name[n])

    def count(name, key) -> int:
        return sum(s["counts"].get(key, 0) for s in by_name[name])

    (root,) = by_name["validate.run"]
    driver = [s for s in spans if s["pid"] == root["pid"]]
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["pid"], s["parent"])].append(s)

    # phase 1: planning the actor pool until the driver first merges sketches;
    # phase 2: reading the "_global" record until writing it
    plan = next(s for s in driver if s["name"] == "validate.plan")
    merge_start = min(s["start"] for s in driver if s["name"] == "stats.merge" and s["start"] > plan["end"])
    g_write = [s for s in driver if s["name"] == "checkpoint.write_record" and s["meta"].get("pid") == "_global"][-1]
    g_read = [
        s for s in driver
        if s["name"] == "checkpoint.read" and s["meta"].get("pid") == "_global" and s["end"] <= g_write["start"]
    ][-1]
    phase1 = (plan["start"], merge_start)
    phase2 = (g_read["start"], g_write["end"])
    profile = [(s["start"], s["end"]) for s in driver if s["name"] in ("profile.build", "read.profile")]
    top = [(s["start"], s["end"]) for s in children[(root["pid"], root["id"])]]
    wall = _dur(root)

    parts = by_name["validate.partition"]
    covered = [_union((c["start"], c["end"]) for c in children[(p["pid"], p["id"])]) for p in parts]

    (from_states,) = by_name["keyspace.from_states"]
    candidates = count("keyspace.find_dup_hashes", "candidates") + count("keyspace.gap_orphan", "candidates")
    confirmed = count("keyspace.from_states", "confirmed")
    scanned = sum(
        pq.ParquetFile(f).metadata.num_rows for s in by_name["validate.phase2_read_setup"] for f in s["meta"]["files"]
    )
    verify_rows = scanned * ((candidates > 0) + len(by_name["keyspace.scan_convs"]))
    chain_s = total("row_checks.evaluate_chain")

    return {
        "profile.build_s": total("profile.build", "read.profile"),
        "read.row_group_s": total("read.row_group"),
        "read.key_cols_s": total("read.key_cols"),
        "read.bytes": count("read.row_group", "bytes") + count("read.key_cols", "bytes"),
        "row_checks.build_conv_last_s": total("row_checks.build_conv_last"),
        "row_checks.evaluate_chain_s": chain_s,
        "row_checks.chain_violations_s": total("row_checks.chain_violations"),
        "row_checks.turns_per_s_core": count("row_checks.evaluate_chain", "rows") / chain_s,
        "row_checks.violations": count("row_checks.chain_violations", "violations"),
        "stats.partition_stats_s": total("stats.partition_stats"),
        "stats.merge_s": total("stats.merge"),
        "stats.drift_check_s": total("stats.drift_check"),
        "stats.sketch_bytes": count("stats.encode", "bytes"),
        "keyspace.prep_state_s": total("keyspace.prep_state"),
        "keyspace.conv_partials_s": total("keyspace.conv_partials"),
        "keyspace.sidecar_bytes": run["sidecar_bytes"],
        "keyspace.from_states_s": _dur(from_states),
        "keyspace.find_dup_hashes_s": total("keyspace.find_dup_hashes"),
        "keyspace.gap_orphan_s": total("keyspace.gap_orphan"),
        "keyspace.verify_s": _dur(from_states) - total("keyspace.find_dup_hashes", "keyspace.gap_orphan"),
        "keyspace.candidates": candidates,
        "keyspace.confirmed": confirmed,
        "keyspace.verify_rows_per_violation": verify_rows / max(confirmed, 1),
        "validate.phase2_read_setup_s": total("validate.phase2_read_setup"),
        "checkpoint.write_parquet_s": total("checkpoint.write_parquet"),
        "checkpoint.write_record_s": total("checkpoint.write_record"),
        "checkpoint.read_s": total("checkpoint.read"),
        "checkpoint.bytes_written": count("checkpoint.write_parquet", "bytes") + count("checkpoint.write_record", "bytes"),
        "validate.actor_init_s": total("validate.actor_init"),
        "validate.partition_s": total("validate.partition"),
        "validate.partitions": len(parts),
        "validate.phase1_s": phase1[1] - phase1[0],
        "validate.phase2_s": phase2[1] - phase2[0],
        "validate.self_s": wall - _union(top + profile + [phase1, phase2]),
        "trace.partition_coverage": sum(covered) / total("validate.partition"),
        "trace.partition_coverage_min": min(c / _dur(p) for c, p in zip(covered, parts)),
        "trace.wall_coverage": _union(profile + [phase1, phase2]) / wall,
        "trace.overhead_s": run["wall_s"] - untraced_wall_s,
    }

"""Refresh pipelines: the EP2 / EP3 entry points of the reference, recast.

**refresh_similarity** — EP2 ``update_similarity`` (``main.py:27`` →
``processor.py:159-178``): the reference recomputes max-cosine similarity for
the unpublished backlog (rows with an embedding) as the published set evolves.
Recast: given a (new) ReferenceProfile, recompute ``similarity_score`` for
annotated rows that reached the embedding-proxy stage (``token_count`` not
null — the "has embedding" predicate, ``models/message.py:128-141``). The
eligible rows' ``alt`` text comes from :func:`~.validate.read_annotated`
(rebuilt from the input, or stored when a non-builtin scorer made it), the
scores come from one matmul over the partition's eligible rows, and each
segment's annotated file that holds an eligible row, which holds only the
chain columns, is rewritten copy-on-write (the S4 "row update sink" at
scale: re-emit the segment, never point-update).

**refresh_metrics** — EP3 ``fetch_and_update_metrics`` (``main.py:29`` →
``processor.py:65-71``): the reference re-scans a bounded historical window
(first id of the last ``limit=1000`` ids .. watermark) per channel to refresh
late-arriving engagement metrics. Recast: per partition, re-read the CURRENT
input file's key and metric columns for the rows its checkpoint record
covers (rows appended since are left to the next validation), re-evaluate
the chain's own metrics-presence predicate (:func:`~..stages.row_checks.metrics_missing`,
``processor.py:147-157``) for rows within the last ``window`` turns of each
conversation (batch-local watermark, like the reference's per-channel
watermark captured in EP1: the per-conversation max turn of
:func:`~..stages.row_checks.build_conv_last`; a null turn counts as the
``-1`` its violation row carries), and rewrite each segment's violations
copy-on-write, in Arrow: the old in-window ``metrics_missing`` rows are
dropped by mask and each failing in-window input row of the segment's rows
adds one, so a duplicated key keeps one row per copy, as a validation run
writes it; all other violation rows are kept untouched.

Both are actor-pool per-partition maps (:func:`_map_partitions`), resumable
by construction (atomic file replace; re-running is idempotent).
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..config import ValidationConfig
from ..functions import textfuncs as tf
from ..stages.row_checks import build_conv_last, lookup_conv_last, metrics_missing
from ..state.checkpoint import CheckpointStore, atomic_write_parquet
from ..state.profile import ReferenceProfile
from .validate import read_annotated, release_pool, segment_files


def _map_partitions(items: list, actor_cls, args: tuple) -> pd.DataFrame:
    """One actor per CPU of the session (at most one per item) maps
    ``actor_cls`` over ``items``, one item per call. The pool is released
    before returning or raising (:func:`~.validate.release_pool`)."""
    n_cpus = int(ray.cluster_resources().get("CPU", 0))
    if not n_cpus:
        raise RuntimeError("the Ray session has no CPUs to run refreshers on")
    free_cpus = ray.available_resources().get("CPU", 0)
    try:
        ds = rd.from_items(items).map_batches(
            actor_cls,
            fn_constructor_args=args,
            batch_size=1,
            concurrency=max(1, min(len(items), n_cpus)),
            batch_format="pyarrow",
        )
        return ds.to_pandas()
    finally:
        # also on a raise, whose traceback keeps this frame's locals
        ds = None
        release_pool(free_cpus)


class SimilarityRefresher:
    """Actor: profile loaded once (__init__); per partition, one matmul
    against the broadcast exemplars for the eligible rows of all its
    segments (J1 pattern)."""

    def __init__(self, profile_ref, out_dir: str):
        self.profile: ReferenceProfile = ray.get(profile_ref)
        self.out_dir = out_dir

    def __call__(self, batch) -> pa.Table:
        out = []
        for pid in batch["pid"].to_pylist():
            out.append(self._one(pid))
        return pa.Table.from_pylist(out)

    def _one(self, pid: str) -> dict:
        rec = CheckpointStore(os.path.join(self.out_dir, "checkpoints")).read(pid)
        paths = [f for *_, f in segment_files(self.out_dir, "annotated", rec)]
        tbls = [pq.read_table(p) for p in paths]
        eligible = np.concatenate([pc.is_valid(t["token_count"]).to_numpy(zero_copy_only=False) for t in tbls])
        n_elig = int(eligible.sum())
        if n_elig:
            # one matmul over the partition's eligible rows, whatever its
            # segments, so a segmented partition scores as a folded one
            idx = np.flatnonzero(eligible)
            alt = read_annotated(self.out_dir, pid)["alt"].combine_chunks().take(pa.array(idx))
            new_sim = np.concatenate([t["similarity_score"].to_numpy(zero_copy_only=False) for t in tbls])
            new_sim[idx] = tf.max_cosine(tf.hashed_bow(alt), self.profile.exemplars)
            lo = 0
            for path, tbl in zip(paths, tbls):
                hi = lo + tbl.num_rows
                if eligible[lo:hi].any():
                    col_i = tbl.column_names.index("similarity_score")
                    tbl = tbl.set_column(
                        col_i, "similarity_score", pa.array(new_sim[lo:hi], pa.float64(), from_pandas=True)
                    )
                    atomic_write_parquet(tbl, path)
                lo = hi
        return {"partition": pid, "rows_refreshed": n_elig}


def refresh_similarity(out_dir: str, profile: ReferenceProfile) -> dict:
    """Recompute similarity for every annotated partition against ``profile``."""
    records = CheckpointStore(os.path.join(out_dir, "checkpoints")).completed()
    pids = sorted(p for p in records if not p.startswith("_"))
    if not pids:
        return {"partitions": 0, "rows_refreshed": 0}
    res = _map_partitions([{"pid": p} for p in pids], SimilarityRefresher, (ray.put(profile), out_dir))
    return {"partitions": len(res), "rows_refreshed": int(res["rows_refreshed"].sum())}


class MetricsRefresher:
    """Actor: per partition, bounded-window metrics re-check + copy-on-write
    violation rewrite of each segment."""

    def __init__(self, cfg: ValidationConfig, data_dir: str, out_dir: str, window: int):
        self.cfg = cfg
        self.data_dir = data_dir
        self.out_dir = out_dir
        self.window = window

    def __call__(self, batch) -> pa.Table:
        out = []
        for pid in batch["pid"].to_pylist():
            out.append(self._one(pid))
        return pa.Table.from_pylist(out)

    def _one(self, pid: str) -> dict:
        rec = CheckpointStore(os.path.join(self.out_dir, "checkpoints")).read(pid)
        if rec is None:  # never validated: it has no violations to refresh
            return {"partition": pid, "window_rows": 0, "metrics_violations": 0}
        src = os.path.join(self.data_dir, f"{pid}.parquet")
        # the validated rows only: rows appended since are left to the next
        # validation, which writes them into a segment of their own
        tbl = pq.read_table(src, columns=["conv_id", "turn_idx", "views", "reactions"]).slice(0, rec["rows_scanned"])
        # batch-local watermark per conversation (EP1's channel_min_id analog,
        # processor.py:60-61); window = last `window` turns below it
        conv_last = build_conv_last(tbl)
        # a null turn is the -1 of the metrics_missing row chain_violations
        # writes for it, inside the window as that row is
        turn = pc.fill_null(tbl["turn_idx"], -1)

        def in_window(conv: pa.ChunkedArray, turn: pa.ChunkedArray) -> np.ndarray:
            floor = lookup_conv_last(conv_last, conv.to_numpy()) - self.window
            return turn.to_numpy() > floor

        window = in_window(tbl["conv_id"], turn)
        bad = metrics_missing(tbl) & window
        n_bad = int(bad.sum())
        # copy-on-write, segment by segment: the in-window metrics_missing
        # rows are replaced, one per failing in-window input row of the
        # segment's rows (a duplicated key keeps both); every other row is
        # kept as it is
        for start, stop, vio_path in segment_files(self.out_dir, "violations", rec):
            seg_bad = pa.array(np.flatnonzero(bad[start:stop]) + start)
            new_rows = pa.table(
                {
                    "conv_id": tbl["conv_id"].take(seg_bad).cast(pa.string()),
                    "turn_idx": turn.take(seg_bad).cast(pa.int32()),
                    "check_id": pa.repeat(pa.scalar("metrics_missing"), len(seg_bad)),
                    "detail": pa.nulls(len(seg_bad), pa.string()),
                }
            )
            if os.path.exists(vio_path):
                old = pq.read_table(vio_path)
                stale = pc.equal(old["check_id"], "metrics_missing").to_numpy() & in_window(
                    old["conv_id"], old["turn_idx"]
                )
                new_rows = pa.concat_tables([old.filter(pa.array(~stale)), new_rows])
            atomic_write_parquet(new_rows, vio_path)
        return {"partition": pid, "window_rows": int(window.sum()), "metrics_violations": n_bad}


def refresh_metrics(
    data_dir: str,
    out_dir: str,
    cfg: ValidationConfig | None = None,
    window: int = 1000,
) -> dict:
    """Bounded-window metrics re-scan over every validated partition."""
    cfg = cfg or ValidationConfig()
    if "metrics_missing" in cfg.disabled_checks:
        # the emission-boundary contract (checks.py): a disabled check emits
        # nothing, including from refresh passes
        return {"partitions": 0, "window_rows": 0, "metrics_violations": 0, "disabled": True}
    files = sorted(glob.glob(os.path.join(data_dir, "part-*.parquet")))
    pids = [os.path.splitext(os.path.basename(f))[0] for f in files]
    if not pids:
        return {"partitions": 0}
    res = _map_partitions([{"pid": p} for p in pids], MetricsRefresher, (cfg, data_dir, out_dir, window))
    return {
        "partitions": len(res),
        "window_rows": int(res["window_rows"].sum()),
        "metrics_violations": int(res["metrics_violations"].sum()),
    }

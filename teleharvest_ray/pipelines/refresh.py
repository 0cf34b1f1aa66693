"""Refresh pipelines: the EP2 / EP3 entry points of the reference, recast.

**refresh_similarity** — EP2 ``update_similarity`` (``main.py:27`` →
``processor.py:159-178``): the reference recomputes max-cosine similarity for
the unpublished backlog (rows with an embedding) as the published set evolves.
Recast: given a (new) ReferenceProfile, recompute ``similarity_score`` for
annotated rows that reached the embedding-proxy stage (``token_count`` not
null — the "has embedding" predicate, ``models/message.py:128-141``). The
eligible rows' ``alt`` text comes from :func:`~.validate.read_annotated`
(rebuilt from the input, or stored when a non-builtin scorer made it), and
the annotated file, which holds only the chain columns, is rewritten
copy-on-write (the S4 "row update sink" at scale: re-emit the partition,
never point-update).

**refresh_metrics** — EP3 ``fetch_and_update_metrics`` (``main.py:29`` →
``processor.py:65-71``): the reference re-scans a bounded historical window
(first id of the last ``limit=1000`` ids .. watermark) per channel to refresh
late-arriving engagement metrics. Recast: per partition, re-read the CURRENT
input file's key and metric columns, re-evaluate the chain's own
metrics-presence predicate (:func:`~..stages.row_checks.metrics_missing`,
``processor.py:147-157``) for rows within the last ``window`` turns of each
conversation (batch-local watermark, like the reference's per-channel
watermark captured in EP1: the per-conversation max turn of
:func:`~..stages.row_checks.build_conv_last`), and rewrite the partition's
violations copy-on-write, in Arrow: the old in-window ``metrics_missing``
rows are dropped by mask and each failing in-window input row adds one, so
a duplicated key keeps one row per copy, as a validation run writes it; all
other violation rows are kept untouched.

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
from ..state.checkpoint import atomic_write_parquet
from ..state.profile import ReferenceProfile
from .validate import read_annotated, release_pool


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
    against the broadcast exemplars for eligible rows (J1 pattern)."""

    def __init__(self, profile_ref, out_dir: str):
        self.profile: ReferenceProfile = ray.get(profile_ref)
        self.out_dir = out_dir

    def __call__(self, batch) -> pa.Table:
        out = []
        for path in batch["path"].to_pylist():
            out.append(self._one(path))
        return pa.Table.from_pylist(out)

    def _one(self, path: str) -> dict:
        tbl = pq.read_table(path)
        eligible = pc.is_valid(tbl["token_count"]).to_numpy(zero_copy_only=False)
        n_elig = int(eligible.sum())
        if n_elig:
            idx = np.flatnonzero(eligible)
            pid = os.path.splitext(os.path.basename(path))[0]
            alt = read_annotated(self.out_dir, pid)["alt"].combine_chunks().take(pa.array(idx))
            vecs = tf.hashed_bow(alt)
            sims = tf.max_cosine(vecs, self.profile.exemplars)
            new_sim = tbl["similarity_score"].to_numpy(zero_copy_only=False).copy()
            new_sim[idx] = sims
            col_i = tbl.column_names.index("similarity_score")
            tbl = tbl.set_column(
                col_i, "similarity_score", pa.array(new_sim, pa.float64(), from_pandas=True)
            )
            atomic_write_parquet(tbl, path)
        return {"partition": os.path.basename(path), "rows_refreshed": n_elig}


def refresh_similarity(out_dir: str, profile: ReferenceProfile) -> dict:
    """Recompute similarity for every annotated partition against ``profile``."""
    files = sorted(glob.glob(os.path.join(out_dir, "annotated", "*.parquet")))
    if not files:
        return {"partitions": 0, "rows_refreshed": 0}
    res = _map_partitions([{"path": f} for f in files], SimilarityRefresher, (ray.put(profile), out_dir))
    return {"partitions": len(res), "rows_refreshed": int(res["rows_refreshed"].sum())}


class MetricsRefresher:
    """Actor: per partition, bounded-window metrics re-check + copy-on-write
    violation rewrite."""

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
        src = os.path.join(self.data_dir, f"{pid}.parquet")
        vio_path = os.path.join(self.out_dir, "violations", f"{pid}.parquet")
        tbl = pq.read_table(src, columns=["conv_id", "turn_idx", "views", "reactions"])
        # batch-local watermark per conversation (EP1's channel_min_id analog,
        # processor.py:60-61); window = last `window` turns below it
        conv_last = build_conv_last(tbl)

        def in_window(t: pa.Table) -> np.ndarray:
            floor = lookup_conv_last(conv_last, t["conv_id"].to_numpy()) - self.window
            return t["turn_idx"].to_numpy() > floor

        window = in_window(tbl)
        bad = metrics_missing(tbl) & window
        n_bad = int(bad.sum())
        new_rows = pa.table(
            {
                "conv_id": tbl["conv_id"].filter(pa.array(bad)).cast(pa.string()),
                "turn_idx": tbl["turn_idx"].filter(pa.array(bad)).cast(pa.int32()),
                "check_id": pa.repeat(pa.scalar("metrics_missing"), n_bad),
                "detail": pa.nulls(n_bad, pa.string()),
            }
        )
        # copy-on-write: the in-window metrics_missing rows are replaced, one
        # per failing input row (a duplicated key keeps both); every other
        # row is kept as it is
        if os.path.exists(vio_path):
            old = pq.read_table(vio_path)
            stale = pc.equal(old["check_id"], "metrics_missing").to_numpy() & in_window(old)
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

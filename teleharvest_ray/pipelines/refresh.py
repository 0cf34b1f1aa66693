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
input file, re-evaluate the metrics-presence predicate
(``processor.py:147-157``) for rows within the last ``window`` turns of each
conversation (batch-local watermark, like the reference's per-channel
watermark captured in EP1), and rewrite the partition's ``metrics_missing``
violations copy-on-write; all other violation kinds are preserved untouched.

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
            batch_format="pandas",
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
        for path in batch["path"]:
            out.append(self._one(str(path)))
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
        for pid in batch["pid"]:
            out.append(self._one(str(pid)))
        return pa.Table.from_pylist(out)

    def _one(self, pid: str) -> dict:
        src = os.path.join(self.data_dir, f"{pid}.parquet")
        vio_path = os.path.join(self.out_dir, "violations", f"{pid}.parquet")
        tbl = pq.read_table(src, columns=["conv_id", "turn_idx", "views", "reactions"])
        conv = pd.Series(np.asarray(tbl["conv_id"].to_pandas(), dtype=object))
        turn = tbl["turn_idx"].to_numpy(zero_copy_only=False)
        # batch-local watermark per conversation (EP1's channel_min_id analog,
        # processor.py:60-61); window = last `window` turns below it
        conv_max = pd.Series(turn).groupby(conv.to_numpy()).transform("max").to_numpy()
        in_window = turn > (conv_max - self.window)
        views = tbl["views"].to_numpy(zero_copy_only=False).astype(np.float64)
        reac = tbl["reactions"].to_numpy(zero_copy_only=False).astype(np.float64)
        bad = (np.isnan(views) | (views == 0) | np.isnan(reac) | (reac == 0)) & in_window
        new_rows = pd.DataFrame(
            {
                "conv_id": conv.to_numpy()[bad],
                "turn_idx": turn[bad].astype(np.int32),
                "check_id": "metrics_missing",
                "detail": None,
            }
        )
        old = pq.read_table(vio_path).to_pandas() if os.path.exists(vio_path) else pd.DataFrame(
            columns=["conv_id", "turn_idx", "check_id", "detail"]
        )
        # copy-on-write: replace in-window metrics_missing entries, keep rest
        conv_max_map = pd.Series(turn).groupby(conv.to_numpy()).max()
        if len(old):
            old_wm = old["conv_id"].map(conv_max_map)
            old_in_window = (old["check_id"] == "metrics_missing") & (
                old["turn_idx"] > (old_wm - self.window)
            )
            keep_mask = ~old_in_window.fillna(False)
        else:
            keep_mask = pd.Series([], dtype=bool)
        merged = pd.concat([old[keep_mask], new_rows], ignore_index=True).drop_duplicates(
            ["conv_id", "turn_idx", "check_id"]
        )
        out_tbl = pa.table(
            {
                "conv_id": pa.array(merged["conv_id"].to_numpy(object), pa.string()),
                "turn_idx": pa.array(merged["turn_idx"].to_numpy().astype(np.int32)),
                "check_id": pa.array(merged["check_id"].to_numpy(object), pa.string()),
                "detail": pa.array(merged["detail"].to_numpy(object), pa.string()),
            }
        )
        atomic_write_parquet(out_tbl, vio_path)
        return {"partition": pid, "window_rows": int(in_window.sum()), "metrics_violations": int(bad.sum())}


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

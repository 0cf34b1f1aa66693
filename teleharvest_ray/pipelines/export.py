"""Quarantine/clean export sink: split a validated transcript corpus into a
clean set and a quarantine set using a completed run's violation output.

The reference applies its checks inline and simply skips failing messages
(``processor.py:98-135``); at 100 TB the operational shape is different — a
validation run records violations once, then downstream consumers need the
CLEAN corpus materialized (and auditors need the quarantined rows), without
re-running any checks. This sink derives both from the violation parquet
alone.

Scale design:

- The membership side is the VIOLATION set, not the corpus: packed 64-bit
  (conv_id, turn_idx) key hashes, ``ray.put`` once, searchsorted per batch.
  Violations are assumed small relative to data (the operating regime of a
  quality gate); a corpus-sized violation set would mean the gate itself is
  misconfigured, and the sharded-Bloom keyspace machinery would be the tool.
- Hash hits are CONFIRMED exactly against the broadcast violation frame
  before a row is quarantined — a 64-bit collision can flag a candidate but
  never misroute a row (this sink must be exact: it defines the training
  corpus).
- One output pair per input partition, written atomically; a partition whose
  outputs both exist is skipped, so a killed export resumes by reprocessing
  only unfinished partitions (same lineage contract as the validator).
- Partition-level checks (drift) and synthetic keys that reference MISSING
  rows (seq_gap names the absent turn) don't match any data row and so never
  quarantine one; row-level checks drive the split.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..functions.hashing import hash_key
from ..state.checkpoint import atomic_write_parquet

from ..checks import REGISTRY

#: check ids that are partition-scoped, not row-scoped — never quarantine on
#: them (derived from the registry so a new partition-scoped check can never
#: silently leak into the quarantine keyset)
_PARTITION_SCOPED = tuple(c.id for c in REGISTRY.values() if c.stage == "partition")


def violation_keyset(out_dir: str) -> tuple[np.ndarray, pd.DataFrame]:
    """(sorted packed key hashes, (conv_id, turn_idx) frame) of every
    row-level violation of a completed run — violation-sized, never
    data-sized."""
    from .validate import read_violations

    vio = read_violations(out_dir)
    if len(vio):
        m = (
            vio["conv_id"].notna()
            & vio["turn_idx"].notna()
            & ~vio["check_id"].isin(_PARTITION_SCOPED)
        )
        vio = vio.loc[m, ["conv_id", "turn_idx"]].drop_duplicates()
    else:
        vio = pd.DataFrame({"conv_id": pd.Series(dtype="object"), "turn_idx": pd.Series(dtype="int64")})
    keys = np.sort(hash_key(vio["conv_id"].to_numpy(), vio["turn_idx"].to_numpy()))
    return keys, vio.reset_index(drop=True)


def _split_one(path: str, bad_keys: np.ndarray, bad_df: pd.DataFrame, export_dir: str) -> dict:
    pid = os.path.basename(path).removesuffix(".parquet")
    cpath = os.path.join(export_dir, "clean", f"{pid}.parquet")
    qpath = os.path.join(export_dir, "quarantine", f"{pid}.parquet")
    if os.path.exists(cpath) and os.path.exists(qpath):
        return {"partition_id": pid, "rows": -1, "quarantined": -1, "skipped": True}
    t = pq.read_table(path)
    k = hash_key(t["conv_id"], t["turn_idx"])
    if len(bad_keys):
        pos = np.searchsorted(bad_keys, k)
        pos_c = np.minimum(pos, len(bad_keys) - 1)
        cand = (pos < len(bad_keys)) & (bad_keys[pos_c] == k)
    else:
        cand = np.zeros(len(k), dtype=bool)
    if cand.any():
        # exact confirm of hash hits: candidate-sized merge, so a 64-bit
        # collision can cost a lookup but never misroutes a row
        ci = np.flatnonzero(cand)
        cf = t.select(["conv_id", "turn_idx"]).take(ci).to_pandas()
        cf["turn_idx"] = cf["turn_idx"].to_numpy().astype("int64")
        hit = cf.merge(bad_df.assign(__bad=True), on=["conv_id", "turn_idx"], how="left")[
            "__bad"
        ].notna()
        isbad = np.zeros(len(k), dtype=bool)
        isbad[ci[hit.to_numpy()]] = True
    else:
        isbad = np.zeros(len(k), dtype=bool)
    atomic_write_parquet(t.filter(~isbad), cpath)
    atomic_write_parquet(t.filter(isbad), qpath)
    return {"partition_id": pid, "rows": t.num_rows, "quarantined": int(isbad.sum()), "skipped": False}


def export_quarantine(data_dir: str, out_dir: str, export_dir: str) -> dict:
    """Split ``data_dir``'s transcript partitions into ``export_dir/clean``
    and ``export_dir/quarantine`` parquet, driven by the completed validation
    run under ``out_dir``. Returns per-run totals; resumable (see module
    docstring)."""
    files = sorted(glob.glob(os.path.join(data_dir, "part-*.parquet")))
    if not files:
        raise FileNotFoundError(f"no part-*.parquet under {data_dir}")
    os.makedirs(os.path.join(export_dir, "clean"), exist_ok=True)
    os.makedirs(os.path.join(export_dir, "quarantine"), exist_ok=True)
    bad_keys, bad_df = violation_keyset(out_dir)

    # staleness gate: existing outputs may only be skipped if they were
    # derived from THIS violation set — a re-validated corpus (new violation
    # rows) silently leaving newly-flagged rows in clean/ would corrupt the
    # training corpus. The manifest pins a digest of the sorted keyset; a
    # mismatch invalidates every prior output.
    import hashlib as _hashlib
    import json as _json

    keyset_digest = _hashlib.sha256(bad_keys.tobytes()).hexdigest()
    man_path = os.path.join(export_dir, "MANIFEST.json")
    prior_digest = None
    if os.path.exists(man_path):
        try:
            prior_digest = _json.load(open(man_path)).get("keyset_digest")
        except Exception:
            prior_digest = None
    if prior_digest != keyset_digest:
        for sub in ("clean", "quarantine"):
            for stale in glob.glob(os.path.join(export_dir, sub, "*.parquet")):
                os.unlink(stale)
    with open(man_path, "w") as fh:
        _json.dump({"keyset_digest": keyset_digest, "out_dir": out_dir}, fh)

    bad_ref = ray.put((bad_keys, bad_df))

    def one(batch: pd.DataFrame) -> pd.DataFrame:
        keys, frame = ray.get(bad_ref)
        return pd.DataFrame(
            [_split_one(p, keys, frame, export_dir) for p in batch["path"]]
        )

    recs = (
        rd.from_items([{"path": f} for f in files])
        .map_batches(one, batch_size=1, batch_format="pandas")
        .to_pandas()
    )
    done = recs[~recs.skipped]
    return {
        "n_partitions": len(files),
        "n_skipped": int(recs.skipped.sum()),
        "rows": int(done.rows.sum()),
        "quarantined": int(done.quarantined.sum()),
    }

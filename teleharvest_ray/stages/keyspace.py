"""Key-space checks: uniqueness, gap-free sequences, referential orphans.

Recasts the reference's composite-PK discipline — ``(id, channel)`` uniqueness
enforced by the database (``models/message.py:34-36``) and the id-monotone
watermark assumption (``models/message.py:75-89``) — as dataset-wide checks
per the north_rule:

- **dup_key**: duplicate ``(conv_id, turn_idx)`` pairs,
- **seq_gap**: ``turn_idx`` not a gap-free ``0..n`` sequence per conversation,
- **orphan_conv**: a ``conv_id`` present in turns but absent from the
  conversations index (referential resolution).

Scale design (SURVEY.md §4). Phase 1 already reads every partition once;
while it does, each partition validator writes two sidecar files
(``pipelines/validate.py``, ``PartitionValidator._one``): a SORTED blob of
``hash(conv_id, turn_idx)`` packed uint64s (8 bytes/row, the full composite
key, so a hot conversation spreads over hash space while identical keys still
collide) and a parquet table of per-conversation partial sequence stats.
Phase 2 (:func:`keyspace_from_states`) works from those sidecars:

1. Candidate dup hashes come from merging the sorted blobs: locally when
   small; at cluster scale each of several Ray tasks owns one hash range and
   memmaps only that range of every blob (:func:`find_dup_hashes`).
2. Conversation partials aggregate to per-conv summaries; a conversation is
   gap-free iff ``min == 0 and max == n_distinct - 1``. Duplicate keys across
   partitions can overcount ``n_distinct`` → false *candidates*, never false
   violations (step 3 verifies).
3. Verification is file by file (:func:`_verify_partition`): a partition's
   blob is binary-searched for the dup candidates and its conv sidecar looked
   up for the candidate conversations, and only on a hit is the data file's
   ``(conv_id, turn_idx)`` read. A clean corpus reads no data file. Exact dup
   counts and first-missing indices are computed driver-side from the picked
   rows — the anomaly set, orders of magnitude smaller than the data.

Rows with missing ``conv_id`` are excluded here: they are already flagged
``conv_id_missing`` by the row chain (processor.py:102-104 analog).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ..config import ValidationConfig
from ..functions.arrays import member_mask
from ..functions.hashing import hash_key

VIOLATION_COLS = ["conv_id", "turn_idx", "check_id", "detail"]
_member_mask = member_mask


def prep_state(tbl: pa.Table) -> dict:
    """Per-batch key-space state: packed key-hash blob + per-conv partial
    sequence stats. Mergeable across batches/partitions (blobs concatenate;
    conv partials re-aggregate). The partition validator writes it as the
    partition's two sidecar files, from which phase 2 works."""
    conv = np.asarray(tbl["conv_id"].to_pandas(), dtype=object)
    turn = tbl["turn_idx"].to_numpy(zero_copy_only=False)
    turn = np.where(pd.isna(turn), -1, turn).astype(np.int64)  # null → -1 sentinel
    ok = pd.notna(conv) & (conv != "")
    conv, turn = conv[ok], turn[ok]
    if len(conv) == 0:
        return {"blob": b"", "conv": pd.DataFrame(columns=["conv_id", "n_distinct", "min_t", "max_t", "n_rows"])}
    hashes = hash_key(conv, turn)
    df = pd.DataFrame({"conv_id": conv, "turn_idx": turn})
    c = df.groupby("conv_id", sort=False)["turn_idx"].agg(["nunique", "min", "max", "size"]).reset_index()
    c.columns = ["conv_id", "n_distinct", "min_t", "max_t", "n_rows"]
    return {"blob": hashes.tobytes(), "conv": c}


CONV_PARTIAL_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("n_distinct", pa.int64()),
        ("min_t", pa.int64()),
        ("max_t", pa.int64()),
        ("n_rows", pa.int64()),
    ]
)


def conv_partials_table(df: pd.DataFrame) -> pa.Table:
    """Typed Arrow table for a conv-partials frame (stable sidecar schema —
    empty partitions still produce a readable, schema-complete file)."""
    if not len(df):
        return CONV_PARTIAL_SCHEMA.empty_table()
    return pa.table(
        {
            "conv_id": pa.array(df["conv_id"].to_numpy(object), pa.string()),
            "n_distinct": pa.array(df["n_distinct"].to_numpy().astype(np.int64)),
            "min_t": pa.array(df["min_t"].to_numpy().astype(np.int64)),
            "max_t": pa.array(df["max_t"].to_numpy().astype(np.int64)),
            "n_rows": pa.array(df["n_rows"].to_numpy().astype(np.int64)),
        }
    )


def merge_conv_partials(frames: list[pd.DataFrame]) -> pd.DataFrame:
    """Merge per-batch conv partials into per-conv summaries. n_distinct sums
    can overcount when a duplicated key spans batches — overcounts either
    create false gap CANDIDATES (verified exactly, cost: a lookup) or can
    mask a real gap (nd_sum coincidentally equals max+1), which is why
    keyspace_from_states ALSO exact-checks every verified-dup conversation."""
    frames = [f for f in frames if len(f)]
    if not frames:
        return pd.DataFrame(columns=["conv_id", "n_distinct", "min_t", "max_t", "n_rows"])
    allp = pd.concat(frames, ignore_index=True)
    return allp.groupby("conv_id", sort=False).agg(
        n_distinct=("n_distinct", "sum"),
        min_t=("min_t", "min"),
        max_t=("max_t", "max"),
        n_rows=("n_rows", "sum"),
    ).reset_index()


def _exact_gaps(df: pd.DataFrame) -> pd.DataFrame:
    """Exact first-missing-index per conversation over (conv_id, turn_idx)
    rows; conversations that turn out gap-free emit nothing. Works on the
    sorted-unique turn array only — never allocates a dense 0..max range, so
    a corrupt huge turn_idx costs nothing extra."""
    rows = []
    for conv, g in df.groupby("conv_id"):
        u = np.unique(g["turn_idx"].to_numpy())
        if not len(u):
            continue
        if u[0] < 0:  # corrupt index: not a 0..n sequence by definition
            rows.append((conv, int(u[0]), "seq_gap", "negative turn_idx"))
            continue
        n_missing = int(u[-1]) + 1 - len(u)
        if n_missing:
            # first position where the sorted-unique sequence departs from
            # 0,1,2,... IS the first missing index
            mism = np.flatnonzero(u != np.arange(len(u)))
            first = int(mism[0]) if len(mism) else len(u)
            rows.append((conv, first, "seq_gap", f"missing={n_missing}"))
    return pd.DataFrame(rows, columns=VIOLATION_COLS)


_PICK_SCHEMA = pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int32())])
_NO_HASHES = np.empty(0, np.uint64)


@ray.remote
def _verify_partition(part: tuple, dup_hashes: np.ndarray, convs: np.ndarray) -> pa.Table:
    """The ``(conv_id, turn_idx)`` rows of one partition whose key hash is in
    ``dup_hashes`` or whose conversation is in ``convs`` (both sorted).

    ``part`` is the partition's ``(data file, hash blob, conv sidecar)``. The
    sidecars decide whether any row can match — a memmapped binary search of
    the sorted blob, a lookup of the sidecar's conversations — and the data
    file's key columns are read only when one can."""
    data_path, blob_path, conv_path = part
    hit = len(dup_hashes) > 0 and os.path.getsize(blob_path) > 0 and bool(
        _member_mask(np.memmap(blob_path, dtype=np.uint64, mode="r"), dup_hashes).any()
    )
    if not hit and len(convs):
        sidecar_convs = pq.read_table(conv_path, columns=["conv_id"])["conv_id"].to_numpy(zero_copy_only=False)
        hit = bool(_member_mask(convs, sidecar_convs).any())
    if not hit:
        return _PICK_SCHEMA.empty_table()
    tbl = pq.read_table(data_path, columns=["conv_id", "turn_idx"])
    conv = np.asarray(tbl["conv_id"].to_pandas(), dtype=object)
    turn = tbl["turn_idx"].to_numpy(zero_copy_only=False)
    turn = np.where(pd.isna(turn), -1, turn).astype(np.int64)  # match prep_state's sentinel
    keep = (_member_mask(dup_hashes, hash_key(conv, turn)) | _member_mask(convs, conv)) & pd.notna(conv) & (conv != "")
    return pa.table({"conv_id": pa.array(conv[keep], pa.string()), "turn_idx": pa.array(turn[keep].astype(np.int32))})


def _scan_convs(parts: list, convs_sorted: np.ndarray, dup_hashes: np.ndarray = _NO_HASHES) -> pd.DataFrame:
    """Collect the ``(conv_id, turn_idx)`` rows of the given conversations
    (and of the given key hashes): one :func:`_verify_partition` task per
    partition, so only partitions holding a candidate read their data."""
    convs_ref, dup_ref = ray.put(convs_sorted), ray.put(dup_hashes)
    picked = ray.get([_verify_partition.remote(p, dup_ref, convs_ref) for p in parts])
    return pa.concat_tables([_PICK_SCHEMA.empty_table(), *picked]).to_pandas()


@ray.remote
def _range_dups(blob_paths: list, lo: int, hi: int | None) -> np.ndarray:
    """Merge task for one hash range [lo, hi) — ``hi=None`` means to the end
    of uint64 space (2**64 is not representable as uint64; casting it through
    linspace silently became 0 and dropped the whole top range). Each blob is
    memmapped, so the searchsorted is a page-granular binary search and the
    task reads only its own hash range of every file."""
    parts = []
    for path in blob_paths:
        arr = np.memmap(path, dtype=np.uint64, mode="r")
        a = np.searchsorted(arr, np.uint64(lo))
        b = len(arr) if hi is None else np.searchsorted(arr, np.uint64(hi))
        parts.append(np.asarray(arr[a:b]))
    return _dups_of(np.sort(np.concatenate(parts)))


def _dups_of(merged: np.ndarray) -> np.ndarray:
    """Distinct values occurring more than once in a sorted array."""
    return np.unique(merged[1:][merged[1:] == merged[:-1]])


def find_dup_hashes(blobs: list, n_ranges: int = 1) -> np.ndarray:
    """Duplicate hash candidates across sorted uint64 blob files (one per
    partition; zero-byte blobs are empty partitions).

    ``n_ranges > 1`` runs the hash-range-partitioned merge as parallel Ray
    tasks (the cluster-scale path); 1 sorts locally (fine up to ~10^8 keys
    per node). Range tasks get the PATHS — each memmaps and reads only its
    own hash range, so no blob ever transits the driver (the 10^12-key
    shape)."""
    paths = [b for b in blobs if os.path.getsize(b) > 0]
    if not paths:
        return _NO_HASHES
    if n_ranges <= 1:
        return _dups_of(np.sort(np.concatenate([np.fromfile(p, dtype=np.uint64) for p in paths])))
    step = (1 << 64) // n_ranges  # exact python-int bounds; last range open-ended
    bounds = [i * step for i in range(n_ranges)] + [None]
    return np.concatenate(ray.get([_range_dups.remote(paths, bounds[i], bounds[i + 1]) for i in range(n_ranges)]))


#: above this many index ids the Bloom build shards: a monolithic partial
#: build allocates a FULL-size filter in every task (1.2 GB each at 10^9 ids)
#: and ships one full-size blob per block to the driver; sharding keeps both
#: at shard size (one extra 8-byte/row shuffle)
_BLOOM_SHARD_IDS = 5_000_000


def build_bloom_index(index_path: str, fpp: float = 0.01):
    """Distributed Bloom build over a conversations-index parquet: hash the
    id strings per block (the ids never leave the tasks), then delegate to
    the shared builder (functions/bloom.build_bloom_from_hashes) — partial
    OR-merge under :data:`_BLOOM_SHARD_IDS` ids, hash-routed shard build
    above it (per-task memory and driver ingress stay shard-sized). Total
    row count comes from a footer-only read.

    Reference analog: the published-set snapshot load
    (``/root/reference/models/message.py:112-126``), which materializes the
    whole id set in one process — the shape this replaces at 10^9 ids."""
    import pyarrow.parquet as _pq
    import ray.data as _rd

    from ..functions.bloom import build_bloom_from_hashes
    from ..functions.hashing import hash_strings as _hs

    n_total = _pq.ParquetFile(index_path).metadata.num_rows

    def to_hashes(tbl: pa.Table) -> pa.Table:
        h = _hs(np.asarray(tbl["conv_id"].to_pandas(), dtype=object))
        return pa.table({"h": pa.array(h.astype(np.int64))})

    hashed = _rd.read_parquet(index_path, columns=["conv_id"]).map_batches(
        to_hashes, batch_format="pyarrow", batch_size=None
    )
    return build_bloom_from_hashes(hashed, n_total, fpp, shard_threshold=_BLOOM_SHARD_IDS)


def _membership_checker(known_conv_ids, cfg: ValidationConfig):
    """Serializable membership closure for the orphan check: empty index →
    check not applicable (never flags); pre-built BloomFilter/ShardedBloom
    (the distributed-build paths, :func:`build_bloom_index`) → probe it; big
    id list → Bloom built here; else sorted-array searchsorted."""
    from ..functions.bloom import BloomFilter as _BF, ShardedBloom as _SB

    if isinstance(known_conv_ids, (_BF, _SB)):
        bf = known_conv_ids
        return lambda conv: bf.contains_strings(conv)
    index_arr = np.asarray(list(known_conv_ids), dtype=object)
    if len(index_arr) == 0:
        return lambda conv: np.ones(len(conv), dtype=bool)
    if len(index_arr) > cfg.orphan_bloom_threshold:
        from ..functions.bloom import BloomFilter

        bf = BloomFilter.from_strings(index_arr)
        return lambda conv: bf.contains_strings(conv)
    srt = np.sort(index_arr)
    return lambda conv: _member_mask(srt, conv)


def _gap_orphan_candidates(summ, known_conv_ids, cfg: ValidationConfig):
    """(gap_convs sorted, orphans) from per-conv partial stats.

    ``summ`` is either a merged pandas DataFrame (driver path — fine when
    partials fit one node) or a ``ray.data.Dataset`` of per-partition
    partial rows (the 10^12-turn path): a distributed
    ``groupby(conv_id)`` re-aggregation followed by a streaming flag filter,
    so only the CANDIDATE conversations (the anomaly set) ever reach the
    driver — conversation-count-sized state never does."""
    member = _membership_checker(known_conv_ids, cfg)
    if isinstance(summ, pd.DataFrame):
        gap_flag = (summ["min_t"].to_numpy() != 0) | (
            summ["max_t"].to_numpy() != summ["n_distinct"].to_numpy() - 1
        )
        conv_arr = summ["conv_id"].to_numpy(object)
        orphan_flag = ~member(conv_arr)
        return np.sort(conv_arr[gap_flag]), conv_arr[orphan_flag]

    from ray.data.aggregate import Max as _Max
    from ray.data.aggregate import Min as _Min
    from ray.data.aggregate import Sum as _Sum

    agg = summ.groupby("conv_id").aggregate(
        _Sum("n_distinct", alias_name="n_distinct"),
        _Min("min_t", alias_name="min_t"),
        _Max("max_t", alias_name="max_t"),
    )
    member_ref = ray.put(member)

    def flag(tbl: pa.Table) -> pa.Table:
        mem = ray.get(member_ref)
        conv = np.asarray(tbl["conv_id"].to_pandas(), dtype=object)
        nd = tbl["n_distinct"].to_numpy(zero_copy_only=False).astype(np.int64)
        mn = tbl["min_t"].to_numpy(zero_copy_only=False).astype(np.int64)
        mx = tbl["max_t"].to_numpy(zero_copy_only=False).astype(np.int64)
        gap = (mn != 0) | (mx != nd - 1)
        orph = ~mem(conv)
        keep = gap | orph
        return pa.table(
            {
                "conv_id": pa.array(conv[keep], pa.string()),
                "gap": pa.array(gap[keep]),
                "orphan": pa.array(orph[keep]),
            }
        )

    flagged = agg.map_batches(flag, batch_format="pyarrow").to_pandas()
    if not len(flagged):
        return np.empty(0, dtype=object), np.empty(0, dtype=object)
    return (
        np.sort(flagged.loc[flagged.gap, "conv_id"].to_numpy(object)),
        flagged.loc[flagged.orphan, "conv_id"].to_numpy(object),
    )


def keyspace_from_states(
    parts: list,
    summ,
    known_conv_ids,
    cfg: ValidationConfig | None = None,
) -> pa.Table:
    """Key-space checks from phase 1's per-partition state. ``parts`` holds
    one ``(data file, sorted hash blob, conv-partials sidecar)`` path triple
    per partition, as :func:`prep_state` output is written by the partition
    validator; ``summ`` is the partials merged by :func:`merge_conv_partials`
    or, at scale, a Dataset of the raw partial rows (see
    :func:`_gap_orphan_candidates`). The range-merge tasks read their hash
    range straight from the blobs, so the driver never holds a blob, and only
    partitions whose sidecars hold a candidate have their key columns read."""
    cfg = cfg or ValidationConfig()
    blobs = [blob for _, blob, _ in parts]
    n_keys = sum(os.path.getsize(b) for b in blobs) // 8
    n_ranges = 1 if n_keys < 20_000_000 else max(2, min(64, n_keys // 10_000_000))
    dup_hashes = np.sort(find_dup_hashes(blobs, n_ranges))

    gap_convs, orphans = _gap_orphan_candidates(summ, known_conv_ids, cfg)

    out_frames = []
    if len(orphans):
        out_frames.append(
            pd.DataFrame(
                {"conv_id": orphans, "turn_idx": np.int32(-1), "check_id": "orphan_conv", "detail": ""}
            )
        )

    # --- exact verification of dup + gap candidates, file by file ---
    if len(dup_hashes) or len(gap_convs):
        small = _scan_convs(parts, gap_convs, dup_hashes)

        dup_convs = np.empty(0, dtype=object)
        if len(dup_hashes):
            h = hash_key(small["conv_id"].to_numpy(object), small["turn_idx"].to_numpy())
            cand = small[_member_mask(dup_hashes, h)]
            per_key = cand.groupby(["conv_id", "turn_idx"], sort=False).size().reset_index(name="cnt")
            dups = per_key[per_key["cnt"] > 1]  # exact: hash collisions drop out here
            if len(dups):
                out_frames.append(
                    pd.DataFrame(
                        {
                            "conv_id": dups["conv_id"].to_numpy(object),
                            "turn_idx": dups["turn_idx"].to_numpy().astype(np.int32),
                            "check_id": "dup_key",
                            "detail": "count=" + dups["cnt"].astype(str),
                        }
                    )
                )
                dup_convs = np.unique(dups["conv_id"].to_numpy(object))
        if len(gap_convs):
            # pandas isin (hash table, C speed): np.isin on OBJECT arrays
            # falls back to python-compare sorting — measured 9.7 s of the
            # 12 s phase-2 wall at sf0.1 on this single line
            sub = small[small["conv_id"].isin(gap_convs)]
            out_frames.append(_exact_gaps(sub))
        # a duplicated key spanning batches inflates the summed n_distinct and
        # can mask a REAL gap in the same conversation (nd_sum == max+1 by
        # coincidence) — every verified-dup conversation not already flagged
        # gets an exact sequence check of its own, over the partitions that
        # hold it
        extra = np.setdiff1d(dup_convs, gap_convs)
        if len(extra):
            out_frames.append(_exact_gaps(_scan_convs(parts, np.sort(extra))))

    out_frames = [f for f in out_frames if len(f)]
    if out_frames:
        pdf_out = pd.concat(out_frames, ignore_index=True)
    else:
        pdf_out = pd.DataFrame({c: pd.Series(dtype="object") for c in VIOLATION_COLS})
    return pa.table(
        {
            "conv_id": pa.array(pdf_out["conv_id"].to_numpy(object), pa.string()),
            "turn_idx": pa.array(
                np.asarray(pdf_out["turn_idx"].to_numpy(), dtype=np.int64).astype(np.int32)
                if len(pdf_out)
                else np.empty(0, np.int32)
            ),
            "check_id": pa.array(pdf_out["check_id"].to_numpy(object), pa.string()),
            "detail": pa.array(pdf_out["detail"].to_numpy(object), pa.string()),
        }
    )

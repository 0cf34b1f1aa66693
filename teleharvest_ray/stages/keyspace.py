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
while it does, each partition validator computes the partition's key state
(:func:`prep_state`) and writes it as two sidecar files
(:func:`write_sidecars`, the one writer of both formats): a SORTED run of
``hash(conv_id, turn_idx)`` packed uint64s (8 bytes/row, the full composite
key, so a hot conversation spreads over hash space while identical keys still
collide) and an uncompressed Arrow IPC file of per-conversation partial
sequence stats, SORTED by ``h = hash_strings(conv_id)``. Both are sorted
runs, so a reader memory-maps a file and slices any hash range ``[lo, hi)``
of it with a binary search (:func:`_key_run`, :func:`_partials_run`).
Phase 2 (:func:`keyspace_from_states`) works from those sidecars:

1. Candidates, one hash range at a time (:func:`_range_candidates`): the
   range of every key run merges into its duplicate hashes
   (:func:`find_dup_hashes`), and the range of every partials file merges
   exactly by ``conv_id`` into per-conversation summaries; a conversation is
   a gap candidate unless ``min == 0 and max == n_distinct - 1``, and an
   orphan when the index lacks it (:func:`_gap_orphan_candidates`).
   Duplicate keys across partitions can overcount ``n_distinct`` → false
   *candidates*, never false violations (step 2 verifies). The only size rule
   is the range count, one per :data:`_KEYS_PER_RANGE` keys (at most 64): one
   range runs on the driver, more run as Ray tasks, each reading only its own
   range of every file.
2. Verification is file by file (:func:`_verify_partition`): a partition's
   key run is binary-searched for the dup candidates and its partials looked
   up for the candidate conversations, and only on a hit is the data file's
   ``(conv_id, turn_idx)`` read. A clean corpus reads no data file. Exact dup
   counts and first-missing indices are computed driver-side from the picked
   rows — the anomaly set, orders of magnitude smaller than the data.

Rows with missing ``conv_id`` are excluded here: they are already flagged
``conv_id_missing`` by the row chain (processor.py:102-104 analog).
"""

from __future__ import annotations

import functools
import glob
import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ..functions.arrays import member_mask
from ..functions.hashing import hash_key, hash_strings

VIOLATION_COLS = ["conv_id", "turn_idx", "check_id", "detail"]
_member_mask = member_mask
_NO_HASHES = np.empty(0, np.uint64)

#: phase 2's one size rule: a hash range per this many keys (at most 64).
#: Below twice this, one range runs on the driver.
_KEYS_PER_RANGE = 10_000_000


def prep_state(tbl: pa.Table) -> dict:
    """Key-space state of a ``(conv_id, turn_idx)`` table: the key hashes
    (unsorted) and per-conv partial sequence stats. Mergeable across
    partitions and deltas (key hashes concatenate; conv partials
    re-aggregate); :func:`write_sidecars` writes it as the partition's two
    sidecar files, from which phase 2 works."""
    conv = np.asarray(tbl["conv_id"].to_pandas(), dtype=object)
    turn = tbl["turn_idx"].to_numpy(zero_copy_only=False)
    turn = np.where(pd.isna(turn), -1, turn).astype(np.int64)  # null → -1 sentinel
    ok = pd.notna(conv) & (conv != "")
    conv, turn = conv[ok], turn[ok]
    df = pd.DataFrame({"conv_id": conv, "turn_idx": turn})
    c = df.groupby("conv_id", sort=False)["turn_idx"].agg(["nunique", "min", "max", "size"]).reset_index()
    c.columns = ["conv_id", "n_distinct", "min_t", "max_t", "n_rows"]
    return {"keys": hash_key(conv, turn), "conv": c}


PARTIALS_SCHEMA = pa.schema(
    [
        ("h", pa.uint64()),
        ("conv_id", pa.string()),
        ("n_distinct", pa.int64()),
        ("min_t", pa.int64()),
        ("max_t", pa.int64()),
        ("n_rows", pa.int64()),
    ]
)


def conv_partials_table(df: pd.DataFrame) -> pa.Table:
    """The partials sidecar table of a conv-partials frame: typed columns
    plus ``h = hash_strings(conv_id)``, sorted by ``h`` so a hash range is a
    contiguous slice (empty partitions still give a schema-complete file)."""
    df = df.assign(h=hash_strings(df["conv_id"].to_numpy(object))).sort_values("h", kind="stable")
    return pa.Table.from_pandas(df, schema=PARTIALS_SCHEMA, preserve_index=False).replace_schema_metadata()


def merge_conv_partials(frames: list[pd.DataFrame]) -> pd.DataFrame:
    """Merge conv partials exactly by ``conv_id`` into per-conv summaries.
    n_distinct sums can overcount when a duplicated key spans partitions —
    overcounts either create false gap CANDIDATES (verified exactly, cost: a
    lookup) or can mask a real gap (nd_sum coincidentally equals max+1),
    which is why keyspace_from_states ALSO exact-checks every verified-dup
    conversation."""
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


def _span(run: np.ndarray, lo: int, hi: int | None) -> slice:
    """The slice of sorted uint64 ``run`` holding ``[lo, hi)`` — ``hi=None``
    means to the end of uint64 space (2**64 is not representable as uint64;
    casting it through linspace silently became 0 and dropped the whole top
    range)."""
    a = np.searchsorted(run, np.uint64(lo))
    return slice(a, len(run) if hi is None else np.searchsorted(run, np.uint64(hi)))


def _key_run(path: str, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Hash range ``[lo, hi)`` of a sorted key-run sidecar. The file is
    memmapped, so the search is a page-granular binary search and only the
    range's pages are read; a zero-byte run is an empty partition."""
    if not os.path.getsize(path):
        return _NO_HASHES
    run = np.memmap(path, dtype=np.uint64, mode="r")
    return np.asarray(run[_span(run, lo, hi)])


def _partials_run(path: str, lo: int = 0, hi: int | None = None) -> pa.Table:
    """Conversations with ``h`` in ``[lo, hi)`` of a partials sidecar,
    memory-mapped (the IPC file is uncompressed, so the table is zero-copy)."""
    tbl = pa.ipc.open_file(pa.memory_map(path)).read_all()
    s = _span(tbl["h"].to_numpy(), lo, hi)
    return tbl.slice(s.start, s.stop - s.start)


def _atomic_write(path: str, write) -> None:
    tmp = path + ".tmp"
    write(tmp)
    os.replace(tmp, path)


def write_sidecars(state: dict, sidecar_dir: str, pid: str, prev: tuple | None = None) -> tuple:
    """Write partition ``pid``'s key state (:func:`prep_state`) as its two
    sidecars; ``prev`` is the ``(key run, partials)`` pair of the partition's
    already-validated prefix, merged in. Returns ``(key run path, partials
    path, digest of the sorted keys)``.

    The files are content-addressed: a delta revalidation writes NEW files,
    so the prior record's sidecars stay intact until the new record is
    durable (the driver prunes superseded ones only after the record write,
    :func:`prune_sidecars`) — a crash anywhere leaves a consistent (record,
    sidecars) pair to resume from."""
    keys, convs = state["keys"], [state["conv"]]
    if prev:
        keys = np.concatenate([_key_run(prev[0]), keys])
        convs.insert(0, _partials_run(prev[1]).to_pandas())
    keys = np.sort(keys)
    digest = hashlib.sha256(keys.tobytes()).hexdigest()
    stem = os.path.join(sidecar_dir, f"{pid}-{digest[:12]}")
    os.makedirs(sidecar_dir, exist_ok=True)
    _atomic_write(stem + ".bin", keys.tofile)
    partials = conv_partials_table(merge_conv_partials(convs))

    def write_ipc(tmp: str) -> None:
        with pa.ipc.new_file(tmp, PARTIALS_SCHEMA) as w:
            w.write_table(partials)

    _atomic_write(stem + "-conv.arrow", write_ipc)
    return stem + ".bin", stem + "-conv.arrow", digest


def prune_sidecars(sidecar_dir: str, pid: str, keep: set) -> None:
    """Delete partition ``pid``'s sidecars other than ``keep``, including
    earlier formats' (``-conv.parquet``) — call once the record naming
    ``keep`` is durable."""
    stem = os.path.join(sidecar_dir, pid + "-" + "[0-9a-f]" * 12)
    for suffix in (".bin", "-conv.arrow", "-conv.parquet"):
        for stale in glob.glob(stem + suffix):
            if stale not in keep:
                try:
                    os.unlink(stale)
                except OSError:
                    pass


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


@ray.remote
def _verify_partition(part: tuple, dup_hashes: np.ndarray, convs: np.ndarray, conv_hashes: np.ndarray) -> pa.Table:
    """The ``(conv_id, turn_idx)`` rows of one partition whose key hash is in
    ``dup_hashes`` or whose conversation is in ``convs`` (all three sorted;
    ``conv_hashes`` is ``hash_strings(convs)``).

    ``part`` is the partition's ``(data file, key run, partials)``. The
    sidecars decide whether any row can match — binary searches of the
    memmapped key run and of the candidate hashes for the partials' ``h`` —
    and the data file's key columns are read only when one can."""
    data_path, key_path, partials_path = part
    hit = len(dup_hashes) > 0 and bool(_member_mask(_key_run(key_path), dup_hashes).any())
    if not hit and len(convs):
        hit = bool(_member_mask(conv_hashes, _partials_run(partials_path)["h"].to_numpy()).any())
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
    partition, so only partitions holding a candidate read their data. The
    conversations are hashed once here, not once per partition."""
    convs_ref, dup_ref = ray.put(convs_sorted), ray.put(dup_hashes)
    conv_h_ref = ray.put(np.sort(hash_strings(convs_sorted)))
    picked = ray.get([_verify_partition.remote(p, dup_ref, convs_ref, conv_h_ref) for p in parts])
    return pa.concat_tables([_PICK_SCHEMA.empty_table(), *picked]).to_pandas()


def find_dup_hashes(key_runs: list, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Distinct key hashes in ``[lo, hi)`` occurring more than once across
    the sorted key-run sidecars (one per partition). Only that range of each
    file is read, so no run ever transits the driver whole (the 10^12-key
    shape)."""
    merged = np.sort(np.concatenate([_NO_HASHES, *(_key_run(p, lo, hi) for p in key_runs)]))
    return np.unique(merged[1:][merged[1:] == merged[:-1]])


def _gap_orphan_candidates(partials: list, lo: int, hi: int | None, member) -> tuple:
    """(gap conversations, orphan conversations) with ``h`` in ``[lo, hi)``:
    that range of every partials sidecar, merged exactly by ``conv_id``
    (:func:`merge_conv_partials`) and flagged. ``member`` is the index
    membership test (:func:`_membership_checker`)."""
    summ = merge_conv_partials([_partials_run(p, lo, hi).to_pandas() for p in partials])
    conv = summ["conv_id"].to_numpy(object)
    gap = (summ["min_t"].to_numpy() != 0) | (summ["max_t"].to_numpy() != summ["n_distinct"].to_numpy() - 1)
    return conv[gap], conv[~member(conv)]


def _range_candidates(parts: list, lo: int, hi: int | None, member) -> tuple:
    """One hash range's candidates — (dup key hashes, gap conversations,
    orphan conversations) — from the partitions' sidecars."""
    dups = find_dup_hashes([k for _, k, _ in parts], lo, hi)
    return (dups, *_gap_orphan_candidates([p for _, _, p in parts], lo, hi, member))


_range_task = ray.remote(_range_candidates)


def _hash_ranges(n: int) -> list:
    """``n`` ranges tiling uint64 space: exact python-int bounds, the last
    one open-ended (``hi=None``)."""
    step = (1 << 64) // n
    bounds = [i * step for i in range(n)] + [None]
    return list(zip(bounds[:-1], bounds[1:]))


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
    import ray.data as _rd

    from ..functions.bloom import build_bloom_from_hashes

    n_total = pq.ParquetFile(index_path).metadata.num_rows

    def to_hashes(tbl: pa.Table) -> pa.Table:
        h = hash_strings(np.asarray(tbl["conv_id"].to_pandas(), dtype=object))
        return pa.table({"h": pa.array(h.astype(np.int64))})

    hashed = _rd.read_parquet(index_path, columns=["conv_id"]).map_batches(
        to_hashes, batch_format="pyarrow", batch_size=None
    )
    return build_bloom_from_hashes(hashed, n_total, fpp, shard_threshold=_BLOOM_SHARD_IDS)


def _membership_checker(known_conv_ids):
    """Serializable membership test for the orphan check: an empty index →
    check not applicable (never flags); a pre-built BloomFilter/ShardedBloom
    (the distributed build, :func:`build_bloom_index`, which the caller
    picks for big indexes) → probe it; else a sorted-array searchsorted."""
    from ..functions.bloom import BloomFilter, ShardedBloom

    if isinstance(known_conv_ids, (BloomFilter, ShardedBloom)):
        return known_conv_ids.contains_strings
    index_arr = np.asarray(list(known_conv_ids), dtype=object)
    if not len(index_arr):
        return lambda conv: np.ones(len(conv), dtype=bool)
    return functools.partial(_member_mask, np.sort(index_arr))


def keyspace_from_states(parts: list, known_conv_ids) -> pa.Table:
    """Key-space checks from phase 1's per-partition state. ``parts`` holds
    one ``(data file, key run, partials)`` path triple per partition, the
    sidecars as :func:`write_sidecars` wrote them; ``known_conv_ids`` is the
    conversations index (ids, or a Bloom filter over them). Candidates come
    hash range by hash range (:func:`_range_candidates`), and only
    partitions whose sidecars hold a candidate have their key columns read."""
    member = _membership_checker(known_conv_ids)
    n_keys = sum(os.path.getsize(k) for _, k, _ in parts) // 8
    ranges = _hash_ranges(max(1, min(64, n_keys // _KEYS_PER_RANGE)))
    if len(ranges) == 1:
        found = [_range_candidates(parts, *ranges[0], member)]
    else:
        member_ref = ray.put(member)
        found = ray.get([_range_task.remote(parts, lo, hi, member_ref) for lo, hi in ranges])
    dup_hashes, gap_convs, orphans = (np.sort(np.concatenate(c)) for c in zip(*found))

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

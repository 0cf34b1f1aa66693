"""Key-space checks: uniqueness, gap-free sequences, referential orphans.

Recasts the reference's composite-PK discipline — ``(id, channel)`` uniqueness
enforced by the database (``models/message.py:34-36``) and the id-monotone
watermark assumption (``models/message.py:75-89``) — as dataset-wide checks
per the north_rule:

- **dup_key**: duplicate ``(conv_id, turn_idx)`` pairs,
- **seq_gap**: ``turn_idx`` not a gap-free ``0..n`` sequence per conversation,
- **orphan_conv**: a ``conv_id`` present in turns but absent from the
  conversations index (referential resolution).

Scale design (SURVEY.md §4). Phase 1 already reads the key columns of the
rows it scans; while it does, each partition validator computes the key
state of the segment it writes (:func:`prep_state`, one Arrow hash
aggregate over the segment's rows: the whole partition for a full scan or a
fold, the new rows for a delta, which never reads the prefix's keys) and
writes it as two sidecar files (:func:`write_sidecars`, the one writer of
both formats): a SORTED run of
``hash(conv_id, turn_idx)`` packed uint64s (8 bytes/row, the full composite
key, so a hot conversation spreads over hash space while identical keys still
collide) and an uncompressed Arrow IPC file of per-conversation partial
sequence stats, SORTED by ``h = hash_strings(conv_id)``. Both are sorted
runs, so a reader memory-maps a file and slices any hash range ``[lo, hi)``
of it with a binary search (:func:`_key_run`, :func:`_partials_run`).
A partition with several segments has one pair per segment. Phase 2
(:func:`keyspace_from_states`) works from those sidecars. Its only
size rule is the hash-range count, at most :data:`_KEYS_PER_RANGE` keys per
range (at most 64 ranges), and that count decides where all of phase 2 runs:
one range runs wholly on the driver, in-process, with no Ray task and no
object-store put; more run wholly as Ray tasks (below the measured
crossover, task start-up costs more than a driver pass).

1. Candidates, one hash range at a time (:func:`_range_candidates`): the
   range of every key run merges into its duplicate hashes
   (:func:`find_dup_hashes`), and the range of every partials file merges
   exactly by ``conv_id`` into per-conversation summaries; a conversation is
   a gap candidate unless ``min == 0 and max == n_distinct - 1``, and an
   orphan when the index lacks it (:func:`_gap_orphan_candidates`; the merge,
   :func:`merge_conv_partials`, is the engine's only partials merge).
   Duplicate keys across partitions or segments can overcount
   ``n_distinct`` → false *candidates*, never false violations (step 2
   verifies). Each range reads only its own slice of every file.
2. Verification is file by file (:func:`_verify_partition`, called in-process
   for one range and as one task per partition for more): a partition's key
   runs are binary-searched for the dup candidates and its partials looked
   up for the candidate conversations, and only on a hit is the data file's
   ``(conv_id, turn_idx)`` read, once for all its segments, so a key that
   repeats between segments counts once per row. A clean corpus reads no
   data file. Exact dup
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
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from ..functions.arrays import member_mask
from ..functions.hashing import hash_key, hash_strings

VIOLATION_COLS = ["conv_id", "turn_idx", "check_id", "detail"]
_member_mask = member_mask
_NO_HASHES = np.empty(0, np.uint64)

#: phase 2's one size rule: a hash range holds at most this many keys (at
#: most 64 ranges). Up to this many keys there is one range and all of phase 2
#: runs on the driver; above it, all of it runs as Ray tasks. Set from the
#: measured crossover: cold phase 2 (``keyspace_from_states``) on 16-file
#: datagen corpora, each run in a fresh Ray session on a 4-CPU box, median of
#: 3, driver (one range) / tasks (one range per session CPU), seconds, and
#: the driver's peak RSS in the one-range run:
#:
#:   keys   keys/conv   2 CPUs       4 CPUs       driver RSS
#:   1.1M   ~21         0.48 / 1.20  0.47 / 1.25   219 MB
#:   2.2M   ~21         0.97 / 1.53  0.84 / 1.48   248 MB
#:   4.4M   ~21         1.76 / 2.13  1.80 / 1.61   301 MB
#:   1.0M   1           1.31 / 1.51  1.26 / 1.29   553 MB
#:   2.0M   1           2.54 / 2.89  2.70 / 1.85   841 MB
#:   4.0M   1           6.16 / 4.54  5.83 / 3.29  1374 MB
#:
#: Task start-up is most of the gap: a warm second task round beat the
#: driver at every size, but a run has one phase 2. The crossover is ~4M keys
#: for multi-turn conversations and 1-2.5M when every conversation has one
#: turn (a partials row per key); 2M keeps the driver within ~1 s of the
#: tasks for both shapes.
_KEYS_PER_RANGE = 2_000_000


def prep_state(tbl: pa.Table) -> dict:
    """Key-space state of a ``(conv_id, turn_idx)`` table: the key hashes
    (unsorted) and per-conv partial sequence stats (one Arrow hash aggregate
    over the keyed rows: null and empty ids dropped, a null turn as the
    ``-1`` sentinel). The validator builds it from the rows of the segment
    it writes; :func:`write_sidecars` writes it as the segment's two sidecar
    files, from which phase 2 works."""
    conv = tbl["conv_id"].cast(pa.string())
    keyed = pa.table(
        {"conv_id": conv, "turn_idx": pc.fill_null(tbl["turn_idx"].cast(pa.int64()), -1)}
    ).filter(pc.fill_null(pc.not_equal(conv, ""), False))
    c = keyed.group_by("conv_id").aggregate([("turn_idx", "count_distinct"), ("turn_idx", "min"), ("turn_idx", "max")])
    conv_stats = pa.table(
        {
            "conv_id": c["conv_id"],
            "n_distinct": c["turn_idx_count_distinct"],
            "min_t": c["turn_idx_min"],
            "max_t": c["turn_idx_max"],
        }
    )
    return {"keys": hash_key(keyed["conv_id"], keyed["turn_idx"]), "conv": conv_stats}


PARTIALS_SCHEMA = pa.schema(
    [
        ("h", pa.uint64()),
        ("conv_id", pa.string()),
        ("n_distinct", pa.int64()),
        ("min_t", pa.int64()),
        ("max_t", pa.int64()),
    ]
)


def conv_partials_table(conv: pa.Table) -> pa.Table:
    """The partials sidecar table of :func:`prep_state`'s per-conv stats:
    typed columns plus ``h = hash_strings(conv_id)`` (each id is distinct
    here, so hashed once), sorted by ``h`` so a hash range is a contiguous
    slice (empty partitions still give a schema-complete file)."""
    h = hash_strings(conv["conv_id"].to_numpy())
    tbl = pa.table([h, *(conv[c] for c in PARTIALS_SCHEMA.names[1:])], schema=PARTIALS_SCHEMA)
    return tbl.take(np.argsort(h, kind="stable")).combine_chunks()


def merge_conv_partials(tables: list) -> pa.Table:
    """Merge partials tables exactly by ``conv_id`` into per-conv summaries
    (one Arrow hash aggregate: ``n_distinct_sum``, ``min_t_min``,
    ``max_t_max``). n_distinct sums can overcount when a duplicated key
    spans partitions or segments — overcounts either create false gap
    CANDIDATES (verified exactly, cost: a lookup) or can mask a real gap
    (nd_sum coincidentally equals max+1), which is why keyspace_from_states
    ALSO exact-checks every verified-dup conversation."""
    tbl = pa.concat_tables([PARTIALS_SCHEMA.empty_table(), *tables])
    return tbl.group_by("conv_id").aggregate([("n_distinct", "sum"), ("min_t", "min"), ("max_t", "max")])


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
    memory-mapped (the IPC file is uncompressed, so the table is zero-copy).
    Only :data:`PARTIALS_SCHEMA`'s columns are taken, so an earlier
    release's sidecar, which also has ``n_rows``, merges beside a new one."""
    tbl = pa.ipc.open_file(pa.memory_map(path)).read_all().select(PARTIALS_SCHEMA.names)
    s = _span(tbl["h"].to_numpy(), lo, hi)
    return tbl.slice(s.start, s.stop - s.start)


def _atomic_write(path: str, write) -> None:
    tmp = path + ".tmp"
    write(tmp)
    os.replace(tmp, path)


def write_sidecars(state: dict, sidecar_dir: str, name: str) -> tuple:
    """Write a segment's key state (:func:`prep_state`, built from the
    segment's rows) as its two sidecars: the sorted key run and the partials
    sorted by ``h``. ``name`` is the segment's file stem (the partition id,
    or ``{pid}+{start}`` for a later segment). Returns ``(key run path,
    partials path, digest of the sorted keys)``.

    The files are content-addressed: a fold or full rescan writes NEW files,
    so the prior record's sidecars stay intact until the new record is
    durable (the driver prunes superseded ones only after the record write,
    :func:`prune_sidecars`) — a crash anywhere leaves a consistent (record,
    sidecars) pair to resume from."""
    keys = np.sort(state["keys"])
    digest = hashlib.sha256(keys.tobytes()).hexdigest()
    stem = os.path.join(sidecar_dir, f"{name}-{digest[:12]}")
    os.makedirs(sidecar_dir, exist_ok=True)
    _atomic_write(stem + ".bin", keys.tofile)
    partials = conv_partials_table(state["conv"])

    def write_ipc(tmp: str) -> None:
        with pa.ipc.new_file(tmp, PARTIALS_SCHEMA) as w:
            w.write_table(partials)

    _atomic_write(stem + "-conv.arrow", write_ipc)
    return stem + ".bin", stem + "-conv.arrow", digest


def prune_sidecars(sidecar_dir: str, stems: tuple, keep: set) -> None:
    """Delete the sidecars other than ``keep`` whose name stems match one of
    the glob patterns ``stems`` (a partition's segments), including earlier
    formats' (``-conv.parquet``) — call once the record naming ``keep`` is
    durable."""
    digest = "-" + "[0-9a-f]" * 12
    for stem in stems:
        for suffix in (".bin", "-conv.arrow", "-conv.parquet"):
            for stale in glob.glob(os.path.join(sidecar_dir, stem + digest + suffix)):
                if stale not in keep:
                    try:
                        os.unlink(stale)
                    except OSError:
                        pass


def _exact_gaps(df: pd.DataFrame) -> pd.DataFrame:
    """Exact first-missing-index per conversation over (conv_id, turn_idx)
    rows; conversations that turn out gap-free emit nothing. Works on the
    sorted-unique turns only — never allocates a dense 0..max range, so a
    corrupt huge turn_idx costs nothing extra."""
    u = df.drop_duplicates(["conv_id", "turn_idx"]).sort_values(["conv_id", "turn_idx"], ignore_index=True)
    if not len(u):
        return pd.DataFrame(columns=VIOLATION_COLS)
    conv, turn = u["conv_id"].to_numpy(object), u["turn_idx"].to_numpy(np.int64)
    starts = np.flatnonzero(np.r_[True, conv[1:] != conv[:-1]])
    size = np.diff(np.r_[starts, len(u)])
    pos = np.arange(len(u)) - np.repeat(starts, size)
    # the first position where the sorted-unique sequence departs from
    # 0,1,2,... IS the first missing index
    first = np.minimum.reduceat(np.where(turn != pos, pos, size.max()), starts)
    lo, n_missing = turn[starts], turn[starts + size - 1] + 1 - size
    neg = lo < 0  # corrupt index: not a 0..n sequence by definition
    flag = neg | (n_missing != 0)
    return pd.DataFrame(
        {
            "conv_id": conv[starts][flag],
            "turn_idx": np.where(neg, lo, first)[flag],
            "check_id": "seq_gap",
            "detail": np.where(neg, "negative turn_idx", "missing=" + n_missing.astype(str).astype(object))[flag],
        }
    )


_PICK_SCHEMA = pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int32())])


def _verify_partition(part: tuple, dup_hashes: np.ndarray, convs: np.ndarray, conv_hashes: np.ndarray) -> pa.Table:
    """The ``(conv_id, turn_idx)`` rows of one partition whose key hash is in
    ``dup_hashes`` or whose conversation is in ``convs`` (all three sorted;
    ``conv_hashes`` is ``hash_strings(convs)``).

    ``part`` is the partition's ``(data file, [key runs], [partials])``, one
    sidecar pair per segment. The sidecars decide whether any row can match
    — binary searches of the memmapped key runs and of the candidate hashes
    for the partials' ``h`` — and the data file's key columns are read, once,
    only when one can."""
    data_path, key_paths, partials_paths = part
    hit = len(dup_hashes) > 0 and any(_member_mask(_key_run(k), dup_hashes).any() for k in key_paths)
    if not hit and len(convs):
        hit = any(_member_mask(conv_hashes, _partials_run(p)["h"].to_numpy()).any() for p in partials_paths)
    if not hit:
        return _PICK_SCHEMA.empty_table()
    tbl = pq.read_table(data_path, columns=["conv_id", "turn_idx"])
    conv = tbl["conv_id"].cast(pa.string())
    turn = pc.fill_null(tbl["turn_idx"].cast(pa.int64()), -1)  # match prep_state's sentinel
    keep = pc.is_in(conv, value_set=pa.array(convs, pa.string())).to_numpy(zero_copy_only=False)
    if len(dup_hashes):
        h = hash_key(conv, turn)
        keyed = pc.fill_null(pc.not_equal(conv, ""), False).to_numpy(zero_copy_only=False)
        keep |= keyed & _member_mask(dup_hashes, h)
    return pa.table({"conv_id": conv.filter(keep), "turn_idx": turn.filter(keep).cast(pa.int32(), safe=False)})


_verify_task = ray.remote(_verify_partition)


def _scan_convs(
    parts: list, convs_sorted: np.ndarray, dup_hashes: np.ndarray = _NO_HASHES, tasks: bool = False
) -> pd.DataFrame:
    """Collect the ``(conv_id, turn_idx)`` rows of the given conversations
    (and of the given key hashes), calling :func:`_verify_partition` once per
    partition — in this process, or as Ray tasks when ``tasks`` — so only
    partitions holding a candidate read their data. The conversations are
    hashed once here, not once per partition."""
    args = (dup_hashes, convs_sorted, np.sort(hash_strings(convs_sorted)))
    if tasks:
        refs = [ray.put(a) for a in args]
        picked = ray.get([_verify_task.remote(p, *refs) for p in parts])
    else:
        picked = [_verify_partition(p, *args) for p in parts]
    return pa.concat_tables([_PICK_SCHEMA.empty_table(), *picked]).to_pandas()


def find_dup_hashes(key_runs: list, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Distinct key hashes in ``[lo, hi)`` occurring more than once across
    the sorted key-run sidecars (one per segment). Only that range of each
    file is read, so no run ever transits the driver whole (the 10^12-key
    shape)."""
    merged = np.sort(np.concatenate([_NO_HASHES, *(_key_run(p, lo, hi) for p in key_runs)]))
    return np.unique(merged[1:][merged[1:] == merged[:-1]])


def _gap_orphan_candidates(partials: list, lo: int, hi: int | None, member) -> tuple:
    """(gap conversations, orphan conversations) with ``h`` in ``[lo, hi)``:
    that range of every partials sidecar, merged exactly by ``conv_id``
    (:func:`merge_conv_partials`) and flagged. ``member`` is the index
    membership test (:func:`_membership_checker`)."""
    summ = merge_conv_partials([_partials_run(p, lo, hi) for p in partials])
    conv = summ["conv_id"]
    gap = pc.or_(
        pc.not_equal(summ["min_t_min"], 0),
        pc.not_equal(summ["max_t_max"], pc.subtract(summ["n_distinct_sum"], 1)),
    )
    orphan = ~member(conv)
    return conv.filter(gap).to_numpy(zero_copy_only=False), conv.filter(orphan).to_numpy(zero_copy_only=False)


def _range_candidates(parts: list, lo: int, hi: int | None, member) -> tuple:
    """One hash range's candidates — (dup key hashes, gap conversations,
    orphan conversations) — from the sidecars of every segment."""
    dups = find_dup_hashes([k for _, ks, _ in parts for k in ks], lo, hi)
    return (dups, *_gap_orphan_candidates([p for _, _, ps in parts for p in ps], lo, hi, member))


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

#: above this many index ids the orphan check swaps the index's Arrow id
#: column (an ``is_in`` probe) for a Bloom filter (:func:`build_bloom_index`;
#: one-sided error: never falsely flags an orphan)
_ORPHAN_BLOOM_IDS = 5_000_000


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


def _in_index(index: pa.Array, conv: pa.ChunkedArray) -> np.ndarray:
    """Which of ``conv`` the index column holds (one Arrow hash-set probe)."""
    return pc.is_in(conv, value_set=index).to_numpy(zero_copy_only=False)


def _membership_checker(known_conv_ids):
    """Serializable membership test over an Arrow string column, for the
    orphan check: an empty index → check not applicable (never flags); a
    pre-built BloomFilter/ShardedBloom (the distributed build,
    :func:`build_bloom_index`, which the caller picks for big indexes) →
    probe it; else the ids (the index's Arrow ``conv_id`` column, or any
    sequence of strings) → an Arrow ``is_in``."""
    from ..functions.bloom import BloomFilter, ShardedBloom

    if isinstance(known_conv_ids, (BloomFilter, ShardedBloom)):
        return known_conv_ids.contains_strings
    if isinstance(known_conv_ids, pa.ChunkedArray):
        # one buffer: a chunk sliced from a shared buffer pickles all of it,
        # and the checker is pickled into every range task
        index = known_conv_ids.combine_chunks()
    else:
        index = pa.array(list(known_conv_ids), pa.string())
    if not len(index):
        return lambda conv: np.ones(len(conv), dtype=bool)
    return functools.partial(_in_index, index.cast(pa.string()))


def keyspace_from_states(parts: list, known_conv_ids) -> pa.Table:
    """Key-space checks from phase 1's per-segment state. ``parts`` holds
    one ``(data file, [key runs], [partials])`` entry per partition, the
    sidecars of its segments as :func:`write_sidecars` wrote them;
    ``known_conv_ids`` is the conversations index (its Arrow ``conv_id``
    column, any sequence of ids, or a Bloom filter over them). Candidates come hash range by hash range
    (:func:`_range_candidates`), and only partitions whose sidecars hold a
    candidate have their key columns read — all in this process for one
    range, all as Ray tasks for more."""
    member = _membership_checker(known_conv_ids)
    n_keys = sum(os.path.getsize(k) for _, ks, _ in parts for k in ks) // 8
    ranges = _hash_ranges(max(1, min(64, -(-n_keys // _KEYS_PER_RANGE))))
    # one range: all of phase 2 runs in this process; more: all of it runs as
    # Ray tasks (the candidate step per range, verification per partition)
    tasks = len(ranges) > 1
    if not tasks:
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
        small = _scan_convs(parts, gap_convs, dup_hashes, tasks)

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
        extra = dup_convs[~pd.Index(dup_convs).isin(gap_convs)]
        if len(extra):
            out_frames.append(_exact_gaps(_scan_convs(parts, np.sort(extra), tasks=tasks)))

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

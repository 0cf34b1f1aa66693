"""The end-to-end resumable validation pipeline.

Orchestrates the three reference entry points (``main.py:25-29``) recast for
Ray Data:

- **Phase 1 — per-partition validation** (EP1 ``fetch_and_process`` analog,
  ``processor.py:55-79``): an actor-pool ``map_batches`` over the partition
  (file) list. Each actor holds the broadcast ReferenceProfile (the
  published-set/side-input analog, ``processor.py:58``) loaded ONCE in
  ``__init__``; per partition it runs the vectorized short-circuit chain,
  column stats, and the drift check, writes the partition's violation +
  annotated outputs atomically, and returns a lineage/metrics record. The
  driver streams these records into the checkpoint store as they complete —
  a killed run resumes by replaying only partitions without a record. The
  annotated file, always written, keeps only what the chain adds, one row
  per input row in partition order; :func:`read_annotated` rebuilds the
  input columns and the text rewrites from the input file.
- **Segments.** A partition's outputs are a list of segments, each covering
  input rows ``[start, next start)``: its annotated rows, its violation
  rows, its sorted key run and its conversation partials. The first segment
  has the plain names (``annotated/{pid}.parquet``,
  ``violations/{pid}.parquet``); a later one the flat sibling name
  ``{pid}+{start}.parquet``. A partition that grew since its record is
  scanned as a delta (the reference's watermark, ``processor.py:59-63``):
  the chain, the stats and the key state run over the new rows only, and
  they are written as one new segment; no earlier segment is read or
  rewritten, except the first segment's violation file when the
  partition's drift row changes. A delta that would make more than
  :data:`_MAX_SEGMENTS` segments folds instead: the partition is rewritten
  as one segment from its annotated segments and the new rows. It deletes
  the other segments' annotated and violation files before it writes its
  own, so no two files ever hold the same rows, and their sidecars once its
  record is durable. The record lists the segments; records name their
  sidecars relative to the output directory, so a moved output directory
  resumes in place.
- **Phase 2 — key-space checks** (the PK/watermark discipline,
  ``models/message.py:34-36,75-89``): dup/seq/orphan violations from the
  sorted key-run and conversation-partial sidecars phase 1 wrote per
  segment, merged hash range by hash range; a partition's data file is
  read again only when one of its segments' sidecars holds a candidate
  (``stages/keyspace.py``, which alone knows the sidecar formats). While the
  key space is one hash range (up to ``keyspace._KEYS_PER_RANGE`` keys), the
  whole phase runs on the driver with no Ray task; above that it runs as Ray
  tasks. Recorded under the ``_global`` checkpoint key, recomputed only when
  the validated partition set or the conversations index changed.

Partition = input file: at 100 TB the input is O(100k) files of 0.25–1 GB, so
file granularity gives both enough parallelism for a 256-node cluster and
bounded per-task memory. Reading a file whole inside the actor (rather than
letting read_parquet split it into fragments) is deliberate: the per-row
chain's last-turn exemption and the per-partition metrics record need
file-local scope (the reference's per-fetched-batch semantics,
``processor.py:76-77``).
"""

from __future__ import annotations

import contextlib
import gc
import glob
import hashlib as _hashlib
import os
import sys
import time
import traceback

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..checks import filter_violations
from ..config import ValidationConfig
from ..schema import METRIC_COLUMNS
from ..stages import keyspace
from ..stages.keyspace import (  # noqa: F401 — conv_partials_table, merge_conv_partials: rebound by valbench/tracing.py
    build_bloom_index,
    conv_partials_table,
    keyspace_from_states,
    merge_conv_partials,
    prep_state,
    prune_sidecars,
    write_sidecars,
)
from ..stages.row_checks import (
    CHAIN_SCHEMA,
    build_conv_last,
    chain_violations,
    evaluate_chain,
    with_text_columns,
)
from ..stages.stats import (
    drift_check,
    merge_stats,
    partition_stats,
    stats_from_bytes,
    stats_summary,
    stats_to_bytes,
)
from ..state.checkpoint import CheckpointStore, atomic_write_parquet
from ..state.profile import ReferenceProfile, build_profile


#: most segments a partition keeps: a delta that would add one more folds
#: the partition into a single segment instead. This is the LSM trade of
#: append-then-merge. A fold rewrites the whole partition, so across a run of
#: deltas it adds at most 1/8 of the partition's output per delta; in
#: return, phase 2, :func:`read_annotated` and the refreshes open at most 8
#: files of each kind per partition.
_MAX_SEGMENTS = 8

#: a checkpoint record's ``segments`` list, one entry per segment in row
#: order: its first input row, its two sidecars (relative to the output
#: directory), the digest of its sorted keys and its violation row count
_SEGMENTS_TYPE = pa.list_(
    pa.struct(
        [
            ("start", pa.int64()),
            ("blob", pa.string()),
            ("partials", pa.string()),
            ("digest", pa.string()),
            ("violations", pa.int64()),
        ]
    )
)

KEY_COLS = ["conv_id", "turn_idx"]


def _segments(rec: dict | None) -> list[dict]:
    """The segments a checkpoint record lists. A record without the list,
    as earlier releases wrote, is one segment at row 0."""
    rec = rec or {}
    if "segments" in rec:
        return rec["segments"]
    return [
        {
            "start": 0,
            "blob": rec.get("keyspace_blob") or "",
            "partials": rec.get("keyspace_partials") or "",
            "digest": rec.get("keyspace_digest") or "",
            "violations": rec.get("violations", 0),
        }
    ]


def _segment_name(pid: str, start: int) -> str:
    """The file stem of partition ``pid``'s segment at row ``start``: the
    first segment keeps the plain ``pid``, a later one is the flat sibling
    ``{pid}+{start}``, so ``violations/*.parquet`` still lists every
    violation file."""
    return f"{pid}+{start}" if start else pid


def _output(out_dir: str, kind: str, pid: str, start: int) -> str:
    """The ``kind`` (``annotated`` or ``violations``) file of a segment."""
    return os.path.join(out_dir, kind, _segment_name(pid, start) + ".parquet")


def segment_stems(pid: str) -> tuple[str, str]:
    """Glob patterns of the file stems of partition ``pid``'s segments: the
    first segment's, and every later one's (:func:`_segment_name`). No input
    stem holds ``+`` (:func:`run_validation` refuses one), so they match
    ``pid``'s files only."""
    stem = glob.escape(pid)
    return stem, stem + "+*"


def segment_files(out_dir: str, kind: str, rec: dict) -> list[tuple[int, int, str]]:
    """``(start, stop, path)`` of each segment a checkpoint record lists, in
    row order: the segment's ``kind`` (``annotated`` or ``violations``) file
    covers input rows ``[start, stop)``."""
    starts = [s["start"] for s in _segments(rec)]
    stops = starts[1:] + [int(rec["rows_scanned"])]
    return [(a, b, _output(out_dir, kind, rec["partition_id"], a)) for a, b in zip(starts, stops)]


def _sidecars(out_dir: str, rec: dict) -> tuple[list, list]:
    """The (key runs, partials) sidecar paths of a record's segments.
    Records store them relative to the output directory, so a moved output
    directory still finds its own; an earlier release's absolute path
    resolves to itself."""
    segs = _segments(rec)
    return [os.path.join(out_dir, s["blob"]) for s in segs], [os.path.join(out_dir, s["partials"]) for s in segs]


def _annotated_segments(out_dir: str, rec: dict, columns=None) -> list[tuple[int, int, pa.Table]]:
    """``(start, stop, rows)`` of each annotated segment a record lists, the
    rows cut to the record's ``[start, stop)``: a longer file holds rows
    that an earlier release's killed delta wrote past them."""
    return [
        (a, b, pq.read_table(f, columns=columns).slice(0, b - a))
        for a, b, f in segment_files(out_dir, "annotated", rec)
    ]


def _read_rows(pf: pq.ParquetFile, start: int, stop: int, columns=None) -> pa.Table:
    """Rows ``[start, stop)`` of a parquet file, read from the row groups
    that hold them only."""
    groups, first, lo = [], 0, 0
    for rg in range(pf.num_row_groups):
        hi = lo + pf.metadata.row_group(rg).num_rows
        if lo < stop and hi > start:
            if not groups:
                first = lo
            groups.append(rg)
        lo = hi
    return pf.read_row_groups(groups, columns=columns).slice(start - first, stop - start)


def _annotated_columns(cfg: ValidationConfig) -> list[str]:
    """The columns of an annotated file: the row key and the chain columns,
    less the text rewrites :func:`read_annotated` rebuilds from the input
    (:func:`with_text_columns`). A non-builtin scorer's ``alt`` cannot be
    rebuilt, so it is kept."""
    drop = ("text_norm", "alt") if cfg.scorer == "builtin" else ("text_norm",)
    return KEY_COLS + [c for c in CHAIN_SCHEMA.names if c not in drop]


class PartitionValidator:
    """Stateful validator actor: profile deserialized once per actor
    (the A3/A4 load-once pattern — reference embedding model + published
    snapshot, ``services/embedding_service.py:15-16``, ``processor.py:58``)."""

    def __init__(self, cfg: ValidationConfig, profile_ref, out_dir: str, on_error: str = "raise"):
        self.cfg = cfg
        self.profile: ReferenceProfile = ray.get(profile_ref)
        self.out_dir = out_dir
        self.on_error = on_error

    def __call__(self, batch) -> pa.Table:
        records = []
        for path, pid, sr, ss in zip(batch["path"], batch["pid"], batch["start_row"], batch["seg_start"]):
            # poison-partition isolation: at target scale one corrupt file
            # must not kill a multi-hour run — record the failure, keep going
            # (the partition gets no checkpoint record, so the next run
            # retries it)
            if self.on_error == "skip":
                try:
                    records.append(self._one(str(path), str(pid), int(sr), int(ss)))
                except Exception as e:  # noqa: BLE001 — isolation boundary
                    records.append(self._error_record(str(pid), str(path), e))
            else:
                records.append(self._one(str(path), str(pid), int(sr), int(ss)))
        # the segments typed explicitly: a failure record's empty list has no
        # item type to infer
        segments = pa.array([r.pop("segments") for r in records], _SEGMENTS_TYPE)
        return pa.Table.from_pylist(records).append_column("segments", segments)

    @staticmethod
    def _error_record(pid: str, path: str, err: Exception) -> dict:
        """Schema-complete failure record (same keys as a success record so
        batches concatenate cleanly)."""
        return {
            "partition_id": pid,
            "rows_scanned": 0,
            "violations": 0,
            "pass": False,
            "sketch_state": b"",
            "segments": [],
            "keyspace_digest": "",
            "input_file": path,
            "input_size": -1,
            "input_mtime": -1.0,
            "wall_s": 0.0,
            "error": f"{type(err).__name__}: {err}",
        }

    def _one(self, path: str, pid: str, start_row: int = 0, seg_start: int = 0) -> dict:
        """Validate rows ``[start_row, end)`` of the partition and write rows
        ``[seg_start, end)`` as one segment.

        ``start_row > 0`` is the ROW-LEVEL INCREMENTAL path (the reference's
        watermark: only rows past the last validated id are fetched,
        processor.py:59-63, models/message.py:75-89, under the same
        append-only/id-monotone contract): only the delta rows run the chain
        and the stats, the last-turn ER exemption is scoped to the delta (the
        reference's per-fetched-batch semantics, processor.py:76-77), and the
        record's sketch merges the prefix's. A delta (``seg_start ==
        start_row``) writes a new segment from its own rows only: its
        annotated and violation rows, and its key state. A fold
        (``seg_start == 0``) rewrites the whole partition as one segment: the
        prefix's chain record comes from its annotated segments, and its
        violation rows from the same :func:`chain_violations`, never from old
        violation files, so a delta scanned twice writes them once."""
        t0 = time.perf_counter()
        # stat BEFORE the scan: rows appended concurrently with this scan are
        # not covered by the recorded size/mtime, so the next resume's stat
        # pre-filter misses and schedules the delta (a post-scan stat would
        # mark them validated without ever reading them)
        st_pre = os.stat(path)
        # annotated rows keep only what the chain adds, narrowed per row
        # group so the wide table never exists whole; row i of a segment's
        # file is row start + i of the partition
        keep = _annotated_columns(self.cfg)
        old = CheckpointStore(os.path.join(self.out_dir, "checkpoints")).read(pid) if start_row else None
        prefix = None
        if seg_start < start_row:
            # a fold: narrowed, if an older run wrote a segment wide;
            # rescanned whole, if an earlier release left it shorter than
            # the prefix
            prefix = pa.concat_tables([t for *_, t in _annotated_segments(self.out_dir, old, keep)])
            if prefix.num_rows < start_row:
                start_row, prefix = 0, None
        # stream the partition ROW-GROUP-wise: peak actor memory is bounded by
        # row-group size, not file size (a 1 GB file never materializes whole).
        # Chain semantics are per-fetched-batch by definition (the last-turn ER
        # exemption recasts the reference's per-batch flag, processor.py:76-77)
        # and the stats sketches merge associatively, so group-wise == whole.
        pf = pq.ParquetFile(path)
        # the segment's key columns, one cheap two-column read: they are the
        # segment's key-space state, and the fetched span's slice scopes the
        # last-turn ER exemption to the fetch (per-conv max turn) even though
        # the text columns stream row-group-wise
        if seg_start:
            kt = _read_rows(pf, seg_start, pf.metadata.num_rows, KEY_COLS)
        else:
            kt = pq.read_table(path, columns=KEY_COLS)
        # sorted-hash-array map, not a Python dict: ~12 B/conversation
        # (uint64 key + max) vs ~100+ B/entry for an object dict — the
        # heaviest per-task transient at multi-million-conv files
        conv_last = build_conv_last(kt.slice(start_row - seg_start))
        ks = prep_state(kt)
        ann_parts, vio_parts, stats = [], [], None
        cum = 0
        for rg in range(pf.num_row_groups):
            n_rg = pf.metadata.row_group(rg).num_rows
            if cum + n_rg <= start_row:  # fully validated already
                cum += n_rg
                continue
            tbl_g = pf.read_row_group(rg)
            if cum < start_row:  # partially-new row group: keep the new tail
                tbl_g = tbl_g.slice(start_row - cum)
            cum += n_rg
            ann_g = evaluate_chain(tbl_g, self.cfg, self.profile.exemplars, conv_last=conv_last)
            vio_parts.append(chain_violations(ann_g))
            ann_parts.append(ann_g.select(keep))
            s = partition_stats(tbl_g, self.cfg)
            stats = s if stats is None else merge_stats(stats, s)
        if stats is None:  # zero row groups (or an empty delta)
            empty = pf.schema_arrow.empty_table()
            ann_g = evaluate_chain(empty, self.cfg, self.profile.exemplars)
            ann_parts, vio_parts = [ann_g.select(keep)], [chain_violations(ann_g)]
            stats = partition_stats(empty, self.cfg)

        # A fold: the prefix's chain record joined with the input prefix's
        # metric columns gives its violation rows; the key state above
        # already covers it.
        if prefix is not None:
            metrics = [c for c in METRIC_COLUMNS if c in pf.schema_arrow.names]
            prefix_in = pq.read_table(path, columns=metrics).slice(0, start_row)
            for name in metrics:
                prefix = prefix.append_column(name, prefix_in[name])
            vio_parts.insert(0, chain_violations(prefix))
            ann_parts.insert(0, prefix.select(keep))
        # the prefix's sketch folds back in (sketches merge associatively)
        if start_row and old is not None and old.get("sketch_state"):
            stats = merge_stats(stats_from_bytes(old["sketch_state"]), stats)
        ann = pa.concat_tables(ann_parts)
        vio = filter_violations(pa.concat_tables(vio_parts), self.cfg)

        # key-space state piggybacks on this scan of the partition so phase 2
        # re-reads a partition only when its sidecars hold a candidate
        # (SURVEY §4 shuffle-minimization). The sidecars are sorted here
        # (distributed, in the actor) and the lineage record carries only
        # their paths, relative to the output directory, + digest, so at
        # 10^12 keys the driver never holds them.
        blob_path, partials_path, blob_digest = write_sidecars(
            ks, os.path.join(self.out_dir, "keyspace"), _segment_name(pid, seg_start)
        )

        # drift is a whole-partition distribution check → merged stats
        findings = (
            []
            if ("drift" in self.cfg.disabled_checks or stats["n_rows"] == 0)
            else drift_check(stats, self.profile, self.cfg)
        )
        n_drift = 1 if findings else 0
        drift = filter_violations(
            pa.table(
                {
                    "conv_id": pa.array([f"partition:{pid}"] * n_drift, pa.string()),
                    "turn_idx": pa.array([-1] * n_drift, pa.int32()),
                    "check_id": pa.array(["drift"] * n_drift, pa.string()),
                    "detail": pa.array([";".join(findings)] * n_drift, pa.string()),
                }
            ),
            self.cfg,
        )
        segs = [s for s in _segments(old) if s["start"] < seg_start]
        if seg_start:
            # the drift row depends on the merged stats, so it is the one
            # prefix row a delta may replace. It lives in the first segment's
            # violation file, which is rewritten only when the row changed.
            first_path = _output(self.out_dir, "violations", pid, 0)
            first = pq.read_table(first_path)
            is_drift = pc.equal(first["check_id"], "drift")
            if not first.filter(is_drift).equals(drift):
                first = pa.concat_tables([first.filter(pc.invert(is_drift)), drift])
                atomic_write_parquet(first, first_path)
            segs[0] = {**segs[0], "violations": first.num_rows}
        else:
            vio = pa.concat_tables([vio, drift])
            # a fold or full scan replaces every later segment. They go before
            # the first segment is written, so no two files ever hold the same
            # rows; a scan killed after this leaves a record naming missing
            # files, which the work list rescans in full.
            for kind in ("annotated", "violations"):
                for f in glob.glob(os.path.join(self.out_dir, kind, segment_stems(pid)[1] + ".parquet")):
                    os.unlink(f)
        atomic_write_parquet(vio, _output(self.out_dir, "violations", pid, seg_start))
        atomic_write_parquet(ann, _output(self.out_dir, "annotated", pid, seg_start))
        segs.append(
            {
                "start": seg_start,
                "blob": os.path.relpath(blob_path, self.out_dir),
                "partials": os.path.relpath(partials_path, self.out_dir),
                "digest": blob_digest,
                "violations": vio.num_rows,
            }
        )
        n_vio = sum(s["violations"] for s in segs)
        return {
            "partition_id": pid,
            "rows_scanned": seg_start + ann.num_rows,
            "violations": n_vio,
            "pass": n_vio == 0,
            "sketch_state": stats_to_bytes(stats),
            "segments": segs,
            "keyspace_digest": _hashlib.sha256("".join(s["digest"] for s in segs).encode()).hexdigest(),
            "input_file": os.path.abspath(path),
            "input_size": st_pre.st_size,
            "input_mtime": st_pre.st_mtime,
            "wall_s": round(time.perf_counter() - t0, 4),
            "error": "",
        }


#: longest :func:`release_pool` waits for a pool's CPUs to come back
_POOL_RELEASE_WAIT_S = 30.0


def _clear_finished_frames(err: BaseException | None) -> None:
    """Clear the locals of every finished frame that ``err`` keeps alive:
    the frames of its traceback and of its causes' and contexts'
    tracebacks, and their callers. A failed Ray Data task's error carries,
    as its context, a traceback from the executor's ended scheduling
    thread, whose frames hold the executor and so its actor pool."""
    seen = set()
    while err is not None and id(err) not in seen:
        seen.add(id(err))
        for f, _ in traceback.walk_tb(err.__traceback__):
            while f is not None:
                with contextlib.suppress(RuntimeError):  # still executing
                    f.clear()
                f = f.f_back
        err = err.__cause__ or err.__context__


def release_pool(free_cpus: float) -> None:
    """Give a dropped Dataset's actor pool back to the session: collect it
    (an executed Dataset sits in reference cycles), then wait, at most
    :data:`_POOL_RELEASE_WAIT_S`, until the session again has the
    ``free_cpus`` it had before the pool started. The actors exit
    asynchronously, and the next stage or run needs their CPUs.

    Called from a ``finally`` block while an exception escapes, it first
    clears the finished frames that the exception keeps
    (:func:`_clear_finished_frames`); the caller drops its own references
    to the Datasets."""
    _clear_finished_frames(sys.exc_info()[1])
    gc.collect()
    deadline = time.monotonic() + _POOL_RELEASE_WAIT_S
    while ray.available_resources().get("CPU", 0) < free_cpus and time.monotonic() < deadline:
        time.sleep(0.05)


def probe_scoring_capability(probe) -> bool:
    """Run the scoring capability probe ONCE at run start (the reference
    checks its credit balance before processing and disables scoring on
    failure, ``processor.py:32-35``; its error-type mapping
    ``services/openai_service.py:68-77`` collapses here to one boolean
    seam). Any exception or falsy result means 'scoring unavailable'."""
    try:
        return bool(probe())
    except Exception:
        return False


def run_validation(
    data_dir: str,
    out_dir: str,
    cfg: ValidationConfig | None = None,
    resume: bool = True,
    capability_probe=None,
    on_error: str = "raise",
) -> dict:
    """Validate every ``part-*.parquet`` under ``data_dir``; resumable.

    ``capability_probe``: optional zero-arg callable probed ONCE before the
    run; a failure/falsy result disables the scoring sub-chain for the whole
    run (the reference's runtime credits gate).

    ``on_error="skip"``: poison-partition isolation — a partition whose scan
    raises (corrupt file, bad footer) is recorded under
    ``summary["partitions_error"]`` instead of killing the run; it gets NO
    checkpoint record (so the next run retries it), its state is excluded
    from the merged stats and global keyspace checks, and the global-check
    digest covers only the validated set (fixing the file therefore forces a
    global recompute). Default ``"raise"`` preserves fail-fast semantics."""
    cfg = cfg or ValidationConfig()
    if capability_probe is not None and not probe_scoring_capability(capability_probe):
        from dataclasses import replace

        cfg = replace(cfg, scoring_enabled=False)
    files = sorted(glob.glob(os.path.join(data_dir, "part-*.parquet")))
    if not files:
        raise FileNotFoundError(f"no part-*.parquet under {data_dir}")
    pids = [os.path.splitext(os.path.basename(f))[0] for f in files]
    if any("+" in p for p in pids):
        # "+" separates a partition from a later segment's start row in the
        # output names (_segment_name)
        raise ValueError(f"input file names must not contain '+': {[p for p in pids if '+' in p]}")
    store = CheckpointStore(os.path.join(out_dir, "checkpoints"))
    done = (
        {pid: rec for pid, rec in store.completed().items() if not pid.startswith("_")}
        if resume
        else {}
    )
    if not resume:
        store.clear()
        done = {}

    # Reference profile: the designated reference partition is the first
    # READABLE file (deterministic; configurable by convention). Only the
    # three needed columns leave disk. Under on_error="skip" a corrupt first
    # file must not kill the run here on the driver any more than in an
    # actor — fall through to the next file (the corrupt one still surfaces
    # in partitions_error when its scan task runs).
    profile = None
    for ref_path in files:
        try:
            ref_tbl = pq.read_table(ref_path, columns=["text", "role", "tool"])
            profile = build_profile(ref_tbl, cfg)
            break
        except Exception:
            if on_error != "skip":
                raise
    if profile is None:
        raise RuntimeError(f"no readable partition to build the reference profile under {data_dir}")
    profile_ref = ray.put(profile)

    # Work list. A partition with a record can still need work when the file
    # GREW since validation (the reference's watermark semantics: new rows
    # append under an id-monotone contract, processor.py:59-63) — only the
    # delta rows [rows_scanned, end) revalidate, as a new segment, or as a
    # fold past _MAX_SEGMENTS segments. A shrunk/replaced file falls back to
    # full revalidation. The growth probe is a footer-only read per
    # already-validated file.
    todo = []
    errors: dict[str, str] = {}
    for f, p in zip(files, pids):
        rec = done.get(p)
        # phase 2 reads a partition's key state only from its sidecars, a
        # fold and read_annotated read its chain record from its annotated
        # files, and a delta may rewrite the first violation file, so a
        # record without them (an older format, files removed, or a fold
        # killed before its record) is revalidated in full: they must be
        # rebuilt
        key_runs, partials = _sidecars(out_dir, rec)
        outputs = [f for k in ("annotated", "violations") for *_, f in segment_files(out_dir, k, rec)] if rec else []
        if rec is None or not all(map(os.path.isfile, key_runs + partials + outputs)):
            todo.append({"path": f, "pid": p, "start_row": 0, "seg_start": 0})
            done.pop(p, None)
            continue
        # cheap stat pre-filter: footer only opens when size/mtime moved, so
        # an unchanged 100k-file resume costs 100k stats, not footer reads
        st = os.stat(f)
        if rec.get("input_size") == st.st_size and rec.get("input_mtime") == st.st_mtime:
            continue
        try:
            n_now = pq.ParquetFile(f).metadata.num_rows
        except Exception as e:  # changed file now unreadable — same isolation
            if on_error != "skip":
                raise
            errors[p] = f"{type(e).__name__}: {e}"
            done.pop(p)
            continue
        n_rec = int(rec.get("rows_scanned", 0))
        # grown: only the delta rows. Shrunk, or size/mtime moved with the row
        # count unchanged (the file was REPLACED: equal-count appends can't
        # happen under the append-only contract): full rescan, else stale
        # violations/sketch/keyspace state survives the swap.
        if n_now > n_rec:
            seg_start = n_rec if len(_segments(rec)) < _MAX_SEGMENTS else 0
            todo.append({"path": f, "pid": p, "start_row": n_rec, "seg_start": seg_start})
        else:
            todo.append({"path": f, "pid": p, "start_row": 0, "seg_start": 0})
        done.pop(p)
    n_resumed = len(files) - len(todo) - len(errors)
    new_records = []
    if todo:
        # one single-threaded validator per free session CPU by default (the
        # measured crossover is next to ValidationConfig.validator_num_cpus),
        # but never asking for more CPUs than the session has: such an actor
        # is never placed
        total_cpus = ray.cluster_resources().get("CPU", 0)
        if not total_cpus:
            raise RuntimeError("the Ray session has no CPUs to run validators on")
        actor_cpus = min(cfg.validator_num_cpus, total_cpus)
        free_cpus = ray.available_resources().get("CPU", 0)
        conc = max(1, min(len(todo), int(free_cpus // actor_cpus)))
        try:
            ds = rd.from_items(todo)
            result = ds.map_batches(
                PartitionValidator,
                fn_constructor_args=(cfg, profile_ref, out_dir, on_error),
                batch_size=1,
                concurrency=conc,
                num_cpus=actor_cpus,
                batch_format="pandas",
            )
            # stream records into the checkpoint store as partitions finish
            for batch in result.iter_batches(batch_size=1, batch_format="pyarrow"):
                for rec in batch.to_pylist():
                    if rec.get("error"):
                        # failed partition: surface it, write NO checkpoint
                        # record (next run retries), keep the run going
                        errors[rec["partition_id"]] = rec["error"]
                        continue
                    store.write(rec["partition_id"], rec)
                    new_records.append(rec)
                    # the record is durable → superseded sidecar files can go
                    key_runs, partials = _sidecars(out_dir, rec)
                    prune_sidecars(
                        os.path.join(out_dir, "keyspace"), segment_stems(rec["partition_id"]), {*key_runs, *partials}
                    )
            # per-stage execution stats (wall/cpu/memory per operator) for tuning
            try:
                with open(os.path.join(out_dir, "ray_stats.txt"), "w") as fh:
                    fh.write(result.stats())
            except Exception:
                pass
        finally:
            # phase 2's tasks (and a second run in this session) need the
            # pool's CPUs back, also when phase 1 raised: an escaping
            # traceback keeps this frame's locals, so drop the Datasets first
            ds = result = None
            release_pool(free_cpus)

    all_records = {**done, **{r["partition_id"]: r for r in new_records}}
    # errored partitions contribute NO state anywhere downstream
    good_pids = [p for p in pids if p in all_records]
    if not good_pids:
        raise RuntimeError(f"every partition failed: {errors}")

    # merged global column stats (sketch union — associative)
    merged = None
    for pid in good_pids:
        rec = all_records[pid]
        s = stats_from_bytes(rec["sketch_state"])
        merged = s if merged is None else merge_stats(merged, s)

    # Phase 2: key-space checks — assembled from the per-partition sidecars
    # the validators wrote; only partitions holding a candidate have their
    # key columns read again
    gkey = "_global"
    grec = store.read(gkey) if resume else None
    conv_index_path = os.path.join(data_dir, "conversations.parquet")
    # staleness is keyed on a digest over WHICH partitions were validated and
    # their keyspace content (per-partition key digests computed by the
    # validators — the driver never re-reads sidecar bytes to digest them),
    # not just the partition count — a replaced same-count partition set must
    # recompute the global checks — and over the conversations index's
    # identity (size + mtime, as the work list keys partitions), which
    # decides the orphans
    dig = _hashlib.sha256()
    if os.path.exists(conv_index_path):
        st = os.stat(conv_index_path)
        dig.update(f"index:{st.st_size}:{st.st_mtime}".encode())
    for pid in good_pids:
        rec = all_records[pid]
        dig.update(pid.encode())
        dig.update((rec.get("keyspace_digest") or "").encode())
    global_digest = dig.hexdigest()
    if errors:
        # global referential checks (dup/seq/orphan) are only meaningful over
        # the FULL corpus: a conversation split across a good and an errored
        # partition would otherwise emit false seq_gap/orphan rows and
        # persist them. Skip the phase entirely; the digest (over good
        # partitions only) changes once the failed file validates, which
        # forces the recompute then. Any _global.parquet on disk is from the
        # last complete run — global_checks_skipped flags that staleness.
        g_violations = 0
        global_checks_skipped = True
    elif grec is None or grec.get("digest") != global_digest:
        if not os.path.exists(conv_index_path):
            known = []
        elif pq.ParquetFile(conv_index_path).metadata.num_rows > keyspace._ORPHAN_BLOOM_IDS:
            # big index: distributed partial-Bloom build (OR-merge) — the
            # driver holds only the final filter bits, never the id list
            known = build_bloom_index(conv_index_path)
        else:
            known = pq.read_table(conv_index_path, columns=["conv_id"])["conv_id"]
        # the sidecar paths and the index are all phase 2 needs: keyspace
        # merges the sidecars hash range by hash range, so the driver sees
        # only candidates. One entry per data file, with the key runs and
        # partials of all its segments, so a data file is read at most once.
        parts = [(f, *_sidecars(out_dir, all_records[p])) for f, p in zip(files, pids) if p in all_records]
        gvio = filter_violations(keyspace_from_states(parts, known), cfg)
        atomic_write_parquet(gvio, os.path.join(out_dir, "violations", "_global.parquet"))
        store.write(
            gkey,
            {"partition_id": gkey, "n_partitions": len(parts), "digest": global_digest, "violations": gvio.num_rows},
        )
        g_violations = gvio.num_rows
        global_checks_skipped = False
    else:
        g_violations = grec["violations"]
        global_checks_skipped = False

    per_part_violations = int(sum(r["violations"] for r in all_records.values() if r["partition_id"] != gkey))
    summary = {
        "n_partitions": len(files),
        "n_resumed": n_resumed,
        "n_validated_now": len(new_records),
        "rows_scanned": int(sum(r["rows_scanned"] for r in all_records.values())),
        "violations_partition_local": per_part_violations,
        "violations_global": int(g_violations),
        "global_checks_skipped": global_checks_skipped,
        "partitions_failed": [p for p in good_pids if not all_records[p]["pass"]],
        "partitions_error": errors,
        "column_stats": stats_summary(merged) if merged else None,
        "out_dir": out_dir,
    }
    return summary


def read_annotated(out_dir: str, pid: str) -> pa.Table:
    """Partition ``pid``'s annotated table as :func:`evaluate_chain` returned
    it: the input columns, then the chain columns.

    Each segment's annotated file stores only the row key and what the chain
    adds (:func:`_annotated_columns`), row *i* for input row ``start + i``.
    The input rows come from the file the partition's checkpoint record
    names, and the text rewrites are rebuilt from them
    (:func:`with_text_columns`). Rows appended to the input since validation
    are not read. Raises ``ValueError`` when the input's keys differ from
    the stored ones: the file was replaced, or when a segment holds fewer
    rows than its record gives it; and ``FileNotFoundError`` when a segment
    is missing: a fold or full scan of the partition was killed before its
    record, and the next run rescans it."""
    rec = CheckpointStore(os.path.join(out_dir, "checkpoints")).read(pid)
    if rec is None:
        raise FileNotFoundError(f"no checkpoint record for {pid} under {out_dir}")
    pf = pq.ParquetFile(rec["input_file"])
    parts = []
    for start, stop, ann in _annotated_segments(out_dir, rec):
        if ann.num_rows < stop - start:
            raise ValueError(f"{pid}'s annotated segment at row {start} holds {ann.num_rows} rows, not {stop - start}")
        inp = _read_rows(pf, start, stop)
        if not (inp["conv_id"].equals(ann["conv_id"]) and inp["turn_idx"].equals(ann["turn_idx"])):
            raise ValueError(
                f"{rec['input_file']} no longer holds the rows annotated for {pid}: the file was replaced"
            )
        parts.append(with_text_columns(inp, ann))
    return pa.concat_tables(parts)


def read_violations(out_dir: str):
    """All violation rows of a completed run as one pandas DataFrame."""
    import pandas as pd

    frames = []
    for f in sorted(glob.glob(os.path.join(out_dir, "violations", "*.parquet"))):
        frames.append(pq.read_table(f).to_pandas())
    if not frames:
        return pd.DataFrame(columns=["conv_id", "turn_idx", "check_id", "detail"])
    return pd.concat(frames, ignore_index=True)


def compare_runs(out_a: str, out_b: str) -> dict:
    """Drift between two completed validation runs, from their checkpoint
    records' sketch states only — no data is re-read. The successive-corpus
    regression check: run validation on v1 and v2, then diff the merged
    distributions."""
    from ..stages.stats import compare_run_stats

    def merged_of(out_dir: str) -> dict:
        store = CheckpointStore(os.path.join(out_dir, "checkpoints"))
        merged = None
        for pid, rec in store.completed().items():
            if pid.startswith("_") or not rec.get("sketch_state"):
                continue
            s = stats_from_bytes(rec["sketch_state"])
            merged = s if merged is None else merge_stats(merged, s)
        if merged is None:
            raise FileNotFoundError(f"no sketch states under {out_dir}")
        return merged

    return compare_run_stats(merged_of(out_a), merged_of(out_b))

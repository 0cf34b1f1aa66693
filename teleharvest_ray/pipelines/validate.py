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
  input columns and the text rewrites from the input file. A partition that
  grew since its record is scanned as a delta: the chain runs over the new
  rows only, and its violation rows are rebuilt whole by the one
  :func:`chain_violations`, from the annotated prefix and the new rows.
  Records name their sidecars relative to the output directory, so a moved
  output directory resumes in place.
- **Phase 2 — key-space checks** (the PK/watermark discipline,
  ``models/message.py:34-36,75-89``): dup/seq/orphan violations from the
  sorted key-run and conversation-partial sidecars phase 1 wrote per
  partition, merged hash range by hash range; a partition's data file is
  read again only when its sidecars hold a candidate
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


def _annotated_columns(cfg: ValidationConfig) -> list[str]:
    """The columns of an annotated file: the row key and the chain columns,
    less the text rewrites :func:`read_annotated` rebuilds from the input
    (:func:`with_text_columns`). A non-builtin scorer's ``alt`` cannot be
    rebuilt, so it is kept."""
    drop = ("text_norm", "alt") if cfg.scorer == "builtin" else ("text_norm",)
    return ["conv_id", "turn_idx"] + [c for c in CHAIN_SCHEMA.names if c not in drop]


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
        start_rows = batch["start_row"] if "start_row" in batch else [0] * len(batch["path"])
        for path, pid, sr in zip(batch["path"], batch["pid"], start_rows):
            # poison-partition isolation: at target scale one corrupt file
            # must not kill a multi-hour run — record the failure, keep going
            # (the partition gets no checkpoint record, so the next run
            # retries it)
            if self.on_error == "skip":
                try:
                    records.append(self._one(str(path), str(pid), int(sr)))
                except Exception as e:  # noqa: BLE001 — isolation boundary
                    records.append(self._error_record(str(pid), str(path), e))
            else:
                records.append(self._one(str(path), str(pid), int(sr)))
        return pa.Table.from_pylist(records)

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
            "keyspace_partials": "",
            "keyspace_blob": "",
            "keyspace_digest": "",
            "input_file": path,
            "input_size": -1,
            "input_mtime": -1.0,
            "wall_s": 0.0,
            "error": f"{type(err).__name__}: {err}",
        }

    def _one(self, path: str, pid: str, start_row: int = 0) -> dict:
        """Validate rows ``[start_row, end)`` of the partition. ``start_row
        > 0`` is the ROW-LEVEL INCREMENTAL path (the reference's watermark:
        only rows past the last validated id are fetched, processor.py:59-63,
        models/message.py:75-89, under the same append-only/id-monotone
        contract): only the delta rows run the chain and the stats, and the
        last-turn ER exemption is scoped to the delta (the reference's
        per-fetched-batch semantics, processor.py:76-77), but the outputs
        describe the WHOLE partition. The prefix's violation rows come from
        its annotated rows through the same :func:`chain_violations`, never
        from the old violations file, so a delta scanned twice writes them
        once. The key-space state is built from the whole partition's key
        columns on every scan, so the sidecars never merge a prefix's."""
        t0 = time.perf_counter()
        # stat BEFORE the scan: rows appended concurrently with this scan are
        # not covered by the recorded size/mtime, so the next resume's stat
        # pre-filter misses and schedules the delta (a post-scan stat would
        # mark them validated without ever reading them)
        st_pre = os.stat(path)
        # annotated rows keep only what the chain adds, narrowed per row
        # group so the wide table never exists whole; row i of the file is
        # row i of the partition
        keep = _annotated_columns(self.cfg)
        ann_path = os.path.join(self.out_dir, "annotated", f"{pid}.parquet")
        prefix = None
        if start_row:
            # narrowed, if an older run wrote it wide; cut to start_row, if a
            # killed scan already appended this delta; rescanned whole, if an
            # earlier release left it shorter than the prefix
            prefix = pq.read_table(ann_path, columns=keep).slice(0, start_row)
            if prefix.num_rows < start_row:
                start_row, prefix = 0, None
        # stream the partition ROW-GROUP-wise: peak actor memory is bounded by
        # row-group size, not file size (a 1 GB file never materializes whole).
        # Chain semantics are per-fetched-batch by definition (the last-turn ER
        # exemption recasts the reference's per-batch flag, processor.py:76-77)
        # and the stats sketches merge associatively, so group-wise == whole.
        pf = pq.ParquetFile(path)
        # the partition's key columns, one cheap two-column read: the whole
        # of them is the partition's key-space state, and the fetched span's
        # slice scopes the last-turn ER exemption to the fetch (per-conv max
        # turn) even though the text columns stream row-group-wise
        kt = pq.read_table(path, columns=["conv_id", "turn_idx"])
        # sorted-hash-array map, not a Python dict: ~12 B/conversation
        # (uint64 key + max) vs ~100+ B/entry for an object dict — the
        # heaviest per-task transient at multi-million-conv files
        conv_last = build_conv_last(kt.slice(start_row))
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

        # Incremental path: the prefix's chain record joined with the input
        # prefix's metric columns gives its violation rows, and its sketch
        # folds back in (sketches merge associatively); the key state above
        # already covers it.
        if prefix is not None:
            metrics = [c for c in METRIC_COLUMNS if c in pf.schema_arrow.names]
            prefix_in = pq.read_table(path, columns=metrics).slice(0, start_row)
            for name in metrics:
                prefix = prefix.append_column(name, prefix_in[name])
            vio_parts.insert(0, chain_violations(prefix))
            ann_parts.insert(0, prefix.select(keep))
            old = CheckpointStore(os.path.join(self.out_dir, "checkpoints")).read(pid)
            if old is not None and old.get("sketch_state"):
                stats = merge_stats(stats_from_bytes(old["sketch_state"]), stats)
        ann = pa.concat_tables(ann_parts)
        vio = pa.concat_tables(vio_parts)

        # key-space state piggybacks on this scan of the partition so phase 2
        # re-reads a partition only when its sidecars hold a candidate
        # (SURVEY §4 shuffle-minimization). The sidecars are sorted here
        # (distributed, in the actor) and the lineage record carries only
        # their paths, relative to the output directory, + digest, so at
        # 10^12 keys the driver never holds them.
        blob_path, partials_path, blob_digest = write_sidecars(ks, os.path.join(self.out_dir, "keyspace"), pid)

        # drift is a whole-partition distribution check → merged stats
        findings = (
            []
            if ("drift" in self.cfg.disabled_checks or stats["n_rows"] == 0)
            else drift_check(stats, self.profile, self.cfg)
        )
        if findings:
            vio = pa.concat_tables(
                [
                    vio,
                    pa.table(
                        {
                            "conv_id": pa.array([f"partition:{pid}"], pa.string()),
                            "turn_idx": pa.array([-1], pa.int32()),
                            "check_id": pa.array(["drift"], pa.string()),
                            "detail": pa.array([";".join(findings)], pa.string()),
                        }
                    ),
                ]
            )
        vio = filter_violations(vio, self.cfg)
        atomic_write_parquet(vio, os.path.join(self.out_dir, "violations", f"{pid}.parquet"))
        atomic_write_parquet(ann, ann_path)
        return {
            "partition_id": pid,
            "rows_scanned": ann.num_rows,
            "violations": vio.num_rows,
            "pass": vio.num_rows == 0,
            "sketch_state": stats_to_bytes(stats),
            "keyspace_partials": os.path.relpath(partials_path, self.out_dir),
            "keyspace_blob": os.path.relpath(blob_path, self.out_dir),
            "keyspace_digest": blob_digest,
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


def _sidecars(out_dir: str, rec: dict) -> tuple[str, str]:
    """The (key run, partials) sidecar paths a checkpoint record names.
    Records store them relative to the output directory, so a moved output
    directory still finds its own; an earlier release's absolute path
    resolves to itself."""
    return tuple(os.path.join(out_dir, rec.get(k) or "") for k in ("keyspace_blob", "keyspace_partials"))


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
    # delta rows [rows_scanned, end) revalidate; the prefix's violations are
    # derived again from its annotated rows and its sketch merges in (the
    # key state is rebuilt from the whole file). A shrunk/replaced file
    # falls back to full revalidation. The growth probe is a footer-only
    # read per already-validated file.
    todo = []
    errors: dict[str, str] = {}
    for f, p in zip(files, pids):
        rec = done.get(p)
        # phase 2 reads a partition's key state only from its sidecars, and a
        # delta reads the prefix's chain record from its annotated file, so a
        # record without them (an older format, or files removed) is
        # revalidated in full: they must be rebuilt
        if rec is None or not all(
            map(os.path.isfile, (*_sidecars(out_dir, rec), os.path.join(out_dir, "annotated", f"{p}.parquet")))
        ):
            todo.append({"path": f, "pid": p, "start_row": 0})
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
        todo.append({"path": f, "pid": p, "start_row": n_rec if n_now > n_rec else 0})
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
                    prune_sidecars(
                        os.path.join(out_dir, "keyspace"), rec["partition_id"], set(_sidecars(out_dir, rec))
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
        # only candidates
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

    The annotated file stores only the row key and what the chain adds
    (:func:`_annotated_columns`), row *i* for input row *i*. The input rows
    come from the file the partition's checkpoint record names, and the text
    rewrites are rebuilt from them (:func:`with_text_columns`). Rows appended
    to the input since validation are not read. Raises ``ValueError`` when
    the input's keys differ from the stored ones: the file was replaced."""
    ann = pq.read_table(os.path.join(out_dir, "annotated", f"{pid}.parquet"))
    rec = CheckpointStore(os.path.join(out_dir, "checkpoints")).read(pid)
    if rec is None:
        raise FileNotFoundError(f"no checkpoint record for {pid} under {out_dir}")
    pf = pq.ParquetFile(rec["input_file"])
    groups, n = [], 0
    while n < ann.num_rows and len(groups) < pf.num_row_groups:
        n += pf.metadata.row_group(len(groups)).num_rows
        groups.append(len(groups))
    inp = pf.read_row_groups(groups).slice(0, ann.num_rows)
    if not (inp["conv_id"].equals(ann["conv_id"]) and inp["turn_idx"].equals(ann["turn_idx"])):
        raise ValueError(
            f"{rec['input_file']} no longer holds the rows annotated for {pid}: the file was replaced"
        )
    return with_text_columns(inp, ann)


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

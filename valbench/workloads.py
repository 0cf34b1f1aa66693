"""Inputs, snapshots and the correctness gate of the two benchmark workloads.

``full_dirty``: a fresh output directory over a seeded ``datagen`` corpus
(``hot_conv=True``, violations planted). The oracle is the generator's own
``expected_violations.parquet``.

``append_resume``: the same corpus validated once (untimed), then about 10%
new turns appended as new conversations, with their own planted violations,
to 3 of the 12 partitions; ``conversations.parquet`` grows to cover them.
Each timed run restores the validated output and the grown data with
modification times kept and makes one resuming call. The oracle is one
untimed from-scratch run over the grown corpus.

Everything here is the benchmark's own work and stays outside timed sections.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

WORKLOADS = ("full_dirty", "append_resume")
N_FILES = 12
ROWS_HINT = 60_000
#: the partitions append_resume grows: fixed, so every seed touches partitions
#: of the same shape. Partition 0 builds the reference profile, 0 and 1 hold
#: the hot conversation's turn blocks, and the last holds the drifted rows.
GROW_TARGETS = (3, 6, 9)
GROW_PARTS = len(GROW_TARGETS)
GROW_FRAC = 0.10
#: bump when the cached layout or the inputs change, so stale caches rebuild
CACHE_VERSION = 3
#: seeds kept in the cache of one checkout; older ones are evicted
CACHE_SEEDS = 6

TUPLE_COLS = ["conv_id", "turn_idx", "check_id"]


def violation_tuples(out_dir: str) -> set:
    """Distinct ``(conv_id, turn_idx, check_id)`` tuples under ``out/violations``."""
    tuples = set()
    vdir = os.path.join(out_dir, "violations")
    for fn in sorted(os.listdir(vdir)) if os.path.isdir(vdir) else []:
        if fn.endswith(".parquet"):
            t = pq.read_table(os.path.join(vdir, fn), columns=TUPLE_COLS)
            tuples.update(zip(*(t[c].to_pylist() for c in TUPLE_COLS)))
    return tuples


def read_tuples(path: str) -> set:
    t = pq.read_table(path, columns=TUPLE_COLS)
    return set(zip(*(t[c].to_pylist() for c in TUPLE_COLS)))


def write_tuples(tuples: set, path: str) -> None:
    rows = sorted(tuples, key=lambda r: (r[0] or "", r[1], r[2]))
    tbl = pa.table(
        {
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "check_id": pa.array([r[2] for r in rows], pa.string()),
        }
    )
    pq.write_table(tbl, path)


def gate(workload: str, out_dir: str, oracle: set, summary: dict) -> list[str]:
    """Reasons the run fails the correctness gate; empty when it passes."""
    got = violation_tuples(out_dir)
    problems = []
    missing, spurious = oracle - got, got - oracle
    if missing:
        problems.append(f"{len(missing)} missing tuples, e.g. {sorted(missing, key=str)[:3]}")
    if spurious:
        problems.append(f"{len(spurious)} spurious tuples, e.g. {sorted(spurious, key=str)[:3]}")
    if summary.get("partitions_error"):
        problems.append(f"partition errors: {summary['partitions_error']}")
    if workload == "append_resume":
        now, resumed = summary.get("n_validated_now"), summary.get("n_resumed")
        if (now, resumed) != (GROW_PARTS, N_FILES - GROW_PARTS):
            problems.append(
                f"n_validated_now={now} n_resumed={resumed}, want "
                f"{GROW_PARTS} and {N_FILES - GROW_PARTS}: the delta path did not run"
            )
    return problems


def restore(src: str, dst: str, keep_mtime: bool = True) -> None:
    """Replace ``dst`` with a copy of ``src``; ``keep_mtime`` keeps the
    modification times the checkpoint records compare against."""
    if os.path.exists(dst):
        shutil.rmtree(dst)
    shutil.copytree(src, dst, copy_function=shutil.copy2 if keep_mtime else shutil.copyfile)


def generate_base(dst: str, seed: int, rows_hint: int) -> None:
    from teleharvest_ray.sources.datagen import GenSpec, generate

    generate(dst, GenSpec(rows_hint=rows_hint, n_files=N_FILES, seed=seed, hot_conv=True))


def grow(base_dir: str, dst: str, seed: int) -> None:
    """Copy ``base_dir`` to ``dst`` (mtimes kept) and append new conversations
    to the ``GROW_TARGETS`` partitions.

    The appended rows come from a second seeded ``datagen`` corpus (one file,
    no drift, no hot conversation), cut to exactly ``GROW_FRAC`` of the base
    corpus so every seed appends the same number of turns. The surplus is
    dropped just before the orphan conversations, which sort last, so every
    planted kind survives and the one conversation cut there keeps a
    gap-free prefix. Every non-empty conv id gets an ``app-`` prefix so no
    appended key collides with the base corpus, and the index grows by the
    new conversations."""
    from teleharvest_ray.sources.datagen import GenSpec, generate

    restore(base_dir, dst)
    base_rows = sum(
        pq.ParquetFile(os.path.join(base_dir, f"part-{i:05d}.parquet")).metadata.num_rows
        for i in range(N_FILES)
    )
    quota = round(base_rows * GROW_FRAC / GROW_PARTS)  # rows per grown partition
    extra_dir = dst + ".extra"
    # datagen needs clean rows left after planting, hence the floor
    generate(extra_dir, GenSpec(rows_hint=max(1000, int(1.3 * quota * GROW_PARTS)), n_files=1,
                                seed=seed + 1_000_003, drift_files=0))
    extra = pq.read_table(os.path.join(extra_dir, "part-00000.parquet"))
    n_drop = extra.num_rows - quota * GROW_PARTS
    orphans_at = extra.num_rows - pc.sum(pc.starts_with(extra["conv_id"], "orphan-")).as_py()
    if n_drop < 0 or orphans_at < n_drop:
        raise RuntimeError(f"appended corpus of {extra.num_rows} rows cannot give {GROW_PARTS} x {quota}")
    extra = pa.concat_tables([extra.slice(0, orphans_at - n_drop), extra.slice(orphans_at)])

    def prefixed(col: pa.ChunkedArray) -> pa.ChunkedArray:
        return pc.if_else(pc.equal(col, ""), col, pc.binary_join_element_wise("app-", col, ""))

    extra = extra.set_column(0, "conv_id", prefixed(extra["conv_id"]))
    for j, i in enumerate(GROW_TARGETS):
        path = os.path.join(dst, f"part-{i:05d}.parquet")
        tail = extra.slice(j * quota, quota).cast(pq.read_schema(path))
        pq.write_table(pa.concat_tables([pq.read_table(path), tail]), path, row_group_size=64 * 1024)
    idx_path = os.path.join(dst, "conversations.parquet")
    idx = pq.read_table(idx_path)
    extra_idx = pq.read_table(os.path.join(extra_dir, "conversations.parquet"))
    extra_idx = extra_idx.set_column(0, "conv_id", prefixed(extra_idx["conv_id"]))
    pq.write_table(pa.concat_tables([idx, extra_idx.cast(idx.schema)]), idx_path)
    for fn in ("expected_violations.parquet", "manifest.json"):
        os.unlink(os.path.join(dst, fn))  # they describe the base corpus only
    shutil.rmtree(extra_dir)


class Cache:
    """Per-seed inputs and snapshots, kept between runs in one checkout.

    Layout under ``root/seed-<n>-rows-<m>/``: ``base/`` (the generated
    corpus), ``grown/`` and ``validated/`` (append_resume's snapshots),
    ``oracle.parquet`` (its expected tuples) and ``work/`` (the directories a
    timed run reads and writes). A ``ready-*`` marker is written only after a
    step completes, so a killed preparation is redone, never trusted."""

    def __init__(self, root: str, seed: int, rows_hint: int):
        self.root = root
        self.seed = seed
        self.rows_hint = rows_hint
        self.dir = os.path.join(root, f"seed-{seed}-rows-{rows_hint}")
        self.base = os.path.join(self.dir, "base")
        self.grown = os.path.join(self.dir, "grown")
        self.validated = os.path.join(self.dir, "validated")
        self.oracle_path = os.path.join(self.dir, "oracle.parquet")
        self.work_data = os.path.join(self.dir, "work", "data")
        self.work_out = os.path.join(self.dir, "work", "out")

    def _marker(self, step: str) -> str:
        return os.path.join(self.dir, f"ready-{step}-v{CACHE_VERSION}")

    def _ready(self, step: str) -> bool:
        return os.path.exists(self._marker(step))

    def _mark(self, step: str) -> None:
        open(self._marker(step), "w").close()

    def evict_others(self) -> None:
        """Keep this seed and the ``CACHE_SEEDS - 1`` most recently used others."""
        os.makedirs(self.dir, exist_ok=True)
        os.utime(self.dir)
        others = [
            os.path.join(self.root, d)
            for d in os.listdir(self.root)
            if d.startswith("seed-") and os.path.join(self.root, d) != self.dir
        ]
        others.sort(key=os.path.getmtime, reverse=True)
        for d in others[CACHE_SEEDS - 1 :]:
            shutil.rmtree(d, ignore_errors=True)

    def prepare(self, workload: str, validate) -> None:
        """Build what ``workload`` needs. ``validate([(data, out), ...])`` runs
        untimed from-scratch validations, each in a fresh process."""
        self.evict_others()
        if not self._ready("base"):
            shutil.rmtree(self.base, ignore_errors=True)
            generate_base(self.base, self.seed, self.rows_hint)
            self._mark("base")
        if workload == "append_resume" and not self._ready("append"):
            restore(self.base, self.work_data)
            shutil.rmtree(self.work_out, ignore_errors=True)
            grow(self.base, self.grown, self.seed)
            oracle_out = os.path.join(self.dir, "oracle_out")
            shutil.rmtree(oracle_out, ignore_errors=True)
            # the base run (to resume from) and the oracle run (from scratch
            # over the grown corpus) are independent, so they run together
            validate([(self.work_data, self.work_out), (self.grown, oracle_out)])
            restore(self.work_out, self.validated)
            write_tuples(violation_tuples(oracle_out), self.oracle_path)
            shutil.rmtree(oracle_out)
            self._mark("append")

    def oracle(self, workload: str) -> set:
        if workload == "full_dirty":
            return read_tuples(os.path.join(self.base, "expected_violations.parquet"))
        return read_tuples(self.oracle_path)

    def stage(self, workload: str, keep_mtime: bool = True) -> tuple[str, str]:
        """Lay out the directories of one timed run; returns (data, out)."""
        if workload == "full_dirty":
            shutil.rmtree(self.work_out, ignore_errors=True)
            return self.base, self.work_out
        restore(self.grown, self.work_data, keep_mtime)
        restore(self.validated, self.work_out, keep_mtime)
        return self.work_data, self.work_out

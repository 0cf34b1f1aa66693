"""End-to-end validation pipeline: full manifest match + checkpoint/resume."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from teleharvest_ray.config import ValidationConfig
from teleharvest_ray.pipelines.validate import read_violations, run_validation
from teleharvest_ray.sources.datagen import GenSpec, generate


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("e2e_data")
    generate(str(d), GenSpec(n_convs=120, n_files=6, seed=5, hot_conv=True))
    return str(d)


def _vio_set(df: pd.DataFrame) -> set:
    return set(map(tuple, df[["conv_id", "turn_idx", "check_id"]].drop_duplicates().itertuples(index=False)))


def test_full_run_matches_manifest(ray_session, dataset, tmp_path):
    out = str(tmp_path / "out")
    summary = run_validation(dataset, out, ValidationConfig())
    exp = pq.read_table(dataset + "/expected_violations.parquet").to_pandas()
    got = read_violations(out)
    missing = _vio_set(exp) - _vio_set(got)
    spurious = _vio_set(got) - _vio_set(exp)
    assert not missing, f"missed {len(missing)}: {sorted(missing)[:6]}"
    assert not spurious, f"spurious {len(spurious)}: {sorted(spurious)[:6]}"
    # summary sanity
    assert summary["n_partitions"] == 6
    assert summary["rows_scanned"] > 2000
    cs = summary["column_stats"]
    assert cs["n_rows"] == summary["rows_scanned"]
    # HLL approx-distinct of conversations within 5%
    true_convs = pd.concat(
        [pq.read_table(f).to_pandas() for f in sorted(__import__("glob").glob(dataset + "/part-*.parquet"))]
    )["conv_id"].nunique()
    assert abs(cs["approx_distinct_convs"] - true_convs) / true_convs < 0.05
    # drift partition flagged, and only it
    assert [p for p in summary["partitions_failed"] if p == "part-00005"]
    drift_rows = got[got.check_id == "drift"]
    assert set(drift_rows.conv_id) == {"partition:part-00005"}


def test_resume_revalidates_only_missing(ray_session, dataset, tmp_path):
    out = str(tmp_path / "out_resume")
    s1 = run_validation(dataset, out, ValidationConfig())
    v1 = read_violations(out)
    # simulate a kill after 3 of 6 partitions: drop 3 checkpoint records and
    # their outputs
    killed = ["part-00001", "part-00003", "part-00004"]
    for pid in killed:
        os.unlink(os.path.join(out, "checkpoints", f"{pid}.json"))
        os.unlink(os.path.join(out, "violations", f"{pid}.parquet"))
        os.unlink(os.path.join(out, "annotated", f"{pid}.parquet"))
    s2 = run_validation(dataset, out, ValidationConfig())
    assert s2["n_validated_now"] == 3
    assert s2["n_resumed"] == 3
    v2 = read_violations(out)
    assert _vio_set(v1) == _vio_set(v2)
    assert s1["rows_scanned"] == s2["rows_scanned"]
    assert s1["column_stats"]["approx_distinct_convs"] == s2["column_stats"]["approx_distinct_convs"]


def test_fresh_rerun_is_deterministic(ray_session, dataset, tmp_path):
    out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
    run_validation(dataset, out1, ValidationConfig())
    run_validation(dataset, out2, ValidationConfig())
    assert _vio_set(read_violations(out1)) == _vio_set(read_violations(out2))


def test_incremental_append_revalidates_only_delta(ray_session, tmp_path):
    """Row-level incremental ingest (the reference's watermark semantics):
    after rows are appended to a validated partition, a resume revalidates
    ONLY the delta's rows, merges the sketch, rebuilds the key state from the
    whole partition, and the final violation set equals a from-scratch run
    over the grown data."""
    import glob as _glob

    import numpy as np
    import pyarrow as pa

    d = str(tmp_path / "inc")
    generate(d, GenSpec(n_convs=80, n_files=4, seed=21))
    out = str(tmp_path / "inc_out")
    s1 = run_validation(d, out, ValidationConfig())
    v1 = read_violations(out)

    p = os.path.join(d, "part-00002.parquet")
    old = pq.read_table(p)
    # pick an existing (conv, turn 0) of this partition to duplicate — the
    # dup spans prefix↔delta, so catching it REQUIRES whole-partition key state
    dup_conv = old["conv_id"][0].as_py()
    longtext = "ok " * 100
    ap = pd.DataFrame(
        {
            "conv_id": ["conv-newinc"] * 3 + [dup_conv],
            "turn_idx": np.array([0, 1, 3, 0], dtype="int32"),  # gap at 2
            "role": ["user", "assistant", "user", "user"],
            "text": ["hi", longtext, longtext, longtext],  # one short text
            "tool": [None] * 4,
            "ts": pd.to_datetime(["2024-02-01T00:00:00"] * 4),
            "views": [1000] * 4,
            "reactions": [100] * 4,
            "forwards": [1] * 4,
        }
    )
    delta = pa.Table.from_pandas(ap, schema=old.schema, preserve_index=False)
    pq.write_table(pa.concat_tables([old, delta]), p)

    s2 = run_validation(d, out, ValidationConfig())
    assert s2["n_resumed"] == 3 and s2["n_validated_now"] == 1
    assert s2["rows_scanned"] == s1["rows_scanned"] + 4
    v2 = read_violations(out)
    # prior violations retained; cross-prefix dup + delta plants caught
    assert _vio_set(v1) - {t for t in _vio_set(v1) if t[2] == "drift"} <= _vio_set(v2)
    assert (dup_conv, 0, "dup_key") in _vio_set(v2)
    assert ("conv-newinc", 0, "text_too_short") in _vio_set(v2)
    assert any(t[0] == "conv-newinc" and t[2] == "seq_gap" for t in _vio_set(v2))
    assert ("conv-newinc", -1, "orphan_conv") in _vio_set(v2)
    # equivalence with a from-scratch run over the grown data
    out_ctl = str(tmp_path / "inc_ctl")
    run_validation(d, out_ctl, ValidationConfig())
    assert _vio_set(v2) == _vio_set(read_violations(out_ctl))
    # exactly one sidecar blob per partition survives (superseded one pruned)
    blobs = _glob.glob(os.path.join(out, "keyspace", "part-00002-*.bin"))
    assert len(blobs) == 1


def test_delta_repeating_a_prefix_key_rebuilds_sidecars_whole(ray_session, tmp_path):
    """A delta whose rows repeat prefix keys writes the key run and partials
    a from-scratch run over the grown file writes, byte for byte — the
    partials' n_distinct counts each key once, not once per scan — and the
    same violations."""
    import filecmp

    import pyarrow as pa

    from teleharvest_ray.state.checkpoint import CheckpointStore

    d = str(tmp_path / "rep")
    generate(d, GenSpec(n_convs=40, n_files=2, seed=41))
    out = str(tmp_path / "rep_out")
    run_validation(d, out, ValidationConfig())
    p = os.path.join(d, "part-00001.parquet")
    old = pq.read_table(p)
    pq.write_table(pa.concat_tables([old, old.slice(0, 3)]), p)
    s = run_validation(d, out, ValidationConfig())
    assert s["n_validated_now"] == 1 and s["rows_scanned"] == sum(
        pq.ParquetFile(os.path.join(d, f"part-0000{i}.parquet")).metadata.num_rows for i in (0, 1)
    )
    ctl = str(tmp_path / "rep_ctl")
    run_validation(d, ctl, ValidationConfig())

    def sidecars(root):
        rec = CheckpointStore(os.path.join(root, "checkpoints")).read("part-00001")
        return os.path.join(root, rec["keyspace_blob"]), os.path.join(root, rec["keyspace_partials"])

    for got, want in zip(sidecars(out), sidecars(ctl)):
        assert os.path.basename(got) == os.path.basename(want)
        assert filecmp.cmp(got, want, shallow=False), got
    assert _vio_set(read_violations(out)) == _vio_set(read_violations(ctl))

    def global_rows(root):
        t = pq.read_table(os.path.join(root, "violations", "_global.parquet"))
        return t.sort_by([(c, "ascending") for c in ("check_id", "conv_id", "turn_idx")])

    assert global_rows(out).equals(global_rows(ctl))


def test_capability_probe_disables_scoring(ray_session, tmp_path):
    """A failing runtime capability probe must disable the scoring sub-chain
    for the whole run — identical behavior to scoring_enabled=False."""
    from dataclasses import replace

    d = str(tmp_path / "probe_data")
    generate(d, GenSpec(n_convs=60, n_files=3, seed=31))

    def boom():
        raise RuntimeError("no credits")

    out_probe = str(tmp_path / "probe_out")
    run_validation(d, out_probe, ValidationConfig(), capability_probe=boom)
    out_flag = str(tmp_path / "flag_out")
    run_validation(d, out_flag, replace(ValidationConfig(), scoring_enabled=False))
    vp, vf = read_violations(out_probe), read_violations(out_flag)
    assert _vio_set(vp) == _vio_set(vf)
    assert not (vp.check_id.isin(["low_score", "low_score_alt"])).any()
    # a passing probe keeps scoring on
    out_ok = str(tmp_path / "ok_out")
    run_validation(d, out_ok, ValidationConfig(), capability_probe=lambda: True)
    out_ctl = str(tmp_path / "ctl_out")
    run_validation(d, out_ctl, ValidationConfig())
    assert _vio_set(read_violations(out_ok)) == _vio_set(read_violations(out_ctl))


def test_grown_partition_without_sidecars_full_rescans(ray_session, tmp_path):
    """A record lacking usable sidecar state (older format / files removed)
    must trigger a FULL rescan of its partition — of an unchanged one, since
    phase 2 reads key state only from sidecars, and of a grown one, never a
    lossy delta."""
    import glob as _glob

    import pyarrow as pa

    d = str(tmp_path / "oldfmt")
    generate(d, GenSpec(n_convs=40, n_files=2, seed=33))
    out = str(tmp_path / "oldfmt_out")
    run_validation(d, out, ValidationConfig())
    for f in _glob.glob(os.path.join(out, "keyspace", "part-00000-*")):
        os.unlink(f)
    s = run_validation(d, out, ValidationConfig())
    assert s["n_validated_now"] == 1 and s["n_resumed"] == 1
    ctl = str(tmp_path / "oldfmt_ctl")
    run_validation(d, ctl, ValidationConfig())
    assert _vio_set(read_violations(out)) == _vio_set(read_violations(ctl))
    # simulate an older-release record: drop the sidecar files
    for f in _glob.glob(os.path.join(out, "keyspace", "part-00001-*")):
        os.unlink(f)
    # grow the partition with a duplicate of an existing key — only a full
    # rescan (or prefix state) can catch a dup spanning prefix and delta
    p = os.path.join(d, "part-00001.parquet")
    old = pq.read_table(p)
    dup_conv = old["conv_id"][0].as_py()
    ap = pd.DataFrame(
        {
            "conv_id": [dup_conv],
            "turn_idx": pd.array([0], dtype="int32"),
            "role": ["user"],
            "text": ["x " * 150],
            "tool": [None],
            "ts": pd.to_datetime(["2024-02-01T00:00:00"]),
            "views": [1000],
            "reactions": [100],
            "forwards": [1],
        }
    )
    pq.write_table(pa.concat_tables([old, pa.Table.from_pandas(ap, schema=old.schema, preserve_index=False)]), p)
    run_validation(d, out, ValidationConfig())
    got = read_violations(out)
    assert (dup_conv, 0, "dup_key") in _vio_set(got)
    # a record whose annotated file is gone: a delta has no prefix to derive
    # the partition's violations from, so the grown partition is rescanned
    # in full
    ann = os.path.join(out, "annotated", "part-00001.parquet")
    os.unlink(ann)
    grown = pq.read_table(p)
    pq.write_table(pa.concat_tables([grown, grown.slice(grown.num_rows - 1)]), p)
    s = run_validation(d, out, ValidationConfig())
    assert s["n_validated_now"] == 1 and s["n_resumed"] == 1
    assert pq.ParquetFile(ann).metadata.num_rows == grown.num_rows + 1
    ctl = str(tmp_path / "oldfmt_ctl2")
    run_validation(d, ctl, ValidationConfig())
    assert _vio_set(read_violations(out)) == _vio_set(read_violations(ctl))


def test_moved_output_directory_resumes_in_place(ray_session, tmp_path):
    """Records name their sidecars relative to the output directory: a
    validated output directory moved elsewhere resumes with nothing to
    revalidate and the same violations. A record that names them absolutely,
    as earlier releases wrote, still resumes."""
    import shutil

    from teleharvest_ray.state.checkpoint import CheckpointStore

    d = str(tmp_path / "data")
    generate(d, GenSpec(n_convs=40, n_files=2, seed=35))
    first, moved = str(tmp_path / "first"), str(tmp_path / "moved")
    run_validation(d, first, ValidationConfig())
    want = _vio_set(read_violations(first))
    shutil.move(first, moved)
    s = run_validation(d, moved, ValidationConfig())
    assert s["n_validated_now"] == 0 and s["n_resumed"] == 2
    assert _vio_set(read_violations(moved)) == want

    store = CheckpointStore(os.path.join(moved, "checkpoints"))
    rec = store.read("part-00000")
    for k in ("keyspace_blob", "keyspace_partials"):
        assert not os.path.isabs(rec[k])
        rec[k] = os.path.abspath(os.path.join(moved, rec[k]))
    store.write("part-00000", rec)
    s = run_validation(d, moved, ValidationConfig())
    assert s["n_validated_now"] == 0 and s["n_resumed"] == 2


def test_replaced_partition_full_rescans(ray_session, tmp_path):
    """A file replaced by different content with the same row count is
    revalidated in full: neither skipped nor read as a delta."""
    import pyarrow as pa

    d = str(tmp_path / "swap")
    generate(d, GenSpec(n_convs=40, n_files=2, seed=34))
    out = str(tmp_path / "swap_out")
    run_validation(d, out, ValidationConfig())
    p = os.path.join(d, "part-00000.parquet")
    old = pq.read_table(p)
    df = old.to_pandas()
    df.loc[1, ["conv_id", "turn_idx"]] = df.loc[0, ["conv_id", "turn_idx"]].to_numpy()  # a new dup key
    pq.write_table(pa.Table.from_pandas(df, schema=old.schema, preserve_index=False), p)
    s = run_validation(d, out, ValidationConfig())
    assert s["n_validated_now"] == 1 and s["n_resumed"] == 1
    ctl = str(tmp_path / "swap_ctl")
    run_validation(d, ctl, ValidationConfig())
    assert _vio_set(read_violations(out)) == _vio_set(read_violations(ctl))


def test_run_releases_session_cpus(ray_session, cpus_free, tmp_path):
    """Every session CPU is free again soon after run_validation returns: the
    phase-1 actor pool is released by the run itself, not left to a later gc
    pass. The automatic collector is off during the run so it cannot free the
    pool by chance; the corpus is clean so phase 2 submits no task that an
    unreleased pool would block forever."""
    import gc

    import ray

    d = str(tmp_path / "clean")
    generate(d, GenSpec(n_convs=40, n_files=4, seed=8, plant=False))
    gc.collect()  # pools other tests left to the garbage collector
    assert cpus_free(), ray.available_resources()
    gc.disable()
    try:
        run_validation(d, str(tmp_path / "out"), ValidationConfig())
        assert cpus_free(), ray.available_resources()
    finally:
        gc.enable()


def test_phase1_runs_one_validator_per_session_cpu(ray_session, cpus_free, tmp_path):
    """With the default config, phase 1 asks for one 1-CPU validator per free
    session CPU: four actors in the 4-CPU test session for six partitions."""
    import gc
    from unittest import mock

    import ray.data as rd

    from teleharvest_ray.pipelines.validate import PartitionValidator

    d = str(tmp_path / "six")
    generate(d, GenSpec(n_convs=60, n_files=6, seed=9))
    gc.collect()
    assert cpus_free(), "an earlier test left session CPUs held"
    pools, map_batches = [], rd.Dataset.map_batches

    def spy(self, fn, *args, **kw):
        if fn is PartitionValidator:
            pools.append(kw)
        return map_batches(self, fn, *args, **kw)

    with mock.patch.object(rd.Dataset, "map_batches", spy):
        s = run_validation(d, str(tmp_path / "out"))
    assert s["n_validated_now"] == 6
    assert [(kw["num_cpus"], kw["concurrency"]) for kw in pools] == [(1, 4)]


def test_index_change_recomputes_global_checks(ray_session, tmp_path):
    """The conversations index decides the orphans, so a resume after the
    index alone changed recomputes the global checks: with the orphan ids
    added to the index and no partition touched, the result equals a fresh
    run's."""
    import pyarrow as pa

    d = str(tmp_path / "idx")
    generate(d, GenSpec(n_files=4, seed=3))
    out = str(tmp_path / "idx_out")
    run_validation(d, out, ValidationConfig())
    vio = read_violations(out)
    orphans = sorted(set(vio.loc[vio.check_id == "orphan_conv", "conv_id"]))
    assert orphans
    index_path = os.path.join(d, "conversations.parquet")
    index = pq.read_table(index_path)
    added = pa.table({"conv_id": orphans, "n_turns": [1] * len(orphans)}, schema=index.schema)
    pq.write_table(pa.concat_tables([index, added]), index_path)
    s = run_validation(d, out, ValidationConfig())
    assert s["n_validated_now"] == 0
    ctl = str(tmp_path / "idx_ctl")
    fresh = run_validation(d, ctl, ValidationConfig())
    assert s["violations_global"] == fresh["violations_global"]
    got = read_violations(out)
    assert _vio_set(got) == _vio_set(read_violations(ctl))
    assert not (got.check_id == "orphan_conv").any()


def test_incremental_two_successive_appends(ray_session, tmp_path):
    """Watermark semantics must compose: two successive appends each
    revalidate only their delta, and the final state equals a from-scratch
    run over the twice-grown data."""
    import pyarrow as pa

    d = str(tmp_path / "inc2")
    generate(d, GenSpec(n_convs=50, n_files=2, seed=41))
    out = str(tmp_path / "inc2_out")
    run_validation(d, out, ValidationConfig())
    p = os.path.join(d, "part-00000.parquet")
    longtext = "ok " * 100
    for wave, convs in enumerate((["conv-w1"], ["conv-w1", "conv-w2"])):
        old = pq.read_table(p)
        n_new = len(convs)
        # each wave appends the NEXT turn of conv-w1 (and starts conv-w2 in
        # wave 2), so gap-freeness depends on state merged across waves
        turn = [wave] * 1 if n_new == 1 else [wave, 0]
        ap = pd.DataFrame(
            {
                "conv_id": convs,
                "turn_idx": pd.array(turn, dtype="int32"),
                "role": ["user"] * n_new,
                "text": [longtext] * n_new,
                "tool": [None] * n_new,
                "ts": pd.to_datetime(["2024-02-01T00:00:00"] * n_new),
                "views": [1000] * n_new,
                "reactions": [100] * n_new,
                "forwards": [1] * n_new,
            }
        )
        pq.write_table(
            pa.concat_tables([old, pa.Table.from_pandas(ap, schema=old.schema, preserve_index=False)]), p
        )
        s = run_validation(d, out, ValidationConfig())
        assert s["n_validated_now"] == 1 and s["n_resumed"] == 1
    ctl = str(tmp_path / "inc2_ctl")
    run_validation(d, ctl, ValidationConfig())
    assert _vio_set(read_violations(out)) == _vio_set(read_violations(ctl))


def test_compare_runs_detects_distribution_shift(ray_session, tmp_path):
    """Cross-run drift from checkpoint sketches only: identical corpora
    compare clean; a drift-skewed corpus lights up the statistics."""
    from teleharvest_ray.pipelines.validate import compare_runs

    d1 = str(tmp_path / "v1")
    generate(d1, GenSpec(n_convs=60, n_files=3, seed=61, drift_files=0))
    d2 = str(tmp_path / "v2")
    generate(d2, GenSpec(n_convs=60, n_files=3, seed=61, drift_files=1))  # one drifted file shifts the merged stats
    o1, o1b, o2 = (str(tmp_path / n) for n in ("o1", "o1b", "o2"))
    run_validation(d1, o1, ValidationConfig())
    run_validation(d1, o1b, ValidationConfig())
    run_validation(d2, o2, ValidationConfig())
    same = compare_runs(o1, o1b)
    assert same["role_chi2"] == 0.0 and same["text_len_ks"] == 0.0
    shifted = compare_runs(o1, o2)
    assert shifted["role_chi2"] > same["role_chi2"] or shifted["text_len_ks"] > same["text_len_ks"]
    assert shifted["rows_a"] == same["rows_a"]


def test_failed_run_releases_session_cpus(ray_session, cpus_free, tmp_path):
    """A run whose phase 1 raises still gives every session CPU back before
    the error reaches the caller: the pool is released on every exit path.
    The automatic collector is off, so it cannot free the pool by chance."""
    import gc

    import ray

    d = str(tmp_path / "corrupt")
    generate(d, GenSpec(n_convs=30, n_files=3, seed=8, plant=False))
    with open(os.path.join(d, "part-00001.parquet"), "wb") as fh:
        fh.write(b"not a parquet file")
    gc.collect()  # pools other tests left to the garbage collector
    assert cpus_free(), ray.available_resources()
    gc.disable()
    try:
        with pytest.raises(Exception):
            run_validation(d, str(tmp_path / "out"), ValidationConfig())
        assert cpus_free(timeout_s=5.0), ray.available_resources()
    finally:
        gc.enable()

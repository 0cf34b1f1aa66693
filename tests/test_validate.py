"""End-to-end validation pipeline: full manifest match + checkpoint/resume."""

from __future__ import annotations

import glob
import os
from collections import Counter
from unittest import mock

import pandas as pd
import pyarrow.parquet as pq
import pytest

from teleharvest_ray.config import ValidationConfig
from teleharvest_ray.pipelines import validate
from teleharvest_ray.pipelines.validate import read_annotated, read_violations, run_validation
from teleharvest_ray.sources.datagen import GenSpec, generate


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("e2e_data")
    generate(str(d), GenSpec(n_convs=120, n_files=6, seed=5, hot_conv=True))
    return str(d)


def _vio_set(df: pd.DataFrame) -> set:
    return set(map(tuple, df[["conv_id", "turn_idx", "check_id"]].drop_duplicates().itertuples(index=False)))


def _segment_starts(out: str, pid: str) -> list:
    from teleharvest_ray.state.checkpoint import CheckpointStore

    return [seg["start"] for seg in CheckpointStore(os.path.join(out, "checkpoints")).read(pid)["segments"]]


def _vio_rows(out: str) -> Counter:
    """Every violation row of a run, with its multiplicity."""
    files = sorted(glob.glob(os.path.join(out, "violations", "*.parquet")))
    return Counter(tuple(r.values()) for f in files for r in pq.read_table(f).to_pylist())


def _global_rows(out: str) -> list:
    return [tuple(r.values()) for r in pq.read_table(os.path.join(out, "violations", "_global.parquet")).to_pylist()]


def _stats(paths) -> dict:
    """``path -> (inode, mtime_ns)``: a file rewritten or replaced gets a new
    pair."""
    return {f: (os.stat(f).st_ino, os.stat(f).st_mtime_ns) for f in paths}


def _first_segment_files(out: str, pid: str) -> list:
    """The annotated, violation and sidecar files of a partition's first
    segment."""
    ks = sorted(glob.glob(os.path.join(out, "keyspace", pid + "-*")))
    assert len(ks) == 2, ks
    return [os.path.join(out, kind, f"{pid}.parquet") for kind in ("annotated", "violations")] + ks


def _cut(path: str, fracs) -> tuple:
    """Cut a partition back to a conversation boundary near ``fracs[0]`` of
    its rows; returns the full table and the boundaries near every fraction,
    so each later growth appends whole conversations."""
    full = pq.read_table(path)
    conv = full["conv_id"].to_pylist()
    cuts = []
    for frac in fracs:
        k = int(full.num_rows * frac)
        while conv[k] == conv[k - 1]:
            k += 1
        cuts.append(k)
    pq.write_table(full.slice(0, cuts[0]), path)
    return full, cuts


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


def test_delta_repeating_a_prefix_key_gives_one_dup_row(ray_session, tmp_path):
    """A delta whose rows repeat prefix keys of the same partition is written
    as its own segment; each repeated key gives one dup_key row with
    ``count=2`` (the data file is read once for all its segments), and the
    violations and ``_global`` rows equal a from-scratch run's."""
    import pyarrow as pa

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
    assert _segment_starts(out, "part-00001") == [0, old.num_rows]
    ctl = str(tmp_path / "rep_ctl")
    run_validation(d, ctl, ValidationConfig())
    assert _vio_set(read_violations(out)) == _vio_set(read_violations(ctl))

    def global_rows(root):
        t = pq.read_table(os.path.join(root, "violations", "_global.parquet"))
        return t.sort_by([(c, "ascending") for c in ("check_id", "conv_id", "turn_idx")])

    assert global_rows(out).equals(global_rows(ctl))
    repeated = {(r["conv_id"], r["turn_idx"]) for r in old.slice(0, 3).select(["conv_id", "turn_idx"]).to_pylist()}
    dups = Counter(
        (r["conv_id"], r["turn_idx"], r["detail"])
        for r in global_rows(out).to_pylist()
        if r["check_id"] == "dup_key" and (r["conv_id"], r["turn_idx"]) in repeated
    )
    assert dups == Counter((c, t, "count=2") for c, t in repeated)


def test_delta_appends_a_segment_and_leaves_the_first_untouched(ray_session, tmp_path):
    """A grown partition gets one new segment, written from its new rows
    only: every file of its first segment, and of the partitions that did
    not grow, keeps its inode and modification time."""
    d = str(tmp_path / "data")
    generate(d, GenSpec(n_convs=60, n_files=3, seed=7))
    pid = "part-00000"  # not the drifted partition: its drift row never changes
    full, (k,) = _cut(os.path.join(d, f"{pid}.parquet"), [0.6])
    out = str(tmp_path / "out")
    run_validation(d, out, ValidationConfig())
    kept = _stats(
        _first_segment_files(out, pid)
        + [f for f in glob.glob(os.path.join(out, "*", "part-0000[12]*")) if "checkpoints" not in f]
    )
    pq.write_table(full, os.path.join(d, f"{pid}.parquet"))
    s = run_validation(d, out, ValidationConfig())
    assert s["n_validated_now"] == 1 and s["n_resumed"] == 2
    assert _stats(kept) == kept
    assert _segment_starts(out, pid) == [0, k]
    seg = [os.path.join(out, kind, f"{pid}+{k}.parquet") for kind in ("annotated", "violations")]
    assert pq.ParquetFile(seg[0]).metadata.num_rows == full.num_rows - k
    assert len(glob.glob(os.path.join(out, "keyspace", f"{pid}+{k}-*"))) == 2
    assert s["rows_scanned"] == sum(pq.ParquetFile(f).metadata.num_rows for f in glob.glob(d + "/part-*.parquet"))
    ctl = str(tmp_path / "ctl")
    fresh = run_validation(d, ctl, ValidationConfig())
    assert _vio_set(read_violations(out)) == _vio_set(read_violations(ctl))
    assert s["violations_partition_local"] == sum(_vio_rows(out).values()) - s["violations_global"]
    assert s["violations_global"] == fresh["violations_global"]


def _run_with(max_segments: int, data: str, out: str) -> dict:
    with mock.patch.object(validate, "_MAX_SEGMENTS", max_segments):
        return run_validation(data, out, ValidationConfig())


def _outputs(out: str, pids) -> tuple:
    """What a reader sees of a run: every violation row with its
    multiplicity, the sorted ``_global`` rows, and each partition's
    ``read_annotated``."""
    g = pq.read_table(os.path.join(out, "violations", "_global.parquet"))
    g = g.sort_by([(c, "ascending") for c in ("check_id", "conv_id", "turn_idx")])
    return _vio_rows(out), g, [read_annotated(out, p) for p in pids]


def _same_outputs(a: tuple, b: tuple) -> None:
    assert a[0] == b[0]
    assert a[1].equals(b[1])
    assert all(x.equals(y) for x, y in zip(a[2], b[2]))


def test_segments_equal_a_forced_fold_and_fold_past_the_cap(ray_session, tmp_path):
    """The same three growths of a clean and of the drifted partition,
    resumed three ways: with segments, with every delta folded
    (``_MAX_SEGMENTS = 1``), and with a cap of 2, where the delta that would
    make a third segment folds the partition to one. After every growth the
    three give the same violation rows, ``_global`` rows and annotated
    tables; the fold deletes the replaced segments."""
    d = str(tmp_path / "data")
    generate(d, GenSpec(n_convs=90, n_files=3, seed=13, hot_conv=True))
    pids = ["part-00000", "part-00001", "part-00002"]
    grown = {p: _cut(os.path.join(d, f"{p}.parquet"), [0.4, 0.6, 0.8]) for p in ("part-00001", "part-00002")}
    outs = {n: str(tmp_path / f"out{n}") for n in (validate._MAX_SEGMENTS, 1, 2)}
    for n, out in outs.items():
        _run_with(n, d, out)
    drift_before = _vio_rows(outs[1])
    for step, cut in enumerate([1, 2, None]):
        for p, (full, cuts) in grown.items():
            pq.write_table(full.slice(0, cuts[cut] if cut else full.num_rows), os.path.join(d, f"{p}.parquet"))
        for n, out in outs.items():
            assert _run_with(n, d, out)["n_validated_now"] == 2
        want = _outputs(outs[1], pids)
        for n, out in outs.items():
            _same_outputs(_outputs(out, pids), want)
        n_segs = {n: len(_segment_starts(out, "part-00001")) for n, out in outs.items()}
        assert n_segs == {validate._MAX_SEGMENTS: step + 2, 1: 1, 2: [2, 1, 2][step]}
        for n, out in outs.items():
            later = glob.glob(os.path.join(out, "*", "part-00001+*"))
            assert len(later) == 4 * (n_segs[n] - 1), later
    # the drifted partition's drift row changed with its growth (the first
    # segment's violation file was rewritten) and matches the fold's
    drift = lambda rows: {r for r in rows if r[2] == "drift"}
    assert drift(_vio_rows(outs[validate._MAX_SEGMENTS])) == drift(want[0]) != drift(drift_before)
    assert drift(want[0])


def test_parent_format_output_resumes_in_place(ray_session, tmp_path):
    """An output directory as the earlier release wrote it — records with
    one sidecar pair and no segment list, partials sidecars with an
    ``n_rows`` column — is a one-segment output: grown partitions resume in
    place as deltas, and the first-segment files stay untouched."""
    import pyarrow as pa

    from teleharvest_ray.state.checkpoint import CheckpointStore

    d = str(tmp_path / "data")
    generate(d, GenSpec(n_convs=60, n_files=3, seed=17))
    pids = ["part-00000", "part-00001"]
    # cut where neither partition's drift row changes with its growth, so
    # nothing of the first segment has a reason to change
    full = {p: _cut(os.path.join(d, f"{p}.parquet"), [0.7])[0] for p in pids}
    out = str(tmp_path / "out")
    run_validation(d, out, ValidationConfig())
    store = CheckpointStore(os.path.join(out, "checkpoints"))
    for pid, rec in store.completed().items():
        if pid.startswith("_"):
            continue
        (seg,) = rec.pop("segments")
        rec.update(keyspace_blob=seg["blob"], keyspace_partials=seg["partials"], keyspace_digest=seg["digest"])
        store.write(pid, rec)
        path = os.path.join(out, seg["partials"])
        partials = pa.ipc.open_file(path).read_all()
        partials = partials.append_column("n_rows", partials["n_distinct"])
        with pa.ipc.new_file(path, partials.schema) as w:
            w.write_table(partials)
    kept = _stats([f for p in pids for f in _first_segment_files(out, p)])
    for p in pids:
        pq.write_table(full[p], os.path.join(d, f"{p}.parquet"))
    s = run_validation(d, out, ValidationConfig())
    assert s["n_validated_now"] == 2 and s["n_resumed"] == 1
    assert _stats(kept) == kept
    for p in pids:
        assert len(_segment_starts(out, p)) == 2
    ctl = str(tmp_path / "ctl")
    run_validation(d, ctl, ValidationConfig())
    assert _vio_set(read_violations(out)) == _vio_set(read_violations(ctl))
    for p in pids:
        assert read_annotated(out, p).num_rows == full[p].num_rows


def test_killed_fold_leaves_no_row_twice(ray_session, tmp_path):
    """A fold killed after writing its segment but before its record: the
    replaced segments are already gone, so the violation files hold each
    row once, as a completed fold's do; ``read_annotated`` cannot read the
    half-written partition, and the resume rescans it to a from-scratch
    run's outputs."""
    import ray

    from teleharvest_ray.state.profile import build_profile

    d = str(tmp_path / "data")
    generate(d, GenSpec(n_convs=60, n_files=2, seed=19))
    pid, path = "part-00001", os.path.join(d, "part-00001.parquet")
    full, cuts = _cut(path, [0.5, 0.75])
    out, folded = str(tmp_path / "out"), str(tmp_path / "folded")
    for cut in cuts:
        pq.write_table(full.slice(0, cut), path)
        for n, o in ((validate._MAX_SEGMENTS, out), (2, folded)):
            _run_with(n, d, o)
    pq.write_table(full, path)
    _run_with(2, d, folded)  # the delta that would make a third segment folds
    assert _segment_starts(out, pid) == [0, cuts[0]] and _segment_starts(folded, pid) == [0]

    # the same fold in `out`, run by hand and never recorded
    cfg = ValidationConfig()
    first = sorted(glob.glob(os.path.join(d, "part-*.parquet")))[0]
    profile = build_profile(pq.read_table(first, columns=["text", "role", "tool"]), cfg)
    validate.PartitionValidator(cfg, ray.put(profile), out)._one(path, pid, start_row=cuts[1], seg_start=0)
    # its sidecars are content-addressed and go once a record no longer
    # names them
    assert not [f for kind in ("annotated", "violations") for f in glob.glob(os.path.join(out, kind, pid + "+*"))]

    def local_rows(o):
        return _vio_rows(o) - Counter(_global_rows(o))

    assert local_rows(out) == local_rows(folded)
    with pytest.raises(FileNotFoundError):
        read_annotated(out, pid)
    s = run_validation(d, out, cfg)
    assert s["n_validated_now"] == 1 and _segment_starts(out, pid) == [0]
    ctl = str(tmp_path / "ctl")
    run_validation(d, ctl, cfg)
    _same_outputs(_outputs(out, ["part-00000", pid]), _outputs(ctl, ["part-00000", pid]))


def test_plus_in_an_input_name_is_refused(tmp_path):
    """``+`` separates a partition from a later segment's start row in the
    output names, so an input stem holding one is refused before any work."""
    d = str(tmp_path / "data")
    generate(d, GenSpec(n_convs=10, n_files=2, seed=3, plant=False))
    os.rename(os.path.join(d, "part-00001.parquet"), os.path.join(d, "part-00000+2.parquet"))
    with pytest.raises(ValueError, match=r"\+"):
        run_validation(d, str(tmp_path / "out"), ValidationConfig())


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
    for seg in rec["segments"]:
        for k in ("blob", "partials"):
            assert not os.path.isabs(seg[k])
            seg[k] = os.path.abspath(os.path.join(moved, seg[k]))
    store.write("part-00000", rec)
    s = run_validation(d, moved, ValidationConfig())
    assert s["n_validated_now"] == 0 and s["n_resumed"] == 2


def test_replaced_partition_full_rescans(ray_session, tmp_path):
    """A file replaced by different content with the same row count is
    revalidated in full: neither skipped nor read as a delta. The segment a
    delta appended before the swap is deleted with its sidecars."""
    import pyarrow as pa

    d = str(tmp_path / "swap")
    generate(d, GenSpec(n_convs=40, n_files=2, seed=34))
    p = os.path.join(d, "part-00000.parquet")
    full, (k,) = _cut(p, [0.7])
    out = str(tmp_path / "swap_out")
    run_validation(d, out, ValidationConfig())
    pq.write_table(full, p)
    run_validation(d, out, ValidationConfig())
    assert _segment_starts(out, "part-00000") == [0, k]
    df = full.to_pandas()
    df.loc[1, ["conv_id", "turn_idx"]] = df.loc[0, ["conv_id", "turn_idx"]].to_numpy()  # a new dup key
    pq.write_table(pa.Table.from_pandas(df, schema=full.schema, preserve_index=False), p)
    s = run_validation(d, out, ValidationConfig())
    assert s["n_validated_now"] == 1 and s["n_resumed"] == 1
    assert _segment_starts(out, "part-00000") == [0]
    assert not glob.glob(os.path.join(out, "*", "part-00000+*"))
    assert len(glob.glob(os.path.join(out, "keyspace", "part-00000-*"))) == 2
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

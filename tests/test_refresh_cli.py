"""EP2/EP3 refresh pipelines, declarative check disabling, and the CLI."""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from teleharvest_ray.config import ValidationConfig
from teleharvest_ray.pipelines.refresh import refresh_metrics, refresh_similarity
from teleharvest_ray.pipelines.validate import read_violations, run_validation
from teleharvest_ray.sources.datagen import GenSpec, generate
from teleharvest_ray.state.profile import build_profile


@pytest.fixture(scope="module")
def validated(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("refresh_data")
    o = tmp_path_factory.mktemp("refresh_out")
    generate(str(d), GenSpec(n_convs=80, n_files=4, seed=31))
    run_validation(str(d), str(o), ValidationConfig())
    return str(d), str(o)


def test_refresh_similarity_updates_eligible_rows(validated, ray_session):
    data, out = validated
    ann_before = pd.concat(
        [pq.read_table(f).to_pandas() for f in sorted(glob.glob(out + "/annotated/*.parquet"))]
    )
    # EP2: rebuild the profile from a DIFFERENT partition (published set
    # evolved) and refresh
    files = sorted(glob.glob(data + "/part-*.parquet"))
    prof2 = build_profile(pq.read_table(files[1], columns=["text", "role", "tool"]))
    res = refresh_similarity(out, prof2)
    ann_after = pd.concat(
        [pq.read_table(f).to_pandas() for f in sorted(glob.glob(out + "/annotated/*.parquet"))]
    )
    eligible = ann_before.token_count.notna()
    assert res["rows_refreshed"] == int(eligible.sum()) > 0
    # null-state machine preserved: ineligible rows stay null
    assert ann_after.similarity_score[~eligible.to_numpy()].isna().all()
    assert ann_after.similarity_score[eligible.to_numpy()].notna().all()
    # idempotent: refreshing again with the same profile changes nothing
    res2 = refresh_similarity(out, prof2)
    ann_again = pd.concat(
        [pq.read_table(f).to_pandas() for f in sorted(glob.glob(out + "/annotated/*.parquet"))]
    )
    assert res2["rows_refreshed"] == res["rows_refreshed"]
    pd.testing.assert_series_equal(ann_after.similarity_score, ann_again.similarity_score)


def test_failed_refresh_releases_session_cpus(ray_session, cpus_free, tmp_path):
    """A refresh whose map raises still gives every session CPU back before
    the error reaches the caller. The automatic collector is off, so it
    cannot free the pool by chance."""
    import gc

    import ray

    d, out = str(tmp_path / "data"), str(tmp_path / "out")
    generate(d, GenSpec(n_convs=30, n_files=3, seed=8, plant=False))
    run_validation(d, out, ValidationConfig())
    with open(os.path.join(d, "part-00001.parquet"), "wb") as fh:
        fh.write(b"not a parquet file")
    gc.collect()  # pools other tests left to the garbage collector
    assert cpus_free(), ray.available_resources()
    gc.disable()
    try:
        with pytest.raises(Exception):
            refresh_metrics(d, out, ValidationConfig())
        assert cpus_free(timeout_s=5.0), ray.available_resources()
    finally:
        gc.enable()


def test_refresh_metrics_window(validated, ray_session, tmp_path):
    data, out = validated
    before = read_violations(out)
    # idempotent on unchanged data (window covers everything at this size)
    res = refresh_metrics(data, out, ValidationConfig(), window=10_000)
    after = read_violations(out)
    key = lambda df: set(
        map(tuple, df[["conv_id", "turn_idx", "check_id"]].drop_duplicates().itertuples(index=False))
    )
    assert key(before) == key(after)
    assert res["metrics_violations"] > 0
    # late data arrives: copy one partition, null out reactions of one clean
    # in-window row -> refresh flags exactly it
    data2 = str(tmp_path / "late")
    os.makedirs(data2)
    import shutil

    for f in glob.glob(data + "/part-*.parquet"):
        shutil.copy(f, data2)
    t = pq.read_table(os.path.join(data2, "part-00000.parquet"))
    df = t.to_pandas()
    vset = key(before)
    victim = None
    for i in range(len(df)):
        r = df.iloc[i]
        if pd.notna(r.reactions) and not any(v[0] == r.conv_id and v[1] == r.turn_idx for v in vset):
            victim = i
            break
    df.loc[victim, "reactions"] = pd.NA
    t2 = pa.Table.from_pandas(df, preserve_index=False).cast(t.schema)
    pq.write_table(t2, os.path.join(data2, "part-00000.parquet"))
    refresh_metrics(data2, out, ValidationConfig(), window=10_000)
    after2 = read_violations(out)
    new = key(after2) - key(after)
    assert new == {(df.loc[victim, "conv_id"], int(df.loc[victim, "turn_idx"]), "metrics_missing")}


def test_disabled_checks(validated, ray_session, tmp_path):
    data, _ = validated
    out = str(tmp_path / "disabled_out")
    cfg = ValidationConfig(disabled_checks=("drift", "low_engagement", "dup_key"))
    run_validation(data, out, cfg)
    vio = read_violations(out)
    assert not set(vio.check_id) & {"drift", "low_engagement", "dup_key"}
    assert {"text_missing", "seq_gap"} <= set(vio.check_id)


def test_refreshes_release_session_cpus(ray_session, cpus_free, tmp_path):
    """Every session CPU is free again soon after each refresh returns: the
    refresh releases its actor pool itself rather than leaving it to a later
    gc pass. The automatic collector is off during the calls so it cannot
    free the pool by chance."""
    import gc

    import ray

    d, out = str(tmp_path / "data"), str(tmp_path / "out")
    generate(d, GenSpec(n_convs=40, n_files=3, seed=8, plant=False))
    run_validation(d, out, ValidationConfig())
    prof = build_profile(pq.read_table(sorted(glob.glob(d + "/part-*.parquet"))[0], columns=["text", "role", "tool"]))
    gc.collect()  # pools other tests left to the garbage collector
    assert cpus_free(), ray.available_resources()
    gc.disable()
    try:
        refresh_metrics(d, out, ValidationConfig())
        assert cpus_free(), ray.available_resources()
        refresh_similarity(out, prof)
        assert cpus_free(), ray.available_resources()
    finally:
        gc.enable()


def test_cli_gen_and_validate(tmp_path):
    d, o = str(tmp_path / "cli_data"), str(tmp_path / "cli_out")
    env = dict(os.environ, RAY_ADDRESS="local")
    r = subprocess.run(
        [sys.executable, "-m", "teleharvest_ray", "gen", "--out", d, "--rows", "3000", "--files", "4"],
        capture_output=True, text=True, cwd="/root/repo", env=env,
    )
    assert r.returncode == 0, r.stderr[-800:]
    m = json.loads(r.stdout.strip().splitlines()[-1])
    assert m["n_rows"] > 2000
    r2 = subprocess.run(
        [sys.executable, "-m", "teleharvest_ray", "validate", "--data", d, "--out", o],
        capture_output=True, text=True, cwd="/root/repo", env=env, timeout=300,
    )
    assert r2.returncode == 0, r2.stderr[-800:]
    s = json.loads(r2.stdout.strip().splitlines()[-1])
    assert s["rows_scanned"] == m["n_rows"]
    assert os.path.exists(os.path.join(o, "checkpoints", "_global.json"))


def test_refresh_metrics_after_incremental_append(ray_session, tmp_path):
    """Composition: append rows with missing metrics to a validated
    partition, resume incrementally, then run the bounded-window metrics
    refresh — the refreshed violations must flag the appended rows."""
    import pyarrow as pa

    from teleharvest_ray.config import ValidationConfig
    from teleharvest_ray.pipelines.refresh import refresh_metrics
    from teleharvest_ray.pipelines.validate import read_violations, run_validation
    from teleharvest_ray.sources.datagen import GenSpec, generate

    d = str(tmp_path / "rmdata")
    generate(d, GenSpec(n_convs=40, n_files=2, seed=51))
    out = str(tmp_path / "rmout")
    run_validation(d, out, ValidationConfig())
    p = os.path.join(d, "part-00000.parquet")
    old = pq.read_table(p)
    ap = pd.DataFrame(
        {
            "conv_id": ["conv-rm-1"] * 2,
            "turn_idx": pd.array([0, 1], dtype="int32"),
            "role": ["user", "assistant"],
            "text": ["ok " * 100] * 2,
            "tool": [None, None],
            "ts": pd.to_datetime(["2024-02-01T00:00:00"] * 2),
            "views": [0, 1000],  # turn 0 has zero views -> metrics_missing
            "reactions": [0, 100],
            "forwards": [0, 1],
        }
    )
    pq.write_table(pa.concat_tables([old, pa.Table.from_pandas(ap, schema=old.schema, preserve_index=False)]), p)
    s = run_validation(d, out, ValidationConfig())
    assert s["n_validated_now"] == 1
    refresh_metrics(d, out, ValidationConfig(), window=1000)
    got = read_violations(out)
    k = set(map(tuple, got[["conv_id", "turn_idx", "check_id"]].drop_duplicates().itertuples(index=False)))
    assert ("conv-rm-1", 0, "metrics_missing") in k
    assert ("conv-rm-1", 1, "metrics_missing") not in k


def test_refresh_metrics_keeps_a_duplicated_keys_rows(ray_session, tmp_path):
    """A partition holds a duplicated key whose two copies are too short and
    have no views: validation writes one text_too_short and one
    metrics_missing row per copy, and a metrics refresh over the unchanged
    data leaves every violation row, counted with its multiplicity, as it
    was."""
    from collections import Counter

    d = str(tmp_path / "dupdata")
    generate(d, GenSpec(n_convs=40, n_files=2, seed=52))
    p = os.path.join(d, "part-00000.parquet")
    old = pq.read_table(p)
    row = dict(old.slice(0, 1).to_pylist()[0], conv_id="conv-dup-1", turn_idx=0, text="too short")
    row.update(views=None, reactions=None)
    pq.write_table(pa.concat_tables([old, pa.Table.from_pylist([row, row], schema=old.schema)]), p)
    out = str(tmp_path / "dupout")
    run_validation(d, out, ValidationConfig())

    def rows() -> Counter:
        files = sorted(glob.glob(os.path.join(out, "violations", "*.parquet")))
        return Counter(tuple(r.values()) for f in files for r in pq.read_table(f).to_pylist())

    before = rows()
    assert before[("conv-dup-1", 0, "text_too_short", None)] == 2
    assert before[("conv-dup-1", 0, "metrics_missing", None)] == 2
    refresh_metrics(d, out, ValidationConfig())
    assert rows() == before


def test_cli_query_list_and_run():
    r = subprocess.run(
        [sys.executable, "-m", "teleharvest_ray", "query", "list"],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert r.returncode == 0
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    assert len(lines) >= 100
    assert any(l.startswith("q_pricing_summary\toracle") for l in lines)

    r2 = subprocess.run(
        [sys.executable, "-m", "teleharvest_ray", "query", "q_mad_by_lang",
         "--sf", "/root/testdata/sf0.001"],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert r2.returncode == 0, r2.stderr[-500:]
    assert "lang" in r2.stdout and "[5 rows]" in r2.stderr

    r3 = subprocess.run(
        [sys.executable, "-m", "teleharvest_ray", "query", "nope"],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert r3.returncode == 2


def test_refresh_metrics_keeps_a_null_turns_row(ray_session, tmp_path):
    """A row whose ``turn_idx`` and views are null has the metrics_missing
    row ``chain_violations`` writes for it, at turn -1, and a metrics
    refresh keeps it: the null turn is the -1 of that row, inside the
    window like the row it replaces."""
    from collections import Counter

    from teleharvest_ray.pipelines.refresh import MetricsRefresher

    d, out = str(tmp_path / "data"), str(tmp_path / "out")
    os.makedirs(d)
    generate(str(tmp_path / "src"), GenSpec(n_convs=8, n_files=2, seed=53, plant=False))
    row = pq.read_table(str(tmp_path / "src" / "part-00000.parquet")).slice(0, 1).to_pylist()[0]
    rows = [dict(row, conv_id="c1", turn_idx=t) for t in (0, 1, None)]
    rows[2].update(views=None)
    schema = pq.read_schema(str(tmp_path / "src" / "part-00000.parquet"))
    pq.write_table(pa.Table.from_pylist(rows, schema=schema), os.path.join(d, "part-00000.parquet"))
    run_validation(d, out, ValidationConfig())

    def rows_of(check):
        t = pq.read_table(os.path.join(out, "violations", "part-00000.parquet"))
        return Counter((r["conv_id"], r["turn_idx"]) for r in t.to_pylist() if r["check_id"] == check)

    assert rows_of("metrics_missing") == Counter({("c1", -1): 1})
    res = MetricsRefresher(ValidationConfig(), d, out, 1000)._one("part-00000")
    assert res["metrics_violations"] == 1
    assert rows_of("metrics_missing") == Counter({("c1", -1): 1})


def test_refreshes_over_segments_equal_refreshes_over_a_fold(ray_session, tmp_path):
    """A partition grown twice, resumed with segments and with every delta
    folded (``_MAX_SEGMENTS = 1``): ``refresh_similarity`` against a new
    profile gives the same annotated tables, and ``refresh_metrics`` after
    late metrics arrive, in the prefix and in the deltas, gives the same
    violation rows."""
    from collections import Counter
    from unittest import mock

    from teleharvest_ray.pipelines import validate
    from teleharvest_ray.pipelines.validate import read_annotated

    d = str(tmp_path / "data")
    generate(d, GenSpec(n_convs=60, n_files=2, seed=57))
    p = os.path.join(d, "part-00001.parquet")
    full = pq.read_table(p)
    cuts = [full.num_rows // 2, full.num_rows * 3 // 4, full.num_rows]
    pq.write_table(full.slice(0, cuts[0]), p)
    outs = {n: str(tmp_path / f"out{n}") for n in (validate._MAX_SEGMENTS, 1)}
    for cut in cuts:
        pq.write_table(full.slice(0, cut), p)
        for n, out in outs.items():
            with mock.patch.object(validate, "_MAX_SEGMENTS", n):
                run_validation(d, out, ValidationConfig())
    assert len(glob.glob(os.path.join(outs[validate._MAX_SEGMENTS], "annotated", "part-00001*"))) == 3

    prof = build_profile(pq.read_table(os.path.join(d, "part-00001.parquet"), columns=["text", "role", "tool"]))
    for out in outs.values():
        assert refresh_similarity(out, prof)["rows_refreshed"] > 0
    for pid in ("part-00000", "part-00001"):
        seg, fold = (read_annotated(out, pid) for out in outs.values())
        assert seg.equals(fold)

    # late data: a row in the prefix and one in each delta lose their
    # reactions
    late = full.to_pandas()
    for i in (cuts[0] - 3, cuts[0] + 3, cuts[1] + 3):
        late.loc[i, "reactions"] = pd.NA
    pq.write_table(pa.Table.from_pandas(late, preserve_index=False).cast(full.schema), p)

    def rows(out):
        files = sorted(glob.glob(os.path.join(out, "violations", "*.parquet")))
        return Counter(tuple(r.values()) for f in files for r in pq.read_table(f).to_pylist())

    before = rows(outs[1])
    for out in outs.values():
        refresh_metrics(d, out, ValidationConfig(), window=10_000)
    assert rows(outs[validate._MAX_SEGMENTS]) == rows(outs[1]) != before


def test_refresh_metrics_before_a_growing_resume(ray_session, tmp_path):
    """A metrics refresh between a growth of the input and its resume
    refreshes only the validated rows: the appended row that misses its
    metrics is left to the resume's new segment, so every violation row,
    counted with its multiplicity, equals a from-scratch run's."""
    from collections import Counter

    d = str(tmp_path / "data")
    generate(d, GenSpec(n_convs=40, n_files=2, seed=54))
    out = str(tmp_path / "out")
    run_validation(d, out, ValidationConfig())
    # not the first file, which the reference profile is built from
    p = os.path.join(d, "part-00001.parquet")
    old = pq.read_table(p)
    row = dict(old.slice(0, 1).to_pylist()[0], conv_id="conv-late-1", turn_idx=0, views=None, reactions=None)
    pq.write_table(pa.concat_tables([old, pa.Table.from_pylist([row], schema=old.schema)]), p)
    refresh_metrics(d, out, ValidationConfig())
    assert run_validation(d, out, ValidationConfig())["n_validated_now"] == 1
    ctl = str(tmp_path / "ctl")
    run_validation(d, ctl, ValidationConfig())

    def rows(o):
        files = sorted(glob.glob(os.path.join(o, "violations", "*.parquet")))
        return Counter(tuple(r.values()) for f in files for r in pq.read_table(f).to_pylist())

    assert rows(out)[("conv-late-1", 0, "metrics_missing", None)] == 1
    assert rows(out) == rows(ctl)

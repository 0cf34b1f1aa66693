"""Robustness: core-six-column-only inputs, empty partitions, big-file
row-group streaming."""

from __future__ import annotations

import glob
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from teleharvest_ray.config import ValidationConfig
from teleharvest_ray.pipelines.validate import read_violations, run_validation
from teleharvest_ray.schema import TRANSCRIPT_SCHEMA
from teleharvest_ray.sources.datagen import GenSpec, generate


def test_core_six_columns_only(ray_session, tmp_path):
    """input_hint schema has exactly six columns; the engine must degrade
    gracefully (no ER / metrics checks) without the metric columns."""
    d, o = str(tmp_path / "core6"), str(tmp_path / "core6_out")
    generate(d, GenSpec(n_convs=60, n_files=3, seed=13))
    core = [f.name for f in TRANSCRIPT_SCHEMA]
    for f in glob.glob(d + "/part-*.parquet"):
        pq.write_table(pq.read_table(f, columns=core), f)
    s = run_validation(d, o, ValidationConfig())
    vio = read_violations(o)
    # metric-dependent checks silently skip; text/key checks still fire
    assert not set(vio.check_id) & {"low_engagement", "metrics_missing"}
    assert {"text_missing", "text_too_short", "dup_key", "seq_gap"} <= set(vio.check_id)
    assert s["rows_scanned"] > 0


def test_empty_partition(ray_session, tmp_path):
    d, o = str(tmp_path / "withempty"), str(tmp_path / "withempty_out")
    generate(d, GenSpec(n_convs=40, n_files=2, seed=17, drift_files=0, plant=False))
    # add an empty partition file with the full schema
    first = pq.read_table(sorted(glob.glob(d + "/part-*.parquet"))[0])
    pq.write_table(first.slice(0, 0), os.path.join(d, "part-00099.parquet"))
    s = run_validation(d, o, ValidationConfig())
    vio = read_violations(o)
    # empty partition: no violations (in particular no spurious drift), passes
    assert len(vio) == 0
    assert "part-00099" not in s["partitions_failed"]
    rec = [p for p in s["partitions_failed"]]
    assert s["rows_scanned"] == first.num_rows + pq.read_table(sorted(glob.glob(d + "/part-*.parquet"))[1]).num_rows


def test_multi_row_group_file(ray_session, tmp_path):
    """A partition written as many small row groups streams group-wise and
    produces the same stats/violations as single-group processing."""
    d, o = str(tmp_path / "rg"), str(tmp_path / "rg_out")
    generate(d, GenSpec(n_convs=50, n_files=1, seed=19, drift_files=0, plant=False))
    f = sorted(glob.glob(d + "/part-*.parquet"))[0]
    tbl = pq.read_table(f)
    pq.write_table(tbl, f, row_group_size=97)  # force ~10 row groups
    assert pq.ParquetFile(f).num_row_groups > 5
    s = run_validation(d, o, ValidationConfig())
    assert s["rows_scanned"] == tbl.num_rows
    ann = pq.read_table(os.path.join(o, "annotated", "part-00000.parquet"))
    assert ann.num_rows == tbl.num_rows
    # clean data → all rows pass except batch-boundary ER effects (none: clean)
    assert len(read_violations(o)) == 0


def test_er_exemption_is_file_local_across_row_groups(ray_session, tmp_path):
    """A low-ER interior row that is the last row of its ROW GROUP but not of
    the file must still be flagged (the exemption is file-scoped)."""
    d, o = str(tmp_path / "rg_er"), str(tmp_path / "rg_er_out")
    os.makedirs(d)
    base = " ".join(f"tok{i}" for i in range(50))
    n = 6
    tbl = pa.table(
        {
            "conv_id": pa.array(["c1"] * n, pa.string()),
            "turn_idx": pa.array(list(range(n)), pa.int32()),
            "role": pa.array(["user"] * n),
            "text": pa.array([base] * n),
            "tool": pa.array([None] * n, pa.string()),
            "ts": pa.array(list(range(n)), pa.timestamp("us")),
            "views": pa.array([5000] * n, pa.int64()),
            "reactions": pa.array([1] * n, pa.int64()),
            "forwards": pa.array([0] * n, pa.int64()),
        }
    )
    # row groups of 3: row 2 (turn_idx=2) is last-of-group but interior in file
    pq.write_table(tbl, os.path.join(d, "part-00000.parquet"), row_group_size=3)
    assert pq.ParquetFile(os.path.join(d, "part-00000.parquet")).num_row_groups == 2
    cfg = ValidationConfig(drift_chi2_threshold=1e9, drift_ks_threshold=1e9,
                           drift_quantile_rel_threshold=1e9)
    run_validation(d, o, cfg)
    vio = read_violations(o)
    low_er = vio[vio.check_id == "low_engagement"]
    # rows 0..4 flagged (all low ER at volume), row 5 (file-local last) exempt
    assert set(low_er.turn_idx) == {0, 1, 2, 3, 4}


def test_poison_partition_isolated_and_retried(ray_session, tmp_path):
    """on_error='skip': a corrupt partition is reported, everything else
    validates; fixing the file and re-running recovers the full manifest."""
    d, o = str(tmp_path / "poison"), str(tmp_path / "poison_out")
    generate(d, GenSpec(n_convs=60, n_files=4, seed=23, hot_conv=True))
    files = sorted(glob.glob(d + "/part-*.parquet"))
    victim = files[1]
    original = open(victim, "rb").read()
    with open(victim, "wb") as fh:
        fh.write(b"not a parquet file at all")

    # fail-fast default still raises
    with pytest.raises(Exception):
        run_validation(d, str(tmp_path / "raise_out"), ValidationConfig())

    s1 = run_validation(d, o, ValidationConfig(), on_error="skip")
    assert list(s1["partitions_error"]) == ["part-00001"]
    assert s1["n_partitions"] == 4 and s1["rows_scanned"] > 0
    # no checkpoint record for the poisoned partition -> retried on resume
    from teleharvest_ray.state.checkpoint import CheckpointStore

    assert "part-00001" not in CheckpointStore(os.path.join(o, "checkpoints")).completed()

    # fix the file; resume validates ONLY it and recovers the exact manifest
    with open(victim, "wb") as fh:
        fh.write(original)
    s2 = run_validation(d, o, ValidationConfig(), on_error="skip")
    assert s2["partitions_error"] == {}
    assert s2["n_validated_now"] == 1 and s2["n_resumed"] == 3
    got = read_violations(o)[["conv_id", "turn_idx", "check_id"]].drop_duplicates()
    exp = pq.read_table(os.path.join(d, "expected_violations.parquet")).to_pandas()[
        ["conv_id", "turn_idx", "check_id"]
    ].drop_duplicates()
    assert set(map(tuple, got.to_numpy())) == set(map(tuple, exp.to_numpy()))


def test_poison_first_partition_profile_fallback(ray_session, tmp_path):
    """on_error='skip' must survive a corrupt FIRST file too: the reference
    profile falls through to the next readable partition, and the global
    keyspace checks are skipped (not computed over a partial corpus)."""
    d, o = str(tmp_path / "p0"), str(tmp_path / "p0_out")
    generate(d, GenSpec(n_convs=40, n_files=3, seed=29, hot_conv=True))
    files = sorted(glob.glob(d + "/part-*.parquet"))
    original = open(files[0], "rb").read()
    with open(files[0], "wb") as fh:
        fh.write(b"garbage")
    s = run_validation(d, o, ValidationConfig(), on_error="skip")
    assert list(s["partitions_error"]) == ["part-00000"]
    assert s["global_checks_skipped"] is True
    assert s["violations_global"] == 0  # never computed over a partial corpus
    assert s["n_validated_now"] == 2
    # fix + rerun: full manifest recovered, global checks recomputed
    with open(files[0], "wb") as fh:
        fh.write(original)
    s2 = run_validation(d, o, ValidationConfig(), on_error="skip")
    assert s2["partitions_error"] == {} and s2["global_checks_skipped"] is False
    got = read_violations(o)[["conv_id", "turn_idx", "check_id"]].drop_duplicates()
    exp = pq.read_table(os.path.join(d, "expected_violations.parquet")).to_pandas()[
        ["conv_id", "turn_idx", "check_id"]
    ].drop_duplicates()
    assert set(map(tuple, got.to_numpy())) == set(map(tuple, exp.to_numpy()))


ONE_CPU_RUN = """
import json, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from teleharvest_ray.config import ValidationConfig
from teleharvest_ray.pipelines.validate import run_validation
cfg = ValidationConfig(validator_num_cpus=2.0)  # more than the session has
print(json.dumps(run_validation(sys.argv[1], sys.argv[2], cfg), default=str))
"""


def test_one_cpu_session_completes(tmp_path):
    """A session smaller than validator_num_cpus still validates: the actor's
    CPU request is clamped to the session, and phase 2's tasks get the CPU
    back once phase 1 is done (either fault hangs the run for good)."""
    import json
    import signal
    import subprocess
    import sys

    d = str(tmp_path / "data")
    generate(d, GenSpec(n_convs=40, n_files=2, seed=7))
    proc = subprocess.Popen(
        [sys.executable, "-c", ONE_CPU_RUN, d, str(tmp_path / "out")],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("validation in a 1-CPU session did not finish within 240 s")
    assert proc.returncode == 0, err[-800:]
    s = json.loads(out.strip().splitlines()[-1])
    assert s["n_validated_now"] == 2 and not s["global_checks_skipped"]

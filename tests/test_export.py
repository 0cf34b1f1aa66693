"""Quarantine/clean export sink: exactness (the split reproduces the
violation set row-for-row) and resumability (finished partitions are
skipped)."""

from __future__ import annotations

import glob
import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from teleharvest_ray.config import ValidationConfig
from teleharvest_ray.pipelines.export import export_quarantine, violation_keyset
from teleharvest_ray.pipelines.validate import run_validation
from teleharvest_ray.sources.datagen import GenSpec, generate


@pytest.fixture(scope="module")
def validated(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("export")
    data = str(root / "data")
    out = str(root / "out")
    generate(data, GenSpec(n_convs=80, n_files=4, seed=11, hot_conv=True))
    run_validation(data, out, ValidationConfig())
    return root, data, out


def _read_dir(d: str) -> pd.DataFrame:
    return pd.concat(
        [pq.read_table(f).to_pandas() for f in sorted(glob.glob(os.path.join(d, "part-*.parquet")))],
        ignore_index=True,
    )


def test_export_split_is_exact(validated):
    root, data, out = validated
    exp_dir = str(root / "export1")
    res = export_quarantine(data, out, exp_dir)
    clean = _read_dir(os.path.join(exp_dir, "clean"))
    quar = _read_dir(os.path.join(exp_dir, "quarantine"))
    total = _read_dir(data)
    # complete and disjoint
    assert len(clean) + len(quar) == len(total) == res["rows"]
    assert res["quarantined"] == len(quar)
    # quarantined == exactly the data rows whose key is a row-level violation
    _, bad_df = violation_keyset(out)
    bad = set(map(tuple, bad_df[["conv_id", "turn_idx"]].to_numpy()))
    quar_keys = set(map(tuple, quar[["conv_id", "turn_idx"]].to_numpy()))
    data_keys = set(map(tuple, total[["conv_id", "turn_idx"]].to_numpy()))
    assert quar_keys == (bad & data_keys)
    clean_keys = set(map(tuple, clean[["conv_id", "turn_idx"]].to_numpy()))
    assert not (clean_keys & bad)


def test_export_resume_skips_finished(validated):
    root, data, out = validated
    exp_dir = str(root / "export2")
    first = export_quarantine(data, out, exp_dir)
    assert first["n_skipped"] == 0
    # remove ONE partition's outputs; only that partition should rerun
    victims = sorted(glob.glob(os.path.join(exp_dir, "clean", "*.parquet")))
    pid = os.path.basename(victims[0])
    os.remove(victims[0])
    keep = os.path.join(exp_dir, "quarantine", pid)
    mtimes = {
        f: os.path.getmtime(f)
        for f in glob.glob(os.path.join(exp_dir, "*", "*.parquet"))
        if os.path.basename(f) != pid
    }
    second = export_quarantine(data, out, exp_dir)
    assert second["n_skipped"] == first["n_partitions"] - 1
    assert os.path.exists(victims[0]) and os.path.exists(keep)
    for f, m in mtimes.items():
        assert os.path.getmtime(f) == m, f"{f} was rewritten"


def test_export_no_violations_everything_clean(ray_session, tmp_path):
    data = str(tmp_path / "data")
    out = str(tmp_path / "out")
    generate(data, GenSpec(n_convs=20, n_files=2, seed=5, plant=False))
    run_validation(data, out, ValidationConfig())
    res = export_quarantine(data, out, str(tmp_path / "exp"))
    clean = _read_dir(str(tmp_path / "exp" / "clean"))
    assert res["rows"] == len(clean)


def test_export_invalidated_by_new_violations(validated, tmp_path):
    """A changed violation set must invalidate prior exports: otherwise a
    re-validated corpus leaves newly-flagged rows in clean/."""
    root, data, out = validated
    exp_dir = str(tmp_path / "stale")
    export_quarantine(data, out, exp_dir)
    # simulate a re-validation that flags one MORE row: append a violation
    # for a currently-clean row to a partition's violation file
    clean = _read_dir(os.path.join(exp_dir, "clean"))
    victim = clean.iloc[0]
    vf = os.path.join(out, "violations", "part-00000.parquet")
    import pyarrow as pa

    extra = pd.DataFrame(
        [{"conv_id": victim.conv_id, "turn_idx": victim.turn_idx,
          "check_id": "stop_word", "detail": "injected"}]
    )
    old = pq.read_table(vf).to_pandas()
    merged = pd.concat([old, extra.astype(old.dtypes.to_dict())], ignore_index=True)
    pq.write_table(pa.Table.from_pandas(merged, preserve_index=False), vf)

    res = export_quarantine(data, out, exp_dir)
    assert res["n_skipped"] == 0  # digest mismatch invalidated every output
    quar2 = _read_dir(os.path.join(exp_dir, "quarantine"))
    assert (victim.conv_id, victim.turn_idx) in set(
        map(tuple, quar2[["conv_id", "turn_idx"]].to_numpy())
    )
    clean2 = _read_dir(os.path.join(exp_dir, "clean"))
    assert len(clean2) == len(clean) - 1

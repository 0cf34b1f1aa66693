"""The annotated output: each file stores the row key and the chain's own
columns, one row per input row, and ``read_annotated`` rebuilds the table
``evaluate_chain`` returned from that file and the partition's input."""

from __future__ import annotations

import glob
import os
import shutil
import sys
import types
from collections import Counter
from unittest import mock

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from teleharvest_ray.config import ValidationConfig
from teleharvest_ray.pipelines import validate
from teleharvest_ray.pipelines.validate import (
    PartitionValidator,
    _annotated_columns,
    read_annotated,
    read_violations,
    run_validation,
)
from teleharvest_ray.sources.datagen import GenSpec, generate
from teleharvest_ray.stages.row_checks import build_conv_last, evaluate_chain
from teleharvest_ray.state.checkpoint import CheckpointStore
from teleharvest_ray.state.profile import build_profile

GROWN = "part-00002"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("ann_corpus"))
    generate(d, GenSpec(n_convs=150, n_files=3, seed=5, hot_conv=True))
    return d


def _copy(corpus: str, dst: str) -> str:
    shutil.copytree(corpus, dst)
    return dst


def _chain(data_dir: str, pid: str, cfg: ValidationConfig, start: int = 0, stop: int | None = None) -> pa.Table:
    """``evaluate_chain`` over rows ``[start, stop)`` of a partition as phase
    1 runs it on a scan of those rows: row group by row group (the
    similarity matmul's rounding depends on the batch), the last-turn
    exemption scoped to the rows, the profile built from the corpus's first
    partition."""
    files = sorted(glob.glob(os.path.join(data_dir, "part-*.parquet")))
    profile = build_profile(pq.read_table(files[0], columns=["text", "role", "tool"]), cfg)
    pf = pq.ParquetFile(os.path.join(data_dir, f"{pid}.parquet"))
    stop = pf.metadata.num_rows if stop is None else stop
    groups, lo = [], 0
    for rg in range(pf.num_row_groups):
        g = pf.read_row_group(rg)
        a, b = max(start, lo), min(stop, lo + g.num_rows)
        if a < b:
            groups.append(g.slice(a - lo, b - a))
        lo += g.num_rows
    conv_last = build_conv_last(pa.concat_tables(groups).select(["conv_id", "turn_idx"]))
    return pa.concat_tables([evaluate_chain(g, cfg, profile.exemplars, conv_last=conv_last) for g in groups])


def _truncate_at_conv_boundary(path: str, frac: float) -> tuple[pa.Table, int]:
    """Keep the first rows of a partition up to a conversation boundary near
    ``frac`` of it, so the later growth appends whole conversations; returns
    the full table and the kept row count."""
    full = pq.read_table(path)
    conv = full["conv_id"].to_pylist()
    k = int(full.num_rows * frac)
    while conv[k] == conv[k - 1]:
        k += 1
    pq.write_table(full.slice(0, k), path)
    return full, k


def _vio_set(df) -> set:
    return set(map(tuple, df[["conv_id", "turn_idx", "check_id"]].drop_duplicates().itertuples(index=False)))


def _vio_rows(out: str) -> Counter:
    """Every violation row of a run, with its multiplicity."""
    files = sorted(glob.glob(os.path.join(out, "violations", "*.parquet")))
    return Counter(tuple(r.values()) for f in files for r in pq.read_table(f).to_pylist())


def test_read_annotated_equals_the_chain_output(ray_session, corpus, tmp_path):
    """On a dirty corpus, one partition in many row groups and one grown by a
    delta, every file is narrow and ``read_annotated`` is ``Table.equals``
    the chain's wide output."""
    cfg = ValidationConfig()
    d = _copy(corpus, str(tmp_path / "data"))
    multi = os.path.join(d, "part-00001.parquet")
    pq.write_table(pq.read_table(multi), multi, row_group_size=97)
    assert pq.ParquetFile(multi).num_row_groups > 5
    grown = os.path.join(d, f"{GROWN}.parquet")
    full, k = _truncate_at_conv_boundary(grown, 0.6)
    out = str(tmp_path / "out")
    run_validation(d, out, cfg)

    seen = set()
    for pid in ("part-00000", "part-00001", GROWN):
        stored = pq.read_table(os.path.join(out, "annotated", f"{pid}.parquet"))
        assert stored.column_names == _annotated_columns(cfg)
        assert not {"text", "text_norm", "alt"} & set(stored.column_names)
        got = read_annotated(out, pid)
        assert got.equals(_chain(d, pid, cfg))
        seen |= set(got["first_failing_check"].to_pylist())
        assert got["alt"].null_count < got.num_rows
    assert {"text_missing", "conv_id_missing", "text_too_short", "stop_word"} <= seen

    pq.write_table(full, grown)
    s = run_validation(d, out, cfg)
    assert s["n_validated_now"] == 1
    want = pa.concat_tables([_chain(d, GROWN, cfg, 0, k), _chain(d, GROWN, cfg, k)])
    assert read_annotated(out, GROWN).equals(want)


def test_non_builtin_alt_is_stored(ray_session, corpus, tmp_path, monkeypatch):
    """A scorer's rewrite that the input cannot reproduce (here, uppercase)
    is stored in the annotated file, and ``read_annotated`` returns it."""
    from teleharvest_ray.functions import scoring

    class Upper:
        def score(self, texts):
            return np.full(len(texts), 100.0)

        def rewrite(self, texts):
            return pc.utf8_upper(texts)

        def score_alt(self, texts):
            return np.full(len(texts), 99.0)

    mod = types.ModuleType("upper_scorer_mod")
    mod.make = Upper
    monkeypatch.setitem(sys.modules, "upper_scorer_mod", mod)
    scoring.get_scorer.cache_clear()
    try:
        cfg = ValidationConfig(scorer="upper_scorer_mod:make")
        pid, out = "part-00001", str(tmp_path / "out")
        path = os.path.join(corpus, f"{pid}.parquet")
        profile = build_profile(pq.read_table(os.path.join(corpus, "part-00000.parquet"), columns=["text", "role", "tool"]), cfg)
        # the validator in-process: the test scorer exists in this process only
        v = PartitionValidator(cfg, ray.put(profile), out)
        CheckpointStore(os.path.join(out, "checkpoints")).write(pid, v._one(path, pid))
        stored = pq.read_table(os.path.join(out, "annotated", f"{pid}.parquet"))
        assert stored.column_names == _annotated_columns(cfg)
        assert "alt" in stored.column_names and "text_norm" not in stored.column_names
        got = read_annotated(out, pid)
        assert got.equals(_chain(corpus, pid, cfg))
        alt = got["alt"].drop_null()
        assert len(alt) and alt.equals(pc.utf8_upper(alt))
    finally:
        scoring.get_scorer.cache_clear()


def test_wide_first_segment_narrows_on_its_fold(ray_session, corpus, tmp_path):
    """An annotated file in the earlier wide layout (input, text_norm and alt
    stored), then two growths. The delta leaves the wide first segment as it
    is and writes a narrow one, and ``read_annotated`` reads both. The fold
    (``_MAX_SEGMENTS = 1``) rewrites the partition as one narrow file whose
    prefix rows are unchanged, and the violations equal a from-scratch
    run's."""
    cfg = ValidationConfig()
    d = _copy(corpus, str(tmp_path / "data"))
    grown = os.path.join(d, f"{GROWN}.parquet")
    full, k = _truncate_at_conv_boundary(grown, 0.5)
    out = str(tmp_path / "out")
    run_validation(d, out, cfg)
    ann_path = os.path.join(out, "annotated", f"{GROWN}.parquet")
    wide = read_annotated(out, GROWN)
    pq.write_table(wide, ann_path)
    assert read_annotated(out, GROWN).equals(wide)

    k2 = int(full.num_rows * 0.75)
    pq.write_table(full.slice(0, k2), grown)
    assert run_validation(d, out, cfg)["n_validated_now"] == 1
    assert pq.read_table(ann_path).equals(wide)
    delta = pq.read_table(os.path.join(out, "annotated", f"{GROWN}+{k}.parquet"))
    assert delta.column_names == _annotated_columns(cfg) and delta.num_rows == k2 - k
    assert read_annotated(out, GROWN).equals(pa.concat_tables([wide, _chain(d, GROWN, cfg, k, k2)]))

    pq.write_table(full, grown)
    with mock.patch.object(validate, "_MAX_SEGMENTS", 1):
        s = run_validation(d, out, cfg)
    assert s["n_validated_now"] == 1
    assert not glob.glob(os.path.join(out, "annotated", f"{GROWN}+*"))
    narrow = pq.read_table(ann_path)
    assert narrow.column_names == _annotated_columns(cfg)
    assert narrow.num_rows == full.num_rows
    assert narrow.slice(0, k).equals(wide.select(narrow.column_names))
    ctl = str(tmp_path / "ctl")
    run_validation(d, ctl, cfg)
    assert _vio_set(read_violations(out)) == _vio_set(read_violations(ctl))


def test_delta_rescan_after_a_kill_keeps_one_row_per_input_row(ray_session, corpus, tmp_path):
    """A scan killed after it wrote a delta's outputs but before its
    checkpoint record: the resume scans the delta again, the annotated file
    still holds one row per input row, and the violation rows, counted with
    their multiplicity, are those of a resume that was not killed."""
    cfg = ValidationConfig()
    pid = "part-00001"  # its delta holds planted row-level violations
    d = _copy(corpus, str(tmp_path / "data"))
    grown = os.path.join(d, f"{pid}.parquet")
    full, k = _truncate_at_conv_boundary(grown, 0.5)
    out = str(tmp_path / "out")
    run_validation(d, out, cfg)
    before = str(tmp_path / "before")
    shutil.copytree(out, before)
    pq.write_table(full, grown)
    run_validation(d, out, cfg)
    unkilled = _vio_rows(out)
    assert sum(unkilled.values()) > sum(_vio_rows(before).values())
    # the kill: the delta's outputs are written, its record and sidecars not
    for sub in ("checkpoints", "keyspace"):
        shutil.rmtree(os.path.join(out, sub))
        shutil.copytree(os.path.join(before, sub), os.path.join(out, sub))
    s = run_validation(d, out, cfg)
    assert s["n_validated_now"] == 1
    segs = [os.path.join(out, "annotated", f"{name}.parquet") for name in (pid, f"{pid}+{k}")]
    assert [pq.ParquetFile(f).metadata.num_rows for f in segs] == [k, full.num_rows - k]
    want = pa.concat_tables([_chain(d, pid, cfg, 0, k), _chain(d, pid, cfg, k)])
    assert read_annotated(out, pid).equals(want)
    assert _vio_rows(out) == unkilled


def test_read_annotated_raises_on_a_replaced_input(ray_session, corpus, tmp_path):
    """The stored keys no longer match the input's first rows: the input was
    replaced after validation, and nothing is rebuilt from it."""
    d = _copy(corpus, str(tmp_path / "data"))
    out = str(tmp_path / "out")
    run_validation(d, out, ValidationConfig())
    shutil.copyfile(os.path.join(d, "part-00000.parquet"), os.path.join(d, "part-00001.parquet"))
    with pytest.raises(ValueError, match="replaced"):
        read_annotated(out, "part-00001")

"""Key-space checks (dup/seq/orphan) against the planted manifest."""

from __future__ import annotations

import os

import pyarrow.parquet as pq
import pytest

import ray.data as rd

from teleharvest_ray.config import ValidationConfig
from teleharvest_ray.sources.datagen import GenSpec, generate
from teleharvest_ray.stages.keyspace import keyspace_from_states

KS_IDS = {"dup_key", "seq_gap", "orphan_conv"}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("ks_data")
    generate(str(d), GenSpec(n_convs=150, n_files=6, seed=23, hot_conv=True))
    return str(d)


def test_keyspace_matches_manifest(ray_session, keyspace_sidecars, dataset, tmp_path):
    import glob

    files = sorted(glob.glob(dataset + "/part-*.parquet"))
    idx = pq.read_table(dataset + "/conversations.parquet")["conv_id"].to_pylist()
    parts, summ = keyspace_sidecars(files, str(tmp_path))
    vio = keyspace_from_states(parts, summ, idx, ValidationConfig()).to_pandas()

    exp = pq.read_table(dataset + "/expected_violations.parquet").to_pandas()
    exp = exp[exp.check_id.isin(KS_IDS)]
    got_set = set(map(tuple, vio[["conv_id", "turn_idx", "check_id"]].drop_duplicates().itertuples(index=False)))
    exp_set = set(map(tuple, exp.itertuples(index=False)))
    assert exp_set - got_set == set(), f"missed: {sorted(exp_set - got_set)[:5]}"
    assert got_set - exp_set == set(), f"spurious: {sorted(got_set - exp_set)[:5]}"
    # dup detail carries the multiplicity
    dups = vio[vio.check_id == "dup_key"]
    assert dups.detail.str.startswith("count=").all()


def test_dup_across_batches_cannot_mask_gap(ray_session, keyspace_sidecars, tmp_path):
    """Regression: turns {0,1,3} plus a cross-file duplicate of turn 1 make
    the summed per-partition distinct count equal max+1 — the gap at 2 must
    STILL be found (verified-dup conversations get their own exact sequence
    check)."""
    import pyarrow as pa

    d = tmp_path / "mask"
    d.mkdir()

    def write(name, rows):
        conv, turn = zip(*rows)
        pq.write_table(
            pa.table({"conv_id": pa.array(conv, pa.string()), "turn_idx": pa.array(turn, pa.int32())}),
            str(d / name),
        )

    write("part-00000.parquet", [("cA", 0), ("cA", 1), ("cA", 3), ("cB", 0), ("cB", 1)])
    write("part-00001.parquet", [("cA", 1), ("cC", 0)])  # cross-file dup of (cA,1)
    parts, summ = keyspace_sidecars([str(d / "part-00000.parquet"), str(d / "part-00001.parquet")], str(tmp_path))
    vio = keyspace_from_states(parts, summ, ["cA", "cB", "cC"], ValidationConfig()).to_pandas()
    got = set(map(tuple, vio[["conv_id", "turn_idx", "check_id"]].itertuples(index=False)))
    assert ("cA", 1, "dup_key") in got
    assert ("cA", 2, "seq_gap") in got  # the masked gap
    assert not any(v[0] in ("cB", "cC") for v in got)


def test_range_partitioned_dup_merge_covers_top_range(ray_session, tmp_path):
    """Regression: the hash-range merge must include the top of uint64 space
    (a 2**64 bound cast through uint64 silently became 0)."""
    import numpy as np

    from teleharvest_ray.stages.keyspace import find_dup_hashes

    top = np.uint64((1 << 64) - 100)
    low = np.uint64(12345)
    pa_, pb = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    np.sort(np.array([low, top, np.uint64(7)], dtype=np.uint64)).tofile(pa_)
    np.sort(np.array([low, top], dtype=np.uint64)).tofile(pb)
    dups_local = find_dup_hashes([pa_, pb], n_ranges=1)
    dups_ranged = find_dup_hashes([pa_, pb], n_ranges=4)
    assert set(dups_local.tolist()) == {int(low), int(top)}
    assert set(np.sort(dups_ranged).tolist()) == {int(low), int(top)}


def test_find_dup_hashes_from_sidecar_paths(ray_session, tmp_path):
    """Sorted uint64 sidecar files must yield the exact dup set on both the
    local and the range-task path — the at-scale shape where no blob
    transits the driver — and a zero-byte blob (an empty partition) adds
    nothing."""
    import numpy as np

    from teleharvest_ray.stages.keyspace import find_dup_hashes

    rng = np.random.default_rng(3)
    a = rng.integers(0, 1 << 63, 50_000, dtype=np.uint64)
    b = rng.integers(0, 1 << 63, 50_000, dtype=np.uint64)
    b[:500] = a[:500]  # cross-partition dups
    a[10] = a[11]  # intra-partition dup
    pa_, pb, pe = str(tmp_path / "a.bin"), str(tmp_path / "b.bin"), str(tmp_path / "empty.bin")
    np.sort(a).tofile(pa_)
    np.sort(b).tofile(pb)
    open(pe, "wb").close()
    vals, counts = np.unique(np.concatenate([a, b]), return_counts=True)
    want = set(vals[counts > 1].tolist())
    got_local = set(find_dup_hashes([pa_, pe, pb], n_ranges=1).tolist())
    got_ranged = set(find_dup_hashes([pa_, pe, pb], n_ranges=8).tolist())
    assert want and got_local == want and got_ranged == want


def test_validator_writes_sidecar_blobs(ray_session, tmp_path):
    """Each validated partition leaves a sorted-hash sidecar file whose key
    count equals the partition's non-null-key row count."""
    import glob
    import os

    import numpy as np

    from teleharvest_ray.pipelines.validate import run_validation

    d = str(tmp_path / "data")
    generate(d, GenSpec(n_convs=60, n_files=3, seed=9))
    out = str(tmp_path / "out")
    run_validation(d, out, ValidationConfig(), write_annotated=False)
    blobs = sorted(glob.glob(os.path.join(out, "keyspace", "part-*.bin")))
    assert len(blobs) == 3
    for bp in blobs:
        arr = np.fromfile(bp, dtype=np.uint64)
        assert len(arr) > 0 and (np.diff(arr.astype(np.int64).view(np.uint64)) >= 0).all() or len(arr) == 0
        # sorted on disk (precondition for memmapped binary search)
        assert (arr[:-1] <= arr[1:]).all()


def test_gap_orphan_candidates_dataset_matches_dataframe(ray_session):
    """The distributed (Dataset) conv-partials path must produce the same
    gap/orphan candidate sets as the driver (DataFrame) path, for both the
    sorted-array and the forced-Bloom membership modes."""
    import numpy as np
    import pandas as pd

    from teleharvest_ray.stages.keyspace import _gap_orphan_candidates

    rng = np.random.default_rng(17)
    convs = [f"conv-{i:05d}" for i in range(300)]
    # per-partition partial rows: some convs split across 2 "partitions"
    rows = []
    for i, c in enumerate(convs):
        n = int(rng.integers(3, 9))
        # plant gaps in every 13th conv (min_t starts at 1) and split
        # every 7th conv across two partial rows
        start = 1 if i % 13 == 0 else 0
        if i % 7 == 0:
            h = n // 2
            rows.append((c, h, start, start + h - 1, h))
            rows.append((c, n - h, start + h, start + n - 1, n - h))
        else:
            rows.append((c, n, start, start + n - 1, n))
    pdf = pd.DataFrame(rows, columns=["conv_id", "n_distinct", "min_t", "max_t", "n_rows"])
    known = convs[:250]  # last 50 are orphans
    merged = pdf.groupby("conv_id", sort=False).agg(
        n_distinct=("n_distinct", "sum"), min_t=("min_t", "min"),
        max_t=("max_t", "max"), n_rows=("n_rows", "sum"),
    ).reset_index()
    for cfg in (ValidationConfig(), ValidationConfig(orphan_bloom_threshold=1)):
        g_df, o_df = _gap_orphan_candidates(merged, known, cfg)
        g_ds, o_ds = _gap_orphan_candidates(rd.from_pandas(pdf), known, cfg)
        assert set(g_df) == set(g_ds) and len(g_df) > 0
        assert set(o_df) == set(o_ds) and len(o_df) == 50


def test_lineage_records_stay_small(ray_session, tmp_path):
    """Lineage records must hold paths/digests, never blob bytes: record
    size stays a few KB regardless of partition row count (the driver holds
    n_partitions × KB, not × rows)."""
    import glob
    import os

    from teleharvest_ray.pipelines.validate import run_validation

    d = str(tmp_path / "recdata")
    generate(d, GenSpec(rows_hint=40_000, n_files=2, seed=12))
    out = str(tmp_path / "recout")
    run_validation(d, out, ValidationConfig(), write_annotated=False)
    recs = glob.glob(os.path.join(out, "checkpoints", "part-*.json"))
    assert len(recs) == 2
    assert all(os.path.getsize(r) < 50_000 for r in recs), [os.path.getsize(r) for r in recs]


def test_phase2_reads_only_candidate_partitions(ray_session, keyspace_sidecars, tmp_path):
    """Candidates are located from the sidecars before any data file is
    read: on a clean corpus every data file can be garbage and the checks
    still return nothing, and on a dirty corpus garbling a candidate-free
    file leaves the result unchanged."""
    import glob

    import numpy as np

    from teleharvest_ray.stages.keyspace import _gap_orphan_candidates, find_dup_hashes

    def corpus(name, spec):
        d = str(tmp_path / name)
        generate(d, spec)
        os.makedirs(d + "/state")
        files = sorted(glob.glob(d + "/part-*.parquet"))
        idx = pq.read_table(d + "/conversations.parquet")["conv_id"].to_pylist()
        return (*keyspace_sidecars(files, d + "/state"), idx)

    def garble(path):
        with open(path, "wb") as fh:
            fh.write(b"not a parquet file" * 64)

    parts, summ, idx = corpus("clean", GenSpec(n_convs=80, n_files=4, seed=3, plant=False))
    for f, _, _ in parts:
        garble(f)
    assert keyspace_from_states(parts, summ, idx).num_rows == 0

    parts, summ, idx = corpus("dirty", GenSpec(n_convs=150, n_files=12, seed=23))
    want = keyspace_from_states(parts, summ, idx).to_pylist()
    dup_hashes = find_dup_hashes([b for _, b, _ in parts])
    gap_convs, _ = _gap_orphan_candidates(summ, idx, ValidationConfig())
    free = [
        f
        for f, b, c in parts
        if not np.isin(dup_hashes, np.fromfile(b, dtype=np.uint64)).any()
        and not pq.read_table(c)["conv_id"].to_pandas().isin(gap_convs).any()
    ]
    assert want and free
    for f in free:
        garble(f)
    key = lambda r: (r["conv_id"], r["turn_idx"], r["check_id"])
    assert sorted(keyspace_from_states(parts, summ, idx).to_pylist(), key=key) == sorted(want, key=key)

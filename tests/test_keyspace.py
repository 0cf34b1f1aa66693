"""Key-space checks (dup/seq/orphan) against the planted manifest."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

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
    idx = pq.read_table(dataset + "/conversations.parquet")["conv_id"]
    parts = keyspace_sidecars(files, str(tmp_path))
    vio = keyspace_from_states(parts, idx).to_pandas()
    # the index as a list of ids, as other callers pass it, gives the same rows
    assert keyspace_from_states(parts, idx.to_pylist()).to_pandas().equals(vio)

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
    parts = keyspace_sidecars([str(d / "part-00000.parquet"), str(d / "part-00001.parquet")], str(tmp_path))
    vio = keyspace_from_states(parts, ["cA", "cB", "cC"]).to_pandas()
    got = set(map(tuple, vio[["conv_id", "turn_idx", "check_id"]].itertuples(index=False)))
    assert ("cA", 1, "dup_key") in got
    assert ("cA", 2, "seq_gap") in got  # the masked gap
    assert not any(v[0] in ("cB", "cC") for v in got)


def test_range_partitioned_dup_merge_covers_top_range(ray_session, tmp_path):
    """Regression: the hash-range merge must include the top of uint64 space
    (a 2**64 bound cast through uint64 silently became 0)."""
    import numpy as np

    from teleharvest_ray.stages.keyspace import _hash_ranges, find_dup_hashes

    top = np.uint64((1 << 64) - 100)
    low = np.uint64(12345)
    pa_, pb = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    np.sort(np.array([low, top, np.uint64(7)], dtype=np.uint64)).tofile(pa_)
    np.sort(np.array([low, top], dtype=np.uint64)).tofile(pb)
    dups_whole = find_dup_hashes([pa_, pb])
    dups_ranged = np.concatenate([find_dup_hashes([pa_, pb], lo, hi) for lo, hi in _hash_ranges(4)])
    assert set(dups_whole.tolist()) == {int(low), int(top)}
    assert sorted(dups_ranged.tolist()) == sorted({int(low), int(top)})


def test_find_dup_hashes_from_sidecar_paths(ray_session, tmp_path):
    """Sorted uint64 sidecar files must yield the exact dup set read whole
    and read range by range — the at-scale shape where no key run transits
    the driver — and a zero-byte run (an empty partition) adds nothing."""
    import numpy as np

    from teleharvest_ray.stages.keyspace import _hash_ranges, find_dup_hashes

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
    got_whole = set(find_dup_hashes([pa_, pe, pb]).tolist())
    got_ranged = [find_dup_hashes([pa_, pe, pb], lo, hi) for lo, hi in _hash_ranges(8)]
    assert want and got_whole == want
    assert sum(map(len, got_ranged)) == len(want) and set(np.concatenate(got_ranged).tolist()) == want


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
    run_validation(d, out, ValidationConfig())
    blobs = sorted(glob.glob(os.path.join(out, "keyspace", "part-*.bin")))
    assert len(blobs) == 3
    for bp in blobs:
        arr = np.fromfile(bp, dtype=np.uint64)
        assert len(arr) > 0 and (np.diff(arr.astype(np.int64).view(np.uint64)) >= 0).all() or len(arr) == 0
        # sorted on disk (precondition for memmapped binary search)
        assert (arr[:-1] <= arr[1:]).all()


def test_exact_gaps_matches_per_conversation_loop():
    """The vectorized exact gap check equals a per-conversation loop over the
    sorted-unique turns, with dups, gaps, offsets and negative turns (the
    null sentinel -1 among them)."""
    import numpy as np

    from teleharvest_ray.stages.keyspace import _exact_gaps

    def loop(df):
        rows = []
        for conv, g in df.groupby("conv_id"):
            u = np.unique(g["turn_idx"].to_numpy())
            if u[0] < 0:
                rows.append((conv, int(u[0]), "seq_gap", "negative turn_idx"))
            elif u[-1] + 1 != len(u):
                first = int(np.flatnonzero(u != np.arange(len(u)))[0])
                rows.append((conv, first, "seq_gap", f"missing={u[-1] + 1 - len(u)}"))
        return rows

    rng = np.random.default_rng(7)
    for n in [0, 1, 2, 5, 40, 300]:
        conv = rng.choice(list("abcdefg"), n).astype(object)
        df = pd.DataFrame({"conv_id": conv, "turn_idx": rng.integers(-2, 15, n)})
        got = _exact_gaps(df)
        assert list(got.columns) == ["conv_id", "turn_idx", "check_id", "detail"]
        assert [(c, int(t), k, d) for c, t, k, d in got.itertuples(index=False)] == loop(df)


def test_gap_orphan_candidates_by_range_match_whole(tmp_path):
    """Gap/orphan candidates read range by range from partials sidecars equal
    the candidates read whole and a brute-force answer, with conversations
    split across partitions, for both the sorted-array and the Bloom
    membership test."""
    import numpy as np
    import pandas as pd

    from teleharvest_ray.functions.bloom import BloomFilter
    from teleharvest_ray.stages.keyspace import (
        _gap_orphan_candidates,
        _hash_ranges,
        _membership_checker,
        write_sidecars,
    )

    rng = np.random.default_rng(17)
    convs = [f"conv-{i:05d}" for i in range(300)]
    # per-partition partial rows: gaps planted in every 13th conv (min_t
    # starts at 1), every 7th conv split across the two partitions
    rows = ([], [])
    for i, c in enumerate(convs):
        n = int(rng.integers(3, 9))
        start = 1 if i % 13 == 0 else 0
        if i % 7 == 0:
            h = n // 2
            rows[0].append((c, h, start, start + h - 1, h))
            rows[1].append((c, n - h, start + h, start + n - 1, n - h))
        else:
            rows[i % 2].append((c, n, start, start + n - 1, n))
    cols = ["conv_id", "n_distinct", "min_t", "max_t", "n_rows"]
    partials = [
        write_sidecars(
            {"keys": np.empty(0, np.uint64), "conv": pa.Table.from_pandas(pd.DataFrame(r, columns=cols))},
            str(tmp_path),
            f"p{i}",
        )[1]
        for i, r in enumerate(rows)
    ]
    known = convs[:250]  # last 50 are orphans
    want_gaps = {c for i, c in enumerate(convs) if i % 13 == 0}
    for member in (_membership_checker(known), _membership_checker(BloomFilter.from_strings(np.array(known, object)))):
        gaps, orphans = _gap_orphan_candidates(partials, 0, None, member)
        assert set(gaps) == want_gaps and len(gaps) == len(want_gaps)
        assert set(orphans) == set(convs[250:]) and len(orphans) == 50
        ranged = [_gap_orphan_candidates(partials, lo, hi, member) for lo, hi in _hash_ranges(5)]
        assert sorted(np.concatenate([g for g, _ in ranged])) == sorted(gaps)
        assert sorted(np.concatenate([o for _, o in ranged])) == sorted(orphans)


def test_several_hash_ranges_match_one(ray_session, tmp_path, monkeypatch, phase2_tasks):
    """Phase 2 over several hash ranges (Ray tasks, for both the candidate
    step and verification) gives the one-range (driver) result and the
    planted manifest, on a corpus with cross-partition dups, a gap masked by
    a dup, orphans and a zero-row partition."""
    import pyarrow as pa

    from teleharvest_ray.pipelines.validate import read_violations, run_validation
    from teleharvest_ray.stages import keyspace

    d = str(tmp_path / "data")
    generate(d, GenSpec(n_convs=120, n_files=6, seed=5, hot_conv=True))
    first = pq.read_table(os.path.join(d, "part-00000.parquet"))

    def write(name, turns):
        tbl = first.take([0] * len(turns))
        for col, vals in (("conv_id", ["masked"] * len(turns)), ("turn_idx", turns)):
            i = tbl.schema.get_field_index(col)
            tbl = tbl.set_column(i, col, pa.array(vals, tbl.schema.field(col).type))
        pq.write_table(tbl, os.path.join(d, name))

    # turns {0, 1, 3} plus a cross-file copy of turn 1: the summed distinct
    # count equals max + 1, so only the dup re-check finds the gap at 2
    write("part-00097.parquet", [0, 1, 3])
    write("part-00098.parquet", [1])
    pq.write_table(first.slice(0, 0), os.path.join(d, "part-00099.parquet"))

    def run(name):
        s = run_validation(d, str(tmp_path / name), ValidationConfig())
        vio = read_violations(str(tmp_path / name))
        return s, vio.sort_values(list(vio.columns), ignore_index=True)

    s_one, one = run("one")
    monkeypatch.setattr(keyspace, "_KEYS_PER_RANGE", 500)
    assert s_one["rows_scanned"] // 500 >= 4  # several ranges
    with phase2_tasks() as spies:
        s_many, many = run("many")
    # one candidate task per range; one verification task per partition for
    # the candidates, and again for the dup re-check of the masked gap
    assert spies["range"].calls >= 4
    assert spies["verify"].calls == 2 * s_many["n_partitions"]
    pd.testing.assert_frame_equal(one, many)
    assert {k: v for k, v in s_one.items() if k != "out_dir"} == {k: v for k, v in s_many.items() if k != "out_dir"}

    added = many.conv_id.isin(["masked", "partition:part-00097", "partition:part-00098"])
    exp = pq.read_table(d + "/expected_violations.parquet").to_pandas()
    as_set = lambda df: set(map(tuple, df[["conv_id", "turn_idx", "check_id"]].drop_duplicates().itertuples(index=False)))
    assert as_set(many[~added]) == as_set(exp)
    ks_rows = many[added & many.check_id.isin(KS_IDS)]
    assert as_set(ks_rows) == {("masked", 1, "dup_key"), ("masked", 2, "seq_gap"), ("masked", -1, "orphan_conv")}


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
    run_validation(d, out, ValidationConfig())
    recs = glob.glob(os.path.join(out, "checkpoints", "part-*.json"))
    assert len(recs) == 2
    assert all(os.path.getsize(r) < 50_000 for r in recs), [os.path.getsize(r) for r in recs]


def test_one_range_phase2_starts_no_ray_work(ray_session, keyspace_sidecars, dataset, tmp_path, phase2_tasks):
    """One hash range runs all of phase 2 in this process: with every task
    submission and ``ray.put`` made to raise, the manifest check and the
    candidate-partition check still pass on a dirty corpus."""
    with phase2_tasks(allow=False):
        test_keyspace_matches_manifest(ray_session, keyspace_sidecars, dataset, tmp_path / "manifest")
        test_phase2_reads_only_candidate_partitions(ray_session, keyspace_sidecars, tmp_path / "candidates")


def test_phase2_reads_only_candidate_partitions(ray_session, keyspace_sidecars, tmp_path):
    """Candidates are located from the sidecars before any data file is
    read: on a clean corpus every data file can be garbage and the checks
    still return nothing, and on a dirty corpus garbling a candidate-free
    file leaves the result unchanged."""
    import glob

    import numpy as np

    from teleharvest_ray.stages.keyspace import _membership_checker, _partials_run, _range_candidates

    def corpus(name, spec):
        d = str(tmp_path / name)
        generate(d, spec)
        os.makedirs(d + "/state")
        files = sorted(glob.glob(d + "/part-*.parquet"))
        idx = pq.read_table(d + "/conversations.parquet")["conv_id"].to_pylist()
        return keyspace_sidecars(files, d + "/state"), idx

    def garble(path):
        with open(path, "wb") as fh:
            fh.write(b"not a parquet file" * 64)

    parts, idx = corpus("clean", GenSpec(n_convs=80, n_files=4, seed=3, plant=False))
    for f, _, _ in parts:
        garble(f)
    assert keyspace_from_states(parts, idx).num_rows == 0

    parts, idx = corpus("dirty", GenSpec(n_convs=150, n_files=12, seed=23))
    want = keyspace_from_states(parts, idx).to_pylist()
    dup_hashes, gap_convs, _ = _range_candidates(parts, 0, None, _membership_checker(idx))
    free = [
        f
        for f, (k,), (p,) in parts
        if not np.isin(dup_hashes, np.fromfile(k, dtype=np.uint64)).any()
        and not _partials_run(p)["conv_id"].to_pandas().isin(gap_convs).any()
    ]
    assert want and free
    for f in free:
        garble(f)
    key = lambda r: (r["conv_id"], r["turn_idx"], r["check_id"])
    assert sorted(keyspace_from_states(parts, idx).to_pylist(), key=key) == sorted(want, key=key)


def _prep_state_reference(tbl):
    """The pandas key state the Arrow ``prep_state`` replaced: per-row
    ``hash_key`` over an object array and one pandas groupby, then the
    partials table built through a DataFrame."""
    import numpy as np

    from teleharvest_ray.functions.hashing import combine, hash_strings
    from teleharvest_ray.stages.keyspace import PARTIALS_SCHEMA

    conv = np.asarray(tbl["conv_id"].to_pandas(), dtype=object)
    turn = tbl["turn_idx"].to_numpy(zero_copy_only=False)
    turn = np.where(pd.isna(turn), -1, turn).astype(np.int64)
    ok = pd.notna(conv) & (conv != "")
    conv, turn = conv[ok], turn[ok]
    df = pd.DataFrame({"conv_id": conv, "turn_idx": turn})
    c = df.groupby("conv_id", sort=False)["turn_idx"].agg(["nunique", "min", "max", "size"]).reset_index()
    c.columns = ["conv_id", "n_distinct", "min_t", "max_t", "n_rows"]
    c = c.assign(h=hash_strings(c["conv_id"].to_numpy(object))).sort_values("h", kind="stable")
    partials = pa.Table.from_pandas(c, schema=PARTIALS_SCHEMA, preserve_index=False).replace_schema_metadata()
    return combine(hash_strings(conv), turn.view(np.uint64)), partials


def _ipc_bytes(tbl) -> bytes:
    from teleharvest_ray.stages.keyspace import PARTIALS_SCHEMA

    sink = pa.BufferOutputStream()
    with pa.ipc.new_file(sink, PARTIALS_SCHEMA) as w:
        w.write_table(tbl)
    return sink.getvalue().to_pybytes()


def test_arrow_key_state_matches_pandas_reference():
    """``prep_state``, ``conv_partials_table`` and ``hash_key`` equal the
    pandas code they replaced, and the partials serialize to the same bytes,
    over null and empty ids, null and negative turns, duplicate keys,
    non-ASCII ids, a multi-chunk table and an empty table."""
    import numpy as np

    from teleharvest_ray.stages.keyspace import conv_partials_table, prep_state

    rng = np.random.default_rng(3)
    n = 4000
    ids = np.array(["a", "b", "", None, "é-ü", "日本語", "c" * 40], dtype=object)
    turn = rng.integers(-4, 25, n).astype(object)
    turn[rng.random(n) < 0.05] = None
    tbl = pa.table(
        {"conv_id": pa.array(rng.choice(ids, n), pa.string()), "turn_idx": pa.array(turn.tolist(), pa.int32())}
    )
    cases = {
        "mixed": tbl,
        "multi-chunk": pa.concat_tables([tbl.slice(0, 700), tbl.slice(700, 2000), tbl.slice(2700)]),
        "empty": tbl.slice(0, 0),
        "unkeyed only": pa.table({"conv_id": pa.array([None, ""], pa.string()), "turn_idx": pa.array([1, None], pa.int32())}),
    }
    assert cases["multi-chunk"]["conv_id"].num_chunks == 3
    for name, case in cases.items():
        state = prep_state(case)
        want_keys, want_partials = _prep_state_reference(case)
        assert np.array_equal(state["keys"], want_keys), name
        partials = conv_partials_table(state["conv"])
        assert partials.equals(want_partials), name
        assert _ipc_bytes(partials) == _ipc_bytes(want_partials), name


def test_partials_of_an_earlier_release_merge_beside_new_ones(tmp_path):
    """A partials sidecar as an earlier release wrote it, with an ``n_rows``
    column, and one in today's format merge into the same candidates as two
    of today's."""
    import numpy as np

    from teleharvest_ray.stages.keyspace import (
        PARTIALS_SCHEMA,
        _gap_orphan_candidates,
        _membership_checker,
        _partials_run,
        write_sidecars,
    )

    conv = [
        pa.table({"conv_id": ["a", "b", "c"], "n_distinct": [2, 3, 1], "min_t": [0, 0, 1], "max_t": [1, 2, 1]}),
        pa.table({"conv_id": ["a", "d"], "n_distinct": [1, 2], "min_t": [3, 0], "max_t": [3, 1]}),
    ]
    paths = [
        write_sidecars({"keys": np.empty(0, np.uint64), "conv": c}, str(tmp_path), f"p{i}")[1]
        for i, c in enumerate(conv)
    ]
    member = _membership_checker(["a", "b", "c"])
    want = _gap_orphan_candidates(paths, 0, None, member)
    assert sorted(want[0]) == ["a", "c"] and list(want[1]) == ["d"]
    old = _partials_run(paths[0])
    assert old.schema.equals(PARTIALS_SCHEMA)
    old = old.append_column("n_rows", old["n_distinct"])
    old_path = str(tmp_path / "p0-earlier-conv.arrow")
    with pa.ipc.new_file(old_path, old.schema) as w:
        w.write_table(old)
    got = _gap_orphan_candidates([old_path, paths[1]], 0, None, member)
    assert sorted(got[0]) == sorted(want[0]) and list(got[1]) == list(want[1])


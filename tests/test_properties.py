"""Property-based tests (hypothesis): sketch merge laws and chain invariants
hold for arbitrary inputs, not just the planted fixtures."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from teleharvest_ray.config import ValidationConfig
from teleharvest_ray.functions.sketches import HistogramSketch, HyperLogLog, KLLSketch
from teleharvest_ray.functions.textfuncs import alt_score, quality_score, tokenize
from teleharvest_ray.stages.row_checks import chain_violations, evaluate_chain

ints = st.lists(st.integers(0, 10_000), min_size=0, max_size=400)


@given(a=ints, b=ints)
@settings(max_examples=40, deadline=None)
def test_hll_merge_is_union(a, b):
    ha, hb, hu = HyperLogLog(p=12), HyperLogLog(p=12), HyperLogLog(p=12)
    ha.update_ints(np.array(a, dtype=np.int64))
    hb.update_ints(np.array(b, dtype=np.int64))
    hu.update_ints(np.array(a + b, dtype=np.int64))
    merged = HyperLogLog.from_bytes(ha.to_bytes()).merge(hb)
    assert (merged.registers == hu.registers).all()  # bit-identical, order-free


@given(a=ints, b=ints)
@settings(max_examples=40, deadline=None)
def test_histogram_merge_is_concat(a, b):
    ha, hb, hu = HistogramSketch(8, 1024), HistogramSketch(8, 1024), HistogramSketch(8, 1024)
    ha.update(np.array(a)); hb.update(np.array(b)); hu.update(np.array(a + b))
    m = HistogramSketch.from_bytes(ha.to_bytes()).merge(hb)
    assert (m.counts == hu.counts).all() and m.total == hu.total
    assert m.vmin == hu.vmin and m.vmax == hu.vmax and m.vsum == hu.vsum


@given(vals=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=500), q=st.floats(0.01, 0.99))
@settings(max_examples=30, deadline=None)
def test_kll_quantile_within_rank_error(vals, q):
    s = KLLSketch(k=100)
    s.update(np.array(vals))
    est = s.quantile(q)
    arr = np.sort(vals)
    # rank of the estimate must be within eps*n of target rank (KLL guarantee
    # shape; generous eps for the small-k deterministic variant). With ties,
    # any rank in [searchsorted-left, searchsorted-right] maps to the same
    # value, so measure error against the nearest rank in that interval.
    lo = np.searchsorted(arr, est, side="left")
    hi = np.searchsorted(arr, est, side="right")
    target = q * len(arr)
    err = 0.0 if lo <= target <= hi else min(abs(lo - target), abs(hi - target))
    assert err <= max(4.5, 0.2 * len(arr))


texts = st.lists(
    st.one_of(st.none(), st.text(alphabet=st.characters(codec="ascii", exclude_characters="\x00"), max_size=80)),
    min_size=1,
    max_size=50,
)


@given(t=texts)
@settings(max_examples=40, deadline=None)
def test_chain_invariants_arbitrary_text(t):
    n = len(t)
    tbl = pa.table(
        {
            "conv_id": pa.array([f"c{i%5}" for i in range(n)], pa.string()),
            "turn_idx": pa.array(np.arange(n, dtype=np.int32)),
            "role": pa.array(["user"] * n),
            "text": pa.array(t, pa.string()),
            "tool": pa.array([None] * n, pa.string()),
            "ts": pa.array(np.arange(n), pa.timestamp("us")),
        }
    )
    ann = evaluate_chain(tbl, ValidationConfig())
    df = ann.to_pandas()
    # 1. every row either passes or has a first failing check from the chain
    allowed = {None, "text_missing", "conv_id_missing", "text_too_short", "stop_word",
               "low_engagement", "low_score", "low_score_alt"}
    assert set(df.first_failing_check.where(df.first_failing_check.notna(), None)) <= allowed
    # 2. null-state machine: failing early ⇒ all downstream scoring columns null
    early = df[df.first_failing_check.isin(["text_missing", "conv_id_missing", "text_too_short", "stop_word"])]
    for c in ("score", "alt", "score_alt", "token_count", "similarity_score"):
        assert early[c].isna().all()
    # 3. violations align with first_failing_check rows one-to-one
    vio = chain_violations(ann).to_pandas()
    chain_vio = vio[vio.check_id != "metrics_missing"]
    assert len(chain_vio) == int(df.first_failing_check.notna().sum())
    # 4. a passing row has score > 80 (threshold semantics)
    ok = df[df.first_failing_check.isna() & df.score.notna()]
    assert (ok.score > 80).all()


@given(t=texts)
@settings(max_examples=30, deadline=None)
def test_token_features_consistent(t):
    arr = pa.array(t, pa.string())
    tok = tokenize(arr)
    counts = np.bincount(tok.rows, minlength=tok.n_rows)
    py_counts = np.array([len(x.split()) if x else 0 for x in t])
    assert (counts == py_counts).all()
    s = alt_score(arr)
    assert ((s >= 0) & (s <= 100)).all()
    qs = quality_score(arr)
    assert ((qs >= 0) & (qs <= 100)).all()


@st.composite
def _keyspace_case(draw):
    n_convs = draw(st.integers(1, 6))
    convs = {}
    for i in range(n_convs):
        # arbitrary turn multisets: dups, gaps, offsets all possible
        turns = draw(st.lists(st.integers(0, 12), min_size=1, max_size=10))
        convs[f"c{i}"] = turns
    known = draw(st.lists(st.sampled_from(sorted(convs)), unique=True))
    n_blocks = draw(st.integers(1, 3))
    n_ranges = draw(st.integers(1, 4))
    return convs, known, n_blocks, n_ranges


@given(case=_keyspace_case())
@settings(max_examples=15, deadline=None)
def test_keyspace_matches_bruteforce_oracle(ray_session, keyspace_sidecars, phase2_tasks, case):
    """The candidates-then-verify keyspace engine must equal a brute-force
    oracle for ANY turn multiset split across ANY number of partitions, empty
    ones included (this is the property the masked-gap bug violated), merged
    in one hash range on the driver (no Ray task) or in several as Ray tasks
    (candidates and verification both)."""
    import tempfile
    from unittest import mock

    import pyarrow.parquet as pq

    from teleharvest_ray.stages import keyspace

    convs, known, n_blocks, n_ranges = case
    rows = [(c, t) for c, ts in convs.items() for t in ts]
    df = pd.DataFrame(rows, columns=["conv_id", "turn_idx"])
    df["turn_idx"] = df["turn_idx"].astype("int32")

    from teleharvest_ray.stages.keyspace import keyspace_from_states

    with tempfile.TemporaryDirectory() as d:
        files = []
        for i, block in enumerate(np.array_split(np.arange(len(df)), n_blocks)):
            files.append(f"{d}/part-{i:05d}.parquet")
            pq.write_table(pa.Table.from_pandas(df.iloc[block], preserve_index=False), files[-1])
        parts = keyspace_sidecars(files, d)
        # a keys-per-range count that splits these keys into about n_ranges
        # hash ranges (1 keeps the driver-side single range)
        several = n_ranges > 1 and len(rows) > 1
        with (
            mock.patch.object(keyspace, "_KEYS_PER_RANGE", len(rows) // n_ranges or 1),
            phase2_tasks(allow=several) as spies,
        ):
            got = keyspace_from_states(parts, known).to_pandas()
    got_set = set(map(tuple, got[["conv_id", "turn_idx", "check_id"]].itertuples(index=False)))

    want = set()
    from collections import Counter

    key_counts = Counter(rows)
    for (c, t), n in key_counts.items():
        if n > 1:
            want.add((c, t, "dup_key"))
    for c, ts in convs.items():
        u = sorted(set(ts))
        if u[0] != 0 or u[-1] != len(u) - 1:
            first = next(i for i in range(len(u) + 1) if i >= len(u) or u[i] != i)
            want.add((c, first, "seq_gap"))
        if known and c not in known:
            want.add((c, -1, "orphan_conv"))
    assert got_set == want, (sorted(got_set - want), sorted(want - got_set))
    if several:
        assert spies["range"].calls > 1
        # a dup or a gap is found only by verifying its candidates
        assert spies["verify"].calls or not any(v[2] != "orphan_conv" for v in want)


@given(
    toks=st.lists(st.integers(1, 3000), min_size=1, max_size=300),
    budget=st.integers(100, 5000),
)
@settings(max_examples=40, deadline=None)
def test_property_next_fit_packing_budget(toks, budget):
    """For ANY token multiset and budget: every row assigned exactly once,
    and only singleton shards may exceed the budget (per-block packing body
    run directly — the Ray wrapper adds only the block tag)."""
    import pandas as pd
    import pyarrow as pa

    from teleharvest_ray.stages.sampling import pack_sequences

    tbl = pa.Table.from_pandas(
        pd.DataFrame({"doc_id": range(len(toks)), "tokens": toks}), preserve_index=False
    )
    # reach the inner pack body through the public wrapper's map fn by
    # running it on a single in-memory block
    import ray.data as rd

    out = pack_sequences(rd.from_arrow(tbl), "doc_id", "tokens", budget).to_pandas()
    assert len(out) == len(toks) and out.shard_id.notna().all()
    g = out.groupby("shard_id").tokens.agg(["sum", "count"])
    assert ((g["sum"] <= budget) | (g["count"] == 1)).all()


@given(
    n=st.integers(1, 2000),
    fr=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=25, deadline=None)
def test_property_hash_split_partition(n, fr, seed):
    """For ANY key set, fraction and seed: the split is a PARTITION (every
    key in exactly one split) and deterministic."""
    import numpy as np
    import pyarrow as pa

    from teleharvest_ray.stages.sampling import _RES, _key_hash_u64

    keys = pa.array(np.arange(n, dtype=np.int64))
    h1 = _key_hash_u64(keys, seed) % _RES
    h2 = _key_hash_u64(keys, seed) % _RES
    assert (h1 == h2).all()  # deterministic
    edges = (np.array([fr, 1.0]) * float(int(_RES))).astype(np.uint64)
    edges[-1] = _RES
    idx = np.searchsorted(edges, h1, side="right")
    assert ((idx == 0) | (idx == 1)).all()  # every key lands in exactly one bucket


@given(
    n=st.integers(1, 120),
    n_keys=st.integers(1, 6),
    nan_frac=st.floats(0, 0.4),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_segmented_windows_match_pergroup_reference(n, n_keys, nan_frac, seed):
    """The segmented (whole-frame, no-per-group-loop) window kernels equal a
    naive per-group pandas computation for arbitrary frames with NaN values
    and NULL keys."""
    from teleharvest_ray.stages.windows import segmented_windows

    rng = np.random.default_rng(seed)
    keys = pd.array(rng.integers(0, n_keys, n), dtype="Int64")
    keys[rng.random(n) < 0.15] = pd.NA  # NULL keys form one partition
    df = pd.DataFrame(
        {
            "k": keys,
            "o": rng.permutation(n),
            "v": np.where(rng.random(n) < nan_frac, np.nan, rng.normal(size=n).round(3)),
        }
    )
    specs = [
        ("row_number", None, "rn"),
        ("running_sum", "v", "rs"),
        ("running_mean", "v", "rm"),
        ("running_min", "v", "rmin"),
        ("lag", "v", "lg"),
        ("lead", "v", "ld"),
    ]
    got = segmented_windows(df.copy(), "k", ["o"], specs)

    ref = df.sort_values(["k", "o"], kind="stable").reset_index(drop=True)
    for c in ("rn", "rs", "rm", "rmin", "lg", "ld"):
        ref[c] = np.nan
    # naive per-group reference (group loop on purpose — transform() chokes
    # on NA group names in this pandas version)
    for _, idx in ref.groupby("k", dropna=False, sort=False).indices.items():
        s = ref.loc[idx, "v"]
        cnt = s.notna().cumsum()
        ref.loc[idx, "rn"] = np.arange(1, len(idx) + 1)
        ref.loc[idx, "rs"] = s.fillna(0).cumsum().mask(cnt == 0)
        ref.loc[idx, "rm"] = s.fillna(0).cumsum() / cnt.mask(cnt == 0)
        ref.loc[idx, "rmin"] = s.cummin().ffill()
        ref.loc[idx, "lg"] = s.shift(1)
        ref.loc[idx, "ld"] = s.shift(-1)
    for c in ("rn", "rs", "rm", "rmin", "lg", "ld"):
        pd.testing.assert_series_equal(
            got[c].astype("float64"), ref[c].astype("float64"), check_names=False
        )


@given(
    n=st.integers(0, 150),
    n_buckets=st.integers(1, 10),
    n_ids=st.integers(1, 25),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_tri_pairs_match_bruteforce(n, n_buckets, n_ids, seed):
    """The vectorized triangular pair generator equals the brute-force
    intra-bucket pair set for arbitrary (bucket, id) tables."""
    from teleharvest_ray.stages.dedup import _tri_pairs

    rng = np.random.default_rng(seed)
    bdf = pd.DataFrame({"b": rng.integers(0, n_buckets, n), "id": rng.integers(0, n_ids, n)})
    got = set(map(tuple, _tri_pairs(bdf, ["b"], "id")[["id_a", "id_b"]].to_numpy()))
    exp = set()
    for _, grp in bdf.drop_duplicates().groupby("b"):
        ids = sorted(grp["id"].unique())
        exp |= {(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]}
    assert got == exp


@given(n=st.integers(1, 500), b=st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_ntile_size_law(n, b):
    """NTILE bucket sizes: first n%B buckets ceil(n/B), rest floor(n/B) —
    checked against the vectorized tag formula for arbitrary (n, B)."""
    rk = np.arange(1, n + 1)
    q, r = divmod(n, b)
    if q == 0:
        bucket = rk
    else:
        head = r * (q + 1)
        bucket = np.where(rk <= head, (rk - 1) // (q + 1) + 1, r + (rk - head - 1) // q + 1)
    sizes = np.bincount(bucket)[1:]
    exp = [q + 1] * r + [q] * (b - r) if q else [1] * n
    assert list(sizes) == [s for s in exp if s]

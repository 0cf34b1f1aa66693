"""Sketch unit tests: accuracy bounds, mergeability, serialization round-trip,
order-independence (HLL/Histogram)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from teleharvest_ray.functions.hashing import combine, hash_key, hash_strings, splitmix64
from teleharvest_ray.functions.sketches import HistogramSketch, HyperLogLog, KLLSketch


#: null, empty, non-ASCII and repeated ids
_IDS = ["a", None, "", "é-ü", "日本語", "a", "b"]


def _siphash(values) -> np.ndarray:
    """pandas' SipHash over the ids, nulls as the ``"\x00<null>"`` sentinel."""
    arr = np.array(["\x00<null>" if v is None else v for v in values], dtype=object)
    return pd.util.hash_array(arr, categorize=False).astype(np.uint64)


def test_hash_strings_deterministic_and_distinct():
    a = hash_strings(["a", "b", "a", None])
    b = hash_strings(["a", "b", "a", None])
    assert (a == b).all()
    assert a[0] == a[2] and a[0] != a[1]
    assert a[3] != a[0]
    want = _siphash(_IDS)
    obj = np.array(_IDS, dtype=object)
    obj_nan = obj.copy()
    obj_nan[1] = np.nan
    inputs = (_IDS, obj, obj_nan, pd.Series(_IDS), pa.array(_IDS), pa.chunked_array([_IDS[:3], _IDS[3:]]))
    for values in inputs:
        assert (hash_strings(values) == want).all(), type(values)
    assert (obj == np.array(_IDS, dtype=object)).all()  # the input is not written to


def test_hash_key_composite():
    h1 = hash_key(["c1", "c1"], [0, 1])
    assert h1[0] != h1[1]  # turn_idx participates → hot conv spreads
    h2 = hash_key(["c1"], [0])
    assert h1[0] == h2[0]
    # per row: the id's hash mixed with the turn, a null turn as -1, over
    # list, object-array and multi-chunk Arrow inputs
    turns = [0, 1, None, -2, 3, 0, 5]
    t = np.array([-1 if v is None else v for v in turns], dtype=np.int64)
    want = combine(_siphash(_IDS), t.view(np.uint64))
    arrow = (pa.chunked_array([_IDS[:2], _IDS[2:]]), pa.chunked_array([turns[:4], turns[4:]], pa.int32()))
    for conv, turn in ((_IDS, turns), (np.array(_IDS, dtype=object), np.array(turns, dtype=object)), arrow):
        assert (hash_key(conv, turn) == want).all()
    assert len(hash_key(pa.chunked_array([], pa.string()), pa.chunked_array([], pa.int32()))) == 0


def test_splitmix_bijective_spread():
    x = splitmix64(np.arange(1000, dtype=np.uint64))
    assert len(np.unique(x)) == 1000


@pytest.mark.parametrize("n", [100, 5000, 200_000])
def test_hll_accuracy(n):
    hll = HyperLogLog(p=14)
    hll.update_ints(np.arange(n))
    est = hll.estimate()
    assert abs(est - n) / n < 0.05


def test_hll_merge_equals_union():
    a, b = HyperLogLog(p=12), HyperLogLog(p=12)
    a.update_ints(np.arange(0, 6000))
    b.update_ints(np.arange(4000, 10000))
    u = HyperLogLog.from_bytes(a.to_bytes()).merge(b)
    est = u.estimate()
    assert abs(est - 10000) / 10000 < 0.08


def test_hll_order_independent():
    vals = np.arange(10_000)
    a, b = HyperLogLog(), HyperLogLog()
    a.update_ints(vals)
    rng = np.random.default_rng(0)
    for chunk in np.array_split(rng.permutation(vals), 7):
        b.update_ints(chunk)
    assert (a.registers == b.registers).all()


def test_hll_strings_roundtrip():
    h = HyperLogLog(p=12)
    h.update_strings([f"conv-{i}" for i in range(3000)])
    h2 = HyperLogLog.from_bytes(h.to_bytes())
    assert h2.estimate() == h.estimate()
    assert abs(h.estimate() - 3000) / 3000 < 0.08


def test_histogram_exact_quantiles_and_merge():
    rng = np.random.default_rng(1)
    v1, v2 = rng.integers(0, 1000, 5000), rng.integers(0, 1000, 5000)
    a, b = HistogramSketch(bin_width=8, max_value=2048), HistogramSketch(bin_width=8, max_value=2048)
    a.update(v1)
    b.update(v2)
    a.merge(HistogramSketch.from_bytes(b.to_bytes()))
    allv = np.concatenate([v1, v2])
    assert a.total == 10_000
    assert a.vmin == allv.min() and a.vmax == allv.max()
    assert abs(a.mean() - allv.mean()) < 1e-9
    for q in (0.1, 0.5, 0.9):
        assert abs(a.quantile(q) - np.quantile(allv, q)) <= 8.5


def test_histogram_ks():
    a, b = HistogramSketch(bin_width=4, max_value=512), HistogramSketch(bin_width=4, max_value=512)
    rng = np.random.default_rng(2)
    a.update(rng.integers(0, 100, 20000))
    b.update(rng.integers(0, 100, 20000))
    assert a.ks_distance(b) < 0.03  # same distribution
    c = HistogramSketch(bin_width=4, max_value=512)
    c.update(rng.integers(50, 150, 20000))  # shifted
    assert a.ks_distance(c) > 0.3


def test_kll_quantiles():
    rng = np.random.default_rng(3)
    vals = rng.normal(100, 15, 100_000)
    s = KLLSketch(k=200)
    for chunk in np.array_split(vals, 50):
        s.update(chunk)
    for q in (0.1, 0.5, 0.99):
        exact = np.quantile(vals, q)
        assert abs(s.quantile(q) - exact) < 2.5, (q, s.quantile(q), exact)


def test_kll_merge_and_roundtrip():
    rng = np.random.default_rng(4)
    v1, v2 = rng.exponential(10, 50_000), rng.exponential(10, 50_000)
    a, b = KLLSketch(), KLLSketch()
    a.update(v1)
    b.update(v2)
    a = KLLSketch.from_bytes(a.to_bytes()).merge(b)
    allv = np.concatenate([v1, v2])
    assert a.n == 100_000
    assert abs(a.quantile(0.5) - np.quantile(allv, 0.5)) < 1.0


def test_spacesaving_superset_guarantee_and_merge():
    """Any value with true frequency > n/capacity must appear in the
    counters, including after merging per-chunk sketches."""
    import numpy as np

    from teleharvest_ray.functions.sketches import SpaceSaving

    rng = np.random.default_rng(6)
    # zipf-ish: a few heavy values over a long tail
    heavy = np.repeat([f"h{i}" for i in range(5)], [4000, 3000, 2000, 1500, 1000])
    tail = np.array([f"t{i}" for i in rng.integers(0, 50_000, 30_000)])
    data = np.concatenate([heavy, tail])
    rng.shuffle(data)
    cap = 512
    merged = SpaceSaving(cap)
    for chunk in np.array_split(data, 7):
        s = SpaceSaving(cap)
        s.update(chunk)
        merged = merged.merge(s)
    assert merged.n == len(data)
    vals, counts = np.unique(data, return_counts=True)
    thresh = len(data) / cap
    must_have = set(vals[counts > thresh])
    assert must_have <= set(merged.counts), must_have - set(merged.counts)
    # top-5 candidates include all five planted heavies
    assert {f"h{i}" for i in range(5)} <= set(merged.candidates(8))
    # counts never underestimate within the error bound
    for v in must_have:
        true = int(counts[vals == v][0])
        assert merged.counts[v] >= true
        assert merged.counts[v] - merged.errs[v] <= true


def test_spacesaving_roundtrip_bytes():
    import numpy as np

    from teleharvest_ray.functions.sketches import SpaceSaving

    s = SpaceSaving(16)
    s.update(np.array(["a", "b", "a", "c"], dtype=object))
    r = SpaceSaving.from_bytes(s.to_bytes())
    assert r.counts == s.counts and r.errs == s.errs and r.n == s.n


def test_er_kll_wired_through_partition_stats():
    """The ER KLL sketch is a consumed pipeline component: partition_stats
    builds it, merge_stats folds it associatively, stats_summary and
    compare_run_stats surface its quantiles."""
    import pyarrow as pa

    from teleharvest_ray.config import ValidationConfig
    from teleharvest_ray.stages.stats import (
        compare_run_stats,
        merge_stats,
        partition_stats,
        stats_summary,
    )

    rng = np.random.default_rng(3)
    n = 4000
    views = rng.integers(1, 1000, n).astype("int64")
    reac = rng.integers(0, 50, n).astype("int64")
    fwd = rng.integers(0, 20, n).astype("int64")

    def mk(lo, hi):
        return pa.table(
            {
                "conv_id": pa.array([f"c{i % 97}" for i in range(lo, hi)]),
                "turn_idx": pa.array(np.arange(lo, hi, dtype=np.int32)),
                "text": pa.array(["hello world sample text"] * (hi - lo)),
                "role": pa.array(["user"] * (hi - lo)),
                "tool": pa.array([None] * (hi - lo), pa.string()),
                "views": pa.array(views[lo:hi]),
                "reactions": pa.array(reac[lo:hi]),
                "forwards": pa.array(fwd[lo:hi]),
            }
        )

    cfg = ValidationConfig()
    s1 = partition_stats(mk(0, 2000), cfg)
    s2 = partition_stats(mk(2000, n), cfg)
    merged = merge_stats(s1, s2)
    er = (reac + fwd) / np.maximum(views, 1)
    summ = stats_summary(merged)["engagement_rate"]
    assert summ is not None and summ["n"] == n
    for q, key in ((0.5, "p50"), (0.95, "p95")):
        exact = float(np.quantile(er, q))
        assert abs(summ[key] - exact) <= max(0.25 * exact, 0.02), (q, summ[key], exact)
    cmp = compare_run_stats(merged, merged)
    assert cmp["er_p50_rel_delta"] == 0.0 and cmp["er_p95_rel_delta"] == 0.0
    # pre-ER checkpoint states (no er_kll key) still merge
    legacy = {k: v for k, v in s1.items() if k != "er_kll"}
    m2 = merge_stats(legacy, s2)
    assert m2["er_kll"].n == s2["er_kll"].n


# ---------------------------------------------------------------------------
# Count-Min sketch
# ---------------------------------------------------------------------------


def test_cms_never_undercounts_and_bounds():
    from teleharvest_ray.functions.sketches import CountMinSketch

    rng = np.random.default_rng(7)
    # zipf-ish skew: heavy keys + a long tail, forced collisions via small w
    vals = rng.zipf(1.5, size=20000) % 5000
    c = CountMinSketch(d=4, w=256)
    c.update_ints(vals)
    keys, exact = np.unique(vals, return_counts=True)
    est = c.estimate_ints(keys)
    assert (est >= exact).all()  # structural one-sided guarantee
    assert c.total() == len(vals)
    # the eps*N bound holds for the overwhelming majority of keys (per-key
    # failure prob e^-d ~= 1.8%); assert the aggregate, not each key
    within = (est - exact) <= c.error_bound()
    assert within.mean() > 0.95


def test_cms_merge_equals_single_build_and_roundtrip():
    from teleharvest_ray.functions.sketches import CountMinSketch

    rng = np.random.default_rng(11)
    vals = rng.integers(0, 1000, size=5000)
    whole = CountMinSketch(d=4, w=512)
    whole.update_ints(vals)
    merged = CountMinSketch(d=4, w=512)
    for chunk in np.array_split(vals, 9):
        part = CountMinSketch(d=4, w=512)
        part.update_ints(chunk)
        merged.merge(part)
    assert (whole.table == merged.table).all()
    rt = CountMinSketch.from_bytes(merged.to_bytes())
    assert (rt.table == merged.table).all() and (rt.d, rt.w) == (4, 512)
    with pytest.raises(ValueError):
        merged.merge(CountMinSketch(d=4, w=256))


def test_cms_weighted_update():
    from teleharvest_ray.functions.sketches import CountMinSketch
    from teleharvest_ray.functions.hashing import splitmix64

    c = CountMinSketch(d=4, w=512)
    h = splitmix64(np.arange(10, dtype=np.uint64))
    c.update_hashes(h, weights=np.full(10, 3, dtype=np.int64))
    assert (c.estimate_hashes(h) >= 3).all()
    assert c.total() == 30

"""Conformance tests for the vectorized short-circuit chain against the
planted-violation manifest and the reference's null-profile assertions
(reference tests/test_processor.py:108-246,410-475 recast)."""

from __future__ import annotations

import glob

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from teleharvest_ray.config import ValidationConfig
from teleharvest_ray.sources.datagen import GenSpec, generate
from teleharvest_ray.functions.hashing import hash_strings
from teleharvest_ray.stages.row_checks import build_conv_last, chain_violations, evaluate_chain

CHAIN_IDS = {
    "text_missing", "conv_id_missing", "text_too_short", "stop_word",
    "low_engagement", "low_score", "low_score_alt", "metrics_missing",
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("chain_data")
    generate(str(d), GenSpec(n_convs=150, n_files=6, seed=11, hot_conv=True))
    return str(d)


def _run_chain(dataset, cfg=None):
    cfg = cfg or ValidationConfig()
    ann, vio = [], []
    for f in sorted(glob.glob(dataset + "/part-*.parquet")):
        t = pq.read_table(f)
        a = evaluate_chain(t, cfg)
        ann.append(a)
        vio.append(chain_violations(a))
    return pa.concat_tables(ann), pa.concat_tables(vio)


def test_chain_matches_manifest(dataset):
    _, vio = _run_chain(dataset)
    got = vio.to_pandas()[["conv_id", "turn_idx", "check_id"]].drop_duplicates()
    exp = pq.read_table(dataset + "/expected_violations.parquet").to_pandas()
    exp = exp[exp.check_id.isin(CHAIN_IDS)]
    got_set = set(map(tuple, got.itertuples(index=False)))
    exp_set = set(map(tuple, exp.itertuples(index=False)))
    missing = exp_set - got_set
    spurious = got_set - exp_set
    assert not missing, f"missed {len(missing)}: {sorted(missing)[:5]}"
    assert not spurious, f"spurious {len(spurious)}: {sorted(spurious)[:5]}"


def test_null_profile_past_failure(dataset):
    ann, _ = _run_chain(dataset)
    df = ann.to_pandas()
    # passing rows: fully populated scoring columns (reference :116-131)
    ok = df[df.first_failing_check.isna()]
    clean = ok[ok.views.notna() & ok.reactions.notna()]
    assert len(clean) > 100
    for c in ("text_norm", "score", "alt", "score_alt", "token_count", "similarity_score"):
        assert clean[c].notna().all(), c
    assert (clean.score > 80).all() and (clean.score_alt > 85).all()
    # early failures: every scoring column null (reference :134-143,146-211)
    early = df[df.first_failing_check.isin(["text_missing", "conv_id_missing", "text_too_short", "stop_word", "low_engagement"])]
    assert len(early) > 0
    for c in ("score", "alt", "score_alt", "token_count", "similarity_score"):
        assert early[c].isna().all(), c
    # low_score: score set, rest null (reference :155-168)
    ls = df[df.first_failing_check == "low_score"]
    assert len(ls) > 0 and ls.score.notna().all() and (ls.score <= 80).all()
    for c in ("alt", "score_alt", "token_count", "similarity_score"):
        assert ls[c].isna().all(), c
    # low_score_alt: score, alt, score_alt set; embedding-proxy null (:171-185)
    la = df[df.first_failing_check == "low_score_alt"]
    assert len(la) > 0 and la.score.notna().all() and la.alt.notna().all() and la.score_alt.notna().all()
    for c in ("token_count", "similarity_score"):
        assert la[c].isna().all(), c


def test_credits_gate_passes_unscored(dataset):
    # reference tests/test_processor.py:410-475: no credits → rows PASS with
    # every scoring field null
    ann, vio = _run_chain(dataset, ValidationConfig(scoring_enabled=False))
    df = ann.to_pandas()
    assert not df.first_failing_check.isin(["low_score", "low_score_alt"]).any()
    survivors = df[df.first_failing_check.isna()]
    for c in ("score", "alt", "score_alt", "token_count", "similarity_score"):
        assert survivors[c].isna().all(), c
    # early checks still fire
    kinds = set(vio.to_pandas().check_id)
    assert {"text_missing", "text_too_short", "stop_word"} <= kinds


def test_normalize_then_measure_order():
    # a text over 200 chars whose trailing link strip drops it under 200
    # (reference processor.py:106-109 normalization precedes the length check)
    body = "x" * 150
    link = " [link text that is long enough to matter](https://example.com/aaaaaaaaaaaaaaaaaaaaaaaaaa)"
    t = pa.table(
        {
            "conv_id": ["c1"], "turn_idx": pa.array([0], pa.int32()), "role": ["user"],
            "text": [body + link], "tool": [None],
            "ts": pa.array([0], pa.timestamp("us")),
        }
    )
    assert len(body + link) >= 200
    ann = evaluate_chain(t, ValidationConfig())
    assert ann["first_failing_check"].to_pylist() == ["text_too_short"]
    assert ann["text_norm"].to_pylist() == [body]


def test_stop_word_detail_records_pattern():
    text = ("word " * 50).strip() + " эзотерика tail"
    t = pa.table(
        {
            "conv_id": ["c1"], "turn_idx": pa.array([0], pa.int32()), "role": ["user"],
            "text": [text], "tool": [None], "ts": pa.array([0], pa.timestamp("us")),
        }
    )
    ann = evaluate_chain(t, ValidationConfig())
    vio = chain_violations(ann).to_pandas()
    assert list(vio.check_id) == ["stop_word"]
    assert list(vio.detail) == ["эзотери"]  # prefix pattern matched (settings.py:17-21 analog)


def test_last_row_er_exemption():
    # two-turn conv, both with terrible ER at volume: interior row flagged,
    # final row exempt (reference processor.py:76-77,116-119)
    base = " ".join(f"word{i}" for i in range(60))
    t = pa.table(
        {
            "conv_id": ["c1", "c1"], "turn_idx": pa.array([0, 1], pa.int32()),
            "role": ["user", "user"], "text": [base, base], "tool": [None, None],
            "ts": pa.array([0, 1], pa.timestamp("us")),
            "views": pa.array([5000, 5000], pa.int64()),
            "reactions": pa.array([1, 1], pa.int64()),
            "forwards": pa.array([0, 0], pa.int64()),
        }
    )
    ann = evaluate_chain(t, ValidationConfig())
    ff = ann["first_failing_check"].to_pylist()
    assert ff[0] == "low_engagement" and ff[1] is None


def _conv_last_reference(conv_values, turns):
    """The pandas groupby that built the last-turn map before the Arrow
    kernel: per-conversation max over non-null turns, null ids dropped."""
    g = pd.Series(np.asarray(turns)).groupby(np.asarray(conv_values, dtype=object)).max()
    kh = hash_strings(np.asarray(g.index, dtype=object))
    order = np.argsort(kh)
    return kh[order], g.to_numpy()[order]


def test_last_turn_exemption_with_null_and_negative_turns():
    """A conversation whose turns are a null and only negative values: its
    last turn is the max of the non-null turns (-1), as the pandas groupby
    had it, so only that row is exempt from the ER check; a conversation
    with only a null turn has no last turn."""
    base = " ".join(f"word{i}" for i in range(60))
    n = 5
    t = pa.table(
        {
            "conv_id": pa.array(["c1", "c1", "c1", "c2", None], pa.string()),
            "turn_idx": pa.array([None, -3, -1, None, 0], pa.int32()),
            "role": ["user"] * n, "text": [base] * n, "tool": [None] * n,
            "ts": pa.array(range(n), pa.timestamp("us")),
            "views": pa.array([5000] * n, pa.int64()),
            "reactions": pa.array([1] * n, pa.int64()),
            "forwards": pa.array([0] * n, pa.int64()),
        }
    )
    conv_last = build_conv_last(t)
    want = _conv_last_reference(t["conv_id"].to_pandas(), t["turn_idx"].to_numpy(zero_copy_only=False))
    for got_part, want_part in zip(conv_last, want):
        np.testing.assert_array_equal(got_part, want_part)
    ff = evaluate_chain(t, ValidationConfig(), conv_last=conv_last)["first_failing_check"].to_pylist()
    assert ff == ["low_engagement", "low_engagement", None, "low_engagement", "conv_id_missing"]
    # the batch-local path (no map passed) agrees
    assert evaluate_chain(t, ValidationConfig())["first_failing_check"].to_pylist() == ff


def test_er_low_views_exempt():
    # views <= min_views → never flagged regardless of ER (processor.py:118)
    base = " ".join(f"word{i}" for i in range(60))
    t = pa.table(
        {
            "conv_id": ["c1", "c1"], "turn_idx": pa.array([0, 1], pa.int32()),
            "role": ["user", "user"], "text": [base, base], "tool": [None, None],
            "ts": pa.array([0, 1], pa.timestamp("us")),
            "views": pa.array([40, 40], pa.int64()),
            "reactions": pa.array([0, 0], pa.int64()),
            "forwards": pa.array([0, 0], pa.int64()),
        }
    )
    ann = evaluate_chain(t, ValidationConfig())
    assert ann["first_failing_check"].to_pylist() == [None, None]
    # but reactions=0 → metrics_missing (processor.py:147-157: 0 fails too)
    vio = chain_violations(ann).to_pandas()
    assert set(vio.check_id) == {"metrics_missing"}


def test_scorer_injection_seam(monkeypatch):
    """A custom scorer plugged in via the config's 'module:factory' spec
    drives P8-P10: constructed once per process, receives the rewritten
    TEXT (no consumes_token_batch flag), and its thresholds decide the
    low_score / low_score_alt verdicts."""
    import sys
    import types

    import pyarrow as pa

    from teleharvest_ray.functions import scoring

    made = []

    class EveryOther:
        def score(self, texts):
            # fail every odd original position (encoded in text suffix)
            return np.array([100.0 if t.endswith("0") else 1.0 for t in texts.to_pylist()])

        def rewrite(self, texts):
            return texts  # identity rewrite

        def score_alt(self, texts):
            assert isinstance(texts, (pa.Array, pa.ChunkedArray))  # not a TokenBatch
            return np.full(len(texts), 99.0)

    def make():
        made.append(1)
        return EveryOther()

    mod = types.ModuleType("fake_scorer_mod")
    mod.make = make
    monkeypatch.setitem(sys.modules, "fake_scorer_mod", mod)
    scoring.get_scorer.cache_clear()

    cfg = ValidationConfig(min_len=1, stop_words=(), scorer="fake_scorer_mod:make")
    base = "x " * 40
    tbl = pa.table(
        {
            "conv_id": pa.array([f"c{i}" for i in range(4)], pa.string()),
            "turn_idx": pa.array(np.arange(4, dtype=np.int32), pa.int32()),
            "text": pa.array([base + str(i % 2) for i in range(4)], pa.string()),
        }
    )
    ann = evaluate_chain(tbl, cfg)
    ann2 = evaluate_chain(tbl, cfg)  # second batch: factory NOT re-invoked
    assert made == [1]
    ff = ann["first_failing_check"].to_pylist()
    assert ff == [None, "low_score", None, "low_score"]
    assert ann["score_alt"].to_pylist()[0] == 99.0
    assert ann2["first_failing_check"].to_pylist() == ff
    scoring.get_scorer.cache_clear()


def test_scorer_spec_validation():
    from teleharvest_ray.functions.scoring import get_scorer

    with pytest.raises(ValueError, match="scorer spec"):
        get_scorer("nonsense")

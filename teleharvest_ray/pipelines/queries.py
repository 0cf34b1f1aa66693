"""The query surface: one callable per implemented operator/pipeline
(SURVEY.md §2), each with a DuckDB oracle where SQL can express it.

Every callable takes ``sf_dir`` (a /root/testdata/sf* directory) and returns
a Dataset / pandas DataFrame / pyarrow Table. Column names match the oracle
SQL exactly (driver hashes values under sorted column names). Float columns
are rounded identically on both sides where accumulation order could differ.

The transcript-validation entries synthesize their input deterministically
(seeded generator, cached under /tmp) because the transcript table is this
engine's native input shape (BASELINE.json input_hint) and is not part of
the shared sf tables; they carry rows-only checks.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray as _ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum

from ..config import ValidationConfig
from ..functions import textfuncs as tf
from ..functions.sketches import CountMinSketch, HyperLogLog
from ..sources.datagen import GenSpec, generate
from ..stages import dedup as dd
from ..stages import joins as jn
from ..stages import multimodal as mm
from ..stages import embed as emb
from ..stages import similarity as sim
from ..stages import text_analysis as ta
from ..stages import windows as wd
from .validate import read_violations, run_validation

_SYNTH_ROOT = "/tmp/teleharvest_synth"
_OUT_ROOT = "/tmp/teleharvest_out"

_SF_ROWS = {"sf0.001": 6_000, "sf0.01": 60_000, "sf0.1": 2_000_000}
_SF_FILES = {"sf0.001": 8, "sf0.01": 16, "sf0.1": 128}


def synth_transcripts(sf_dir: str) -> str:
    """Deterministic transcript dataset sized to the sf level, cached."""
    base = os.path.basename(os.path.normpath(sf_dir))
    rows = _SF_ROWS.get(base, 6_000)
    files = _SF_FILES.get(base, 8)
    out = os.path.join(_SYNTH_ROOT, base)
    if not os.path.exists(os.path.join(out, "manifest.json")):
        generate(out, GenSpec(rows_hint=rows, n_files=files, seed=42, hot_conv=True))
    return out


def _p(sf_dir: str, table: str) -> str:
    return os.path.join(sf_dir, f"{table}.parquet")


# ---------------------------------------------------------------------------
# transcript validation (native input; rows-only checks)
# ---------------------------------------------------------------------------


def validate_transcripts(sf_dir: str) -> pd.DataFrame:
    data = synth_transcripts(sf_dir)
    out = os.path.join(_OUT_ROOT, os.path.basename(data))
    shutil.rmtree(out, ignore_errors=True)
    run_validation(data, out, ValidationConfig())
    vio = read_violations(out)
    return vio.sort_values(["check_id", "conv_id", "turn_idx"]).reset_index(drop=True)


def transcript_stats(sf_dir: str) -> pd.DataFrame:
    data = synth_transcripts(sf_dir)
    out = os.path.join(_OUT_ROOT, os.path.basename(data) + "_stats")
    shutil.rmtree(out, ignore_errors=True)
    s = run_validation(data, out, ValidationConfig())
    cs = s["column_stats"]
    return pd.DataFrame(
        [
            {
                "n_rows": s["rows_scanned"],
                "n_partitions": s["n_partitions"],
                "violations_total": s["violations_partition_local"] + s["violations_global"],
                "approx_distinct_convs": cs["approx_distinct_convs"],
                "text_len_p50": cs["text_len"]["p50"],
                "token_p50": cs["token_count"]["p50"],
            }
        ]
    )


# ---------------------------------------------------------------------------
# the flagship chain, oracle-backed: a transcript table DERIVED from the
# shared documents table (deterministic row-wise arithmetic reproduced in
# SQL), run through the REAL evaluate_chain/chain_violations engine
# ---------------------------------------------------------------------------

#: planted-mutation text tails (kept as constants so the SQL stays in sync)
_VV_STOP_PLANT = " таро"  # the 3rd default stop word (config.DEFAULT_STOP_WORDS)


def derive_transcript(tbl: pa.Table) -> pa.Table:
    """Deterministic row-wise transcript derivation from (doc_id, text):
    conv_id/turn_idx from doc_id arithmetic, metric columns from modular
    arithmetic, and planted mutations (one modulus per chain check) so every
    check fires. Every operation is reproduced literally in the
    q_validate_violations oracle SQL — this is what makes the flagship
    chain (reference processor.py:97-157 semantics) driver-verifiable."""
    did = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    base = np.asarray(tbl["text"].to_pandas(), dtype=object)
    base = np.where(pd.isna(base), "", base).astype(object)
    conv = np.asarray("c" + pd.Series(did // 10).astype(str), dtype=object)
    conv[did % 29 == 0] = ""  # P2 plant
    t = base.copy()
    m23 = did % 23 == 0  # P1: empty text
    m37 = (did % 37 == 0) & ~m23  # P5: stop word
    m41 = (did % 41 == 0) & ~m23 & ~m37  # P8: symbol tail → low quality score
    m43 = (did % 43 == 0) & ~m23 & ~m37 & ~m41  # P10: repeated word → low alt score
    m47 = (did % 47 == 0) & ~m23 & ~m37 & ~m41 & ~m43  # P3: trailing md link
    t[m23] = ""
    t[m37] = t[m37] + _VV_STOP_PLANT
    t[m41] = t[m41] + (" " + "#?*" * 40)
    t[m43] = t[m43] + (" alpha" * 60)
    t[m47] = t[m47] + "\n[link](https://example.com)"
    views = pa.array(
        np.where(did % 13 == 0, 0, (did * 37) % 1000 + 51),
        pa.int64(),
        mask=(did % 19 == 0),  # metrics_missing plants: null / zero views
    )
    reactions = pa.array(np.where(did % 17 == 0, 0, (did * 11) % 50), pa.int64())
    forwards = pa.array((did * 7) % 20, pa.int64())
    return pa.table(
        {
            "doc_id": pa.array(did),  # provenance passthrough (shard = doc_id // 100)
            "conv_id": pa.array(conv, pa.string()),
            "turn_idx": pa.array((did % 10).astype(np.int32), pa.int32()),
            "text": pa.array(t, pa.string()),
            "views": views,
            "reactions": reactions,
            "forwards": forwards,
        }
    )


def q_validate_violations(sf_dir: str) -> pd.DataFrame:
    """The flagship validation chain P1→P10 + metrics_missing, oracle-backed.

    Runs the REAL chain kernels (stages/row_checks.evaluate_chain /
    chain_violations — reference semantics processor.py:97-157) over a
    transcript table derived deterministically from the shared documents
    table, so DuckDB can replay every check: presence, normalize-then-length,
    stop words (first match recorded), ER arithmetic with the last-turn
    exemption, byte-class quality score, rewrite + distinct-word alt score —
    all bit-exact (integer arithmetic + single IEEE divisions).

    Scale shape: derivation and chain are per-batch map_batches; the only
    shared state is the per-conversation max-turn map for the P6 exemption,
    reduced via per-batch partials → tiny groupby → ``ray.put`` broadcast
    (conversation-count-sized, the S7 profile-broadcast pattern; the
    production engine scopes this map per partition file instead —
    pipelines/validate.py)."""
    from ..stages.row_checks import chain_violations, evaluate_chain

    derived, conv_ref, cfg = _vv_pipeline(sf_dir)

    def run_chain(tbl: pa.Table, _r=conv_ref) -> pa.Table:
        ann = evaluate_chain(tbl, cfg, exemplars=None, conv_last=_ray.get(_r))
        return chain_violations(ann)

    vio = derived.map_batches(run_chain, batch_format="pyarrow", batch_size=None).to_pandas()
    return vio.sort_values(["check_id", "conv_id", "turn_idx"]).reset_index(drop=True)


def _vv_pipeline(sf_dir: str):
    """Shared front of the flagship queries: derived transcript stream +
    the broadcast per-conversation max-turn map (per-batch Arrow partials
    through the validator's own kernel, gathered and folded by
    ``build_conv_last``, which takes the max again → ``ray.put``) + the
    default config."""
    from ..stages.row_checks import build_conv_last, conv_max_turn

    cfg = ValidationConfig()
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    derived = ds.map_batches(derive_transcript, batch_format="pyarrow", batch_size=None)
    partials = derived.map_batches(conv_max_turn, batch_format="pyarrow", batch_size=None)
    conv_last = build_conv_last(pa.concat_tables(_ray.get(partials.to_arrow_refs())))
    return derived, _ray.put(conv_last), cfg


def q_validate_annotated(sf_dir: str) -> pd.DataFrame:
    """The chain's NULL-STATE MACHINE, oracle-backed per row: every derived
    column (er, score, score_alt, token_count) is nulled past the row's
    first failure (SURVEY.md §1.1; reference processor.py's early returns),
    and this query certifies exactly where each value stops being visible.
    Values ship as integer ppm floors (-1 = not reached) so the comparison
    is dtype-exact; each underlying value is a single IEEE expression, so
    the floors agree bit-for-bit with DuckDB."""
    from ..stages.row_checks import evaluate_chain

    derived, conv_ref, cfg = _vv_pipeline(sf_dir)

    def annotate(tbl: pa.Table, _r=conv_ref) -> pa.Table:
        ann = evaluate_chain(tbl, cfg, exemplars=None, conv_last=_ray.get(_r))

        def ppm(col: str) -> pa.Array:
            v = ann[col].to_numpy(zero_copy_only=False).astype(np.float64)
            return pa.array(np.where(np.isnan(v), -1, np.floor(v * 1e6)).astype(np.int64))

        tc = ann["token_count"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "conv_id": ann["conv_id"],
                "turn_idx": ann["turn_idx"],
                "first_failing_check": ann["first_failing_check"],
                "er_ppm": ppm("er"),
                "score_ppm": ppm("score"),
                "score_alt_ppm": ppm("score_alt"),
                "token_count": pa.array(np.where(np.isnan(tc), -1, tc).astype(np.int64)),
            }
        )

    out = derived.map_batches(annotate, batch_format="pyarrow", batch_size=None).to_pandas()
    return out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def q_validate_partition_report(sf_dir: str) -> pd.DataFrame:
    """Per-partition pass/fail + violation counts — the north_rule's rollup
    record (pipelines/validate.py writes the production analog per file),
    oracle-backed over the derived transcript: shard = doc_id // 100,
    violations = chain failures + metrics_missing rows. Per-batch partials →
    one tiny groupby; the violation rows themselves never ship."""
    from ..stages.row_checks import evaluate_chain, metrics_missing

    derived, conv_ref, cfg = _vv_pipeline(sf_dir)

    def partial(tbl: pa.Table, _r=conv_ref) -> pa.Table:
        ann = evaluate_chain(tbl, cfg, exemplars=None, conv_last=_ray.get(_r))
        did = ann["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        shard = did // 100
        ff = np.asarray(ann["first_failing_check"].to_pandas(), dtype=object)
        nv = pd.notna(ff).astype(np.int64) + metrics_missing(ann).astype(np.int64)
        g = pd.DataFrame({"shard": shard, "nv": nv}).groupby("shard", sort=False)["nv"].agg(
            ["size", "sum"]
        )
        return pa.table(
            {
                "shard": pa.array(g.index.to_numpy()),
                "n_rows": pa.array(g["size"].to_numpy().astype(np.int64)),
                "n_violations": pa.array(g["sum"].to_numpy().astype(np.int64)),
            }
        )

    out = (
        derived.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .repartition(2)
        .groupby("shard")
        .aggregate(Sum("n_rows", alias_name="n_rows"), Sum("n_violations", alias_name="n_violations"))
        .to_pandas()
    )
    out["n_rows"] = out["n_rows"].astype("int64")
    out["n_violations"] = out["n_violations"].astype("int64")
    out["pass_flag"] = (out["n_violations"] == 0).astype("int64")
    return out.sort_values("shard").reset_index(drop=True)[
        ["shard", "n_rows", "n_violations", "pass_flag"]
    ]


# ---------------------------------------------------------------------------
# aggregates (G1-G6) — lineitem / orders / events
# ---------------------------------------------------------------------------


def q_pricing_summary(sf_dir: str) -> pd.DataFrame:
    """TPC-H-Q1-shaped grouped aggregate with per-batch PRE-AGGREGATION:
    partials per (flag,status) inside map_batches, then a tiny groupby over
    partials — the shuffle carries one row per key per batch, not the data."""
    ds = rd.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pd.DataFrame) -> pa.Table:
        batch = batch.assign(revenue=batch.l_extendedprice * (1 - batch.l_discount))
        g = batch.groupby(["l_returnflag", "l_linestatus"], sort=False).agg(
            sum_qty=("l_quantity", "sum"),
            sum_revenue=("revenue", "sum"),
            n=("l_quantity", "size"),
        )
        # arrow out: Ray's aggregate over pandas blocks falls off the
        # vectorized path (measured 12x slower on this box)
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    # coalesce the key-x-batch-sized partials before the groupby: the
    # aggregate's output partition count follows its input block count, and
    # with ~6 keys spread over dozens of blocks most output partitions come
    # out EMPTY (schema-less pandas blocks -> executor schema warnings).
    # Partials are tiny at any input scale, so this shuffles almost nothing.
    partials = ds.map_batches(partial, batch_format="pandas", batch_size=None).repartition(2)
    out = (
        partials.groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("sum_revenue", alias_name="sum_revenue"),
            Sum("n", alias_name="n"),
        )
        .to_pandas()
    )
    out["avg_qty"] = (out.sum_qty / out.n).round(4)
    out["sum_qty"] = out.sum_qty.round(2)
    out["sum_revenue"] = out.sum_revenue.round(2)
    return out[["l_returnflag", "l_linestatus", "sum_qty", "sum_revenue", "avg_qty", "n"]]


def q_user_watermarks(sf_dir: str) -> pd.DataFrame:
    """Per-entity watermark (G2/O1: the reference's last-id query,
    models/message.py:75-89) + window start (G3/O2, :91-110)."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["user_id", "event_id"])
    out = (
        ds.groupby("user_id")
        .aggregate(
            Max("event_id", alias_name="watermark"),
            Min("event_id", alias_name="first_id"),
            Count(alias_name="n_events"),
        )
        .to_pandas()
    )
    return out


def q_seq_check(sf_dir: str) -> pd.DataFrame:
    """Gap-free sequence audit on (l_orderkey, l_linenumber) — the keyspace
    sequence check (north_rule) expressed over a shared table so the oracle
    can verify it: gap-free ⟺ min=1 ∧ max=n_distinct."""
    ds = rd.read_parquet(_p(sf_dir, "lineitem"), columns=["l_orderkey", "l_linenumber"])

    def partial(batch: pd.DataFrame) -> pa.Table:
        g = batch.groupby("l_orderkey", sort=False)["l_linenumber"].agg(["size", "min", "max"])
        g = g.reset_index().rename(columns={"size": "n_lines", "min": "min_line", "max": "max_line"})
        return pa.Table.from_pandas(g, preserve_index=False)  # arrow out (vectorized agg path)

    # materialize the (small) combiner output before the wide groupby: the
    # fused map->sort path degrades ~8x on this box (measured); partials are
    # orders of magnitude smaller than the data, so pinning them is the
    # standard combiner pattern, not a full-input materialization
    partials = ds.map_batches(partial, batch_format="pandas", batch_size=None).materialize()
    out = (
        partials.groupby("l_orderkey")
        .aggregate(
            Sum("n_lines", alias_name="n_lines"),
            Min("min_line", alias_name="min_line"),
            Max("max_line", alias_name="max_line"),
        )
        .to_pandas()
    )
    # NB: this is the NECESSARY condition min=1 ∧ max=count(*) — duplicates can
    # mask gaps here (the fixtures do contain duplicate (orderkey, linenumber)
    # pairs), exactly matching the oracle's formula; the dup-aware EXACT
    # sequence check lives in the transcript engine (stages/keyspace.py)
    out["gap_free"] = (out.min_line == 1) & (out.max_line == out.n_lines)
    # l_linenumber is int32 on disk; match the oracle's MIN/MAX output width
    out["min_line"] = out.min_line.astype("int32")
    out["max_line"] = out.max_line.astype("int32")
    return out


def q_event_windows(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1-hour window aggregate per user (streaming-shaped workload:
    window column inside map_batches, then grouped aggregate)."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["user_id", "ts", "value"])

    def add_win(tbl: pa.Table) -> pa.Table:
        us = tbl["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        win = us // 3_600_000_000
        return pa.table({"user_id": tbl["user_id"], "win": pa.array(win), "value": tbl["value"]})

    out = (
        ds.map_batches(add_win, batch_format="pyarrow", batch_size=None)
        .groupby(["user_id", "win"])
        .aggregate(Count(alias_name="n"), Sum("value", alias_name="sum_value"))
        .to_pandas()
    )
    out["sum_value"] = out.sum_value.round(2)
    return out


def q_column_stats(sf_dir: str) -> pd.DataFrame:
    """Column stats (G6) with EXACT distinct for oracle parity (the engine's
    scale path uses HLL — see q_hll_accuracy)."""
    ds = rd.read_parquet(_p(sf_dir, "lineitem"), columns=["l_orderkey", "l_quantity", "l_shipdate"])
    agg = ds.aggregate(
        Count(alias_name="n_rows"),
        Min("l_quantity", alias_name="min_qty"),
        Max("l_quantity", alias_name="max_qty"),
        Min("l_shipdate", alias_name="min_ship"),
        Max("l_shipdate", alias_name="max_ship"),
    )
    # exact distinct via distributed groupby + metadata count — the
    # distinct key set never reaches the driver (q_distinct_users_per_type
    # shape; the approximate scale path is HLL, see q_hll_accuracy)
    n_orders = ds.groupby("l_orderkey").aggregate(Count(alias_name="c")).count()
    out = pd.DataFrame(
        [
            {
                "n_rows": agg["n_rows"],
                "n_orders": n_orders,
                "min_qty": round(agg["min_qty"], 2),
                "max_qty": round(agg["max_qty"], 2),
                "min_ship": agg["min_ship"],
                "max_ship": agg["max_ship"],
            }
        ]
    )
    # parquet timestamps are microsecond; DuckDB surfaces datetime64[us]
    out["min_ship"] = out.min_ship.astype("datetime64[us]")
    out["max_ship"] = out.max_ship.astype("datetime64[us]")
    return out


def q_hll_accuracy(sf_dir: str) -> pd.DataFrame:
    """HLL approx-distinct certified against the exact count. Oracle-backed:
    ``n_exact`` is the SQL COUNT(DISTINCT); ``within_3sigma`` asserts the
    merged sketch's relative error is inside 3x its published standard error
    (1.04/sqrt(2^p) = 0.81% at p=14, so the bound is 2.44%) — the oracle pins
    it TRUE, making an out-of-bound sketch a hash mismatch, not a silent
    degradation."""
    ds = rd.read_parquet(_p(sf_dir, "lineitem"), columns=["l_orderkey"])

    def sketch(tbl: pa.Table) -> pa.Table:
        h = HyperLogLog(p=14)
        h.update_ints(tbl["l_orderkey"].to_numpy(zero_copy_only=False))
        return pa.table({"blob": pa.array([h.to_bytes()], pa.binary())})

    blobs = ds.map_batches(sketch, batch_format="pyarrow").to_pandas()["blob"]
    merged = HyperLogLog(p=14)
    for b in blobs:
        merged.merge(HyperLogLog.from_bytes(b))
    # exact reference count stays distributed: groupby shuffle + count()
    # (block-metadata sum) — no driver-side distinct-key collection
    exact = ds.groupby("l_orderkey").aggregate(Count(alias_name="c")).count()
    est = merged.estimate()
    ok = abs(est - exact) / exact <= 3 * 1.04 / np.sqrt(2**14)
    return pd.DataFrame([{"n_exact": np.int64(exact), "within_3sigma": np.int64(ok)}])


# ---------------------------------------------------------------------------
# predicates / text analysis — documents
# ---------------------------------------------------------------------------

DOC_STOP_WORDS = ("slow", "error")


def q_filter_chain(sf_dir: str) -> pd.DataFrame:
    """The P1→P5 short-circuit verdict over the shared documents table (the
    oracle-checkable twin of the transcript chain; same precedence logic)."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def verdict(tbl: pa.Table) -> pa.Table:
        text = tbl["text"]
        n = tbl.num_rows
        missing = pc.or_kleene(pc.is_null(text), pc.equal(text, "")).to_numpy(zero_copy_only=False)
        missing = np.asarray(missing, dtype=object) == True  # noqa: E712
        tlen = pc.utf8_length(text).to_numpy(zero_copy_only=False)
        tlen = np.where(pd.isna(tlen), 0, tlen)
        short = ~missing & (tlen < 100)
        ff = np.full(n, None, dtype=object)
        stop = np.zeros(n, dtype=bool)
        for w in DOC_STOP_WORDS:
            m = pc.match_substring_regex(text, w).to_numpy(zero_copy_only=False)
            stop |= (np.asarray(m, dtype=object) == True) & ~missing & ~short  # noqa: E712
        ff[stop] = "stop_word"
        ff[short] = "text_too_short"
        ff[missing] = "text_missing"
        return pa.table({"doc_id": tbl["doc_id"], "first_failing_check": pa.array(ff, pa.string())})

    return ds.map_batches(verdict, batch_format="pyarrow", batch_size=None).to_pandas()


def q_token_stats(sf_dir: str) -> pd.DataFrame:
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    out = ds.map_batches(lambda t: ta.token_stats(t).drop_columns(["text"]), batch_format="pyarrow", batch_size=None)
    return out.to_pandas()


def q_quality_counts(sf_dir: str) -> pd.DataFrame:
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    out = ds.map_batches(lambda t: ta.quality_counts(t).drop_columns(["text"]), batch_format="pyarrow", batch_size=None)
    return out.to_pandas()


def q_pii_scan(sf_dir: str) -> pd.DataFrame:
    """Corpus PII/contamination audit: per-doc RE2 pattern counts rolled up
    to totals + affected-doc counts (oracle-backed — DuckDB is RE2 too, so
    the match counts agree exactly; see stages/text_analysis.PII_PATTERNS)."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def scan(tbl: pa.Table) -> pa.Table:
        # emit the 0/1 affected-doc flags alongside the counts so ONE
        # aggregate consumes everything — a second consumer of an
        # unmaterialized per-doc stream would re-run all four regex passes
        out = ta.pii_scan(tbl)
        return out.append_column(
            "e", pc.cast(pc.greater(out["n_email"], 0), pa.int64())
        ).append_column("m", pc.cast(pc.greater(out["n_marker"], 0), pa.int64()))

    agg = ds.map_batches(scan, batch_format="pyarrow", batch_size=None).aggregate(
        Count(alias_name="n_docs"),
        Sum("n_email", alias_name="total_emails"),
        Sum("n_url", alias_name="total_urls"),
        Sum("n_intl_phone", alias_name="total_phones"),
        Sum("n_marker", alias_name="total_markers"),
        Sum("e", alias_name="docs_with_email"),
        Sum("m", alias_name="docs_with_marker"),
    )
    return pd.DataFrame(
        [
            {
                "n_docs": agg["n_docs"],
                "total_emails": agg["total_emails"],
                "total_urls": agg["total_urls"],
                "total_phones": agg["total_phones"],
                "total_markers": agg["total_markers"],
                "docs_with_email": agg["docs_with_email"],
                "docs_with_marker": agg["docs_with_marker"],
            }
        ]
    )


def q_lang_id(sf_dir: str) -> pd.DataFrame:
    """Heuristic language-ID as an actor-pool stage (rows-only: the heuristic
    is deterministic but not SQL-expressible)."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    out = ds.map_batches(ta.LangIdStage, batch_format="pandas", concurrency=2, batch_size=2048)
    return out.to_pandas()[["doc_id", "lang_pred"]].sort_values("doc_id").reset_index(drop=True)


def q_lang_id_accuracy(sf_dir: str) -> pd.DataFrame:
    """Lang-ID certificate: language-marked docs planted deterministically
    from doc_id (three UNIQUE marker words of the true language + neutral
    filler), scored by the real LangIdStage actor pool. Output pins
    ``n_correct = n_docs`` — the plant is unambiguous by construction
    (shared cross-language markers are excluded), so ANY misprediction
    becomes a value-hash mismatch, not a silent accuracy drop. acc_ok
    asserts accuracy ≥ 0.95 (the q_ann_recall/q_hll_accuracy certificate
    pattern)."""
    from ..stages.text_analysis import _LANG_MARKERS

    langs = sorted(_LANG_MARKERS)
    counts = {w: sum(w in _LANG_MARKERS[l] for l in langs) for l in langs for w in _LANG_MARKERS[l]}
    uniq = [sorted(w for w in _LANG_MARKERS[l] if counts[w] == 1) for l in langs]
    width = min(len(u) for u in uniq)
    mk = np.array([u[:width] for u in uniq], dtype=object)  # (n_langs, width)
    lang_arr = np.array(langs, dtype=object)

    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id"])

    def plant(tbl: pa.Table) -> pd.DataFrame:
        did = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        li = (did % len(langs)).astype(np.int64)
        w1 = mk[li, (did // 7) % width]
        w2 = mk[li, (did // 11) % width]
        w3 = mk[li, (did // 13) % width]
        text = w1 + " zz " + w2 + " qq " + w3 + " xylophone"
        return pd.DataFrame({"doc_id": did, "text": text, "lang_true": lang_arr[li]})

    planted = ds.map_batches(plant, batch_format="pyarrow", batch_size=None)
    scored = planted.map_batches(ta.LangIdStage, batch_format="pandas", concurrency=2, batch_size=2048)

    def verdicts(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n": [np.int64(len(batch))],
                "c": [np.int64((batch["lang_pred"] == batch["lang_true"]).sum())],
            }
        )

    agg = scored.map_batches(verdicts, batch_format="pandas", batch_size=None).aggregate(
        Sum("n", alias_name="n_docs"), Sum("c", alias_name="n_correct")
    )
    acc_ok = np.int64(agg["n_correct"] >= 0.95 * agg["n_docs"])
    return pd.DataFrame(
        [{"n_docs": np.int64(agg["n_docs"]), "n_correct": np.int64(agg["n_correct"]), "acc_ok": acc_ok}]
    )


def q_fingerprint(sf_dir: str) -> pd.DataFrame:
    """Per-doc 64-bit content fingerprint (oracle-backed: the polynomial
    rolling hash + splitmix64 finalizer is reproduced bit-exactly in DuckDB
    — see _fingerprint_sql). Null-text docs are excluded on both sides."""

    def fp(tbl: pa.Table) -> pa.Table:
        tbl = tbl.filter(pc.is_valid(tbl["text"]))
        return ta.fingerprint64(tbl).drop_columns(["text"])

    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    out = ds.map_batches(fp, batch_format="pyarrow", batch_size=None)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def q_embed_documents(sf_dir: str) -> pd.DataFrame:
    """Actor-pool embedding stage over documents (the A3 heavy-model seam,
    stages/embed.py; hashed_bow backend). Emits a per-doc summary of the
    embedding — dimensionality plus L2 norm, computed vectorized per batch.
    The norm is the ORACLE-CHECKABLE invariant: hashed_bow L2-normalizes, so
    every tokenizable doc must come out exactly unit-norm and every
    empty/whitespace-only doc exactly zero — SQL can derive both from the
    text alone, pinning the stage's normalization contract end-to-end."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    embedded = emb.embed_texts(ds, concurrency=2, batch_size=2048)

    def summarize(tbl: pa.Table) -> pa.Table:
        col = tbl["embedding"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.values.to_numpy(zero_copy_only=False)
        offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        norms = np.zeros(len(col))
        if len(flat):
            m = int(np.searchsorted(offs[:-1], offs[-1], side="left"))
            if m:
                norms[:m] = np.sqrt(np.add.reduceat(flat[: offs[-1]] ** 2, offs[:-1][:m]))
            norms[offs[1:] == offs[:-1]] = 0.0
        return pa.table(
            {
                "doc_id": tbl["doc_id"],
                "vec_dim": pa.array((offs[1:] - offs[:-1]).astype(np.int64)),
                "vec_norm": pa.array(np.round(norms, 6)),
            }
        )

    out = embedded.map_batches(summarize, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_props_extract(sf_dir: str) -> pd.DataFrame:
    """JSON field extraction from the events props column (scalar-function
    inventory: the reference's json codec, models/message.py:61)."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["event_id", "props"])

    def extract(tbl: pa.Table) -> pa.Table:
        m = pc.extract_regex(tbl["props"], pattern=r'"k": (?P<k>\d+)')
        k = pc.struct_field(m, "k").cast(pa.int64())
        return pa.table({"event_id": tbl["event_id"], "k": k})

    return ds.map_batches(extract, batch_format="pyarrow", batch_size=None).to_pandas()


def q_media_meta(sf_dir: str) -> pd.DataFrame:
    """Multimodal metadata plumbing over an opaque payload (documents text
    bytes stand in for the binary payload; see stages/multimodal.py)."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def meta(tbl: pa.Table) -> pa.Table:
        payload = tbl["text"].cast(pa.binary())
        t = pa.table({"doc_id": tbl["doc_id"], "payload": payload})
        return mm.attach_payload_meta(t, "payload").drop_columns(["payload"])

    return ds.map_batches(meta, batch_format="pyarrow", batch_size=None).to_pandas()


#: q_ppm_decode geometry: 16x16 RGB source payloads resized to 8x8
_PPM_SRC, _PPM_OUT = 16, 8


def q_ppm_decode(sf_dir: str) -> pd.DataFrame:
    """REAL multimodal decode, certified end-to-end: binary Netpbm (P6)
    payloads are synthesized from doc_id by pure modular arithmetic
    (pixel(r,c,k) = (doc_id*31 + r*17 + c*13 + k*7) % 256, with a comment
    line in the header to exercise the parser), decoded by the in-repo
    :func:`stages.multimodal.decode_netpbm` kernel in an actor pool, resized
    8x8 nearest-neighbor, and checksummed. Because every decoded byte is an
    analytic function of doc_id, the DuckDB oracle recomputes ``gray_sum``
    from doc_id alone — a header-parse, raster-layout, or resample-index bug
    is a value mismatch, not a silent corruption (the derived-transcript
    trick of q_validate_violations applied to binary decode)."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id"])
    s, o = _PPM_SRC, _PPM_OUT

    def synth(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy(np.int64)
        r = np.arange(s, dtype=np.int64)
        px = (
            ids[:, None, None, None] * 31
            + r[None, :, None, None] * 17
            + r[None, None, :, None] * 13
            + np.arange(3, dtype=np.int64)[None, None, None, :] * 7
        ) % 256
        px = px.astype(np.uint8)
        header = f"P6\n# synthetic payload\n{s} {s}\n255\n".encode()
        return pd.DataFrame(
            {"doc_id": ids, "payload": [header + p.tobytes() for p in px]}
        )

    out = (
        ds.map_batches(synth, batch_format="pandas", batch_size=2048)
        .map_batches(
            mm.ImageDecodeStage,
            fn_constructor_kwargs={"target_size": (o, o), "codec": "ppm"},
            batch_format="pandas",
            concurrency=2,
            batch_size=2048,
        )
        .drop_columns(["payload", "features"])
        .to_pandas()
        .astype("int64")
    )
    return out.sort_values("doc_id").reset_index(drop=True)


# (q_ppm_decode is registered after the QUERIES/ORACLE_SQL literals below)


# ---------------------------------------------------------------------------
# dedup — documents
# ---------------------------------------------------------------------------


def q_dedup_key(sf_dir: str) -> pd.DataFrame:
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "lang", "source"])
    return dd.key_dedup(ds, ["lang", "source"], "doc_id").to_pandas()


def q_exact_text_dedup(sf_dir: str) -> pd.DataFrame:
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    out = dd.exact_text_dedup(ds, "text", "doc_id").to_pandas()
    return out[["doc_id", "n_copies"]].sort_values("doc_id").reset_index(drop=True)


def q_minhash_pairs(sf_dir: str) -> pd.DataFrame:
    """MinHash+LSH candidates verified with exact word-3gram Jaccard ≥ 0.8.

    Oracle-backed: the output is exactly the set of near-dup pairs, so the
    SQL oracle recomputes ALL pairs with exact gram Jaccard ≥ 0.8 — a
    recall miss becomes a row-count mismatch. The banding is sized so that
    is sound AND selective: at 21 bands x 3 rows a J=0.8 pair escapes every
    band with probability (1-0.8^3)^21 ≈ 3e-7 (the corpus' weakest true
    pair measures J=0.888 → ~1e-11), while candidate volume stays ~14x
    below the 2-row-band alternative (measured 299 vs 4089 at sf0.1). Docs
    with fewer than 3 tokens are excluded on both sides (no shingles — only
    they could pair without sharing a gram)."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def shingleable(tbl: pa.Table) -> pa.Table:
        n_tok = pc.count_substring_regex(tbl["text"], pattern=r"\S+")
        return tbl.filter(pc.greater_equal(pc.fill_null(n_tok, 0), 3))

    ds = ds.map_batches(shingleable, batch_format="pyarrow", batch_size=None)
    cands = dd.minhash_lsh_candidates(ds, "text", "doc_id", n_hashes=63, bands=21)
    if not len(cands):
        return cands.assign(jaccard=pd.Series(dtype="float64"))
    # candidate-sized text retrieval (one pruned membership scan), never a
    # corpus-sized id→text dict
    texts = dd.gather_texts(ds, "doc_id", "text", np.concatenate([cands.id_a.to_numpy(), cands.id_b.to_numpy()]))
    id_to_text = dict(zip(texts.doc_id, texts.text))
    out = dd.verify_pairs_jaccard(cands, id_to_text, threshold=0.8)
    out["jaccard"] = out["jaccard"].round(6)
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def q_simhash_pairs(sf_dir: str) -> pd.DataFrame:
    """SimHash near-dup candidates (docs sharing a 16-bit chunk) with exact
    hamming ≤ 12. Oracle-backed: the per-word polynomial+splitmix64 hash
    makes each document's SimHash SQL-computable, and DuckDB replays the
    chunk self-join + bit_count(xor()) hamming exactly (_simhash_sql)."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    pairs = dd.simhash_candidates(ds, "text", "doc_id")
    out = pairs[pairs.hamming <= 12]
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def q_char_jaccard_pairs(sf_dir: str) -> pd.DataFrame:
    """Intra-source char-set Jaccard pairs ≥ 0.98 (DuckDB jaccard() parity)."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text", "source"])
    out = dd.char_jaccard_pairs(ds, "text", "doc_id", "source", threshold=0.98).to_pandas()
    out["jac"] = out["jaccard"].round(6)
    return out[["id_a", "id_b", "jac"]].sort_values(["id_a", "id_b"]).reset_index(drop=True)


def q_near_dup_embedding(sf_dir: str) -> pd.DataFrame:
    emb = pq.read_table(_p(sf_dir, "embeddings"))
    all_vecs = np.stack(emb["embedding"].to_pandas().to_numpy()).astype(np.float64)
    all_ids = emb["vec_id"].to_numpy()
    ds = rd.read_parquet(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    out = dd.embedding_near_dup(ds, "embedding", "vec_id", 0.3, all_vecs, all_ids).to_pandas()
    if not len(out):
        return pd.DataFrame({"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64")})
    return out[["id_a", "id_b"]].sort_values(["id_a", "id_b"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# similarity search — embeddings
# ---------------------------------------------------------------------------

N_QUERIES = 8
TOP_K = 5


def _load_queries(sf_dir: str):
    # row-group filter pushdown: only the N_QUERIES query vectors leave disk
    # (reading the whole embeddings table to select 8 rows cost ~0.5 s at
    # sf0.1 and grows linearly with the corpus)
    emb = pq.read_table(
        _p(sf_dir, "embeddings"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", N_QUERIES)],
    )
    df = emb.to_pandas().sort_values("vec_id")
    return np.stack(df.embedding.to_numpy()).astype(np.float64), df.vec_id.to_numpy()


def q_similarity_topk(sf_dir: str) -> pd.DataFrame:
    qm, qids = _load_queries(sf_dir)
    ds = rd.read_parquet(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    out = sim.topk_cosine(ds, qm, qids, TOP_K)
    return out[["query_id", "rank", "vec_id"]].astype("int64").sort_values(["query_id", "rank"]).reset_index(drop=True)


# ANN tuning for the synthetic 64-d embeddings (near-random directions — the
# hard case for LSH): 5 planes x 24 tables measured per-query recall
# 0.4-1.0 / mean 0.78-0.85 at ~0.53 candidate fraction; the old 8x4 default
# measured ~0.03 mean recall here. IVF n_probe=12/32 measured min 0.4 /
# mean 0.72-0.85 at ~0.38 of lists probed. q_ann_recall certifies both.
LSH_PLANES, LSH_TABLES = 5, 24
IVF_CENTROIDS, IVF_PROBE = 32, 12


def q_similarity_lsh(sf_dir: str) -> pd.DataFrame:
    """LSH-bucketed approximate variant (rows-only; per-query recall is
    oracle-certified by q_ann_recall)."""
    qm, qids = _load_queries(sf_dir)
    ds = rd.read_parquet(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    out = sim.lsh_bucket_topk(ds, qm, qids, TOP_K, n_planes=LSH_PLANES, n_tables=LSH_TABLES)
    return out[["query_id", "rank", "vec_id"]].astype("int64").sort_values(["query_id", "rank"]).reset_index(drop=True)


def q_similarity_ivf(sf_dir: str) -> pd.DataFrame:
    """IVF (inverted-file) approximate variant: sampled spherical k-means
    coarse quantizer, per-batch centroid assignment, n_probe nearest lists
    per query (rows-only; per-query recall is oracle-certified by
    q_ann_recall)."""
    qm, qids = _load_queries(sf_dir)
    ds = rd.read_parquet(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    out = sim.ivf_topk(ds, qm, qids, TOP_K, n_centroids=IVF_CENTROIDS, n_probe=IVF_PROBE)
    return out[["query_id", "rank", "vec_id"]].astype("int64").sort_values(["query_id", "rank"]).reset_index(drop=True)


def q_ann_recall(sf_dir: str) -> pd.DataFrame:
    """Recall certificate for the approximate ANN variants: exact top-k,
    LSH top-k and IVF top-k all run distributed (only candidate rows are
    ever collected), then each query's recall-vs-exact is thresholded at
    0.35 — far below the measured floors (LSH >=0.4, IVF >=0.4 on both test
    scales) yet enough that a broken bucketing/probing scheme (the old 8x4
    LSH default scored ~0.03) becomes a hash mismatch, not a silent
    degradation. The oracle pins every flag TRUE."""
    qm, qids = _load_queries(sf_dir)
    ds = rd.read_parquet(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    exact = sim.topk_cosine(ds, qm, qids, TOP_K)
    lsh = sim.lsh_bucket_topk(ds, qm, qids, TOP_K, n_planes=LSH_PLANES, n_tables=LSH_TABLES)
    ivf = sim.ivf_topk(ds, qm, qids, TOP_K, n_centroids=IVF_CENTROIDS, n_probe=IVF_PROBE)
    rows = []
    for qid in sorted(int(q) for q in qids):
        e = set(exact.loc[exact.query_id == qid, "vec_id"])
        r_lsh = len(set(lsh.loc[lsh.query_id == qid, "vec_id"]) & e) / max(len(e), 1)
        r_ivf = len(set(ivf.loc[ivf.query_id == qid, "vec_id"]) & e) / max(len(e), 1)
        rows.append(
            {
                "query_id": np.int64(qid),
                "k": np.int64(TOP_K),
                "lsh_recall_ok": np.int64(r_lsh >= 0.35),
                "ivf_recall_ok": np.int64(r_ivf >= 0.35),
            }
        )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# joins / sorts — customer/nation/region/orders
# ---------------------------------------------------------------------------


def q_join_enrich(sf_dir: str) -> pd.DataFrame:
    nation = pq.read_table(_p(sf_dir, "nation")).to_pandas()
    region = pq.read_table(_p(sf_dir, "region")).to_pandas()
    dim = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")[
        ["n_nationkey", "n_name", "r_name"]
    ].rename(columns={"n_nationkey": "c_nationkey"})
    ds = rd.read_parquet(_p(sf_dir, "customer"), columns=["c_custkey", "c_name", "c_nationkey"])
    out = jn.broadcast_join(ds, dim, on="c_nationkey").to_pandas()
    return out[["c_custkey", "c_name", "n_name", "r_name"]].sort_values("c_custkey").reset_index(drop=True)


def q_join_orders_customer(sf_dir: str) -> pd.DataFrame:
    orders = rd.read_parquet(_p(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_totalprice"])
    cust = rd.read_parquet(_p(sf_dir, "customer"), columns=["c_custkey", "c_name", "c_mktsegment"])
    cust = cust.map_batches(
        lambda b: b.rename(columns={"c_custkey": "o_custkey"}), batch_format="pandas"
    )
    # explicit n_buckets: the cust side has a pending map_batches rename, so
    # letting the join derive buckets via count() would execute it twice
    joined = jn.bucketed_hash_join(orders, cust, on="o_custkey", n_buckets=32)
    out = joined.to_pandas()
    out["o_totalprice"] = out.o_totalprice.round(2)
    return out[["o_orderkey", "o_totalprice", "c_name", "c_mktsegment"]].sort_values("o_orderkey").reset_index(drop=True)


def q_orphan_customers(sf_dir: str) -> pd.DataFrame:
    """Customers with no orders: size-dispatched anti-join — distributed
    distinct + broadcast under the key budget, bucketed one-shuffle above it
    (jn.anti_join); the raw fact-table key column never lands on the driver."""
    orders = rd.read_parquet(_p(sf_dir, "orders"), columns=["o_custkey"]).map_batches(
        lambda b: b.rename(columns={"o_custkey": "c_custkey"}), batch_format="pandas"
    )
    ds = rd.read_parquet(_p(sf_dir, "customer"), columns=["c_custkey", "c_name"])
    out = jn.anti_join(ds, orders, on="c_custkey", anti=True, n_buckets=32).to_pandas()
    if not len(out):
        return pd.DataFrame({"c_custkey": pd.Series(dtype="int64"), "c_name": pd.Series(dtype="object")})
    return out.sort_values("c_custkey").reset_index(drop=True)


def q_top_orders(sf_dir: str) -> pd.DataFrame:
    ds = rd.read_parquet(_p(sf_dir, "orders"), columns=["o_orderkey", "o_totalprice"])
    top = ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10).to_pandas()
    top["total"] = top.o_totalprice.round(2)
    return top[["o_orderkey", "total"]]


def q_drift_chi2(sf_dir: str) -> pd.DataFrame:
    """Per-source chi-square of lang distribution vs the global distribution
    (G7 drift statistic, oracle-checkable over observed categories)."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["source", "lang"])
    counts = ds.groupby(["source", "lang"]).aggregate(Count(alias_name="n")).to_pandas()
    total = counts.n.sum()
    glob = counts.groupby("lang").n.sum() / total
    per_src = counts.groupby("source").n.sum()
    counts["obs"] = counts.n / counts.source.map(per_src)
    counts["exp"] = counts.lang.map(glob)
    counts["term"] = (counts.obs - counts.exp) ** 2 / counts.exp
    out = counts.groupby("source", as_index=False)["term"].sum().rename(columns={"term": "chi2"})
    out["chi2"] = out.chi2.round(6)
    return out.sort_values("source").reset_index(drop=True)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

QUERIES = {
    "validate_transcripts": validate_transcripts,
    "transcript_stats": transcript_stats,
    "q_pricing_summary": q_pricing_summary,
    "q_user_watermarks": q_user_watermarks,
    "q_seq_check": q_seq_check,
    "q_event_windows": q_event_windows,
    "q_column_stats": q_column_stats,
    "q_hll_accuracy": q_hll_accuracy,
    "q_filter_chain": q_filter_chain,
    "q_token_stats": q_token_stats,
    "q_quality_counts": q_quality_counts,
    "q_lang_id": q_lang_id,
    "q_fingerprint": q_fingerprint,
    "q_embed_documents": q_embed_documents,
    "q_props_extract": q_props_extract,
    "q_media_meta": q_media_meta,
    "q_dedup_key": q_dedup_key,
    "q_exact_text_dedup": q_exact_text_dedup,
    "q_minhash_pairs": q_minhash_pairs,
    "q_simhash_pairs": q_simhash_pairs,
    "q_char_jaccard_pairs": q_char_jaccard_pairs,
    "q_near_dup_embedding": q_near_dup_embedding,
    "q_similarity_topk": q_similarity_topk,
    "q_similarity_lsh": q_similarity_lsh,
    "q_similarity_ivf": q_similarity_ivf,
    "q_ann_recall": q_ann_recall,
    "q_join_enrich": q_join_enrich,
    "q_join_orders_customer": q_join_orders_customer,
    "q_orphan_customers": q_orphan_customers,
    "q_top_orders": q_top_orders,
    "q_drift_chi2": q_drift_chi2,
}

ORACLE_SQL = {
    "q_pricing_summary": """
        SELECT l_returnflag, l_linestatus,
               ROUND(SUM(l_quantity), 2) AS sum_qty,
               ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_revenue,
               ROUND(SUM(l_quantity) / COUNT(*), 4) AS avg_qty,
               COUNT(*) AS n
        FROM lineitem GROUP BY l_returnflag, l_linestatus
    """,
    "q_user_watermarks": """
        SELECT user_id, MAX(event_id) AS watermark, MIN(event_id) AS first_id,
               COUNT(*) AS n_events
        FROM events GROUP BY user_id
    """,
    "q_seq_check": """
        SELECT l_orderkey, COUNT(*) AS n_lines, MIN(l_linenumber) AS min_line,
               MAX(l_linenumber) AS max_line,
               (MIN(l_linenumber) = 1 AND MAX(l_linenumber) = COUNT(*)) AS gap_free
        FROM lineitem GROUP BY l_orderkey
    """,
    "q_event_windows": """
        SELECT user_id, CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS win,
               COUNT(*) AS n, ROUND(SUM(value), 2) AS sum_value
        FROM events GROUP BY 1, 2
    """,
    "q_column_stats": """
        SELECT COUNT(*) AS n_rows, COUNT(DISTINCT l_orderkey) AS n_orders,
               ROUND(MIN(l_quantity), 2) AS min_qty, ROUND(MAX(l_quantity), 2) AS max_qty,
               MIN(l_shipdate) AS min_ship, MAX(l_shipdate) AS max_ship
        FROM lineitem
    """,
    "q_filter_chain": """
        SELECT doc_id,
               CASE WHEN text IS NULL OR text = '' THEN 'text_missing'
                    WHEN length(text) < 100 THEN 'text_too_short'
                    WHEN regexp_matches(text, 'slow') OR regexp_matches(text, 'error')
                         THEN 'stop_word'
               END AS first_failing_check
        FROM documents
    """,
    "q_token_stats": """
        SELECT doc_id, len(regexp_extract_all(text, '\\S+')) AS n_tokens,
               length(text) AS n_chars, strlen(text) AS n_bytes
        FROM documents
    """,
    "q_quality_counts": """
        SELECT doc_id, len(regexp_extract_all(text, '[^\\W_]')) AS alnum_chars,
               len(regexp_extract_all(text, '\\S')) AS nonspace_chars
        FROM documents
    """,
    "q_props_extract": """
        SELECT event_id, CAST(regexp_extract(props, '"k": (\\d+)', 1) AS BIGINT) AS k
        FROM events
    """,
    "q_media_meta": """
        SELECT doc_id, strlen(text) AS n_bytes, strlen(text) % 640 AS width,
               (strlen(text) // 640) % 480 AS height
        FROM documents
    """,
    "q_dedup_key": """
        SELECT lang, source, MIN(doc_id) AS doc_id, COUNT(*) AS n_copies
        FROM documents GROUP BY lang, source
    """,
    "q_exact_text_dedup": """
        SELECT MIN(doc_id) AS doc_id, COUNT(*) AS n_copies
        FROM documents GROUP BY text
    """,
    "q_char_jaccard_pairs": """
        SELECT a.doc_id AS id_a, b.doc_id AS id_b,
               ROUND(jaccard(a.text, b.text), 6) AS jac
        FROM documents a JOIN documents b
          ON a.source = b.source AND a.doc_id < b.doc_id
        WHERE jaccard(a.text, b.text) >= 0.98
    """,
    "q_near_dup_embedding": """
        SELECT a.vec_id AS id_a, b.vec_id AS id_b
        FROM embeddings a, embeddings b
        WHERE a.vec_id < b.vec_id
          AND list_cosine_similarity(a.embedding, b.embedding) >= 0.3
    """,
    "q_similarity_topk": f"""
        WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
                   WHERE vec_id < {N_QUERIES}),
        pairs AS (
          SELECT q.qid AS query_id, e.vec_id,
                 list_cosine_similarity(q.qe, e.embedding) AS s
          FROM q, embeddings e WHERE e.vec_id != q.qid
        )
        SELECT query_id, rank, vec_id FROM (
          SELECT query_id, vec_id,
                 row_number() OVER (PARTITION BY query_id ORDER BY s DESC, vec_id) AS rank
          FROM pairs
        ) WHERE rank <= {TOP_K}
    """,
    "q_ann_recall": f"""
        SELECT vec_id AS query_id, CAST({TOP_K} AS BIGINT) AS k,
               CAST(1 AS BIGINT) AS lsh_recall_ok, CAST(1 AS BIGINT) AS ivf_recall_ok
        FROM embeddings WHERE vec_id < {N_QUERIES} ORDER BY vec_id
    """,
    "q_join_enrich": """
        SELECT c_custkey, c_name, n_name, r_name
        FROM customer JOIN nation ON c_nationkey = n_nationkey
                      JOIN region ON n_regionkey = r_regionkey
    """,
    "q_join_orders_customer": """
        SELECT o_orderkey, ROUND(o_totalprice, 2) AS o_totalprice, c_name, c_mktsegment
        FROM orders JOIN customer ON o_custkey = c_custkey
    """,
    "q_orphan_customers": """
        SELECT c_custkey, c_name FROM customer
        WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)
    """,
    "q_top_orders": """
        SELECT o_orderkey, ROUND(o_totalprice, 2) AS total
        FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
    """,
    "q_drift_chi2": """
        WITH c AS (SELECT source, lang, COUNT(*)::DOUBLE AS n FROM documents GROUP BY 1, 2),
        s AS (SELECT source, SUM(n) AS ns FROM c GROUP BY 1),
        g AS (SELECT lang, SUM(n) AS ng FROM c GROUP BY 1),
        t AS (SELECT SUM(n) AS nt FROM c)
        SELECT c.source,
               ROUND(SUM(POW(c.n / s.ns - g.ng / t.nt, 2) / (g.ng / t.nt)), 6) AS chi2
        FROM c JOIN s USING (source) JOIN g USING (lang) CROSS JOIN t
        GROUP BY c.source
    """,
}


# ---------------------------------------------------------------------------
# batch 2: windows, rollups, word counts (all oracle-verified)
# ---------------------------------------------------------------------------


def q_word_count(sf_dir: str) -> pd.DataFrame:
    """Classic distributed wordcount with per-batch pre-aggregation: one
    tokenization per batch, partial counts per word, tiny groupby over
    partials (the canonical pre-aggregate-before-shuffle shape)."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["text"])

    def partial(tbl: pa.Table) -> pa.Table:
        tok = tf.tokenize(tbl["text"])
        if not len(tok.rows):
            return pa.table({"w": pa.nulls(0, pa.string()), "n": pa.nulls(0, pa.int64())})
        counts = np.bincount(tok.codes, minlength=len(tok.uniq_hash))
        return pa.table({"w": pa.array(np.asarray(tok.uniques, dtype=object), pa.string()),
                         "n": pa.array(counts.astype(np.int64))})

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    out = partials.groupby("w").aggregate(Sum("n", alias_name="n")).to_pandas()
    out = out.sort_values(["n", "w"], ascending=[False, True]).head(20).reset_index(drop=True)
    return out[["w", "n"]]


def q_latest_events(sf_dir: str) -> pd.DataFrame:
    """Latest-k per entity (O3: the reference's latest-limit fetch,
    services/telegram_service.py:39): per-batch top-k partials bound the
    shuffle to users×K×blocks rows, then the exact per-user top-k finishes
    DISTRIBUTED — users hash into buckets, each bucket ranks its users
    vectorized — so no users-sized merge ever runs on the driver; only the
    final users×K result rows collect."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["user_id", "event_id"])
    K = 3
    N_BUCKETS = 16

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.sort_values("event_id", ascending=False).groupby("user_id", sort=False).head(K)
        out = out.copy()
        out["__b"] = (out.user_id.to_numpy() % N_BUCKETS).astype(np.int32)
        return out

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_id"], ascending=[True, False])
        g["rnk"] = g.groupby("user_id", sort=False).cumcount() + 1
        return g[g.rnk <= K][["user_id", "rnk", "event_id"]]

    out = (
        ds.map_batches(partial, batch_format="pandas", batch_size=None)
        .groupby("__b")
        .map_groups(bucket_topk, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(["user_id", "rnk"]).reset_index(drop=True)


_SESSION_GAP_US = np.int64(1800) * 1_000_000
_SESSION_BUCKETS = 32


def _sessionize_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """Vectorized sessionization of one hash bucket: ONE sort over
    (user, ts, event_id), then segment boundaries by factorized user codes
    and a segment-local cumsum of gap flags — no per-user Python callback
    (the stages/windows.py segmented pattern; scale fix for the former
    groupby(user).map_groups shape, which paid per-key overhead at 10^9
    keys)."""
    g = g.sort_values(["user_id", "ts", "event_id"], kind="stable").reset_index(drop=True)
    n = len(g)
    if not n:
        return pd.DataFrame(
            {
                "user_id": pd.Series([], dtype="int64"),
                "event_id": pd.Series([], dtype="int64"),
                "session_id": pd.Series([], dtype="int64"),
            }
        )
    codes = pd.factorize(g["user_id"], use_na_sentinel=True)[0]
    new = np.empty(n, dtype=bool)
    new[0] = True
    new[1:] = codes[1:] != codes[:-1]
    ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    gap = np.empty(n, dtype=bool)
    gap[0] = False
    gap[1:] = (ts[1:] - ts[:-1]) > _SESSION_GAP_US
    gap &= ~new  # the first event of a user never opens a numbered gap
    cs = np.cumsum(gap)
    start_of = np.flatnonzero(new)[np.cumsum(new) - 1]
    g["session_id"] = (cs - cs[start_of]).astype(np.int64)
    return g[["user_id", "event_id", "session_id"]]


def q_sessionize(sf_dir: str) -> pd.DataFrame:
    """Session assignment per user (30-min inactivity gap) — the stateful-
    ordered-stream shape the reference's watermark loop embodies
    (processor.py:59-63). ONE hash-bucket shuffle co-locates users, then
    each bucket sessionizes all its users in one segmented numpy pass."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["user_id", "event_id", "ts"])

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        batch["__b"] = (batch["user_id"].to_numpy(np.int64) % _SESSION_BUCKETS).astype(np.int32)
        return batch

    out = (
        ds.map_batches(tag, batch_format="pandas", batch_size=None)
        .groupby("__b")
        .map_groups(lambda g: _sessionize_bucket(g.drop(columns="__b")), batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(["user_id", "event_id"]).reset_index(drop=True)


def q_user_sessions(sf_dir: str) -> pd.DataFrame:
    """Session counts per user derived from the sessionized stream (grouped
    rollup of the bucket outputs — max session id + 1 per user)."""
    s = q_sessionize(sf_dir)
    out = s.groupby("user_id", as_index=False)["session_id"].max()
    out["n_sessions"] = out.pop("session_id") + 1
    return out


def q_orders_by_month(sf_dir: str) -> pd.DataFrame:
    ds = rd.read_parquet(_p(sf_dir, "orders"), columns=["o_orderdate", "o_totalprice"])

    def add_month(tbl: pa.Table) -> pa.Table:
        m = pc.strftime(tbl["o_orderdate"], format="%Y-%m")
        return pa.table({"month": m, "o_totalprice": tbl["o_totalprice"]})

    out = (
        ds.map_batches(add_month, batch_format="pyarrow")
        .groupby("month")
        .aggregate(Count(alias_name="n_orders"), Sum("o_totalprice", alias_name="revenue"))
        .to_pandas()
    )
    out["revenue"] = out.revenue.round(2)
    return out.sort_values("month").reset_index(drop=True)


def q_distinct_users_per_type(sf_dir: str) -> pd.DataFrame:
    """Exact distinct-count per group via two-level groupby (pairs first)."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["event_type", "user_id"])
    pairs = ds.groupby(["event_type", "user_id"]).aggregate(Count(alias_name="c"))
    out = pairs.groupby("event_type").aggregate(Count(alias_name="n_users")).to_pandas()
    return out.sort_values("event_type").reset_index(drop=True)


def q_len_histogram(sf_dir: str) -> pd.DataFrame:
    """Text-length histogram (the G6 length-histogram stat, oracle-checked)."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["text"])

    def bucketize(tbl: pa.Table) -> pa.Table:
        ln = pc.utf8_length(tbl["text"]).to_numpy(zero_copy_only=False)
        return pa.table({"bucket": pa.array((np.where(pd.isna(ln), 0, ln) // 50).astype(np.int64))})

    out = ds.map_batches(bucketize, batch_format="pyarrow", batch_size=None).groupby("bucket").aggregate(Count(alias_name="n")).to_pandas()
    return out.sort_values("bucket").reset_index(drop=True)


def q_brand_stats(sf_dir: str) -> pd.DataFrame:
    ds = rd.read_parquet(_p(sf_dir, "part"), columns=["p_brand", "p_retailprice", "p_size"])
    out = (
        ds.groupby("p_brand")
        .aggregate(
            Count(alias_name="n"),
            Min("p_retailprice", alias_name="min_price"),
            Max("p_retailprice", alias_name="max_price"),
            Sum("p_size", alias_name="sum_size"),
        )
        .to_pandas()
    )
    out["min_price"] = out.min_price.round(2)
    out["max_price"] = out.max_price.round(2)
    return out.sort_values("p_brand").reset_index(drop=True)


def q_supplier_nation(sf_dir: str) -> pd.DataFrame:
    nation = pq.read_table(_p(sf_dir, "nation")).to_pandas()[["n_nationkey", "n_name"]].rename(
        columns={"n_nationkey": "s_nationkey"}
    )
    ds = rd.read_parquet(_p(sf_dir, "supplier"), columns=["s_suppkey", "s_name", "s_nationkey"])
    out = jn.broadcast_join(ds, nation, on="s_nationkey").to_pandas()
    return out[["s_suppkey", "s_name", "n_name"]].sort_values("s_suppkey").reset_index(drop=True)


QUERIES.update(
    {
        "q_word_count": q_word_count,
        "q_latest_events": q_latest_events,
        "q_sessionize": q_sessionize,
        "q_user_sessions": q_user_sessions,
        "q_orders_by_month": q_orders_by_month,
        "q_distinct_users_per_type": q_distinct_users_per_type,
        "q_len_histogram": q_len_histogram,
        "q_brand_stats": q_brand_stats,
        "q_supplier_nation": q_supplier_nation,
    }
)

ORACLE_SQL.update(
    {
        "q_word_count": """
            SELECT w, COUNT(*) AS n
            FROM (SELECT unnest(regexp_extract_all(text, '\\S+')) AS w FROM documents)
            GROUP BY w ORDER BY n DESC, w LIMIT 20
        """,
        "q_latest_events": """
            SELECT user_id, rnk, event_id FROM (
              SELECT user_id, event_id,
                     row_number() OVER (PARTITION BY user_id ORDER BY event_id DESC) AS rnk
              FROM events
            ) WHERE rnk <= 3
        """,
        "q_sessionize": """
            SELECT user_id, event_id,
                   CAST(SUM(CASE WHEN gap_s > 1800 THEN 1 ELSE 0 END)
                     OVER (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
            FROM (
              SELECT user_id, event_id, ts,
                     COALESCE(epoch(ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)), 0) AS gap_s
              FROM events
            )
        """,
        "q_user_sessions": """
            SELECT user_id, CAST(MAX(session_id) + 1 AS BIGINT) AS n_sessions FROM (
              SELECT user_id,
                     SUM(CASE WHEN gap_s > 1800 THEN 1 ELSE 0 END)
                       OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS session_id
              FROM (
                SELECT user_id, event_id, ts,
                       COALESCE(epoch(ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)), 0) AS gap_s
                FROM events
              )
            ) GROUP BY user_id
        """,
        "q_orders_by_month": """
            SELECT strftime(o_orderdate, '%Y-%m') AS month, COUNT(*) AS n_orders,
                   ROUND(SUM(o_totalprice), 2) AS revenue
            FROM orders GROUP BY 1
        """,
        "q_distinct_users_per_type": """
            SELECT event_type, COUNT(DISTINCT user_id) AS n_users
            FROM events GROUP BY event_type
        """,
        "q_len_histogram": """
            SELECT length(text) // 50 AS bucket, COUNT(*) AS n
            FROM documents GROUP BY 1
        """,
        "q_brand_stats": """
            SELECT p_brand, COUNT(*) AS n, ROUND(MIN(p_retailprice), 2) AS min_price,
                   ROUND(MAX(p_retailprice), 2) AS max_price,
                   CAST(SUM(p_size) AS BIGINT) AS sum_size
            FROM part GROUP BY p_brand
        """,
        "q_supplier_nation": """
            SELECT s_suppkey, s_name, n_name
            FROM supplier JOIN nation ON s_nationkey = n_nationkey
        """,
    }
)


def q_list_sum(sf_dir: str) -> pd.DataFrame:
    """List-aggregate scalar at ingest (P15/G4: the reference's per-record
    reaction-count sum, services/telegram_service.py:41-46, over a native
    Arrow list column instead of an ORM list)."""
    ds = rd.read_parquet(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])

    def agg(tbl: pa.Table) -> pa.Table:
        col = tbl["embedding"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        # float64 accumulate in list order to mirror DuckDB's sequential sum
        flat = col.values.to_numpy(zero_copy_only=False).astype(np.float64)
        offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(col)
        sums = np.zeros(n)
        valid = offs[1:] > offs[:-1]
        if valid.any():
            m = int(np.searchsorted(offs[:-1], offs[-1], side="left"))
            if m:
                sums[:m] = np.add.reduceat(flat[: offs[-1]], offs[:-1][:m])
            sums[~valid] = 0.0
        return pa.table({"vec_id": tbl["vec_id"], "vec_sum": pa.array(np.round(sums, 3))})

    return ds.map_batches(agg, batch_format="pyarrow", batch_size=None).to_pandas()


QUERIES["q_list_sum"] = q_list_sum
ORACLE_SQL["q_list_sum"] = """
    SELECT vec_id, ROUND(list_sum(embedding), 3) AS vec_sum FROM embeddings
"""


def q_segment_revenue(sf_dir: str) -> pd.DataFrame:
    """Multi-join aggregate (TPC-H Q3 shape): customer ⋈ orders ⋈ lineitem.
    Only the DIMENSION table (customer) is broadcast; the two FACT tables
    meet in a bucketed hash join on the order key — no fact-sized driver
    dict or ray.put. Lineitem revenue is pre-aggregated per (batch,
    orderkey) before the join shuffle (combiner), and the joined stream is
    pre-aggregated per batch again before the tiny final groupby."""
    cust = pq.read_table(_p(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]).to_pandas()
    orders = rd.read_parquet(_p(sf_dir, "orders"), columns=["o_orderkey", "o_custkey"])
    orders_seg = jn.broadcast_join(
        orders, cust.rename(columns={"c_custkey": "o_custkey"}), on="o_custkey"
    ).map_batches(
        lambda b: b[["o_orderkey", "c_mktsegment"]].rename(columns={"o_orderkey": "l_orderkey"}),
        batch_format="pandas",
    )
    li = rd.read_parquet(_p(sf_dir, "lineitem"), columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def li_partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.assign(revenue=batch.l_extendedprice * (1 - batch.l_discount))
        return batch.groupby("l_orderkey", sort=False)["revenue"].sum().reset_index()

    li_rev = li.map_batches(li_partial, batch_format="pandas", batch_size=None)
    joined = jn.bucketed_hash_join(li_rev, orders_seg, on="l_orderkey", n_buckets=32)

    def seg_partial(batch: pd.DataFrame) -> pa.Table:
        g = batch.groupby("c_mktsegment", sort=False)["revenue"].sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (
        joined.map_batches(seg_partial, batch_format="pandas", batch_size=None)
        .groupby("c_mktsegment")
        .aggregate(Sum("revenue", alias_name="revenue"))
        .to_pandas()
    )
    out["revenue"] = out.revenue.round(2)
    return out.sort_values("c_mktsegment").reset_index(drop=True)


def q_nation_order_stats(sf_dir: str) -> pd.DataFrame:
    """customer ⋈ nation broadcast join, then grouped order rollup per nation."""
    cust = pq.read_table(_p(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]).to_pandas()
    nation = pq.read_table(_p(sf_dir, "nation"), columns=["n_nationkey", "n_name"]).to_pandas()
    cn = cust.merge(nation, left_on="c_nationkey", right_on="n_nationkey")[["c_custkey", "n_name"]]
    orders = rd.read_parquet(_p(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"])
    joined = jn.broadcast_join(orders, cn.rename(columns={"c_custkey": "o_custkey"}), on="o_custkey")

    def partial(batch: pd.DataFrame) -> pa.Table:
        # combiner + arrow-out: the shuffle carries one row per nation per
        # batch, and the aggregate stays on the (12x faster) arrow path
        g = batch.groupby("n_name", sort=False).agg(
            n_orders=("o_totalprice", "size"), total=("o_totalprice", "sum")
        )
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    out = (
        joined.map_batches(partial, batch_format="pandas", batch_size=None)
        .groupby("n_name")
        .aggregate(Sum("n_orders", alias_name="n_orders"), Sum("total", alias_name="total"))
        .to_pandas()
    )
    out["total"] = out.total.round(2)
    return out.sort_values("n_name").reset_index(drop=True)


def q_sliding_windows(sf_dir: str) -> pd.DataFrame:
    """Sliding 1-hour window, 15-minute hop, events per (user, window): each
    event flat-maps to its 4 containing windows inside map_batches (np.repeat
    — the vectorized flat_map shape), then a grouped count."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["user_id", "ts"])
    HOP, SPAN = 900, 4  # seconds, windows per event

    def explode_windows(tbl: pa.Table) -> pa.Table:
        sec = tbl["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) // 1_000_000
        base = sec // HOP
        uid = tbl["user_id"].to_numpy(zero_copy_only=False)
        j = np.tile(np.arange(SPAN, dtype=np.int64), len(sec))
        win_start = (np.repeat(base, SPAN) - j) * HOP
        return pa.table(
            {"user_id": pa.array(np.repeat(uid, SPAN)), "win_start": pa.array(win_start)}
        )

    out = (
        ds.map_batches(explode_windows, batch_format="pyarrow", batch_size=None)
        .groupby(["user_id", "win_start"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    return out.sort_values(["user_id", "win_start"]).reset_index(drop=True)


def q_median_len_by_lang(sf_dir: str) -> pd.DataFrame:
    """EXACT per-group median via a mergeable counting distribution: per-batch
    (lang, len) counts pre-aggregate before ONE small shuffle; the exact
    quantile_cont(0.5) is read off the merged per-length counts (result-sized
    — the G6 length-histogram stat upgraded to exact medians)."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["lang", "text"])

    def partial(tbl: pa.Table) -> pa.Table:
        # oracle parity: median(length(text)) IGNORES null texts, and
        # GROUP BY lang keeps a NULL-lang group (dropna=False)
        ln = pc.utf8_length(tbl["text"]).to_numpy(zero_copy_only=False)
        ok = ~pd.isna(ln)
        df = pd.DataFrame(
            {
                "lang": np.asarray(tbl["lang"].to_pandas(), dtype=object)[ok],
                "len": ln[ok].astype(np.int64),
            }
        )
        g = df.groupby(["lang", "len"], sort=False, dropna=False).size().reset_index(name="n")
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby(["lang", "len"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    rows = []
    for lang, g in counts.groupby("lang", dropna=False):
        g = g.sort_values("len")
        c = g.n.to_numpy()
        lens = g.len.to_numpy()
        cum = np.cumsum(c)
        total = cum[-1]
        lo = lens[np.searchsorted(cum, (total + 1) // 2, side="left")]
        hi = lens[np.searchsorted(cum, total // 2 + 1, side="left")]
        rows.append({"lang": lang, "median_len": (float(lo) + float(hi)) / 2.0})
    return pd.DataFrame(rows).sort_values("lang").reset_index(drop=True)


def q_revenue_rollup(sf_dir: str) -> pd.DataFrame:
    """ROLLUP(nation, year) revenue: base grouped aggregate computed
    distributed (broadcast dims, per-batch partials), subtotal levels derived
    from the (small) base result — the hierarchical-aggregate shape. Sentinel
    values ('ALL', -1) stand in for grouping NULLs on both sides."""
    cust = pq.read_table(_p(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]).to_pandas()
    nation = pq.read_table(_p(sf_dir, "nation"), columns=["n_nationkey", "n_name"]).to_pandas()
    cn = cust.merge(nation, left_on="c_nationkey", right_on="n_nationkey")[["c_custkey", "n_name"]]
    ds = rd.read_parquet(_p(sf_dir, "orders"), columns=["o_custkey", "o_orderdate", "o_totalprice"])
    # broadcast the (customer, nation) dim frame once — a DataFrame costs
    # ~10x fewer bytes than the equivalent Python dict, and merge is
    # vectorized; past the broadcast budget this becomes a bucketed join
    joined = jn.broadcast_join(ds, cn.rename(columns={"c_custkey": "o_custkey"}), on="o_custkey")

    def partial(batch: pd.DataFrame) -> pa.Table:
        batch = batch.assign(yr=batch.o_orderdate.dt.year.astype("int64"))
        g = batch.groupby(["n_name", "yr"], sort=False)["o_totalprice"].sum().reset_index(name="total")
        return pa.Table.from_pandas(g, preserve_index=False)

    base = (
        joined.map_batches(partial, batch_format="pandas", batch_size=None)
        .groupby(["n_name", "yr"])
        .aggregate(Sum("total", alias_name="total"))
        .to_pandas()
    )
    lvl1 = base.groupby("n_name", as_index=False)["total"].sum()
    lvl1["yr"] = np.int64(-1)
    tot = pd.DataFrame([{"n_name": "ALL", "yr": np.int64(-1), "total": base.total.sum()}])
    out = pd.concat([base, lvl1, tot], ignore_index=True)
    out["total"] = out.total.round(2)
    return out[["n_name", "yr", "total"]].sort_values(["n_name", "yr"]).reset_index(drop=True)


def q_split_counts(sf_dir: str) -> pd.DataFrame:
    """Deterministic train/val/test hash split over documents. Oracle-backed:
    the splitmix64 keyed assignment is reproduced bit-exactly in DuckDB SQL
    (:func:`_hash_split_sql` — 32-bit-half wraparound multiply), so the
    per-split counts hash-match; the split invariants — disjoint, complete,
    order-independent — are additionally property-tested."""
    from ..stages import sampling as sp

    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id"])
    out = (
        sp.hash_split(ds, "doc_id", {"train": 0.8, "val": 0.1, "test": 0.1})
        .groupby("split")
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    return out.sort_values("split").reset_index(drop=True)


def q_mod_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic 7% corpus sample by key residue (the oracle-checkable
    twin of bernoulli_sample — same shape, modulo instead of hash)."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "lang"])

    def keep(tbl: pa.Table) -> pa.Table:
        ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
        return tbl.filter(pa.array(ids % 100 < 7))

    out = ds.map_batches(keep, batch_format="pyarrow", batch_size=None).to_pandas()
    if not len(out):
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64"), "lang": pd.Series(dtype="object")})
    return out.sort_values("doc_id").reset_index(drop=True)


def q_zscore_by_lang(sf_dir: str) -> pd.DataFrame:
    """Per-group normalization (split-apply-combine broadcast): per-batch
    (n, sum, sumsq) partials per lang → tiny merge → broadcast group stats
    back through a streaming map. The canonical two-pass normalize that at
    100 TB costs two pruned scans and zero shuffles of the data."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "lang", "text"])

    def partial(tbl: pa.Table) -> pa.Table:
        ln = pc.utf8_length(tbl["text"]).to_numpy(zero_copy_only=False).astype(np.float64)
        df = pd.DataFrame(
            {"lang": np.asarray(tbl["lang"].to_pandas(), dtype=object), "x": ln, "x2": ln * ln}
        )
        g = df.groupby("lang", sort=False).agg(n=("x", "count"), s=("x", "sum"), ss=("x2", "sum"))
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    stats = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("lang")
        .aggregate(Sum("n", alias_name="n"), Sum("s", alias_name="s"), Sum("ss", alias_name="ss"))
        .to_pandas()
    )
    stats["mean"] = stats.s / stats.n
    stats["std"] = np.sqrt(np.maximum(stats.ss - stats.s**2 / stats.n, 0.0) / np.maximum(stats.n - 1, 1))
    stats_ref = _ray.put(
        (dict(zip(stats.lang, stats["mean"])), dict(zip(stats.lang, stats["std"])))
    )

    def zmap(tbl: pa.Table) -> pa.Table:
        mean_map, std_map = _ray.get(stats_ref)
        lang = pd.Series(np.asarray(tbl["lang"].to_pandas(), dtype=object))
        ln = pc.utf8_length(tbl["text"]).to_numpy(zero_copy_only=False).astype(np.float64)
        mean = lang.map(mean_map).to_numpy(dtype=np.float64)
        std = lang.map(std_map).to_numpy(dtype=np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            z = np.where(std > 0, (ln - mean) / std, np.nan)
        return pa.table({"doc_id": tbl["doc_id"], "z": pa.array(np.round(z, 4), from_pandas=True)})

    return (
        ds.map_batches(zmap, batch_format="pyarrow", batch_size=None)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_pack_shards(sf_dir: str) -> pd.DataFrame:
    """Token-budget sequence packing over documents, certified by
    conservation invariants (oracle-backed). Shard ids derive from block
    hashes, so the per-shard LAYOUT is not SQL-derivable — but packing must
    conserve the corpus: doc count and total token count survive unchanged
    (both SQL-exact), no multi-doc shard exceeds the budget, and the shard
    count reaches the ceil(total/budget) lower bound (a packer that split
    every doc into its own shard, or silently dropped rows, fails the hash).
    Per-shard fill detail stays property-tested in tests/test_sampling.py."""
    from ..stages import sampling as sp

    BUDGET = 2048
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def add_tokens(tbl: pa.Table) -> pa.Table:
        # \S+ match count == DuckDB len(regexp_extract_all(text, '\S+'))
        toks = pc.fill_null(pc.count_substring_regex(tbl["text"], pattern=r"\S+"), 0)
        return pa.table({"doc_id": tbl["doc_id"], "tokens": toks.cast(pa.int64())})

    with_tokens = ds.map_batches(add_tokens, batch_format="pyarrow", batch_size=None)
    packed = sp.pack_sequences(with_tokens, "doc_id", "tokens", budget=BUDGET)
    per_shard = packed.groupby("shard_id").aggregate(
        Count(alias_name="n_docs"), Sum("tokens", alias_name="shard_tokens")
    )

    def flag_over(tbl: pa.Table) -> pa.Table:
        over = pc.and_(pc.greater(tbl["n_docs"], 1), pc.greater(tbl["shard_tokens"], BUDGET))
        return pa.table(
            {
                "n_docs": tbl["n_docs"],
                "shard_tokens": tbl["shard_tokens"],
                "over": pc.cast(over, pa.int64()),
            }
        )

    agg = per_shard.map_batches(flag_over, batch_format="pyarrow").aggregate(
        Count(alias_name="n_shards"),
        Sum("n_docs", alias_name="n_docs"),
        Sum("shard_tokens", alias_name="total_tokens"),
        Sum("over", alias_name="n_over"),
    )
    total = int(agg["total_tokens"])
    return pd.DataFrame(
        [
            {
                "n_docs": np.int64(agg["n_docs"]),
                "total_tokens": np.int64(total),
                "within_budget_ok": np.int64(agg["n_over"] == 0),
                "shards_lb_ok": np.int64(agg["n_shards"] >= -(-total // BUDGET)),
            }
        ]
    )


def q_heavy_hitters(sf_dir: str) -> pd.DataFrame:
    """Top-10 words via SpaceSaving sketch + EXACT verification: per-batch
    sketches merge driver-side (blob-sized), the candidate set broadcasts
    back for one exact filtered count, and the sketch's superset guarantee
    (true freq > n/capacity ⇒ in counters) is CHECKED against the exact
    10th-place count — if it doesn't hold, fall back to the full exact
    groupby. Result is therefore always exact (oracle-green), while at scale
    the shuffle carries sketch blobs + candidate counts, never the full
    vocabulary (contrast q_word_count, which shuffles every distinct word)."""
    from ..functions.sketches import SpaceSaving

    K, CAP = 10, 8192
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["text"])

    def sketch(tbl: pa.Table) -> pa.Table:
        ss = SpaceSaving(CAP)
        tok = tf.tokenize(tbl["text"])
        if len(tok.rows):
            counts = np.bincount(tok.codes, minlength=len(tok.uniq_hash))
            ss.update(np.asarray(tok.uniques, dtype=object), weights=counts)
        return pa.table({"blob": pa.array([ss.to_bytes()], pa.binary())})

    blobs = ds.map_batches(sketch, batch_format="pyarrow", batch_size=None).to_pandas()["blob"]
    merged = SpaceSaving(CAP)
    for b in blobs:
        merged.merge(SpaceSaving.from_bytes(b))
    # verify ALL CAP counters exactly, not a ranked top slice: merge-inflated
    # estimates can rank a true top-K item arbitrarily low among the
    # counters, but the superset guarantee (true freq > n/CAP ⇒ among
    # counters) only covers the full counter set. The candidate set stays
    # sketch-sized (≤ CAP), never vocabulary-sized.
    cands = set(merged.candidates(CAP))

    cand_ref = _ray.put(cands)

    def exact_counts(tbl: pa.Table) -> pa.Table:
        cset = _ray.get(cand_ref)
        tok = tf.tokenize(tbl["text"])
        if not len(tok.rows):
            return pa.table({"w": pa.nulls(0, pa.string()), "n": pa.nulls(0, pa.int64())})
        counts = np.bincount(tok.codes, minlength=len(tok.uniq_hash))
        uniq = np.asarray(tok.uniques, dtype=object)
        keep = pd.Series(uniq).isin(cset).to_numpy()
        return pa.table(
            {"w": pa.array(uniq[keep], pa.string()), "n": pa.array(counts[keep].astype(np.int64))}
        )

    exact = (
        ds.map_batches(exact_counts, batch_format="pyarrow", batch_size=None)
        .groupby("w")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values(["n", "w"], ascending=[False, True])
        .reset_index(drop=True)
    )
    top = exact.head(K)
    guarantee = len(top) == K and top.n.iloc[K - 1] > merged.n / CAP
    if not guarantee:  # sketch can't certify the top-K: full exact fallback
        full = q_word_count(sf_dir).head(K).rename(columns={})
        return full[["w", "n"]].reset_index(drop=True)
    return top[["w", "n"]].reset_index(drop=True)


QUERIES["q_heavy_hitters"] = q_heavy_hitters
ORACLE_SQL["q_heavy_hitters"] = """
    SELECT w, COUNT(*) AS n
    FROM (SELECT unnest(regexp_extract_all(text, '\\S+')) AS w FROM documents)
    GROUP BY w ORDER BY n DESC, w LIMIT 10
"""

def _splitmix_cte(table: str, key_sql: str, carry: list[str], seed: int) -> str:
    """SQL CTE chain reproducing sampling._key_hash_u64's integer path —
    splitmix64(key ^ seed) % 10^6 — bit-exactly in DuckDB: the 64-bit
    wraparound multiply is emulated as two 32-bit halves in HUGEINT (a full
    64x64 product overflows INT128). Yields relation ``h(*carry, r)``; any
    keyed-hash sampling decision becomes SQL-expressible by thresholding
    ``r``."""
    m64 = 2**64
    c1h, c1l = divmod(0xBF58476D1CE4E5B9, 2**32)
    c2h, c2l = divmod(0x94D049BB133111EB, 2**32)
    cols = "".join(f"{c}, " for c in carry)

    def mul(ch: int, cl: int) -> str:  # (y * c) mod 2^64, y already UBIGINT
        return (
            f"CAST(((CAST(y AS HUGEINT) % 4294967296) * {cl} + "
            f"(((CAST(y AS HUGEINT) % 4294967296) * {ch} + "
            f"(CAST(y AS HUGEINT) // 4294967296) * {cl}) % 4294967296) * 4294967296) "
            f"% {m64} AS UBIGINT)"
        )

    return f"""
    WITH s0 AS (SELECT {cols}xor(CAST({key_sql} AS UBIGINT), CAST({seed} AS UBIGINT)) AS x FROM {table}),
    s1 AS (SELECT {cols}CAST((CAST(x AS HUGEINT) + {0x9E3779B97F4A7C15}) % {m64} AS UBIGINT) AS x FROM s0),
    s2 AS (SELECT {cols}{mul(c1h, c1l)} AS x FROM (SELECT {cols}xor(x, x >> 30) AS y FROM s1)),
    s3 AS (SELECT {cols}{mul(c2h, c2l)} AS x FROM (SELECT {cols}xor(x, x >> 27) AS y FROM s2)),
    h AS (SELECT {cols}xor(x, x >> 31) % 1000000 AS r FROM s3)
    """


def _mul64_sql(y: str, c: int) -> str:
    """(y * c) mod 2^64 in DuckDB via two 32-bit halves in HUGEINT (a full
    64x64 product overflows INT128); ``y`` must be a UBIGINT expression."""
    ch, cl = divmod(c, 2**32)
    m64 = 2**64
    return (
        f"CAST(((CAST({y} AS HUGEINT) % 4294967296) * {cl} + "
        f"(((CAST({y} AS HUGEINT) % 4294967296) * {ch} + "
        f"(CAST({y} AS HUGEINT) // 4294967296) * {cl}) % 4294967296) * 4294967296) "
        f"% {m64} AS UBIGINT)"
    )


def _splitmix_full_cte(src: str, carry: list[str]) -> str:
    """CTE members computing the FULL 64-bit splitmix64 finalizer (contrast
    :func:`_splitmix_cte`, which reduces to a ppm rate for sampling): source
    relation ``src`` must expose ``x`` (UBIGINT) plus the carried columns;
    yields relation ``sm(*carry, x)``."""
    cols = "".join(f"{c}, " for c in carry)
    m64 = 2**64
    return f"""
    z1 AS (SELECT {cols}CAST((CAST(x AS HUGEINT) + {0x9E3779B97F4A7C15}) % {m64} AS UBIGINT) AS x FROM {src}),
    z2 AS (SELECT {cols}{_mul64_sql('y', 0xBF58476D1CE4E5B9)} AS x FROM (SELECT {cols}xor(x, x >> 30) AS y FROM z1)),
    z3 AS (SELECT {cols}{_mul64_sql('y', 0x94D049BB133111EB)} AS x FROM (SELECT {cols}xor(x, x >> 27) AS y FROM z2)),
    sm AS (SELECT {cols}xor(x, x >> 31) AS x FROM z3)
    """


def _fingerprint_sql() -> str:
    """DuckDB SQL reproducing text_analysis.fingerprint64 BIT-EXACTLY: the
    polynomial rolling hash sum(cp * B^(L-1-j)) mod 2^64 (per-term products
    fit INT128 because B^k is pre-reduced mod 2^64 in a recursive CTE and
    code points are < 2^21), then the full splitmix64 finalizer."""
    m64 = 2**64
    from ..stages.text_analysis import FP_BASE

    return f"""
    WITH RECURSIVE base AS (
      SELECT doc_id, trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS norm
      FROM documents WHERE text IS NOT NULL
    ),
    p(k, v) AS (
      SELECT 0, CAST(1 AS UBIGINT)
      UNION ALL
      SELECT k + 1, CAST((CAST(v AS HUGEINT) * {FP_BASE}) % {m64} AS UBIGINT)
      FROM p WHERE k + 1 < (SELECT COALESCE(MAX(length(norm)), 1) FROM base)
    ),
    chars AS (
      -- parallel unnests zip; lateral generate_series can't take columns
      SELECT doc_id,
             unnest([unicode(substr(norm, i, 1)) FOR i IN generate_series(1, length(norm))]) AS cp,
             unnest([length(norm) - i FOR i IN generate_series(1, length(norm))]) AS e
      FROM base
    ),
    poly AS (
      SELECT doc_id,
             CAST(SUM((CAST(cp AS HUGEINT) * CAST(v AS HUGEINT)) % {m64}) % {m64} AS UBIGINT) AS x
      FROM chars JOIN p ON p.k = chars.e
      GROUP BY doc_id
    ),
    withz AS (SELECT b.doc_id, COALESCE(poly.x, CAST(0 AS UBIGINT)) AS x
              FROM base b LEFT JOIN poly USING (doc_id)),
    {_splitmix_full_cte('withz', ['doc_id'])}
    SELECT doc_id,
           CAST(CASE WHEN x > {2**63 - 1} THEN CAST(x AS HUGEINT) - {m64}
                     ELSE CAST(x AS HUGEINT) END AS BIGINT) AS fingerprint
    FROM sm ORDER BY doc_id
    """


def _simhash_sql() -> str:
    """DuckDB SQL reproducing q_simhash_pairs BIT-EXACTLY: per-word
    polynomial+splitmix64 hashes (the same kernel as _fingerprint_sql, per
    word occurrence), ±1 bit votes summed per document, 16-bit chunk
    self-join for candidates, exact hamming via bit_count(xor(...)) on the
    signed-BIGINT representation."""
    m64 = 2**64
    from ..stages.text_analysis import FP_BASE

    return f"""
    WITH RECURSIVE d AS (
      SELECT doc_id, regexp_extract_all(text, '\\S+') AS ws FROM documents WHERE text IS NOT NULL
    ),
    w AS (
      SELECT doc_id, unnest(generate_series(1, len(ws))) AS wpos, unnest(ws) AS word FROM d
    ),
    p(k, v) AS (
      SELECT 0, CAST(1 AS UBIGINT)
      UNION ALL
      SELECT k + 1, CAST((CAST(v AS HUGEINT) * {FP_BASE}) % {m64} AS UBIGINT)
      FROM p WHERE k + 1 < (SELECT COALESCE(MAX(length(word)), 1) FROM w)
    ),
    chars AS (
      SELECT doc_id, wpos,
             unnest([unicode(substr(word, i, 1)) FOR i IN generate_series(1, length(word))]) AS cp,
             unnest([length(word) - i FOR i IN generate_series(1, length(word))]) AS e
      FROM w
    ),
    poly AS (
      SELECT doc_id, wpos,
             CAST(SUM((CAST(cp AS HUGEINT) * CAST(v AS HUGEINT)) % {m64}) % {m64} AS UBIGINT) AS x
      FROM chars JOIN p ON p.k = chars.e GROUP BY doc_id, wpos
    ),
    {_splitmix_full_cte('poly', ['doc_id', 'wpos'])},
    bits AS (
      SELECT doc_id, b.bit,
             SUM(CASE WHEN (x >> b.bit) & 1 = 1 THEN 1 ELSE -1 END) AS acc
      FROM sm CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS bit) b
      GROUP BY doc_id, b.bit
    ),
    shu AS (
      SELECT doc_id,
             CAST(COALESCE(SUM(CASE WHEN acc > 0 THEN CAST(CAST(1 AS UBIGINT) << bit AS HUGEINT) ELSE 0 END), 0) AS UBIGINT) AS u
      FROM bits GROUP BY doc_id
    ),
    sh AS (
      SELECT d.doc_id, COALESCE(shu.u, CAST(0 AS UBIGINT)) AS u,
             CAST(CASE WHEN COALESCE(shu.u, 0) >= {2**63} THEN CAST(COALESCE(shu.u, 0) AS HUGEINT) - {m64}
                       ELSE CAST(COALESCE(shu.u, 0) AS HUGEINT) END AS BIGINT) AS s
      FROM d LEFT JOIN shu USING (doc_id)
    ),
    ch AS (
      SELECT doc_id, s, c.c AS c, (u >> (c.c * 16)) & 65535 AS val
      FROM sh CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS c) c
    )
    SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b,
           CAST(bit_count(xor(a.s, b.s)) AS BIGINT) AS hamming
    FROM ch a JOIN ch b ON a.c = b.c AND a.val = b.val AND a.doc_id < b.doc_id
    WHERE bit_count(xor(a.s, b.s)) <= 12
    ORDER BY id_a, id_b
    """


def _hash_split_sql(seed: int = 97) -> str:
    """DuckDB SQL reproducing hash_split's splitmix64 keyed assignment
    EXACTLY (see :func:`_splitmix_cte`), so the per-split counts
    hash-match — the keyed-hash split is SQL-expressible after all."""
    return (
        _splitmix_cte("documents", "doc_id", [], seed)
        + """
    SELECT split, COUNT(*) AS n FROM (
      SELECT CASE WHEN r < 800000 THEN 'train' WHEN r < 900000 THEN 'val' ELSE 'test' END AS split FROM h
    ) GROUP BY split ORDER BY split
    """
    )


QUERIES["q_pii_scan"] = q_pii_scan
ORACLE_SQL["q_pii_scan"] = """
    SELECT COUNT(*) AS n_docs,
           CAST(SUM(len(regexp_extract_all(text, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'))) AS BIGINT) AS total_emails,
           CAST(SUM(len(regexp_extract_all(text, 'https?://[^\\s]+'))) AS BIGINT) AS total_urls,
           CAST(SUM(len(regexp_extract_all(text, '\\+[0-9]{7,15}'))) AS BIGINT) AS total_phones,
           CAST(SUM(len(regexp_extract_all(text, '(slow|error)'))) AS BIGINT) AS total_markers,
           CAST(SUM(CASE WHEN regexp_matches(text, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}') THEN 1 ELSE 0 END) AS BIGINT) AS docs_with_email,
           CAST(SUM(CASE WHEN regexp_matches(text, '(slow|error)') THEN 1 ELSE 0 END) AS BIGINT) AS docs_with_marker
    FROM documents
"""

QUERIES["q_pack_shards"] = q_pack_shards
ORACLE_SQL["q_pack_shards"] = """
    SELECT COUNT(*) AS n_docs,
           CAST(SUM(len(regexp_extract_all(COALESCE(text, ''), '\\S+'))) AS BIGINT) AS total_tokens,
           CAST(1 AS BIGINT) AS within_budget_ok,
           CAST(1 AS BIGINT) AS shards_lb_ok
    FROM documents
"""
QUERIES["q_split_counts"] = q_split_counts
ORACLE_SQL["q_split_counts"] = _hash_split_sql()
ORACLE_SQL["q_fingerprint"] = _fingerprint_sql()
ORACLE_SQL["q_simhash_pairs"] = _simhash_sql()
QUERIES["q_lang_id_accuracy"] = q_lang_id_accuracy
# certificate oracle (q_ann_recall pattern): n_docs ties to the table,
# n_correct = n_docs pins EXACT per-doc correctness of the planted docs
# (the plant uses only single-language marker words), acc_ok pins the
# >=0.95 accuracy bar
ORACLE_SQL["q_lang_id_accuracy"] = """
    SELECT COUNT(*) AS n_docs, COUNT(*) AS n_correct, CAST(1 AS BIGINT) AS acc_ok
    FROM documents
"""
ORACLE_SQL["q_minhash_pairs"] = """
    WITH d AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS ws FROM documents
               WHERE text IS NOT NULL AND len(regexp_extract_all(text, '\\S+')) >= 3),
    g AS (SELECT doc_id,
                 unnest([array_to_string(ws[i:i+2], ' ') FOR i IN generate_series(1, len(ws) - 2)]) AS gram
          FROM d),
    gd AS (SELECT DISTINCT doc_id, gram FROM g),
    sz AS (SELECT doc_id, COUNT(*) AS n FROM gd GROUP BY doc_id),
    inter AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS i
              FROM gd a JOIN gd b USING (gram) WHERE a.doc_id < b.doc_id GROUP BY 1, 2)
    SELECT id_a, id_b, ROUND(i::DOUBLE / (sa.n + sb.n - i), 6) AS jaccard
    FROM inter JOIN sz sa ON sa.doc_id = id_a JOIN sz sb ON sb.doc_id = id_b
    WHERE i::DOUBLE / (sa.n + sb.n - i) >= 0.8 ORDER BY id_a, id_b
"""
ORACLE_SQL["q_embed_documents"] = """
    SELECT doc_id,
           CAST(64 AS BIGINT) AS vec_dim,
           CAST(CASE WHEN text IS NOT NULL AND regexp_matches(text, '\\S')
                THEN 1.0 ELSE 0.0 END AS DOUBLE) AS vec_norm
    FROM documents ORDER BY doc_id
"""
QUERIES["q_mod_sample"] = q_mod_sample
QUERIES["q_zscore_by_lang"] = q_zscore_by_lang
ORACLE_SQL["q_mod_sample"] = """
    SELECT doc_id, lang FROM documents WHERE doc_id % 100 < 7
"""
ORACLE_SQL["q_zscore_by_lang"] = """
    SELECT doc_id,
           ROUND((length(text) - AVG(length(text)) OVER (PARTITION BY lang))
                 / STDDEV(length(text)) OVER (PARTITION BY lang), 4) AS z
    FROM documents
"""

QUERIES["q_sliding_windows"] = q_sliding_windows
QUERIES["q_median_len_by_lang"] = q_median_len_by_lang
QUERIES["q_revenue_rollup"] = q_revenue_rollup
ORACLE_SQL["q_sliding_windows"] = """
    SELECT user_id, (epoch_us(ts) // 1000000 // 900 - j) * 900 AS win_start,
           COUNT(*) AS n
    FROM events CROSS JOIN (SELECT unnest([0, 1, 2, 3]) AS j) offsets
    GROUP BY 1, 2
"""
ORACLE_SQL["q_median_len_by_lang"] = """
    SELECT lang, median(length(text)) AS median_len
    FROM documents GROUP BY lang
"""
ORACLE_SQL["q_revenue_rollup"] = """
    SELECT COALESCE(n_name, 'ALL') AS n_name,
           CAST(COALESCE(year(o_orderdate), -1) AS BIGINT) AS yr,
           ROUND(SUM(o_totalprice), 2) AS total
    FROM orders JOIN customer ON o_custkey = c_custkey
                JOIN nation ON c_nationkey = n_nationkey
    GROUP BY ROLLUP(n_name, year(o_orderdate))
"""

QUERIES["q_segment_revenue"] = q_segment_revenue
QUERIES["q_nation_order_stats"] = q_nation_order_stats
ORACLE_SQL["q_segment_revenue"] = """
    SELECT c_mktsegment, ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
    FROM customer JOIN orders ON c_custkey = o_custkey
                  JOIN lineitem ON o_orderkey = l_orderkey
    GROUP BY c_mktsegment
"""
ORACLE_SQL["q_nation_order_stats"] = """
    SELECT n_name, COUNT(*) AS n_orders, ROUND(SUM(o_totalprice), 2) AS total
    FROM orders JOIN customer ON o_custkey = c_custkey
                JOIN nation ON c_nationkey = n_nationkey
    GROUP BY n_name
"""


# ---------------------------------------------------------------------------
# as-of join — the brief's canonical custom operator Ray Data lacks
# ---------------------------------------------------------------------------


def q_asof_join(sf_dir: str) -> pd.DataFrame:
    """Attribute each purchase to the user's latest at-or-before view (the
    classic event-attribution as-of join; reference analog: the watermark
    'latest message before cursor' lookup, services/telegram_service.py:39).
    Both sides are filter-pushed at the read; the join is the bucketed
    one-shuffle ``jn.asof_join`` (co-location by hash(user_id) % B, vectorized
    merged-lexsort match per bucket). gap_us is an exact integer on both
    sides, so the oracle hash-compares bit-exactly."""
    cols = ["event_id", "ts", "user_id", "value"]
    p = rd.read_parquet(
        _p(sf_dir, "events"), columns=cols, filter=pc.field("event_type") == "purchase"
    )
    v = rd.read_parquet(
        _p(sf_dir, "events"), columns=cols, filter=pc.field("event_type") == "view"
    )
    out = jn.asof_join(
        p, v, on="user_id", left_ts="ts", right_ts="ts",
        right_cols={"event_id": "view_event_id", "ts": "view_ts", "value": "view_value"},
    ).to_pandas()
    out["gap_us"] = (
        out["ts"].astype("int64") - out["view_ts"].astype("int64")
    ).astype("int64")
    out = out.sort_values("event_id").reset_index(drop=True)
    return out[["event_id", "user_id", "view_event_id", "gap_us", "view_value"]]


QUERIES["q_asof_join"] = q_asof_join
ORACLE_SQL["q_asof_join"] = """
    WITH p AS (SELECT * FROM events WHERE event_type = 'purchase'),
         v AS (SELECT * FROM events WHERE event_type = 'view')
    SELECT p.event_id AS event_id, p.user_id AS user_id,
           v.event_id AS view_event_id,
           epoch_us(p.ts) - epoch_us(v.ts) AS gap_us,
           v.value AS view_value
    FROM p ASOF JOIN v ON p.user_id = v.user_id AND p.ts >= v.ts
    ORDER BY event_id
"""


def q_range_join(sf_dir: str) -> pd.DataFrame:
    """All views by the same user within 8 hours before each purchase (the
    band/interval-join recast of the reference's bounded historical re-scan
    window, processor.py:65-71). Filter-pushed reads on both sides; one
    bucketed shuffle; vectorized per-bucket ``jn.range_match``. gap_us is an
    exact integer, so the oracle hash-compares bit-exactly."""
    cols = ["event_id", "ts", "user_id", "value"]
    p = rd.read_parquet(
        _p(sf_dir, "events"), columns=cols, filter=pc.field("event_type") == "purchase"
    )
    v = rd.read_parquet(
        _p(sf_dir, "events"), columns=cols, filter=pc.field("event_type") == "view"
    )
    out = jn.range_join(
        p, v, on="user_id", left_ts="ts", right_ts="ts",
        before=np.timedelta64(8, "h"), after=np.timedelta64(0, "h"),
        right_cols={"event_id": "view_event_id", "ts": "view_ts", "value": "view_value"},
    ).to_pandas()
    out["gap_us"] = (
        out["ts"].astype("int64") - out["view_ts"].astype("int64")
    ).astype("int64")
    out = out.sort_values(["event_id", "view_event_id"]).reset_index(drop=True)
    return out[["event_id", "user_id", "view_event_id", "gap_us", "view_value"]]


QUERIES["q_range_join"] = q_range_join
ORACLE_SQL["q_range_join"] = """
    WITH p AS (SELECT * FROM events WHERE event_type = 'purchase'),
         v AS (SELECT * FROM events WHERE event_type = 'view')
    SELECT p.event_id AS event_id, p.user_id AS user_id,
           v.event_id AS view_event_id,
           epoch_us(p.ts) - epoch_us(v.ts) AS gap_us,
           v.value AS view_value
    FROM p JOIN v
      ON p.user_id = v.user_id
     AND v.ts BETWEEN p.ts - INTERVAL 8 HOUR AND p.ts
    ORDER BY event_id, view_event_id
"""


def q_running_total(sf_dir: str) -> pd.DataFrame:
    """Per-user running aggregates over the event stream — the
    windowed-aggregate custom operator (stages/windows.py): ROW_NUMBER,
    ROWS-frame running sum, and previous-event gap, PARTITION BY user_id
    ORDER BY (ts, event_id). One hash-bucket shuffle, segmented Cython
    kernels per bucket (never per-group Python). All output columns are
    integers, so the oracle hash-compares bit-exactly; the reference analog
    is the watermark loop's keyed ordered stream (processor.py:59-63)."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["event_id", "ts", "user_id", "value"])

    def floors(tbl: pa.Table) -> pa.Table:
        return tbl.append_column("fvalue", pc.cast(pc.floor(tbl["value"]), pa.int64()))

    out = wd.window_over(
        ds.map_batches(floors, batch_format="pyarrow"),
        key="user_id",
        order=["ts", "event_id"],
        specs=[
            ("row_number", None, "rn"),
            ("running_sum", "fvalue", "run_fvalue"),
            ("lag", "ts", "prev_ts"),
        ],
    ).to_pandas()
    raw = out["ts"].to_numpy().astype("datetime64[us]").astype("int64") - out[
        "prev_ts"
    ].to_numpy().astype("datetime64[us]").astype("int64")
    out["prev_gap_us"] = np.where(out["prev_ts"].isna(), -1, raw).astype("int64")
    out = out.sort_values("event_id").reset_index(drop=True)
    out["rn"] = out["rn"].astype("int64")
    out["run_fvalue"] = out["run_fvalue"].astype("int64")
    return out[["event_id", "user_id", "rn", "run_fvalue", "prev_gap_us"]]


QUERIES["q_running_total"] = q_running_total
ORACLE_SQL["q_running_total"] = """
    SELECT event_id, user_id,
           ROW_NUMBER() OVER w AS rn,
           CAST(SUM(CAST(FLOOR(value) AS BIGINT)) OVER w AS BIGINT) AS run_fvalue,
           COALESCE(epoch_us(ts) - epoch_us(LAG(ts) OVER w), -1) AS prev_gap_us
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS UNBOUNDED PRECEDING)
    ORDER BY event_id
"""


def q_window_funcs(sf_dir: str) -> pd.DataFrame:
    """The remaining window-function inventory — LEAD, running MIN, and a
    bounded ROWS frame (4-row rolling sum) — through the same one-shuffle
    segmented kernels as q_running_total. Integer sources keep the oracle
    hash-exact; the lead sentinel is -1 (SQL COALESCE)."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["event_id", "ts", "user_id", "value"])

    def floors(tbl: pa.Table) -> pa.Table:
        return tbl.append_column("fvalue", pc.cast(pc.floor(tbl["value"]), pa.int64()))

    out = wd.window_over(
        ds.map_batches(floors, batch_format="pyarrow"),
        key="user_id",
        order=["ts", "event_id"],
        specs=[
            ("lead", "event_id", "next_event"),
            ("running_min", "fvalue", "run_min_fvalue"),
            ("rolling_sum", "fvalue", "roll4", 4),
        ],
    ).to_pandas()
    out["next_event"] = out["next_event"].fillna(-1).astype("int64")
    out["run_min_fvalue"] = out["run_min_fvalue"].astype("int64")
    out["roll4"] = out["roll4"].astype("int64")
    out = out.sort_values("event_id").reset_index(drop=True)
    return out[["event_id", "user_id", "next_event", "run_min_fvalue", "roll4"]]


QUERIES["q_window_funcs"] = q_window_funcs
ORACLE_SQL["q_window_funcs"] = """
    SELECT event_id, user_id,
           COALESCE(LEAD(event_id) OVER w, -1) AS next_event,
           CAST(MIN(CAST(FLOOR(value) AS BIGINT)) OVER w AS BIGINT) AS run_min_fvalue,
           CAST(SUM(CAST(FLOOR(value) AS BIGINT))
                OVER (PARTITION BY user_id ORDER BY ts, event_id
                      ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS BIGINT) AS roll4
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS UNBOUNDED PRECEDING)
    ORDER BY event_id
"""


def q_percent_rank(sf_dir: str) -> pd.DataFrame:
    """Exact global PERCENT_RANK as integer ppm — built on the explicit
    range-partitioned sort (ordering.global_ranks: boundary sample, range
    tag, per-range lexsort + count-prefix offsets). ppm = (rank-1) * 10^6 //
    (n-1), pure int64 both engines. Output sampled to o_orderkey % 31 == 0
    so the result stays result-sized at any input scale."""
    from ..stages import ordering as od

    ds = rd.read_parquet(_p(sf_dir, "orders"), columns=["o_orderkey", "o_totalprice"])
    ds = ds.materialize()
    n = ds.count()
    ranked = od.global_ranks(ds, key="o_totalprice", tiebreak=["o_orderkey"], keep=["o_orderkey"])

    def to_ppm(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["o_orderkey"] % 31 == 0]
        rk = b["rk"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "o_orderkey": b["o_orderkey"].to_numpy(np.int64),
                "pct_rank_ppm": (rk - 1) * np.int64(1_000_000) // np.int64(max(n - 1, 1)),
            }
        )

    out = ranked.map_batches(to_ppm, batch_format="pandas", batch_size=None).to_pandas()
    return out.sort_values("o_orderkey").reset_index(drop=True)


QUERIES["q_percent_rank"] = q_percent_rank
ORACLE_SQL["q_percent_rank"] = """
    SELECT o_orderkey, pct_rank_ppm FROM (
      SELECT o_orderkey,
             (ROW_NUMBER() OVER (ORDER BY o_totalprice, o_orderkey) - 1) * 1000000
               // greatest(COUNT(*) OVER () - 1, 1) AS pct_rank_ppm
      FROM orders
    ) WHERE o_orderkey % 31 = 0 ORDER BY o_orderkey
"""


def q_decontaminate(sf_dir: str) -> pd.DataFrame:
    """Benchmark decontamination over documents: the held-out "eval" set is
    doc_id % 13 == 0; every other doc sharing >=1 word 4-gram with it is
    flagged with its distinct-shared-gram count (stages/decontam.py — the
    train/test-overlap scrub; broadcast gram set under 16M hashes, bucketed
    semi-join above)."""
    from ..stages import decontam as dc

    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def side(want_bench: bool):
        def fn(tbl: pa.Table) -> pa.Table:
            # integer-divide trick: pyarrow has no modulo kernel
            m = pc.equal(pc.subtract(tbl["doc_id"], pc.multiply(pc.divide(tbl["doc_id"], 13), 13)), 0)
            return tbl.filter(m if want_bench else pc.invert(m))

        return fn

    bench = ds.map_batches(side(True), batch_format="pyarrow")
    corpus = ds.map_batches(side(False), batch_format="pyarrow")
    out = dc.decontaminate(corpus, bench, n=4).to_pandas()
    if not len(out):
        return pd.DataFrame(
            {"doc_id": pd.Series(dtype="int64"), "n_shared": pd.Series(dtype="int64")}
        )
    out["n_shared"] = out["n_shared"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


QUERIES["q_decontaminate"] = q_decontaminate
ORACLE_SQL["q_decontaminate"] = """
    WITH d AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
    g AS (SELECT doc_id,
                 unnest([array_to_string(ws[i:i+3], ' ') FOR i IN generate_series(1, len(ws) - 3)]) AS gram
          FROM d),
    bench AS (SELECT DISTINCT gram FROM g WHERE doc_id % 13 = 0)
    SELECT g.doc_id AS doc_id, COUNT(DISTINCT g.gram) AS n_shared
    FROM g JOIN bench USING (gram)
    WHERE g.doc_id % 13 <> 0
    GROUP BY g.doc_id ORDER BY doc_id
"""


def q_repetition_filter(sf_dir: str) -> pd.DataFrame:
    """Gopher-style repetition quality gates per document: dup-word fraction
    and top-bigram fraction with corpus-centered keep thresholds
    (stages/text_analysis.repetition_stats — one explode per batch, IEEE
    double parity with the SQL oracle)."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    out = ds.map_batches(ta.repetition_stats, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


QUERIES["q_repetition_filter"] = q_repetition_filter
ORACLE_SQL["q_repetition_filter"] = """
    WITH d AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
    tok AS (SELECT doc_id, unnest(ws) AS word FROM d),
    dw AS (SELECT doc_id, COUNT(*) AS n_tok, COUNT(DISTINCT word) AS n_dist
           FROM tok GROUP BY doc_id),
    bg AS (SELECT doc_id,
                  unnest([ws[i] || ' ' || ws[i+1] FOR i IN generate_series(1, len(ws) - 1)]) AS g
           FROM d),
    bgc AS (SELECT doc_id, g, COUNT(*) AS c FROM bg GROUP BY doc_id, g),
    top AS (SELECT doc_id, MAX(c) AS mx, SUM(c) AS tot FROM bgc GROUP BY doc_id)
    -- LEFT JOINs from d: degenerate docs (null text -> no dw row; <2 words
    -- -> no top row) still emit a row with 0.0 fractions and keep=0, exactly
    -- as the Ray kernel does
    SELECT d.doc_id AS doc_id,
           COALESCE(dw.n_tok, 0) AS n_words,
           COALESCE(1 - dw.n_dist::DOUBLE / dw.n_tok, 0.0) AS dup_word_frac,
           COALESCE(top.mx::DOUBLE / top.tot, 0.0) AS top_bigram_frac,
           CAST(CASE WHEN COALESCE(1 - dw.n_dist::DOUBLE / dw.n_tok, 0.0) <= 0.625
                      AND COALESCE(top.mx::DOUBLE / top.tot, 0.0) <= 0.05
                      AND COALESCE(dw.n_tok, 0) >= 2
                THEN 1 ELSE 0 END AS BIGINT) AS keep
    FROM d LEFT JOIN dw USING (doc_id) LEFT JOIN top USING (doc_id)
    ORDER BY doc_id
"""


def q_dedup_clusters(sf_dir: str) -> pd.DataFrame:
    """Duplicate-GROUP collapse: candidate edges = docs sharing any word
    4-gram (stages/dedup.gram_edges — one groupby shuffle, candidate-sized
    collection), transitive closure via connected components
    (stages/cluster — vectorized min-label fixpoint locally, bucketed-join
    label propagation at scale), canonical keep = min doc_id per cluster.
    Singleton docs are attached by a size-dispatched anti-join, so the
    driver never sees a corpus-sized id list on the scale path."""
    from ..stages import cluster as cl

    docs = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    edges = dd.gram_edges(docs, "text", "doc_id", n=4)
    labels = cl.connected_components(edges, nodes=docs.select_columns(["doc_id"]))
    out = cl.cluster_stats(labels).to_pandas()
    out = out.rename(columns={"node": "doc_id"})
    out = out[["doc_id", "cluster_id", "cluster_size", "keep"]]
    return out.sort_values("doc_id").reset_index(drop=True).astype("int64")


QUERIES["q_dedup_clusters"] = q_dedup_clusters
ORACLE_SQL["q_dedup_clusters"] = f"""
    WITH RECURSIVE
    d AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
    g AS (SELECT DISTINCT doc_id,
                 unnest([array_to_string(ws[i:i+3], ' ') FOR i IN generate_series(1, len(ws) - 3)]) AS gram
          FROM d),
    gc AS (SELECT doc_id, gram,
                  ROW_NUMBER() OVER (PARTITION BY gram ORDER BY doc_id) AS rn FROM g),
    e AS (SELECT a.doc_id AS u, b.doc_id AS v
          FROM gc a JOIN gc b USING (gram)
          WHERE a.doc_id <> b.doc_id AND a.rn <= {dd.GRAM_CAP} AND b.rn <= {dd.GRAM_CAP} GROUP BY 1, 2),
    -- min-label reachability: a label only needs to propagate while it is
    -- smaller than the receiving node (the component minimum satisfies this
    -- on every hop), which keeps the closure linear in practice
    reach AS (
        SELECT doc_id AS node, doc_id AS label FROM documents
        UNION
        SELECT e.v AS node, reach.label AS label
        FROM reach JOIN e ON e.u = reach.node WHERE reach.label < e.v
    ),
    lab AS (SELECT node, MIN(label) AS cluster_id FROM reach GROUP BY node),
    siz AS (SELECT cluster_id, COUNT(*) AS cluster_size FROM lab GROUP BY cluster_id)
    SELECT lab.node AS doc_id, lab.cluster_id AS cluster_id,
           siz.cluster_size AS cluster_size,
           CAST(lab.node = lab.cluster_id AS BIGINT) AS keep
    FROM lab JOIN siz USING (cluster_id)
    ORDER BY doc_id
"""


_BM25_TERMS = ("scan", "join", "slow")
_BM25_K1 = 1.2
_BM25_B = 0.75


def q_bm25(sf_dir: str) -> pd.DataFrame:
    """BM25 relevance scoring of every document against a fixed query —
    the ranking primitive of a retrieval-based curation pipeline. Two
    streaming passes, ZERO data shuffles: pass 1 reduces each batch to
    |terms| rows of (df, doc-count, token-count) partials (the only thing
    the driver ever holds); pass 2 re-streams the corpus scoring each doc
    against the broadcast idf/avgdl constants. Tokenization is the shared
    single-space kernel (functions/ngrams.explode_tokens), so term counts
    match SQL ``string_split`` exactly; scores are deterministic because
    every input to the float formula (tf, df, N, dl) is an exact integer.
    Reference analog: the relevance gate in the reference's scoring chain
    (/root/reference/services/openai_service.py score threshold), recast as
    a lexical scorer."""
    from ..functions.hashing import hash_strings
    from ..functions.ngrams import explode_tokens

    term_h = hash_strings(np.asarray(_BM25_TERMS, dtype=object))
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def partial(tbl: pa.Table) -> pa.Table:
        texts = np.asarray(tbl["text"].to_pandas(), dtype=object)
        rows, wh = explode_tokens(texts, sep=" ")
        df_t = np.empty(len(term_h), np.int64)
        for i, h in enumerate(term_h):  # |terms| iterations, vectorized inside
            df_t[i] = len(np.unique(rows[wh == h]))
        n_docs = int(pd.notna(texts).sum())
        return pa.table(
            {
                "term_idx": pa.array(np.arange(len(term_h)), type=pa.int64()),
                "df": pa.array(df_t),
                "n_docs": pa.array(np.full(len(term_h), n_docs, dtype=np.int64)),
                "n_tokens": pa.array(np.full(len(term_h), len(rows), dtype=np.int64)),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("term_idx", sort=True)["df"].sum()
    df_t = g.to_numpy(dtype=np.float64)
    n = float(parts.loc[parts.term_idx == 0, "n_docs"].sum())
    avgdl = float(parts.loc[parts.term_idx == 0, "n_tokens"].sum()) / max(n, 1.0)
    idf = np.log(1.0 + (n - df_t + 0.5) / (df_t + 0.5))

    def score(tbl: pa.Table) -> pa.Table:
        texts = np.asarray(tbl["text"].to_pandas(), dtype=object)
        rows, wh = explode_tokens(texts, sep=" ")
        dl = np.bincount(rows, minlength=len(texts)).astype(np.float64)
        sc = np.zeros(len(texts), dtype=np.float64)
        for i, h in enumerate(term_h):
            tf = np.bincount(rows[wh == h], minlength=len(texts)).astype(np.float64)
            sc += idf[i] * tf * (_BM25_K1 + 1.0) / (
                tf + _BM25_K1 * (1.0 - _BM25_B + _BM25_B * dl / avgdl)
            )
        return pa.table({"doc_id": tbl["doc_id"], "bm25": pa.array(np.round(sc, 6))})

    out = ds.map_batches(score, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


QUERIES["q_bm25"] = q_bm25
ORACLE_SQL["q_bm25"] = f"""
    WITH t AS (SELECT doc_id, string_split(text, ' ') AS ws
               FROM documents WHERE text IS NOT NULL),
    tok AS (SELECT doc_id, unnest(ws) AS term FROM t),
    dl AS (SELECT doc_id, len(ws) * 1.0 AS dl FROM t),
    corp AS (SELECT COUNT(*) * 1.0 AS n, AVG(len(ws)) AS avgdl FROM t),
    qt AS (SELECT * FROM (VALUES ('{_BM25_TERMS[0]}'), ('{_BM25_TERMS[1]}'),
                                 ('{_BM25_TERMS[2]}')) AS q(term)),
    df AS (SELECT qt.term, COUNT(DISTINCT tok.doc_id) * 1.0 AS df
           FROM qt LEFT JOIN tok USING (term) GROUP BY qt.term),
    tf AS (SELECT doc_id, term, COUNT(*) * 1.0 AS tf
           FROM tok JOIN qt USING (term) GROUP BY 1, 2),
    sc AS (SELECT tf.doc_id,
                  SUM(LN(1.0 + (corp.n - df.df + 0.5) / (df.df + 0.5))
                      * tf.tf * {_BM25_K1 + 1.0}
                      / (tf.tf + {_BM25_K1} * (1.0 - {_BM25_B}
                         + {_BM25_B} * dl.dl / corp.avgdl))) AS score
           FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN corp
           GROUP BY 1)
    SELECT d.doc_id, ROUND(COALESCE(sc.score, 0.0), 6) AS bm25
    FROM documents d LEFT JOIN sc USING (doc_id)
    ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# stratified sampling / per-group top-k / grouped mode / ordering checks
# ---------------------------------------------------------------------------

#: per-stratum sampling rates for q_stratified_sample — downsample the
#: dominant interaction events, keep conversions whole (the canonical
#: class-rebalance shape for training-data curation)
_STRAT_RATES = {"click": 0.12, "view": 0.05, "purchase": 1.0}
_STRAT_DEFAULT = 0.5
_STRAT_SEED = 131


def q_stratified_sample(sf_dir: str) -> pd.DataFrame:
    """Stratified deterministic sampling (stages/sampling.stratified_sample):
    per-stratum keep rates resolved through a per-batch dictionary-encoded
    LUT, decision = splitmix64(event_id ^ seed) % 10^6 < rate. Shuffle-free,
    order-independent, append-stable. Oracle-backed bit-exactly: the keyed
    hash is reproduced in SQL (:func:`_splitmix_cte`) and the per-stratum
    count + id checksum hash-compare."""
    from ..stages import sampling as sp

    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["event_id", "event_type"])
    out = (
        sp.stratified_sample(
            ds, "event_type", "event_id", _STRAT_RATES, default_rate=_STRAT_DEFAULT, seed=_STRAT_SEED
        )
        .groupby("event_type")
        .aggregate(Count(alias_name="n"), Sum("event_id", alias_name="id_sum"))
        .to_pandas()
    )
    out["n"] = out["n"].astype("int64")
    out["id_sum"] = out["id_sum"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)[["event_type", "n", "id_sum"]]


def _stratified_sample_sql() -> str:
    cases = " ".join(
        f"WHEN '{k}' THEN {round(v * 1_000_000)}" for k, v in sorted(_STRAT_RATES.items())
    )
    return (
        _splitmix_cte("events", "event_id", ["event_type", "event_id"], _STRAT_SEED)
        + f"""
    SELECT event_type, COUNT(*) AS n, CAST(SUM(event_id) AS BIGINT) AS id_sum
    FROM h
    WHERE r < CASE event_type {cases} ELSE {round(_STRAT_DEFAULT * 1_000_000)} END
    GROUP BY event_type ORDER BY event_type
    """
    )


QUERIES["q_stratified_sample"] = q_stratified_sample
ORACLE_SQL["q_stratified_sample"] = _stratified_sample_sql()


def q_top_per_group(sf_dir: str) -> pd.DataFrame:
    """Distributed per-group top-k (top-3 orders per customer by price):
    a batch-local combiner first prunes each batch to its own per-key top-3
    (any global top-3 row of a key is a batch-local top-3 row — the shrink
    is data-sized in, 3x-keys-sized out BEFORE the shuffle), then ONE
    window_over hash-bucket shuffle ranks the survivors with the segmented
    row_number kernel. At 10^12 rows the shuffle moves <= 3 rows per key,
    never the fact table."""
    K = 3
    ds = rd.read_parquet(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["o_custkey", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True],
            kind="stable",
        )
        df["neg_price"] = -df["o_totalprice"]
        return df.groupby("o_custkey", sort=False).head(K)

    out = wd.window_over(
        ds.map_batches(prune, batch_format="pandas"),
        key="o_custkey",
        order=["neg_price", "o_orderkey"],
        specs=[("row_number", None, "rk")],
    ).to_pandas()
    out = out[out["rk"] <= K].drop(columns="neg_price")
    out["rk"] = out["rk"].astype("int64")
    return out.sort_values(["o_custkey", "rk"]).reset_index(drop=True)[
        ["o_custkey", "rk", "o_orderkey", "o_totalprice"]
    ]


QUERIES["q_top_per_group"] = q_top_per_group
ORACLE_SQL["q_top_per_group"] = """
    SELECT o_custkey, rk, o_orderkey, o_totalprice FROM (
      SELECT o_custkey, o_orderkey, o_totalprice,
             ROW_NUMBER() OVER (PARTITION BY o_custkey
                                ORDER BY o_totalprice DESC, o_orderkey) AS rk
      FROM orders)
    WHERE rk <= 3 ORDER BY o_custkey, rk
"""


def q_mode_by_group(sf_dir: str) -> pd.DataFrame:
    """Grouped mode (most frequent lang per source, deterministic min-lang
    tie-break) via the partial-counts combiner shape: per-batch
    (source, lang) counts inside map_batches, a groupby over the tiny
    (sources x langs) partial space, then a group-count-sized driver argmax.
    The data-sized scan never shuffles — only count rows do."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["source", "lang"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(["source", "lang"], sort=False, dropna=False)
            .size()
            .reset_index(name="n")
        )

    counts = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(["source", "lang"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    counts = counts.sort_values(
        ["source", "n", "lang"], ascending=[True, False, True], kind="stable"
    )
    out = counts.groupby("source", sort=False).head(1).reset_index(drop=True)
    out = out.rename(columns={"lang": "mode_lang"})
    out["n"] = out["n"].astype("int64")
    return out[["source", "mode_lang", "n"]]


QUERIES["q_mode_by_group"] = q_mode_by_group
ORACLE_SQL["q_mode_by_group"] = """
    WITH c AS (SELECT source, lang, COUNT(*) AS n FROM documents GROUP BY 1, 2),
    r AS (SELECT source, lang AS mode_lang, n,
                 ROW_NUMBER() OVER (PARTITION BY source ORDER BY n DESC, lang) AS rk
          FROM c)
    SELECT source, mode_lang, n FROM r WHERE rk = 1 ORDER BY source
"""


#: minimum plausible inter-event spacing per user — events closer than this
#: to their predecessor are flagged as a burst (bot/replay anomaly)
_BURST_GAP_US = 3_600_000_000  # 1 hour


def q_burst_events(sf_dir: str) -> pd.DataFrame:
    """Temporal-spacing constraint check — the transcript inter-turn-gap
    validation (north_rule ordering family) recast on events: under per-user
    time order (ts, event_id), flag rows that arrived less than
    ``_BURST_GAP_US`` after the user's previous event (rapid-fire burst /
    replay anomaly). ONE window_over shuffle computes lag(ts) with the
    segmented kernel; the flagged set reduces to per-type counts + id
    checksum without ever landing on the driver."""
    ds = rd.read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "user_id", "event_type", "ts"]
    )
    w = wd.window_over(
        ds, key="user_id", order=["ts", "event_id"], specs=[("lag", "ts", "prev_ts")]
    )

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        gap = df["ts"].to_numpy().astype("datetime64[us]").astype("int64") - df[
            "prev_ts"
        ].to_numpy().astype("datetime64[us]").astype("int64")
        m = df["prev_ts"].notna().to_numpy() & (gap < _BURST_GAP_US)
        return df.loc[m, ["event_type", "event_id"]]

    out = (
        w.map_batches(flag, batch_format="pandas")
        .groupby("event_type")
        .aggregate(Count(alias_name="n_burst"), Sum("event_id", alias_name="id_sum"))
        .to_pandas()
    )
    if out.empty:
        return pd.DataFrame(
            {
                "event_type": pd.Series(dtype="object"),
                "n_burst": pd.Series(dtype="int64"),
                "id_sum": pd.Series(dtype="int64"),
            }
        )
    out["n_burst"] = out["n_burst"].astype("int64")
    out["id_sum"] = out["id_sum"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)[
        ["event_type", "n_burst", "id_sum"]
    ]


QUERIES["q_burst_events"] = q_burst_events
ORACLE_SQL["q_burst_events"] = f"""
    WITH w AS (SELECT event_type, event_id, ts,
                      LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_ts
               FROM events)
    SELECT event_type, COUNT(*) AS n_burst, CAST(SUM(event_id) AS BIGINT) AS id_sum
    FROM w WHERE prev_ts IS NOT NULL
      AND epoch_us(ts) - epoch_us(prev_ts) < {_BURST_GAP_US}
    GROUP BY event_type ORDER BY event_type
"""


_TEMP_SEED = 277


def q_temperature_sample(sf_dir: str) -> pd.DataFrame:
    """Temperature-based language rebalancing (the multilingual-corpus
    resampling scheme from the XLM-R/mBERT line of work, alpha=0.5): keep
    rate per lang = sqrt(min_share / share), so the rarest language is kept
    whole and dominant ones are downsampled toward equal representation.
    Two pruned streaming scans, zero data shuffles: a tiny per-lang count
    pass derives the rates, then stratified_sample applies them with the
    keyed hash. Oracle-backed bit-exactly — sqrt and division are IEEE
    correctly-rounded, so numpy and DuckDB derive the SAME integer cut per
    lang, and the splitmix64 keep decision is reproduced in SQL."""
    from ..stages import sampling as sp

    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "lang"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("lang", sort=False, dropna=False).size().reset_index(name="n")

    counts = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("lang")
        .aggregate(Sum("n", alias_name="n_total"))
        .to_pandas()
    )
    cmin = np.float64(counts.n_total.min())
    cuts = {
        r.lang: int(np.floor(np.sqrt(cmin / np.float64(r.n_total)) * np.float64(1_000_000)))
        for r in counts.itertuples()
    }
    rates = {k: v / 1_000_000 for k, v in cuts.items()}
    kept = (
        sp.stratified_sample(ds, "lang", "doc_id", rates, seed=_TEMP_SEED)
        .groupby("lang")
        .aggregate(Count(alias_name="n_kept"), Sum("doc_id", alias_name="id_sum"))
        .to_pandas()
    )
    out = kept.merge(counts, on="lang", how="inner")
    for c in ("n_total", "n_kept", "id_sum"):
        out[c] = out[c].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)[
        ["lang", "n_total", "n_kept", "id_sum"]
    ]


QUERIES["q_temperature_sample"] = q_temperature_sample
ORACLE_SQL["q_temperature_sample"] = (
    _splitmix_cte("documents", "doc_id", ["lang", "doc_id"], _TEMP_SEED)
    + """
    , c AS (SELECT lang, COUNT(*) * 1.0 AS c, COUNT(*) AS n_total FROM documents GROUP BY 1),
    m AS (SELECT MIN(c) AS cmin FROM c),
    cut AS (SELECT lang, n_total,
                   CAST(FLOOR(SQRT(m.cmin / c.c) * 1000000) AS BIGINT) AS cut
            FROM c, m)
    SELECT h.lang, cut.n_total AS n_total, COUNT(*) AS n_kept,
           CAST(SUM(h.doc_id) AS BIGINT) AS id_sum
    FROM h JOIN cut USING (lang)
    WHERE h.r < cut.cut
    GROUP BY h.lang, cut.n_total ORDER BY lang
    """
)


def q_quarantine_export(sf_dir: str) -> pd.DataFrame:
    """Quarantine/clean corpus split (pipelines/export.py): validate, then
    materialize the clean set and the quarantined violations as per-partition
    parquet, resumable. Rows-only check (the split's exactness — quarantined
    == row-level violation keys, clean+quarantine == input — is pinned by
    tests/test_export.py)."""
    from .export import export_quarantine

    data = synth_transcripts(sf_dir)
    out = os.path.join(_OUT_ROOT, os.path.basename(data) + "_qexp")
    exp = os.path.join(_OUT_ROOT, os.path.basename(data) + "_qexp_split")
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(exp, ignore_errors=True)
    run_validation(data, out, ValidationConfig())
    res = export_quarantine(data, out, exp)
    return pd.DataFrame([res])[["n_partitions", "rows", "quarantined", "n_skipped"]]


QUERIES["q_quarantine_export"] = q_quarantine_export


def q_sorted_ranks(sf_dir: str) -> pd.DataFrame:
    """Distributed global sort with exact rank assignment
    (stages/ordering.py): sample-based range partitioning, per-range
    lexsort, count-prefix rank offsets. Emits every 997th rank of lineitem
    under ORDER BY (l_extendedprice, l_orderkey, l_linenumber) — a
    rank-sampled audit whose output is driver-safe at any input size and
    hash-compares against SQL ROW_NUMBER."""
    from ..stages import ordering as od

    ds = rd.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"],
    )
    out = od.global_ranks(
        ds,
        key="l_extendedprice",
        tiebreak=["l_orderkey", "l_linenumber"],
        n_ranges=32,
        keep=["l_orderkey", "l_extendedprice"],
        every=997,
    ).to_pandas()
    out["rk"] = out["rk"].astype("int64")
    out["l_orderkey"] = out["l_orderkey"].astype("int64")
    return out.sort_values("rk").reset_index(drop=True)[
        ["rk", "l_orderkey", "l_extendedprice"]
    ]


QUERIES["q_sorted_ranks"] = q_sorted_ranks
ORACLE_SQL["q_sorted_ranks"] = """
    SELECT rk, l_orderkey, l_extendedprice FROM (
      SELECT l_orderkey, l_extendedprice,
             ROW_NUMBER() OVER (ORDER BY l_extendedprice, l_orderkey, l_linenumber) AS rk
      FROM lineitem)
    WHERE rk % 997 = 1 ORDER BY rk
"""

def q_group_distinct_hll(sf_dir: str) -> pd.DataFrame:
    """Per-group approx-distinct certified against the per-group exact count
    (stages/stats.grouped_hll_distinct — sketch blobs shuffle, keys never
    do). Oracle pins every group's n_exact (SQL COUNT DISTINCT) and
    within_3sigma=1; an out-of-bound sketch in ANY group hash-fails."""
    from ..stages.stats import grouped_hll_distinct

    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["event_type", "user_id"])

    def clean(tbl: pa.Table) -> pa.Table:
        return tbl.filter(pc.and_(pc.is_valid(tbl["event_type"]), pc.is_valid(tbl["user_id"])))

    ds = ds.map_batches(clean, batch_format="pyarrow", batch_size=None)
    est = grouped_hll_distinct(ds, "event_type", "user_id", p=14).to_pandas()
    # exact reference: two-level distributed distinct (group,key) -> count
    exact = (
        ds.groupby(["event_type", "user_id"])
        .aggregate(Count(alias_name="c"))
        .groupby("event_type")
        .aggregate(Count(alias_name="n_exact"))
        .to_pandas()
    )
    out = exact.merge(est, on="event_type")
    sigma3 = 3 * 1.04 / np.sqrt(2**14)
    out["within_3sigma"] = (
        (out["estimate"] - out["n_exact"]).abs() / out["n_exact"] <= sigma3
    ).astype("int64")
    out["n_exact"] = out["n_exact"].astype("int64")
    return out[["event_type", "n_exact", "within_3sigma"]].sort_values("event_type").reset_index(drop=True)


QUERIES["q_group_distinct_hll"] = q_group_distinct_hll
ORACLE_SQL["q_group_distinct_hll"] = """
    SELECT event_type, COUNT(DISTINCT user_id) AS n_exact,
           CAST(1 AS BIGINT) AS within_3sigma
    FROM events WHERE event_type IS NOT NULL AND user_id IS NOT NULL
    GROUP BY event_type ORDER BY event_type
"""


def q_prepare_corpus(sf_dir: str) -> pd.DataFrame:
    """Flagship training-data preparation (pipelines/prepare.py): quality
    gate -> decontamination -> near-dup collapse -> token packing -> split
    export, every stage a streaming Dataset transform. The certified output
    is the stage-retention manifest — each retained count and the final
    token total are recomputed independently in SQL from the same gates, so
    a silently-dropping (or silently-keeping) stage hash-fails."""
    from . import prepare as pr

    docs = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    out = os.path.join(_OUT_ROOT, f"prepared_{os.path.basename(os.path.normpath(sf_dir))}")
    shutil.rmtree(out, ignore_errors=True)
    m = pr.prepare_training_shards(docs, out)
    return pd.DataFrame(
        [
            {
                "n_input": m["n_input"],
                "n_quality": m["n_quality"],
                "n_clean": m["n_clean"],
                "n_final": m["n_final"],
                "total_tokens": m["total_tokens"],
            }
        ]
    ).astype("int64")


QUERIES["q_prepare_corpus"] = q_prepare_corpus
ORACLE_SQL["q_prepare_corpus"] = """
    WITH RECURSIVE
    raw AS (SELECT doc_id, text FROM documents),
    pool AS (SELECT * FROM raw WHERE doc_id % 13 <> 0),
    d AS (SELECT doc_id, string_split(text, ' ') AS ws FROM pool),
    tok AS (SELECT doc_id, unnest(ws) AS word FROM d),
    dw AS (SELECT doc_id, COUNT(*) AS n_tok, COUNT(DISTINCT word) AS n_dist
           FROM tok GROUP BY doc_id),
    bgc AS (SELECT doc_id, g, COUNT(*) AS c FROM
              (SELECT doc_id,
                      unnest([ws[i] || ' ' || ws[i+1] FOR i IN generate_series(1, len(ws) - 1)]) AS g
               FROM d)
            GROUP BY doc_id, g),
    top AS (SELECT doc_id, MAX(c) AS mx, SUM(c) AS tot FROM bgc GROUP BY doc_id),
    qual AS (SELECT p.doc_id, p.text FROM pool p
             LEFT JOIN dw USING (doc_id) LEFT JOIN top USING (doc_id)
             WHERE COALESCE(1 - dw.n_dist::DOUBLE / dw.n_tok, 0.0) <= 0.625
               AND COALESCE(top.mx::DOUBLE / top.tot, 0.0) <= 0.05
               AND COALESCE(dw.n_tok, 0) >= 2),
    bench_grams AS (SELECT DISTINCT gram FROM
        (SELECT unnest([array_to_string(ws[i:i+3], ' ') FOR i IN generate_series(1, len(ws) - 3)]) AS gram
         FROM (SELECT string_split(text, ' ') AS ws FROM raw WHERE doc_id % 13 = 0))),
    qg AS (SELECT doc_id,
                  unnest([array_to_string(ws[i:i+3], ' ') FOR i IN generate_series(1, len(ws) - 3)]) AS gram
           FROM (SELECT doc_id, string_split(text, ' ') AS ws FROM qual)),
    contaminated AS (SELECT DISTINCT qg.doc_id FROM qg JOIN bench_grams USING (gram)),
    clean AS (SELECT * FROM qual WHERE doc_id NOT IN (SELECT doc_id FROM contaminated)),
    cg AS (SELECT DISTINCT doc_id, gram FROM
        (SELECT doc_id,
                unnest([array_to_string(ws[i:i+3], ' ') FOR i IN generate_series(1, len(ws) - 3)]) AS gram
         FROM (SELECT doc_id, string_split(text, ' ') AS ws FROM clean))),
    e AS (SELECT a.doc_id AS u, b.doc_id AS v FROM cg a JOIN cg b USING (gram)
          WHERE a.doc_id <> b.doc_id GROUP BY 1, 2),
    reach AS (SELECT doc_id AS node, doc_id AS label FROM clean
              UNION
              SELECT e.v AS node, reach.label AS label
              FROM reach JOIN e ON e.u = reach.node WHERE reach.label < e.v),
    lab AS (SELECT node, MIN(label) AS cluster_id FROM reach GROUP BY node),
    final AS (SELECT c.doc_id, c.text FROM clean c
              JOIN lab ON lab.node = c.doc_id WHERE lab.node = lab.cluster_id)
    SELECT (SELECT COUNT(*) FROM raw) AS n_input,
           (SELECT COUNT(*) FROM qual) AS n_quality,
           (SELECT COUNT(*) FROM clean) AS n_clean,
           (SELECT COUNT(*) FROM final) AS n_final,
           (SELECT COALESCE(SUM(len(regexp_extract_all(text, '\\S+'))), 0) FROM final)::BIGINT AS total_tokens
"""


def q_incremental_dedup(sf_dir: str) -> pd.DataFrame:
    """Delta-vs-corpus near-dup check (pipelines/dedup_index.py): the
    even-doc_id half is indexed (persisted LSH banded table, text never
    stored), the odd half is checked against it — ONE shuffle pairs the
    delta's banded rows with the stored ones, only CROSS pairs verify.
    Oracle: exact all-pairs gram Jaccard >= 0.8 restricted to cross-parity
    pairs (same certified 21x3 banding as q_minhash_pairs)."""
    from . import dedup_index as di

    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def side(parity: int):
        def fn(tbl: pa.Table) -> pa.Table:
            n_tok = pc.count_substring_regex(tbl["text"], pattern=r"\S+")
            keep = pc.and_(
                pc.greater_equal(pc.fill_null(n_tok, 0), 3),
                pc.equal(
                    pc.subtract(tbl["doc_id"], pc.multiply(pc.divide(tbl["doc_id"], 2), 2)),
                    parity,
                ),
            )
            return tbl.filter(keep)

        return fn

    old = ds.map_batches(side(0), batch_format="pyarrow", batch_size=None)
    new = ds.map_batches(side(1), batch_format="pyarrow", batch_size=None)
    idx = os.path.join(_OUT_ROOT, f"minhash_index_{os.path.basename(os.path.normpath(sf_dir))}")
    shutil.rmtree(idx, ignore_errors=True)
    di.build_minhash_index(old, "text", "doc_id", idx)
    out = di.dedup_against_index(new, old, "text", "doc_id", idx)
    out["jaccard"] = out["jaccard"].round(6)
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    return out


QUERIES["q_incremental_dedup"] = q_incremental_dedup
ORACLE_SQL["q_incremental_dedup"] = """
    WITH d AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS ws FROM documents
               WHERE text IS NOT NULL AND len(regexp_extract_all(text, '\\S+')) >= 3),
    g AS (SELECT doc_id,
                 unnest([array_to_string(ws[i:i+2], ' ') FOR i IN generate_series(1, len(ws) - 2)]) AS gram
          FROM d),
    gd AS (SELECT DISTINCT doc_id, gram FROM g),
    sz AS (SELECT doc_id, COUNT(*) AS n FROM gd GROUP BY doc_id),
    inter AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS i
              FROM gd a JOIN gd b USING (gram)
              WHERE a.doc_id < b.doc_id AND (a.doc_id % 2) <> (b.doc_id % 2)
              GROUP BY 1, 2)
    SELECT id_a, id_b, ROUND(i::DOUBLE / (sa.n + sb.n - i), 6) AS jaccard
    FROM inter JOIN sz sa ON sa.doc_id = id_a JOIN sz sb ON sb.doc_id = id_b
    WHERE i::DOUBLE / (sa.n + sb.n - i) >= 0.8 ORDER BY id_a, id_b
"""


_SPAN_MIN_TOKENS = 8


def q_shared_spans(sf_dir: str) -> pd.DataFrame:
    """Exact duplicated-span detection (the ExactSubstr family): doc pairs
    sharing a run of >= 8 consecutive tokens, with the EXACT longest shared
    run length (stages/dedup.shared_span_pairs — candidates from one
    gram-hash shuffle, spans measured by sparse-table binary search over the
    candidate-sized text gather). Oracle: K-gram candidate join + token-
    position gaps-and-islands longest-diagonal-run."""
    docs = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    out = dd.shared_span_pairs(docs, "text", "doc_id", min_tokens=_SPAN_MIN_TOKENS)
    return out.astype("int64")


QUERIES["q_shared_spans"] = q_shared_spans
ORACLE_SQL["q_shared_spans"] = f"""
    WITH d AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents WHERE text IS NOT NULL),
    tok AS (SELECT doc_id, unnest(ws) AS tok, unnest(generate_series(1, len(ws))) AS i FROM d),
    kg AS (SELECT doc_id,
           unnest([array_to_string(ws[i:i+{_SPAN_MIN_TOKENS - 1}], ' ')
                   FOR i IN generate_series(1, len(ws) - {_SPAN_MIN_TOKENS - 1})]) AS gram
           FROM d),
    cand AS (SELECT DISTINCT a.doc_id AS u, b.doc_id AS v
             FROM kg a JOIN kg b USING (gram) WHERE a.doc_id < b.doc_id),
    m AS (SELECT c.u, c.v, ta.i AS ai, tb.i AS bi
          FROM cand c JOIN tok ta ON ta.doc_id = c.u
                      JOIN tok tb ON tb.doc_id = c.v AND tb.tok = ta.tok),
    isl AS (SELECT u, v, ai - bi AS diag,
                   ai - ROW_NUMBER() OVER (PARTITION BY u, v, ai - bi ORDER BY ai) AS grp
            FROM m),
    runs AS (SELECT u, v, COUNT(*) AS run FROM isl GROUP BY u, v, diag, grp)
    SELECT u AS id_a, v AS id_b, MAX(run) AS max_run
    FROM runs GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_ntile_bins(sf_dir: str) -> pd.DataFrame:
    """Equi-depth discretization (stages/ordering.py:ntile_buckets): every
    lineitem row tagged with its NTILE(8) bucket under a total order, then a
    bucket-count-sized aggregate — quantile-binned curriculum stats. Oracle:
    native NTILE window."""
    from ray.data.aggregate import Count as _Count, Max as _Max, Min as _Min

    from ..stages import ordering as od

    ds = rd.read_parquet(
        _p(sf_dir, "lineitem"), columns=["l_orderkey", "l_linenumber", "l_extendedprice"]
    )
    binned = od.ntile_buckets(
        ds, key="l_extendedprice", tiebreak=["l_orderkey", "l_linenumber"], n_buckets=8
    )
    out = (
        binned.groupby("bucket")
        .aggregate(
            _Count(alias_name="n_rows"),
            _Min("l_extendedprice", alias_name="min_price"),
            _Max("l_extendedprice", alias_name="max_price"),
        )
        .to_pandas()
    )
    out["bucket"] = out["bucket"].astype("int64")
    out["n_rows"] = out["n_rows"].astype("int64")
    for c in ("min_price", "max_price"):
        out[c] = out[c].round(2)
    return out.sort_values("bucket").reset_index(drop=True)


QUERIES["q_ntile_bins"] = q_ntile_bins
ORACLE_SQL["q_ntile_bins"] = """
    SELECT bucket, COUNT(*) AS n_rows,
           ROUND(MIN(l_extendedprice), 2) AS min_price,
           ROUND(MAX(l_extendedprice), 2) AS max_price
    FROM (SELECT l_extendedprice,
                 NTILE(8) OVER (ORDER BY l_extendedprice, l_orderkey, l_linenumber) AS bucket
          FROM lineitem)
    GROUP BY bucket ORDER BY bucket
"""


def q_zorder_ranks(sf_dir: str) -> pd.DataFrame:
    """Z-order data-layout audit: every 997th global rank of lineitem under
    ORDER BY morton(l_partkey, l_suppkey) — the locality-preserving
    multi-column clustering key (stages/ordering.morton_interleave +
    global_ranks). Oracle recomputes the interleave bit-exactly as a SQL
    list-comprehension sum."""
    from ..stages import ordering as od

    ds = rd.read_parquet(
        _p(sf_dir, "lineitem"), columns=["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey"]
    )
    z = od.morton_interleave(ds, ["l_partkey", "l_suppkey"], out_col="zorder")
    out = od.global_ranks(
        z,
        key="zorder",
        tiebreak=["l_orderkey", "l_linenumber"],
        n_ranges=32,
        keep=["l_partkey", "l_suppkey", "zorder"],
        every=997,
    ).to_pandas()
    for c in ("rk", "l_partkey", "l_suppkey", "zorder"):
        out[c] = out[c].astype("int64")
    return out.sort_values("rk").reset_index(drop=True)[
        ["rk", "l_partkey", "l_suppkey", "zorder"]
    ]


QUERIES["q_zorder_ranks"] = q_zorder_ranks
ORACLE_SQL["q_zorder_ranks"] = """
    SELECT rk, l_partkey, l_suppkey, zorder FROM (
      SELECT l_partkey, l_suppkey, zorder,
             ROW_NUMBER() OVER (ORDER BY zorder, l_orderkey, l_linenumber) AS rk
      FROM (SELECT l_orderkey, l_linenumber, l_partkey, l_suppkey,
                   CAST(list_sum([(l_partkey >> i & 1) * (CAST(1 AS BIGINT) << (2*i))
                             + (l_suppkey >> i & 1) * (CAST(1 AS BIGINT) << (2*i + 1))
                             FOR i IN generate_series(0, 20)]) AS BIGINT) AS zorder
            FROM lineitem))
    WHERE rk % 997 = 1 ORDER BY rk
"""


def q_weighted_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic weighted sampling without replacement (A-ES priorities,
    stages/sampling.weighted_sample): purchases weighted 4x, clicks 2x.
    Power-of-two weights make the fractional power a sqrt chain, so
    priorities are BIT-IDENTICAL numpy vs DuckDB and the selected set is
    hash-exact. Distributed as block-local top-k — no shuffle, driver sees
    <= n_blocks x k candidates."""
    from ..stages import sampling as sp

    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["event_id", "event_type"])

    def add_weight(tbl: pa.Table) -> pa.Table:
        et = tbl["event_type"]
        w = pc.if_else(
            pc.equal(et, "purchase"),
            pa.scalar(4, pa.int64()),
            pc.if_else(pc.equal(et, "click"), pa.scalar(2, pa.int64()), pa.scalar(1, pa.int64())),
        )
        return pa.table({"event_id": tbl["event_id"], "weight": pc.fill_null(w, 1)})

    prepared = ds.map_batches(add_weight, batch_format="pyarrow", batch_size=None)
    out = sp.weighted_sample(prepared, "event_id", "weight", k=100, seed=11)
    out["event_id"] = out["event_id"].astype("int64")
    out["weight"] = out["weight"].astype("int64")
    out["priority"] = out["priority"].astype("float64")
    return out.sort_values(["priority", "event_id"], ascending=[False, True]).reset_index(drop=True)


QUERIES["q_weighted_sample"] = q_weighted_sample
ORACLE_SQL["q_weighted_sample"] = f"""
    WITH s AS (SELECT event_id,
               CASE WHEN event_type = 'purchase' THEN 4
                    WHEN event_type = 'click' THEN 2 ELSE 1 END AS weight,
               xor(CAST(event_id AS UBIGINT), CAST(11 AS UBIGINT)) AS x
               FROM events),
    {_splitmix_full_cte('s', ['event_id', 'weight'])}
    SELECT event_id, CAST(weight AS BIGINT) AS weight, priority FROM (
      SELECT event_id, weight,
             CASE weight WHEN 4 THEN sqrt(sqrt(u)) WHEN 2 THEN sqrt(u) ELSE u END AS priority
      FROM (SELECT event_id, weight,
                   CAST(x AS DOUBLE) / 18446744073709551616 AS u FROM sm))
    ORDER BY priority DESC, event_id LIMIT 100
"""


_EPOCH_SEED = 2026


def q_epoch_shuffle(sf_dir: str) -> pd.DataFrame:
    """Deterministic training-epoch shuffle (stages/ordering.py:
    epoch_shuffle_ranks): every event's position in the epoch-2026
    permutation is its exact global rank under ORDER BY
    splitmix64(event_id XOR seed) — reproducible across runs and cluster
    sizes, unlike random_shuffle. Every 7th position is emitted (a
    rank-sampled audit, driver-safe at any scale); the oracle recomputes
    the identical permutation with the bit-exact splitmix64-in-SQL CTE."""
    from ..stages import ordering as od

    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["event_id"])
    out = od.epoch_shuffle_ranks(ds, key="event_id", seed=_EPOCH_SEED, n_ranges=32, every=7)
    out = out.to_pandas().rename(columns={"rk": "pos"})
    out["pos"] = out["pos"].astype("int64")
    out["event_id"] = out["event_id"].astype("int64")
    return out.sort_values("pos").reset_index(drop=True)[["pos", "event_id"]]


QUERIES["q_epoch_shuffle"] = q_epoch_shuffle
ORACLE_SQL["q_epoch_shuffle"] = f"""
    WITH s AS (SELECT event_id,
               xor(CAST(event_id AS UBIGINT), CAST({_EPOCH_SEED} AS UBIGINT)) AS x
               FROM events),
    {_splitmix_full_cte('s', ['event_id'])}
    SELECT pos, event_id FROM (
      SELECT ROW_NUMBER() OVER (ORDER BY x, event_id) AS pos, event_id FROM sm)
    WHERE pos % 7 = 1 ORDER BY pos
"""


#: declarative domain constraints over lineitem: name -> vectorized predicate
#: flagging VIOLATIONS (the checks.py registry idea applied to an arbitrary
#: parquet table; bounds chosen so some constraints pass clean and some fire)
_DOMAIN_CHECKS = {
    "quantity_in_1_45": lambda t: pc.greater(t["l_quantity"], 45.0),
    "discount_in_0_008": lambda t: pc.greater(t["l_discount"], 0.08),
    "price_positive": lambda t: pc.less_equal(t["l_extendedprice"], 0.0),
    "shipdate_before_1998": lambda t: pc.greater_equal(
        t["l_shipdate"], pa.scalar(np.datetime64("1998-01-01", "us"))
    ),
}


def q_domain_checks(sf_dir: str) -> pd.DataFrame:
    """Declarative domain/range constraint check over an arbitrary parquet
    table (the north_rule's column-constraint family beyond the transcript
    chain): each constraint is a vectorized Arrow predicate; per-batch
    violation counts reduce through one tiny aggregate — a data-sized scan,
    constraint-count-sized everything else."""
    ds = rd.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_quantity", "l_discount", "l_extendedprice", "l_shipdate"],
    )
    names = sorted(_DOMAIN_CHECKS)

    def partial(tbl: pa.Table) -> pa.Table:
        counts = [
            int(pc.sum(_DOMAIN_CHECKS[n](tbl)).as_py() or 0) for n in names
        ]
        return pa.table(
            {"check_name": pa.array(names), "n_violations": pa.array(counts, pa.int64())}
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("check_name")
        .aggregate(Sum("n_violations", alias_name="n_violations"))
        .to_pandas()
    )
    out["n_violations"] = out["n_violations"].astype("int64")
    return out.sort_values("check_name").reset_index(drop=True)[
        ["check_name", "n_violations"]
    ]


QUERIES["q_domain_checks"] = q_domain_checks
ORACLE_SQL["q_domain_checks"] = """
    SELECT check_name, CAST(n_violations AS BIGINT) AS n_violations FROM (
      SELECT 'quantity_in_1_45' AS check_name,
             SUM(CASE WHEN l_quantity > 45 THEN 1 ELSE 0 END) AS n_violations FROM lineitem
      UNION ALL
      SELECT 'discount_in_0_008',
             SUM(CASE WHEN l_discount > 0.08 THEN 1 ELSE 0 END) FROM lineitem
      UNION ALL
      SELECT 'price_positive',
             SUM(CASE WHEN l_extendedprice <= 0 THEN 1 ELSE 0 END) FROM lineitem
      UNION ALL
      SELECT 'shipdate_before_1998',
             SUM(CASE WHEN l_shipdate >= TIMESTAMP '1998-01-01' THEN 1 ELSE 0 END) FROM lineitem
    ) ORDER BY check_name
"""


def q_null_report(sf_dir: str) -> pd.DataFrame:
    """Per-column completeness report over events (null count + row count per
    column) — the column-stats null-rate check as a standalone, oracle-exact
    query. Per-batch Arrow null counts (metadata-cheap: Arrow tracks null
    counts per array) reduce through one tiny aggregate."""
    ds = rd.read_parquet(_p(sf_dir, "events"))

    def partial(tbl: pa.Table) -> pa.Table:
        cols = sorted(tbl.column_names)
        return pa.table(
            {
                "col_name": pa.array(cols),
                "n_null": pa.array([tbl[c].null_count for c in cols], pa.int64()),
                "n_rows": pa.array([tbl.num_rows] * len(cols), pa.int64()),
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("col_name")
        .aggregate(Sum("n_null", alias_name="n_null"), Sum("n_rows", alias_name="n_rows"))
        .to_pandas()
    )
    out["n_null"] = out["n_null"].astype("int64")
    out["n_rows"] = out["n_rows"].astype("int64")
    return out.sort_values("col_name").reset_index(drop=True)[["col_name", "n_null", "n_rows"]]


QUERIES["q_null_report"] = q_null_report
ORACLE_SQL["q_null_report"] = """
    WITH t AS (SELECT COUNT(*) AS n,
                      COUNT(event_id) AS c_event_id, COUNT(ts) AS c_ts,
                      COUNT(user_id) AS c_user_id, COUNT(event_type) AS c_event_type,
                      COUNT(value) AS c_value, COUNT(props) AS c_props
               FROM events)
    SELECT col_name, CAST(n_null AS BIGINT) AS n_null, CAST(n_rows AS BIGINT) AS n_rows FROM (
      SELECT 'event_id' AS col_name, n - c_event_id AS n_null, n AS n_rows FROM t
      UNION ALL SELECT 'ts', n - c_ts, n FROM t
      UNION ALL SELECT 'user_id', n - c_user_id, n FROM t
      UNION ALL SELECT 'event_type', n - c_event_type, n FROM t
      UNION ALL SELECT 'value', n - c_value, n FROM t
      UNION ALL SELECT 'props', n - c_props, n FROM t
    ) ORDER BY col_name
"""


ORACLE_SQL["q_hll_accuracy"] = """
    SELECT COUNT(DISTINCT l_orderkey) AS n_exact,
           CAST(1 AS BIGINT) AS within_3sigma
    FROM lineitem
"""


def q_schema_report(sf_dir: str) -> pd.DataFrame:
    """Footer-only schema-contract check (stages/schema_check.py) over the
    synthetic transcript corpus: every partition diffs against the transcript
    contract AND the majority-consistency election. Rows-only (metadata-level
    — no SQL analog); the deviation-detection paths are pinned by
    tests/test_schema_check.py."""
    from ..schema import TRANSCRIPT_FULL_SCHEMA
    from ..stages.schema_check import schema_report

    data = synth_transcripts(sf_dir)
    contract = schema_report(data, TRANSCRIPT_FULL_SCHEMA)
    consistency = schema_report(data)
    import glob as _glob

    return pd.DataFrame(
        [
            {
                "n_files": len(_glob.glob(os.path.join(data, "part-*.parquet"))),
                "contract_issues": len(contract),
                "consistency_issues": len(consistency),
            }
        ]
    )


QUERIES["q_schema_report"] = q_schema_report


def q_kll_quantile_by_type(sf_dir: str) -> pd.DataFrame:
    """Certified approximate per-group quantiles: a KLL sketch per event_type
    built from per-batch partials (merge is associative — sketch-sized blobs
    are all that leave the scan), then ONE more pruned pass computes the
    EXACT rank of each estimate, and the oracle pins the certificate: the
    p95 estimate's true rank must sit within 5% of target. The estimate
    itself is not SQL-expressible; its rank-error bound is."""
    from ..functions.sketches import KLLSketch

    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["event_type", "value"])

    def sk(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for t, g in df.groupby("event_type", sort=False):
            s = KLLSketch(k=400)
            s.update(g["value"].to_numpy())
            rows.append({"event_type": t, "blob": s.to_bytes()})
        return pd.DataFrame(rows)

    merged: dict[str, KLLSketch] = {}
    for r in ds.map_batches(sk, batch_format="pandas").to_pandas().itertuples():
        s = KLLSketch.from_bytes(r.blob)
        merged[r.event_type] = s if r.event_type not in merged else merged[r.event_type].merge(s)
    est = {t: s.quantile(0.95) for t, s in merged.items()}
    est_ref = _ray.put(est)

    def rankcount(df: pd.DataFrame) -> pd.DataFrame:
        e = _ray.get(est_ref)
        rows = []
        for t, g in df.groupby("event_type", sort=False):
            v = g["value"].to_numpy()
            rows.append({"event_type": t, "n_le": int((v <= e[t]).sum()), "n": len(v)})
        return pd.DataFrame(rows)

    rc = (
        ds.map_batches(rankcount, batch_format="pandas")
        .groupby("event_type")
        .aggregate(Sum("n_le", alias_name="n_le"), Sum("n", alias_name="n"))
        .to_pandas()
    )
    rc["p95_rank_ok"] = (np.abs(rc["n_le"] / rc["n"] - 0.95) <= 0.05).astype("int64")
    rc["n"] = rc["n"].astype("int64")
    return rc.sort_values("event_type").reset_index(drop=True)[
        ["event_type", "n", "p95_rank_ok"]
    ]


QUERIES["q_kll_quantile_by_type"] = q_kll_quantile_by_type
ORACLE_SQL["q_kll_quantile_by_type"] = """
    SELECT event_type, COUNT(*) AS n, CAST(1 AS BIGINT) AS p95_rank_ok
    FROM events GROUP BY event_type ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# OLAP wide aggregates: rollup / pivot / set ops (stages/olap.py)
# ---------------------------------------------------------------------------


def q_rollup_pricing(sf_dir: str) -> pd.DataFrame:
    """Distributed GROUP BY ROLLUP over lineitem: ONE data shuffle computes
    the finest (returnflag, linestatus) level; the subtotal and grand-total
    levels re-aggregate that group-count-sized result (additive aggregates
    compose — stages/olap.rollup_sums). Oracle: native SQL ROLLUP."""
    from ..stages import olap

    ds = rd.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def prep(tbl: pa.Table) -> pa.Table:
        rev = pc.multiply(tbl["l_extendedprice"], pc.subtract(pa.scalar(1.0), tbl["l_discount"]))
        return pa.table(
            {
                "l_returnflag": tbl["l_returnflag"],
                "l_linestatus": tbl["l_linestatus"],
                "qty": tbl["l_quantity"],
                "revenue": rev,
            }
        )

    prepared = ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
    out = olap.rollup_sums(prepared, ["l_returnflag", "l_linestatus"], ["qty", "revenue"]).to_pandas()
    out["sum_qty"] = out["sum_qty"].round(2)
    out["sum_revenue"] = out["sum_revenue"].round(2)
    out["n_rows"] = out["n_rows"].astype("int64")
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


QUERIES["q_rollup_pricing"] = q_rollup_pricing
ORACLE_SQL["q_rollup_pricing"] = """
    SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
           COALESCE(l_linestatus, 'ALL') AS l_linestatus,
           COUNT(*) AS n_rows,
           ROUND(SUM(l_quantity), 2) AS sum_qty,
           ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_revenue
    FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)
    ORDER BY 1, 2
"""


def q_pivot_event_quarters(sf_dir: str) -> pd.DataFrame:
    """Crosstab event_type x calendar quarter: indicator columns emitted per
    batch, ONE groupby-sum shuffle of (n_groups x n_buckets) cells
    (stages/olap.pivot_counts). Oracle: conditional aggregation."""
    from ..stages import olap

    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["event_type", "ts", "value"])

    def clean(tbl: pa.Table) -> pa.Table:
        return tbl.filter(pc.and_(pc.is_valid(tbl["ts"]), pc.is_valid(tbl["event_type"])))

    def indicators(tbl: pa.Table) -> dict:
        q = pc.add(pc.divide(pc.subtract(pc.month(tbl["ts"]), 1), 3), 1)
        cols = {f"n_q{k}": pc.cast(pc.equal(q, k), pa.int64()) for k in (1, 2, 3, 4)}
        cols["n_total"] = pa.array(np.ones(tbl.num_rows, dtype=np.int64))
        cols["sum_value"] = tbl["value"]
        return cols

    cleaned = ds.map_batches(clean, batch_format="pyarrow", batch_size=None)
    out = olap.pivot_counts(cleaned, "event_type", indicators).to_pandas()
    for c in ("n_q1", "n_q2", "n_q3", "n_q4", "n_total"):
        out[c] = out[c].astype("int64")
    out["sum_value"] = out["sum_value"].round(2)
    return out.sort_values("event_type").reset_index(drop=True)


QUERIES["q_pivot_event_quarters"] = q_pivot_event_quarters
ORACLE_SQL["q_pivot_event_quarters"] = """
    SELECT event_type,
           CAST(SUM(CASE WHEN quarter(ts) = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_q1,
           CAST(SUM(CASE WHEN quarter(ts) = 2 THEN 1 ELSE 0 END) AS BIGINT) AS n_q2,
           CAST(SUM(CASE WHEN quarter(ts) = 3 THEN 1 ELSE 0 END) AS BIGINT) AS n_q3,
           CAST(SUM(CASE WHEN quarter(ts) = 4 THEN 1 ELSE 0 END) AS BIGINT) AS n_q4,
           COUNT(*) AS n_total,
           ROUND(SUM(value), 2) AS sum_value
    FROM events WHERE ts IS NOT NULL AND event_type IS NOT NULL
    GROUP BY event_type ORDER BY event_type
"""


def q_set_ops(sf_dir: str) -> pd.DataFrame:
    """Distinct-user set algebra between two event cohorts (click vs
    purchase): block-local dedup + tagged union + ONE groupby decides
    membership per key from (min_side, max_side)
    (stages/olap.distinct_set_op). Oracle: native INTERSECT / EXCEPT."""
    from ..stages import olap

    ev = rd.read_parquet(_p(sf_dir, "events"), columns=["user_id", "event_type"])

    def cohort(event_type: str):
        def fn(tbl: pa.Table) -> pa.Table:
            keep = pc.and_(pc.equal(tbl["event_type"], event_type), pc.is_valid(tbl["user_id"]))
            return tbl.filter(keep).select(["user_id"])

        return fn

    clicks = ev.map_batches(cohort("click"), batch_format="pyarrow", batch_size=None)
    buys = ev.map_batches(cohort("purchase"), batch_format="pyarrow", batch_size=None)
    both = olap.distinct_set_op(clicks, buys, "user_id", "intersect").to_pandas()
    both.insert(0, "op", "click_and_purchase")
    only = olap.distinct_set_op(clicks, buys, "user_id", "except").to_pandas()
    only.insert(0, "op", "click_minus_purchase")
    out = pd.concat([both, only], ignore_index=True)
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values(["op", "user_id"]).reset_index(drop=True)


QUERIES["q_set_ops"] = q_set_ops
ORACLE_SQL["q_set_ops"] = """
    SELECT 'click_and_purchase' AS op, user_id FROM (
      SELECT DISTINCT user_id FROM events WHERE event_type = 'click' AND user_id IS NOT NULL
      INTERSECT
      SELECT DISTINCT user_id FROM events WHERE event_type = 'purchase' AND user_id IS NOT NULL)
    UNION ALL
    SELECT 'click_minus_purchase' AS op, user_id FROM (
      SELECT DISTINCT user_id FROM events WHERE event_type = 'click' AND user_id IS NOT NULL
      EXCEPT
      SELECT DISTINCT user_id FROM events WHERE event_type = 'purchase' AND user_id IS NOT NULL)
    ORDER BY op, user_id
"""


def q_cube_order_status(sf_dir: str) -> pd.DataFrame:
    """Distributed GROUP BY CUBE over orders (status x priority): all four
    grouping sets derive from ONE data shuffle — the finest level is shuffled
    once, the three coarser sets re-aggregate that group-count-sized result
    (stages/olap.cube_sums). Oracle: native SQL CUBE."""
    from ..stages import olap

    ds = rd.read_parquet(
        _p(sf_dir, "orders"), columns=["o_orderstatus", "o_orderpriority", "o_totalprice"]
    )
    out = olap.cube_sums(ds, ["o_orderstatus", "o_orderpriority"], ["o_totalprice"]).to_pandas()
    out = out.rename(columns={"sum_o_totalprice": "sum_price"})
    out["sum_price"] = out["sum_price"].round(2)
    out["n_rows"] = out["n_rows"].astype("int64")
    return out.sort_values(["o_orderstatus", "o_orderpriority"]).reset_index(drop=True)


QUERIES["q_cube_order_status"] = q_cube_order_status
ORACLE_SQL["q_cube_order_status"] = """
    SELECT COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
           COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
           COUNT(*) AS n_rows,
           ROUND(SUM(o_totalprice), 2) AS sum_price
    FROM orders GROUP BY CUBE(o_orderstatus, o_orderpriority)
    ORDER BY 1, 2
"""


def q_join_full_outer(sf_dir: str) -> pd.DataFrame:
    """FULL OUTER bucketed hash join (stages/joins.bucketed_hash_join,
    how='outer'): customers restricted to even keys so BOTH sides carry
    unmatched rows — odd-custkey orders miss right, order-less even
    customers miss left. Nulls are coalesced to sentinels on both sides so
    the compare stays dtype-exact int64/float64."""
    cust = rd.read_parquet(_p(sf_dir, "customer"), columns=["c_custkey", "c_acctbal"])

    def even(tbl: pa.Table) -> pa.Table:
        k = tbl["c_custkey"]
        return tbl.filter(pc.equal(pc.subtract(k, pc.multiply(pc.divide(k, 2), 2)), 0))

    cust = cust.map_batches(even, batch_format="pyarrow", batch_size=None)
    orders = rd.read_parquet(_p(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_totalprice"])
    orders = orders.map_batches(
        lambda t: t.rename_columns(["o_orderkey", "c_custkey", "o_totalprice"]),
        batch_format="pyarrow",
        batch_size=None,
    )
    out = jn.bucketed_hash_join(orders, cust, on="c_custkey", how="outer").to_pandas()
    out["c_custkey"] = out["c_custkey"].astype("int64")
    out["o_orderkey"] = out["o_orderkey"].fillna(-1).astype("int64")
    out["o_totalprice"] = out["o_totalprice"].fillna(-1.0).round(2)
    out["c_acctbal"] = out["c_acctbal"].fillna(-1.0).round(2)
    return out.sort_values(["c_custkey", "o_orderkey"]).reset_index(drop=True)[
        ["c_custkey", "o_orderkey", "o_totalprice", "c_acctbal"]
    ]


QUERIES["q_join_full_outer"] = q_join_full_outer
ORACLE_SQL["q_join_full_outer"] = """
    SELECT COALESCE(c.c_custkey, o.o_custkey) AS c_custkey,
           COALESCE(o_orderkey, -1) AS o_orderkey,
           ROUND(COALESCE(o_totalprice, -1.0), 2) AS o_totalprice,
           ROUND(COALESCE(c_acctbal, -1.0), 2) AS c_acctbal
    FROM (SELECT c_custkey, c_acctbal FROM customer WHERE c_custkey % 2 = 0) c
    FULL OUTER JOIN orders o ON o.o_custkey = c.c_custkey
    ORDER BY 1, 2
"""


def q_bloom_join(sf_dir: str) -> pd.DataFrame:
    """Bloom-prefiltered fact-dim join: high-value orders (~3% of the table)
    joined to lineitem. The dim side's keys become a distributed-built Bloom
    filter broadcast once; ~97% of lineitem rows are dropped BEFORE the
    bucketed shuffle, so exchange volume tracks the match count, not the
    fact table (stages/joins.bloom_prefiltered_join). Result is exactly the
    inner join — false positives die in the in-bucket merge."""
    li = rd.read_parquet(
        _p(sf_dir, "lineitem"), columns=["l_orderkey", "l_quantity", "l_extendedprice"]
    )
    li = li.map_batches(
        lambda t: t.rename_columns(["o_orderkey", "l_quantity", "l_extendedprice"]),
        batch_format="pyarrow",
        batch_size=None,
    )
    orders = rd.read_parquet(_p(sf_dir, "orders"), columns=["o_orderkey", "o_totalprice"])
    orders = orders.map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 480000.0)),
        batch_format="pyarrow",
        batch_size=None,
    )
    out = jn.bloom_prefiltered_join(li, orders, on="o_orderkey").to_pandas()
    out["o_orderkey"] = out["o_orderkey"].astype("int64")
    for c in ("l_quantity", "l_extendedprice", "o_totalprice"):
        out[c] = out[c].round(2)
    return out.sort_values(["o_orderkey", "l_extendedprice", "l_quantity"]).reset_index(drop=True)[
        ["o_orderkey", "l_quantity", "l_extendedprice", "o_totalprice"]
    ]


QUERIES["q_bloom_join"] = q_bloom_join
ORACLE_SQL["q_bloom_join"] = """
    SELECT l.l_orderkey AS o_orderkey,
           ROUND(l.l_quantity, 2) AS l_quantity,
           ROUND(l.l_extendedprice, 2) AS l_extendedprice,
           ROUND(o.o_totalprice, 2) AS o_totalprice
    FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
    WHERE o.o_totalprice > 480000.0
    ORDER BY 1, 3, 2
"""


def q_skew_join(sf_dir: str) -> pd.DataFrame:
    """Skew-aware join (stages/joins.skew_join): hot user_ids (detected from
    a bounded sample) take a broadcast no-shuffle path while the long tail
    buckets — the hot-conversation defense for join workloads. At sf0.01 the
    0.8% threshold genuinely activates the hot path (top events users carry
    ~0.86%); the oracle is the plain inner join, so BOTH paths' union must
    reproduce it exactly."""
    ev = rd.read_parquet(_p(sf_dir, "events"), columns=["event_id", "user_id"])
    cust = rd.read_parquet(_p(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"])
    cust = cust.map_batches(
        lambda t: t.rename_columns(["user_id", "c_mktsegment"]),
        batch_format="pyarrow",
        batch_size=None,
    )
    out = jn.skew_join(ev, cust, on="user_id", hot_frac=0.008).to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values(["user_id", "event_id"]).reset_index(drop=True)[
        ["user_id", "event_id", "c_mktsegment"]
    ]


QUERIES["q_skew_join"] = q_skew_join
ORACLE_SQL["q_skew_join"] = """
    SELECT user_id, event_id, c_mktsegment
    FROM events JOIN customer ON user_id = c_custkey
    ORDER BY user_id, event_id
"""


def q_skew_join_left(sf_dir: str) -> pd.DataFrame:
    """LEFT skew-aware join: hot keys broadcast, tail bucketed, with
    NA-semantics for unmatched rows (joins.skew_join how='left' — the
    promoted-dtype map is shared with the bucketed branch so hot and cold
    blocks carry one schema). The dimension is restricted to c_custkey % 3
    != 0 so ~1/3 of events genuinely exercise the unmatched-NA path."""
    ev = rd.read_parquet(_p(sf_dir, "events"), columns=["event_id", "user_id"])
    cust = rd.read_parquet(_p(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"])

    def sparse_dim(t: pa.Table) -> pa.Table:
        keys = t["c_custkey"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(keys % 3 != 0))
        return t.rename_columns(["user_id", "c_mktsegment"])

    cust = cust.map_batches(sparse_dim, batch_format="pyarrow", batch_size=None)
    out = jn.skew_join(ev, cust, on="user_id", how="left", hot_frac=0.008).to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    out["c_mktsegment"] = out["c_mktsegment"].where(out["c_mktsegment"].notna(), "<none>")
    return out.sort_values(["user_id", "event_id"]).reset_index(drop=True)[
        ["user_id", "event_id", "c_mktsegment"]
    ]


QUERIES["q_skew_join_left"] = q_skew_join_left
ORACLE_SQL["q_skew_join_left"] = """
    SELECT user_id, event_id, COALESCE(c_mktsegment, '<none>') AS c_mktsegment
    FROM events LEFT JOIN (SELECT c_custkey, c_mktsegment FROM customer
                           WHERE c_custkey % 3 <> 0) ON user_id = c_custkey
    ORDER BY user_id, event_id
"""


def q_corr_by_group(sf_dir: str) -> pd.DataFrame:
    """Per-group Pearson correlation as an ALGEBRAIC aggregate: each batch
    pre-aggregates exact int64 second-order moments (n, Σx, Σy, Σx², Σy²,
    Σxy) per group, the shuffle carries one 6-tuple per (block, group), and
    int64 sums are exact + order-independent — so the distributed part is
    bit-deterministic under any blocking, and the final corr is ONE fixed
    float expression over exactly-representable integers (every IEEE op
    correctly rounded → bit-identical to the DuckDB oracle's mirrored
    expression). The scale shape for corr/cov/stddev at 10^12 rows: no
    centering pass, no float accumulation drift, moments fit one cache line
    per group. Ref analog: processor.py:98-117 metric averaging, widened."""
    from ..stages.stats import corr_from_moments, grouped_moments

    ds = rd.read_parquet(
        _p(sf_dir, "lineitem"), columns=["l_returnflag", "l_quantity", "l_discount"]
    )

    def add_pct(t: pa.Table) -> pa.Table:
        # disc_pct = round(l_discount*100): the double product is the same
        # correctly-rounded value in numpy and DuckDB, never exactly *.5
        d = np.rint(t["l_discount"].to_numpy(zero_copy_only=False) * 100.0)
        return t.set_column(t.schema.get_field_index("l_discount"), "disc_pct", pa.array(d))

    ds = ds.map_batches(add_pct, batch_format="pyarrow", batch_size=None)
    m = grouped_moments(ds, "l_returnflag", "l_quantity", "disc_pct")
    m["corr_ppm"] = corr_from_moments(m)
    m = m.sort_values("l_returnflag").reset_index(drop=True)
    for c in ("n", "sum_x", "sum_y", "sum_xx", "sum_yy", "sum_xy"):
        m[c] = m[c].astype("int64")
    return m[["l_returnflag", "n", "sum_x", "sum_y", "sum_xx", "sum_yy", "sum_xy", "corr_ppm"]]


QUERIES["q_corr_by_group"] = q_corr_by_group
ORACLE_SQL["q_corr_by_group"] = """
    WITH q AS (
      SELECT l_returnflag,
             CAST(ROUND(l_quantity) AS BIGINT) AS x,
             CAST(ROUND(l_discount * 100.0) AS BIGINT) AS y
      FROM lineitem
    ), m AS (
      SELECT l_returnflag,
             COUNT(*) AS n,
             SUM(x) AS sum_x, SUM(y) AS sum_y,
             SUM(x*x) AS sum_xx, SUM(y*y) AS sum_yy, SUM(x*y) AS sum_xy
      FROM q GROUP BY l_returnflag
    )
    SELECT l_returnflag,
           CAST(n AS BIGINT) AS n,
           CAST(sum_x AS BIGINT) AS sum_x, CAST(sum_y AS BIGINT) AS sum_y,
           CAST(sum_xx AS BIGINT) AS sum_xx, CAST(sum_yy AS BIGINT) AS sum_yy,
           CAST(sum_xy AS BIGINT) AS sum_xy,
           CAST(FLOOR(
             CAST(n*sum_xy - sum_x*sum_y AS DOUBLE)
             / SQRT(CAST(n*sum_xx - sum_x*sum_x AS DOUBLE)
                    * CAST(n*sum_yy - sum_y*sum_y AS DOUBLE))
             * 1000000.0
           ) AS BIGINT) AS corr_ppm
    FROM m ORDER BY l_returnflag
"""


def _kmeans_sql(dim: int = 64, k: int = 4, iters: int = 2, scale: str = "10000.0") -> str:
    """Generated bit-exact SQL replay of :func:`stages.cluster.kmeans_quantized`:
    the same quantization (exact floor of a correctly-rounded product), the
    same exact-int centroid sums + one double division, and the same
    left-associative squared-distance chain (SQL ``+`` parses left-assoc,
    mirroring the kernel's sequential per-dim accumulation), with ties
    broken by ascending cluster id on both sides. Iterative algorithms are
    normally non-oracle-able; integer quantization makes every round a
    deterministic function of the data, so T rounds are T chained CTEs."""
    qcols = ", ".join(
        f"CAST(FLOOR(CAST(embedding[{i + 1}] AS DOUBLE) * {scale}) AS BIGINT) AS q{i}"
        for i in range(dim)
    )

    def dist() -> str:
        return " + ".join(
            f"(CAST(p.q{d} AS DOUBLE) - c.c{d}) * (CAST(p.q{d} AS DOUBLE) - c.c{d})"
            for d in range(dim)
        )

    cent0_cols = ", ".join(f"CAST(p.q{d} AS DOUBLE) AS c{d}" for d in range(dim))
    centn_cols = ", ".join(
        f"CAST(SUM(p.q{d}) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) AS c{d}" for d in range(dim)
    )
    sql = f"""
    WITH pts AS (SELECT vec_id, {qcols} FROM embeddings),
    seed AS (SELECT vec_id, ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS cluster
             FROM (SELECT vec_id FROM pts ORDER BY vec_id LIMIT {k})),
    cent0 AS (SELECT s.cluster, {cent0_cols} FROM seed s JOIN pts p ON s.vec_id = p.vec_id),
    """
    for i in range(iters):
        sql += f"""asg{i} AS (
      SELECT vec_id, cluster FROM (
        SELECT p.vec_id, c.cluster,
               ROW_NUMBER() OVER (PARTITION BY p.vec_id ORDER BY {dist()}, c.cluster) AS rn
        FROM pts p CROSS JOIN cent{i} c) WHERE rn = 1),
    cent{i + 1} AS (SELECT a.cluster, {centn_cols}
                  FROM asg{i} a JOIN pts p ON a.vec_id = p.vec_id GROUP BY a.cluster),
    """
    sql += f"""final AS (
      SELECT vec_id, cluster FROM (
        SELECT p.vec_id, c.cluster,
               ROW_NUMBER() OVER (PARTITION BY p.vec_id ORDER BY {dist()}, c.cluster) AS rn
        FROM pts p CROSS JOIN cent{iters} c) WHERE rn = 1)
    SELECT vec_id, CAST(cluster AS BIGINT) AS cluster FROM final ORDER BY vec_id
    """
    return sql


def q_kmeans(sf_dir: str) -> pd.DataFrame:
    """Certified distributed k-means: Lloyd's over integer-quantized
    embeddings (stages/cluster.kmeans_quantized) — per iteration ONE
    streaming pass (quantize + assign + exact-int partial sums), driver
    reduces k×blocks tiny partials and broadcasts k×dim centroids. The
    oracle replays all rounds bit-exactly in SQL (chained CTEs) because
    quantization makes every centroid and every argmin deterministic —
    a full hash-exact certificate of an ITERATIVE algorithm."""
    from ..stages import cluster as cl

    ds = rd.read_parquet(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    asg, _, _ = cl.kmeans_quantized(ds, id_col="vec_id", vec_col="embedding", k=4, iters=2)
    out = asg.to_pandas()
    out["vec_id"] = out["vec_id"].astype("int64")
    out["cluster"] = out["cluster"].astype("int64")
    return out.sort_values("vec_id").reset_index(drop=True)[["vec_id", "cluster"]]


QUERIES["q_kmeans"] = q_kmeans
ORACLE_SQL["q_kmeans"] = _kmeans_sql()


def q_funnel_stages(sf_dir: str) -> pd.DataFrame:
    """Ordered event-pattern matching (funnel): per user, how far along
    view -> click -> purchase did they get, where each stage must occur
    STRICTLY AFTER the first completion of the previous one. Non-stage
    types are dropped before the single hash-bucket shuffle; each bucket
    resolves all its users with vectorized masked-min rounds
    (stages/windows.funnel_stages). Timestamps compare exactly, so the
    SQL replay (chained min-after-min CTEs) is hash-exact."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["user_id", "ts", "event_type"])
    out = wd.funnel_stages(ds, "user_id", "ts", "event_type", ["view", "click", "purchase"])
    out = out.to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    out["stage_reached"] = out["stage_reached"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)[["user_id", "stage_reached"]]


QUERIES["q_funnel_stages"] = q_funnel_stages
ORACLE_SQL["q_funnel_stages"] = """
    WITH t1 AS (SELECT user_id, MIN(ts) AS v FROM events
                WHERE event_type = 'view' GROUP BY user_id),
    t2 AS (SELECT e.user_id, MIN(e.ts) AS c FROM events e JOIN t1 USING (user_id)
           WHERE e.event_type = 'click' AND e.ts > t1.v GROUP BY e.user_id),
    t3 AS (SELECT e.user_id, MIN(e.ts) AS p FROM events e JOIN t2 USING (user_id)
           WHERE e.event_type = 'purchase' AND e.ts > t2.c GROUP BY e.user_id),
    u AS (SELECT DISTINCT user_id FROM events
          WHERE event_type IN ('view', 'click', 'purchase'))
    SELECT u.user_id,
           CAST(CASE WHEN t3.p IS NOT NULL THEN 3
                     WHEN t2.c IS NOT NULL THEN 2
                     WHEN t1.v IS NOT NULL THEN 1
                     ELSE 0 END AS BIGINT) AS stage_reached
    FROM u LEFT JOIN t1 USING (user_id) LEFT JOIN t2 USING (user_id)
           LEFT JOIN t3 USING (user_id)
    ORDER BY u.user_id
"""


def q_gini_by_group(sf_dir: str) -> pd.DataFrame:
    """Per-user categorical diversity (Gini impurity of the event-type mix)
    kept ENTIRELY in integer arithmetic: per-batch (user, type) partial
    counts pre-aggregate before the single shuffle, and
    gini_ppm = (10^6 * (n^2 - sum(c^2))) // n^2 is exact int64 floor
    division on both engines — no float anywhere. The integer-exact twin
    of entropy scoring for mix-quality gates."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["user_id", "event_type"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = (
            batch.groupby(["user_id", "event_type"], sort=False)
            .size()
            .rename("c")
            .reset_index()
        )
        g["c"] = g["c"].astype("int64")
        return g

    # ONE hash-bucket shuffle over block-local partial counts (the
    # windows/funnel shape) — no per-user map_groups (ruinous at 10^9 tiny
    # groups) and no multi-key string groupby (13 s of sort-shuffle fixed
    # overhead measured at sf0.1 vs ~1 s for this int-bucket path). Each
    # bucket finalizes the (user,type) counts, squares them, and reduces
    # per user — all vectorized pandas, bucket count bounded.
    N_BUCKETS = 64

    def bucketed(batch: pd.DataFrame) -> pd.DataFrame:
        g = partial(batch)
        g["__b"] = (g["user_id"].to_numpy() % N_BUCKETS).astype(np.int32)
        return g

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        c = (
            g.groupby(["user_id", "event_type"], sort=False)["c"]
            .sum()
            .reset_index(name="c")
        )
        c["cc"] = c["c"].astype("int64") ** 2
        a = c.groupby("user_id")[["c", "cc"]].sum().reset_index()
        n = a["c"].to_numpy(dtype=np.int64)
        ss = a["cc"].to_numpy(dtype=np.int64)
        a["gini_ppm"] = (np.int64(1_000_000) * (n * n - ss)) // (n * n)
        return a.rename(columns={"c": "n"})[["user_id", "n", "gini_ppm"]]

    out = (
        ds.map_batches(bucketed, batch_format="pandas", batch_size=None)
        .groupby("__b")
        .map_groups(lambda g: per_bucket(g.drop(columns="__b")), batch_format="pandas")
        .to_pandas()
    )
    for col in ("user_id", "n", "gini_ppm"):
        out[col] = out[col].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)[["user_id", "n", "gini_ppm"]]


QUERIES["q_gini_by_group"] = q_gini_by_group
ORACLE_SQL["q_gini_by_group"] = """
    WITH c AS (SELECT user_id, event_type, COUNT(*) AS c
               FROM events GROUP BY user_id, event_type),
    a AS (SELECT user_id, SUM(c) AS n, SUM(c*c) AS ss FROM c GROUP BY user_id)
    SELECT user_id,
           CAST(n AS BIGINT) AS n,
           CAST((1000000 * (n*n - ss)) // (n*n) AS BIGINT) AS gini_ppm
    FROM a ORDER BY user_id
"""


def q_mad_by_lang(sf_dir: str) -> pd.DataFrame:
    """Robust grouped statistics: EXACT per-group median + median absolute
    deviation (the outlier-resistant spread gate) from ONE mergeable
    counting distribution — per-batch (lang, n_chars) counts pre-aggregate
    before a single domain-sized shuffle; both dependent medians (m, then
    median of |x-m|) are read off the merged counts driver-side by
    re-binning, so the data is scanned once and nothing data-sized ever
    collects. Discrete (lower-median) semantics match SQL percentile_disc
    exactly — all-integer, hash-exact."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["lang", "n_chars"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(["lang", "n_chars"], sort=False).size().reset_index(name="n")
        g["n"] = g["n"].astype("int64")
        return g

    counts = (
        ds.map_batches(partial, batch_format="pandas", batch_size=None)
        .groupby(["lang", "n_chars"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )

    def disc_median(vals: np.ndarray, c: np.ndarray) -> int:
        order = np.argsort(vals, kind="stable")
        vals, c = vals[order], c[order]
        cum = np.cumsum(c)
        return int(vals[np.searchsorted(cum, (cum[-1] + 1) // 2, side="left")])

    rows = []
    for lang, g in counts.groupby("lang"):
        vals = g["n_chars"].to_numpy(dtype=np.int64)
        c = g["n"].to_numpy(dtype=np.int64)
        med = disc_median(vals, c)
        dev = np.abs(vals - med)
        # re-bin the SAME counting distribution by |x - med|
        dd = pd.DataFrame({"d": dev, "n": c}).groupby("d")["n"].sum().reset_index()
        mad = disc_median(dd["d"].to_numpy(), dd["n"].to_numpy(dtype=np.int64))
        rows.append({"lang": lang, "med": med, "mad": mad})
    out = pd.DataFrame(rows)
    out["med"] = out["med"].astype("int64")
    out["mad"] = out["mad"].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)[["lang", "med", "mad"]]


QUERIES["q_mad_by_lang"] = q_mad_by_lang
ORACLE_SQL["q_mad_by_lang"] = """
    WITH m AS (SELECT lang,
                      CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY n_chars) AS BIGINT) AS med
               FROM documents GROUP BY lang)
    SELECT d.lang, m.med,
           CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY abs(d.n_chars - m.med)) AS BIGINT) AS mad
    FROM documents d JOIN m ON d.lang = m.lang
    GROUP BY d.lang, m.med ORDER BY d.lang
"""


def q_bigram_counts(sf_dir: str) -> pd.DataFrame:
    """Co-occurrence mining: top-20 adjacent word pairs across the corpus.
    Per batch, bigrams are formed ENTIRELY in code space — adjacent
    factorized token ids packed into one int64 (a*V+b where rows match), a
    single np.unique counts them, and strings materialize only for the
    unique-pair set — then partial counts shuffle through one groupby("bg").
    The n-gram analog of q_word_count's pre-aggregate-before-shuffle shape."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["text"])

    def partial(tbl: pa.Table) -> pa.Table:
        tok = tf.tokenize(tbl["text"])
        empty = pa.table(
            {"bg": pa.nulls(0, pa.string()), "n": pa.nulls(0, pa.int64())}
        )
        if len(tok.codes) < 2:
            return empty
        same = tok.rows[1:] == tok.rows[:-1]
        if not same.any():
            return empty
        v = np.int64(len(tok.uniques))
        a = tok.codes[:-1][same].astype(np.int64)
        b = tok.codes[1:][same].astype(np.int64)
        uk, counts = np.unique(a * v + b, return_counts=True)
        un = tok.uniques
        bgs = [f"{un[k // v]} {un[k % v]}" for k in uk]
        return pa.table(
            {"bg": pa.array(bgs, pa.string()), "n": pa.array(counts.astype(np.int64))}
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("bg")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    out["n"] = out["n"].astype("int64")
    out = out.sort_values(["n", "bg"], ascending=[False, True]).head(20)
    return out.reset_index(drop=True)[["bg", "n"]]


QUERIES["q_bigram_counts"] = q_bigram_counts
ORACLE_SQL["q_bigram_counts"] = r"""
    WITH tok AS (SELECT regexp_extract_all(text, '\S+') AS ws FROM documents),
    bg AS (SELECT unnest([ws[i] || ' ' || ws[i+1]
                          FOR i IN generate_series(1, len(ws) - 1)]) AS bg
           FROM tok)
    SELECT bg, COUNT(*) AS n FROM bg GROUP BY bg ORDER BY n DESC, bg LIMIT 20
"""


def q_tfidf_top_terms(sf_dir: str) -> pd.DataFrame:
    """Distinctive terms per document, tf-idf style but fully certifiable:
    rank terms within each doc by tf/df (one correctly-rounded double
    division — identical in any IEEE engine, unlike ln-based idf), ties by
    term. Phase A computes document frequencies with per-batch distinct
    counts summed through one groupby (each doc is one row, so per-batch
    distincts are globally exact); the vocabulary-bounded df table is
    broadcast ONCE as a frame (ray.put; past the broadcast budget this
    becomes a bucketed join on term — joins.bucketed_hash_join). Phase B
    scores and selects top-3 per doc batch-locally — no shuffle, because a
    doc never straddles batches."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def df_partial(tbl: pa.Table) -> pa.Table:
        tok = tf.tokenize(tbl["text"])
        if not len(tok.codes):
            return pa.table({"term": pa.nulls(0, pa.string()), "df": pa.nulls(0, pa.int64())})
        pair = np.unique(tok.rows * np.int64(len(tok.uniques)) + tok.codes)
        codes = (pair % np.int64(len(tok.uniques))).astype(np.int64)
        uc, counts = np.unique(codes, return_counts=True)
        return pa.table(
            {
                "term": pa.array(np.asarray(tok.uniques, dtype=object)[uc], pa.string()),
                "df": pa.array(counts.astype(np.int64)),
            }
        )

    dfs = (
        ds.map_batches(df_partial, batch_format="pyarrow", batch_size=None)
        .repartition(2)  # vocab x blocks partials over many blocks -> avoid
        # empty schema-less aggregate output partitions (q_pricing pattern)
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"))
        .to_pandas()
    )
    dfs["df"] = dfs["df"].astype("int64")
    df_ref = _ray.put(dfs)

    def score(tbl: pa.Table, _r=df_ref) -> pd.DataFrame:
        dmap = _ray.get(_r)
        tok = tf.tokenize(tbl["text"])
        if not len(tok.codes):
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "rnk": pd.Series([], dtype="int64"),
                    "term": pd.Series([], dtype=object),
                    "tf": pd.Series([], dtype="int64"),
                    "df": pd.Series([], dtype="int64"),
                    "score_ppm": pd.Series([], dtype="int64"),
                }
            )
        v = np.int64(len(tok.uniques))
        pair, tf_counts = np.unique(tok.rows * v + tok.codes, return_counts=True)
        rows = (pair // v).astype(np.int64)
        codes = (pair % v).astype(np.int64)
        f = pd.DataFrame(
            {
                "doc_id": tbl["doc_id"].to_numpy(zero_copy_only=False)[rows],
                "term": np.asarray(tok.uniques, dtype=object)[codes],
                "tf": tf_counts.astype(np.int64),
            }
        )
        f = f.merge(dmap, on="term", how="left")
        sc = f["tf"].to_numpy().astype(np.float64) / f["df"].to_numpy().astype(np.float64)
        f["score_ppm"] = np.floor(sc * 1e6).astype(np.int64)
        f["__s"] = sc
        f = f.sort_values(["doc_id", "__s", "term"], ascending=[True, False, True])
        f = f.groupby("doc_id", sort=False).head(3).drop(columns="__s")
        f["rnk"] = f.groupby("doc_id", sort=False).cumcount() + 1
        return f[["doc_id", "rnk", "term", "tf", "df", "score_ppm"]]

    out = ds.map_batches(score, batch_format="pyarrow", batch_size=None).to_pandas()
    for c in ("doc_id", "rnk", "tf", "df", "score_ppm"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["doc_id", "rnk"]).reset_index(drop=True)


QUERIES["q_tfidf_top_terms"] = q_tfidf_top_terms
ORACLE_SQL["q_tfidf_top_terms"] = r"""
    WITH tok AS (SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS term
                 FROM documents),
    tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM tok GROUP BY doc_id, term),
    df AS (SELECT term, COUNT(DISTINCT doc_id) AS df FROM tok GROUP BY term),
    s AS (SELECT tf.doc_id, tf.term, tf.tf, df.df,
                 CAST(tf.tf AS DOUBLE) / CAST(df.df AS DOUBLE) AS score
          FROM tf JOIN df USING (term)),
    r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id
                                       ORDER BY score DESC, term) AS rnk FROM s)
    SELECT doc_id, rnk, term, CAST(tf AS BIGINT) AS tf, CAST(df AS BIGINT) AS df,
           CAST(FLOOR(score * 1000000.0) AS BIGINT) AS score_ppm
    FROM r WHERE rnk <= 3 ORDER BY doc_id, rnk
"""


def q_iqr_outliers(sf_dir: str) -> pd.DataFrame:
    """Robust outlier gate (Tukey fences) per group, INTEGER-EXACT end to
    end: discrete quartiles come off the same merged counting distribution
    as q_mad_by_lang (one domain-sized shuffle, single data scan), and the
    1.5-IQR fences are tested as 2x < 2*q1 - 3*iqr (all int64 — the .5
    halves never materialize), so the outlier counts are hash-exact
    against percentile_disc SQL."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["lang", "n_chars"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(["lang", "n_chars"], sort=False).size().reset_index(name="n")
        g["n"] = g["n"].astype("int64")
        return g

    counts = (
        ds.map_batches(partial, batch_format="pandas", batch_size=None)
        .groupby(["lang", "n_chars"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )

    def disc_q(vals: np.ndarray, cum: np.ndarray, num: int, den: int) -> int:
        # percentile_disc(num/den): first value with cum rank >= ceil(q*n)
        r = -((-num * cum[-1]) // den)
        return int(vals[np.searchsorted(cum, r, side="left")])

    rows = []
    for lang, g in counts.groupby("lang"):
        g = g.sort_values("n_chars")
        vals = g["n_chars"].to_numpy(dtype=np.int64)
        c = g["n"].to_numpy(dtype=np.int64)
        cum = np.cumsum(c)
        q1 = disc_q(vals, cum, 1, 4)
        q3 = disc_q(vals, cum, 3, 4)
        iqr = q3 - q1
        lo_bad = 2 * vals < 2 * q1 - 3 * iqr
        hi_bad = 2 * vals > 2 * q3 + 3 * iqr
        n_out = int(c[lo_bad | hi_bad].sum())
        rows.append({"lang": lang, "q1": q1, "q3": q3, "n_outliers": n_out})
    out = pd.DataFrame(rows)
    for col in ("q1", "q3", "n_outliers"):
        out[col] = out[col].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)[["lang", "q1", "q3", "n_outliers"]]


QUERIES["q_iqr_outliers"] = q_iqr_outliers
ORACLE_SQL["q_iqr_outliers"] = """
    WITH q AS (SELECT lang,
                      CAST(percentile_disc(0.25) WITHIN GROUP (ORDER BY n_chars) AS BIGINT) AS q1,
                      CAST(percentile_disc(0.75) WITHIN GROUP (ORDER BY n_chars) AS BIGINT) AS q3
               FROM documents GROUP BY lang)
    SELECT d.lang, q.q1, q.q3,
           CAST(COUNT(*) FILTER (2*d.n_chars < 2*q.q1 - 3*(q.q3 - q.q1)
                              OR 2*d.n_chars > 2*q.q3 + 3*(q.q3 - q.q1)) AS BIGINT) AS n_outliers
    FROM documents d JOIN q ON d.lang = q.lang
    GROUP BY d.lang, q.q1, q.q3 ORDER BY d.lang
"""


def q_unpivot_metrics(sf_dir: str) -> pd.DataFrame:
    """Wide-to-long reshape (UNPIVOT/melt) as a pure batch transform — no
    shuffle at all: each batch melts its numeric metric columns into
    (key, metric, value) rows with pandas' C melt kernel. The inverse of
    pivot_counts (stages/olap.py). Sliced to 1/997 of orders so the long
    output stays result-sized."""
    ds = rd.read_parquet(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_totalprice", "o_custkey"]
    )

    _empty = pa.table(
        {
            "o_orderkey": pa.nulls(0, pa.int64()),
            "metric": pa.nulls(0, pa.string()),
            "value": pa.nulls(0, pa.float64()),
        }
    )

    def melt(batch: pd.DataFrame) -> pa.Table:
        b = batch[batch["o_orderkey"] % 997 == 0]
        if not len(b):
            # Arrow empty (typed) — pandas object-dtype empties trip Ray's
            # block size estimator into per-block warnings
            return _empty
        long = b.melt(
            id_vars="o_orderkey",
            value_vars=["o_totalprice", "o_custkey"],
            var_name="metric",
            value_name="value",
        )
        long["value"] = long["value"].astype("float64").round(2)
        return pa.Table.from_pandas(long, preserve_index=False).cast(_empty.schema)

    out = ds.map_batches(melt, batch_format="pandas", batch_size=None).to_pandas()
    out["o_orderkey"] = out["o_orderkey"].astype("int64")
    return out.sort_values(["o_orderkey", "metric"]).reset_index(drop=True)[
        ["o_orderkey", "metric", "value"]
    ]


QUERIES["q_unpivot_metrics"] = q_unpivot_metrics
ORACLE_SQL["q_unpivot_metrics"] = """
    SELECT o_orderkey, metric, ROUND(CAST(value AS DOUBLE), 2) AS value
    FROM (
      UNPIVOT (SELECT o_orderkey, CAST(o_totalprice AS DOUBLE) AS o_totalprice,
                      CAST(o_custkey AS DOUBLE) AS o_custkey
               FROM orders WHERE o_orderkey % 997 = 0)
      ON o_totalprice, o_custkey
      INTO NAME metric VALUE value
    )
    ORDER BY o_orderkey, metric
"""


def q_retention_cohorts(sf_dir: str) -> pd.DataFrame:
    """Cohort retention analysis: users cohorted by first-event day, counted
    distinctly per week offset k since their cohort. One hash-bucket
    shuffle co-locates each user (buckets partition users, so per-bucket
    distinct counts ADD); per bucket everything is vectorized (transform-min
    cohort, integer week offset, drop_duplicates), and the final reduce
    packs (cohort, k) into ONE int64 key — multi-key string groupby costs
    13 s of sort-shuffle overhead at sf0.1 (measured, see q_gini) where the
    packed-int path costs ~1 s. All day/week math is integer floor division
    on epoch-us, mirroring SQL `//` exactly."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["user_id", "ts"])
    n_buckets = 64
    _us_day = np.int64(86_400_000_000)

    def add_b(batch: pd.DataFrame) -> pd.DataFrame:
        day = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64) // _us_day
        f = pd.DataFrame(
            {"user_id": batch["user_id"].to_numpy(), "day": day}
        ).drop_duplicates()
        f["__b"] = (f["user_id"].to_numpy() % n_buckets).astype(np.int32)
        return f

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "day"])
        cohort = g.groupby("user_id")["day"].transform("min")
        k = (g["day"].to_numpy() - cohort.to_numpy()) // 7
        f = pd.DataFrame(
            {"user_id": g["user_id"].to_numpy(), "cohort": cohort.to_numpy(), "k": k}
        ).drop_duplicates()
        key = f["cohort"].to_numpy() * np.int64(100_000) + f["k"].to_numpy()
        uk, n = np.unique(key, return_counts=True)
        return pd.DataFrame({"key": uk, "n": n.astype(np.int64)})

    agg = (
        ds.map_batches(add_b, batch_format="pandas", batch_size=None)
        .groupby("__b")
        .map_groups(lambda g: per_bucket(g.drop(columns="__b")), batch_format="pandas")
        .groupby("key")
        .aggregate(Sum("n", alias_name="n_users"))
        .to_pandas()
    )
    key = agg["key"].to_numpy(dtype=np.int64)
    agg["cohort_day"] = key // 100_000
    agg["week_k"] = key % 100_000
    agg["n_users"] = agg["n_users"].astype("int64")
    return agg.sort_values(["cohort_day", "week_k"]).reset_index(drop=True)[
        ["cohort_day", "week_k", "n_users"]
    ]


QUERIES["q_retention_cohorts"] = q_retention_cohorts
ORACLE_SQL["q_retention_cohorts"] = """
    WITH e AS (SELECT user_id, epoch_us(ts) // 86400000000 AS day FROM events),
    c AS (SELECT user_id, MIN(day) AS cohort FROM e GROUP BY user_id),
    r AS (SELECT DISTINCT e.user_id, c.cohort, (e.day - c.cohort) // 7 AS k
          FROM e JOIN c USING (user_id))
    SELECT CAST(cohort AS BIGINT) AS cohort_day, CAST(k AS BIGINT) AS week_k,
           CAST(COUNT(*) AS BIGINT) AS n_users
    FROM r GROUP BY cohort, k ORDER BY cohort, k
"""


def q_event_paths(sf_dir: str) -> pd.DataFrame:
    """Sequence/path mining: the 15 most common 3-step event-type paths over
    each user's (ts, event_id)-ordered stream. One user-bucket shuffle
    co-locates streams; inside a bucket the trigram count happens in
    FACTORIZED code space (pack three small codes into one int64, one
    np.unique) with path strings materialized only for the unique triples —
    the q_bigram_counts shape lifted to keyed ordered sequences."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["user_id", "ts", "event_id", "event_type"])
    n_buckets = 64

    def add_b(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.copy()
        b["__b"] = (b["user_id"].to_numpy() % n_buckets).astype(np.int32)
        return b

    _empty = pa.table({"path": pa.nulls(0, pa.string()), "n": pa.nulls(0, pa.int64())})

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts", "event_id"])
        u = g["user_id"].to_numpy()
        if len(u) < 3:
            return _empty
        codes, types = pd.factorize(g["event_type"], sort=False)
        codes = codes.astype(np.int64)
        v = np.int64(len(types))
        ok = (u[:-2] == u[1:-1]) & (u[1:-1] == u[2:])
        if not ok.any():
            return _empty
        key = codes[:-2][ok] * v * v + codes[1:-1][ok] * v + codes[2:][ok]
        uk, n = np.unique(key, return_counts=True)
        paths = [f"{types[k // (v * v)]}>{types[(k // v) % v]}>{types[k % v]}" for k in uk]
        return pa.table({"path": pa.array(paths, pa.string()), "n": pa.array(n.astype(np.int64))})

    out = (
        ds.map_batches(add_b, batch_format="pandas", batch_size=None)
        .groupby("__b")
        .map_groups(lambda g: per_bucket(g.drop(columns="__b")), batch_format="pandas")
        .repartition(2)  # bucket partials are tiny -> avoid empty
        # schema-less aggregate output partitions (q_pricing pattern)
        .groupby("path")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    out["n"] = out["n"].astype("int64")
    out = out.sort_values(["n", "path"], ascending=[False, True]).head(15)
    return out.reset_index(drop=True)[["path", "n"]]


QUERIES["q_event_paths"] = q_event_paths
ORACLE_SQL["q_event_paths"] = """
    WITH o AS (SELECT event_type AS t1,
                      LEAD(event_type, 1) OVER w AS t2,
                      LEAD(event_type, 2) OVER w AS t3
               FROM events
               WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
    SELECT t1 || '>' || t2 || '>' || t3 AS path, CAST(COUNT(*) AS BIGINT) AS n
    FROM o WHERE t3 IS NOT NULL
    GROUP BY 1 ORDER BY n DESC, path LIMIT 15
"""


def q_asof_forward(sf_dir: str) -> pd.DataFrame:
    """Time-to-conversion: each view matched to the user's EARLIEST
    at-or-after purchase — the forward as-of direction
    (jn.asof_join(direction="forward"), the backward kernel on negated
    integer timestamps, so both directions share one verified match path).
    gap_us is exact integer microseconds, hash-exact vs DuckDB's
    ASOF JOIN ... ON l.ts <= r.ts."""
    cols = ["event_id", "ts", "user_id"]
    v = rd.read_parquet(
        _p(sf_dir, "events"), columns=cols, filter=pc.field("event_type") == "view"
    )
    p = rd.read_parquet(
        _p(sf_dir, "events"), columns=cols, filter=pc.field("event_type") == "purchase"
    )
    out = jn.asof_join(
        v, p, on="user_id", left_ts="ts", right_ts="ts",
        right_cols={"event_id": "purchase_event_id", "ts": "purchase_ts"},
        direction="forward",
    ).to_pandas()
    out["gap_us"] = (
        out["purchase_ts"].astype("int64") - out["ts"].astype("int64")
    ).astype("int64")
    out["purchase_event_id"] = out["purchase_event_id"].astype("int64")
    out = out.sort_values("event_id").reset_index(drop=True)
    return out[["event_id", "user_id", "purchase_event_id", "gap_us"]]


QUERIES["q_asof_forward"] = q_asof_forward
ORACLE_SQL["q_asof_forward"] = """
    WITH v AS (SELECT * FROM events WHERE event_type = 'view'),
         p AS (SELECT * FROM events WHERE event_type = 'purchase')
    SELECT v.event_id AS event_id, v.user_id AS user_id,
           p.event_id AS purchase_event_id,
           epoch_us(p.ts) - epoch_us(v.ts) AS gap_us
    FROM v ASOF JOIN p ON v.user_id = p.user_id AND v.ts <= p.ts
    ORDER BY event_id
"""


def q_dedup_survivors(sf_dir: str) -> pd.DataFrame:
    """Survivorship rules for dedup: per duplicate cluster keep the doc from
    the highest-priority source (numeric source suffix), ties to the lowest
    doc_id. The selection is made ASSOCIATIVE by packing (priority, -doc_id)
    into one int64 — m = pri * 2^40 + (2^40 - 1 - doc_id) — so the winner is a
    plain Max aggregate over one groupby(cluster): no per-cluster
    map_groups, no window shuffle. Clusters come from the same gram-edge
    connected components as q_dedup_clusters; the cluster->doc attach is a
    bucketed hash join."""
    from ..stages import cluster as cl

    docs = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    edges = dd.gram_edges(docs, "text", "doc_id", n=4)
    labels = cl.connected_components(edges, nodes=docs.select_columns(["doc_id"]))
    labels = labels.map_batches(
        lambda df: df.rename(columns={"node": "doc_id"})[["doc_id", "cluster_id"]],
        batch_format="pandas",
        batch_size=None,
    )
    src = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "source"])
    joined = jn.bucketed_hash_join(labels, src, on="doc_id")

    _pow40 = np.int64(1) << np.int64(40)

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        pri = df["source"].str.extract(r"(\d+)$", expand=False).astype("int64").to_numpy()
        doc = df["doc_id"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "cluster_id": df["cluster_id"].to_numpy(dtype=np.int64),
                "m": pri * _pow40 + (_pow40 - np.int64(1) - doc),
                "one": np.ones(len(df), dtype=np.int64),
            }
        )

    agg = (
        joined.map_batches(pack, batch_format="pandas", batch_size=None)
        .groupby("cluster_id")
        .aggregate(Max("m", alias_name="m"), Sum("one", alias_name="n_docs"))
        .to_pandas()
    )
    m = agg["m"].to_numpy(dtype=np.int64)
    agg["kept_doc"] = _pow40 - np.int64(1) - (m % _pow40)
    agg["kept_pri"] = m // _pow40
    agg = agg.drop(columns="m")
    for c in ("cluster_id", "kept_doc", "kept_pri", "n_docs"):
        agg[c] = agg[c].astype("int64")
    return agg.sort_values("cluster_id").reset_index(drop=True)[
        ["cluster_id", "kept_doc", "kept_pri", "n_docs"]
    ]


QUERIES["q_dedup_survivors"] = q_dedup_survivors
ORACLE_SQL["q_dedup_survivors"] = f"""
    WITH RECURSIVE
    d AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
    g AS (SELECT DISTINCT doc_id,
                 unnest([array_to_string(ws[i:i+3], ' ') FOR i IN generate_series(1, len(ws) - 3)]) AS gram
          FROM d),
    gc AS (SELECT doc_id, gram,
                  ROW_NUMBER() OVER (PARTITION BY gram ORDER BY doc_id) AS rn FROM g),
    e AS (SELECT a.doc_id AS u, b.doc_id AS v
          FROM gc a JOIN gc b USING (gram)
          WHERE a.doc_id <> b.doc_id AND a.rn <= {dd.GRAM_CAP} AND b.rn <= {dd.GRAM_CAP} GROUP BY 1, 2),
    reach AS (
        SELECT doc_id AS node, doc_id AS label FROM documents
        UNION
        SELECT e.v AS node, reach.label AS label
        FROM reach JOIN e ON e.u = reach.node WHERE reach.label < e.v
    ),
    lab AS (SELECT node, MIN(label) AS cluster_id FROM reach GROUP BY node),
    s AS (SELECT lab.node AS doc_id, lab.cluster_id,
                 CAST(regexp_extract(dd.source, '(\\d+)$', 1) AS BIGINT) AS pri
          FROM lab JOIN documents dd ON lab.node = dd.doc_id),
    r AS (SELECT cluster_id, doc_id, pri,
                 ROW_NUMBER() OVER (PARTITION BY cluster_id
                                    ORDER BY pri DESC, doc_id) AS rn,
                 COUNT(*) OVER (PARTITION BY cluster_id) AS n_docs
          FROM s)
    SELECT cluster_id, doc_id AS kept_doc, pri AS kept_pri,
           CAST(n_docs AS BIGINT) AS n_docs
    FROM r WHERE rn = 1 ORDER BY cluster_id
"""


def q_minmax_norm(sf_dir: str) -> pd.DataFrame:
    """Feature scaling: per-group min-max normalization to ppm, INTEGER-EXACT
    (norm_ppm = (x - min) * 10^6 // (max - min) — int64 both engines, no
    float). Group extrema reduce through one tiny groupby (pure Min/Max
    aggregates over per-batch partials), broadcast back as a frame, and the
    normalization is a shuffle-free batch transform. Output sampled to
    doc_id % 97 == 0 so the result stays result-sized."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "lang", "n_chars"])

    def extrema_partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("lang", sort=False)["n_chars"].agg(["min", "max"]).reset_index()
        return g.rename(columns={"min": "lo", "max": "hi"})

    ext = (
        ds.map_batches(extrema_partial, batch_format="pandas", batch_size=None)
        .repartition(2)
        .groupby("lang")
        .aggregate(Min("lo", alias_name="lo"), Max("hi", alias_name="hi"))
        .to_pandas()
    )
    ext_ref = _ray.put(ext)

    def norm(batch: pd.DataFrame, _r=ext_ref) -> pd.DataFrame:
        b = batch[batch["doc_id"] % 97 == 0]
        if not len(b):
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "lang": pd.Series([], dtype=object),
                    "norm_ppm": pd.Series([], dtype="int64"),
                }
            )
        e = _ray.get(_r)
        b = b.merge(e, on="lang", how="left")
        x = b["n_chars"].to_numpy(dtype=np.int64)
        lo = b["lo"].to_numpy(dtype=np.int64)
        hi = b["hi"].to_numpy(dtype=np.int64)
        b["norm_ppm"] = np.where(hi > lo, (x - lo) * np.int64(1_000_000) // (hi - lo), 0)
        return b[["doc_id", "lang", "norm_ppm"]]

    out = ds.map_batches(norm, batch_format="pandas", batch_size=None).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["norm_ppm"] = out["norm_ppm"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)[["doc_id", "lang", "norm_ppm"]]


QUERIES["q_minmax_norm"] = q_minmax_norm
ORACLE_SQL["q_minmax_norm"] = """
    WITH e AS (SELECT lang, MIN(n_chars) AS lo, MAX(n_chars) AS hi
               FROM documents GROUP BY lang)
    SELECT d.doc_id, d.lang,
           CAST(CASE WHEN e.hi > e.lo
                     THEN (d.n_chars - e.lo) * 1000000 // (e.hi - e.lo)
                     ELSE 0 END AS BIGINT) AS norm_ppm
    FROM documents d JOIN e ON d.lang = e.lang
    WHERE d.doc_id % 97 = 0 ORDER BY d.doc_id
"""


def q_events_hourly(sf_dir: str) -> pd.DataFrame:
    """Time-series resample with gap fill: event counts per hour over the
    FULL dense hour range (missing hours emitted as 0 — the property a
    plain groupby cannot give). Counts and the range extrema reduce
    through one shuffle of per-batch partials; the densify step runs on
    the driver over the bounded hour domain (hours grow with time, not
    with row count). Hour ids are integer floor division on epoch-us,
    mirroring SQL // exactly."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["ts"])
    _us_h = np.int64(3_600_000_000)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        h = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64) // _us_h
        uh, n = np.unique(h, return_counts=True)
        return pd.DataFrame({"hour": uh, "n": n.astype(np.int64)})

    counts = (
        ds.map_batches(partial, batch_format="pandas", batch_size=None)
        .repartition(2)
        .groupby("hour")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    full = pd.DataFrame({"hour": np.arange(counts["hour"].min(), counts["hour"].max() + 1)})
    out = full.merge(counts, on="hour", how="left").fillna({"n": 0})
    out["hour"] = out["hour"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return out.sort_values("hour").reset_index(drop=True)[["hour", "n"]]


QUERIES["q_events_hourly"] = q_events_hourly
ORACLE_SQL["q_events_hourly"] = """
    WITH c AS (SELECT epoch_us(ts) // 3600000000 AS hour, COUNT(*) AS n
               FROM events GROUP BY 1),
    full_range AS (SELECT unnest(generate_series((SELECT MIN(hour) FROM c),
                                                 (SELECT MAX(hour) FROM c))) AS hour)
    SELECT f.hour, CAST(COALESCE(c.n, 0) AS BIGINT) AS n
    FROM full_range f LEFT JOIN c USING (hour) ORDER BY f.hour
"""


def _vv_cte() -> str:
    """Shared WITH-block replaying derive_transcript + the staged chain
    predicates (reference processor.py:97-157) in DuckDB. Byte-class counts
    via strlen deltas (alnum and the space set are single-byte, so byte
    counts are exact for any input); single IEEE divisions keep every float
    comparison bit-exact. Yields relation ``chain`` exposing the raw staged
    predicates (f_text/f_conv/f_short/f_stop/p_basic/f_er/reached_score),
    the derived values (er_all, score, score_alt, n_words, stop_hit) and the
    precedence-resolved ``check_id`` + ``metrics_bad`` — the flagship
    oracles all select from it."""
    return r"""
WITH t AS (
  SELECT doc_id,
    CASE WHEN doc_id % 29 = 0 THEN '' ELSE 'c' || CAST(doc_id // 10 AS VARCHAR) END AS conv_id,
    CAST(doc_id % 10 AS INTEGER) AS turn_idx,
    CASE WHEN doc_id % 23 = 0 THEN ''
         WHEN doc_id % 37 = 0 THEN COALESCE(text, '') || ' таро'
         WHEN doc_id % 41 = 0 THEN COALESCE(text, '') || (' ' || repeat('#?*', 40))
         WHEN doc_id % 43 = 0 THEN COALESCE(text, '') || repeat(' alpha', 60)
         WHEN doc_id % 47 = 0 THEN COALESCE(text, '') || (chr(10) || '[link](https://example.com)')
         ELSE text END AS text,
    CASE WHEN doc_id % 19 = 0 THEN NULL
         WHEN doc_id % 13 = 0 THEN 0
         ELSE (doc_id * 37) % 1000 + 51 END AS views,
    CASE WHEN doc_id % 17 = 0 THEN 0 ELSE (doc_id * 11) % 50 END AS reactions,
    (doc_id * 7) % 20 AS forwards
  FROM documents
),
norm AS (
  SELECT *, regexp_replace(text, '(?m)\s*\[.*?\]\(https?://[^)]+\)$', '', 'g') AS text_norm,
         MAX(turn_idx) OVER (PARTITION BY conv_id) AS conv_max
  FROM t
),
feat AS (
  SELECT *,
    strlen(text_norm) - strlen(regexp_replace(text_norm, '[0-9A-Za-z]', '', 'g')) AS alnum_b,
    strlen(regexp_replace(text_norm, '[\t\n\v\f\r ]', '', 'g')) AS nonspace_b,
    list_filter(string_split(trim(regexp_replace(lower(text_norm), '\s+', ' ', 'g')), ' '),
                x -> x <> '') AS words,
    CASE WHEN regexp_matches(text_norm, 'астролог') THEN 'астролог'
         WHEN regexp_matches(text_norm, 'эзотери') THEN 'эзотери'
         WHEN regexp_matches(text_norm, 'таро') THEN 'таро'
         WHEN regexp_matches(text_norm, 'гадан') THEN 'гадан'
    END AS stop_hit,
    (views IS NOT NULL AND reactions IS NOT NULL AND forwards IS NOT NULL) AS er_complete,
    CASE WHEN views > 0 THEN (reactions + forwards) / greatest(views, 1) ELSE 0.0 END AS er_all
  FROM norm
),
c1 AS (
  SELECT *,
    (text IS NULL OR text = '') AS f_text,
    (conv_id IS NULL OR conv_id = '') AS f_conv,
    (length(text_norm) < 200) AS m_short,
    (turn_idx = conv_max) AS is_last,
    CASE WHEN nonspace_b > 0 THEN (100.0 * alnum_b) / greatest(nonspace_b, 1) ELSE 0.0 END AS score,
    CASE WHEN len(words) > 0 THEN (100.0 * len(list_distinct(words))) / len(words) ELSE 0.0 END AS score_alt,
    len(words) AS n_words
  FROM feat
),
c2 AS (
  SELECT *,
    (NOT f_text AND NOT f_conv AND m_short) AS f_short,
    (NOT f_text AND NOT f_conv AND NOT m_short AND stop_hit IS NOT NULL) AS f_stop,
    (NOT f_text AND NOT f_conv AND NOT m_short AND stop_hit IS NULL) AS p_basic
  FROM c1
),
c3 AS (
  SELECT *,
    (p_basic AND er_complete AND er_all < 0.025 AND views > 50 AND NOT is_last) AS f_er
  FROM c2
),
chain AS (
  SELECT *,
    (p_basic AND NOT f_er) AS reached_score,
    CASE WHEN f_text THEN 'text_missing'
         WHEN f_conv THEN 'conv_id_missing'
         WHEN f_short THEN 'text_too_short'
         WHEN f_stop THEN 'stop_word'
         WHEN f_er THEN 'low_engagement'
         WHEN p_basic AND NOT f_er AND score <= 80.0 THEN 'low_score'
         WHEN p_basic AND NOT f_er AND score > 80.0 AND score_alt <= 85.0 THEN 'low_score_alt'
    END AS check_id,
    (views IS NULL OR views = 0 OR reactions IS NULL OR reactions = 0) AS metrics_bad
  FROM c3
)
"""


QUERIES["q_validate_violations"] = q_validate_violations
# The flagship chain oracle: replays derive_transcript row-for-row, then the
# P1→P10 + metrics_missing semantics of stages/row_checks (reference
# processor.py:97-157) via the shared staged-predicate CTE.
ORACLE_SQL["q_validate_violations"] = (
    _vv_cte()
    + """
SELECT conv_id, turn_idx, check_id, detail FROM (
  SELECT conv_id, turn_idx, check_id,
         CASE WHEN check_id = 'stop_word' THEN stop_hit END AS detail
  FROM chain WHERE check_id IS NOT NULL
  UNION ALL
  SELECT conv_id, turn_idx, 'metrics_missing' AS check_id, NULL AS detail
  FROM chain WHERE metrics_bad
) ORDER BY check_id, conv_id, turn_idx
"""
)

QUERIES["q_validate_annotated"] = q_validate_annotated
# null-state machine oracle: value visible (ppm floor) iff the row reached
# that stage, -1 past the first failure — replayed from the staged predicates
ORACLE_SQL["q_validate_annotated"] = (
    _vv_cte()
    + """
SELECT conv_id, turn_idx, check_id AS first_failing_check,
  CASE WHEN p_basic AND er_complete THEN CAST(floor(er_all * 1000000) AS BIGINT) ELSE -1 END AS er_ppm,
  CASE WHEN reached_score THEN CAST(floor(score * 1000000) AS BIGINT) ELSE -1 END AS score_ppm,
  CASE WHEN reached_score AND score > 80.0
       THEN CAST(floor(score_alt * 1000000) AS BIGINT) ELSE -1 END AS score_alt_ppm,
  CASE WHEN reached_score AND score > 80.0 AND score_alt > 85.0
       THEN CAST(n_words AS BIGINT) ELSE -1 END AS token_count
FROM chain ORDER BY conv_id, turn_idx
"""
)

QUERIES["q_validate_partition_report"] = q_validate_partition_report
ORACLE_SQL["q_validate_partition_report"] = (
    _vv_cte()
    + """
SELECT CAST(doc_id // 100 AS BIGINT) AS shard, COUNT(*) AS n_rows,
       CAST(SUM((CASE WHEN check_id IS NOT NULL THEN 1 ELSE 0 END)
                + (CASE WHEN metrics_bad THEN 1 ELSE 0 END)) AS BIGINT) AS n_violations,
       CAST(CASE WHEN SUM((CASE WHEN check_id IS NOT NULL THEN 1 ELSE 0 END)
                          + (CASE WHEN metrics_bad THEN 1 ELSE 0 END)) = 0
                 THEN 1 ELSE 0 END AS BIGINT) AS pass_flag
FROM chain GROUP BY 1 ORDER BY shard
"""
)


def q_dup_ngram_frac(sf_dir: str) -> pd.DataFrame:
    """Gopher's duplicate-n-gram quality gate (count-based form, n=3): per
    doc, the fraction of trigram occurrences whose trigram repeats within the
    doc (stages/text_analysis.dup_ngram_stats — one explode + run-length
    counting, the top-bigram machinery generalized). Completes the
    repetition-gate family of q_repetition_filter (Rae et al. 2021 A1)."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    out = ds.map_batches(
        lambda t: ta.dup_ngram_stats(t, n=3), batch_format="pyarrow"
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


QUERIES["q_dup_ngram_frac"] = q_dup_ngram_frac
ORACLE_SQL["q_dup_ngram_frac"] = """
    WITH d AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
    g AS (SELECT doc_id,
                 unnest([array_to_string(ws[i:i+2], ' ') FOR i IN generate_series(1, len(ws) - 2)]) AS gram
          FROM d),
    gc AS (SELECT doc_id, gram, COUNT(*) AS c FROM g GROUP BY doc_id, gram),
    per AS (SELECT doc_id, SUM(c) AS n_grams,
                   SUM(CASE WHEN c >= 2 THEN c ELSE 0 END) AS n_dup
            FROM gc GROUP BY doc_id)
    SELECT d.doc_id AS doc_id,
           CAST(COALESCE(per.n_grams, 0) AS BIGINT) AS n_grams,
           CAST(COALESCE(per.n_dup, 0) AS BIGINT) AS n_dup_grams,
           COALESCE(per.n_dup::DOUBLE / per.n_grams, 0.0) AS dup_ngram_frac
    FROM d LEFT JOIN per USING (doc_id)
    ORDER BY doc_id
"""


def q_oov_ratio(sf_dir: str) -> pd.DataFrame:
    """Rare-word (out-of-vocabulary) quality scoring: build the corpus
    document-frequency vocabulary as a Ray aggregate (vocab rows shuffle,
    text never does), broadcast the common-word head via ``ray.put``, score
    every doc in an actor pool (stages/text_analysis.OOVStage — the A4
    broadcast-snapshot pattern). The frequency-based quality signal of a
    training-data pipeline, oracle-exact because the df threshold is integer
    arithmetic and the ratio is one IEEE division."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    n_docs = ds.count()
    common = ta.common_vocabulary(ds, n_docs)
    ref = _ray.put(common)
    out = ds.map_batches(
        ta.OOVStage,
        fn_constructor_args=(ref,),
        batch_format="pandas",
        concurrency=2,
        batch_size=4096,
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


QUERIES["q_oov_ratio"] = q_oov_ratio
ORACLE_SQL["q_oov_ratio"] = """
    WITH d AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
    tok AS (SELECT doc_id, unnest(ws) AS word FROM d),
    vocab AS (SELECT word, COUNT(DISTINCT doc_id) AS df FROM tok GROUP BY word),
    nd AS (SELECT COUNT(*) AS n FROM documents),
    common AS (SELECT word FROM vocab, nd WHERE df * 1000 >= n * 100),
    per AS (SELECT tok.doc_id AS doc_id, COUNT(*) AS n_words,
                   SUM(CASE WHEN c.word IS NULL THEN 1 ELSE 0 END) AS n_oov
            FROM tok LEFT JOIN common c ON tok.word = c.word
            GROUP BY tok.doc_id)
    SELECT d.doc_id AS doc_id,
           CAST(COALESCE(per.n_words, 0) AS BIGINT) AS n_words,
           CAST(COALESCE(per.n_oov, 0) AS BIGINT) AS n_oov,
           COALESCE(per.n_oov::DOUBLE / per.n_words, 0.0) AS oov_ratio
    FROM d LEFT JOIN per USING (doc_id)
    ORDER BY doc_id
"""


def q_cms_user_counts(sf_dir: str) -> pd.DataFrame:
    """Count-Min point-frequency certificate over events.user_id: per-batch
    partial sketches merged on the driver (KBs each), estimates certified
    against the exact distributed groupby counts. Two pinned certificates:
    per key, est >= exact (STRUCTURAL — the min cell holds the key's whole
    count plus collisions); globally, >= 95% of keys inside the published
    eps*N = ceil(e/w * N) overcount bound. The bound is probabilistic
    (per-key failure prob <= e^-d ~ 1.8% at d=4), so pinning it per key
    would turn correct sketch behavior into a driver mismatch at some
    unseen scale; the 95% share is the sound certificate form
    (functions/sketches.CountMinSketch; the q_hll_accuracy pattern)."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["user_id"])

    def sketch(tbl: pa.Table) -> pa.Table:
        c = CountMinSketch(d=4, w=4096)
        c.update_ints(tbl["user_id"].to_numpy(zero_copy_only=False))
        return pa.table({"blob": pa.array([c.to_bytes()], pa.binary())})

    blobs = ds.map_batches(sketch, batch_format="pyarrow").to_pandas()["blob"]
    merged = CountMinSketch(d=4, w=4096)
    for b in blobs:
        merged.merge(CountMinSketch.from_bytes(b))
    exact = (
        ds.groupby("user_id")
        .aggregate(Count(alias_name="n_exact"))
        .to_pandas()
        .astype({"user_id": "int64", "n_exact": "int64"})
    )
    est = merged.estimate_ints(exact["user_id"].to_numpy(np.int64))
    bound = merged.error_bound()
    exact["est_ge_exact"] = (est >= exact["n_exact"].to_numpy()).astype(np.int64)
    within = est - exact["n_exact"].to_numpy() <= bound
    share_ok = int(int(within.sum()) * 20 >= len(within) * 19)  # >= 95%
    exact["share_within_bound_ok"] = np.int64(share_ok)
    return exact.sort_values("user_id").reset_index(drop=True)


QUERIES["q_cms_user_counts"] = q_cms_user_counts
ORACLE_SQL["q_cms_user_counts"] = """
    SELECT user_id, COUNT(*) AS n_exact,
           CAST(1 AS BIGINT) AS est_ge_exact,
           CAST(1 AS BIGINT) AS share_within_bound_ok
    FROM events GROUP BY user_id ORDER BY user_id
"""

def q_pagerank(sf_dir: str) -> pd.DataFrame:
    """Graph centrality as a corpus quality prior (the host-graph PageRank
    practice of web-corpus curation, e.g. Common Crawl ranking): PageRank
    over the near-dup gram-edge graph (same candidate edges as
    q_dedup_clusters), integer-quantized to ppm so the 3-iteration update
    ``r' = 150000 + (850 * sum(r // deg)) // 1000`` is replayed bit-exactly
    by chained SQL CTEs — the k-means quantize-to-certify trick on a graph
    (stages/cluster.pagerank: local kernel below _LOCAL_PR_EDGES, join +
    carrier-union aggregate rounds above it)."""
    from ..stages import cluster as cl

    docs = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    # the per-gram pair cap (dedup.GRAM_CAP) is ACTIVE here and mirrored in
    # the oracle's rank filter (gc.rn <= GRAM_CAP), so the capped candidate graph
    # stays SQL-exact even when a degenerate gram exceeds the cap
    edges = dd.gram_edges(docs, "text", "doc_id", n=4)
    ranks = cl.pagerank(edges, nodes=docs.select_columns(["doc_id"]), iters=3)
    out = ranks.to_pandas().rename(columns={"node": "doc_id"}).astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def q_props_stats(sf_dir: str) -> pd.DataFrame:
    """Semi-structured ingest: extract the integer ``k`` field from the JSON
    ``props`` column with one vectorized RE2 pass
    (stages/text_analysis.json_int_field), then grouped integer stats per
    event type — the flatten-then-aggregate shape of every props/payload
    pipeline. The oracle uses the SAME RE2 pattern via DuckDB
    ``regexp_extract`` (not ``json_extract``), so both sides share one
    extraction contract by construction — flat-object semantics, first
    match wins (see the kernel docstring)."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["event_type", "props"])
    flat = ds.map_batches(
        lambda t: ta.json_int_field(t, "props", "k", "k").drop_columns(["props"]),
        batch_format="pyarrow",
        batch_size=None,
    )
    out = (
        flat.groupby("event_type")
        .aggregate(
            Count(alias_name="n"),
            Sum("k", alias_name="sum_k"),
            Min("k", alias_name="min_k"),
            Max("k", alias_name="max_k"),
        )
        .to_pandas()
        .astype({"n": "int64", "sum_k": "int64", "min_k": "int64", "max_k": "int64"})
    )
    return out.sort_values("event_type").reset_index(drop=True)


QUERIES["q_props_stats"] = q_props_stats
ORACLE_SQL["q_props_stats"] = """
    WITH x AS (
        SELECT event_type,
               CAST(NULLIF(regexp_extract(props, '"k"\\s*:\\s*(-?\\d+)', 1), '') AS BIGINT) AS k
        FROM events)
    SELECT event_type, COUNT(*) AS n,
           CAST(SUM(k) AS BIGINT) AS sum_k,
           MIN(k) AS min_k, MAX(k) AS max_k
    FROM x GROUP BY event_type ORDER BY event_type
"""

#: fixed day-index shift for q_trend_by_type: epoch-day minus this constant
#: keeps x small (data window is days 19723-19752), so every OLS moment —
#: up to n * sum(x^2) — stays far inside int64 even at corpus scale
_TREND_DAY_SHIFT = 19700


def q_trend_by_type(sf_dir: str) -> pd.DataFrame:
    """Grouped least-squares trend via EXACT integer moments: per event type,
    the OLS slope of the props ``k`` field over the event's day index,
    reported as the exact rational (slope_num, slope_den) =
    (n*Sxy - Sx*Sy, n*Sxx - Sx^2) — no float accumulation anywhere, so the
    SQL oracle matches hash-exactly (the X46 grouped-correlation pattern
    extended to regression). Distributed shape: per-batch moment partials
    (one pandas groupby per batch), a group-count-sized Sum shuffle, final
    arithmetic on the reduced frame. Composes the json_int_field kernel for
    ``y``. Day index is shifted by a fixed constant so the largest moment,
    n*Sxx, stays inside int64 with ~1e9 headroom at corpus scale."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["event_type", "ts", "props"])

    def partial(tbl: pa.Table) -> pd.DataFrame:
        tbl = ta.json_int_field(tbl, "props", "k", "y")
        df = pd.DataFrame(
            {
                "event_type": tbl["event_type"].to_pandas(),
                "x": (
                    tbl["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
                    // 86_400_000_000
                )
                - _TREND_DAY_SHIFT,
                "y": tbl["y"].to_pandas(),
            }
        )
        df = df[df["y"].notna()]
        x = df["x"].to_numpy(np.int64)
        y = df["y"].to_numpy(np.int64)
        g = pd.DataFrame(
            {
                "event_type": df["event_type"].to_numpy(object),
                "n": np.int64(1),
                "sx": x,
                "sy": y,
                "sxy": x * y,
                "sxx": x * x,
            }
        )
        return g.groupby("event_type", sort=False, as_index=False).sum()

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"),
            Sum("sxy", alias_name="sxy"),
            Sum("sxx", alias_name="sxx"),
        )
        .to_pandas()
    )
    n = agg["n"].to_numpy(np.int64)
    sx = agg["sx"].to_numpy(np.int64)
    sy = agg["sy"].to_numpy(np.int64)
    out = pd.DataFrame(
        {
            "event_type": agg["event_type"],
            "n": n,
            "slope_num": n * agg["sxy"].to_numpy(np.int64) - sx * sy,
            "slope_den": n * agg["sxx"].to_numpy(np.int64) - sx * sx,
        }
    )
    return out.sort_values("event_type").reset_index(drop=True).astype(
        {"n": "int64", "slope_num": "int64", "slope_den": "int64"}
    )


QUERIES["q_trend_by_type"] = q_trend_by_type
ORACLE_SQL["q_trend_by_type"] = """
    WITH pts AS (
        SELECT event_type,
               (epoch_us(ts) // 86400000000) - 19700 AS x,
               CAST(NULLIF(regexp_extract(props, '"k"\\s*:\\s*(-?\\d+)', 1), '') AS BIGINT) AS y
        FROM events),
    agg AS (SELECT event_type, COUNT(*) AS n, SUM(x) AS sx, SUM(y) AS sy,
                   SUM(x * y) AS sxy, SUM(x * x) AS sxx
            FROM pts WHERE y IS NOT NULL GROUP BY event_type)
    SELECT event_type, CAST(n AS BIGINT) AS n,
           CAST(n * sxy - sx * sy AS BIGINT) AS slope_num,
           CAST(n * sxx - sx * sx AS BIGINT) AS slope_den
    FROM agg ORDER BY event_type
"""

QUERIES["q_pagerank"] = q_pagerank
ORACLE_SQL["q_pagerank"] = f"""
    WITH d AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
    g AS (SELECT DISTINCT doc_id,
                 unnest([array_to_string(ws[i:i+3], ' ') FOR i IN generate_series(1, len(ws) - 3)]) AS gram
          FROM d),
    gc AS (SELECT doc_id, gram,
                  ROW_NUMBER() OVER (PARTITION BY gram ORDER BY doc_id) AS rn FROM g),
    e AS (SELECT a.doc_id AS u, b.doc_id AS v
          FROM gc a JOIN gc b USING (gram)
          WHERE a.doc_id <> b.doc_id AND a.rn <= {dd.GRAM_CAP} AND b.rn <= {dd.GRAM_CAP} GROUP BY 1, 2),
    deg AS (SELECT u, COUNT(*) AS dg FROM e GROUP BY u),
    r0 AS (SELECT doc_id AS node, CAST(1000000 AS BIGINT) AS r FROM documents),
    s1 AS (SELECT e.v AS node, SUM(r0.r // deg.dg) AS s
           FROM e JOIN r0 ON e.u = r0.node JOIN deg ON e.u = deg.u GROUP BY e.v),
    r1 AS (SELECT dd.doc_id AS node,
                  CAST(150000 + (850 * COALESCE(s1.s, 0)) // 1000 AS BIGINT) AS r
           FROM documents dd LEFT JOIN s1 ON s1.node = dd.doc_id),
    s2 AS (SELECT e.v AS node, SUM(r1.r // deg.dg) AS s
           FROM e JOIN r1 ON e.u = r1.node JOIN deg ON e.u = deg.u GROUP BY e.v),
    r2 AS (SELECT dd.doc_id AS node,
                  CAST(150000 + (850 * COALESCE(s2.s, 0)) // 1000 AS BIGINT) AS r
           FROM documents dd LEFT JOIN s2 ON s2.node = dd.doc_id),
    s3 AS (SELECT e.v AS node, SUM(r2.r // deg.dg) AS s
           FROM e JOIN r2 ON e.u = r2.node JOIN deg ON e.u = deg.u GROUP BY e.v),
    r3 AS (SELECT dd.doc_id AS node,
                  CAST(150000 + (850 * COALESCE(s3.s, 0)) // 1000 AS BIGINT) AS r
           FROM documents dd LEFT JOIN s3 ON s3.node = dd.doc_id)
    SELECT node AS doc_id, r AS rank_ppm FROM r3 ORDER BY doc_id
"""

QUERIES["q_ppm_decode"] = q_ppm_decode
ORACLE_SQL["q_ppm_decode"] = """
    WITH px AS (
        SELECT doc_id,
               (doc_id * 31 + (ro * 2) * 17 + (co * 2) * 13 + k * 7) % 256 AS v
        FROM documents,
             generate_series(0, 7) AS t1(ro),
             generate_series(0, 7) AS t2(co),
             generate_series(0, 2) AS t3(k)
    )
    SELECT doc_id,
           CAST(16 AS BIGINT) AS src_w, CAST(16 AS BIGINT) AS src_h,
           CAST(8 AS BIGINT) AS decoded_w, CAST(8 AS BIGINT) AS decoded_h,
           CAST(SUM(v) AS BIGINT) AS gray_sum
    FROM px GROUP BY doc_id ORDER BY doc_id
"""


_GRAM_EDGE_CTE = f"""
    WITH d AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
    g AS (SELECT DISTINCT doc_id,
                 unnest([array_to_string(ws[i:i+3], ' ') FOR i IN generate_series(1, len(ws) - 3)]) AS gram
          FROM d),
    gc AS (SELECT doc_id, gram,
                  ROW_NUMBER() OVER (PARTITION BY gram ORDER BY doc_id) AS rn FROM g),
    e AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b
          FROM gc a JOIN gc b USING (gram)
          WHERE a.doc_id < b.doc_id AND a.rn <= {dd.GRAM_CAP} AND b.rn <= {dd.GRAM_CAP} GROUP BY 1, 2)
"""


def q_edit_distance_pairs(sf_dir: str) -> pd.DataFrame:
    """X67: blocked edit-distance near-duplicates. Candidates = doc pairs
    sharing a word 4-gram (dedup.gram_edges — one shuffle; the pair set
    equals the SQL gram self-join exactly); verification = EXACT
    byte-Levenshtein over the first 64 characters via Myers' bit-parallel
    kernel (documents are ASCII, so char prefix == byte prefix and the
    kernel is bit-identical to DuckDB's byte-based ``levenshtein``; fuzz
    test covers both engines). Pairs with prefix distance <= 16 — the
    planted near-dups — survive; random gram collisions sit >32. Per-pair
    work is CANDIDATE-sized (~64 word ops each), same contract as
    dedup.verify_pairs_jaccard."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    pairs = dd.gram_edges(ds, "text", "doc_id", n=4)
    empty = pd.DataFrame(
        {
            "id_a": pd.Series(dtype="int64"),
            "id_b": pd.Series(dtype="int64"),
            "d64": pd.Series(dtype="int64"),
        }
    )
    if not len(pairs):
        return empty
    ids = np.unique(np.r_[pairs["id_a"].to_numpy(), pairs["id_b"].to_numpy()])
    texts = dd.gather_texts(ds, "doc_id", "text", ids)
    prefix = {i: (t or "")[:64] for i, t in zip(texts["doc_id"], texts["text"])}
    d = dd.myers_distance_batch(
        [prefix[a] for a in pairs["id_a"]], [prefix[b] for b in pairs["id_b"]], prefix=64
    )
    out = pd.DataFrame(
        {
            "id_a": pairs["id_a"].to_numpy(np.int64),
            "id_b": pairs["id_b"].to_numpy(np.int64),
            "d64": d,
        }
    )
    out = out[out["d64"] <= 16]
    if not len(out):
        return empty
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


QUERIES["q_edit_distance_pairs"] = q_edit_distance_pairs
ORACLE_SQL["q_edit_distance_pairs"] = (
    _GRAM_EDGE_CTE
    + """
    , dist AS (SELECT id_a, id_b,
                    CAST(levenshtein(substr(da.text, 1, 64), substr(db.text, 1, 64)) AS BIGINT) AS d64
             FROM e
             JOIN documents da ON da.doc_id = e.id_a
             JOIN documents db ON db.doc_id = e.id_b)
    SELECT id_a, id_b, d64 FROM dist WHERE d64 <= 16 ORDER BY id_a, id_b
"""
)


def q_triangle_counts(sf_dir: str) -> pd.DataFrame:
    """X68: exact per-node triangle counts on the near-duplicate candidate
    graph (shared-4-gram edges — the q_pagerank edge set). Wedge-close as
    two vectorized hash merges over the oriented edge list
    (cluster.triangle_counts); each triangle a<b<c is produced once, so the
    SQL three-way self-join reproduces it row-for-row."""
    from ..stages import cluster as cl

    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    edges = dd.gram_edges(ds, "text", "doc_id", n=4)
    out = cl.triangles(edges).to_pandas()
    if not len(out):  # Ray drops empty-frame schemas through to_pandas
        return pd.DataFrame(
            {"doc_id": pd.Series(dtype="int64"), "n_triangles": pd.Series(dtype="int64")}
        )
    out = out.rename(columns={"node": "doc_id"})
    return (
        out.sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "n_triangles": "int64"})
    )


QUERIES["q_triangle_counts"] = q_triangle_counts
ORACLE_SQL["q_triangle_counts"] = (
    _GRAM_EDGE_CTE
    + """
    , tri AS (SELECT e1.id_a AS a, e1.id_b AS b, e2.id_b AS c
            FROM e e1 JOIN e e2 ON e2.id_a = e1.id_b
                      JOIN e e3 ON e3.id_a = e1.id_a AND e3.id_b = e2.id_b),
    nodes AS (SELECT a AS node FROM tri
              UNION ALL SELECT b FROM tri
              UNION ALL SELECT c FROM tri)
    SELECT node AS doc_id, CAST(COUNT(*) AS BIGINT) AS n_triangles
    FROM nodes GROUP BY 1 ORDER BY 1
"""
)


def q_role_alternation(sf_dir: str) -> pd.DataFrame:
    """X69: transcript role-alternation constraint — a validation-engine
    check in the north-star family (consecutive same-role turns within a
    conversation are violations; reference per-message ordered evaluation,
    processor.py:97-145). conv/turn/role derive from doc_id by pure modular
    arithmetic (the derived-transcript trick) with a planted same-role
    mutation at doc_id % 53 == 0; ONE hash-bucket shuffle + segmented LAG
    flags the violations — no per-conversation Python."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id"])

    def derive(tbl: pa.Table) -> pa.Table:
        did = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        turn = did % 10
        role = np.where(did % 53 == 0, 1, turn % 2).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(did),
                "conv": pa.array(did // 10),
                "turn_idx": pa.array(turn),
                "role_code": pa.array(role),
            }
        )

    out = wd.window_over(
        ds.map_batches(derive, batch_format="pyarrow"),
        key="conv",
        order=["turn_idx"],
        specs=[("lag", "role_code", "prev_role")],
    ).to_pandas()
    out = out[out["prev_role"] == out["role_code"]]
    out = out[["doc_id", "conv", "turn_idx", "role_code"]].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


QUERIES["q_role_alternation"] = q_role_alternation
ORACLE_SQL["q_role_alternation"] = """
    WITH r AS (SELECT doc_id, doc_id // 10 AS conv,
                      CAST(doc_id % 10 AS BIGINT) AS turn_idx,
                      CASE WHEN doc_id % 53 = 0 THEN 1 ELSE (doc_id % 10) % 2 END AS role_code
               FROM documents),
    w AS (SELECT *, LAG(role_code) OVER (PARTITION BY conv ORDER BY turn_idx) AS prev_role
          FROM r)
    SELECT doc_id, conv, turn_idx, CAST(role_code AS BIGINT) AS role_code
    FROM w WHERE prev_role = role_code ORDER BY doc_id
"""


def q_markov_transitions(sf_dir: str) -> pd.DataFrame:
    """X70: first-order Markov transition counts over per-user event
    streams — LAG(event_type) through the one-shuffle segmented window
    kernel, then per-batch partial (prev, curr) counts merged on the driver
    (result-sized: |event types|^2 rows per batch)."""
    ds = rd.read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "ts", "user_id", "event_type"]
    )
    w = wd.window_over(
        ds,
        key="user_id",
        order=["ts", "event_id"],
        specs=[("lag", "event_type", "prev_type")],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["prev_type"].notna()]
        return (
            df.groupby(["prev_type", "event_type"], sort=False).size().reset_index(name="n")
        )

    parts = w.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby(["prev_type", "event_type"], sort=False, as_index=False)["n"].sum()
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["prev_type", "event_type"]).reset_index(drop=True)


QUERIES["q_markov_transitions"] = q_markov_transitions
ORACLE_SQL["q_markov_transitions"] = """
    WITH t AS (SELECT user_id, event_type,
                      LAG(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_type
               FROM events)
    SELECT prev_type, event_type, CAST(COUNT(*) AS BIGINT) AS n
    FROM t WHERE prev_type IS NOT NULL
    GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_decay_scores(sf_dir: str) -> pd.DataFrame:
    """X71: half-life-decayed per-user activity score, integer-exact:
    weight = 10^6 >> min(age_days, 40) relative to the global max event day
    (power-of-two decay keeps every term an exact int64, so the sum is
    order-independent). Two passes, both cheap: a scalar max-day aggregate,
    then one partially-aggregated groupby-sum — no sort, no window."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["user_id", "ts"])

    def day_col(tbl: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(tbl["ts"], pa.int64()), 86_400_000_000)
        return pa.table({"user_id": tbl["user_id"], "day": day})

    days = ds.map_batches(day_col, batch_format="pyarrow").materialize()
    mx = int(days.max("day"))

    def weigh(tbl: pa.Table) -> pa.Table:
        day = tbl["day"].to_numpy(zero_copy_only=False).astype(np.int64)
        age = np.minimum(mx - day, 40)
        w = (1_000_000 >> age.astype(np.uint64)).astype(np.int64)
        return pa.table({"user_id": tbl["user_id"], "w": pa.array(w)})

    out = (
        days.map_batches(weigh, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("w", alias_name="decay_score"))
        .to_pandas()
    )
    out = out.astype({"user_id": "int64", "decay_score": "int64"})
    return out.sort_values("user_id").reset_index(drop=True)


QUERIES["q_decay_scores"] = q_decay_scores
ORACLE_SQL["q_decay_scores"] = """
    WITH e AS (SELECT user_id, epoch_us(ts) // 86400000000 AS day FROM events),
    m AS (SELECT MAX(day) AS mx FROM e)
    SELECT user_id, CAST(SUM(1000000 // (1 << LEAST(mx - day, 40))) AS BIGINT) AS decay_score
    FROM e, m GROUP BY user_id ORDER BY user_id
"""


def q_phrase_search(sf_dir: str) -> pd.DataFrame:
    """X72: exact phrase-occurrence search — the probe side of the
    (gram_hash -> postings) inverted representation every dedup stage
    shares. The query phrase (doc 0's first three words, so it's
    deterministic at every sf) is hashed with the SAME rolling-gram kernel
    as the corpus grams; matching is then one vectorized equality + bincount
    per batch, streaming, no shuffle at all. Hash-vs-string equivalence to
    the SQL gram filter is the gram_edges collision argument (~2**-64)."""
    from ..functions.ngrams import chain_gram_hashes, explode_tokens

    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    # doc 0 is read with a pushed-down filter, not a Ray Data filter + take:
    # a satisfied take cancels the Filter tasks still running, and in Ray
    # 2.49 a task reply that races that cancel can abort the driver
    doc0 = pq.read_table(_p(sf_dir, "documents"), columns=["text"], filters=[("doc_id", "==", 0)])
    first = doc0["text"][0].as_py()
    phrase = " ".join(first.split(" ")[:3]) if first else ""
    prow, pwh = explode_tokens(np.array([phrase], dtype=object), sep=" ")
    _, pgh = chain_gram_hashes(prow, pwh, 3)
    if not len(pgh):  # doc 0 shorter than the phrase length: the SQL gram
        return pd.DataFrame(  # filter matches nothing
            {"doc_id": pd.Series(dtype="int64"), "n_occurrences": pd.Series(dtype="int64")}
        )
    target = pgh[0]

    def count_occ(tbl: pa.Table) -> pa.Table:
        texts = np.asarray(tbl["text"].to_pandas(), dtype=object)
        ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
        rows, wh = explode_tokens(texts, sep=" ")
        rows, gh = chain_gram_hashes(rows, wh, 3)
        hit = rows[gh == target]
        c = np.bincount(hit, minlength=len(ids)).astype(np.int64)
        keep = c > 0
        return pa.table(
            {"doc_id": pa.array(ids[keep]), "n_occurrences": pa.array(c[keep])}
        )

    out = ds.map_batches(count_occ, batch_format="pyarrow").to_pandas()
    out = out.astype({"doc_id": "int64", "n_occurrences": "int64"})
    return out.sort_values("doc_id").reset_index(drop=True)


QUERIES["q_phrase_search"] = q_phrase_search
ORACLE_SQL["q_phrase_search"] = """
    WITH ph AS (SELECT array_to_string((string_split(text, ' '))[1:3], ' ') AS phrase
                FROM documents WHERE doc_id = 0),
    d AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
    occ AS (SELECT doc_id,
                   unnest([array_to_string(ws[i:i+2], ' ')
                           FOR i IN generate_series(1, len(ws) - 2)]) AS gram
            FROM d)
    SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_occurrences
    FROM occ, ph WHERE gram = ph.phrase
    GROUP BY doc_id ORDER BY doc_id
"""


def q_audience_overlap(sf_dir: str) -> pd.DataFrame:
    """X73: audience-overlap analytics — for every event-type pair, the
    number of distinct (user, day) combinations that performed both. The
    classic bitmap-intersection shape: type codes come from one tiny
    ``unique`` aggregate, each (user, day) collapses to ONE int bitmask
    inside its hash bucket (distinct codes sum == OR), and only a 2^T-row
    mask HISTOGRAM leaves each bucket — the driver folds pair counts out of
    the histogram, never touching per-user data. One shuffle of int columns;
    contract: the type vocabulary is small (T <= 20), inherent to
    'event types'."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["user_id", "ts", "event_type"])
    types = sorted(ds.unique("event_type"))
    t_count = len(types)
    if t_count > 20:  # the 2^T mask histogram is the contract; fail loudly
        raise ValueError(f"event-type vocabulary too wide for bitmap overlap: {t_count} > 20")

    def derive(df: pd.DataFrame) -> pd.DataFrame:
        day = df["ts"].astype("datetime64[us]").astype("int64") // 86_400_000_000
        return pd.DataFrame(
            {
                "user_id": df["user_id"].to_numpy(np.int64),
                "day": day.to_numpy(np.int64),
                "c": pd.Categorical(df["event_type"], categories=types).codes.astype(np.int64),
            }
        ).drop_duplicates()

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "day", "c"])
        mask = np.int64(1) << g["c"].to_numpy(np.int64)
        mg = (
            pd.DataFrame({"u": g["user_id"], "d": g["day"], "m": mask})
            .groupby(["u", "d"], sort=False)["m"]
            .sum()
        )
        hist = np.bincount(mg.to_numpy(np.int64), minlength=1 << t_count)
        nz = np.flatnonzero(hist)
        return pd.DataFrame({"mask": nz.astype(np.int64), "n": hist[nz].astype(np.int64)})

    parts = wd.bucketed_map_groups(
        ds.map_batches(derive, batch_format="pandas"), "user_id", per_bucket
    ).to_pandas()
    hist = parts.groupby("mask")["n"].sum()
    masks = hist.index.to_numpy(np.int64)
    counts = hist.to_numpy(np.int64)
    rows = []
    for i in range(t_count):
        for j in range(i + 1, t_count):
            both = ((masks >> i) & 1).astype(bool) & ((masks >> j) & 1).astype(bool)
            n = int(counts[both].sum())
            if n:  # the oracle's inner self-join emits no row for a
                rows.append((types[i], types[j], n))  # never-co-occurring pair
    out = pd.DataFrame(rows, columns=["type_a", "type_b", "n_user_days"])
    out["type_a"] = out["type_a"].astype(object)
    out["type_b"] = out["type_b"].astype(object)
    out["n_user_days"] = out["n_user_days"].astype("int64")
    return out.sort_values(["type_a", "type_b"]).reset_index(drop=True)


QUERIES["q_audience_overlap"] = q_audience_overlap
ORACLE_SQL["q_audience_overlap"] = """
    WITH p AS (SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS day, event_type
               FROM events)
    SELECT a.event_type AS type_a, b.event_type AS type_b,
           CAST(COUNT(*) AS BIGINT) AS n_user_days
    FROM p a JOIN p b ON a.user_id = b.user_id AND a.day = b.day
                      AND a.event_type < b.event_type
    GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_interarrival_hist(sf_dir: str) -> pd.DataFrame:
    """X74: inter-arrival-time distribution — per-user LAG over event
    timestamps through the one-shuffle segmented window kernel, bucketed by
    decimal-digit count of the gap in seconds (an integer-exact log-scale
    histogram: digit count avoids float log10 edge cases entirely).
    Per-batch bincount partials, result-sized driver merge."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["event_id", "ts", "user_id"])

    def us_col(tbl: pa.Table) -> pa.Table:
        return tbl.append_column("us", pc.cast(tbl["ts"], pa.int64()))

    w = wd.window_over(
        ds.map_batches(us_col, batch_format="pyarrow"),
        key="user_id",
        order=["ts", "event_id"],
        specs=[("lag", "us", "pus")],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["pus"].notna()]
        # lag emits float64; event-epoch micros (~1.7e15) sit far below
        # 2^53 so the round-trip is exact
        sec = (d["us"].to_numpy(np.int64) - d["pus"].to_numpy(np.int64)) // 1_000_000
        digits = pd.Series(sec).astype(str).str.len().to_numpy(np.int64)
        cnt = np.bincount(digits)
        nz = np.flatnonzero(cnt)
        return pd.DataFrame({"digits": nz.astype(np.int64), "n": cnt[nz].astype(np.int64)})

    parts = w.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("digits", as_index=False)["n"].sum()
    out = out.astype({"digits": "int64", "n": "int64"})
    return out.sort_values("digits").reset_index(drop=True)


QUERIES["q_interarrival_hist"] = q_interarrival_hist
ORACLE_SQL["q_interarrival_hist"] = """
    WITH t AS (SELECT user_id, epoch_us(ts) AS us,
                      LAG(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS pus
               FROM events)
    SELECT CAST(length(CAST((us - pus) // 1000000 AS VARCHAR)) AS BIGINT) AS digits,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM t WHERE pus IS NOT NULL GROUP BY 1 ORDER BY 1
"""


def q_collect_events(sf_dir: str) -> pd.DataFrame:
    """X75: ordered collect (SQL array_agg/string_agg ORDER BY) — each
    user's full event-type path as one comma-joined string, built inside
    hash buckets after ONE shuffle (bucket-local lexsort + grouped join, no
    per-user map_groups). The result is user-history-sized by definition —
    fine for the oracle surface; production pipelines would write it to a
    partitioned sink instead of collecting (same note as q_token_stats)."""
    ds = rd.read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "ts", "user_id", "event_type"]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        grp = g.groupby("user_id", sort=False)
        agg = grp["event_type"].agg(",".join)
        return pd.DataFrame(
            {
                "user_id": agg.index.to_numpy(np.int64),
                "path": agg.to_numpy(object),
                "n_events": grp.size().to_numpy(np.int64),
            }
        )

    out = wd.bucketed_map_groups(ds, "user_id", per_bucket).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


QUERIES["q_collect_events"] = q_collect_events
ORACLE_SQL["q_collect_events"] = """
    SELECT user_id, string_agg(event_type, ',' ORDER BY ts, event_id) AS path,
           CAST(COUNT(*) AS BIGINT) AS n_events
    FROM events GROUP BY user_id ORDER BY user_id
"""


def q_vocab_spectrum(sf_dir: str) -> pd.DataFrame:
    """X76: vocabulary frequency spectrum (Zipf count-of-counts): for each
    document frequency df, how many distinct words have exactly that df —
    the standard corpus-statistics diagnostic. Rides the shared
    ``doc_freq_dataset`` aggregate (text never shuffles; vocabulary rows
    only), then per-batch bincount partials reduce the vocab-sized table to
    a spectrum-sized result without collecting the vocabulary anywhere."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["text"])
    # repartition guard: aggregate output partition count follows input block
    # count and can include empty SCHEMA-LESS blocks (see q_word_count note)
    voc = ta.doc_freq_dataset(ds, text_col="text").repartition(2)

    def spectrum_partial(tbl: pa.Table) -> pa.Table:
        dfv = tbl["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = np.bincount(dfv)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {"df": pa.array(nz.astype(np.int64)), "n_words": pa.array(cnt[nz].astype(np.int64))}
        )

    parts = voc.map_batches(spectrum_partial, batch_format="pyarrow").to_pandas()
    out = parts.groupby("df", as_index=False)["n_words"].sum()
    out = out.astype({"df": "int64", "n_words": "int64"})
    return out.sort_values("df").reset_index(drop=True)


QUERIES["q_vocab_spectrum"] = q_vocab_spectrum
ORACLE_SQL["q_vocab_spectrum"] = """
    WITH w AS (SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS word
               FROM documents),
    dfreq AS (SELECT word, COUNT(*) AS df FROM w GROUP BY word)
    SELECT CAST(df AS BIGINT) AS df, CAST(COUNT(*) AS BIGINT) AS n_words
    FROM dfreq GROUP BY df ORDER BY df
"""


def q_degree_distribution(sf_dir: str) -> pd.DataFrame:
    """X77: degree distribution of the candidate near-dup graph — the
    standard graph-shape diagnostic next to X68/X64. Edges are
    candidate-sized (gram_edges contract); degrees and the count-of-degrees
    histogram are two bincounts."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    edges = dd.gram_edges(ds, "text", "doc_id", n=4)
    empty = pd.DataFrame(
        {"degree": pd.Series(dtype="int64"), "n_nodes": pd.Series(dtype="int64")}
    )
    if not len(edges):
        return empty
    nodes = np.r_[edges["id_a"].to_numpy(np.int64), edges["id_b"].to_numpy(np.int64)]
    _, deg = np.unique(nodes, return_counts=True)
    cnt = np.bincount(deg)
    nz = np.flatnonzero(cnt)
    return pd.DataFrame(
        {"degree": nz.astype(np.int64), "n_nodes": cnt[nz].astype(np.int64)}
    )


QUERIES["q_degree_distribution"] = q_degree_distribution
ORACLE_SQL["q_degree_distribution"] = (
    _GRAM_EDGE_CTE
    + """
    , deg AS (SELECT node, COUNT(*) AS degree FROM
              (SELECT id_a AS node FROM e UNION ALL SELECT id_b FROM e) GROUP BY node)
    SELECT CAST(degree AS BIGINT) AS degree, CAST(COUNT(*) AS BIGINT) AS n_nodes
    FROM deg GROUP BY degree ORDER BY degree
"""
)


def q_hits(sf_dir: str) -> pd.DataFrame:
    """X78: HITS hub/authority scores (Kleinberg) over the canonical
    id_a->id_b orientation of the candidate graph — the link-analysis
    complement to PageRank (X64). Integer-ppm with floor-div max
    normalization after every half-step, so the two-iteration SQL
    chained-CTE replay is bit-identical (cluster.hits_local; exact int64
    groupby-sums, no float accumulation)."""
    from ..stages import cluster as cl

    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    edges = dd.gram_edges(ds, "text", "doc_id", n=4)
    out = cl.hits(edges, iters=2).to_pandas()
    if not len(out):  # Ray drops empty-frame schemas through to_pandas
        return pd.DataFrame(
            {
                "doc_id": pd.Series(dtype="int64"),
                "hub_ppm": pd.Series(dtype="int64"),
                "auth_ppm": pd.Series(dtype="int64"),
            }
        )
    out = out.rename(columns={"node": "doc_id"})
    return out.sort_values("doc_id").reset_index(drop=True).astype("int64")


QUERIES["q_hits"] = q_hits
ORACLE_SQL["q_hits"] = (
    _GRAM_EDGE_CTE
    + """
    , n AS (SELECT id_a AS node FROM e UNION SELECT id_b FROM e),
    a1 AS (SELECT id_b AS node, SUM(1000000) AS s FROM e GROUP BY id_b),
    a1n AS (SELECT n.node, COALESCE(a1.s, 0) * 1000000 // (SELECT MAX(s) FROM a1) AS v
            FROM n LEFT JOIN a1 ON a1.node = n.node),
    h1 AS (SELECT e.id_a AS node, SUM(a1n.v) AS s FROM e JOIN a1n ON a1n.node = e.id_b GROUP BY e.id_a),
    h1n AS (SELECT n.node, COALESCE(h1.s, 0) * 1000000 // GREATEST((SELECT MAX(s) FROM h1), 1) AS v
            FROM n LEFT JOIN h1 ON h1.node = n.node),
    a2 AS (SELECT e.id_b AS node, SUM(h1n.v) AS s FROM e JOIN h1n ON h1n.node = e.id_a GROUP BY e.id_b),
    a2n AS (SELECT n.node, COALESCE(a2.s, 0) * 1000000 // GREATEST((SELECT MAX(s) FROM a2), 1) AS v
            FROM n LEFT JOIN a2 ON a2.node = n.node),
    h2 AS (SELECT e.id_a AS node, SUM(a2n.v) AS s FROM e JOIN a2n ON a2n.node = e.id_b GROUP BY e.id_a),
    h2n AS (SELECT n.node, COALESCE(h2.s, 0) * 1000000 // GREATEST((SELECT MAX(s) FROM h2), 1) AS v
            FROM n LEFT JOIN h2 ON h2.node = n.node)
    SELECT n.node AS doc_id, CAST(h2n.v AS BIGINT) AS hub_ppm, CAST(a2n.v AS BIGINT) AS auth_ppm
    FROM n JOIN h2n ON h2n.node = n.node JOIN a2n ON a2n.node = n.node
    ORDER BY doc_id
"""
)


def q_table_fingerprint(sf_dir: str) -> pd.DataFrame:
    """X79: order-independent table checksum — the consistency-audit
    primitive a validation engine uses to certify two copies/snapshots hold
    the same content without sorting or shuffling anything. Per-doc content
    fingerprints (the oracle-proven X15 polynomial kernel) reduce under two
    order-independent combiners — wraparound SUM mod 2^64 and XOR — as
    one-row per-batch partials; any partitioning of the same rows yields
    the same three numbers. Null-text docs are excluded on both sides
    (q_fingerprint precedent)."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def partial(tbl: pa.Table) -> pa.Table:
        tbl = tbl.filter(pc.is_valid(tbl["text"]))
        fp = ta.fingerprint64(tbl)["fingerprint"].to_numpy(zero_copy_only=False)
        u = fp.astype(np.int64).view(np.uint64)
        with np.errstate(over="ignore"):
            s = np.uint64(u.sum(dtype=np.uint64)) if len(u) else np.uint64(0)
        x = np.bitwise_xor.reduce(u) if len(u) else np.uint64(0)
        return pa.table(
            {
                "n": pa.array([len(u)], pa.int64()),
                "s": pa.array([np.int64(s)], pa.int64()),
                "x": pa.array([np.int64(x)], pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    n_rows = int(parts["n"].sum()) if len(parts) else 0
    if n_rows == 0:  # all-null-text table: the oracle's base CTE is empty
        return pd.DataFrame(  # and yields ZERO rows, not a (0,0,0) row
            {
                "n_rows": pd.Series(dtype="int64"),
                "sum_fp": pd.Series(dtype="int64"),
                "xor_fp": pd.Series(dtype="int64"),
            }
        )
    su = parts["s"].to_numpy(np.int64).view(np.uint64)
    xu = parts["x"].to_numpy(np.int64).view(np.uint64)
    with np.errstate(over="ignore"):
        total_s = np.uint64(su.sum(dtype=np.uint64))
    total_x = np.bitwise_xor.reduce(xu)
    return pd.DataFrame(
        {
            "n_rows": [np.int64(n_rows)],
            "sum_fp": [np.int64(total_s)],
            "xor_fp": [np.int64(total_x)],
        }
    ).astype("int64")


QUERIES["q_table_fingerprint"] = q_table_fingerprint
ORACLE_SQL["q_table_fingerprint"] = f"""
    SELECT CAST(COUNT(*) AS BIGINT) AS n_rows,
           CAST(CASE WHEN s > {2**63 - 1} THEN CAST(s AS HUGEINT) - {2**64}
                     ELSE CAST(s AS HUGEINT) END AS BIGINT) AS sum_fp,
           CAST(bit_xor(fingerprint) AS BIGINT) AS xor_fp
    FROM (
        SELECT fingerprint,
               CAST(SUM(CASE WHEN fingerprint < 0
                             THEN CAST(fingerprint AS HUGEINT) + {2**64}
                             ELSE CAST(fingerprint AS HUGEINT) END)
                    OVER () % {2**64} AS UBIGINT) AS s
        FROM ({_fingerprint_sql()}) fp
    ) t
    GROUP BY s
"""


def q_fd_audit(sf_dir: str) -> pd.DataFrame:
    """X80: functional-dependency audit — does conv (doc_id // 10)
    functionally determine lang? For every violating determinant the audit
    reports the distinct-dependent count, the affected row count, and the
    majority dependent (the repair suggestion; ties break to the smaller
    string, SQL ROW_NUMBER order). Per-batch (conv, lang) partial counts,
    ONE hash-bucket shuffle, per-bucket vectorized profile — only VIOLATORS
    leave a bucket, so output is anomaly-sized (the validation contract)."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "lang"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        conv = df["doc_id"].to_numpy(np.int64) // 10
        return (
            pd.DataFrame({"conv": conv, "lang": df["lang"].to_numpy(object)})
            .groupby(["conv", "lang"], sort=False)
            .size()
            .reset_index(name="cnt")
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["conv", "lang"], sort=False, as_index=False)["cnt"].sum()
        agg = c.groupby("conv", sort=False).agg(
            n_langs=("lang", "size"), n_rows=("cnt", "sum")
        )
        maj = (
            c.sort_values(["conv", "cnt", "lang"], ascending=[True, False, True], kind="stable")
            .drop_duplicates("conv")
            .set_index("conv")["lang"]
        )
        viol = agg[agg["n_langs"] > 1]
        return pd.DataFrame(
            {
                "conv": viol.index.to_numpy(np.int64),
                "n_langs": viol["n_langs"].to_numpy(np.int64),
                "n_rows": viol["n_rows"].to_numpy(np.int64),
                "majority_lang": maj.loc[viol.index].to_numpy(object),
            }
        )

    out = wd.bucketed_map_groups(
        ds.map_batches(partial, batch_format="pandas"), "conv", per_bucket
    ).to_pandas()
    return out.sort_values("conv").reset_index(drop=True)


QUERIES["q_fd_audit"] = q_fd_audit
ORACLE_SQL["q_fd_audit"] = """
    WITH c AS (SELECT doc_id // 10 AS conv, lang, COUNT(*) AS cnt
               FROM documents GROUP BY 1, 2),
    agg AS (SELECT conv, COUNT(*) AS n_langs, SUM(cnt) AS n_rows FROM c GROUP BY conv),
    maj AS (SELECT conv, lang AS majority_lang FROM (
            SELECT conv, lang, ROW_NUMBER() OVER (PARTITION BY conv ORDER BY cnt DESC, lang) AS rk
            FROM c) t WHERE rk = 1)
    SELECT agg.conv, CAST(n_langs AS BIGINT) AS n_langs,
           CAST(n_rows AS BIGINT) AS n_rows, majority_lang
    FROM agg JOIN maj USING (conv) WHERE n_langs > 1 ORDER BY agg.conv
"""


def q_pareto_front(sf_dir: str) -> pd.DataFrame:
    """X81: Pareto frontier (skyline) — orders not dominated on (maximize
    totalprice, minimize orderdate), the classic multi-criteria shortlist
    operator. Two-phase distributed skyline: each batch emits its LOCAL
    skyline (a sound prefilter — global winners are locally undominated),
    the driver closes over the candidate union with the same vectorized
    kernel (ordering.skyline_mask_2d: one lexsort + two prefix passes, no
    pairwise matrix; fuzz-tested vs brute force incl. ties). Input sampled
    to o_orderkey % 7 == 0 to bound the oracle's quadratic NOT EXISTS."""
    from ..stages.ordering import skyline_mask_2d

    ds = rd.read_parquet(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_totalprice", "o_orderdate"]
    )

    def local_skyline(tbl: pa.Table) -> pa.Table:
        k = tbl["o_orderkey"]
        tbl = tbl.filter(pc.equal(pc.subtract(k, pc.multiply(pc.divide(k, 7), 7)), 0))
        score = tbl["o_totalprice"].to_numpy(zero_copy_only=False)
        cost = pc.cast(tbl["o_orderdate"], pa.int64()).to_numpy(zero_copy_only=False)
        return tbl.filter(pa.array(skyline_mask_2d(score, cost)))

    cand = ds.map_batches(local_skyline, batch_format="pyarrow").to_pandas()
    if len(cand):
        m = skyline_mask_2d(
            cand["o_totalprice"].to_numpy(),
            cand["o_orderdate"].astype("datetime64[us]").astype("int64").to_numpy(),
        )
        cand = cand[m]
    return cand.sort_values("o_orderkey").reset_index(drop=True)


QUERIES["q_pareto_front"] = q_pareto_front
ORACLE_SQL["q_pareto_front"] = """
    WITH t AS (SELECT o_orderkey, o_totalprice, o_orderdate FROM orders
               WHERE o_orderkey % 7 = 0)
    SELECT o_orderkey, o_totalprice, o_orderdate FROM t a
    WHERE NOT EXISTS (
        SELECT 1 FROM t b
        WHERE b.o_totalprice >= a.o_totalprice AND b.o_orderdate <= a.o_orderdate
          AND (b.o_totalprice > a.o_totalprice OR b.o_orderdate < a.o_orderdate))
    ORDER BY o_orderkey
"""


def q_snapshot_diff(sf_dir: str) -> pd.DataFrame:
    """X82: snapshot diff / CDC — classify rows as added, removed, or
    changed between two table versions by joining their content-hash
    tables. v2 derives from documents by pure modular arithmetic (deletes at
    %101, edits at %103 as n_chars+7, inserts at %107 as doc_id+10^9 with
    n_chars+3) reproduced literally in SQL. Hashes are splitmix64 reduced to
    48 bits so they survive the outer join's NA float promotion exactly;
    the diff itself is the real machinery — a bucketed FULL OUTER hash join
    of two 16-byte/row fingerprint streams, with only non-'unchanged' rows
    surviving (anomaly-sized output)."""
    from ..functions.hashing import splitmix64

    mask48 = np.uint64((1 << 48) - 1)

    def content_hash(did: np.ndarray, nch: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            h = splitmix64(did.astype(np.uint64) ^ (nch.astype(np.uint64) * np.uint64(1048576)))
        return (h & mask48).astype(np.int64)

    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "n_chars"])

    def v1_hash(tbl: pa.Table) -> pa.Table:
        did = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nch = tbl["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"doc_id": pa.array(did), "fp1": pa.array(content_hash(did, nch))})

    def v2_hash(tbl: pa.Table) -> pa.Table:
        did = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nch = tbl["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = did % 101 != 0
        kd, kn = did[keep], nch[keep]
        kn = np.where(kd % 103 == 0, kn + 7, kn)
        add = did % 107 == 0
        ad, an = did[add] + 1_000_000_000, nch[add] + 3
        d2 = np.r_[kd, ad]
        n2 = np.r_[kn, an]
        return pa.table({"doc_id": pa.array(d2), "fp2": pa.array(content_hash(d2, n2))})

    def classify(j: pd.DataFrame) -> pd.DataFrame:
        fp1 = j["fp1"].fillna(-1).to_numpy("int64")
        fp2 = j["fp2"].fillna(-1).to_numpy("int64")
        status = np.where(
            fp2 < 0, "removed", np.where(fp1 < 0, "added", np.where(fp1 != fp2, "changed", ""))
        )
        keep = status != ""
        return pd.DataFrame(
            {"doc_id": j["doc_id"].to_numpy("int64")[keep], "status": status[keep].astype(object)}
        )

    v1 = ds.map_batches(v1_hash, batch_format="pyarrow")
    v2 = ds.map_batches(v2_hash, batch_format="pyarrow")
    j = jn.bucketed_hash_join(v1, v2, on="doc_id", how="outer")
    # only the diff reaches the driver; "unchanged" rows drop in the workers
    out = j.map_batches(classify, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


QUERIES["q_snapshot_diff"] = q_snapshot_diff
ORACLE_SQL["q_snapshot_diff"] = f"""
    WITH v2 AS (
        SELECT doc_id,
               CASE WHEN doc_id % 103 = 0 THEN n_chars + 7 ELSE n_chars END AS n_chars
        FROM documents WHERE doc_id % 101 <> 0
        UNION ALL
        SELECT doc_id + 1000000000, n_chars + 3 FROM documents WHERE doc_id % 107 = 0
    ),
    u12 AS (SELECT 1 AS side, doc_id, n_chars FROM documents
            UNION ALL SELECT 2, doc_id, n_chars FROM v2),
    pre AS (SELECT side, doc_id,
                   xor(CAST(doc_id AS UBIGINT), CAST(n_chars AS UBIGINT) * 1048576) AS x
            FROM u12),
    {_splitmix_full_cte('pre', ['side', 'doc_id'])},
    hashed AS (SELECT side, doc_id, CAST(x % {1 << 48} AS BIGINT) AS fp FROM sm),
    h1 AS (SELECT doc_id, fp FROM hashed WHERE side = 1),
    h2 AS (SELECT doc_id, fp FROM hashed WHERE side = 2),
    d AS (SELECT COALESCE(h1.doc_id, h2.doc_id) AS doc_id,
                 CASE WHEN h2.doc_id IS NULL THEN 'removed'
                      WHEN h1.doc_id IS NULL THEN 'added'
                      WHEN h1.fp <> h2.fp THEN 'changed' END AS status
          FROM h1 FULL OUTER JOIN h2 ON h1.doc_id = h2.doc_id)
    SELECT doc_id, status FROM d WHERE status IS NOT NULL ORDER BY doc_id
"""


def q_embedding_profile(sf_dir: str) -> pd.DataFrame:
    """X83: list-column (vector) profiling — per-dimension sum/min/max/count
    over the embeddings table, the column-stats primitive for vector columns
    the north star calls out. Values quantize to floor(x * 10^6) int64
    (float32→float64 widening is exact, so both engines compute the same
    IEEE product) making every aggregate order-independent. Flat-buffer
    matrix view per batch (functions/arrays.list_to_mat, zero row loops),
    per-batch D-sized partials, driver combine."""
    from ..functions.arrays import list_to_mat

    ds = rd.read_parquet(_p(sf_dir, "embeddings"), columns=["embedding"])

    def partial(tbl: pa.Table) -> pa.Table:
        mat = list_to_mat(tbl["embedding"]).astype(np.float64)
        q = np.floor(mat * 1_000_000).astype(np.int64)
        d = q.shape[1] if q.ndim == 2 and q.size else 0
        if not d:
            return pa.table(
                {
                    "dim": pa.array([], pa.int64()),
                    "sum_q": pa.array([], pa.int64()),
                    "min_q": pa.array([], pa.int64()),
                    "max_q": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "dim": pa.array(np.arange(1, d + 1, dtype=np.int64)),
                "sum_q": pa.array(q.sum(axis=0, dtype=np.int64)),
                "min_q": pa.array(q.min(axis=0)),
                "max_q": pa.array(q.max(axis=0)),
                "n": pa.array(np.full(d, q.shape[0], dtype=np.int64)),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = parts.groupby("dim", as_index=False).agg(
        sum_q=("sum_q", "sum"), min_q=("min_q", "min"), max_q=("max_q", "max"), n=("n", "sum")
    )
    out = out.astype("int64")
    return out.sort_values("dim").reset_index(drop=True)


QUERIES["q_embedding_profile"] = q_embedding_profile
ORACLE_SQL["q_embedding_profile"] = """
    WITH flat AS (SELECT unnest([i FOR i IN generate_series(1, len(embedding))]) AS dim,
                         unnest(embedding) AS v
                  FROM embeddings),
    q AS (SELECT dim, CAST(FLOOR(CAST(v AS DOUBLE) * 1000000) AS BIGINT) AS vq FROM flat)
    SELECT CAST(dim AS BIGINT) AS dim, CAST(SUM(vq) AS BIGINT) AS sum_q,
           CAST(MIN(vq) AS BIGINT) AS min_q, CAST(MAX(vq) AS BIGINT) AS max_q,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM q GROUP BY dim ORDER BY dim
"""


def q_longest_run(sf_dir: str) -> pd.DataFrame:
    """X84: gaps-and-islands — each user's longest consecutive same-type
    event run under (ts, event_id) order. One hash-bucket shuffle, then a
    fully vectorized island pass per bucket (boundary flags -> cumsum run
    ids -> bincount lengths -> per-user max); the SQL replay is the classic
    two-ROW_NUMBER island trick."""
    ds = rd.read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "ts", "user_id", "event_type"]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        u = g["user_id"].to_numpy(np.int64)
        typ = g["event_type"].to_numpy(object)
        new = np.r_[True, (u[1:] != u[:-1]) | (typ[1:] != typ[:-1])]
        rid = np.cumsum(new) - 1
        lens = np.bincount(rid)
        run_user = u[np.flatnonzero(new)]
        res = (
            pd.DataFrame({"user_id": run_user, "run_len": lens})
            .groupby("user_id", sort=False)["run_len"]
            .max()
        )
        return pd.DataFrame(
            {
                "user_id": res.index.to_numpy(np.int64),
                "longest_run": res.to_numpy(np.int64),
            }
        )

    out = wd.bucketed_map_groups(ds, "user_id", per_bucket).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


QUERIES["q_longest_run"] = q_longest_run
ORACLE_SQL["q_longest_run"] = """
    WITH t AS (SELECT user_id, event_type,
                      ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn,
                      ROW_NUMBER() OVER (PARTITION BY user_id, event_type ORDER BY ts, event_id) AS rnt
               FROM events),
    runs AS (SELECT user_id, COUNT(*) AS run_len
             FROM t GROUP BY user_id, event_type, rn - rnt)
    SELECT user_id, CAST(MAX(run_len) AS BIGINT) AS longest_run
    FROM runs GROUP BY user_id ORDER BY user_id
"""


def q_collocations(sf_dir: str) -> pd.DataFrame:
    """X85: PMI collocation mining — adjacent word pairs scored by an
    integer PMI proxy, pmi_ppm = ((c_ab·10^6 // c_a) · Nu // c_b) · Nu // Nb
    (the chained floor divisions are reproduced literally in SQL, so the
    score is exact, not float log-PMI). Bigram and unigram counts are
    pre-aggregated per batch in code space (the q_bigram_counts shape);
    the unigram table is vocab-sized (the vocab_doc_freq precedent), the
    scored output is bounded by the c_ab >= 5 heavy tail."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["text"])

    def bigram_partial(tbl: pa.Table) -> pa.Table:
        tok = tf.tokenize(tbl["text"])
        empty = pa.table(
            {
                "wa": pa.nulls(0, pa.string()),
                "wb": pa.nulls(0, pa.string()),
                "n": pa.nulls(0, pa.int64()),
            }
        )
        if len(tok.codes) < 2:
            return empty
        same = tok.rows[1:] == tok.rows[:-1]
        if not same.any():
            return empty
        v = np.int64(len(tok.uniques))
        a = tok.codes[:-1][same].astype(np.int64)
        b = tok.codes[1:][same].astype(np.int64)
        uk, counts = np.unique(a * v + b, return_counts=True)
        un = np.asarray(tok.uniques, dtype=object)
        return pa.table(
            {
                "wa": pa.array(un[uk // v], pa.string()),
                "wb": pa.array(un[uk % v], pa.string()),
                "n": pa.array(counts.astype(np.int64)),
            }
        )

    def unigram_partial(tbl: pa.Table) -> pa.Table:
        tok = tf.tokenize(tbl["text"])
        if not len(tok.codes):
            return pa.table({"w": pa.nulls(0, pa.string()), "c": pa.nulls(0, pa.int64())})
        cnt = np.bincount(tok.codes, minlength=len(tok.uniques))
        return pa.table(
            {"w": pa.array(tok.uniques, pa.string()), "c": pa.array(cnt.astype(np.int64))}
        )

    bcnt = (
        ds.map_batches(bigram_partial, batch_format="pyarrow", batch_size=None)
        .groupby(["wa", "wb"])
        .aggregate(Sum("n", alias_name="c_ab"))
        .to_pandas()
    )
    ucnt = (
        ds.map_batches(unigram_partial, batch_format="pyarrow", batch_size=None)
        .groupby("w")
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()
    )
    nu = int(ucnt["c"].sum())
    nb = int(bcnt["c_ab"].sum())
    out = bcnt[bcnt["c_ab"] >= 5].copy()
    marg = dict(zip(ucnt["w"], ucnt["c"].astype(np.int64)))
    ca = out["wa"].map(marg).to_numpy(np.int64)
    cb = out["wb"].map(marg).to_numpy(np.int64)
    c_ab = out["c_ab"].to_numpy(np.int64)
    # Python-int chain: intermediates reach ~2e5*nu^2 and would wrap int64
    # past nu ~ 7e6 tokens; the oracle computes the same chain in HUGEINT
    # (the FINAL value is ~2e5*nu/nb-scale and stays BIGINT-safe). The loop
    # runs over the c_ab>=5 heavy tail only — result-sized, not corpus-sized
    pmi = np.fromiter(
        (
            ((int(a) * 1_000_000 // int(x)) * nu // int(y)) * nu // nb
            for a, x, y in zip(c_ab, ca, cb)
        ),
        dtype=np.int64,
        count=len(out),
    )
    out = pd.DataFrame(
        {
            "wa": out["wa"].to_numpy(object),
            "wb": out["wb"].to_numpy(object),
            "c_ab": c_ab,
            "pmi_ppm": pmi,
        }
    )
    return out.sort_values(["wa", "wb"]).reset_index(drop=True)


QUERIES["q_collocations"] = q_collocations
ORACLE_SQL["q_collocations"] = r"""
    WITH tok AS (SELECT regexp_extract_all(text, '\S+') AS ws FROM documents),
    uni AS (SELECT unnest(ws) AS w FROM tok),
    ucnt AS (SELECT w, COUNT(*) AS c FROM uni GROUP BY w),
    big AS (SELECT unnest(ws[1:len(ws)-1]) AS wa, unnest(ws[2:len(ws)]) AS wb
            FROM tok WHERE len(ws) >= 2),
    bcnt AS (SELECT wa, wb, COUNT(*) AS c_ab FROM big GROUP BY 1, 2 HAVING COUNT(*) >= 5),
    tot AS (SELECT (SELECT COUNT(*) FROM uni) AS nu, (SELECT COUNT(*) FROM big) AS nb)
    SELECT wa, wb, CAST(c_ab AS BIGINT) AS c_ab,
           CAST(((CAST(c_ab AS HUGEINT) * 1000000 // ca.c) * nu // cb.c) * nu // nb
                AS BIGINT) AS pmi_ppm
    FROM bcnt JOIN ucnt ca ON ca.w = bcnt.wa JOIN ucnt cb ON cb.w = bcnt.wb, tot
    ORDER BY wa, wb
"""


def q_checksum_by_shard(sf_dir: str) -> pd.DataFrame:
    """X86: per-partition checksum rollup — the lineage record a resumable
    validation run writes per shard (north-star 'per-partition lineage +
    metrics'). Same order-independent combiners as X79 (wraparound SUM mod
    2^64 + XOR of content fingerprints) but grouped by shard = doc_id//100;
    per-batch shard partials combine on the driver with reduceat (shard
    count is partition-sized, not row-sized)."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def partial(tbl: pa.Table) -> pa.Table:
        tbl = tbl.filter(pc.is_valid(tbl["text"]))
        fpt = ta.fingerprint64(tbl)
        did = fpt["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        fp = fpt["fingerprint"].to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64)
        if not len(did):  # reduceat on an empty array raises; emit a typed
            return pa.table(  # empty partial instead
                {
                    "shard": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "s": pa.array([], pa.int64()),
                    "x": pa.array([], pa.int64()),
                }
            )
        shard = did // 100
        order = np.argsort(shard, kind="stable")
        shard, fp = shard[order], fp[order]
        starts = np.flatnonzero(np.r_[True, shard[1:] != shard[:-1]])
        with np.errstate(over="ignore"):
            sums = np.add.reduceat(fp, starts)
        xors = np.bitwise_xor.reduceat(fp, starts)
        lens = np.diff(np.r_[starts, len(fp)])
        return pa.table(
            {
                "shard": pa.array(shard[starts]),
                "n": pa.array(lens.astype(np.int64)),
                "s": pa.array(sums.view(np.int64)),
                "x": pa.array(xors.view(np.int64)),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    parts = parts.sort_values("shard", kind="stable")
    shard = parts["shard"].to_numpy(np.int64)
    starts = np.flatnonzero(np.r_[True, shard[1:] != shard[:-1]]) if len(shard) else np.array([], int)
    su = parts["s"].to_numpy(np.int64).view(np.uint64)
    xu = parts["x"].to_numpy(np.int64).view(np.uint64)
    with np.errstate(over="ignore"):
        sums = np.add.reduceat(su, starts) if len(shard) else np.array([], np.uint64)
    xors = np.bitwise_xor.reduceat(xu, starts) if len(shard) else np.array([], np.uint64)
    ns = np.add.reduceat(parts["n"].to_numpy(np.int64), starts) if len(shard) else np.array([], np.int64)
    return pd.DataFrame(
        {
            "shard": shard[starts] if len(shard) else np.array([], np.int64),
            "n_rows": ns.astype(np.int64),
            "sum_fp": sums.view(np.int64) if len(shard) else np.array([], np.int64),
            "xor_fp": xors.view(np.int64) if len(shard) else np.array([], np.int64),
        }
    )


QUERIES["q_checksum_by_shard"] = q_checksum_by_shard
ORACLE_SQL["q_checksum_by_shard"] = f"""
    SELECT CAST(doc_id // 100 AS BIGINT) AS shard,
           CAST(COUNT(*) AS BIGINT) AS n_rows,
           CAST(CASE WHEN s > {2**63 - 1} THEN CAST(s AS HUGEINT) - {2**64}
                     ELSE CAST(s AS HUGEINT) END AS BIGINT) AS sum_fp,
           CAST(bit_xor(fingerprint) AS BIGINT) AS xor_fp
    FROM (
        SELECT doc_id, fingerprint,
               CAST(SUM(CASE WHEN fingerprint < 0
                             THEN CAST(fingerprint AS HUGEINT) + {2**64}
                             ELSE CAST(fingerprint AS HUGEINT) END)
                    OVER (PARTITION BY doc_id // 100) % {2**64} AS UBIGINT) AS s
        FROM ({_fingerprint_sql()}) fp
    ) t
    GROUP BY 1, s ORDER BY 1
"""


def q_trailing_hour(sf_dir: str) -> pd.DataFrame:
    """X87: time-RANGE window frames — each event's trailing-1-hour value
    sum within its user stream (SQL RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
    AND CURRENT ROW, a different frame algebra from the ROWS windows of
    X11/X39). One hash-bucket shuffle, then windows.trailing_range_sum's
    composite-key searchsorted kernel per bucket — frame bounds for every
    row from ONE searchsorted pair, peers-at-equal-ts included exactly as
    SQL requires."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["event_id", "ts", "user_id", "value"])

    def prep(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": tbl["event_id"],
                "user_id": tbl["user_id"],
                "us": pc.cast(tbl["ts"], pa.int64()),
                "fv": pc.cast(pc.floor(tbl["value"]), pa.int64()),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = wd.trailing_range_sum(
            g, key="user_id", ts_col="us", val_col="fv", window_us=3_600_000_000
        )
        return out[["event_id", "user_id", "trail_sum"]]

    out = wd.bucketed_map_groups(
        ds.map_batches(prep, batch_format="pyarrow"), "user_id", per_bucket
    ).to_pandas()
    out = out.astype({"event_id": "int64", "user_id": "int64", "trail_sum": "int64"})
    return out.sort_values("event_id").reset_index(drop=True)


QUERIES["q_trailing_hour"] = q_trailing_hour
ORACLE_SQL["q_trailing_hour"] = """
    SELECT event_id, user_id,
           CAST(SUM(CAST(FLOOR(value) AS BIGINT))
                OVER (PARTITION BY user_id ORDER BY ts
                      RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW) AS BIGINT) AS trail_sum
    FROM events ORDER BY event_id
"""


def _length_group_hist(sf_dir: str) -> pd.DataFrame:
    """Shared base for the exact two-sample drift tests (X88/X89): per-value
    counts of n_chars split lang=='en' vs rest. Per-batch partial counts,
    one value-domain-sized Sum shuffle — the corpus never leaves its blocks;
    the driver holds |distinct n_chars| x 2 rows."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["n_chars", "lang"])

    def partial(tbl: pa.Table) -> pa.Table:
        v = tbl["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = pc.equal(tbl["lang"], "en").to_numpy(zero_copy_only=False).astype(np.int64)
        c = (
            pd.DataFrame({"v": v, "g": g})
            .groupby(["v", "g"], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        return pa.Table.from_pandas(c, preserve_index=False)

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["v", "g"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
    )
    return out.astype({"v": "int64", "g": "int64", "cnt": "int64"})


def q_mannwhitney_u(sf_dir: str) -> pd.DataFrame:
    """X88: exact Mann-Whitney U two-sample drift test (doc length, en vs
    rest) — the rank-sum statistic with tie-averaged ranks kept EXACT as the
    integer 2U (doubling clears the half-ranks): 2R1 = sum_v c1_v * (2*cumb_v
    + ct_v + 1), 2U1 = 2R1 - n1(n1+1). Driver arithmetic over the
    value-domain histogram; SQL replays the same window cumsum formula."""
    h = _length_group_hist(sf_dir)
    pv = (
        h.pivot_table(index="v", columns="g", values="cnt", aggfunc="sum", fill_value=0)
        .reindex(columns=[0, 1], fill_value=0)
        .sort_index()
    )
    c1 = pv[1].to_numpy(np.int64)
    ct = (pv[0] + pv[1]).to_numpy(np.int64)
    cumb = np.r_[0, np.cumsum(ct)[:-1]]
    n1 = int(c1.sum())
    n2 = int(ct.sum()) - n1
    two_r1 = int((c1 * (2 * cumb + ct + 1)).sum())
    return pd.DataFrame(
        {"n1": [n1], "n2": [n2], "u2": [two_r1 - n1 * (n1 + 1)]}
    ).astype("int64")


QUERIES["q_mannwhitney_u"] = q_mannwhitney_u
ORACLE_SQL["q_mannwhitney_u"] = """
    WITH c AS (SELECT n_chars AS v, CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS g, COUNT(*) AS cnt
               FROM documents GROUP BY 1, 2),
    pv AS (SELECT v, SUM(CASE WHEN g = 1 THEN cnt ELSE 0 END) AS c1,
                  SUM(cnt) AS ct FROM c GROUP BY v),
    w AS (SELECT v, c1, ct,
                 COALESCE(SUM(ct) OVER (ORDER BY v ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cumb
          FROM pv),
    agg AS (SELECT SUM(c1) AS n1, SUM(ct) - SUM(c1) AS n2,
                   SUM(c1 * (2 * cumb + ct + 1)) AS two_r1
            FROM w)
    SELECT CAST(n1 AS BIGINT) AS n1, CAST(n2 AS BIGINT) AS n2,
           CAST(two_r1 - n1 * (n1 + 1) AS BIGINT) AS u2
    FROM agg
"""


def q_ks_exact(sf_dir: str) -> pd.DataFrame:
    """X89: exact two-sample Kolmogorov-Smirnov distance as a rational —
    ks_num = max_v |cum1(v)*n2 - cum2(v)*n1| with the n1*n2 denominator
    carried separately, so the drift statistic is integer-exact (the float
    KS in stages/stats.py is the streaming-sketch path; this is its exact
    certificate twin). Same value-domain histogram base as X88."""
    h = _length_group_hist(sf_dir)
    pv = (
        h.pivot_table(index="v", columns="g", values="cnt", aggfunc="sum", fill_value=0)
        .reindex(columns=[0, 1], fill_value=0)
        .sort_index()
    )
    c1 = pv[1].to_numpy(np.int64)
    c2 = pv[0].to_numpy(np.int64)
    cum1, cum2 = np.cumsum(c1), np.cumsum(c2)
    n1, n2 = int(c1.sum()), int(c2.sum())
    ks_num = int(np.abs(cum1 * n2 - cum2 * n1).max()) if len(c1) else 0
    return pd.DataFrame({"n1": [n1], "n2": [n2], "ks_num": [ks_num]}).astype("int64")


QUERIES["q_ks_exact"] = q_ks_exact
ORACLE_SQL["q_ks_exact"] = """
    WITH c AS (SELECT n_chars AS v, CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS g, COUNT(*) AS cnt
               FROM documents GROUP BY 1, 2),
    pv AS (SELECT v, SUM(CASE WHEN g = 1 THEN cnt ELSE 0 END) AS c1,
                  SUM(CASE WHEN g = 0 THEN cnt ELSE 0 END) AS c2 FROM c GROUP BY v),
    w AS (SELECT v, SUM(c1) OVER (ORDER BY v) AS cum1, SUM(c2) OVER (ORDER BY v) AS cum2 FROM pv),
    tot AS (SELECT SUM(c1) AS n1, SUM(c2) AS n2 FROM pv)
    SELECT CAST(n1 AS BIGINT) AS n1, CAST(n2 AS BIGINT) AS n2,
           CAST(MAX(ABS(cum1 * n2 - cum2 * n1)) AS BIGINT) AS ks_num
    FROM w, tot GROUP BY n1, n2
"""


def q_dwell_time(sf_dir: str) -> pd.DataFrame:
    """X90: state dwell-time accounting — for each event type, the total
    time users spend 'in' that state (gap until the user's next event,
    LEAD semantics). One segmented-window shuffle, integer epoch-second
    gaps, per-batch partial (type, dwell, n) sums, result-sized merge."""
    ds = rd.read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "ts", "user_id", "event_type"]
    )

    def us_col(tbl: pa.Table) -> pa.Table:
        return tbl.append_column("us", pc.cast(tbl["ts"], pa.int64()))

    w = wd.window_over(
        ds.map_batches(us_col, batch_format="pyarrow"),
        key="user_id",
        order=["ts", "event_id"],
        specs=[("lead", "us", "nus")],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["nus"].notna()]
        gap = (d["nus"].to_numpy(np.int64) - d["us"].to_numpy(np.int64)) // 1_000_000
        g = pd.DataFrame({"event_type": d["event_type"].to_numpy(object), "gap": gap})
        out = g.groupby("event_type", sort=False).agg(
            dwell_sec=("gap", "sum"), n=("gap", "size")
        )
        return out.reset_index()

    parts = w.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("event_type", as_index=False).agg(
        dwell_sec=("dwell_sec", "sum"), n=("n", "sum")
    )
    out = out.astype({"dwell_sec": "int64", "n": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


QUERIES["q_dwell_time"] = q_dwell_time
ORACLE_SQL["q_dwell_time"] = """
    WITH t AS (SELECT event_type, epoch_us(ts) AS us,
                      LEAD(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS nus
               FROM events)
    SELECT event_type, CAST(SUM((nus - us) // 1000000) AS BIGINT) AS dwell_sec,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM t WHERE nus IS NOT NULL GROUP BY 1 ORDER BY 1
"""


def q_charset_profile(sf_dir: str) -> pd.DataFrame:
    """X91: per-language character-set profile — distinct codepoint count
    plus min/max codepoint, the mojibake / encoding-drift diagnostic a text
    validation engine runs per column group. One utf-32 decode of each
    batch's concatenated text (no per-char Python), per-batch distinct
    (lang, cp) pairs — bounded by |langs| x |alphabet| — then a tiny global
    dedup + groupby."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["lang", "text"])

    def partial(tbl: pa.Table) -> pa.Table:
        s = tbl["text"].to_pandas()
        langs = np.asarray(tbl["lang"].to_pandas(), dtype=object)
        texts = ["" if pd.isna(t) else t for t in s.tolist()]
        lens = np.fromiter((len(t) for t in texts), dtype=np.int64, count=len(texts))
        cps = np.frombuffer("".join(texts).encode("utf-32-le"), dtype=np.uint32).astype(
            np.int64
        )
        rows = np.repeat(np.arange(len(texts)), lens)
        pairs = pd.DataFrame({"lang": langs[rows], "cp": cps}).drop_duplicates()
        return pa.Table.from_pandas(pairs, preserve_index=False)

    pairs = ds.map_batches(partial, batch_format="pyarrow").to_pandas().drop_duplicates()
    out = pairs.groupby("lang", as_index=False).agg(
        n_distinct_chars=("cp", "size"), min_cp=("cp", "min"), max_cp=("cp", "max")
    )
    out = out.astype({"n_distinct_chars": "int64", "min_cp": "int64", "max_cp": "int64"})
    return out.sort_values("lang").reset_index(drop=True)


QUERIES["q_charset_profile"] = q_charset_profile
ORACLE_SQL["q_charset_profile"] = """
    WITH ch AS (SELECT lang,
                       unnest([unicode(substr(text, i, 1)) FOR i IN generate_series(1, length(text))]) AS cp
                FROM documents),
    d AS (SELECT DISTINCT lang, cp FROM ch)
    SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_distinct_chars,
           CAST(MIN(cp) AS BIGINT) AS min_cp, CAST(MAX(cp) AS BIGINT) AS max_cp
    FROM d GROUP BY lang ORDER BY lang
"""


def q_trimmed_mean(sf_dir: str) -> pd.DataFrame:
    """X92: per-group trimmed (10%) robust aggregate — sum and count of the
    middle order statistics, exactly, from the per-group value-domain
    histogram (one tiny Sum shuffle; no global sort): the lowest/highest
    n//10 OCCURRENCES trim off the cumulative counts, and because tied
    values are interchangeable the histogram trim equals the oracle's
    rank-based trim row-for-row. Carried as (sum_mid, n_mid) integers —
    the exact rational mean."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["lang", "n_chars"])

    def partial(tbl: pa.Table) -> pa.Table:
        c = (
            pd.DataFrame(
                {
                    "lang": np.asarray(tbl["lang"].to_pandas(), dtype=object),
                    "v": tbl["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64),
                }
            )
            .groupby(["lang", "v"], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        return pa.Table.from_pandas(c, preserve_index=False)

    h = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "v"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
        .sort_values(["lang", "v"], kind="stable")
    )
    rows = []
    for lang, g in h.groupby("lang", sort=True):
        v = g["v"].to_numpy(np.int64)
        cnt = g["cnt"].to_numpy(np.int64)
        n = int(cnt.sum())
        k = n // 10
        cumb = np.r_[0, np.cumsum(cnt)[:-1]]
        cuma = np.cumsum(cnt[::-1])[::-1] - cnt  # count strictly above each value
        rem_lo = np.clip(k - cumb, 0, cnt)
        rem_hi = np.clip(k - cuma, 0, cnt)
        sum_mid = int((v * cnt).sum() - (v * rem_lo).sum() - (v * rem_hi).sum())
        rows.append((lang, sum_mid, n - 2 * k))
    out = pd.DataFrame(rows, columns=["lang", "sum_mid", "n_mid"])
    out["lang"] = out["lang"].astype(object)
    return out.astype({"sum_mid": "int64", "n_mid": "int64"}).reset_index(drop=True)


QUERIES["q_trimmed_mean"] = q_trimmed_mean
ORACLE_SQL["q_trimmed_mean"] = """
    WITH r AS (SELECT lang, n_chars,
                 ROW_NUMBER() OVER (PARTITION BY lang ORDER BY n_chars, doc_id) AS rn,
                 COUNT(*) OVER (PARTITION BY lang) AS n
               FROM documents)
    SELECT lang, CAST(SUM(n_chars) AS BIGINT) AS sum_mid, CAST(COUNT(*) AS BIGINT) AS n_mid
    FROM r WHERE rn > n // 10 AND rn <= n - n // 10
    GROUP BY lang ORDER BY lang
"""


def q_log_compaction(sf_dir: str) -> pd.DataFrame:
    """X93: CDC log compaction / upsert apply — reduce the per-user event
    log to its LAST operation under (ts, event_id) order, dropping keys
    whose final op is a tombstone ('error'). The argmax is the X58
    associative-packed-Max trick: rel_us << 20 | event_id is order-faithful
    (event_id < 2^20 asserted — 43+20 bits fit int64), so ONE Max aggregate
    finds each key's winner and a bucketed join + equality filter applies
    it; no window shuffle, no per-key Python."""
    ds = rd.read_parquet(
        _p(sf_dir, "events"), columns=["event_id", "ts", "user_id", "event_type", "value"]
    )

    def prep(tbl: pa.Table) -> pa.Table:
        us = pc.cast(tbl["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = tbl["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if (eid >= 1 << 20).any():
            raise ValueError("event_id exceeds the 20-bit packing budget")
        return pa.table(
            {
                "user_id": tbl["user_id"],
                "event_type": tbl["event_type"],
                "fv": pc.cast(pc.floor(tbl["value"]), pa.int64()),
                "us": pa.array(us),
                "event_id": pa.array(eid),
            }
        )

    prepped = ds.map_batches(prep, batch_format="pyarrow").materialize()
    base = int(prepped.min("us"))

    def pack(tbl: pa.Table) -> pa.Table:
        us = tbl["us"].to_numpy(zero_copy_only=False)
        eid = tbl["event_id"].to_numpy(zero_copy_only=False)
        if ((us - base) >= 1 << 43).any():  # 43+20 bits must fit int64:
            raise ValueError(  # the log span budget is ~101.8 days
                "event-log span exceeds the 43-bit packing budget (~102 days)"
            )
        packed = ((us - base) << 20) | eid
        return pa.table(
            {
                "user_id": tbl["user_id"],
                "event_type": tbl["event_type"],
                "fv": tbl["fv"],
                "packed": pa.array(packed.astype(np.int64)),
            }
        )

    packed_ds = prepped.map_batches(pack, batch_format="pyarrow").materialize()
    winners = packed_ds.groupby("user_id").aggregate(Max("packed", alias_name="win"))
    joined = jn.bucketed_hash_join(packed_ds, winners, on="user_id", how="inner").to_pandas()
    last = joined[joined["packed"] == joined["win"]]
    last = last[last["event_type"] != "error"]
    out = pd.DataFrame(
        {
            "user_id": last["user_id"].astype("int64"),
            "last_type": last["event_type"].astype(object),
            "last_fv": last["fv"].astype("int64"),
        }
    )
    return out.sort_values("user_id").reset_index(drop=True)


QUERIES["q_log_compaction"] = q_log_compaction
ORACLE_SQL["q_log_compaction"] = """
    WITH r AS (SELECT user_id, event_type, CAST(FLOOR(value) AS BIGINT) AS fv,
                 ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn
               FROM events)
    SELECT user_id, event_type AS last_type, fv AS last_fv
    FROM r WHERE rn = 1 AND event_type <> 'error' ORDER BY user_id
"""


def q_autocorr_daily(sf_dir: str) -> pd.DataFrame:
    """X94: time-series lag-1 autocorrelation of the daily event-count
    series, as exact integer moments (n·Σxy−ΣxΣy over the paired series;
    the caller divides cov_num/sqrt(var_x·var_y) if a float is wanted).
    Daily counts come from per-batch partials + one day-domain-sized
    shuffle — the day domain grows with time span, not data volume."""
    ds = rd.read_parquet(_p(sf_dir, "events"), columns=["ts"])

    def partial(tbl: pa.Table) -> pa.Table:
        day = (
            pc.cast(tbl["ts"], pa.int64()).to_numpy(zero_copy_only=False) // 86_400_000_000
        )
        u, c = np.unique(day, return_counts=True)
        return pa.table({"day": pa.array(u), "c": pa.array(c.astype(np.int64))})

    d = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()
        .sort_values("day")
    )
    day = d["day"].to_numpy(np.int64)
    c = d["c"].to_numpy(np.int64)
    nxt = dict(zip(day, c))
    x = np.array([c[i] for i in range(len(day)) if day[i] + 1 in nxt], dtype=np.int64)
    y = np.array([nxt[day[i] + 1] for i in range(len(day)) if day[i] + 1 in nxt], dtype=np.int64)
    n = len(x)
    return pd.DataFrame(
        {
            "n": [n],
            "cov_num": [int(n * (x * y).sum() - x.sum() * y.sum())],
            "var_x": [int(n * (x * x).sum() - x.sum() * x.sum())],
            "var_y": [int(n * (y * y).sum() - y.sum() * y.sum())],
        }
    ).astype("int64")


QUERIES["q_autocorr_daily"] = q_autocorr_daily
ORACLE_SQL["q_autocorr_daily"] = """
    WITH d AS (SELECT epoch_us(ts) // 86400000000 AS day, COUNT(*) AS c FROM events GROUP BY 1),
    p AS (SELECT a.c AS x, b.c AS y FROM d a JOIN d b ON b.day = a.day + 1)
    SELECT CAST(COUNT(*) AS BIGINT) AS n,
           CAST(COUNT(*) * SUM(x*y) - SUM(x) * SUM(y) AS BIGINT) AS cov_num,
           CAST(COUNT(*) * SUM(x*x) - SUM(x) * SUM(x) AS BIGINT) AS var_x,
           CAST(COUNT(*) * SUM(y*y) - SUM(y) * SUM(y) AS BIGINT) AS var_y
    FROM p
"""


def q_kanonymity_audit(sf_dir: str) -> pd.DataFrame:
    """X95: k-anonymity / l-diversity privacy audit over the
    quasi-identifier (lang, source): groups smaller than k=5 or with fewer
    than l=3 distinct sensitive values (n_chars) are re-identification
    risks. One shuffle of (QI, sensitive, cnt) partials; violators-only
    output (the X80 validation contract). Complements the X16 PII scan on
    the privacy side of the engine."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["lang", "source", "n_chars"])

    def partial(tbl: pa.Table) -> pa.Table:
        c = (
            pd.DataFrame(
                {
                    "lang": np.asarray(tbl["lang"].to_pandas(), dtype=object),
                    "source": np.asarray(tbl["source"].to_pandas(), dtype=object),
                    "v": tbl["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64),
                }
            )
            .groupby(["lang", "source", "v"], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        return pa.Table.from_pandas(c, preserve_index=False)

    h = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "source", "v"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
    )
    g = h.groupby(["lang", "source"], as_index=False).agg(
        n_rows=("cnt", "sum"), n_sensitive=("v", "size")
    )
    out = g[(g["n_rows"] < 5) | (g["n_sensitive"] < 3)].copy()
    out["lang"] = out["lang"].astype(object)
    out["source"] = out["source"].astype(object)
    out = out.astype({"n_rows": "int64", "n_sensitive": "int64"})
    return out.sort_values(["lang", "source"]).reset_index(drop=True)


QUERIES["q_kanonymity_audit"] = q_kanonymity_audit
ORACLE_SQL["q_kanonymity_audit"] = """
    WITH g AS (SELECT lang, source, COUNT(*) AS n_rows,
                      COUNT(DISTINCT n_chars) AS n_sensitive
               FROM documents GROUP BY 1, 2)
    SELECT lang, source, CAST(n_rows AS BIGINT) AS n_rows,
           CAST(n_sensitive AS BIGINT) AS n_sensitive
    FROM g WHERE n_rows < 5 OR n_sensitive < 3
    ORDER BY lang, source
"""


def q_containment_pairs(sf_dir: str) -> pd.DataFrame:
    """X96: asymmetric containment scoring (Broder's containment, the
    sub-document-dedup metric resemblance misses): candidate pairs sharing
    any word 4-gram shingle — exhaustive shared-shingle pairing through the
    one-shuffle bucket machinery, not LSH (low-Jaccard/high-containment
    pairs must not escape), bounded only by the per-shingle rank cap
    (dedup.GRAM_CAP, mirrored in the oracle's cand CTE so capped runs stay
    SQL-exact) — verified with exact shingle-set intersections
    (the shared X2/X4 kernel). A pair survives when inter*2 >= min(n_a,
    n_b): half the smaller doc's shingles are contained. All-integer
    output. 4-gram shingles (not 3) keep the exhaustive pair set
    candidate-sized: 3-gram buckets at sf0.1 already generate a
    quadratic pair blow-up (measured 258 s vs 2 s)."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def to_shingles(tbl: pa.Table) -> pa.Table:
        texts = np.asarray(tbl["text"].to_pandas(), dtype=object)
        ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
        rows, sh = dd._shingle_hashes(texts, 4)
        if len(rows):
            order = np.lexsort((sh, rows))
            rows, sh = rows[order], sh[order]
            first = np.r_[True, (rows[1:] != rows[:-1]) | (sh[1:] != sh[:-1])]
            rows, sh = rows[first], sh[first]
        return pa.table(
            {"bh": pa.array(sh.astype(np.int64)), "doc_id": pa.array(ids[rows])}
        )

    grams = ds.map_batches(to_shingles, batch_format="pyarrow")
    pairs = dd._bucket_pairs_distributed(grams, ["bh"], "doc_id")
    empty = pd.DataFrame(
        {
            "id_a": pd.Series(dtype="int64"),
            "id_b": pd.Series(dtype="int64"),
            "inter": pd.Series(dtype="int64"),
            "n_a": pd.Series(dtype="int64"),
            "n_b": pd.Series(dtype="int64"),
        }
    )
    if not len(pairs):
        return empty
    ids = np.unique(np.r_[pairs["id_a"].to_numpy(), pairs["id_b"].to_numpy()])
    texts = dd.gather_texts(ds, "doc_id", "text", ids)
    id_to_text = dict(zip(texts["doc_id"], texts["text"]))
    inter, n_a, n_b = dd._pair_shingle_intersections(pairs, id_to_text, 4)
    out = pd.DataFrame(
        {
            "id_a": pairs["id_a"].to_numpy(np.int64),
            "id_b": pairs["id_b"].to_numpy(np.int64),
            "inter": inter,
            "n_a": n_a,
            "n_b": n_b,
        }
    )
    out = out[2 * out["inter"] >= np.minimum(out["n_a"], out["n_b"])]
    if not len(out):
        return empty
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


QUERIES["q_containment_pairs"] = q_containment_pairs
ORACLE_SQL["q_containment_pairs"] = f"""
    WITH d AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS ws FROM documents
               WHERE text IS NOT NULL AND len(regexp_extract_all(text, '\\S+')) >= 4),
    g AS (SELECT doc_id,
                 unnest([array_to_string(ws[i:i+3], ' ') FOR i IN generate_series(1, len(ws) - 3)]) AS gram
          FROM d),
    gd AS (SELECT DISTINCT doc_id, gram FROM g),
    sz AS (SELECT doc_id, COUNT(*) AS n FROM gd GROUP BY doc_id),
    -- candidate ADMISSION mirrors the engine's per-shingle rank cap
    -- (dedup.GRAM_CAP); the intersection count below stays exact over the
    -- FULL shingle sets, exactly as the engine re-verifies from the texts
    gr AS (SELECT doc_id, gram,
                  ROW_NUMBER() OVER (PARTITION BY gram ORDER BY doc_id) AS rn FROM gd),
    cand AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b
             FROM gr a JOIN gr b USING (gram)
             WHERE a.doc_id < b.doc_id AND a.rn <= {dd.GRAM_CAP} AND b.rn <= {dd.GRAM_CAP}
             GROUP BY 1, 2),
    inter AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS i
              FROM gd a JOIN gd b USING (gram)
              JOIN cand ON cand.id_a = a.doc_id AND cand.id_b = b.doc_id
              WHERE a.doc_id < b.doc_id GROUP BY 1, 2)
    SELECT id_a, id_b, CAST(i AS BIGINT) AS inter,
           CAST(sa.n AS BIGINT) AS n_a, CAST(sb.n AS BIGINT) AS n_b
    FROM inter JOIN sz sa ON sa.doc_id = id_a JOIN sz sb ON sb.doc_id = id_b
    WHERE 2 * i >= LEAST(sa.n, sb.n)
    ORDER BY id_a, id_b
"""


def q_fanout_profile(sf_dir: str) -> pd.DataFrame:
    """X97: referential fan-out profile — the 1:N cardinality histogram of
    orders-per-customer, INCLUDING the zero bucket (dimension-complete, the
    LEFT JOIN semantics a referential validator needs to spot dangling
    dimension rows). One fact-side Count aggregate, then a bucketed
    SEMI-join of the key-domain-sized counts against the customer keys —
    a dangling o_custkey (fact key with no dimension row) is EXCLUDED, as
    the oracle's LEFT JOIN from customer is (edge-tested with a planted
    dangling key); per-batch bincount partials over the count column, and
    the zero bucket from two scalar counts — the fact table itself is
    never joined or collected."""
    orders = rd.read_parquet(_p(sf_dir, "orders"), columns=["o_custkey"])
    cust = rd.read_parquet(_p(sf_dir, "customer"), columns=["c_custkey"])
    per_cust = orders.groupby("o_custkey").aggregate(Count(alias_name="n_orders"))
    cust_keys = cust.map_batches(
        lambda b: pd.DataFrame({"o_custkey": b["c_custkey"]}), batch_format="pandas"
    )
    matched = jn.bucketed_hash_join(per_cust, cust_keys, on="o_custkey", how="inner")
    n_total = cust.count()

    def partial(tbl: pa.Table) -> pa.Table:
        if "n_orders" not in tbl.column_names or not len(tbl):
            return pa.table(
                {"n_orders": pa.array([], pa.int64()), "n_customers": pa.array([], pa.int64())}
            )
        c = tbl["n_orders"].to_numpy(zero_copy_only=False).astype(np.int64)
        u, cnt = np.unique(c, return_counts=True)
        return pa.table(
            {"n_orders": pa.array(u), "n_customers": pa.array(cnt.astype(np.int64))}
        )

    parts = matched.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = parts.groupby("n_orders", as_index=False)["n_customers"].sum()
    n_with = int(out["n_customers"].sum()) if len(out) else 0
    zeros = int(n_total - n_with)
    if zeros > 0:
        out = pd.concat(
            [pd.DataFrame({"n_orders": [0], "n_customers": [zeros]}), out],
            ignore_index=True,
        )
    out = out.astype({"n_orders": "int64", "n_customers": "int64"})
    return out.sort_values("n_orders").reset_index(drop=True)


QUERIES["q_fanout_profile"] = q_fanout_profile
ORACLE_SQL["q_fanout_profile"] = """
    WITH f AS (SELECT c.c_custkey, COUNT(o.o_orderkey) AS n_orders
               FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
               GROUP BY c.c_custkey)
    SELECT CAST(n_orders AS BIGINT) AS n_orders, CAST(COUNT(*) AS BIGINT) AS n_customers
    FROM f GROUP BY 1 ORDER BY 1
"""


def q_bfs_levels(sf_dir: str) -> pd.DataFrame:
    """X98: bounded BFS reachability — shortest-path hop levels (<= 4) from
    the smallest edge-bearing doc over the candidate near-dup graph;
    completes the graph family (CC/PageRank/HITS/triangles/degree) with a
    path-distance primitive. Vectorized frontier rounds over the sorted
    adjacency (cluster.bfs_levels); the SQL replay is a bounded recursive
    CTE with MIN(level) per node."""
    from ..stages import cluster as cl

    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    edges = dd.gram_edges(ds, "text", "doc_id", n=4)
    if not len(edges):
        return pd.DataFrame(
            {"doc_id": pd.Series(dtype="int64"), "level": pd.Series(dtype="int64")}
        )
    seed = int(edges["id_a"].min())
    out = cl.bfs(edges, seed, max_level=4).to_pandas()
    return (
        out.sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "level": "int64"})
    )


QUERIES["q_bfs_levels"] = q_bfs_levels
ORACLE_SQL["q_bfs_levels"] = f"""
    WITH RECURSIVE d AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
    g AS (SELECT DISTINCT doc_id,
                 unnest([array_to_string(ws[i:i+3], ' ') FOR i IN generate_series(1, len(ws) - 3)]) AS gram
          FROM d),
    gc AS (SELECT doc_id, gram,
                  ROW_NUMBER() OVER (PARTITION BY gram ORDER BY doc_id) AS rn FROM g),
    e AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b
          FROM gc a JOIN gc b USING (gram)
          WHERE a.doc_id < b.doc_id AND a.rn <= {dd.GRAM_CAP} AND b.rn <= {dd.GRAM_CAP} GROUP BY 1, 2),
    sym AS (SELECT id_a AS u, id_b AS v FROM e UNION ALL SELECT id_b, id_a FROM e),
    seed AS (SELECT MIN(id_a) AS s FROM e),
    walk(node, lvl) AS (
        SELECT s, 0 FROM seed WHERE s IS NOT NULL
        UNION
        SELECT sym.v, walk.lvl + 1 FROM walk JOIN sym ON sym.u = walk.node WHERE walk.lvl < 4
    )
    SELECT node AS doc_id, CAST(MIN(lvl) AS BIGINT) AS level
    FROM walk GROUP BY node ORDER BY doc_id
"""


def q_assortativity(sf_dir: str) -> pd.DataFrame:
    """X99: degree assortativity moments — the degree-degree Pearson
    correlation over edge endpoints (symmetrized, so var_x == var_y and the
    coefficient is cov_num/var_x), kept as exact integer moments like
    X46/X94. Degrees and per-edge gathers are three bincount/indexing passes
    over the candidate edge list."""
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    edges = dd.gram_edges(ds, "text", "doc_id", n=4)
    if not len(edges):
        return pd.DataFrame(
            {"n": pd.Series(dtype="int64"), "cov_num": pd.Series(dtype="int64"),
             "var_x": pd.Series(dtype="int64")}
        )
    a = edges["id_a"].to_numpy(np.int64)
    b = edges["id_b"].to_numpy(np.int64)
    nodes, deg = np.unique(np.r_[a, b], return_counts=True)
    dx = deg[np.searchsorted(nodes, a)].astype(np.int64)
    dy = deg[np.searchsorted(nodes, b)].astype(np.int64)
    x = np.r_[dx, dy]
    y = np.r_[dy, dx]
    n = len(x)
    return pd.DataFrame(
        {
            "n": [n],
            "cov_num": [int(n * (x * y).sum() - x.sum() * y.sum())],
            "var_x": [int(n * (x * x).sum() - x.sum() * x.sum())],
        }
    ).astype("int64")


QUERIES["q_assortativity"] = q_assortativity
ORACLE_SQL["q_assortativity"] = (
    _GRAM_EDGE_CTE
    + """
    , deg AS (SELECT node, COUNT(*) AS dg FROM
              (SELECT id_a AS node FROM e UNION ALL SELECT id_b FROM e) GROUP BY node),
    p AS (SELECT da.dg AS x, db.dg AS y FROM e
          JOIN deg da ON da.node = e.id_a JOIN deg db ON db.node = e.id_b),
    sym AS (SELECT x, y FROM p UNION ALL SELECT y, x FROM p)
    SELECT CAST(COUNT(*) AS BIGINT) AS n,
           CAST(COUNT(*) * SUM(x*y) - SUM(x) * SUM(y) AS BIGINT) AS cov_num,
           CAST(COUNT(*) * SUM(x*x) - SUM(x) * SUM(x) AS BIGINT) AS var_x
    FROM sym HAVING COUNT(*) > 0
"""
)


def q_dedup_report(sf_dir: str) -> pd.DataFrame:
    """X100: end-to-end dedup impact report — the management summary a
    curation run publishes: per source, how many docs, how many are
    non-canonical duplicates (cluster members that lose the min-doc_id
    survivorship), and how many survive. Composes the X22 pipeline
    (candidates -> connected components -> canonical flag) with a bucketed
    join back to the source dimension and per-batch rollup partials; the
    oracle replays the whole chain (recursive-CTE closure + rollup)."""
    from ..stages import cluster as cl

    docs = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text", "source"])
    edges = dd.gram_edges(docs.select_columns(["doc_id", "text"]), "text", "doc_id", n=4)
    labels = cl.connected_components(edges, nodes=docs.select_columns(["doc_id"]))
    lab = labels.map_batches(
        lambda b: pd.DataFrame({"doc_id": b["node"], "cluster_id": b["cluster_id"]}),
        batch_format="pandas",
    )
    j = jn.bucketed_hash_join(
        lab, docs.select_columns(["doc_id", "source"]), on="doc_id", how="inner"
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        dup = (df["doc_id"].to_numpy(np.int64) != df["cluster_id"].to_numpy(np.int64)).astype(
            np.int64
        )
        g = (
            df.assign(dup=dup)
            .groupby("source", sort=False)
            .agg(n_docs=("doc_id", "size"), n_dup_docs=("dup", "sum"))
        )
        return g.reset_index()

    parts = j.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("source", as_index=False).agg(
        n_docs=("n_docs", "sum"), n_dup_docs=("n_dup_docs", "sum")
    )
    out["n_survivors"] = out["n_docs"] - out["n_dup_docs"]
    out["source"] = out["source"].astype(object)
    out = out.astype({"n_docs": "int64", "n_dup_docs": "int64", "n_survivors": "int64"})
    return out.sort_values("source").reset_index(drop=True)


QUERIES["q_dedup_report"] = q_dedup_report
ORACLE_SQL["q_dedup_report"] = f"""
    WITH RECURSIVE
    d AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
    g AS (SELECT DISTINCT doc_id,
                 unnest([array_to_string(ws[i:i+3], ' ') FOR i IN generate_series(1, len(ws) - 3)]) AS gram
          FROM d),
    gc AS (SELECT doc_id, gram,
                  ROW_NUMBER() OVER (PARTITION BY gram ORDER BY doc_id) AS rn FROM g),
    e AS (SELECT a.doc_id AS u, b.doc_id AS v
          FROM gc a JOIN gc b USING (gram)
          WHERE a.doc_id <> b.doc_id AND a.rn <= {dd.GRAM_CAP} AND b.rn <= {dd.GRAM_CAP} GROUP BY 1, 2),
    reach AS (
        SELECT doc_id AS node, doc_id AS label FROM documents
        UNION
        SELECT e.v AS node, reach.label AS label
        FROM reach JOIN e ON e.u = reach.node WHERE reach.label < e.v
    ),
    lab AS (SELECT node, MIN(label) AS cluster_id FROM reach GROUP BY node)
    SELECT doc.source,
           CAST(COUNT(*) AS BIGINT) AS n_docs,
           CAST(SUM(CAST(lab.node <> lab.cluster_id AS BIGINT)) AS BIGINT) AS n_dup_docs,
           CAST(COUNT(*) - SUM(CAST(lab.node <> lab.cluster_id AS BIGINT)) AS BIGINT) AS n_survivors
    FROM lab JOIN documents doc ON doc.doc_id = lab.node
    GROUP BY doc.source ORDER BY doc.source
"""


def q_join_cardinality(sf_dir: str) -> pd.DataFrame:
    """X101: sketch-based join-size estimation — the query-optimizer
    statistics primitive: |orders JOIN customer| estimated by the Count-Min
    INNER PRODUCT (min over rows of the two sides' table dot products,
    Cormode & Muthukrishnan 2005 §4.2: >= exact STRUCTURALLY — every
    colliding cell only adds non-negative cross terms — and overcounts by
    <= (e/w)·Na·Nb per row in expectation). Per-batch partial sketches per
    side (KBs); the exact size comes from per-key Count aggregates joined
    key-domain-sized — the join itself is never materialized anywhere.

    Certificate oracle (X63 pattern) pins only the UNCONDITIONAL facts:
    the exact COUNT and est >= exact (structural). The (e/w)*Na*Nb
    overcount bound is a Markov/expectation bound (per-row failure prob up
    to 1/e, ~e^-4 after the min over d=4 rows), NOT deterministic — so it
    is asserted empirically on the fixed testdata in tests
    (tests/test_advice_edges.py) rather than pinned in the oracle, where a
    legal key distribution could fail a correct engine."""
    est, exact, _bound = _join_cardinality_raw(sf_dir)
    return pd.DataFrame(
        {
            "exact_n": [exact],
            "est_ge_exact": [int(est >= exact)],
        }
    ).astype("int64")


def _join_cardinality_raw(sf_dir: str) -> tuple[int, int, int]:
    """(estimate, exact, ceil((e/w)*Na*Nb) bound) for |orders JOIN customer|."""
    d, w = 4, 8192
    orders = rd.read_parquet(_p(sf_dir, "orders"), columns=["o_custkey"])
    cust = rd.read_parquet(_p(sf_dir, "customer"), columns=["c_custkey"])

    def sketch_col(col: str):
        def sk(tbl: pa.Table) -> pa.Table:
            c = CountMinSketch(d=d, w=w)
            c.update_ints(tbl[col].to_numpy(zero_copy_only=False))
            return pa.table({"blob": pa.array([c.to_bytes()], pa.binary())})

        return sk

    def merged(ds, col: str) -> CountMinSketch:
        out = CountMinSketch(d=d, w=w)
        for b in ds.map_batches(sketch_col(col), batch_format="pyarrow").to_pandas()["blob"]:
            out.merge(CountMinSketch.from_bytes(b))
        return out

    so = merged(orders, "o_custkey")
    sc = merged(cust, "c_custkey")
    est = min(int(so.table[r] @ sc.table[r]) for r in range(d))
    na = int(so.table[0].sum())
    nb = int(sc.table[0].sum())
    co = orders.groupby("o_custkey").aggregate(Count(alias_name="n_o"))
    cc = cust.groupby("c_custkey").aggregate(Count(alias_name="n_c"))
    cc = cc.map_batches(
        lambda b: pd.DataFrame({"o_custkey": b["c_custkey"], "n_c": b["n_c"]}),
        batch_format="pandas",
    )
    j = jn.bucketed_hash_join(co, cc, on="o_custkey", how="inner").to_pandas()
    exact = int((j["n_o"].to_numpy(np.int64) * j["n_c"].to_numpy(np.int64)).sum())
    bound = int(np.ceil(np.e / w * na * nb))
    return est, exact, bound


QUERIES["q_join_cardinality"] = q_join_cardinality
ORACLE_SQL["q_join_cardinality"] = """
    SELECT CAST(COUNT(*) AS BIGINT) AS exact_n,
           CAST(1 AS BIGINT) AS est_ge_exact
    FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
"""


def _roundtrip_fingerprint(ds) -> pd.DataFrame:
    """Order-independent content checksum of a (doc_id, text) Dataset —
    the X79 combiners, reused to certify alternate-format ingestion.

    The text column is cast to string first: a CSV/JSONL shard written from
    an all-null (hence filtered-to-empty) block is header-only and reads
    back with a NULL-typed text column, which the string kernels reject."""

    def partial(tbl: pa.Table) -> pa.Table:
        if not pa.types.is_string(tbl.schema.field("text").type):
            tbl = tbl.set_column(
                tbl.schema.get_field_index("text"),
                "text",
                pc.cast(tbl["text"], pa.string()),
            )
        tbl = tbl.filter(pc.is_valid(tbl["text"]))
        fp = ta.fingerprint64(tbl)["fingerprint"].to_numpy(zero_copy_only=False)
        u = fp.astype(np.int64).view(np.uint64)
        with np.errstate(over="ignore"):
            s = np.uint64(u.sum(dtype=np.uint64)) if len(u) else np.uint64(0)
        x = np.bitwise_xor.reduce(u) if len(u) else np.uint64(0)
        return pa.table(
            {
                "n": pa.array([len(u)], pa.int64()),
                "s": pa.array([np.int64(s)], pa.int64()),
                "x": pa.array([np.int64(x)], pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    n_rows = int(parts["n"].sum()) if len(parts) else 0
    if n_rows == 0:  # all-null-text table: the oracle's base CTE is empty
        return pd.DataFrame(  # and yields ZERO rows (q_table_fingerprint branch)
            {
                "n_rows": pd.Series(dtype="int64"),
                "sum_fp": pd.Series(dtype="int64"),
                "xor_fp": pd.Series(dtype="int64"),
            }
        )
    su = parts["s"].to_numpy(np.int64).view(np.uint64)
    xu = parts["x"].to_numpy(np.int64).view(np.uint64)
    with np.errstate(over="ignore"):
        total_s = np.uint64(su.sum(dtype=np.uint64))
    total_x = np.bitwise_xor.reduce(xu)
    return pd.DataFrame(
        {
            "n_rows": [np.int64(n_rows)],
            "sum_fp": [np.int64(total_s)],
            "xor_fp": [np.int64(total_x)],
        }
    ).astype("int64")


def q_csv_roundtrip(sf_dir: str) -> pd.DataFrame:
    """X102: CSV source format, certified — exports documents(doc_id, text)
    to CSV (per input block, so the export is partitioned like every sink
    here), re-ingests it with ``ray.data.read_csv``, and proves content
    equality by matching the X79 order-independent fingerprint of the
    ROUND-TRIPPED data against the oracle's fingerprint of the PARQUET
    originals — a full ingest-path certificate, not a row count.

    NULL vs '' is made lossless by quoting discipline: the writer quotes
    every VALID string (``quoting_style="all_valid"``) so NULL is the only
    bare empty field, and the reader maps only UNQUOTED empties back to
    NULL (``strings_can_be_null=True, quoted_strings_can_be_null=False``) —
    so null-text and empty-text docs both survive the trip (edge-tested
    with both planted, tests/test_advice_edges.py)."""
    base = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(_OUT_ROOT, f"csv_rt_{base}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out, exist_ok=True)
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def _wargs():  # WriteOptions isn't picklable; build it on the worker
        import pyarrow.csv as pacsv

        return {"write_options": pacsv.WriteOptions(quoting_style="all_valid")}

    ds.write_csv(out, arrow_csv_args_fn=_wargs)
    import pyarrow.csv as pacsv

    back = rd.read_csv(
        out,
        convert_options=pacsv.ConvertOptions(
            strings_can_be_null=True, quoted_strings_can_be_null=False
        ),
    )
    return _roundtrip_fingerprint(back)


QUERIES["q_csv_roundtrip"] = q_csv_roundtrip


def q_jsonl_roundtrip(sf_dir: str) -> pd.DataFrame:
    """X103: JSONL source format, certified — same ingest-path certificate
    as X102 through ``write_json``/``read_json`` (the reference's native
    record format, sources/transcripts.py S2)."""
    base = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(_OUT_ROOT, f"jsonl_rt_{base}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out, exist_ok=True)
    ds = rd.read_parquet(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    ds.write_json(out)
    back = rd.read_json(out)
    return _roundtrip_fingerprint(back)


QUERIES["q_jsonl_roundtrip"] = q_jsonl_roundtrip
ORACLE_SQL["q_csv_roundtrip"] = ORACLE_SQL["q_table_fingerprint"]
ORACLE_SQL["q_jsonl_roundtrip"] = ORACLE_SQL["q_table_fingerprint"]

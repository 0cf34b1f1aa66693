"""The short-circuit per-row validation chain, vectorized over Arrow batches.

Columnar recast of ``Processor._process_message`` (reference
``processor.py:97-145``) — the ordered predicate chain P1→P12 whose exact
short-circuit semantics the reference test-suite asserts field-by-field
(``tests/test_processor.py:108-246,410-475``):

  P1  text presence        processor.py:98-100   → text_missing
  P2  conv presence        processor.py:102-104  → conv_id_missing
  P3  trailing-link strip  processor.py:106      (normalize BEFORE length)
  P4  min length           processor.py:107-109  → text_too_short
  P5  stop words           processor.py:90-95    → stop_word (+ which word)
  P6  engagement rate      processor.py:116-119  → low_engagement
      (last row of the partition's conversation batch is exempt — the
       reference exempts the last message of each fetched batch,
       processor.py:76-77; recast: max turn_idx per conv within the
       partition, computed batch-locally — no shuffle)
  P7  credits gate         processor.py:121-122  (cfg.scoring_enabled=False →
       rows pass with every scoring column null)
  P8  score threshold      processor.py:124-127  → low_score
  P9  alt rewrite          processor.py:131
  P10 alt-score threshold  processor.py:132-135  → low_score_alt
  P11 embedding proxy      processor.py:137      (token_count)
  P12 broadcast max-cosine processor.py:138-143  (similarity_score)

The whole chain is evaluated as vectorized predicate columns + a precedence
mask (compute-all-then-mask is cheap because every predicate is columnar);
derived columns are nulled past each row's first failure, reproducing the
reference's null-state machine (SURVEY.md §1.1). The expensive stages (P8+)
are only computed on surviving rows.

Additionally emits ``metrics_missing`` violations (the EP3 updatability
predicate, processor.py:147-157: views/reactions absent or zero) — an
independent check that does NOT stop the chain; rows with incomplete metrics
are exempt from the ER predicate (the reference never ER-checks a row it
cannot compute ER for).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..config import ValidationConfig
from ..functions import textfuncs as tf
from ..functions.hashing import hash_strings
from ..schema import METRIC_COLUMNS


def conv_max_turn(tbl: pa.Table) -> pa.Table:
    """Per-conversation max turn of a ``(conv_id, turn_idx)`` table as an
    Arrow ``(conv_id, turn_idx)`` table: one hash aggregate, null ids
    dropped, the max taken over non-null turns (null when a conversation has
    none)."""
    keyed = tbl.select(["conv_id", "turn_idx"]).filter(pc.is_valid(tbl["conv_id"]))
    g = keyed.group_by("conv_id").aggregate([("turn_idx", "max")])
    return pa.table({"conv_id": g["conv_id"], "turn_idx": g["turn_idx_max"]})


def build_conv_last(tbl: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """Per-conversation max turn of a ``(conv_id, turn_idx)`` table
    (:func:`conv_max_turn`) as (sorted uint64 conv-hash array, max-turn
    array) — the file-local last-turn-exemption map. A sorted-array pair
    costs ~12 bytes/conversation vs ~100+ for the equivalent Python dict
    (several-million-conv files were the validator's heaviest transient).
    Colliding hashes (≈2^-64 per pair, file-local blast radius) keep the max
    of the union — same direction as the dict's key-union semantics."""
    g = conv_max_turn(tbl)
    kh = hash_strings(g["conv_id"].to_numpy())
    mx = g["turn_idx"].to_numpy()
    order = np.argsort(kh)
    kh, mx = kh[order], mx[order]
    if len(kh) > 1:  # fold hash duplicates to the max turn of the collision set
        starts = np.flatnonzero(np.r_[True, kh[1:] != kh[:-1]])
        kh = kh[starts]
        mx = np.maximum.reduceat(mx, starts)
    return kh, mx


def lookup_conv_last(conv_last: tuple[np.ndarray, np.ndarray], conv_values) -> np.ndarray:
    """Vectorized max-turn lookup (binary search on uint64); misses → NaN."""
    keys, maxes = conv_last
    out = np.full(len(conv_values), np.nan)
    if len(keys) == 0 or len(out) == 0:
        return out
    ch = hash_strings(np.asarray(conv_values, dtype=object))
    pos = np.clip(np.searchsorted(keys, ch), 0, len(keys) - 1)
    hit = keys[pos] == ch
    out[hit] = maxes[pos[hit]].astype(np.float64)
    return out


def _mask_where(values: pa.Array, keep: np.ndarray) -> pa.Array:
    """Null out entries where ``keep`` is False."""
    return pc.if_else(pa.array(keep), values, pa.scalar(None, values.type))


def _absent(values) -> np.ndarray:
    """Null or empty string, as a bool mask (the P1/P2 presence failures)."""
    m = pc.or_kleene(pc.is_null(values), pc.equal(values, "")).to_numpy(zero_copy_only=False)
    return np.asarray(m, dtype=object) == True  # noqa: E712  (null→False)


#: the columns :func:`evaluate_chain` appends to its input, in order
CHAIN_SCHEMA = pa.schema(
    [
        ("text_norm", pa.string()),
        ("er", pa.float64()),
        ("score", pa.float64()),
        ("alt", pa.string()),
        ("score_alt", pa.float64()),
        ("token_count", pa.float64()),
        ("similarity_score", pa.float64()),
        ("first_failing_check", pa.string()),
        ("stop_word_hit", pa.string()),
    ]
)


def evaluate_chain(
    tbl: pa.Table,
    cfg: ValidationConfig,
    exemplars: np.ndarray | None = None,
    conv_last: tuple[np.ndarray, np.ndarray] | None = None,
) -> pa.Table:
    """Annotate a batch with chain columns; returns the input columns plus
    text_norm, er, score, alt, score_alt, token_count, similarity_score,
    first_failing_check. Violations are derived separately
    (:func:`chain_violations`)."""
    n = tbl.num_rows
    if n == 0:
        return _empty_annotated(tbl)

    text = tbl["text"].combine_chunks() if isinstance(tbl["text"], pa.ChunkedArray) else tbl["text"]
    conv = tbl["conv_id"]

    # P1 text presence
    f_text = _absent(text)
    # P2 conv presence
    f_conv = _absent(conv)

    reached_norm = ~f_text & ~f_conv

    # P3 normalize (only meaningful for rows that reached it)
    text_norm = tf.normalize_trailing_links(text)
    if isinstance(text_norm, pa.ChunkedArray):
        text_norm = text_norm.combine_chunks()
    # P4 min length (on normalized text — reference order processor.py:106-109)
    tlen = pc.utf8_length(text_norm).to_numpy(zero_copy_only=False)
    tlen = np.where(pd.isna(tlen), 0, tlen).astype(np.int64)
    f_short = reached_norm & (tlen < cfg.min_len)

    # P5 stop words, first matching pattern recorded (reference logs the word,
    # processor.py:93)
    reached_stop = reached_norm & ~f_short
    f_stop = np.zeros(n, dtype=bool)
    stop_hit = np.full(n, None, dtype=object)
    for pat in cfg.stop_words:
        m = pc.match_substring_regex(text_norm, pat).to_numpy(zero_copy_only=False)
        m = np.asarray(m, dtype=object) == True  # noqa: E712
        newly = reached_stop & m & ~f_stop
        stop_hit[newly] = pat
        f_stop |= newly

    # P6 engagement rate — requires the metric columns; exempt when absent,
    # when any metric is null (metrics_missing instead), or when the row is
    # the partition-local last turn of its conversation.
    reached_er = reached_stop & ~f_stop
    f_er = np.zeros(n, dtype=bool)
    er = np.full(n, np.nan)
    has_metrics = all(c in tbl.column_names for c in METRIC_COLUMNS)
    if has_metrics:
        views = tbl["views"].to_numpy(zero_copy_only=False).astype(np.float64)
        reac = tbl["reactions"].to_numpy(zero_copy_only=False).astype(np.float64)
        fwd = tbl["forwards"].to_numpy(zero_copy_only=False).astype(np.float64)
        complete = ~(np.isnan(views) | np.isnan(reac) | np.isnan(fwd))
        with np.errstate(invalid="ignore", divide="ignore"):
            er_all = np.where(views > 0, (reac + fwd) / np.maximum(views, 1), 0.0)
        er = np.where(complete, er_all, np.nan)
        # last-turn exemption (reference processor.py:76-77,116-119): the
        # "fetched batch" scope is the partition FILE; callers streaming a
        # file in row groups pass conv_last (per-conv max over the whole
        # file) so the exemption stays file-local regardless of chunking
        conv_pd = pd.Series(np.asarray(conv.to_pandas(), dtype=object))
        turn = tbl["turn_idx"].to_numpy(zero_copy_only=False)
        if conv_last is not None:
            conv_max = lookup_conv_last(conv_last, conv_pd.to_numpy())
        else:
            conv_max = pd.Series(turn).groupby(conv_pd.to_numpy()).transform("max").to_numpy()
        is_last = turn == conv_max
        f_er = (
            reached_er
            & complete
            & (er_all < cfg.min_er)
            & (views > cfg.min_views)
            & ~is_last
        )

    survived_cheap = reached_er & ~f_er

    # P7 credits gate: scoring disabled → survivors pass with null score cols
    f_score = np.zeros(n, dtype=bool)
    f_alt = np.zeros(n, dtype=bool)
    score = np.full(n, np.nan)
    score_alt = np.full(n, np.nan)
    tokens = np.full(n, np.nan)
    sim = np.full(n, np.nan)
    alt_arr = pa.nulls(n, pa.string())
    if cfg.scoring_enabled and survived_cheap.any():
        # the scorer seam (services/interfaces.py ABC analog): resolved from
        # the config's spec string, constructed once per process
        from ..functions.scoring import get_scorer

        scorer = get_scorer(getattr(cfg, "scorer", "builtin"))
        # P8: score only surviving rows (expensive stages stay sparse)
        idx = np.flatnonzero(survived_cheap)
        sub_norm = text_norm.take(pa.array(idx))
        s = np.asarray(scorer.score(sub_norm), dtype=np.float64)
        score[idx] = s
        f_score[idx] = s <= cfg.min_score  # reference: score<=min → skip (processor.py:126)
        ok1 = idx[~(s <= cfg.min_score)]
        if len(ok1):
            # P9 alt rewrite + P10 alt score — ONE tokenization pass feeds the
            # alt score, the token count, and the hashed-BoW similarity
            sub_alt = scorer.rewrite(text_norm.take(pa.array(ok1)))
            if isinstance(sub_alt, pa.ChunkedArray):
                sub_alt = sub_alt.combine_chunks()
            tok = tf.tokenize(sub_alt)
            sa = np.asarray(
                scorer.score_alt(tok if getattr(scorer, "consumes_token_batch", False) else sub_alt),
                dtype=np.float64,
            )
            score_alt[ok1] = sa
            f_alt[ok1] = sa <= cfg.min_score_alt
            ok2_mask = ~(sa <= cfg.min_score_alt)
            # materialize alt column (null except rows that reached P9)
            alt_np = np.full(n, None, dtype=object)
            alt_np[ok1] = np.asarray(sub_alt.to_pandas(), dtype=object)
            alt_arr = pa.array(alt_np, pa.string())
            if ok2_mask.any():
                # P11 embedding proxy + P12 broadcast max-cosine
                pos2 = np.flatnonzero(ok2_mask)
                tc_all = tf.token_count(tok)
                bow_all = tf.hashed_bow(tok)
                tokens[ok1[pos2]] = tc_all[pos2]
                sim[ok1[pos2]] = tf.max_cosine(bow_all[pos2], exemplars)

    # precedence-resolved first failing check
    first_fail = np.full(n, None, dtype=object)
    for mask, name in (
        (f_alt, "low_score_alt"),
        (f_score, "low_score"),
        (f_er, "low_engagement"),
        (f_stop, "stop_word"),
        (f_short, "text_too_short"),
        (f_conv & ~f_text, "conv_id_missing"),
        (f_text, "text_missing"),
    ):
        first_fail[mask] = name

    # null-past-failure-point profile for derived columns
    def fnum(vals, keep, typ=pa.float64()):
        out = np.asarray(vals, dtype=np.float64)
        m = keep & ~np.isnan(out)
        return pa.array(np.where(m, out, np.nan), typ, from_pandas=True)

    reached_score = survived_cheap & np.array([cfg.scoring_enabled]).repeat(n)
    cols = {
        "text_norm": _mask_where(text_norm, reached_norm),
        "er": pa.array(np.where(reached_er, er, np.nan), pa.float64(), from_pandas=True),
        "score": fnum(score, reached_score),
        "alt": alt_arr,
        "score_alt": fnum(score_alt, reached_score & ~f_score),
        "token_count": fnum(tokens, reached_score & ~f_score & ~f_alt),
        "similarity_score": fnum(sim, reached_score & ~f_score & ~f_alt),
        "first_failing_check": pa.array(first_fail, pa.string()),
    }
    # detail for stop word (pattern that matched)
    cols["stop_word_hit"] = pa.array(stop_hit, pa.string())
    out = tbl
    for name, arr in cols.items():
        out = out.append_column(name, arr)
    return out


def _empty_annotated(tbl: pa.Table) -> pa.Table:
    out = tbl
    for field in CHAIN_SCHEMA:
        out = out.append_column(field, pa.nulls(0, field.type))
    return out


def with_text_columns(tbl: pa.Table, chain: pa.Table) -> pa.Table:
    """:func:`evaluate_chain`'s output for ``tbl``, rebuilt from its chain
    columns without ``text_norm`` (and without ``alt`` when the builtin
    scorer made it). Row *i* of ``chain`` belongs to row *i* of ``tbl``.

    Both are deterministic rewrites of the text. ``text_norm`` is the
    normalized text of every row that reached P3. The builtin ``alt`` is
    ``textfuncs.rewrite_alt`` of the normalized text of every row that P10
    scored, the rows with a valid ``score_alt``. A stored ``alt`` column is
    used as it is."""
    n = tbl.num_rows
    text = tbl["text"].combine_chunks()
    norm = tf.normalize_trailing_links(text)
    cols = {"text_norm": _mask_where(norm, ~_absent(text) & ~_absent(tbl["conv_id"]))}
    if "alt" not in chain.column_names:
        idx = np.flatnonzero(pc.is_valid(chain["score_alt"]).to_numpy(zero_copy_only=False))
        alt = np.full(n, None, dtype=object)
        if len(idx):
            alt[idx] = tf.rewrite_alt(norm.take(pa.array(idx))).to_numpy(zero_copy_only=False)
        cols["alt"] = pa.array(alt, pa.string())
    out = tbl
    for field in CHAIN_SCHEMA:
        out = out.append_column(field.name, cols[field.name] if field.name in cols else chain[field.name])
    return out


def metrics_missing(tbl: pa.Table) -> np.ndarray:
    """The metrics_missing predicate over ``tbl``'s ``views`` and
    ``reactions``, as a bool mask (the EP3 updatability predicate,
    processor.py:147-157: updatable only when views AND reactions are truthy
    — 0/None both fail)."""
    views = tbl["views"].to_numpy(zero_copy_only=False).astype(np.float64)
    reac = tbl["reactions"].to_numpy(zero_copy_only=False).astype(np.float64)
    return np.isnan(views) | (views == 0) | np.isnan(reac) | (reac == 0)


def chain_violations(annotated: pa.Table) -> pa.Table:
    """Violation rows from an annotated batch: chain failures, then the
    independent :func:`metrics_missing` check. The batch needs the row key,
    ``first_failing_check`` and ``stop_word_hit``, and the metric columns
    for the second check."""
    conv = np.asarray(annotated["conv_id"].to_pandas(), dtype=object)
    turn = annotated["turn_idx"].to_numpy(zero_copy_only=False)
    turn = np.where(pd.isna(turn), -1, turn).astype(np.int32)
    ff = np.asarray(annotated["first_failing_check"].to_pandas(), dtype=object)
    hit = np.asarray(annotated["stop_word_hit"].to_pandas(), dtype=object)

    rows_c, rows_t, rows_k, rows_d = [], [], [], []
    failed = pd.notna(ff)
    if failed.any():
        idx = np.flatnonzero(failed)
        rows_c.append(conv[idx])
        rows_t.append(turn[idx])
        rows_k.append(ff[idx])
        det = np.where(pd.notna(hit[idx]), hit[idx], None)
        rows_d.append(det)

    has_metrics = all(c in annotated.column_names for c in METRIC_COLUMNS)
    if has_metrics:
        bad = metrics_missing(annotated)
        if bad.any():
            idx = np.flatnonzero(bad)
            rows_c.append(conv[idx])
            rows_t.append(turn[idx])
            rows_k.append(np.full(len(idx), "metrics_missing", dtype=object))
            rows_d.append(np.full(len(idx), None, dtype=object))

    if not rows_c:
        return _empty_violations()
    return pa.table(
        {
            "conv_id": pa.array(np.concatenate(rows_c), pa.string()),
            "turn_idx": pa.array(np.concatenate(rows_t), pa.int32()),
            "check_id": pa.array(np.concatenate(rows_k), pa.string()),
            "detail": pa.array(np.concatenate(rows_d), pa.string()),
        }
    )


def _empty_violations() -> pa.Table:
    return pa.table(
        {
            "conv_id": pa.nulls(0, pa.string()),
            "turn_idx": pa.nulls(0, pa.int32()),
            "check_id": pa.nulls(0, pa.string()),
            "detail": pa.nulls(0, pa.string()),
        }
    )

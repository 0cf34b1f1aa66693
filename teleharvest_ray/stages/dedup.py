"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
char-set Jaccard, embedding-cosine near-dup.

The reference's dedup surface is (a) the composite-PK exact uniqueness
(``models/message.py:34-36``) and (b) the near-dup similarity score vs the
published set (``processor.py:138-143``); SURVEY.md §2.6 maps these to exact
dedup + near-dup scoring. This module generalizes both into the dedup
toolkit a 100 TB training-data pipeline needs. All hashes are process-stable
(functions.hashing), all stages batch-vectorized.

Scale notes:
- exact dedup / key dedup: native groupby aggregate (hash-shuffled by Ray).
- MinHash/SimHash: signatures computed per batch (one explode + segmented
  min/add — no per-row loop); candidate pairing is DISTRIBUTED: the banded
  table hash-partitions on (band, band_hash) via ONE groupby shuffle that
  carries only (doc_id, band, hash) — never text, never a driver collection
  of the banded table — and each partition emits its intra-bucket pairs with
  a vectorized triangular generator. Only the candidate PAIR set (the
  anomaly set) reaches the driver.
- verification re-reads only the candidate ids' texts via a broadcast
  membership filter over a pruned scan (:func:`gather_texts`) — the id→text
  map it builds is candidate-sized, not corpus-sized.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
from ray.data import Dataset
from ray.data.aggregate import Count, Min

from ..functions.arrays import list_to_mat
from ..functions.hashing import hash_strings, poly_hash_strings, splitmix64
from ..functions.ngrams import chain_gram_hashes, explode_tokens

_U64 = np.uint64
_MERSENNE = np.uint64((1 << 61) - 1)


def key_dedup(ds: Dataset, key_cols: list[str], tie_col: str) -> Dataset:
    """Exact dedup on a key: keep min(tie_col) per key + multiplicity.
    Native vectorized groupby aggregate (no per-group Python)."""
    return ds.groupby(key_cols).aggregate(
        Min(tie_col, alias_name=tie_col), Count(alias_name="n_copies")
    )


def exact_text_dedup(ds: Dataset, text_col: str, id_col: str) -> Dataset:
    """Exact content dedup: keep first (min id) row per distinct text.
    Shuffles a 64-bit content hash + id, never the text itself; the text
    re-attaches from the winning id downstream if needed."""

    def add_hash(tbl: pa.Table) -> pa.Table:
        h = hash_strings(np.asarray(tbl[text_col].to_pandas(), dtype=object))
        return pa.table(
            {
                "content_hash": pa.array(h.astype(np.int64).view(np.uint64).astype(np.int64)),
                id_col: tbl[id_col],
            }
        )

    hashed = ds.map_batches(add_hash, batch_format="pyarrow")
    return hashed.groupby("content_hash").aggregate(
        Min(id_col, alias_name=id_col), Count(alias_name="n_copies")
    )


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------


def _shingle_hashes(texts: np.ndarray, shingle: int) -> tuple[np.ndarray, np.ndarray]:
    """(doc_row_index, shingle_hash) pairs for word n-gram shingles —
    whitespace-run tokenization, shared rolling-hash kernel
    (functions/ngrams.py)."""
    rows, wh = explode_tokens(texts)
    return chain_gram_hashes(rows, wh, shingle)


def minhash_signatures(
    texts: np.ndarray, n_hashes: int = 64, shingle: int = 3, seed: int = 7
) -> np.ndarray:
    """(n_docs, n_hashes) MinHash signature matrix; empty docs get max-uint."""
    rng = np.random.default_rng(seed)  # fixed seed → process-stable
    a = rng.integers(1, (1 << 61) - 1, n_hashes, dtype=np.uint64)
    b = rng.integers(0, (1 << 61) - 1, n_hashes, dtype=np.uint64)
    rows, sh = _shingle_hashes(texts, shingle)
    n = len(texts)
    sig = np.full((n, n_hashes), np.iinfo(np.uint64).max, dtype=np.uint64)
    if len(sh) == 0:
        return sig
    # h_i(x) = a_i * x + b_i wrapping mod 2^64 (multiply-shift family) — the
    # explicit Mersenne modulo cost a uint64 division per element and the
    # (n_shingles, n_hashes) matrix + np.minimum.at cost ~10x the arithmetic
    # (ufunc.at is scalar-looped). Per-hash segment-min via reduceat instead:
    # explode order keeps `rows` nondecreasing, so segments are contiguous.
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    present = rows[starts]
    with np.errstate(over="ignore"):
        for i in range(n_hashes):
            hx = sh * a[i] + b[i]
            sig[present, i] = np.minimum.reduceat(hx, starts)
    return sig


def minhash_banded(
    ds: Dataset,
    text_col: str,
    id_col: str,
    n_hashes: int = 64,
    bands: int = 16,
    shingle: int = 3,
) -> Dataset:
    """The LSH banded table as a Dataset: ``bands`` rows of
    (band, bh, id) per doc — the shuffle/persist unit for near-dup pairing
    (text never leaves the signature tasks). Docs with NO shingles (fewer
    than ``shingle`` tokens, or null text) are dropped here: their
    signatures are all-max sentinels, so banding them would pair every
    short doc with every other short doc at a fake Jaccard of 1.0."""
    rows_per_band = n_hashes // bands

    def to_bands(tbl: pa.Table) -> pa.Table:
        texts = np.asarray(tbl[text_col].to_pandas(), dtype=object)
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        sig = minhash_signatures(texts, n_hashes, shingle)
        has_shingles = ~(sig == np.iinfo(np.uint64).max).all(axis=1)
        texts, ids, sig = texts[has_shingles], ids[has_shingles], sig[has_shingles]
        band_hashes = np.empty((len(texts), bands), dtype=np.uint64)
        for bnd in range(bands):
            chunk = sig[:, bnd * rows_per_band : (bnd + 1) * rows_per_band]
            h = chunk[:, 0].copy()
            for c in range(1, rows_per_band):
                with np.errstate(over="ignore"):
                    h = splitmix64(h ^ chunk[:, c])
            band_hashes[:, bnd] = h
        n = len(texts)
        return pa.table(
            {
                "band": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
                "bh": pa.array(band_hashes.reshape(-1).astype(np.int64)),
                id_col: pa.array(np.repeat(ids, bands)),
            }
        )

    return ds.map_batches(to_bands, batch_format="pyarrow")


#: per-gram participant cap (the standard LSH-bucket cap): inside each gram
#: bucket only the first GRAM_CAP ids (ascending) pair, bounding a
#: degenerate gram shared by 10^5 docs to GRAM_CAP^2/2 pairs instead of
#: 10^10. The graph-analytics oracle SQL mirrors the SAME rank filter
#: (ROW_NUMBER() OVER (PARTITION BY gram ORDER BY doc_id) <= GRAM_CAP, read
#: from here), so the engine/oracle pair sets agree even past the cap
#: (tests/test_gram_cap.py plants a degenerate gram and proves it at a tiny
#: cap).
GRAM_CAP = 2000


def minhash_lsh_candidates(
    ds: Dataset,
    text_col: str,
    id_col: str,
    n_hashes: int = 64,
    bands: int = 16,
    shingle: int = 3,
    n_parts: int = 32,
) -> pd.DataFrame:
    """Candidate near-dup pairs via banding: docs sharing any band bucket.
    Returns a DataFrame (id_a, id_b) with id_a < id_b, deduplicated. Pairing
    is distributed (see :func:`_bucket_pairs_distributed`): the shuffle
    carries (band, bh, id) rows only; size ``n_parts`` to the cluster."""
    banded = minhash_banded(ds, text_col, id_col, n_hashes, bands, shingle)
    return _bucket_pairs_distributed(banded, ["band", "bh"], id_col, n_parts=n_parts)


def _typed_empty_pairs(payload_cols: tuple = ()) -> pd.DataFrame:
    d = {"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64")}
    for p in payload_cols:
        d[f"{p}_a"] = pd.Series(dtype="int64")
        d[f"{p}_b"] = pd.Series(dtype="int64")
    return pd.DataFrame(d)


def _tri_pairs(
    bdf: pd.DataFrame, bucket_cols: list[str], id_col: str, payload_cols: tuple = (), cap: int = GRAM_CAP
) -> pd.DataFrame:
    """All intra-bucket (id_a < id_b) pairs, fully vectorized: dedupe
    (bucket, id), drop singleton buckets, cap degenerate buckets, then emit
    triangular pairs for ALL buckets of each distinct size at once — one
    ``triu_indices`` per distinct bucket size, no per-bucket Python loop."""
    if not len(bdf):
        return _typed_empty_pairs(payload_cols)
    bdf = bdf.drop_duplicates(bucket_cols + [id_col]).sort_values(bucket_cols + [id_col])
    grp = bdf.groupby(bucket_cols, sort=False)
    sizes = grp[id_col].transform("size").to_numpy()
    rank = grp.cumcount().to_numpy()
    sub = bdf[(sizes > 1) & (rank < cap)]
    if not len(sub):
        return _typed_empty_pairs(payload_cols)
    g2 = sub.groupby(bucket_cols, sort=False)
    rank2 = g2.cumcount().to_numpy()
    s2 = g2[id_col].transform("size").to_numpy()
    starts = np.flatnonzero(rank2 == 0)
    bucket_sizes = s2[starts]
    ids = sub[id_col].to_numpy()
    payloads = {p: sub[p].to_numpy() for p in payload_cols}
    frames = []
    for s in np.unique(bucket_sizes):
        sel = starts[bucket_sizes == s]
        idx = sel[:, None] + np.arange(s)[None, :]  # (k_buckets, s) row indices
        ii, jj = np.triu_indices(s, k=1)
        ia, ib = idx[:, ii].ravel(), idx[:, jj].ravel()
        d = {"id_a": ids[ia], "id_b": ids[ib]}  # ids sorted per bucket → a < b
        for p in payload_cols:
            d[f"{p}_a"] = payloads[p][ia]
            d[f"{p}_b"] = payloads[p][ib]
        frames.append(pd.DataFrame(d))
    return pd.concat(frames, ignore_index=True).drop_duplicates(["id_a", "id_b"]).reset_index(drop=True)


#: banded-row threshold below which candidate pairing runs driver-local —
#: the Ray groupby shuffle carries ~1.4 s of fixed overhead that dominates
#: at toy input sizes (same size-dispatch pattern as embedding_near_dup's
#: broadcast budget and the validator's conv-partials threshold)
_LOCAL_PAIRING_ROWS = 2_000_000


def _bucket_pairs_distributed(
    banded: Dataset,
    bucket_cols: list[str],
    id_col: str,
    payload_cols: tuple = (),
    n_parts: int = 32,
    cap: int = GRAM_CAP,
) -> pd.DataFrame:
    """Cluster-scale candidate pairing: ONE hash shuffle on the bucket key
    spreads complete buckets across ``n_parts`` partitions; each partition
    runs the vectorized triangular generator. The banded table never reaches
    the driver — only the candidate pair set (the anomaly set) is collected,
    deduplicated across partitions (the same pair can surface from buckets
    landing in different partitions).

    Small inputs (≤ ``_LOCAL_PAIRING_ROWS`` banded rows) skip the shuffle and
    pair locally — the banded table is materialized either way (the groupby
    shuffle pins every block too), so the count probe costs no extra pass."""
    banded = banded.materialize()
    if banded.count() <= _LOCAL_PAIRING_ROWS:
        return _tri_pairs(banded.to_pandas(), bucket_cols, id_col, payload_cols, cap)

    def add_part(tbl: pa.Table) -> pa.Table:
        h = np.zeros(tbl.num_rows, dtype=np.uint64)
        for c in bucket_cols:
            v = tbl[c].to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64)
            with np.errstate(over="ignore"):
                h = splitmix64(h ^ v)
        return tbl.append_column("__part", pa.array((h % np.uint64(n_parts)).astype(np.int32)))

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        return _tri_pairs(g, bucket_cols, id_col, payload_cols, cap)

    pairs = (
        banded.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(per_part, batch_format="pandas")
    )
    pdf = pairs.to_pandas()
    if not len(pdf):
        return _typed_empty_pairs(payload_cols)
    return pdf.drop_duplicates(["id_a", "id_b"]).reset_index(drop=True)


def gram_edges(
    ds: Dataset,
    text_col: str,
    id_col: str,
    n: int = 4,
    n_parts: int = 32,
    cap: int = GRAM_CAP,
) -> pd.DataFrame:
    """Candidate duplicate edges: distinct doc pairs (id_a < id_b) sharing
    at least one word ``n``-gram. Single-space tokenization (SQL
    ``string_split`` semantics) and the shared rolling-hash kernel, so the
    pair set matches a SQL self-join on gram strings exactly (hash collision
    probability ~2**-64). Pairing rides the same distributed machinery as
    MinHash banding — ONE groupby shuffle of (gram_hash, id) rows above the
    local threshold, only the candidate pair set reaches the driver.

    ``cap`` (:data:`GRAM_CAP`) bounds pairs from degenerate grams shared by
    thousands of docs; the gram-graph oracles apply the identical per-gram
    rank filter in SQL, so capped runs stay oracle-exact."""

    def to_grams(tbl: pa.Table) -> pa.Table:
        texts = np.asarray(tbl[text_col].to_pandas(), dtype=object)
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        rows, wh = explode_tokens(texts, sep=" ")
        rows, gh = chain_gram_hashes(rows, wh, n)
        # per-batch (doc, gram) dedup IS global dedup — a doc lives entirely
        # inside one batch row (same argument as decontam's gram pairs)
        if len(rows):
            order = np.lexsort((gh, rows))
            rows, gh = rows[order], gh[order]
            first = np.r_[True, (rows[1:] != rows[:-1]) | (gh[1:] != gh[:-1])]
            rows, gh = rows[first], gh[first]
        return pa.table(
            {
                "bh": pa.array(gh.astype(np.int64)),
                id_col: pa.array(ids[rows]),
            }
        )

    grams = ds.map_batches(to_grams, batch_format="pyarrow")
    return _bucket_pairs_distributed(grams, ["bh"], id_col, n_parts=n_parts, cap=cap)


def word_ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    """Exact word n-gram Jaccard for candidate verification."""
    def grams(t):
        w = t.split()
        return {tuple(w[i : i + n]) for i in range(max(0, len(w) - n + 1))}

    ga, gb = grams(a), grams(b)
    if not ga and not gb:
        return 1.0
    return len(ga & gb) / max(1, len(ga | gb))


def gather_texts(ds: Dataset, id_col: str, text_col: str, ids: np.ndarray) -> pd.DataFrame:
    """(id, text) rows for an anomaly-sized id set: a broadcast semi-join
    over a pruned scan (joins.anti_join_keys with anti=False — searchsorted
    membership per batch, no shuffle, no full-table read). The collected
    result is candidate-sized by construction; feed it to
    :func:`verify_pairs_jaccard`."""
    from .joins import anti_join_keys

    pruned = ds.select_columns([id_col, text_col])
    return anti_join_keys(pruned, np.unique(np.asarray(ids)), on=id_col, anti=False).to_pandas()


def verify_pairs_jaccard(
    pairs: pd.DataFrame, id_to_text: dict, threshold: float, n: int = 3
) -> pd.DataFrame:
    """Verify candidate pairs with exact n-gram Jaccard. ``id_to_text`` must
    be CANDIDATE-sized (build it with :func:`gather_texts`), never the whole
    corpus — the candidate set is the anomaly set, orders smaller than the
    data.

    Vectorized end-to-end: shingle-hash sets are computed ONCE per distinct
    doc (one explode over all texts), then every pair's intersection size
    falls out of a single lexsort over the exploded (pair, hash) rows — no
    per-pair Python. Shingles are 64-bit hashes, so values match the exact
    tuple-set Jaccard up to negligible collision probability."""
    if not len(pairs):
        return pairs.assign(jaccard=pd.Series(dtype="float64"))
    inter, sa, sb = _pair_shingle_intersections(pairs, id_to_text, n)
    union = sa + sb - inter
    jac = np.where((sa == 0) & (sb == 0), 1.0, inter / np.maximum(union, 1))
    out = pairs.assign(jaccard=jac)
    return out[out["jaccard"] >= threshold].reset_index(drop=True)


def _pair_shingle_intersections(
    pairs: pd.DataFrame, id_to_text: dict, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(intersection size, |shingles_a|, |shingles_b|) for every candidate
    pair — the shared exact-verification core of Jaccard (resemblance) and
    containment. Shingle-hash sets are computed ONCE per distinct doc (one
    explode over all texts), every pair's intersection size falls out of a
    single lexsort over the exploded (pair, hash) rows — no per-pair
    Python."""
    uids = np.unique(np.concatenate([pairs["id_a"].to_numpy(), pairs["id_b"].to_numpy()]))
    texts = np.asarray([id_to_text[i] for i in uids], dtype=object)
    rows, sh = _shingle_hashes(texts, n)
    # per-doc UNIQUE shingle sets, stored contiguously per doc
    order = np.lexsort((sh, rows))
    rows, sh = rows[order], sh[order]
    dup = (
        np.r_[False, (rows[1:] == rows[:-1]) & (sh[1:] == sh[:-1])]
        if len(rows)
        else np.empty(0, bool)
    )
    rows, sh = rows[~dup], sh[~dup]
    sizes = np.bincount(rows, minlength=len(uids))
    starts = np.searchsorted(rows, np.arange(len(uids)))
    ai = np.searchsorted(uids, pairs["id_a"].to_numpy())
    bi = np.searchsorted(uids, pairs["id_b"].to_numpy())

    def explode(side: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lens = sizes[side]
        tot = int(lens.sum())
        seg = np.arange(tot) - np.repeat(np.cumsum(lens) - lens, lens)
        idx = np.repeat(starts[side], lens) + seg
        return np.repeat(np.arange(len(side)), lens), sh[idx]

    ta, ha = explode(ai)
    tb, hb = explode(bi)
    tag = np.concatenate([ta, tb])
    hh = np.concatenate([ha, hb])
    o2 = np.lexsort((hh, tag))
    tag, hh = tag[o2], hh[o2]
    hit = np.r_[False, (tag[1:] == tag[:-1]) & (hh[1:] == hh[:-1])]
    inter = np.bincount(tag[hit], minlength=len(pairs))
    return inter.astype(np.int64), sizes[ai].astype(np.int64), sizes[bi].astype(np.int64)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def simhash64(texts: np.ndarray) -> np.ndarray:
    """64-bit SimHash over word hashes (unit weights), vectorized: one
    explode, one bincount per bit via np.add.at.

    Word hash is the polynomial+splitmix64 hash (functions.hashing.
    poly_hash_strings), NOT SipHash — every step is wraparound arithmetic,
    which is what lets the q_simhash_pairs DuckDB oracle recompute each
    document's SimHash bit-exactly (queries._simhash_sql)."""
    s = pd.Series(texts)
    ex = s.str.split().explode()
    ex = ex[ex.notna()]
    n = len(s)
    acc = np.zeros((n, 64), dtype=np.int64)
    if len(ex):
        rows = ex.index.to_numpy(np.int64)
        wh = poly_hash_strings(ex.to_numpy(object))
        bits = np.unpackbits(wh.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
        contrib = (2 * bits.astype(np.int8) - 1).astype(np.int64)
        np.add.at(acc, rows, contrib)
    out = np.zeros(n, dtype=np.uint64)
    for bit in range(64):
        out |= (acc[:, bit] > 0).astype(np.uint64) << _U64(bit)
    return out


def simhash_candidates(
    ds: Dataset, text_col: str, id_col: str, chunks: int = 4, n_parts: int = 32
) -> pd.DataFrame:
    """Near-dup candidates: docs sharing any 16-bit chunk of their SimHash
    (guarantees recall for hamming distance < chunks). Distributed pairing
    identical to minhash; hamming computed vectorized (popcount via
    unpackbits) over the collected candidate set."""

    def to_chunks(tbl: pa.Table) -> pa.Table:
        texts = np.asarray(tbl[text_col].to_pandas(), dtype=object)
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        sh = simhash64(texts)
        width = 64 // chunks
        mask = _U64((1 << width) - 1)
        chunk_ids = np.tile(np.arange(chunks, dtype=np.int32), len(ids))
        vals = np.empty((len(ids), chunks), dtype=np.uint64)
        for c in range(chunks):
            vals[:, c] = (sh >> _U64(c * width)) & mask
        return pa.table(
            {
                "chunk": pa.array(chunk_ids),
                "ch": pa.array(vals.reshape(-1).astype(np.int64)),
                id_col: pa.array(np.repeat(ids, chunks)),
                "simhash": pa.array(np.repeat(sh.astype(np.int64), chunks)),
            }
        )

    chunked = ds.map_batches(to_chunks, batch_format="pyarrow")
    pairs = _bucket_pairs_distributed(chunked, ["chunk", "ch"], id_col, payload_cols=("simhash",), n_parts=n_parts)
    if not len(pairs):
        return pd.DataFrame(
            {"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64"), "hamming": pd.Series(dtype="int64")}
        )
    x = np.ascontiguousarray(
        pairs["simhash_a"].to_numpy().astype(np.int64) ^ pairs["simhash_b"].to_numpy().astype(np.int64)
    ).view(np.uint64)
    ham = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(1).astype(np.int64)
    out = pairs[["id_a", "id_b"]].copy()
    out["hamming"] = ham
    return out.reset_index(drop=True)


# ---------------------------------------------------------------------------
# char-set Jaccard (DuckDB `jaccard()` parity) and embedding near-dup
# ---------------------------------------------------------------------------


#: pair-space block edge for char_jaccard_pairs: per step at most
#: _CJ_BLOCK x _CJ_BLOCK similarity cells are materialized, so one hot group
#: can never allocate an n^2 matrix (tests monkeypatch this to force multi-
#: block coverage on small inputs)
_CJ_BLOCK = 4096


def char_jaccard_pairs(
    ds: Dataset,
    text_col: str,
    id_col: str,
    group_col: str,
    threshold: float,
    block: int | None = None,
) -> Dataset:
    """All intra-group pairs with char-set Jaccard >= threshold (matches
    DuckDB's case-sensitive character-based ``jaccard``). Grouped to keep the
    pair space bounded; vectorized via per-group char-presence bitsets.

    The pair space is walked in ``_CJ_BLOCK``-square tiles (the
    similarity._blockwise_topk_pairs pattern): peak memory per step is one
    tile of int32 counts — bounded regardless of group size — so a hot group
    degrades to more (streamable) tile steps, never to an n x n allocation."""
    # resolve on the DRIVER and capture by value: workers re-import the
    # module, so a bare global read would ignore test monkeypatches
    block = int(block if block is not None else _CJ_BLOCK)

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col)
        texts = g[text_col].to_numpy(object)
        ids = g[id_col].to_numpy()
        if len(texts) < 2:
            return pd.DataFrame({"id_a": [], "id_b": [], "jaccard": []})
        # char-presence matrix built in ONE vectorized pass: concatenate the
        # group's bytes, scatter (row, byte) presence. Byte == char for pure
        # ASCII (the common corpus case); multi-byte text falls back to the
        # per-row char-set path so unicode still matches DuckDB's jaccard().
        raw = [t.encode() for t in texts]
        flat = np.frombuffer(b"".join(raw), dtype=np.uint8)
        if len(flat) and flat.max() < 128:
            lens = np.fromiter((len(r) for r in raw), dtype=np.int64, count=len(raw))
            rows = np.repeat(np.arange(len(texts)), lens)
            m = np.zeros((len(texts), 128), dtype=bool)
            m[rows, flat] = True
        else:
            alphabet = sorted(set().union(*[set(t) for t in texts]))
            if not alphabet:
                return pd.DataFrame({"id_a": [], "id_b": [], "jaccard": []})
            amap = {c: i for i, c in enumerate(alphabet)}
            m = np.zeros((len(texts), len(alphabet)), dtype=bool)
            for i, t in enumerate(texts):
                m[i, [amap[c] for c in set(t)]] = True
        n = len(texts)
        mi = m.astype(np.int32)
        sizes = m.sum(1)
        out_a, out_b, out_j = [], [], []
        B = block
        for i0 in range(0, n, B):
            i1 = min(i0 + B, n)
            for j0 in range(i0, n, B):
                j1 = min(j0 + B, n)
                inter = mi[i0:i1] @ mi[j0:j1].T  # one tile, never n x n
                union = sizes[i0:i1, None] + sizes[None, j0:j1] - inter
                jac = inter / np.maximum(union, 1)
                if i0 == j0:
                    ii, jj = np.triu_indices(i1 - i0, k=1)
                else:
                    ii, jj = np.mgrid[0 : i1 - i0, 0 : j1 - j0]
                    ii, jj = ii.ravel(), jj.ravel()
                keep = jac[ii, jj] >= threshold
                if keep.any():
                    out_a.append(ids[i0:i1][ii[keep]])
                    out_b.append(ids[j0:j1][jj[keep]])
                    out_j.append(jac[ii, jj][keep])
        if not out_a:
            return pd.DataFrame({"id_a": [], "id_b": [], "jaccard": []})
        return pd.DataFrame(
            {
                "id_a": np.concatenate(out_a),
                "id_b": np.concatenate(out_b),
                "jaccard": np.concatenate(out_j),
            }
        )

    return ds.groupby(group_col).map_groups(per_group, batch_format="pandas")


#: past this matrix size the full-corpus broadcast stops scaling — dispatch
#: to the LSH-bucketed path instead (hyperplane signatures + exact verify)
BROADCAST_BUDGET_BYTES = 256 << 20


def _hyperplane_codes(vecs: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """(n, n_tables) bucket codes: sign bits of the projections onto each
    table's hyperplanes, packed into an integer per table."""
    proj = np.tensordot(vecs, planes, axes=([1], [2]))  # (n, T, P)
    bits = proj > 0
    codes = np.zeros(bits.shape[:2], dtype=np.uint64)
    for p in range(planes.shape[1]):
        codes |= bits[:, :, p].astype(np.uint64) << np.uint64(p)
    return codes


def embedding_near_dup_lsh(
    ds: Dataset,
    vec_col: str,
    id_col: str,
    threshold: float,
    n_tables: int = 32,
    n_planes: int = 4,
    seed: int = 21,
    n_parts: int = 32,
) -> pd.DataFrame:
    """Near-dup pairs WITHOUT a corpus-sized broadcast: fixed-seed random
    hyperplane signatures per batch → distributed bucket pairing (the same
    one-shuffle path as minhash) → exact cosine verification over the
    candidate ids' vectors only. Precision is exact (every emitted pair is
    verified); recall is the LSH collision probability
    ``1-(1-p^n_planes)^n_tables`` with ``p = 1 - θ/π`` — raise ``n_planes``
    with corpus size to keep buckets bounded, ``n_tables`` to keep recall."""

    def to_buckets(tbl: pa.Table) -> pa.Table:
        vecs = list_to_mat(tbl[vec_col])
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        # deterministic given (seed, dim): identical planes in every batch
        planes = np.random.default_rng(seed).standard_normal((n_tables, n_planes, vecs.shape[1]))
        codes = _hyperplane_codes(vecs, planes)
        n = len(ids)
        return pa.table(
            {
                "tbl": pa.array(np.tile(np.arange(n_tables, dtype=np.int32), n)),
                "bh": pa.array(codes.reshape(-1).astype(np.int64)),
                id_col: pa.array(np.repeat(ids, n_tables)),
            }
        )

    banded = ds.map_batches(to_buckets, batch_format="pyarrow")
    cands = _bucket_pairs_distributed(banded, ["tbl", "bh"], id_col, n_parts=n_parts)
    empty = pd.DataFrame(
        {
            "id_a": pd.Series(dtype="int64"),
            "id_b": pd.Series(dtype="int64"),
            "cosine": pd.Series(dtype="float64"),
        }
    )
    if not len(cands):
        return empty
    # exact verification: candidate-sized vector gather (membership filter
    # over a pruned scan), then one vectorized dot per pair
    need = np.unique(np.concatenate([cands.id_a.to_numpy(), cands.id_b.to_numpy()]))
    got = gather_texts(ds, id_col, vec_col, need)
    got = got.sort_values(id_col).reset_index(drop=True)
    gids = got[id_col].to_numpy()
    V = np.stack(got[vec_col].to_numpy()).astype(np.float64)
    V /= np.maximum(np.linalg.norm(V, axis=1, keepdims=True), 1e-12)
    ai = np.searchsorted(gids, cands.id_a.to_numpy())
    bi = np.searchsorted(gids, cands.id_b.to_numpy())
    cos = (V[ai] * V[bi]).sum(1)
    keep = cos >= threshold
    if not keep.any():
        return empty
    return pd.DataFrame(
        {
            "id_a": cands.id_a.to_numpy()[keep].astype(np.int64),
            "id_b": cands.id_b.to_numpy()[keep].astype(np.int64),
            "cosine": cos[keep],
        }
    ).reset_index(drop=True)


def embedding_near_dup(
    ds: Dataset,
    vec_col: str,
    id_col: str,
    threshold: float,
    all_vecs: np.ndarray | None = None,
    all_ids: np.ndarray | None = None,
    broadcast_budget: int = BROADCAST_BUDGET_BYTES,
    **lsh_kwargs,
) -> Dataset:
    """Pairs (id_a < id_b) with cosine >= threshold. Two paths, same output
    contract:

    - EXACT (default when ``all_vecs`` fits ``broadcast_budget``): each batch
      does one matmul against the broadcast full matrix (the J1 broadcast
      pattern) — exhaustive, no recall loss.
    - LSH (``all_vecs`` omitted or over budget): hyperplane-bucketed
      candidates + exact cosine verification via
      :func:`embedding_near_dup_lsh` — no corpus-sized broadcast anywhere,
      the 100 TB shape."""
    if all_vecs is None or all_vecs.nbytes > broadcast_budget:
        import ray.data as _rd

        return _rd.from_pandas(
            embedding_near_dup_lsh(ds, vec_col, id_col, threshold, **lsh_kwargs)
        )
    norm = all_vecs / np.maximum(np.linalg.norm(all_vecs, axis=1, keepdims=True), 1e-12)
    mat_ref = ray.put(norm)
    ids_ref = ray.put(all_ids)

    def per_batch(tbl: pa.Table) -> pa.Table:
        mat = ray.get(mat_ref)
        aids = ray.get(ids_ref)
        vecs = list_to_mat(tbl[vec_col])
        vecs = vecs / np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12)
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        sims = vecs @ mat.T
        ri, ci = np.nonzero(sims >= threshold)
        a, b = ids[ri], aids[ci]
        keep = a < b  # dedup orientation and drop self-pairs
        return pa.table(
            {
                "id_a": pa.array(a[keep].astype(np.int64)),
                "id_b": pa.array(b[keep].astype(np.int64)),
                "cosine": pa.array(sims[ri, ci][keep].astype(np.float64)),
            }
        )

    return ds.map_batches(per_batch, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# exact shared-span measurement (the ExactSubstr family: Lee et al. 2022,
# "Deduplicating Training Data Makes Language Models Better")
# ---------------------------------------------------------------------------

_SPAN_MIX = _U64(0xA0761D6478BD642F)


def _mix_windows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Order-sensitive combiner for adjacent window hashes: equal token
    sequences combine to equal hashes, different ones collide with
    probability ~2**-64."""
    with np.errstate(over="ignore"):
        return splitmix64(splitmix64(x ^ _SPAN_MIX) ^ y)


def _pow2_tables(th: np.ndarray, max_k: int) -> list[np.ndarray]:
    """Sparse table S[k][i] = hash of the token window [i, i + 2**k) —
    O(n log n) once per doc, then ANY window length resolves in O(log L)."""
    tables = [th]
    for k in range(1, max_k + 1):
        prev = tables[-1]
        half = 1 << (k - 1)
        if len(prev) <= half:
            break
        tables.append(_mix_windows(prev[:-half], prev[half:]))
    return tables


def _window_hashes(tables: list[np.ndarray], L: int, n: int) -> np.ndarray:
    """Hashes of every length-``L`` token window, from the binary
    decomposition of L over the power-of-two sparse table (position-
    independent: only window CONTENT feeds the combiner)."""
    m = n - L + 1
    acc = None
    off = 0
    for k in range(len(tables) - 1, -1, -1):
        if not (L >> k) & 1:
            continue
        piece = tables[k][off : off + m]
        acc = piece.copy() if acc is None else _mix_windows(acc, piece)
        off += 1 << k
    return acc


def longest_shared_run(th_a: np.ndarray, th_b: np.ndarray, lo: int) -> int:
    """Exact length of the longest token run shared by two token-hash
    streams (binary search over run length; the predicate intersects the
    two docs' window-hash sets — monotone because a shared L-run contains a
    shared (L-1)-run). ``lo`` is a known-shared length (the candidate
    generator guarantees it). O((n+m) log n · log L)."""
    hi = int(min(len(th_a), len(th_b)))
    if hi == 0:
        return 0
    import math

    max_k = max(0, int(math.log2(hi)))
    ta = _pow2_tables(th_a, max_k)
    tb = _pow2_tables(th_b, max_k)

    def shared(L: int) -> bool:
        ha = _window_hashes(ta, L, len(th_a))
        hb = _window_hashes(tb, L, len(th_b))
        if len(ha) > len(hb):
            ha, hb = hb, ha
        return bool(np.isin(ha, hb).any())

    lo = min(lo, hi)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if shared(mid):
            lo = mid
        else:
            hi = mid - 1
    return int(lo)


def shared_span_pairs(
    ds: Dataset,
    text_col: str,
    id_col: str,
    min_tokens: int = 8,
    n_parts: int = 32,
    cap: int = GRAM_CAP,
) -> pd.DataFrame:
    """Doc pairs sharing an exact run of >= ``min_tokens`` consecutive
    tokens, with the EXACT longest shared run length per pair.

    Scale shape: candidates come from :func:`gram_edges` (one groupby
    shuffle of (gram_hash, id) rows — text never moves); span measurement
    gathers only the candidate docs' texts (:func:`gather_texts`, anomaly-
    sized by construction) and runs the vectorized sparse-table binary
    search per pair. Per-pair cost is O((n+m) log n log L); the pair loop is
    candidate-sized, never corpus-sized. Tokenization is single-space (SQL
    ``string_split`` semantics) so the run lengths match the
    gaps-and-islands SQL oracle exactly."""
    edges = gram_edges(ds, text_col, id_col, n=min_tokens, n_parts=n_parts, cap=cap)
    if not len(edges):
        return pd.DataFrame(
            {"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64"),
             "max_run": pd.Series(dtype="int64")}
        )
    ids = np.unique(np.r_[edges["id_a"].to_numpy(), edges["id_b"].to_numpy()])
    texts = gather_texts(ds, id_col, text_col, ids)
    th = {
        i: hash_strings(np.array(t.split(" "), dtype=object))
        for i, t in zip(texts[id_col], texts[text_col])
    }
    runs = [
        longest_shared_run(th[a], th[b], min_tokens)
        for a, b in zip(edges["id_a"], edges["id_b"])
    ]
    out = pd.DataFrame(
        {"id_a": edges["id_a"], "id_b": edges["id_b"], "max_run": np.asarray(runs, dtype=np.int64)}
    )
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def myers_distance(a: str, b: str) -> int:
    """Exact Levenshtein distance via Myers' bit-parallel algorithm (Myers
    1999, JACM 46(3); Hyyrö 2001 single-word formulation), computed over the
    UTF-8 BYTES of both strings so it matches DuckDB's byte-based
    ``levenshtein`` on any input (identical to codepoint distance on ASCII).
    O(n) word operations when the shorter string fits one 64-bit word;
    longer patterns fall back to the classic rolling two-row DP (numpy row
    kernel, O(mn/vector-width))."""
    p, t = a.encode(), b.encode()
    if len(p) > len(t):
        p, t = t, p
    m = len(p)
    if m == 0:
        return len(t)
    if m > 64:
        pb = np.frombuffer(p, dtype=np.uint8)
        idx = np.arange(m + 1, dtype=np.int64)
        prev = idx.copy()
        cur = np.empty(m + 1, dtype=np.int64)
        for j, ch in enumerate(t, 1):
            cur[0] = j
            # delete (prev[i]+1) and substitute (prev[i-1]+cost) vectorize;
            # chained inserts (cur[i-1]+1) resolve in one accumulate pass:
            # min_{k<=i}(cur[k] + i - k) = minimum.accumulate(cur - i) + i
            np.minimum(prev[1:] + 1, prev[:-1] + (pb != ch), out=cur[1:])
            np.subtract(cur, idx, out=cur)
            np.minimum.accumulate(cur, out=cur)
            np.add(cur, idx, out=cur)
            prev, cur = cur, prev
        return int(prev[-1])
    peq = [0] * 256
    for i, ch in enumerate(p):
        peq[ch] |= 1 << i
    mask = (1 << m) - 1
    high = 1 << (m - 1)
    pv, mv, score = mask, 0, m
    for ch in t:
        eq = peq[ch]
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & high:
            score += 1
        if mh & high:
            score -= 1
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return score


def myers_distance_batch(a_texts, b_texts, prefix: int = 64) -> np.ndarray:
    """Vectorized Myers across MANY pairs at once: the bit-parallel state of
    every pair lives in one uint64 lane of a numpy vector, so the whole
    candidate set advances one text position per ~15 vector ops — ~64x15
    kernel calls TOTAL regardless of pair count, vs a Python loop per pair.
    Equals ``myers_distance(a[:prefix], b[:prefix])`` exactly (parity
    fuzz test); ``prefix`` <= 64 so every pattern fits one word. Lanes
    whose text is exhausted freeze, so ragged lengths are exact. Only
    ASCII-safe for the prefix slice (byte == char), same contract as the
    caller's documents input; the scalar kernel remains the general path."""
    if prefix > 64:
        raise ValueError("prefix must be <= 64 for the single-word batch kernel")
    n_pairs = len(a_texts)
    if not n_pairs:
        return np.zeros(0, dtype=np.int64)
    pats = [a[:prefix].encode() for a in a_texts]
    txts = [b[:prefix].encode() for b in b_texts]
    # pattern = the SHORTER side (scalar kernel's convention)
    swap = [len(p) > len(t) for p, t in zip(pats, txts)]
    pats, txts = (
        [t if s else p for p, t, s in zip(pats, txts, swap)],
        [p if s else t for p, t, s in zip(pats, txts, swap)],
    )
    m = np.fromiter((len(p) for p in pats), dtype=np.int64, count=n_pairs)
    tl = np.fromiter((len(t) for t in txts), dtype=np.int64, count=n_pairs)
    wide = m > 64  # non-ASCII prefix expanded past one word
    if wide.any():  # route ONLY those lanes through the scalar kernel —
        out = np.empty(n_pairs, dtype=np.int64)  # the rest stay vectorized
        keep = ~wide
        kidx = np.flatnonzero(keep)
        out[kidx] = myers_distance_batch(
            [a_texts[i] for i in kidx], [b_texts[i] for i in kidx], prefix=prefix
        )
        for i in np.flatnonzero(wide):
            out[i] = myers_distance(a_texts[i][:prefix], b_texts[i][:prefix])
        return out
    tmax = int(tl.max()) if n_pairs else 0
    # Peq[pair, byte]: bit i set where pattern byte i == byte. Built with one
    # bitwise_or.at scatter per pattern position (<= 64 scatters total).
    pmat = np.zeros((n_pairs, 64), dtype=np.uint8)
    for i, p in enumerate(pats):
        if p:
            pmat[i, : len(p)] = np.frombuffer(p, dtype=np.uint8)
    peq = np.zeros((n_pairs, 256), dtype=np.uint64)
    lanes = np.arange(n_pairs)
    for i in range(int(m.max()) if n_pairs else 0):
        live = m > i
        np.bitwise_or.at(peq, (lanes[live], pmat[live, i]), np.uint64(1 << i))
    tmat = np.zeros((n_pairs, max(tmax, 1)), dtype=np.uint8)
    for i, t in enumerate(txts):
        if t:
            tmat[i, : len(t)] = np.frombuffer(t, dtype=np.uint8)
    mask = np.where(m > 0, (~np.uint64(0)) >> np.uint64(64) - m.astype(np.uint64), 0)
    high = np.where(m > 0, np.uint64(1) << np.maximum(m - 1, 0).astype(np.uint64), 0)
    pv = mask.copy()
    mv = np.zeros(n_pairs, dtype=np.uint64)
    score = m.copy()
    one = np.uint64(1)
    with np.errstate(over="ignore"):
        for j in range(tmax):
            active = (j < tl) & (m > 0)
            eq = peq[lanes, tmat[:, j]]
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (~(xh | pv) & mask)
            mh = pv & xh
            score += np.where(active & ((ph & high) != 0), 1, 0)
            score -= np.where(active & ((mh & high) != 0), 1, 0)
            ph = ((ph << one) | one) & mask
            mh = (mh << one) & mask
            new_pv = mh | (~(xv | ph) & mask)
            new_mv = ph & xv
            pv = np.where(active, new_pv, pv)
            mv = np.where(active, new_mv, mv)
    return np.where(m > 0, score, tl).astype(np.int64)

"""Vectorized text functions for the validation chain.

Each function is the columnar recast of a scalar operation in the reference's
per-row predicate chain (``processor.py:97-145``), implemented over whole
Arrow/numpy batches — never a Python loop over rows.

- ``normalize_trailing_links`` — the P3 trailing-markdown-link strip,
  ``re.sub(r'\\s*\\[.*?]\\(https?://[^)]+\\)$', '', text, flags=MULTILINE)``
  (reference processor.py:106). Uses the same regex via pyarrow's RE2 engine
  with the ``(?m)`` flag; parity with Python ``re`` is unit-tested.
- ``quality_score`` — deterministic stand-in for the LLM evaluation
  (reference services/openai_service.py:35-59 → float 1..100): 100 × fraction
  of non-space characters that are alphanumeric. Transparent, vectorized, and
  plantable by the data generator.
- ``rewrite_alt`` — deterministic stand-in for the LLM rewrite (P9,
  processor.py:131): lowercase + whitespace collapse + trim.
- ``alt_score`` — second evaluation (P10): 100 × distinct-word ratio of the
  rewritten text (penalizes degenerate repetition).
- ``token_count`` — embedding-proxy feature (P11 recast per SURVEY §2.2).
- ``hashed_bow`` — 64-dim hashed bag-of-words unit vectors, the
  embedding-proxy used for the broadcast max-cosine similarity (P12/J1 recast,
  reference services/embedding_service.py:34-45).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


TRAILING_LINK_RE = r"(?m)\s*\[.*?\]\(https?://[^)]+\)$"
BOW_DIM = 64

# byte-class lookup tables (ASCII semantics — matches RE2's ASCII-only \w/\s,
# which is what both pyarrow and DuckDB use; documented engine semantics for
# multi-byte text: counts are per byte, and scoring-stage inputs are ASCII)
_ALNUM_LUT = np.zeros(256, np.uint8)
for _lo, _hi in ((48, 58), (65, 91), (97, 123)):
    _ALNUM_LUT[_lo:_hi] = 1
_SPACE_LUT = np.zeros(256, np.uint8)
for _b in (9, 10, 11, 12, 13, 32):
    _SPACE_LUT[_b] = 1
_NONSPACE_LUT = (1 - _SPACE_LUT).astype(np.uint8)
_NONALNUM_LUT = (1 - _ALNUM_LUT).astype(np.uint8)
# RE2's \s exactly: [\t\n\f\r ] — unlike _SPACE_LUT, no \v
_RE2_SPACE_LUT = np.zeros(256, np.uint8)
for _b in (9, 10, 12, 13, 32):
    _RE2_SPACE_LUT[_b] = 1


def _string_buffer_view(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(byte_data, per-string offsets) view of a string array, zero-copy."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    bufs = arr.buffers()
    odt = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offsets = np.frombuffer(bufs[1], dtype=odt)[arr.offset : arr.offset + len(arr) + 1]
    data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else np.empty(0, np.uint8)
    return data, offsets.astype(np.int64)


def byte_class_counts(arr, lut: np.ndarray) -> np.ndarray:
    """Per-string count of bytes whose lut entry is 1.

    Position-based segmented count: flatnonzero the matching bytes once,
    then two binary searches give every string's count. Measured 22x faster
    than np.add.reduceat on this numpy build (1.06 s → 0.05 s per 10 MB
    batch) even at >90% match density, and immune to reduceat's
    empty-segment wart (start==end segments read a stale value). NB: this
    box's numpy is also pathologically slow at astype/append/np.take copies
    of multi-MB arrays (~50x) — fancy indexing + flatnonzero are the fast
    primitives."""
    data, offsets = _string_buffer_view(arr)
    n = len(offsets) - 1
    if n == 0:
        return np.empty(0, np.int64)
    end = int(offsets[-1])
    if end == 0:
        return np.zeros(n, np.int64)
    pos = np.flatnonzero(lut.view(np.bool_)[data[:end]])
    return _count_in_strings(pos, offsets)


def _count_in_strings(pos: np.ndarray, offsets: np.ndarray, side: str = "left") -> np.ndarray:
    """Per-string count of the sorted byte positions ``pos`` that fall in
    each string's ``[start, end)`` — or ``(start, end)`` with
    ``side="right"`` — by two binary searches over the offsets."""
    return (np.searchsorted(pos, offsets[1:]) - np.searchsorted(pos, offsets[:-1], side=side)).astype(
        np.int64, copy=False
    )


class TokenBatch:
    """One tokenization pass shared by every token-derived feature: rows is
    the source row of each token, codes factorize tokens batch-locally, and
    uniq_hash gives a process-stable 64-bit hash per unique token (hashing
    only uniques — the vocabulary — not every token)."""

    __slots__ = ("rows", "codes", "uniq_hash", "n_rows", "uniques")

    def __init__(self, rows, codes, uniq_hash, n_rows, uniques=None):
        self.rows, self.codes, self.uniq_hash, self.n_rows = rows, codes, uniq_hash, n_rows
        self.uniques = uniques


def tokenize(arr) -> TokenBatch:
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    lst = pc.utf8_split_whitespace(arr)
    flat = pc.list_flatten(lst)
    rows = pc.list_parent_indices(lst).to_numpy(zero_copy_only=False).astype(np.int64)
    # leading/trailing whitespace produces empty tokens — drop them
    lens = pc.binary_length(flat).to_numpy(zero_copy_only=False)
    keep = lens > 0
    if not keep.all():
        flat = flat.filter(pa.array(keep))
        rows = rows[keep]
    # Arrow dictionary_encode == pandas factorize(sort=False): identical
    # first-occurrence unique ordering, measured 3.4x faster on this build
    # (63 vs 215 ms per 777k-token partition) and it skips the flat
    # to_pandas conversion entirely
    de = flat.dictionary_encode()
    codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uniques = de.dictionary.to_numpy(zero_copy_only=False)
    uniq_hash = (
        pd.util.hash_array(uniques, categorize=False).astype(np.uint64)
        if len(uniques)
        else np.empty(0, np.uint64)
    )
    return TokenBatch(rows, codes, uniq_hash, n, uniques=uniques)


def normalize_trailing_links(arr: pa.Array | pa.ChunkedArray) -> pa.Array | pa.ChunkedArray:
    """Strip trailing markdown links per line (reference processor.py:106)."""
    return pc.replace_substring_regex(arr, pattern=TRAILING_LINK_RE, replacement="")


def parse_score(arr) -> pa.Array:
    """Lenient string→float parse: strip whitespace and quotes, then cast;
    anything unparseable becomes null (P14, the evaluation-response parser —
    reference services/openai_service.py:47-59: strip quotes/whitespace,
    ``float()``, invalid → None; asserted by tests/test_openai_service.py:57-74)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    cleaned = pc.utf8_trim_whitespace(arr)
    cleaned = pc.replace_substring_regex(cleaned, pattern=r'^["\x27]+|["\x27]+$', replacement="")
    cleaned = pc.utf8_trim_whitespace(cleaned)
    # safe float-pattern gate, then unchecked cast (both vectorized)
    ok = pc.match_substring_regex(cleaned, r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    gated = pc.if_else(pc.fill_null(ok, False), cleaned, pa.scalar(None, pa.string()))
    return pc.cast(gated, pa.float64())


def utf8_len(arr) -> pa.Array:
    return pc.utf8_length(arr)


def quality_score(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """100 * alnum_bytes / non-space_bytes; 0 for null/empty. Byte-LUT
    segmented reduction (exact RE2-ASCII semantics for ASCII text).

    Counts go through the SPARSE complements (non-alnum ~8%, space ~15% of
    natural text vs their ~90% duals): flatnonzero cost is output-bound on
    this box, so counting the rare class and subtracting from the byte
    length is ~10x cheaper for identical results."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    _, offs = _string_buffer_view(arr)
    blen = (offs[1:] - offs[:-1]).astype(np.float64)
    alnum = blen - byte_class_counts(arr, _NONALNUM_LUT)
    nonspace = blen - byte_class_counts(arr, _SPACE_LUT)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(nonspace > 0, 100.0 * alnum / np.maximum(nonspace, 1), 0.0)
    return out


def rewrite_alt(arr) -> pa.Array | pa.ChunkedArray:
    """Deterministic 'rewrite': lowercase, collapse whitespace, trim.

    The collapse/trim passes each copy the whole column; skip them when no
    row needs them (the common case) — a cheap boolean scan beats two
    column-sized allocations on a memory-bound node."""
    out = pc.utf8_lower(arr)
    # gate must cover every case the collapse/trim pair would change: leading/
    # trailing space, doubled whitespace, or ANY non-space whitespace char
    needs = pc.match_substring_regex(out, r"[\t\n\f\r]|(\s\s)|(^\s)|(\s$)")
    if pc.any(needs).as_py():
        out = pc.replace_substring_regex(out, pattern=r"\s+", replacement=" ")
        out = pc.utf8_trim_whitespace(out)
    return out


def alt_score(arr_or_tokens) -> np.ndarray:
    """100 * distinct words / total words (penalizes degenerate repetition).
    Distinctness per row via one lexsort over (row, code) — no per-row loop."""
    tok = arr_or_tokens if isinstance(arr_or_tokens, TokenBatch) else tokenize(arr_or_tokens)
    out = np.zeros(tok.n_rows, dtype=np.float64)
    if len(tok.rows) == 0:
        return out
    order = np.lexsort((tok.codes, tok.rows))
    r, c = tok.rows[order], tok.codes[order]
    first = np.ones(len(r), dtype=bool)
    first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    distinct = np.bincount(r[first], minlength=tok.n_rows)
    total = np.bincount(tok.rows, minlength=tok.n_rows)
    nz = total > 0
    out[nz] = 100.0 * distinct[nz] / total[nz]
    return out


def token_count(arr_or_tokens) -> np.ndarray:
    """Whitespace-token count (embedding-proxy length feature). On text it is
    exactly ``pc.count_substring_regex(arr, r"\\S+")`` without the regex
    scan: RE2's ``\\s`` is the ASCII class ``[\\t\\n\\f\\r ]`` and no UTF-8
    continuation byte is ASCII, so it counts runs of non-space bytes. A run
    starts at a string's first byte unless that is a space, and at each
    non-space byte that follows a space inside the string; spaces are the
    sparse class, so only their positions are materialized. Nulls read NaN,
    as in the regex count's ``to_numpy``."""
    if isinstance(arr_or_tokens, TokenBatch):
        tok = arr_or_tokens
        return np.bincount(tok.rows, minlength=tok.n_rows).astype(np.int64)
    arr = arr_or_tokens
    data, offsets = _string_buffer_view(arr)
    n = len(offsets) - 1
    lo, end = (int(offsets[0]), int(offsets[-1])) if n else (0, 0)
    space = _RE2_SPACE_LUT.view(np.bool_)[data[lo:end]]
    nxt = np.flatnonzero(space[:-1]) + 1
    starts = nxt[~space[nxt]] + lo  # absolute, like offsets
    nonempty = offsets[1:] > offsets[:-1]
    first = np.zeros(n, np.int64)
    first[nonempty] = ~space[offsets[:-1][nonempty] - lo]
    # an empty string's offset is the next string's first byte, not its own
    out = np.where(nonempty, _count_in_strings(starts, offsets, side="right") + first, 0)
    if arr.null_count:
        return np.where(arr.is_null().to_numpy(zero_copy_only=False), np.nan, out)
    return out


def hashed_bow(texts, dim: int = BOW_DIM) -> np.ndarray:
    """(n, dim) L2-normalized hashed bag-of-words matrix (deterministic).

    Tokens hash with the process-stable string hash (uniques only, mapped back
    through factorize codes); counts accumulate via one flat bincount.
    """
    if isinstance(texts, TokenBatch):
        tok = texts
    elif isinstance(texts, (pa.Array, pa.ChunkedArray)):
        tok = tokenize(texts)
    else:
        tok = tokenize(pa.array(np.asarray(texts, dtype=object), pa.string()))
    n = tok.n_rows
    mat = np.zeros((n, dim), dtype=np.float64)
    if len(tok.rows):
        buckets = (tok.uniq_hash % np.uint64(dim)).astype(np.int64)[tok.codes]
        flat_idx = tok.rows * dim + buckets
        mat = np.bincount(flat_idx, minlength=n * dim).astype(np.float64).reshape(n, dim)
    norms = np.linalg.norm(mat, axis=1)
    mat /= np.maximum(norms, 1e-12)[:, None]
    return mat


def max_cosine(vecs: np.ndarray, exemplars: np.ndarray | None) -> np.ndarray:
    """Max cosine of each row vector against the exemplar matrix — the
    broadcast nested-loop 'join' with max-aggregation (J1, reference
    processor.py:140-143 / embedding_service.py:34-45). Empty exemplar set
    → 0.0 (reference embedding_service.py:44-45)."""
    if exemplars is None or len(exemplars) == 0:
        return np.zeros(len(vecs), dtype=np.float64)
    sims = vecs @ exemplars.T  # one matmul per batch
    return sims.max(axis=1)

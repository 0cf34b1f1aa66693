"""Deterministic, vectorized 64-bit hashing.

Process-stable hashing is load-bearing: the key-hash uniqueness check, the HLL
sketch and resume/oracle comparisons all require that the same value hashes
identically in every worker process of every run (Python's ``hash`` does not,
because of PYTHONHASHSEED). We build on ``pandas.util.hash_array`` (SipHash
with a fixed key — deterministic across processes) for strings, and a
splitmix64 finalizer for mixing in integer columns.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_U64 = np.uint64


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain constant mix)."""
    x = x.astype(_U64, copy=True)
    with np.errstate(over="ignore"):
        x += _U64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
        x = x ^ (x >> _U64(31))
    return x


def hash_strings(values) -> np.ndarray:
    """uint64 hash of a string array-like; nulls hash to a fixed sentinel."""
    arr = np.asarray(values, dtype=object)
    mask = pd.isna(arr)
    if mask.any():
        arr = arr.copy()
        arr[mask] = "\x00<null>"
    return pd.util.hash_array(arr, categorize=False).astype(_U64)


_NULL_HASH = hash_strings(np.array([None], dtype=object))


#: polynomial-hash base shared with stages.text_analysis.FP_BASE — kept as a
#: default parameter here so ``functions`` stays import-independent of
#: ``stages``
POLY_BASE = 1000003


def poly_hash_strings(values, base: int = POLY_BASE) -> np.ndarray:
    """uint64 polynomial rolling hash over code points —
    ``h = sum(cp_j * B^(L-1-j)) mod 2^64`` — finished with splitmix64.

    Unlike :func:`hash_strings` (SipHash), every step is 64-bit wraparound
    arithmetic, so the exact hash is SQL-expressible (DuckDB HUGEINT halves;
    see queries._fingerprint_sql / _simhash_sql) and any pipeline built on it
    can be oracle-verified value-by-value. Vectorized: one utf-32 decode of
    the concatenated batch + a segmented sum; nulls hash like empty strings
    (splitmix64(0))."""
    arr = np.asarray(pd.array(values, dtype=object), dtype=object)
    texts = ["" if pd.isna(t) else t for t in arr.tolist()]
    lens = np.fromiter((len(t) for t in texts), dtype=np.int64, count=len(texts))
    h = np.zeros(len(texts), dtype=_U64)
    cps = np.frombuffer("".join(texts).encode("utf-32-le"), dtype=np.uint32).astype(_U64)
    if cps.size:
        maxlen = int(lens.max())
        pows = np.empty(maxlen, dtype=_U64)
        pows[0] = 1
        b = _U64(base)
        with np.errstate(over="ignore"):
            for k in range(1, maxlen):
                pows[k] = pows[k - 1] * b
            ends = np.cumsum(lens)
            idx = np.repeat(ends, lens) - 1 - np.arange(cps.size)
            prods = cps * pows[idx]
            nz = lens > 0
            h[nz] = np.add.reduceat(prods, (ends - lens)[nz])
    return splitmix64(h)


def combine(h: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """Mix a second uint64 stream into an existing hash stream."""
    with np.errstate(over="ignore"):
        return splitmix64(h.astype(_U64) ^ splitmix64(extra.astype(_U64)))


def hash_key(conv_id, turn_idx) -> np.ndarray:
    """Composite-key hash for (conv_id, turn_idx) — the PK analog of the
    reference's (id, channel) composite key (models/message.py:34-36).

    Hashing the FULL composite key is what makes the uniqueness shuffle
    skew-proof: a hot conversation's turns spread uniformly over buckets
    because turn_idx participates in the hash (SURVEY.md §4 skew row).

    Each distinct ``conv_id`` is hashed once (a dictionary encode, then one
    :func:`hash_strings` over the distinct ids); a null id hashes like
    :func:`hash_strings`' null and a null turn as ``-1``. Arrow or array-like
    inputs."""
    if not isinstance(conv_id, (pa.Array, pa.ChunkedArray)):
        conv_id = pa.array(np.asarray(conv_id, dtype=object), pa.string(), from_pandas=True)
    enc = pc.dictionary_encode(conv_id)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    uniq = np.r_[hash_strings(enc.dictionary.to_numpy(zero_copy_only=False)), _NULL_HASH]
    h = uniq[enc.indices.fill_null(len(enc.dictionary)).to_numpy()]
    if isinstance(turn_idx, (pa.Array, pa.ChunkedArray)):
        t = pc.fill_null(turn_idx.cast(pa.int64()), -1).to_numpy()
    else:
        t = np.asarray(turn_idx)
        t = np.where(pd.isna(t), -1, t).astype(np.int64)
    return combine(h, t.view(np.uint64))

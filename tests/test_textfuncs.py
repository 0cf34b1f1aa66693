"""Kernel parity tests: Arrow/byte-LUT fast paths vs reference semantics."""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from teleharvest_ray.functions import textfuncs as tf

# the reference regex verbatim (processor.py:106)
_REF_RE = re.compile(r"\s*\[.*?\]\(https?://[^)]+\)$", re.MULTILINE)

CASES = [
    "plain text no link",
    "text with [a link](https://example.com/x)",
    "line one [l](https://a.b/c)\nline two keeps going",
    "line one [l](https://a.b/c)\nline two [m](http://d.e/f)",
    "not at end [l](https://a.b/c) more text",
    "[only](https://x.y/z)",
    "trailing spaces   [l](https://a.b/c)",
    "unicode тест [с](https://а.б/в)",
    "",
    "no url [broken](not-a-url)",
]


def test_normalize_matches_python_re():
    arr = pa.array(CASES, pa.string())
    got = tf.normalize_trailing_links(arr).to_pylist()
    want = [_REF_RE.sub("", t) for t in CASES]
    assert got == want


def test_byte_class_counts_matches_regex_on_ascii():
    texts = [
        "hello world 123", "", "   ", "a_b-c!d", "x" * 500,
        "tabs\tand\nnewlines ok", "MiXeD CaSe 42", None,
    ]
    arr = pa.array(texts, pa.string())
    alnum_fast = tf.byte_class_counts(arr, tf._ALNUM_LUT)
    nonspace_fast = tf.byte_class_counts(arr, tf._NONSPACE_LUT)
    alnum_re = [len(re.findall(r"[0-9A-Za-z]", t)) if t is not None else 0 for t in texts]
    nonspace_re = [len(re.findall(r"[^\t\n\x0b\x0c\r ]", t)) if t is not None else 0 for t in texts]
    assert alnum_fast.tolist() == alnum_re
    assert nonspace_fast.tolist() == nonspace_re


def test_byte_class_counts_trailing_empty_strings():
    # regression: trailing empties once corrupted the preceding segment
    arr = pa.array(["abc", "", "", None], pa.string())
    assert tf.byte_class_counts(arr, tf._ALNUM_LUT).tolist() == [3, 0, 0, 0]


def test_tokenize_matches_str_split():
    texts = ["a  b c", "  x ", "", None, "one", "multi word text here"]
    tok = tf.tokenize(pa.array(texts, pa.string()))
    counts = np.bincount(tok.rows, minlength=tok.n_rows).tolist()
    want = [len(t.split()) if t else 0 for t in texts]
    assert counts == want


# RE2's \s is [\t\n\f\r ]: \v (0x0B), U+00A0 and U+2003 sit inside tokens
_COUNT_CASES = [
    "a\vb c", "no\u00a0break", "em\u2003space here", "  lead", "trail  ", "dou  bled\t\tws",
    "\n\r\f\t ", "", None, "one", "тест слова ок", "x" * 300 + " y",
]


_RNG_ALPHABET = ["a", "Z", "9", "é", "\u00a0", "\u2003", " ", "\t", "\n", "\v", "\f", "\r", "  "]
_rng = np.random.default_rng(3)
_RANDOM_TEXTS = ["".join(_rng.choice(_RNG_ALPHABET, int(_rng.integers(0, 12)))) for _ in range(400)]


def _regex_count(arr) -> np.ndarray:
    return pc.count_substring_regex(arr, pattern=r"\S+").to_numpy(zero_copy_only=False)


@pytest.mark.parametrize(
    "arr",
    [
        pa.array(_COUNT_CASES, pa.string()),
        pa.array(_COUNT_CASES, pa.large_string()),
        pa.array(_COUNT_CASES, pa.string()).slice(3, 6),  # offset > 0
        pa.chunked_array([pa.array(_COUNT_CASES[:5]), pa.array(_COUNT_CASES[5:])]),
        pa.array([], pa.string()),
        pa.array([" ", "a"], pa.string()),  # no nulls: an integer count
        pa.array(_RANDOM_TEXTS, pa.string()),
    ],
    ids=["string", "large_string", "sliced", "chunked", "empty", "no_nulls", "random"],
)
def test_token_count_equals_regex_count(arr):
    got, want = tf.token_count(arr), _regex_count(arr)
    np.testing.assert_array_equal(got, want)
    assert len(got) == len(arr) and np.isnan(got).sum() == arr.null_count


def test_token_count_splits_on_ascii_space_only():
    """Pinned difference: the text count (RE2 ``\\S+``) keeps U+00A0 inside a
    token, while the tokenizer (``utf8_split_whitespace``) splits on it."""
    arr = pa.array(["no\u00a0break here"], pa.string())
    assert tf.token_count(arr).tolist() == [2]
    assert tf.token_count(tf.tokenize(arr)).tolist() == [3]


def test_tokenize_hashes_equal_pandas_object_hash():
    """The tokenizer's unique-token hashes are pandas' SipHash over the
    dictionary's ``to_pandas`` values, non-ASCII tokens included."""
    import pandas as pd

    arr = pa.array(["héllo wörld héllo", "тест слова", None, "emoji 🙂 ok", ""], pa.string())
    tok = tf.tokenize(arr)
    flat = pc.list_flatten(pc.utf8_split_whitespace(arr))
    uniques = np.asarray(flat.filter(pc.greater(pc.binary_length(flat), 0)).dictionary_encode().dictionary.to_pandas(), dtype=object)
    assert list(tok.uniques) == list(uniques)
    np.testing.assert_array_equal(tok.uniq_hash, pd.util.hash_array(uniques, categorize=False).astype(np.uint64))


def test_alt_score_distinct_ratio():
    arr = pa.array(["a b c d", "x x x x", "", "one"], pa.string())
    s = tf.alt_score(arr)
    assert s[0] == 100.0 and s[1] == 25.0 and s[2] == 0.0 and s[3] == 100.0


def test_hashed_bow_deterministic_and_normalized():
    a = tf.hashed_bow(pa.array(["alpha beta gamma", "alpha beta gamma"], pa.string()))
    assert np.allclose(a[0], a[1])
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0)
    b = tf.hashed_bow(pa.array(["alpha beta gamma"], pa.string()))
    assert np.allclose(a[0], b[0])  # cross-batch stability


def test_quality_score_plants():
    good = " ".join(f"word{i}" for i in range(40))
    bad = "#@!$%^&*() " * 20
    s = tf.quality_score(pa.array([good, bad], pa.string()))
    assert s[0] > 80 and s[1] <= 80


def test_parse_score_reference_parity():
    # reference services/openai_service.py:47-59: strip whitespace/quotes,
    # float(), invalid -> None (tests/test_openai_service.py:57-74)
    from teleharvest_ray.functions.textfuncs import parse_score

    cases = [' 85 ', '"92"', "'77.5'", 'not a number', '', None, '1e2', '-3.5', '..5']
    got = parse_score(pa.array(cases, pa.string())).to_pylist()

    def ref(s):
        if s is None:
            return None
        t = s.strip().strip('"\'').strip()
        try:
            return float(t)
        except ValueError:
            return None

    assert got == [ref(c) for c in cases]


def test_embedding_stage_hashed_bow_and_guard(ray_session):
    """The A3 model seam: actor-pool embedding stage matches the hashed_bow
    proxy exactly; a real-model name raises the guarded ImportError."""
    import numpy as np
    import pandas as pd
    import pytest
    import ray.data as rd

    from teleharvest_ray.functions.textfuncs import hashed_bow
    from teleharvest_ray.stages.embed import EmbeddingStage, embed_texts

    texts = ["alpha beta gamma", "", "alpha alpha delta", "epsilon"] * 50
    ds = rd.from_pandas(pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts}))
    out = embed_texts(ds, concurrency=2, batch_size=64).to_pandas().sort_values("doc_id")
    got = np.stack(out.embedding.to_numpy())
    want = hashed_bow(np.asarray(texts, dtype=object))
    assert np.allclose(got, want)
    with pytest.raises(ImportError, match="sentence-transformers"):
        EmbeddingStage(model="all-MiniLM-L6-v2")

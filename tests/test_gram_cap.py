"""Degenerate-gram cap parity: one 4-gram shared by MANY docs must produce a
pair set bounded by the per-gram rank cap, and the SQL mirror
(ROW_NUMBER() OVER (PARTITION BY gram ORDER BY doc_id) <= cap) must reproduce
the ENGINE's capped pair set exactly — the round-4 verdict's cap=2**31 hole,
closed from both sides."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest


def _docs_with_degenerate_gram(n_deg: int) -> pd.DataFrame:
    """n_deg docs all sharing the 4-gram 'c0 c1 c2 c3', plus two docs that
    pair only through a private gram — the cap must not touch those."""
    texts = [f"c0 c1 c2 c3 unique{i}" for i in range(n_deg)]
    texts += ["p0 p1 p2 p3 tail_a", "p0 p1 p2 p3 tail_b"]
    return pd.DataFrame(
        {
            "doc_id": np.arange(len(texts), dtype=np.int64),
            "text": texts,
        }
    )


@pytest.mark.parametrize("cap", [3, 5])
def test_gram_cap_bounds_pairs_and_matches_sql(ray_session, cap, tmp_path):
    import duckdb
    import ray.data as rd

    from teleharvest_ray.stages import dedup as dd

    n_deg = 8
    docs = _docs_with_degenerate_gram(n_deg)
    edges = dd.gram_edges(rd.from_pandas(docs), "text", "doc_id", n=4, cap=cap)
    got = set(zip(edges["id_a"].tolist(), edges["id_b"].tolist()))

    # the degenerate gram contributes pairs among the FIRST cap doc_ids only
    assert len([p for p in got if p[1] < n_deg]) == cap * (cap - 1) // 2
    # the private-gram pair is untouched by the cap
    assert (n_deg, n_deg + 1) in got

    p = tmp_path / "documents.parquet"
    docs.to_parquet(p, index=False)
    exp = duckdb.sql(
        f"""
        WITH d AS (SELECT doc_id, string_split(text, ' ') AS ws
                   FROM read_parquet('{p}')),
        g AS (SELECT DISTINCT doc_id,
                     unnest([array_to_string(ws[i:i+3], ' ')
                             FOR i IN generate_series(1, len(ws) - 3)]) AS gram
              FROM d),
        gc AS (SELECT doc_id, gram,
                      ROW_NUMBER() OVER (PARTITION BY gram ORDER BY doc_id) AS rn
               FROM g),
        e AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b
              FROM gc a JOIN gc b USING (gram)
              WHERE a.doc_id < b.doc_id AND a.rn <= {cap} AND b.rn <= {cap}
              GROUP BY 1, 2)
        SELECT id_a, id_b FROM e ORDER BY 1, 2
        """
    ).df()
    want = set(zip(exp["id_a"].astype(int), exp["id_b"].astype(int)))
    assert got == want


def test_gram_cap_default_is_production_value():
    """The engine and the oracle SQL both read GRAM_CAP; pin its production
    value."""
    from teleharvest_ray.stages import dedup as dd

    assert dd.GRAM_CAP == 2000

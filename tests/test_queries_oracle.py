"""Driver-equivalent oracle comparison: run every queries() entry at sf0.001
and compare row-count + sorted-column value equality against its oracle SQL
via DuckDB (mirrors the driver's CORRECTNESS check)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


@pytest.fixture(scope="module")
def oracle_con():
    import duckdb

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")
    return con


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        elif df[c].dtype == object:
            pass
        else:
            try:
                df[c] = df[c].astype("int64")
            except (TypeError, ValueError):
                pass
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _to_pandas(res):
    import pyarrow as pa
    import ray.data

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    raise TypeError(type(res))


def _oracle_names():
    import __ray_entry__ as e

    return sorted(e.oracle_sql())


@pytest.mark.parametrize("name", _oracle_names())
def test_query_matches_oracle(ray_session, oracle_con, name):
    import __ray_entry__ as e

    got = _canon(_to_pandas(e.queries()[name](SF_DIR)))
    exp = _canon(oracle_con.sql(e.oracle_sql()[name]).df())
    assert list(got.columns) == list(exp.columns), (list(got.columns), list(exp.columns))
    assert len(got) == len(exp), (len(got), len(exp))
    for c in got.columns:
        g, x = got[c], exp[c]
        if pd.api.types.is_float_dtype(g) or pd.api.types.is_float_dtype(x):
            assert np.allclose(g.astype(float), x.astype(float), atol=1e-6, equal_nan=True), c
        else:
            assert g.astype(str).equals(x.astype(str)), f"{name}.{c}"


def test_rows_only_queries_run(ray_session):
    import __ray_entry__ as e

    q = e.queries()
    rows_only = sorted(set(q) - set(e.oracle_sql()))
    for name in rows_only:
        res = _to_pandas(q[name](SF_DIR))
        assert res is not None and len(res) >= 0, name


def test_entry_smoke(ray_session):
    import __ray_entry__ as e

    res = e.entry()
    df = _to_pandas(res)
    assert len(df) > 50
    assert set(df.columns) == {"conv_id", "turn_idx", "check_id", "detail"}


def test_snapshot_diff_collects_only_the_diff(ray_session, monkeypatch):
    """q_snapshot_diff classifies rows in the workers: the rows that reach
    the driver add up to the diff itself, on a table whose rows are ~97%
    unchanged."""
    import pyarrow.parquet as pq
    import ray.data as rd

    import __ray_entry__ as e

    collected = []
    to_pandas = rd.Dataset.to_pandas

    def counting_to_pandas(self, *args, **kw):
        df = to_pandas(self, *args, **kw)
        collected.append(len(df))
        return df

    monkeypatch.setattr(rd.Dataset, "to_pandas", counting_to_pandas)
    out = e.queries()["q_snapshot_diff"](SF_DIR)
    n_docs = pq.ParquetFile(f"{SF_DIR}/documents.parquet").metadata.num_rows
    assert 0 < len(out) < n_docs // 10
    assert sum(collected) == len(out)

"""Deterministic synthetic transcript generator with a planted-violation manifest.

This is the engine's test oracle (FIXTURES.md): it emits Parquet files with the
input_hint schema ``(conv_id, turn_idx, role, text, tool, ts)`` plus the
optional engagement-metric columns (``views, reactions, forwards`` — the
analog of the reference's metrics, ``models/message.py:30-32``), partitioned
into M files by ``hash(conv_id) % M``, a ``conversations.parquet`` index (for
the referential/orphan check), and ``expected_violations.parquet`` listing
every planted violation as ``(conv_id, turn_idx, check_id)`` so tests can
compare the engine's violation table row-exactly.

Everything is seeded numpy — no wall clock, no Python ``hash`` — so the same
parameters always produce byte-identical tables (the "per-turn text equality
under stable (conv_id, turn_idx) ordering" invariant is checked against this).

Planted conditions and the reference behaviour each recasts:

- ``text_missing``    — text null/"" (reference processor.py:98-100)
- ``conv_id_missing`` — conv_id ""   (processor.py:102-104); planted as EXTRA
                        rows so no donor conversation gains a sequence hole
- ``text_too_short``  — len < 200 after trailing-markdown-link strip
                        (processor.py:106-109 — normalize-then-measure order)
- ``stop_word``       — configured substring regex hits, incl. a prefix-match
                        case (processor.py:90-95; tests/test_settings.py:71-77)
- ``low_engagement``  — ER below threshold at volume, non-last row
                        (processor.py:116-119; last-row exemption)
- ``low_score``       — deterministic quality score <= 80 (processor.py:124-127)
- ``low_score_alt``   — rewrite-score <= 85 (processor.py:132-135)
- ``dup_key``         — duplicate (conv_id, turn_idx), in-file and cross-file,
                        plus a burst inside the hot conversation when enabled
                        (PK models/message.py:34-36)
- ``seq_gap``         — turn_idx hole (north_rule referential check)
- ``orphan_conv``     — conv_id absent from conversations index (north_rule)
- ``metrics_missing`` — null views/reactions (processor.py:147-157)
- ``drift``           — whole partitions with skewed role/tool + longer text
                        (north_rule chi-square/KS)
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.hashing import hash_strings

ROLES = np.array(["user", "assistant", "system", "tool"])
ROLE_P = np.array([0.42, 0.42, 0.06, 0.10])
TOOLS = np.array([None, "search", "python", "browser", "calculator"], dtype=object)
TOOL_P = np.array([0.70, 0.10, 0.10, 0.05, 0.05])
ROLE_P_DRIFT = np.array([0.10, 0.20, 0.35, 0.35])
TOOL_P_DRIFT = np.array([0.20, 0.05, 0.05, 0.35, 0.35])

_WORDS = np.array(
    [
        "signal", "window", "batch", "vector", "stream", "merge", "partition",
        "shuffle", "sketch", "column", "record", "schema", "buffer", "index",
        "lineage", "quantile", "histogram", "token", "sequence", "profile",
        "arrow", "parquet", "actor", "block", "spill", "object", "store",
        "reduce", "sample", "filter", "verify", "emit", "resolve", "drift",
    ]
)

STOP_WORD_SAMPLES = ("астролог", "эзотерика", "таро", "гадание")

EPOCH_US = 1_700_000_000_000_000  # fixed base timestamp (2023-11-14), no wall clock
_POOL = 4096  # distinct texts in the body pool (keeps bench-scale gen fast)


@dataclass
class GenSpec:
    n_convs: int = 200
    min_turns: int = 3
    max_turns: int = 40
    n_files: int = 8
    seed: int = 42
    drift_files: int = 1
    hot_conv: bool = False  # one conversation holds ~10% of all turns
    plant: bool = True  # plant violations (False → fully clean data)
    rows_hint: int | None = None  # override n_convs from a target row count


def _text_pool(rng: np.random.Generator, size: int, min_words: int, max_words: int) -> np.ndarray:
    """Pool of sentence-ish texts >= ~220 chars, high alnum ratio, mostly
    distinct words — so quality score (alnum fraction) and rewrite score
    (distinct-word ratio) both pass by construction."""
    counts = rng.integers(min_words, max_words + 1, size)
    words = _WORDS[rng.integers(0, len(_WORDS), int(counts.sum()))].astype(object)
    words = words + rng.integers(0, 99999, len(words)).astype(str).astype(object)
    grp = np.repeat(np.arange(size), counts)
    return pd.Series(words).groupby(grp).agg(" ".join).to_numpy(dtype=object)


def _group_cumsum(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Vectorized per-group cumulative sum for contiguous groups."""
    total = np.cumsum(values)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    offset = np.repeat(total[starts] - values[starts], counts)
    return total - offset


def generate(out_dir: str, spec: GenSpec | None = None, **kw) -> dict:
    """Generate the dataset under ``out_dir``; returns the manifest dict."""
    spec = spec or GenSpec(**kw)
    if spec.rows_hint:
        avg = (spec.min_turns + spec.max_turns) / 2
        spec.n_convs = max(8, int(spec.rows_hint / avg))
    rng = np.random.default_rng(spec.seed)
    os.makedirs(out_dir, exist_ok=True)

    n_norm_files = spec.n_files - spec.drift_files
    assert n_norm_files >= 1

    # --- conversations ---
    conv_ids = np.array([f"conv-{i:08d}" for i in range(spec.n_convs)], dtype=object)
    n_turns = rng.integers(spec.min_turns, spec.max_turns + 1, spec.n_convs)
    if spec.hot_conv:
        n_turns[0] = max(int(n_turns.sum() * 0.1), spec.max_turns * 4)

    drift_conv_mask = np.zeros(spec.n_convs, dtype=bool)
    if spec.drift_files:
        n_drift_convs = max(2, spec.n_convs * spec.drift_files // spec.n_files)
        drift_conv_mask[-n_drift_convs:] = True

    # --- per-turn base frame (vectorized) ---
    rows_conv = np.repeat(conv_ids, n_turns)
    rows_drift = np.repeat(drift_conv_mask, n_turns)
    turn_idx = np.concatenate([np.arange(k) for k in n_turns]).astype(np.int32)
    n = len(rows_conv)

    role = np.where(
        rows_drift, ROLES[rng.choice(4, n, p=ROLE_P_DRIFT)], ROLES[rng.choice(4, n, p=ROLE_P)]
    ).astype(object)
    tool = np.where(rows_drift, TOOLS[rng.choice(5, n, p=TOOL_P_DRIFT)], TOOLS[rng.choice(5, n, p=TOOL_P)])

    pool = _text_pool(rng, min(n, _POOL), 34, 48)
    text = pool[rng.integers(0, len(pool), n)].copy()
    if rows_drift.any():  # drifted partitions: much longer texts (KS target)
        dpool = _text_pool(rng, min(int(rows_drift.sum()), _POOL), 90, 130)
        text[rows_drift] = dpool[rng.integers(0, len(dpool), int(rows_drift.sum()))]

    conv_base = rng.integers(0, 90 * 86400, spec.n_convs) * 1_000_000 + EPOCH_US
    step = (rng.integers(1, 600, n) * 1_000_000).astype(np.int64)
    ts_us = np.repeat(conv_base, n_turns) + _group_cumsum(step, n_turns)

    views = rng.integers(60, 2000, n).astype(np.float64)
    er_target = rng.uniform(0.03, 0.3, n)  # always above min_er=0.025
    # ceil keeps realized ER >= er_target > min_er for every unplanted row
    reactions = np.ceil(views * er_target * 0.7)
    forwards = np.ceil(views * er_target * 0.3)

    df = pd.DataFrame(
        {
            "conv_id": rows_conv, "turn_idx": turn_idx, "role": role, "text": text,
            "tool": tool, "ts": ts_us, "views": views, "reactions": reactions,
            "forwards": forwards, "_drift": rows_drift,
        }
    )

    expected: list[tuple[str, int, str]] = []
    drop_rows: list[int] = []
    extra_frames: list[pd.DataFrame] = []

    if spec.plant:
        # victims: non-drift, strictly-interior turns, one plant per conversation
        last_of_conv = df.groupby("conv_id")["turn_idx"].transform("max")
        eligible = (~df["_drift"]) & (df["turn_idx"] > 0) & (df["turn_idx"] < last_of_conv)
        if spec.hot_conv:
            # keep the hot conversation plant-free: it is the dup-burst target,
            # and a seq_gap drop there could be silently refilled by a dup copy
            eligible &= df["conv_id"] != conv_ids[0]
        elig_idx = df.index[eligible].to_numpy()
        rng.shuffle(elig_idx)
        first_per_conv = pd.Series(elig_idx).groupby(df.loc[elig_idx, "conv_id"].to_numpy()).first()
        picks = first_per_conv.to_numpy().tolist()
        rng.shuffle(picks)
        k = int(min(2000, max(2, n // 400)))
        it = iter(picks)

        def take(m):
            out = []
            for _ in range(m):
                try:
                    out.append(next(it))
                except StopIteration:
                    break
            return out

        for j, i in enumerate(take(k)):  # text_missing: null and ""
            df.at[i, "text"] = None if (j % 2 == 0) else ""
            expected.append((df.at[i, "conv_id"], int(df.at[i, "turn_idx"]), "text_missing"))
        # conv_id_missing: EXTRA rows with empty conv_id and unique turn_idx
        # (unique so they don't also collide into dup_key)
        cm_rows = []
        base_text = pool[0]
        for j in range(k):
            cm_rows.append(
                {
                    "conv_id": "", "turn_idx": np.int32(1_000_000 + j), "role": "user",
                    "text": base_text, "tool": None, "ts": EPOCH_US + j,
                    "views": 100.0, "reactions": 10.0, "forwards": 5.0, "_drift": False,
                }
            )
            expected.append(("", 1_000_000 + j, "conv_id_missing"))
        extra_frames.append(pd.DataFrame(cm_rows))
        for i in take(k):  # text_too_short after trailing-link strip
            df.at[i, "text"] = ("short words here " * 3).strip() + " [ref](https://example.com/x)"
            expected.append((df.at[i, "conv_id"], int(df.at[i, "turn_idx"]), "text_too_short"))
        for j, i in enumerate(take(k)):  # stop_word (text stays >=200 chars)
            sw = STOP_WORD_SAMPLES[j % len(STOP_WORD_SAMPLES)]
            df.at[i, "text"] = str(df.at[i, "text"]) + " " + sw + " hit"
            expected.append((df.at[i, "conv_id"], int(df.at[i, "turn_idx"]), "stop_word"))
        for i in take(k):  # low_engagement: high views, tiny er, interior row
            df.at[i, "views"] = 5000.0
            df.at[i, "reactions"] = 1.0
            df.at[i, "forwards"] = 0.0
            expected.append((df.at[i, "conv_id"], int(df.at[i, "turn_idx"]), "low_engagement"))
        for i in take(k):  # low_score: flood with non-alnum symbols
            df.at[i, "text"] = ("#@!$%^&*()" * 12) + " " + str(df.at[i, "text"])[:140].ljust(140, "x")
            expected.append((df.at[i, "conv_id"], int(df.at[i, "turn_idx"]), "low_score"))
        for i in take(k):  # low_score_alt: alnum-heavy but one word repeated
            df.at[i, "text"] = ("repeatedword " * 20).strip().ljust(260, "y")
            expected.append((df.at[i, "conv_id"], int(df.at[i, "turn_idx"]), "low_score_alt"))
        for j, i in enumerate(take(k)):  # metrics_missing: null metric columns
            if j % 2 == 0:
                df.at[i, "views"] = np.nan
            df.at[i, "reactions"] = np.nan
            expected.append((df.at[i, "conv_id"], int(df.at[i, "turn_idx"]), "metrics_missing"))
        for i in take(k):  # seq_gap: drop this interior row → hole
            expected.append((df.at[i, "conv_id"], int(df.at[i, "turn_idx"]), "seq_gap"))
            drop_rows.append(i)

        # --- dup_key: copy clean rows; half stay in-file, half cross-file ---
        planted_convs = {c for c, _, _ in expected}
        clean = df.index[
            ~df["conv_id"].isin(planted_convs) & ~df["_drift"] & (df["conv_id"] != "")
        ].to_numpy()
        kd = int(min(2000, max(2, n // 600)))
        dup_idx = np.unique(clean[rng.integers(0, len(clean), 2 * kd)])
        if spec.hot_conv:
            hot_rows = df.index[df["conv_id"] == conv_ids[0]].to_numpy()
            hot_dups = np.unique(hot_rows[rng.integers(0, len(hot_rows), max(4, kd))])
            dup_idx = np.unique(np.concatenate([dup_idx, hot_dups]))
        for i in dup_idx:
            expected.append((df.at[i, "conv_id"], int(df.at[i, "turn_idx"]), "dup_key"))
        dups = df.loc[dup_idx].copy()
        # first half: same file as original (hash routing); second: shifted file
        shift = np.zeros(len(dups), dtype=np.int64)
        shift[len(dups) // 2 :] = 1 + rng.integers(0, max(1, n_norm_files - 1), len(dups) - len(dups) // 2)
        dups["_file_shift"] = shift
        extra_frames.append(dups)

        # --- orphan convs: rows whose conv_id is absent from the index ---
        ko = int(min(200, max(1, spec.n_convs // 100)))
        o_rows = []
        opool = _text_pool(rng, min(4 * ko, _POOL), 34, 48)
        for oi in range(ko):
            oc = f"orphan-{oi:04d}"
            m = int(rng.integers(2, 5))
            base_ts = EPOCH_US + int(rng.integers(0, 90 * 86400)) * 1_000_000
            for t in range(m):
                o_rows.append(
                    {
                        "conv_id": oc, "turn_idx": np.int32(t), "role": "user",
                        "text": opool[(oi * 4 + t) % len(opool)], "tool": None,
                        "ts": base_ts + t * 60_000_000,
                        "views": 100.0, "reactions": 10.0, "forwards": 5.0, "_drift": False,
                    }
                )
            expected.append((oc, -1, "orphan_conv"))
        extra_frames.append(pd.DataFrame(o_rows))

    df = df.drop(index=drop_rows)
    if extra_frames:
        df = pd.concat([df] + extra_frames, ignore_index=True)
    if "_file_shift" not in df.columns:
        df["_file_shift"] = 0
    df["_file_shift"] = df["_file_shift"].fillna(0).astype(np.int64)
    df = df.reset_index(drop=True)

    # --- file assignment: hash(conv_id) % n_norm_files (+shift for cross-file
    #     dups); drift convs route to the dedicated drift files ---
    h = hash_strings(df["conv_id"].to_numpy(object))
    file_id = ((h % np.uint64(n_norm_files)).astype(np.int64) + df["_file_shift"].to_numpy()) % n_norm_files
    dmask = df["_drift"].to_numpy()
    if spec.drift_files and dmask.any():
        file_id[dmask] = n_norm_files + (h[dmask] % np.uint64(spec.drift_files)).astype(np.int64)
    if spec.hot_conv:
        # spread the hot conversation over files in turn-index blocks: one
        # giant file would be a straggler partition (file-size skew, distinct
        # from the key skew the full-key hash defuses). Cross-file convs are
        # fully supported: sequence partials merge across blocks and the
        # last-turn ER exemption is batch-local by definition.
        hmask = (df["conv_id"] == conv_ids[0]).to_numpy()
        file_id[hmask] = (df["turn_idx"].to_numpy()[hmask].astype(np.int64) // 4096) % n_norm_files
    df["_file"] = file_id

    drift_parts = []
    for f in range(n_norm_files, spec.n_files):
        pid = f"part-{f:05d}"
        drift_parts.append(pid)
        expected.append((f"partition:{pid}", -1, "drift"))

    # --- write parquet files (stable within-file order) ---
    df = df.sort_values(["_file", "conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
    files = []
    for f in range(spec.n_files):
        part = df[df["_file"] == f]
        pid = f"part-{f:05d}"
        tbl = pa.table(
            {
                "conv_id": pa.array(part["conv_id"].to_numpy(object), pa.string()),
                "turn_idx": pa.array(part["turn_idx"].to_numpy(np.int32), pa.int32()),
                "role": pa.array(part["role"].to_numpy(object), pa.string()),
                "text": pa.array(part["text"].to_numpy(object), pa.string()),
                "tool": pa.array(part["tool"].to_numpy(object), pa.string()),
                "ts": pa.array(part["ts"].to_numpy(np.int64).astype("datetime64[us]")),
                "views": pa.array(pd.array(part["views"], dtype="Int64")),
                "reactions": pa.array(pd.array(part["reactions"], dtype="Int64")),
                "forwards": pa.array(pd.array(part["forwards"], dtype="Int64")),
            }
        )
        path = os.path.join(out_dir, f"{pid}.parquet")
        pq.write_table(tbl, path, row_group_size=64 * 1024)
        files.append(path)

    # --- conversations index (orphans intentionally absent) ---
    pq.write_table(
        pa.table({"conv_id": pa.array(conv_ids, pa.string()), "n_turns": pa.array(n_turns, pa.int64())}),
        os.path.join(out_dir, "conversations.parquet"),
    )

    # --- expected violations ---
    exp_df = pd.DataFrame(expected, columns=["conv_id", "turn_idx", "check_id"]).drop_duplicates()
    exp_df["turn_idx"] = exp_df["turn_idx"].astype("int32")
    pq.write_table(
        pa.Table.from_pandas(exp_df, preserve_index=False),
        os.path.join(out_dir, "expected_violations.parquet"),
    )

    manifest = {
        "spec": {key: (v.item() if isinstance(v, np.generic) else v) for key, v in vars(spec).items()},
        "n_rows": int(len(df)),
        "n_convs": int(spec.n_convs),
        "files": [os.path.basename(f) for f in files],
        "drift_partitions": drift_parts,
        "n_expected_violations": int(len(exp_df)),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest

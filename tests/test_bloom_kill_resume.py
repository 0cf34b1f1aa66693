"""Bloom-filter orphan path + hard-kill resume (the north_rule resume test:
kill -9 mid-run, restart, only unfinished partitions revalidate, outputs
identical to an uninterrupted run)."""

from __future__ import annotations

import glob
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from teleharvest_ray.config import ValidationConfig
from teleharvest_ray.functions.bloom import BloomFilter
from teleharvest_ray.sources.datagen import GenSpec, generate


def test_bloom_filter_membership():
    keys = [f"conv-{i:06d}" for i in range(50_000)]
    bf = BloomFilter.from_strings(keys, fpp=0.01)
    assert bf.contains_strings(np.asarray(keys[:5000], dtype=object)).all()
    probes = np.asarray([f"orphan-{i}" for i in range(20_000)], dtype=object)
    fp_rate = bf.contains_strings(probes).mean()
    assert fp_rate < 0.03, fp_rate


def test_keyspace_bloom_path_matches_manifest(ray_session, keyspace_sidecars, tmp_path):
    d = str(tmp_path / "bloomdata")
    generate(d, GenSpec(n_convs=120, n_files=4, seed=77))
    files = sorted(glob.glob(d + "/part-*.parquet"))
    from teleharvest_ray.stages.keyspace import build_bloom_index, keyspace_from_states

    # the Bloom membership path, as run_validation takes it above
    # keyspace._ORPHAN_BLOOM_IDS index ids
    parts = keyspace_sidecars(files, str(tmp_path))
    vio = keyspace_from_states(parts, build_bloom_index(d + "/conversations.parquet")).to_pandas()
    exp = pq.read_table(d + "/expected_violations.parquet").to_pandas()
    exp = exp[exp.check_id.isin({"dup_key", "seq_gap", "orphan_conv"})]
    got = set(map(tuple, vio[["conv_id", "turn_idx", "check_id"]].drop_duplicates().itertuples(index=False)))
    want = set(map(tuple, exp.itertuples(index=False)))
    # bloom may MISS an orphan (false positive membership) but never invents
    # one; at this size FPP≈1% so equality is overwhelmingly likely
    assert got == want


KILL_SCRIPT = """
import sys
sys.argv = ["prog", "validate", "--data", sys.argv[1], "--out", sys.argv[2]]
from teleharvest_ray.__main__ import main
main(sys.argv[1:])
"""


def test_kill9_resume_identical(tmp_path):
    d, o1, o2 = str(tmp_path / "kd"), str(tmp_path / "killed_out"), str(tmp_path / "clean_out")
    generate(d, GenSpec(n_convs=150, n_files=10, seed=55))
    env = dict(os.environ, RAY_ADDRESS="local")
    # start a validation subprocess and SIGKILL it once >=1 checkpoint exists
    proc = subprocess.Popen(
        [sys.executable, "-m", "teleharvest_ray", "validate", "--data", d, "--out", o1],
        cwd="/root/repo", env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    ckdir = os.path.join(o1, "checkpoints")
    deadline = time.time() + 180
    while time.time() < deadline:
        done = glob.glob(os.path.join(ckdir, "part-*.json"))
        if len(done) >= 2:
            break
        if proc.poll() is not None:
            break
        time.sleep(0.3)
    killed_mid_run = proc.poll() is None
    if killed_mid_run:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    n_ck = len(glob.glob(os.path.join(ckdir, "part-*.json")))
    # resume (fresh process, same out dir)
    r = subprocess.run(
        [sys.executable, "-m", "teleharvest_ray", "validate", "--data", d, "--out", o1],
        cwd="/root/repo", env=env, capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-800:]
    s = json.loads(r.stdout.strip().splitlines()[-1])
    if killed_mid_run:
        assert s["n_resumed"] == n_ck  # only unfinished partitions revalidated
    # uninterrupted control run → identical violation set
    r2 = subprocess.run(
        [sys.executable, "-m", "teleharvest_ray", "validate", "--data", d, "--out", o2],
        cwd="/root/repo", env=env, capture_output=True, text=True, timeout=300,
    )
    assert r2.returncode == 0, r2.stderr[-800:]
    from teleharvest_ray.pipelines.validate import read_violations

    k = lambda df: set(
        map(tuple, df[["conv_id", "turn_idx", "check_id"]].drop_duplicates().itertuples(index=False))
    )
    assert k(read_violations(o1)) == k(read_violations(o2))


def test_distributed_bloom_build_matches_local(ray_session, tmp_path):
    """Per-block partial Blooms OR-merge to exactly the filter a single-pass
    local build produces (identical (n, fpp) params in every task)."""
    import pyarrow as pa

    from teleharvest_ray.stages.keyspace import build_bloom_index

    ids = np.asarray([f"conv-{i:05d}" for i in range(3000)], dtype=object)
    path = str(tmp_path / "idx.parquet")
    pq.write_table(pa.table({"conv_id": pa.array(ids, pa.string())}), path)
    bf_dist = build_bloom_index(path)
    bf_local = BloomFilter.from_strings(ids)
    assert (bf_dist.m_bits, bf_dist.k) == (bf_local.m_bits, bf_local.k)
    assert np.array_equal(bf_dist.bits, bf_local.bits)


def test_validation_bloom_path_distributed_and_manifest_exact(ray_session, tmp_path, monkeypatch):
    """Above _ORPHAN_BLOOM_IDS the driver builds the membership index
    via the distributed partial-Bloom path (never materializing the id
    list), and the orphan manifest stays row-exact."""
    import teleharvest_ray.pipelines.validate as V
    from teleharvest_ray.pipelines.validate import read_violations, run_validation
    from teleharvest_ray.stages import keyspace

    d = str(tmp_path / "bd")
    generate(d, GenSpec(n_convs=120, n_files=4, seed=78))
    calls = []
    orig_build = V.build_bloom_index
    monkeypatch.setattr(V, "build_bloom_index", lambda p, **k: (calls.append(p), orig_build(p, **k))[1])
    # fail loudly if anything driver-side asks for the full id column
    orig_read = V.pq.read_table

    def guarded_read(path, *a, **k):
        if str(path).endswith("conversations.parquet"):
            raise AssertionError("driver materialized the conversations id list")
        return orig_read(path, *a, **k)

    monkeypatch.setattr(V.pq, "read_table", guarded_read)
    monkeypatch.setattr(keyspace, "_ORPHAN_BLOOM_IDS", 1)
    out = str(tmp_path / "out")
    run_validation(d, out, ValidationConfig())
    assert calls, "distributed bloom build was not invoked"
    exp = pq.read_table(d + "/expected_violations.parquet").to_pandas()
    exp_orph = exp[exp.check_id == "orphan_conv"]
    got = read_violations(out)
    got_orph = got[got.check_id == "orphan_conv"]
    assert set(got_orph.conv_id) == set(exp_orph.conv_id)

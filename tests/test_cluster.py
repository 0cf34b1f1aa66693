"""Connected-components clustering: local kernel vs brute-force BFS,
distributed-path equivalence (threshold forced to 0), singleton attachment,
and cluster stats."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

import teleharvest_ray.stages.cluster as cl
import teleharvest_ray.stages.joins as jn


def _brute_cc(u, v, nodes):
    adj = {}
    for a, b in zip(u, v):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    label = {}
    for start in sorted(set(nodes) | set(adj)):
        if start in label:
            continue
        comp, stack = [], [start]
        seen = {start}
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        m = min(comp)
        for x in comp:
            label[x] = m
    return pd.DataFrame(
        {"node": sorted(label), "cluster_id": [label[k] for k in sorted(label)]}
    ).astype("int64")


def test_cc_local_vs_brute_force():
    rng = np.random.default_rng(5)
    for trial in range(30):
        n_nodes = int(rng.integers(2, 120))
        n_edges = int(rng.integers(0, 200))
        ids = rng.choice(10_000, n_nodes, replace=False).astype(np.int64)
        u = rng.choice(ids, n_edges)
        v = rng.choice(ids, n_edges)
        got = cl.cc_local(u, v, nodes=ids)
        want = _brute_cc(u, v, ids)
        pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


def test_cc_local_chain_converges_logarithmically():
    # a 10k-node path graph is the worst case for plain min-propagation
    # (diameter rounds); pointer halving must crack it fast and exactly
    n = 10_000
    u = np.arange(n - 1, dtype=np.int64)
    v = u + 1
    got = cl.cc_local(u, v)
    assert (got["cluster_id"] == 0).all() and len(got) == n


def test_cc_local_empty():
    got = cl.cc_local(np.empty(0, np.int64), np.empty(0, np.int64))
    assert len(got) == 0 and list(got.columns) == ["node", "cluster_id"]


def _mk_graph(seed=11, n_nodes=300, n_edges=250):
    rng = np.random.default_rng(seed)
    ids = rng.choice(100_000, n_nodes, replace=False).astype(np.int64)
    edges = pd.DataFrame(
        {"id_a": rng.choice(ids, n_edges), "id_b": rng.choice(ids, n_edges)}
    )
    edges = edges[edges.id_a != edges.id_b].reset_index(drop=True)
    return ids, edges


def test_connected_components_distributed_matches_local(ray_session, monkeypatch):
    ids, edges = _mk_graph()
    local = (
        cl.connected_components(rd.from_pandas(edges), nodes=rd.from_pandas(pd.DataFrame({"doc_id": ids})))
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(cl, "_LOCAL_CC_EDGES", 0)
    monkeypatch.setattr(jn, "_BROADCAST_KEY_ROWS", 0)  # singleton anti-join shuffled too
    dist = (
        cl.connected_components(
            rd.from_pandas(edges),
            nodes=rd.from_pandas(pd.DataFrame({"doc_id": ids})),
            n_buckets=8,
        )
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(local, dist, check_dtype=False)
    want = _brute_cc(edges.id_a.to_numpy(), edges.id_b.to_numpy(), ids)
    pd.testing.assert_frame_equal(local.astype("int64"), want)
    assert len(local) == len(ids)  # every node labeled, singletons included


def test_cluster_stats_sizes_and_keep(ray_session):
    labels = pd.DataFrame(
        {"node": [1, 2, 3, 7, 9], "cluster_id": [1, 1, 1, 7, 9]}
    )
    out = (
        cl.cluster_stats(rd.from_pandas(labels))
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    assert out["cluster_size"].tolist() == [3, 3, 3, 1, 1]
    assert out["keep"].tolist() == [1, 0, 0, 1, 1]


def test_gram_edges_matches_sql_semantics(ray_session):
    import duckdb

    import teleharvest_ray.stages.dedup as dd

    docs = pd.DataFrame(
        {
            "doc_id": np.arange(6, dtype=np.int64),
            "text": [
                "the quick brown fox jumps",
                "a quick brown fox jumps high",  # shares "quick brown fox jumps"
                "totally different words here now",
                "the quick brown fox jumps",  # exact dup of doc 0
                None,
                "short text",  # <4 words: no grams
            ],
        }
    )
    got = dd.gram_edges(rd.from_pandas(docs), "text", "doc_id", n=4)
    got = got.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    exp = duckdb.sql(
        """
        WITH d AS (SELECT doc_id, string_split(text, ' ') AS ws FROM docs),
        g AS (SELECT DISTINCT doc_id,
                     unnest([array_to_string(ws[i:i+3], ' ') FOR i IN generate_series(1, len(ws) - 3)]) AS gram
              FROM d),
        e AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b
              FROM g a JOIN g b USING (gram) WHERE a.doc_id < b.doc_id GROUP BY 1, 2)
        SELECT * FROM e ORDER BY id_a, id_b
        """
    ).df().astype("int64")
    pd.testing.assert_frame_equal(got.astype("int64"), exp)
    assert {(0, 1), (0, 3), (1, 3)} <= set(zip(exp.id_a, exp.id_b))


def _toy_embeddings(n=300, dim=8, k_true=3, seed=11):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 1, (k_true, dim))
    pts = centers[rng.integers(0, k_true, n)] + rng.normal(0, 0.1, (n, dim))
    return pd.DataFrame(
        {"vec_id": np.arange(n, dtype=np.int64), "embedding": list(pts.astype(np.float32))}
    )


def test_kmeans_partition_invariant(ray_session):
    df = _toy_embeddings()
    outs = []
    for parts in (1, 9):
        asg, cids, cents = cl.kmeans_quantized(
            rd.from_pandas(df).repartition(parts), k=3, iters=2
        )
        outs.append(asg.to_pandas().sort_values("vec_id").reset_index(drop=True))
    # exact int64 partial sums => centroids, hence assignments, are
    # bit-identical under any blocking
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_kmeans_recovers_separated_clusters(ray_session):
    df = _toy_embeddings()
    asg, cids, cents = cl.kmeans_quantized(rd.from_pandas(df), k=3, iters=4)
    out = asg.to_pandas()
    # well-separated blobs: every k-means cluster should be pure w.r.t. the
    # generating center (check via majority purity >= 95%)
    pts = np.stack(df.embedding.to_numpy()).astype(np.float64)
    gen_centers = {}
    for c in out.cluster.unique():
        ids = out[out.cluster == c].vec_id.to_numpy()
        gen_centers[c] = pts[ids].mean(axis=0)
    # inertia under final centroids <= inertia under initial seeds
    from teleharvest_ray.stages.cluster import _seq_sq_dists

    q = np.floor(pts * 10000.0)
    d_final = _seq_sq_dists(q, cents).min(axis=1).sum()
    seeds = q[np.argsort(df.vec_id.to_numpy())[:3]]
    d_init = _seq_sq_dists(q, seeds).min(axis=1).sum()
    assert d_final <= d_init


def test_kmeans_handles_more_k_than_natural_clusters(ray_session):
    # k=5 over 2 tight blobs: some clusters may empty out; the live set
    # shrinks without error and every point still gets a label
    rng = np.random.default_rng(3)
    pts = np.concatenate(
        [rng.normal(0, 0.01, (40, 4)), rng.normal(5, 0.01, (40, 4))]
    ).astype(np.float32)
    df = pd.DataFrame({"vec_id": np.arange(80, dtype=np.int64), "embedding": list(pts)})
    asg, cids, cents = cl.kmeans_quantized(rd.from_pandas(df).repartition(4), k=5, iters=3)
    out = asg.to_pandas()
    assert len(out) == 80
    assert set(out.cluster).issubset(set(cids.tolist()))
    assert len(set(out.cluster)) <= 5


# ---------------------------------------------------------------------------
# PageRank
# ---------------------------------------------------------------------------


def test_pagerank_local_hand_example():
    import numpy as np
    from teleharvest_ray.stages import cluster as cl

    # path graph 1-2-3: deg = (1, 2, 1)
    out = cl.pagerank_local(np.array([1, 2]), np.array([2, 3]), iters=1)
    # r0 = 1e6 each; contribs: 1->2: 1e6, 2->1: 5e5, 2->3: 5e5, 3->2: 1e6
    # r1 = 150000 + 850*s//1000 -> ends: 575000, middle: 1850000
    assert out.set_index("node")["rank_ppm"].to_dict() == {
        1: 575000, 2: 1850000, 3: 575000
    }


def test_pagerank_distributed_equals_local(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from teleharvest_ray.stages import cluster as cl

    rng = np.random.default_rng(17)
    n_nodes = 400
    edges = pd.DataFrame(
        {
            # node 399 gets ONLY a self-loop: both paths must drop it from the
            # edge-derived rank set identically (it re-enters via nodes= at
            # the teleport floor)
            "id_a": np.r_[rng.integers(0, n_nodes - 1, 1500), 399].astype(np.int64),
            "id_b": np.r_[rng.integers(0, n_nodes - 1, 1500), 399].astype(np.int64),
        }
    )
    nodes = rd.from_pandas(pd.DataFrame({"doc_id": np.arange(n_nodes + 50, dtype=np.int64)}))
    loc = (
        cl.pagerank(edges, nodes=nodes, iters=3)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    dist = (
        cl.pagerank(edges, nodes=nodes, iters=3, edge_threshold=0, n_buckets=8)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    assert loc.astype("int64").equals(dist.astype("int64"))
    # isolated nodes sit at the teleport floor
    iso = loc[loc.node >= n_nodes]
    assert (iso.rank_ppm == cl.PR_BASE_PPM).all() and len(iso) == 50


def test_triangle_counts_matches_bruteforce():
    import numpy as np
    import pandas as pd
    from collections import Counter
    from teleharvest_ray.stages import cluster as cl

    rng = np.random.default_rng(5)
    edges = pd.DataFrame(
        {
            # includes duplicates, reversed orientations, and self-loops —
            # the kernel must canonicalize all three
            "id_a": rng.integers(0, 60, 800).astype(np.int64),
            "id_b": rng.integers(0, 60, 800).astype(np.int64),
        }
    )
    got = cl.triangle_counts(edges)
    adj: dict[int, set[int]] = {}
    seen = set()
    for a, b in edges.itertuples(index=False):
        if a == b:
            continue
        lo, hi = (a, b) if a < b else (b, a)
        seen.add((lo, hi))
        adj.setdefault(lo, set()).add(hi)
        adj.setdefault(hi, set()).add(lo)
    cnt: Counter = Counter()
    for a, b in seen:
        for c in adj[a] & adj[b]:
            if c > b:
                cnt[a] += 1
                cnt[b] += 1
                cnt[c] += 1
    exp = pd.DataFrame(sorted(cnt.items()), columns=["node", "n_triangles"]).astype("int64")
    assert got.reset_index(drop=True).equals(exp)
    # empty / loop-only inputs yield typed empty frames
    e0 = cl.triangle_counts(pd.DataFrame({"id_a": [3], "id_b": [3]}))
    assert list(e0.columns) == ["node", "n_triangles"] and not len(e0)


def test_hits_local_matches_bruteforce():
    import numpy as np
    import pandas as pd
    from teleharvest_ray.stages import cluster as cl

    rng = np.random.default_rng(11)
    u = rng.integers(0, 40, 300).astype(np.int64)
    v = rng.integers(0, 40, 300).astype(np.int64)
    got = cl.hits_local(u, v, iters=2)
    # independent scalar-loop replica of the integer-ppm recurrence
    keep = u != v
    edges = sorted(set(zip(u[keep].tolist(), v[keep].tolist())))
    nodes = sorted({a for a, _ in edges} | {b for _, b in edges})
    hub = {x: 1_000_000 for x in nodes}
    auth = {x: 0 for x in nodes}
    for _ in range(2):
        acc = {x: 0 for x in nodes}
        for a, b in edges:
            acc[b] += hub[a]
        mx = max(max(acc.values()), 1)
        auth = {x: val * 1_000_000 // mx for x, val in acc.items()}
        acc = {x: 0 for x in nodes}
        for a, b in edges:
            acc[a] += auth[b]
        mx = max(max(acc.values()), 1)
        hub = {x: val * 1_000_000 // mx for x, val in acc.items()}
    exp = pd.DataFrame(
        {"node": nodes, "hub_ppm": [hub[x] for x in nodes], "auth_ppm": [auth[x] for x in nodes]}
    ).astype("int64")
    assert got.reset_index(drop=True).equals(exp)
    e0 = cl.hits_local(np.array([5]), np.array([5]), iters=2)
    assert list(e0.columns) == ["node", "hub_ppm", "auth_ppm"] and not len(e0)


def test_hits_distributed_equals_local(ray_session):
    import numpy as np
    import pandas as pd
    from teleharvest_ray.stages import cluster as cl

    rng = np.random.default_rng(23)
    edges = pd.DataFrame(
        {
            # duplicates, self-loops, and a sink-only node — both paths must
            # canonicalize identically
            "id_a": np.r_[rng.integers(0, 80, 600), 99, 7].astype(np.int64),
            "id_b": np.r_[rng.integers(0, 80, 600), 99, 99].astype(np.int64),
        }
    )
    loc = (
        cl.hits(edges, iters=2)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    dist = (
        cl.hits(edges, iters=2, edge_threshold=0, n_buckets=8)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    assert loc.astype("int64").equals(dist.astype("int64"))
    assert len(loc) > 0


def test_triangles_distributed_equals_local(ray_session):
    import numpy as np
    import pandas as pd
    from teleharvest_ray.stages import cluster as cl

    rng = np.random.default_rng(29)
    edges = pd.DataFrame(
        {
            "id_a": rng.integers(0, 60, 800).astype(np.int64),
            "id_b": rng.integers(0, 60, 800).astype(np.int64),
        }
    )
    loc = (
        cl.triangles(edges)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    dist = (
        cl.triangles(edges, edge_threshold=0, n_buckets=8)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    assert loc.astype("int64").equals(dist.astype("int64"))
    assert loc["n_triangles"].sum() > 0  # the random graph has triangles


@pytest.mark.parametrize("bad_id", [-1, 2**31])
def test_triangle_packing_rejects_ids_outside_31_bits(ray_session, bad_id):
    """The distributed path packs (b, c) into one int64 key, so a node id
    that is negative or does not fit 31 bits must raise, not miscount."""
    edges = pd.DataFrame({"id_a": [bad_id, bad_id, 1], "id_b": [1, 2, 2]}, dtype="int64")
    with pytest.raises(Exception, match=r"node ids in \[0, 2\*\*31\)"):
        cl.triangles(edges, edge_threshold=0, n_buckets=2).materialize()


def test_bfs_distributed_equals_local(ray_session):
    import numpy as np
    import pandas as pd
    from teleharvest_ray.stages import cluster as cl

    rng = np.random.default_rng(31)
    # two components: seeds component reachable in <=4 hops, other untouched
    chain = pd.DataFrame(
        {
            "id_a": np.r_[np.arange(0, 12), rng.integers(0, 12, 100), [500, 501]],
            "id_b": np.r_[np.arange(1, 13), rng.integers(0, 12, 100), [501, 502]],
        }
    ).astype(np.int64)
    loc = (
        cl.bfs(chain, seed=0, max_level=4)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    dist = (
        cl.bfs(chain, seed=0, max_level=4, edge_threshold=0, n_buckets=8)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert loc.astype("int64").equals(dist.astype("int64"))
    assert int(loc.loc[loc.doc_id == 0, "level"].iloc[0]) == 0
    assert loc["level"].max() <= 4
    assert not (loc["doc_id"] >= 500).any()  # other component untouched

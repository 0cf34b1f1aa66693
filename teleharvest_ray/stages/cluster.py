"""Connected-components clustering — dedup groups from candidate pairs.

Near-dup detection (MinHash/SimHash/embedding, ``stages/dedup.py``) emits
PAIRS; keeping one canonical document per duplicate *group* needs the
transitive closure: connected components over the pair graph, cluster id =
the minimum doc id in the component, ``keep`` = 1 for that canonical row.

Two paths, size-dispatched like every pairing op in this repo:

- **local kernel** (:func:`cc_local`): vectorized min-label fixpoint over the
  edge arrays — per round, one pandas groupby-min scatters each edge's
  smaller endpoint label to both endpoints, then pointer-halving
  (``label = label[label]``) shortcuts chains, so rounds are
  O(log diameter), each round all-C kernels (no per-edge Python). Candidate
  pair sets are anomaly-sized by construction (the LSH pairing collects only
  candidate pairs), so this is the common case even at corpus scale.
- **distributed rounds** (:func:`connected_components` above
  :data:`_LOCAL_CC_EDGES`): the alternating large-star / small-star
  algorithm (Kiveris et al., "Connected Components in MapReduce and
  Beyond", SoCC 2014 — public). Each half-round is ONE
  groupby(hash(node) % P) shuffle with a fully vectorized per-partition
  kernel (lexsort + segment-min); the edge set stays bounded by the input
  edge count + node count, converges to disjoint min-rooted stars in
  O(log^2 n) rounds, and nothing corpus-sized ever reaches the driver.
  Convergence is witnessed by a (count, sum, xor-hash) fingerprint of the
  round's edge set — stable iff the star fixpoint is reached (an earlier
  join-based label-propagation design was scrapped: ~6 shuffles/round and
  pathological per-round cost growth measured 3.4→6.3→35→300+ s/round).

Reference analog: the duplicate-group collapse implied by the reference's
unique-message constraint (``/root/reference/models/message.py:28-42``) —
recast as a graph problem so near-dup groups (not just exact-key groups)
collapse to one canonical row.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd
from ray.data import Dataset
from ray.data.aggregate import Min

from . import joins as jn

#: edge-count threshold below which CC runs driver-local. Candidate pair
#: sets are anomaly-sized (LSH verification emits only near-dup pairs), so
#: real corpora rarely cross this; the distributed path is the 10^9-node
#: escape hatch, equivalence-tested by forcing the threshold to 0.
_LOCAL_CC_EDGES = 5_000_000


def cc_local(
    u: np.ndarray, v: np.ndarray, nodes: np.ndarray | None = None
) -> pd.DataFrame:
    """Connected components over int64 edge arrays; returns a frame
    ``(node, cluster_id)`` sorted by node, one row per node (singletons from
    ``nodes`` included with ``cluster_id == node``).

    Min-label fixpoint with pointer halving: labels are POSITIONS into the
    sorted node array (so ``label[label]`` is valid and position order equals
    node-id order), each round scatter-mins edge labels via ONE pandas
    groupby (C kernel — ``np.minimum.at`` is scalar-looped and reduceat is
    slow on this numpy build), then halves pointers. Rounds are
    O(log diameter); dedup clusters are near-cliques so 2-3 rounds typical.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    parts = [u, v] + ([np.asarray(nodes, dtype=np.int64)] if nodes is not None else [])
    all_nodes = np.unique(np.concatenate(parts)) if len(parts[0]) or nodes is not None else np.empty(0, np.int64)
    if not len(all_nodes):
        return pd.DataFrame({"node": pd.Series(dtype="int64"), "cluster_id": pd.Series(dtype="int64")})
    eu = np.searchsorted(all_nodes, u)
    ev = np.searchsorted(all_nodes, v)
    label = np.arange(len(all_nodes), dtype=np.int64)
    while True:
        m = np.minimum(label[eu], label[ev])
        tgt = np.concatenate([eu, ev])
        val = np.concatenate([m, m])
        upd = pd.Series(val).groupby(pd.Series(tgt), sort=False).min()
        new = label.copy()
        idx = upd.index.to_numpy()
        new[idx] = np.minimum(new[idx], upd.to_numpy())
        new = new[new]  # pointer halving: label <- label(label)
        if np.array_equal(new, label):
            break
        label = new
    # fixpoint of (scatter-min + halving) is already root-stable: a halving
    # step that changes nothing means label == label[label] everywhere
    return pd.DataFrame({"node": all_nodes, "cluster_id": all_nodes[label]})


def connected_components(
    edges: Dataset | pd.DataFrame,
    u: str = "id_a",
    v: str = "id_b",
    nodes: Dataset | None = None,
    max_rounds: int = 64,
    n_buckets: int | None = None,
) -> Dataset:
    """Distributed connected components; returns a Dataset
    ``(node, cluster_id)`` with one row per node (singletons from ``nodes``
    included). Size-dispatches to :func:`cc_local` under
    :data:`_LOCAL_CC_EDGES` edges; above it, runs the alternating
    large-star / small-star rounds (see module docstring) — two
    groupby-shuffles per round, edge-bounded state, O(log^2 n) rounds with
    a fingerprint-stability stop."""
    labels = _cc_edge_nodes(edges, u, v, max_rounds, n_buckets)
    if nodes is not None:
        # singletons: nodes with no edge get cluster_id = self. The anti-join
        # is size-dispatched (broadcast keys under its threshold, bucketed
        # shuffle above), so a corpus-sized node set never touches the driver
        # even when the edge set is tiny.
        first = nodes.schema().names[0]
        node_ds = nodes.map_batches(
            lambda b, c=first: pd.DataFrame({"node": b[c]}), batch_format="pandas"
        )
        singles = jn.anti_join(node_ds, labels.select_columns(["node"]), on="node")
        labels = labels.union(
            singles.map_batches(
                lambda b: pd.DataFrame({"node": b["node"], "cluster_id": b["node"]}),
                batch_format="pandas",
            )
        )
    return labels


#: splitmix-style multiplier for partition keys and the convergence
#: fingerprint — wrapping uint64 arithmetic, same family as the repo's
#: n-gram hash kernel.
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _pkey(x: np.ndarray, n_parts: int) -> np.ndarray:
    """Deterministic shuffle partition for a node id (spread via a wrapping
    multiply so consecutive ids don't pile into one partition)."""
    h = x.astype(np.uint64) * _MIX
    return ((h >> np.uint64(33)) % np.uint64(n_parts)).astype(np.int64)


_EDGE_EMPTY = {"hi": np.dtype("int64"), "lo": np.dtype("int64")}


def _dedup_pairs(hi: np.ndarray, lo: np.ndarray) -> pd.DataFrame:
    """Sorted-first-mask pair dedup (the shared kernel shape used by the
    dedup pairing paths); dtype-complete when empty."""
    if not len(hi):
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _EDGE_EMPTY.items()})
    order = np.lexsort((lo, hi))
    hi, lo = hi[order], lo[order]
    keep = np.r_[True, (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])]
    return pd.DataFrame({"hi": hi[keep], "lo": lo[keep]})


def _star_round(edges: Dataset, large: bool, n_parts: int) -> Dataset:
    """One large-star or small-star half-round: ONE groupby(partition)
    shuffle, vectorized lexsort + segment-min kernel per partition.

    State invariant: edges are oriented ``hi > lo``. Large-star keys each
    edge on BOTH endpoints (full neighborhoods), emits ``(v, m)`` for
    neighbors ``v > u`` where ``m = min(neighborhood ∪ {u})``; small-star
    keys on the larger endpoint only, emits ``(v, m)`` for the smaller
    neighbors plus ``(u, m)``. Both preserve connectivity and the touched
    node set (every node re-appears as a hi or a lo)."""

    def to_keyed(b: pd.DataFrame) -> pd.DataFrame:
        hi = b["hi"].to_numpy()
        lo = b["lo"].to_numpy()
        if large:
            k = np.concatenate([hi, lo])
            nb = np.concatenate([lo, hi])
        else:
            k, nb = hi, lo
        return pd.DataFrame({"k": k, "nb": nb, "p": _pkey(k, n_parts)})

    def star_kernel(g: pd.DataFrame) -> pd.DataFrame:
        k = g["k"].to_numpy()
        nb = g["nb"].to_numpy()
        if not len(k):
            return _dedup_pairs(np.empty(0, np.int64), np.empty(0, np.int64))
        order = np.lexsort((nb, k))
        k, nb = k[order], nb[order]
        starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        seg = np.cumsum(np.r_[False, k[1:] != k[:-1]])
        # nb is sorted within each segment, so the segment min is nb[start]
        m = np.minimum(nb[starts], k[starts])[seg]
        if large:
            sel = nb > k
            hi, lo = nb[sel], m[sel]
        else:
            sel = nb != m
            hi = np.concatenate([nb[sel], k[starts]])
            lo = np.concatenate([m[sel], m[starts]])
        return _dedup_pairs(hi, lo)

    return (
        edges.map_batches(to_keyed, batch_format="pandas")
        .groupby("p")
        .map_groups(star_kernel, batch_format="pandas")
        .materialize()
    )


def _edge_fingerprint(edges: Dataset) -> tuple:
    """(count, sum_hi, sum_lo, xor-of-mixed-hash) — order-independent, so
    two rounds fingerprint equal iff (up to a 2^-64 hash collision) they
    hold the same edge multiset. Per-block partials only; the driver sees
    one tiny row per block."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        hi = b["hi"].to_numpy().astype(np.uint64)
        lo = b["lo"].to_numpy().astype(np.uint64)
        h = (hi * _MIX) ^ (lo * np.uint64(0xC2B2AE3D27D4EB4F))
        x = np.bitwise_xor.reduce(h) if len(h) else np.uint64(0)
        return pd.DataFrame(
            {
                "n": [len(hi)],
                "sh": [int(hi.sum(dtype=np.uint64))],
                "sl": [int(lo.sum(dtype=np.uint64))],
                "x": [int(x)],
            }
        )

    parts = edges.map_batches(partial, batch_format="pandas").take_all()
    n = sum(p["n"] for p in parts)
    sh = sum(p["sh"] for p in parts) & 0xFFFFFFFFFFFFFFFF
    sl = sum(p["sl"] for p in parts) & 0xFFFFFFFFFFFFFFFF
    x = 0
    for p in parts:
        x ^= p["x"]
    return (n, sh, sl, x)


def _cc_edge_nodes(
    edges: Dataset | pd.DataFrame,
    u: str,
    v: str,
    max_rounds: int,
    n_buckets: int | None,
) -> Dataset:
    """CC labels ``(node, cluster_id)`` over edge-TOUCHED nodes only — the
    working set is edge-sized by construction on both paths."""
    if isinstance(edges, pd.DataFrame):
        epdf = edges
    else:
        edges = edges.materialize()
        epdf = edges.to_pandas() if edges.count() <= _LOCAL_CC_EDGES else None
    if epdf is not None:
        return rd.from_pandas(cc_local(epdf[u].to_numpy(), epdf[v].to_numpy()))

    # ---- distributed path: alternating large-star / small-star ----
    n_parts = n_buckets or int(min(256, max(8, edges.count() // 250_000)))

    def orient(b: pd.DataFrame) -> pd.DataFrame:
        a = b[u].to_numpy()
        c = b[v].to_numpy()
        keep = a != c
        a, c = a[keep], c[keep]
        return _dedup_pairs(np.maximum(a, c), np.minimum(a, c))

    star = edges.map_batches(orient, batch_format="pandas").materialize()
    prev = None
    for _ in range(max_rounds):
        star = _star_round(star, large=True, n_parts=n_parts)
        star = _star_round(star, large=False, n_parts=n_parts)
        fp = _edge_fingerprint(star)
        if fp == prev:
            break
        prev = fp

    # at the star fixpoint every edge is (member, root); roots label
    # themselves. The groupby both dedups cross-partition duplicates and
    # collapses each root's self-rows.
    def to_labels(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node": np.concatenate([b["hi"].to_numpy(), b["lo"].to_numpy()]),
                "label": np.concatenate([b["lo"].to_numpy(), b["lo"].to_numpy()]),
            }
        )

    return (
        star.map_batches(to_labels, batch_format="pandas")
        .groupby("node")
        .aggregate(Min("label", alias_name="cluster_id"))
    )


def cluster_stats(labels: Dataset, n_buckets: int = 64) -> Dataset:
    """Attach ``cluster_size`` and the canonical ``keep`` flag to a
    ``(node, cluster_id)`` labeling — ONE hash-bucket shuffle co-locates each
    cluster, then every bucket computes ALL its clusters' sizes in one
    vectorized grouped-size pass (never a per-cluster Python callback:
    dedup clustering yields cluster counts proportional to doc count, so a
    callback per cluster is the per-key map_groups anti-pattern; never a
    cluster-count-sized driver collection either)."""

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        batch["__b"] = (
            batch["cluster_id"].to_numpy(np.int64).view(np.uint64) % np.uint64(n_buckets)
        ).astype(np.int32)
        return batch

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns="__b").reset_index(drop=True)
        g["cluster_size"] = g.groupby("cluster_id", sort=False)["node"].transform("size").astype(np.int64)
        g["keep"] = (g["node"] == g["cluster_id"]).astype(np.int64)
        return g

    return (
        labels.map_batches(tag, batch_format="pandas", batch_size=None)
        .groupby("__b")
        .map_groups(per_bucket, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Certified distributed k-means (Lloyd's) over quantized embeddings
# ---------------------------------------------------------------------------


def _seq_sq_dists(qf: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """``[n, m]`` squared distances with LEFT-ASSOCIATIVE per-dim
    accumulation (``acc = t0*t0; acc = acc + td*td``) — the exact op
    sequence the SQL oracle's generated ``+`` chain performs, so every
    distance is the bit-identical double in both engines. Vectorized across
    rows; the dim loop is 64 iterations of full-width kernels."""
    n, dim = qf.shape
    out = np.empty((n, cents.shape[0]), dtype=np.float64)
    for j in range(cents.shape[0]):
        t = qf[:, 0] - cents[j, 0]
        acc = t * t
        for d in range(1, dim):
            t = qf[:, d] - cents[j, d]
            acc = acc + t * t
        out[:, j] = acc
    return out


def _empty_partial() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "cluster": pd.Series([], dtype="int64"),
            "n": pd.Series([], dtype="int64"),
            "blob": pd.Series([], dtype=object),
        }
    )


def kmeans_quantized(
    ds: Dataset,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    k: int = 4,
    iters: int = 2,
    scale: float = 10000.0,
):
    """Distributed Lloyd's k-means made BIT-DETERMINISTIC — and therefore
    SQL-certifiable end-to-end — by running on integer-quantized vectors:

    - points are ``q = floor(float64(x) * scale)`` (the float32→float64 cast
      and the product are exact/correctly-rounded, floor is exact — any
      IEEE engine computes the same q);
    - per-iteration centroid updates reduce EXACT int64 sums (associative,
      order-independent ⇒ identical under any blocking / reduce order),
      then one double division ``Σq / n`` — so centroids, and hence every
      assignment, are reproducible bit-for-bit by the DuckDB oracle's
      chained-CTE replay of the same ``iters`` rounds;
    - assignment argmin breaks exact-double ties by ascending cluster id
      (numpy first-min == SQL ``ORDER BY dist, cluster``).

    Execution shape per iteration: ONE streaming ``map_batches`` pass over
    the source (quantize + assign + per-cluster partial int sums); the
    driver reduces k×blocks tiny partials (independent of row count — the
    KLL-blob pattern), broadcasts the k×dim centroid matrix via ``ray.put``,
    and never sees a data-sized collection. Seeds are the k smallest-id
    vectors (per-block bottom-k → driver merge). Empty clusters drop from
    the live set, mirroring SQL's GROUP BY. Returns the final assignment
    Dataset ``(id_col, cluster)`` plus ``(cluster_ids, centroids)``.

    Reference analog: the embedding-similarity gate of
    /root/reference/services/processor.py:125-143, widened from
    one-profile-vs-corpus scoring to full unsupervised partitioning (the
    IVF coarse quantizer in stages/similarity.py uses the same Lloyd's
    core, sampled + float; this is the certified exact-replay variant).
    """
    import ray

    from ..functions import arrays

    def _quant(t):
        q = np.floor(arrays.list_to_mat(t[vec_col]) * scale)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        return ids, q

    def seed_partial(t) -> pd.DataFrame:
        if t.num_rows == 0:
            return pd.DataFrame({"vid": pd.Series([], dtype="int64"), "blob": pd.Series([], dtype=object)})
        ids, q = _quant(t)
        order = np.argsort(ids, kind="stable")[:k]
        return pd.DataFrame({"vid": ids[order], "blob": [q[i].tobytes() for i in order]})

    seeds = (
        ds.map_batches(seed_partial, batch_format="pyarrow", batch_size=None)
        .to_pandas()
        .sort_values("vid")
        .head(k)
    )
    cents = np.stack([np.frombuffer(b, dtype=np.float64) for b in seeds["blob"]])
    cids = np.arange(len(seeds), dtype=np.int64)
    dim = cents.shape[1]

    for _ in range(iters):
        cref = ray.put((cids, cents))

        def upd(t, _c=cref) -> pd.DataFrame:
            if t.num_rows == 0:
                return _empty_partial()
            c_ids, c_mat = ray.get(_c)
            _, q = _quant(t)
            a = np.argmin(_seq_sq_dists(q, c_mat), axis=1)
            qi = q.astype(np.int64)
            rows = []
            for j in range(len(c_ids)):
                m = a == j
                nj = int(m.sum())
                if nj:
                    rows.append(
                        {"cluster": int(c_ids[j]), "n": nj, "blob": qi[m].sum(axis=0).tobytes()}
                    )
            return pd.DataFrame(rows) if rows else _empty_partial()

        parts = ds.map_batches(upd, batch_format="pyarrow", batch_size=None).to_pandas()
        new_ids, new_c = [], []
        for cid, g in parts.groupby("cluster"):  # pandas groupby sorts keys asc
            s = np.zeros(dim, dtype=np.int64)
            for b in g["blob"]:
                s = s + np.frombuffer(b, dtype=np.int64)
            new_ids.append(int(cid))
            new_c.append(s.astype(np.float64) / np.float64(int(g["n"].sum())))
        cids = np.array(new_ids, dtype=np.int64)
        cents = np.stack(new_c)

    cref = ray.put((cids, cents))

    def asg(t, _c=cref) -> pd.DataFrame:
        if t.num_rows == 0:
            return pd.DataFrame(
                {id_col: pd.Series([], dtype="int64"), "cluster": pd.Series([], dtype="int64")}
            )
        c_ids, c_mat = ray.get(_c)
        ids, q = _quant(t)
        a = np.argmin(_seq_sq_dists(q, c_mat), axis=1)
        return pd.DataFrame({id_col: ids, "cluster": c_ids[a]})

    return ds.map_batches(asg, batch_format="pyarrow", batch_size=None), cids, cents


# ---------------------------------------------------------------------------
# PageRank centrality — the graph quality prior of web-corpus curation
# ---------------------------------------------------------------------------

#: integer-quantized PageRank constants: ranks live in ppm (parts-per-million)
#: int64, damping d = PR_DAMPING_PPT/1000, teleport term (1-d) = PR_BASE_PPM.
#: Every update is integer arithmetic (``//`` floor division), so a SQL oracle
#: replays the iteration bit-exactly (queries.q_pagerank) — the same
#: quantize-to-certify trick as the k-means pipeline below.
PR_INIT_PPM = 1_000_000
PR_BASE_PPM = 150_000
PR_DAMPING_PPT = 850

#: edge-count threshold below which PageRank runs driver-local (candidate
#: edge sets are anomaly-sized, same argument as _LOCAL_CC_EDGES); the
#: distributed path is equivalence-tested by forcing this to 0.
_LOCAL_PR_EDGES = 5_000_000


def pagerank_local(
    u: np.ndarray, v: np.ndarray, iters: int = 3
) -> pd.DataFrame:
    """Integer-quantized PageRank over undirected int64 edge arrays
    (symmetrized to distinct directed pairs): per iteration, every node
    sends ``r // deg`` down each incident edge and receives
    ``PR_BASE_PPM + (PR_DAMPING_PPT * sum) // 1000``. Fully vectorized —
    the per-iteration gather is one pandas int64 groupby-sum (exact, no
    float accumulation). Returns (node, rank_ppm) for edge-touched nodes;
    isolated nodes are the constant ``PR_BASE_PPM`` after any iteration and
    are attached by the caller without touching the driver."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    # drop self-loops BEFORE collecting the node set so a node whose only
    # edges are self-loops is absent here exactly as it is on the
    # distributed path (sym() filters them pre-state) — the threshold-0
    # equivalence contract depends on the two paths agreeing row-for-row
    loops = u != v
    u, v = u[loops], v[loops]
    all_nodes = np.unique(np.concatenate([u, v]))
    if not len(all_nodes):
        return pd.DataFrame(
            {"node": pd.Series(dtype="int64"), "rank_ppm": pd.Series(dtype="int64")}
        )
    a = np.searchsorted(all_nodes, u)
    b = np.searchsorted(all_nodes, v)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    key = lo.astype(np.int64) * len(all_nodes) + hi
    uniq = np.unique(key)
    lo2, hi2 = uniq // len(all_nodes), uniq % len(all_nodes)
    src = np.concatenate([lo2, hi2])
    dst = np.concatenate([hi2, lo2])
    n = len(all_nodes)
    deg = np.bincount(src, minlength=n).astype(np.int64)
    r = np.full(n, PR_INIT_PPM, dtype=np.int64)
    for _ in range(iters):
        contrib = r // np.maximum(deg, 1)  # deg==0 nodes never appear as src
        sent = pd.Series(contrib[src]).groupby(pd.Series(dst), sort=False).sum()
        s = np.zeros(n, dtype=np.int64)
        s[sent.index.to_numpy()] = sent.to_numpy()
        r = PR_BASE_PPM + (np.int64(PR_DAMPING_PPT) * s) // 1000
    return pd.DataFrame({"node": all_nodes, "rank_ppm": r})


def pagerank(
    edges: pd.DataFrame | Dataset,
    nodes: Dataset | None = None,
    u: str = "id_a",
    v: str = "id_b",
    iters: int = 3,
    edge_threshold: int = _LOCAL_PR_EDGES,
    n_buckets: int | None = None,
) -> Dataset:
    """Size-dispatched PageRank; returns a Dataset ``(node, rank_ppm)`` with
    one row per node (isolated nodes at the constant ``PR_BASE_PPM``).

    Distributed path (above ``edge_threshold`` edges): state is a node-sized
    Dataset ``(node, r, deg)``; each iteration is ONE bucketed hash join
    (edges x per-node contributions, edge-bounded) plus ONE
    groupby-aggregate where contribution rows ``(v, c, deg=0)`` union the
    state carrier rows ``(node, c=0, deg)`` so ``Sum(c)`` gathers inbound
    mass and ``Max(deg)`` re-attaches the static degree without a second
    join. Nothing corpus-sized reaches the driver. int64 overflow headroom:
    sum of inbound contributions is bounded by in-degree x 1e6 < 2^63 for
    in-degrees up to ~9e12."""
    edges_df: pd.DataFrame | None
    if isinstance(edges, Dataset):
        n_edges = edges.count()
        edges_df = edges.to_pandas() if n_edges < edge_threshold else None
        edges_ds = edges
    else:
        n_edges = len(edges)
        edges_df = edges if n_edges < edge_threshold else None
        edges_ds = None

    if edges_df is not None:
        ranks = rd.from_pandas(pagerank_local(edges_df[u].to_numpy(), edges_df[v].to_numpy(), iters))
    else:
        if edges_ds is None:
            edges_ds = rd.from_pandas(edges)
        ranks = _pagerank_rounds(edges_ds, u, v, iters, n_buckets)
    if nodes is not None:
        first = nodes.schema().names[0]
        node_ds = nodes.map_batches(
            lambda b, c=first: pd.DataFrame({"node": b[c]}), batch_format="pandas"
        )
        singles = jn.anti_join(node_ds, ranks.select_columns(["node"]), on="node")
        ranks = ranks.union(
            singles.map_batches(
                lambda b: pd.DataFrame(
                    {"node": b["node"], "rank_ppm": np.int64(PR_BASE_PPM)}
                ),
                batch_format="pandas",
            )
        )
    return ranks


def _pagerank_rounds(
    edges: Dataset, u: str, v: str, iters: int, n_buckets: int | None
) -> Dataset:
    """Distributed iteration core (see :func:`pagerank`). Symmetrizes the
    edge set to distinct directed pairs with one groupby shuffle, builds the
    degree table with another, then runs ``iters`` join+aggregate rounds."""
    from ray.data.aggregate import Count, Max, Sum

    def sym(b: pd.DataFrame) -> pd.DataFrame:
        a_ = b[u].to_numpy(np.int64)
        b_ = b[v].to_numpy(np.int64)
        keep = a_ != b_
        a_, b_ = a_[keep], b_[keep]
        return pd.DataFrame(
            {"src": np.concatenate([a_, b_]), "dst": np.concatenate([b_, a_])}
        )

    dir_edges = (
        edges.map_batches(sym, batch_format="pandas")
        .groupby(["src", "dst"])
        .aggregate(Count(alias_name="__c"))
        .drop_columns(["__c"])
        .materialize()
    )
    if n_buckets is None:
        n_buckets = int(min(4096, max(16, dir_edges.count() // 250_000 + 1)))
    deg = dir_edges.groupby("src").aggregate(Count(alias_name="deg"))
    state = deg.map_batches(
        lambda b: pd.DataFrame(
            {
                "node": b["src"].astype("int64"),
                "r": np.int64(PR_INIT_PPM),
                "deg": b["deg"].astype("int64"),
            }
        ),
        batch_format="pandas",
    ).materialize()
    for _ in range(iters):
        contrib = state.map_batches(
            lambda b: pd.DataFrame(
                {
                    "src": b["node"],
                    "c": b["r"].to_numpy(np.int64)
                    // np.maximum(b["deg"].to_numpy(np.int64), 1),
                }
            ),
            batch_format="pandas",
        )
        sent = jn.bucketed_hash_join(
            dir_edges, contrib, on="src", n_buckets=n_buckets,
        ).map_batches(
            lambda b: pd.DataFrame(
                {
                    "node": b["dst"].astype("int64"),
                    "c": b["c"].astype("int64"),
                    "deg": np.int64(0),
                }
            ),
            batch_format="pandas",
        )
        carrier = state.map_batches(
            lambda b: pd.DataFrame(
                {"node": b["node"], "c": np.int64(0), "deg": b["deg"]}
            ),
            batch_format="pandas",
        )
        gathered = (
            sent.union(carrier)
            .groupby("node")
            .aggregate(Sum("c", alias_name="s"), Max("deg", alias_name="deg"))
        )
        state = gathered.map_batches(
            lambda b: pd.DataFrame(
                {
                    "node": b["node"].astype("int64"),
                    "r": np.int64(PR_BASE_PPM)
                    + (np.int64(PR_DAMPING_PPT) * b["s"].to_numpy(np.int64)) // 1000,
                    "deg": b["deg"].astype("int64"),
                }
            ),
            batch_format="pandas",
        ).materialize()
    return state.map_batches(
        lambda b: pd.DataFrame({"node": b["node"], "rank_ppm": b["r"]}),
        batch_format="pandas",
    )


def triangle_counts(edges: pd.DataFrame, u: str = "id_a", v: str = "id_b") -> pd.DataFrame:
    """Exact per-node triangle counts over an undirected candidate edge set
    (distinct ``id_a < id_b`` pairs, e.g. ``dedup.gram_edges`` output).

    Standard wedge-close formulation, fully vectorized: wedges (a,b,c with
    b<c) come from one self-merge of the oriented edge list on the low
    endpoint, and close iff (b,c) is itself an edge — a second hash merge.
    Each triangle a<b<c is produced exactly once, so per-node counts are one
    bincount over the three role columns. No Python loop over edges.

    Scale contract (same as :func:`pagerank_local`): the input is a
    CANDIDATE edge set — anomaly-sized by the banding/bucketing that
    produced it, never corpus-sized. Wedge fan-out is bounded by
    sum(deg+^2); a hot node beyond that budget dispatches to the
    distributed degeneracy-ordered variant — :func:`triangles` above its
    edge threshold (equivalence-tested at threshold 0)."""
    a = np.asarray(edges[u], dtype=np.int64)
    b = np.asarray(edges[v], dtype=np.int64)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keep = lo != hi
    e = pd.DataFrame({"lo": lo[keep], "hi": hi[keep]}).drop_duplicates()
    if not len(e):
        return pd.DataFrame(
            {"node": pd.Series(dtype="int64"), "n_triangles": pd.Series(dtype="int64")}
        )
    wedge = e.merge(e, on="lo", suffixes=("_b", "_c"))
    wedge = wedge[wedge["hi_b"] < wedge["hi_c"]]
    tri = wedge.merge(
        e.rename(columns={"lo": "hi_b", "hi": "hi_c"}), on=["hi_b", "hi_c"], how="inner"
    )
    nodes = np.concatenate(
        [tri["lo"].to_numpy(np.int64), tri["hi_b"].to_numpy(np.int64), tri["hi_c"].to_numpy(np.int64)]
    )
    if not len(nodes):
        return pd.DataFrame(
            {"node": pd.Series(dtype="int64"), "n_triangles": pd.Series(dtype="int64")}
        )
    uniq, counts = np.unique(nodes, return_counts=True)
    return pd.DataFrame({"node": uniq, "n_triangles": counts.astype(np.int64)})


def hits_local(
    u: np.ndarray, v: np.ndarray, iters: int = 2
) -> pd.DataFrame:
    """Integer-quantized HITS (Kleinberg 1999) over a directed candidate
    edge list u->v: auth gathers hub mass over in-edges, hub gathers auth
    mass over out-edges, each pass renormalized to ppm by floor-division by
    the max (keeps every value an exact int64, so the SQL chained-CTE replay
    is bit-identical). Per-iteration gathers are exact int64 pandas
    groupby-sums — no float accumulation at any width. Same scale contract
    as :func:`pagerank_local`: candidate-sized edges; the distributed
    path is :func:`hits` above its edge threshold (the PageRank bucketed
    join + carrier-union gather per half-iteration, equivalence-tested at
    threshold 0)."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    keep = u != v
    key = pd.DataFrame({"u": u[keep], "v": v[keep]}).drop_duplicates()
    u, v = key["u"].to_numpy(np.int64), key["v"].to_numpy(np.int64)
    nodes = np.unique(np.concatenate([u, v]))
    if not len(nodes):
        return pd.DataFrame(
            {
                "node": pd.Series(dtype="int64"),
                "hub_ppm": pd.Series(dtype="int64"),
                "auth_ppm": pd.Series(dtype="int64"),
            }
        )
    ui = np.searchsorted(nodes, u)
    vi = np.searchsorted(nodes, v)
    n = len(nodes)

    def gather(idx_dst: np.ndarray, weights: np.ndarray) -> np.ndarray:
        s = pd.Series(weights).groupby(pd.Series(idx_dst), sort=False).sum()
        out = np.zeros(n, dtype=np.int64)
        out[s.index.to_numpy()] = s.to_numpy()
        return out * 1_000_000 // max(int(out.max()), 1)

    hub = np.full(n, 1_000_000, dtype=np.int64)
    auth = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        auth = gather(vi, hub[ui])
        hub = gather(ui, auth[vi])
    return pd.DataFrame({"node": nodes, "hub_ppm": hub, "auth_ppm": auth})


def bfs_levels(
    u: np.ndarray, v: np.ndarray, seed: int, max_level: int = 4
) -> pd.DataFrame:
    """Shortest-path BFS levels from ``seed`` over an undirected candidate
    edge list, bounded at ``max_level`` hops. Vectorized frontier expansion:
    each round gathers the frontier's neighbors with one searchsorted slice
    walk over the CSR-style sorted adjacency — no per-node Python beyond the
    O(max_level) rounds. Candidate-sized contract as the other graph
    kernels; the distributed form is :func:`bfs` above its edge threshold
    (one bucketed frontier join per round, equivalence-tested at
    threshold 0)."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    keep = u != v
    src = np.concatenate([u[keep], v[keep]])
    dst = np.concatenate([v[keep], u[keep]])
    if not len(src):
        return pd.DataFrame(
            {"doc_id": pd.Series(dtype="int64"), "level": pd.Series(dtype="int64")}
        )
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    nodes = np.unique(src)
    starts = np.searchsorted(src, nodes)
    ends = np.searchsorted(src, nodes, side="right")
    # sorted-array membership throughout — no per-node dict/list Python
    visited = np.array([seed], dtype=np.int64)
    found: list[np.ndarray] = [visited]
    levels: list[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    frontier = visited
    for lvl in range(1, max_level + 1):
        idx = np.searchsorted(nodes, frontier)
        idx = idx[(idx < len(nodes)) & (nodes[np.minimum(idx, len(nodes) - 1)] == frontier)]
        if not len(idx):
            break
        # vectorized multi-slice gather over the CSR adjacency
        cnt = ends[idx] - starts[idx]
        total = int(cnt.sum())
        offs = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        neigh = np.unique(dst[np.repeat(starts[idx], cnt) + offs])
        pos = np.searchsorted(visited, neigh)
        known = (pos < len(visited)) & (
            visited[np.minimum(pos, len(visited) - 1)] == neigh
        )
        new = neigh[~known]
        if not len(new):
            break
        visited = np.union1d(visited, new)
        found.append(new)
        levels.append(np.full(len(new), lvl, dtype=np.int64))
        frontier = new
    out_nodes = np.concatenate(found)
    out_levels = np.concatenate(levels)
    order = np.argsort(out_nodes, kind="stable")
    return pd.DataFrame(
        {
            "doc_id": out_nodes[order],
            "level": out_levels[order],
        }
    )


def hits(
    edges: pd.DataFrame | Dataset,
    u: str = "id_a",
    v: str = "id_b",
    iters: int = 2,
    edge_threshold: int = _LOCAL_PR_EDGES,
    n_buckets: int | None = None,
) -> Dataset:
    """Size-dispatched HITS; returns a Dataset ``(node, hub_ppm, auth_ppm)``
    bit-identical to :func:`hits_local` (equivalence-tested at threshold 0).

    Distributed path (above ``edge_threshold`` edges): the PageRank gather
    shape per half-step — ONE bucketed hash join (edges x per-node scores)
    plus ONE groupby-aggregate where contribution rows union the state
    carrier rows, ``Sum`` gathering inbound mass and ``Max`` re-attaching
    the untouched score (sound because scores are >= 0 and each node
    carries exactly one carrier row). The ppm renormalization divisor is
    the ONLY scalar that reaches the driver per half-step."""
    if isinstance(edges, Dataset):
        if edges.count() < edge_threshold:
            df = edges.to_pandas()
            return rd.from_pandas(
                hits_local(df[u].to_numpy(np.int64), df[v].to_numpy(np.int64), iters)
            )
        return _hits_rounds(edges, u, v, iters, n_buckets)
    if len(edges) < edge_threshold:
        return rd.from_pandas(
            hits_local(edges[u].to_numpy(np.int64), edges[v].to_numpy(np.int64), iters)
        )
    return _hits_rounds(rd.from_pandas(edges), u, v, iters, n_buckets)


def _hits_rounds(
    edges: Dataset, u: str, v: str, iters: int, n_buckets: int | None
) -> Dataset:
    """Distributed HITS core (see :func:`hits`)."""
    from ray.data.aggregate import Count, Max, Sum

    def clean(b: pd.DataFrame, uu: str = u, vv: str = v) -> pd.DataFrame:
        a_ = b[uu].to_numpy(np.int64)
        b_ = b[vv].to_numpy(np.int64)
        keep = a_ != b_
        return pd.DataFrame({"src": a_[keep], "dst": b_[keep]})

    dir_edges = (
        edges.map_batches(clean, batch_format="pandas")
        .groupby(["src", "dst"])
        .aggregate(Count(alias_name="__c"))
        .drop_columns(["__c"])
        .materialize()
    )
    if n_buckets is None:
        n_buckets = int(min(4096, max(16, dir_edges.count() // 250_000 + 1)))
    nodes = (
        dir_edges.map_batches(
            lambda b: pd.DataFrame(
                {
                    "node": np.unique(
                        np.r_[
                            b["src"].to_numpy(np.int64), b["dst"].to_numpy(np.int64)
                        ]
                    )
                }
            ),
            batch_format="pandas",
        )
        .groupby("node")
        .aggregate(Count(alias_name="__c"))
        .drop_columns(["__c"])
    )
    state = nodes.map_batches(
        lambda b: pd.DataFrame(
            {
                "node": b["node"].astype("int64"),
                "hub": np.int64(1_000_000),
                "auth": np.int64(0),
            }
        ),
        batch_format="pandas",
    ).materialize()

    def half(state: Dataset, join_on: str, emit_col: str, val_col: str, out_col: str) -> Dataset:
        contrib = state.map_batches(
            lambda b, jo=join_on, vc=val_col: pd.DataFrame(
                {jo: b["node"], "c": b[vc]}
            ),
            batch_format="pandas",
        )
        sent = jn.bucketed_hash_join(
            dir_edges, contrib, on=join_on, n_buckets=n_buckets
        ).map_batches(
            lambda b, ec=emit_col: pd.DataFrame(
                {
                    "node": b[ec].astype("int64"),
                    "c": b["c"].astype("int64"),
                    "hub": np.int64(0),
                    "auth": np.int64(0),
                }
            ),
            batch_format="pandas",
        )
        carrier = state.map_batches(
            lambda b: pd.DataFrame(
                {"node": b["node"], "c": np.int64(0), "hub": b["hub"], "auth": b["auth"]}
            ),
            batch_format="pandas",
        )
        gathered = (
            sent.union(carrier)
            .groupby("node")
            .aggregate(
                Sum("c", alias_name="s"),
                Max("hub", alias_name="hub"),
                Max("auth", alias_name="auth"),
            )
        ).materialize()
        mx = max(int(gathered.max("s")), 1)

        def upd(b: pd.DataFrame, m: int = mx, oc: str = out_col) -> pd.DataFrame:
            out = pd.DataFrame(
                {
                    "node": b["node"].astype("int64"),
                    "hub": b["hub"].astype("int64"),
                    "auth": b["auth"].astype("int64"),
                }
            )
            out[oc] = b["s"].to_numpy(np.int64) * 1_000_000 // m
            return out

        return gathered.map_batches(upd, batch_format="pandas").materialize()

    for _ in range(iters):
        state = half(state, "src", "dst", "hub", "auth")
        state = half(state, "dst", "src", "auth", "hub")
    return state.map_batches(
        lambda b: pd.DataFrame(
            {"node": b["node"], "hub_ppm": b["hub"], "auth_ppm": b["auth"]}
        ),
        batch_format="pandas",
    )


def triangles(
    edges: pd.DataFrame | Dataset,
    u: str = "id_a",
    v: str = "id_b",
    edge_threshold: int = _LOCAL_PR_EDGES,
    n_buckets: int | None = None,
) -> Dataset:
    """Size-dispatched exact per-node triangle counts; returns a Dataset
    ``(node, n_triangles)`` equal to :func:`triangle_counts`
    (equivalence-tested at threshold 0).

    Distributed path: degeneracy-ordered wedge-close. Edges orient from the
    lower (deg, node) endpoint to the higher — so a hot node's wedge
    fan-out is bounded by its LOW-rank out-degree, the standard hot-node
    defense — wedges generate per-src bucket with a segmented vectorized
    pair walk, and close with ONE bucketed hash join against the oriented
    edge set on a packed (b, c) key (node ids must be in [0, 2**31); checked).
    Each triangle is produced exactly once (its two lowest-rank corners
    form the wedge), so per-node counts are bincount partials + one
    groupby-sum."""
    if isinstance(edges, Dataset):
        if edges.count() < edge_threshold:
            return rd.from_pandas(triangle_counts(edges.to_pandas(), u, v))
        return _triangle_rounds(edges, u, v, n_buckets)
    if len(edges) < edge_threshold:
        return rd.from_pandas(triangle_counts(edges, u, v))
    return _triangle_rounds(rd.from_pandas(edges), u, v, n_buckets)


def _triangle_rounds(
    edges: Dataset, u: str, v: str, n_buckets: int | None
) -> Dataset:
    """Distributed triangle-count core (see :func:`triangles`)."""
    from ray.data.aggregate import Count, Sum

    from .windows import bucketed_map_groups

    def clean(b: pd.DataFrame, uu: str = u, vv: str = v) -> pd.DataFrame:
        a_ = b[uu].to_numpy(np.int64)
        b_ = b[vv].to_numpy(np.int64)
        lo, hi = np.minimum(a_, b_), np.maximum(a_, b_)
        keep = lo != hi
        return pd.DataFrame({"lo": lo[keep], "hi": hi[keep]})

    und = (
        edges.map_batches(clean, batch_format="pandas")
        .groupby(["lo", "hi"])
        .aggregate(Count(alias_name="__c"))
        .drop_columns(["__c"])
        .materialize()
    )
    if n_buckets is None:
        n_buckets = int(min(4096, max(16, und.count() // 250_000 + 1)))
    deg = (
        und.map_batches(
            lambda b: pd.DataFrame(
                {"node": np.r_[b["lo"].to_numpy(np.int64), b["hi"].to_numpy(np.int64)]}
            ),
            batch_format="pandas",
        )
        .groupby("node")
        .aggregate(Count(alias_name="dg"))
    ).materialize()
    deg_lo = deg.map_batches(
        lambda b: pd.DataFrame({"lo": b["node"], "deg_lo": b["dg"]}),
        batch_format="pandas",
    )
    deg_hi = deg.map_batches(
        lambda b: pd.DataFrame({"hi": b["node"], "deg_hi": b["dg"]}),
        batch_format="pandas",
    )
    e1 = jn.bucketed_hash_join(und, deg_lo, on="lo", n_buckets=n_buckets)
    e2 = jn.bucketed_hash_join(e1, deg_hi, on="hi", n_buckets=n_buckets)

    def orient(b: pd.DataFrame) -> pd.DataFrame:
        lo = b["lo"].to_numpy(np.int64)
        hi = b["hi"].to_numpy(np.int64)
        dl = b["deg_lo"].to_numpy(np.int64)
        dh = b["deg_hi"].to_numpy(np.int64)
        lo_first = (dl < dh) | ((dl == dh) & (lo < hi))
        src = np.where(lo_first, lo, hi)
        dst = np.where(lo_first, hi, lo)
        ddeg = np.where(lo_first, dh, dl)
        if len(src) and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= 2**31):
            raise ValueError("triangle packing needs node ids in [0, 2**31)")
        return pd.DataFrame(
            {
                "src": src,
                "dst": dst,
                "ddeg": ddeg,
                "pk": src * np.int64(2**32) + dst,
            }
        )

    oriented = e2.map_batches(orient, batch_format="pandas").materialize()

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "a": pd.Series(dtype="int64"),
                "b": pd.Series(dtype="int64"),
                "c": pd.Series(dtype="int64"),
                "pk": pd.Series(dtype="int64"),
            }
        )
        if not len(df):
            return empty
        d = df.sort_values(["src", "ddeg", "dst"], kind="stable")
        src = d["src"].to_numpy(np.int64)
        dst = d["dst"].to_numpy(np.int64)
        n = len(d)
        seg_start_mask = np.r_[True, src[1:] != src[:-1]]
        seg_id = np.cumsum(seg_start_mask) - 1
        seg_start = np.flatnonzero(seg_start_mask)
        pos = np.arange(n) - seg_start[seg_id]
        cnt = pos  # row r (as wedge corner c) pairs with every earlier row
        total = int(cnt.sum())
        if not total:
            return empty
        c_idx = np.repeat(np.arange(n), cnt)
        offs = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        b_idx = np.repeat(np.arange(n) - pos, cnt) + offs
        wb, wc = dst[b_idx], dst[c_idx]  # rank(b) < rank(c) by sort order
        return pd.DataFrame(
            {
                "a": src[c_idx],
                "b": wb,
                "c": wc,
                "pk": wb * np.int64(2**32) + wc,
            }
        )

    wedge_ds = bucketed_map_groups(oriented, "src", wedges, n_buckets=n_buckets)
    probe = oriented.map_batches(
        lambda b: pd.DataFrame({"pk": b["pk"]}), batch_format="pandas"
    )
    closed = jn.bucketed_hash_join(wedge_ds, probe, on="pk", n_buckets=n_buckets)

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        nodes = np.concatenate(
            [
                b["a"].to_numpy(np.int64),
                b["b"].to_numpy(np.int64),
                b["c"].to_numpy(np.int64),
            ]
        )
        un, cn = np.unique(nodes, return_counts=True)
        return pd.DataFrame({"node": un, "n": cn.astype(np.int64)})

    return (
        closed.map_batches(count_partial, batch_format="pandas")
        .groupby("node")
        .aggregate(Sum("n", alias_name="n_triangles"))
        .map_batches(
            lambda b: pd.DataFrame(
                {
                    "node": b["node"].astype("int64"),
                    "n_triangles": b["n_triangles"].astype("int64"),
                }
            ),
            batch_format="pandas",
        )
    )


def bfs(
    edges: pd.DataFrame | Dataset,
    seed: int,
    max_level: int = 4,
    u: str = "id_a",
    v: str = "id_b",
    edge_threshold: int = _LOCAL_PR_EDGES,
    n_buckets: int | None = None,
) -> Dataset:
    """Size-dispatched bounded BFS; returns a Dataset ``(doc_id, level)``
    equal to :func:`bfs_levels` (equivalence-tested at threshold 0).

    Distributed path: the standard frontier-join iteration — per level, ONE
    bucketed hash join (edges x frontier) gathers the neighbor set, one
    groupby dedups it, and one anti-join against the visited set keeps the
    unseen nodes, which become the next frontier. State is node-sized
    Datasets; only the per-round frontier COUNT reaches the driver."""
    if isinstance(edges, Dataset):
        if edges.count() < edge_threshold:
            df = edges.to_pandas()
            return rd.from_pandas(
                bfs_levels(
                    df[u].to_numpy(np.int64), df[v].to_numpy(np.int64), seed, max_level
                )
            )
        return _bfs_rounds(edges, u, v, seed, max_level, n_buckets)
    if len(edges) < edge_threshold:
        return rd.from_pandas(
            bfs_levels(
                edges[u].to_numpy(np.int64), edges[v].to_numpy(np.int64), seed, max_level
            )
        )
    return _bfs_rounds(rd.from_pandas(edges), u, v, seed, max_level, n_buckets)


def _bfs_rounds(
    edges: Dataset, u: str, v: str, seed: int, max_level: int, n_buckets: int | None
) -> Dataset:
    """Distributed BFS core (see :func:`bfs`)."""
    from ray.data.aggregate import Count

    def sym(b: pd.DataFrame, uu: str = u, vv: str = v) -> pd.DataFrame:
        a_ = b[uu].to_numpy(np.int64)
        b_ = b[vv].to_numpy(np.int64)
        keep = a_ != b_
        a_, b_ = a_[keep], b_[keep]
        return pd.DataFrame({"src": np.r_[a_, b_], "dst": np.r_[b_, a_]})

    dir_edges = (
        edges.map_batches(sym, batch_format="pandas")
        .groupby(["src", "dst"])
        .aggregate(Count(alias_name="__c"))
        .drop_columns(["__c"])
        .materialize()
    )
    if n_buckets is None:
        n_buckets = int(min(4096, max(16, dir_edges.count() // 250_000 + 1)))
    visited = rd.from_pandas(
        pd.DataFrame(
            {
                "doc_id": np.array([seed], dtype=np.int64),
                "level": np.array([0], dtype=np.int64),
            }
        )
    ).materialize()
    frontier = visited
    for lvl in range(1, max_level + 1):
        f = frontier.map_batches(
            lambda b: pd.DataFrame({"src": b["doc_id"]}), batch_format="pandas"
        )
        neigh = (
            jn.bucketed_hash_join(dir_edges, f, on="src", n_buckets=n_buckets)
            .map_batches(
                lambda b: pd.DataFrame({"doc_id": b["dst"].astype("int64")}),
                batch_format="pandas",
            )
            .groupby("doc_id")
            .aggregate(Count(alias_name="__c"))
            .drop_columns(["__c"])
        )
        new = jn.anti_join(neigh, visited.select_columns(["doc_id"]), on="doc_id")
        new = new.map_batches(
            lambda b, L=lvl: pd.DataFrame(
                {"doc_id": b["doc_id"].astype("int64"), "level": np.int64(L)}
            ),
            batch_format="pandas",
        ).materialize()
        if new.count() == 0:
            break
        visited = visited.union(new).materialize()
        frontier = new
    return visited

"""Similarity search over an embedding column (``list<float>``).

* brute_force_knn — exact cosine top-k: the query matrix is broadcast ONCE
  via ``ray.put`` and each batch does one numpy matmul; per-batch partial
  top-k keeps the shuffle tiny (≤ k·n_queries rows per batch), then a single
  per-query group merge produces the final top-k. This is the baseline and
  the oracle for approximate variants.
* lsh_knn — random-hyperplane LSH bucketing (Charikar 2002): each query is
  scored ONLY against vectors in its own bucket; recall < 1 traded for
  touching a fraction of the corpus — the scale path when brute force is
  too wide. Deterministic seeded hyperplanes, so the DuckDB gate oracle can
  recompute buckets from embedded plane literals.
* embedding_neardup — exact all-pairs cosine ≥ threshold via a blocked
  self-join: vectors are hash-partitioned into B blocks written as
  partitioned parquet (one pass, resumable), then a dataset of (i ≤ j)
  block-pair descriptors fans out one matmul task per block pair with
  per-actor block caching. No driver-side materialization and no full-matrix
  broadcast; memory per task is O((N/B)·d).

Tie discipline (gate parity): every top-k selection — partial AND final —
orders by (round(sim, 6) DESC, vec_id ASC), so a doc cut at a batch boundary
can never round-tie its way into disagreeing with the SQL oracle.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray


def _batch_matrix(batch: pa.Table, vec_col: str) -> np.ndarray:
    col = batch[vec_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(len(col), -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(m, axis=1, keepdims=True)
    nrm[nrm == 0] = 1.0
    return m / nrm


def _partial_topk(sims: np.ndarray, ids: np.ndarray, qids: np.ndarray,
                  k: int) -> pa.Table:
    """Per-query top-k of one batch, selected on (round(sim,6) desc, id asc)
    so partial selection agrees with the final merge's rounded ordering."""
    out_q, out_id, out_sim = [], [], []
    for qi in range(sims.shape[0]):
        s = sims[qi]
        live = np.flatnonzero(np.isfinite(s))
        if live.size == 0:
            continue
        order = np.lexsort((ids[live], -np.round(s[live], 6)))[:k]
        idx = live[order]
        out_q.extend([qids[qi]] * idx.size)
        out_id.append(ids[idx])
        out_sim.append(s[idx])
    return pa.table({
        "q_id": pa.array(out_q, pa.int64()),
        "vec_id": pa.array(np.concatenate(out_id) if out_id else
                           np.empty(0, np.int64)),
        "sim": pa.array(np.concatenate(out_sim) if out_sim else
                        np.empty(0, np.float64)),
    })


class _BruteForceStage:
    """Per-batch cosine vs the broadcast query matrix → partial top-k rows.

    ``bucket_col``: when set (lsh_knn), a query only scores batch vectors
    whose bucket is in the query's probe set — a single own bucket
    (``buckets``, 1-D) or a multiprobe set (``probes``, (nq, n_probe))."""

    def __init__(self, qref, k: int, id_col: str, vec_col: str,
                 bucket_col: str | None = None):
        q = ray.get(qref)
        self.qids = q["qids"]
        self.qmat = _normalize(q["mat"])
        self.qbuckets = q.get("buckets")
        self.qprobes = q.get("probes")
        self.k, self.id_col, self.vec_col = k, id_col, vec_col
        self.bucket_col = bucket_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        mat = _normalize(_batch_matrix(batch, self.vec_col))
        sims = self.qmat @ mat.T                      # (nq, nb)
        if self.bucket_col is not None:
            vb = batch[self.bucket_col].to_numpy(zero_copy_only=False)
            if self.qprobes is not None:
                ok = (self.qprobes[:, :, None] == vb[None, None, :]) \
                    .any(axis=1)                      # (nq, nb)
            else:
                ok = self.qbuckets[:, None] == vb[None, :]
            sims = np.where(ok, sims, -np.inf)
        return _partial_topk(sims, ids, self.qids, self.k)


def _final_topk(k: int):
    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["sim"] = g["sim"].round(6)
        g = g.sort_values(["sim", "vec_id"], ascending=[False, True]).head(k)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["q_id", "vec_id", "rank", "sim"]]
    merge.__name__ = "final_topk"
    return merge


def brute_force_knn(ds, query_ids: np.ndarray, query_mat: np.ndarray, k: int = 10,
                    id_col: str = "vec_id", vec_col: str = "embedding"):
    """Exact cosine top-k → (q_id, vec_id, rank, sim[rounded 6dp]).
    Ties broken (sim desc, vec_id asc) on the ROUNDED similarity at every
    selection stage so ranks are reproducible against the SQL oracle."""
    qref = ray.put({"qids": np.asarray(query_ids, np.int64),
                    "mat": np.asarray(query_mat, np.float64)})
    partial = ds.map_batches(
        _BruteForceStage, fn_constructor_kwargs=dict(
            qref=qref, k=k, id_col=id_col, vec_col=vec_col),
        batch_format="pyarrow", batch_size=4096, concurrency=(1, 8),
        num_cpus=0.5)
    return partial.groupby("q_id").map_groups(_final_topk(k),
                                              batch_format="pandas")


class _BlockPairStage:
    """(block_i, block_j) descriptor → all cross pairs with cosine ≥ t.

    Loads the two partitioned-parquet blocks (per-actor cache — a block is
    read once per actor, not once per pair task) and does one (n_i × n_j)
    matmul. Partitioning assumption: N/B rows per block fit one worker's
    heap; raise ``num_blocks`` as N grows (memory per task is O((N/B)·d))."""

    def __init__(self, work_dir: str, threshold: float, id_col: str,
                 vec_col: str):
        self.work_dir, self.threshold = work_dir, threshold
        self.id_col, self.vec_col = id_col, vec_col
        self._cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _load(self, blk: int) -> tuple[np.ndarray, np.ndarray]:
        if blk not in self._cache:
            import pyarrow.dataset as pads
            d = os.path.join(self.work_dir, f"block={blk}")
            if not os.path.isdir(d):
                self._cache[blk] = (np.empty(0, np.int64),
                                    np.empty((0, 1), np.float64))
            else:
                t = pads.dataset(d).to_table(
                    columns=[self.id_col, self.vec_col])
                ids = t[self.id_col].to_numpy(zero_copy_only=False)
                self._cache[blk] = (ids.astype(np.int64),
                                    _normalize(_batch_matrix(t, self.vec_col)))
        return self._cache[blk]

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_a, out_b, out_c = [], [], []
        for bi, bj in zip(batch["bi"].to_pylist(), batch["bj"].to_pylist()):
            ids_i, mat_i = self._load(int(bi))
            ids_j, mat_j = self._load(int(bj))
            if ids_i.size == 0 or ids_j.size == 0:
                continue
            sims = mat_i @ mat_j.T
            if bi == bj:
                pi, pj = np.triu_indices(ids_i.size, k=1)
                sel = sims[pi, pj] >= self.threshold
                pi, pj = pi[sel], pj[sel]
                c = sims[pi, pj]
            else:
                pi, pj = np.nonzero(sims >= self.threshold)
                c = sims[pi, pj]
            a, b = ids_i[pi], ids_j[pj]
            out_a.append(np.minimum(a, b))
            out_b.append(np.maximum(a, b))
            out_c.append(np.round(c, 6))
        return pa.table({
            "doc_a": pa.array(np.concatenate(out_a) if out_a else
                              np.empty(0, np.int64)),
            "doc_b": pa.array(np.concatenate(out_b) if out_b else
                              np.empty(0, np.int64)),
            "cosine": pa.array(np.concatenate(out_c) if out_c else
                               np.empty(0, np.float64)),
        })


def embedding_neardup(ds, threshold: float = 0.95, id_col: str = "vec_id",
                      vec_col: str = "embedding", num_blocks: int = 8,
                      work_dir: str | None = None):
    """Embedding-cosine near-duplicate pairs → (doc_a, doc_b, cosine ≥ t).

    Exact blocked self-join: ONE streaming pass hash-partitions vectors into
    ``num_blocks`` parquet blocks (resumable artifact), then B(B+1)/2
    block-pair tasks each do one matmul. Nothing is materialized on the
    driver and no full matrix enters the object store — per-task memory is
    O((N/B)·d). Cost is O(N²·d/P) similarity like any exact all-pairs; for
    web scale use lsh_knn bucketing as the candidate generator instead."""
    import tempfile

    from .fold import _mix64
    work_dir = work_dir or tempfile.mkdtemp(prefix="graft_neardup_")

    def add_block(batch: pa.Table) -> pa.Table:
        v = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        blk = (_mix64(v) % np.uint64(num_blocks)).astype(np.int64)
        return batch.append_column("block", pa.array(blk))

    (ds.map_batches(add_block, batch_format="pyarrow")
       .write_parquet(work_dir, partition_cols=["block"]))

    import ray.data as rd
    pairs = [{"bi": i, "bj": j}
             for i in range(num_blocks) for j in range(i, num_blocks)]
    desc = rd.from_items(pairs, override_num_blocks=len(pairs))
    return desc.map_batches(
        _BlockPairStage, fn_constructor_kwargs=dict(
            work_dir=work_dir, threshold=threshold, id_col=id_col,
            vec_col=vec_col),
        batch_format="pyarrow", batch_size=1, concurrency=(1, 8),
        num_cpus=0.5)


def _assign_clusters(mat: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """argmin squared euclidean distance, ROUNDED at 9dp with smallest-
    cluster-id tie-break — the rounding absorbs float-summation-order noise
    so engine and SQL oracle assign identically."""
    d2 = np.round(((mat[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2), 9)
    return np.argmin(d2, axis=1)          # first min → smallest cluster id


def _kmeans_assign_partials(cents_ref, vec_col: str):
    """One k-means iteration's map side: per-batch partial sums
    (cluster, Σvec, count) — the combiner that keeps the groupby tiny.
    A plain task fn (no actor pool spin-up per iteration); the centroid
    ref resolves from the local object store per batch (tiny, zero-copy)."""

    def f(batch: pa.Table) -> pa.Table:
        cents = ray.get(cents_ref)
        mat = _batch_matrix(batch, vec_col)
        a = _assign_clusters(mat, cents)
        sums, counts, clusters = [], [], []
        for c in np.unique(a):
            sel = a == c
            clusters.append(int(c))
            sums.append(mat[sel].sum(axis=0))
            counts.append(int(sel.sum()))
        return pa.table({
            "cluster": pa.array(clusters, pa.int64()),
            "vsum": pa.array([s.tolist() for s in sums],
                             pa.list_(pa.float64())),
            "n": pa.array(counts, pa.int64())})

    f.__name__ = "kmeans_assign"
    return f


def kmeans_fit(ds, n_clusters: int, n_iters: int = 2,
               id_col: str = "vec_id", vec_col: str = "embedding",
               init_ids: np.ndarray | None = None) -> np.ndarray:
    """Deterministic distributed k-means (Lloyd): init = the vectors with the
    ``n_clusters`` smallest ids (reproducible without randomness), then
    ``n_iters`` rounds of map-side partial sums + one tiny (cluster) groupby
    per round. Centroids round at 9dp each round (see _assign_clusters).
    Only O(k·d) crosses the driver per iteration."""
    if init_ids is None:
        # the ACTUAL k smallest ids (one per-batch min-k pass + driver fold)
        # — ids need not be dense or zero-based
        def _mink(b: pa.Table) -> pa.Table:
            a = np.sort(b[id_col].to_numpy(zero_copy_only=False))[:n_clusters]
            return pa.table({id_col: pa.array(a.astype(np.int64))})

        cand = (ds.select_columns([id_col])
                .map_batches(_mink, batch_format="pyarrow").to_pandas())
        init_ids = np.sort(cand[id_col].to_numpy())[:n_clusters]
    seed_t = (ds.filter(expr=f"{id_col} in {sorted(int(i) for i in init_ids)}")
              .to_pandas().sort_values(id_col))
    if len(seed_t) != n_clusters:
        raise ValueError(
            f"kmeans_fit: {len(seed_t)} of {n_clusters} requested init ids "
            f"present in {id_col} — pass init_ids that exist in the dataset")
    cents = np.round(np.asarray(
        [np.asarray(v, np.float64) for v in seed_t[vec_col]]), 9)
    for _ in range(n_iters):
        cref = ray.put(cents)
        parts = ds.map_batches(
            _kmeans_assign_partials(cref, vec_col),
            batch_format="pyarrow").to_pandas()
        new = cents.copy()
        for c, g in parts.groupby("cluster"):
            tot = np.sum(np.stack([np.asarray(v) for v in g["vsum"]]), axis=0)
            n = int(g["n"].sum())
            if n > 0:
                new[int(c)] = np.round(tot / n, 9)
        cents = new
    return cents


class _IvfScoreStage:
    """Batch of (bucketed) vectors × broadcast queries: a query scores ONLY
    vectors whose cluster is in its probe set."""

    def __init__(self, qref, k: int, id_col: str, vec_col: str):
        q = ray.get(qref)
        self.qids = q["qids"]
        self.qmat = _normalize(q["mat"])
        probes = q["probes"]                 # (nq, n_probe) cluster ids
        # (nq, n_clusters) membership table, built once per actor: the
        # per-batch mask is then a plain column gather — O(nq·nb) — instead
        # of the (nq, n_probe, nb) broadcast-compare temp
        self.probe_mask = np.zeros((len(self.qids),
                                    int(probes.max()) + 1), bool)
        self.probe_mask[np.arange(len(self.qids))[:, None], probes] = True
        self.k, self.id_col, self.vec_col = k, id_col, vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        # upstream filter keeps only probed clusters, so vc indexes in range
        vc = batch["cluster"].to_numpy(zero_copy_only=False)
        mat = _normalize(_batch_matrix(batch, self.vec_col))
        sims = self.qmat @ mat.T
        sims = np.where(self.probe_mask[:, vc], sims, -np.inf)
        return _partial_topk(sims, ids, self.qids, self.k)


def ivf_knn(ds, query_ids: np.ndarray, query_mat: np.ndarray, k: int = 10,
            n_clusters: int = 8, n_probe: int = 2, n_iters: int = 2,
            id_col: str = "vec_id", vec_col: str = "embedding",
            centroids: np.ndarray | None = None):
    """IVF approximate top-k: k-means coarse quantizer, each query probes its
    ``n_probe`` nearest centroids and ranks only those clusters' vectors by
    rounded cosine. The scale path when the corpus outgrows brute force:
    cost per query is O(n/k·n_probe·d) instead of O(n·d).

    Probe selection: squared distance rounded at 9dp, smaller cluster id on
    ties — identical in the SQL oracle."""
    query_mat = np.asarray(query_mat, np.float64)
    if centroids is None:
        centroids = kmeans_fit(ds, n_clusters, n_iters, id_col, vec_col)
    cref = ray.put(centroids)

    def _add_cluster(batch: pa.Table) -> pa.Table:
        a = _assign_clusters(_batch_matrix(batch, vec_col), ray.get(cref))
        return batch.append_column("cluster", pa.array(a.astype(np.int64)))

    d2 = np.round(((query_mat[:, None, :] - centroids[None, :, :]) ** 2)
                  .sum(axis=2), 9)
    probes = np.argsort(d2, kind="stable", axis=1)[:, :n_probe]
    wanted = sorted({int(c) for row in probes for c in row})
    qref = ray.put({"qids": np.asarray(query_ids, np.int64),
                    "mat": query_mat, "probes": probes.astype(np.int64)})
    bucketed = ds.map_batches(_add_cluster, batch_format="pyarrow") \
        .filter(expr=f"cluster in {wanted}")
    partial = bucketed.map_batches(
        _IvfScoreStage, fn_constructor_kwargs=dict(
            qref=qref, k=k, id_col=id_col, vec_col=vec_col),
        batch_format="pyarrow", batch_size=4096, concurrency=(1, 8),
        num_cpus=0.5)
    return partial.groupby("q_id").map_groups(_final_topk(k),
                                              batch_format="pandas")


class _LshStage:
    """vec → (bucket, vec_id, embedding passthrough for rescoring).

    Bits come from the RAW (unnormalized) dot product — the sign is
    normalization-invariant, and raw dots are what the SQL oracle computes
    (list_dot_product against embedded plane literals)."""

    def __init__(self, planes_ref, id_col: str, vec_col: str):
        self.planes = ray.get(planes_ref)
        self.id_col, self.vec_col = id_col, vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = _batch_matrix(batch, self.vec_col)
        bucket = lsh_buckets(mat, self.planes)
        return batch.append_column("bucket", pa.array(bucket))


def lsh_planes(nbits: int, dim: int, seed: int = 5) -> np.ndarray:
    """Seeded hyperplanes — exposed so the SQL oracle can embed the exact
    constants."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((nbits, dim))


def lsh_buckets(mat: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (mat @ planes.T) > 0
    bucket = np.zeros(mat.shape[0], dtype=np.int64)
    for b in range(planes.shape[0]):
        bucket |= bits[:, b].astype(np.int64) << b
    return bucket


def lsh_knn(ds, query_ids: np.ndarray, query_mat: np.ndarray, k: int = 10,
            nbits: int = 8, seed: int = 5, id_col: str = "vec_id",
            vec_col: str = "embedding", multiprobe: int = 0):
    """Approximate cosine top-k: each query probes its own LSH bucket plus
    (``multiprobe`` > 0) the buckets reached by flipping the hash bits
    with the smallest hyperplane margins — the standard multiprobe recall
    lever (Lv et al., VLDB 2007): a near neighbor that lands across one
    low-confidence hyperplane is recovered without adding hash tables.
    Probe count = 1 + multiprobe (≤ nbits single-bit flips), so the scan
    fraction is ~(1+multiprobe)/2^nbits. Vectors outside every query's
    probe set are filtered before scoring. Partitioning assumption:
    bucket sizes ≈ n/2^nbits; skewed data ⇒ pick nbits so the hottest
    bucket still fits one group."""
    query_mat = np.asarray(query_mat, np.float64)
    planes = lsh_planes(nbits, query_mat.shape[1], seed)
    planes_ref = ray.put(planes)
    qbucket = lsh_buckets(query_mat, planes)
    qinfo = {"qids": np.asarray(query_ids, np.int64), "mat": query_mat}
    if multiprobe > 0:
        nflip = min(int(multiprobe), nbits)
        # flip order: ascending |raw dot| — the bits most likely wrong
        margins = np.abs(query_mat @ planes.T)        # (nq, nbits)
        flip_bits = np.argsort(margins, kind="stable", axis=1)[:, :nflip]
        probes = np.empty((qbucket.size, 1 + nflip), np.int64)
        probes[:, 0] = qbucket
        for j in range(nflip):
            probes[:, 1 + j] = qbucket ^ (np.int64(1) << flip_bits[:, j])
        qinfo["probes"] = probes
        wanted = sorted({int(x) for x in probes.ravel()})
    else:
        qinfo["buckets"] = qbucket
        wanted = sorted({int(x) for x in qbucket})

    bucketed = ds.map_batches(
        _LshStage, fn_constructor_kwargs=dict(
            planes_ref=planes_ref, id_col=id_col, vec_col=vec_col),
        batch_format="pyarrow", concurrency=(1, 8), num_cpus=0.5)
    probed = bucketed.filter(expr=f"bucket in {wanted}")
    qref = ray.put(qinfo)
    partial = probed.map_batches(
        _BruteForceStage, fn_constructor_kwargs=dict(
            qref=qref, k=k, id_col=id_col, vec_col=vec_col,
            bucket_col="bucket"),
        batch_format="pyarrow", batch_size=4096, concurrency=(1, 8),
        num_cpus=0.5)
    return partial.groupby("q_id").map_groups(_final_topk(k),
                                              batch_format="pandas")


def group_centroids(ds, group_col: str = "label",
                    vec_col: str = "embedding", id_col: str = "vec_id"):
    """Per-group embedding centroids → long-format (label, dim, n_vecs,
    centroid) with ``dim`` 1-based.

    Scale shape: each batch pre-reduces to one (group, dim, partial-sum,
    count) row set — the exchange is O(groups × dims × blocks), never
    vector-count-sized. Elements sum as exact int64 micro-units
    (floor(v·1e6+0.5)) so the centroid is bit-stable under any summation
    order; the SQL oracle replays the same integers via
    ``embedding[i]`` + ``generate_series``. The float32→float64 widening
    of each element is exact, so both engines floor identical doubles."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        mat = _batch_matrix(batch, vec_col)
        micro = np.floor(mat * 1e6 + 0.5).astype(np.int64)
        labels = batch[group_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = np.argsort(labels, kind="stable")
        lab, m = labels[order], micro[order]
        starts = np.flatnonzero(
            np.concatenate(([True], lab[1:] != lab[:-1])))
        sums = np.add.reduceat(m, starts, axis=0)
        ns = np.diff(np.concatenate((starts, [lab.size])))
        g, d = sums.shape
        return pa.table({
            "label": pa.array(np.repeat(lab[starts], d)),
            "dim": pa.array(np.tile(np.arange(1, d + 1, dtype=np.int64), g)),
            "s": pa.array(sums.ravel()),
            "n": pa.array(np.repeat(ns, d).astype(np.int64)),
        })

    def finish(batch: pa.Table) -> pa.Table:
        s = batch["sum(s)"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = batch["sum(n)"].to_numpy(zero_copy_only=False).astype(np.float64)
        cent = np.floor((s / 1e6 / n) * 1e6 + 0.5) / 1e6
        return pa.table({
            "label": batch["label"],
            "dim": batch["dim"],
            "n_vecs": batch["sum(n)"].cast(pa.int64()),
            "centroid": pa.array(cent),
        })

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["label", "dim"]).aggregate(Sum("s"), Sum("n"))
            .map_batches(finish, batch_format="pyarrow"))


def quantize_embeddings(ds, vec_col: str = "embedding",
                        id_col: str = "vec_id"):
    """Scalar int8 quantization of an embedding column → long-format
    (vec_id, dim, code) with ``code ∈ [−127, 127]`` under a per-dimension
    affine grid (the standard 4× memory reduction for ANN scans /
    broadcasts at scale).

    Pass 1 folds per-batch per-dim (min, max) partials — dims×blocks tiny
    rows, exact floats (no rounding) — and the driver derives the per-dim
    grid ``scale = (max−min)/254`` (zero-range dims get scale 1 → code
    −127). Pass 2 is stateless: ``clamp(floor((v−min)/scale + 0.5),
    0, 254) − 127`` — every operation is an IEEE double op on identical
    inputs, so codes are bit-exact integers and the SQL oracle replays
    them verbatim."""
    import ray

    def mm_partial(batch: pa.Table) -> pa.Table:
        mat = _batch_matrix(batch, vec_col)
        d = mat.shape[1]
        return pa.table({
            "dim": pa.array(np.arange(1, d + 1, dtype=np.int64)),
            "mn": pa.array(mat.min(axis=0)),
            "mx": pa.array(mat.max(axis=0))})

    mm = ds.map_batches(mm_partial, batch_format="pyarrow").to_pandas() \
        .groupby("dim").agg(mn=("mn", "min"), mx=("mx", "max")) \
        .sort_index()
    mins = mm["mn"].to_numpy(np.float64)
    scale = (mm["mx"].to_numpy(np.float64) - mins) / 254.0
    scale[scale == 0] = 1.0
    gref = ray.put((mins, scale))

    def quantize(batch: pa.Table) -> pa.Table:
        mn, sc = ray.get(gref)
        mat = _batch_matrix(batch, vec_col)
        code = np.clip(np.floor((mat - mn) / sc + 0.5), 0, 254) \
            .astype(np.int64) - 127
        n, d = mat.shape
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "vec_id": pa.array(np.repeat(ids, d)),
            "dim": pa.array(np.tile(np.arange(1, d + 1, dtype=np.int64), n)),
            "code": pa.array(code.ravel())})

    return ds.map_batches(quantize, batch_format="pyarrow")

"""Semi/anti joins and reciprocal-rank fusion against hand-computed
goldens."""

import numpy as np
import pyarrow as pa
import pytest


def test_semi_and_anti_join(ray_session):
    import ray.data as rd

    from lucene_msmarco_ray.ops.join import bucketed_semi_join
    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 2, 5], pa.int64()),
        "v": pa.array(["a", "b", "c", "d", "e"])}))
    right = rd.from_arrow(pa.table({
        "rk": pa.array([2, 2, 3, 9], pa.int64())}))
    sch = pa.schema([pa.field("k", pa.int64()), pa.field("v", pa.string())])
    semi = bucketed_semi_join(left, right, key="k", right_key="rk",
                              how="semi", left_schema=sch).to_pandas() \
        .sort_values("v").reset_index(drop=True)
    assert semi["v"].tolist() == ["b", "c", "d"]
    anti = bucketed_semi_join(left, right, key="k", right_key="rk",
                              how="anti", left_schema=sch).to_pandas() \
        .sort_values("v").reset_index(drop=True)
    assert anti["v"].tolist() == ["a", "e"]
    assert str(anti["k"].dtype) == "int64"      # schema never widens


def test_semi_join_rejects_bad_how(ray_session):
    from lucene_msmarco_ray.ops.join import bucketed_semi_join
    with pytest.raises(ValueError):
        bucketed_semi_join(None, None, key="k", how="outer")


def test_rrf_fuse_goldens(ray_session):
    import ray.data as rd

    from lucene_msmarco_ray.ops.relational import rrf_fuse

    def run(rows):
        return rd.from_arrow(pa.table({
            "qid": pa.array([r[0] for r in rows]),
            "doc_id": pa.array([r[1] for r in rows], pa.int64()),
            "rank": pa.array([r[2] for r in rows], pa.int64())}))

    # q1: doc 10 is rank 1 in A and rank 2 in B; doc 20 rank 2/1;
    # doc 30 only in A (rank 3)
    a = run([("q1", 10, 1), ("q1", 20, 2), ("q1", 30, 3)])
    b = run([("q1", 20, 1), ("q1", 10, 2)])
    out = rrf_fuse([a, b], k_rrf=60).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    big = 10 ** 12
    exp = {10: big // 61 + big // 62, 20: big // 62 + big // 61,
           30: big // 63}
    assert dict(zip(out["doc_id"], out["rrf_micro"])) == exp
    assert dict(zip(out["doc_id"], out["n_runs"])) == {10: 2, 20: 2, 30: 1}

    # doc 10 and 20 tie exactly (same integer contributions) → tie broken
    # by item id ascending in the ranked variant
    ranked = rrf_fuse([a, b], k_rrf=60, topk=2).to_pandas() \
        .sort_values("rank").reset_index(drop=True)
    assert ranked["doc_id"].tolist() == [10, 20]
    assert ranked["rank"].tolist() == [1, 2]


def test_salted_join_matches_unsalted_under_forced_skew(ray_session):
    import pandas as pd
    import ray.data as rd

    from lucene_msmarco_ray.ops.join import bucketed_hash_join, detect_hot_keys
    # key 7 is pathologically hot on the left (500 rows); right has 3 rows
    # of it — the exact shape salting exists for
    lk = np.concatenate([np.full(500, 7), np.arange(100)])
    left = rd.from_arrow(pa.table({
        "k": pa.array(lk, pa.int64()),
        "lv": pa.array(np.arange(lk.size), pa.int64())}))
    rk = np.array([7, 7, 7, 1, 2, 999])
    right = rd.from_arrow(pa.table({
        "k": pa.array(rk, pa.int64()),
        "rv": pa.array(np.arange(rk.size) * 10, pa.int64())}))
    lsch = pa.schema([("k", pa.int64()), ("lv", pa.int64())])
    rsch = pa.schema([("k", pa.int64()), ("rv", pa.int64())])

    hot = detect_hot_keys(left, "k", threshold=100)
    assert hot == [7]

    def canon(df):
        return df.sort_values(["k", "lv", "rv"]).reset_index(drop=True)

    for how in ("inner", "left"):
        plain = canon(bucketed_hash_join(
            left, right, "k", how=how,
            left_schema=lsch, right_schema=rsch).to_pandas())
        salted = canon(bucketed_hash_join(
            left, right, "k", how=how, hot_keys=hot, hot_replicas=4,
            left_schema=lsch, right_schema=rsch).to_pandas())
        pd.testing.assert_frame_equal(plain, salted)
        # golden: pandas merge on the same inputs
        gold = canon(
            pd.DataFrame({"k": lk, "lv": np.arange(lk.size)}).merge(
                pd.DataFrame({"k": rk, "rv": np.arange(rk.size) * 10}),
                on="k", how=how))
        if how == "left":
            gold["rv"] = gold["rv"].astype("Int64")
            salted["rv"] = salted["rv"].astype("Int64")
        pd.testing.assert_frame_equal(
            gold.reset_index(drop=True), canon(salted), check_dtype=False)


def test_salted_join_rejects_outer(ray_session):
    from lucene_msmarco_ray.ops.join import bucketed_hash_join
    with pytest.raises(ValueError):
        bucketed_hash_join(None, None, "k", how="outer", hot_keys=[1])


def test_group_centroids_goldens(ray_session):
    import math

    import ray.data as rd

    from lucene_msmarco_ray.ops.ann import group_centroids
    ds = rd.from_arrow(pa.table({
        "label": pa.array([0, 0, 1], pa.int32()),
        "embedding": pa.array([[1.0, -2.0], [2.0, 3.0], [0.5, 0.5]],
                              pa.list_(pa.float32()))}))
    out = group_centroids(ds).to_pandas() \
        .sort_values(["label", "dim"]).reset_index(drop=True)
    assert out["label"].tolist() == [0, 0, 1, 1]
    assert out["dim"].tolist() == [1, 2, 1, 2]
    assert out["n_vecs"].tolist() == [2, 2, 1, 1]

    def cent(vals):
        s = sum(math.floor(v * 1e6 + 0.5) for v in vals)
        return math.floor((s / 1e6 / len(vals)) * 1e6 + 0.5) / 1e6

    assert out["centroid"].tolist() == [
        cent([1.0, 2.0]), cent([-2.0, 3.0]), cent([0.5]), cent([0.5])]


def test_connected_components_goldens(ray_session):
    import ray.data as rd

    from lucene_msmarco_ray.ops.dedup import connected_components
    pairs = rd.from_arrow(pa.table({
        "doc_a": pa.array([1, 2, 7, 9], pa.int64()),
        "doc_b": pa.array([2, 3, 8, 1], pa.int64())}))
    out = connected_components(pairs).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # chains 1-2-3 and 9-1 merge into component 1; 7-8 is component 7
    assert out["doc_id"].tolist() == [1, 2, 3, 7, 8, 9]
    assert out["component"].tolist() == [1, 1, 1, 7, 7, 1]


def test_distributed_components_match_unionfind(ray_session, monkeypatch):
    import ray.data as rd

    from lucene_msmarco_ray.ops import fold
    from lucene_msmarco_ray.ops.dedup import (
        connected_components, connected_components_distributed)
    # the label folds and re-pins are partition-count invariant; 4
    # partitions keep each propagation round's exchanges small
    monkeypatch.setattr(fold, "coarse_parts", lambda: 4)
    # deterministic pseudo-random graph: chains + cliques + isolated pair;
    # small (few label-propagation rounds) — the gate covers real scale
    rng = np.random.RandomState(11)
    a = rng.randint(0, 18, 24).astype(np.int64)
    b = rng.randint(0, 18, 24).astype(np.int64)
    keep = a != b
    pairs = rd.from_arrow(pa.table({"doc_a": pa.array(a[keep]),
                                    "doc_b": pa.array(b[keep])}))
    uf = connected_components(pairs).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    lp = connected_components_distributed(pairs).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert uf.equals(lp)


def test_quantize_embeddings_goldens(ray_session):
    import ray.data as rd

    from lucene_msmarco_ray.ops.ann import quantize_embeddings
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array([0, 1], pa.int64()),
        "embedding": pa.array([[0.0, 5.0], [1.0, 5.0]],
                              pa.list_(pa.float32()))}))
    out = quantize_embeddings(ds).to_pandas() \
        .sort_values(["vec_id", "dim"]).reset_index(drop=True)
    # dim 1: range [0,1] → scale 1/254; codes 0-127=-127 and 254-127=127
    # dim 2: zero range → scale 1 → floor(0+0.5)=0 → -127 for both
    assert out["code"].tolist() == [-127, -127, 127, -127]
    # round-trip error bound: |v - (min + (code+127)*scale)| <= scale/2
    assert out["code"].between(-127, 127).all()


def test_bloom_semi_join_matches_exact_even_with_tiny_filter(ray_session):
    """Bloom pre-filter must be invisible in the OUTPUT: with a
    deliberately tiny filter (m=64 bits for 300 keys — false positives
    everywhere) both semi and anti equal the plain bucketed join; a
    roomy filter too. Also proves no false negatives (the property the
    anti path's free pass-through relies on)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from lucene_msmarco_ray.ops.join import (
        bloom_semi_join,
        bucketed_semi_join,
    )
    rng = np.random.default_rng(9)
    lk = rng.integers(0, 1000, 800)
    rk = rng.integers(0, 1000, 300)
    left = rd.from_arrow(pa.table({
        "k": pa.array(lk, pa.int64()),
        "row": pa.array(np.arange(800), pa.int64())})).repartition(8)
    right = rd.from_arrow(pa.table({"rk": pa.array(rk, pa.int64())})) \
        .repartition(4)
    sch = pa.schema([pa.field("k", pa.int64()), pa.field("row", pa.int64())])

    for how in ("semi", "anti"):
        want = bucketed_semi_join(left, right, key="k", right_key="rk",
                                  how=how, left_schema=sch).to_pandas() \
            .sort_values("row").reset_index(drop=True)
        for m_bits in (64, 1 << 14):
            got = bloom_semi_join(left, right, key="k", right_key="rk",
                                  how=how, m_bits=m_bits,
                                  left_schema=sch).to_pandas() \
                .sort_values("row").reset_index(drop=True)
            pd.testing.assert_frame_equal(got, want)


def test_bloom_filter_actually_prunes(ray_session):
    """With a roomy filter and a selective right side, the Bloom stage
    drops (almost) every non-matching left row before the exchange."""
    import numpy as np
    import ray

    from lucene_msmarco_ray.ops.join import (
        _bloom_positions,
        _build_bloom,
    )
    import ray.data as rd
    rk = np.arange(0, 50, dtype=np.int64)
    right = rd.from_arrow(pa.table({"rk": pa.array(rk)}))
    words = _build_bloom(right, "rk", m_bits=1 << 14, k_hashes=4)
    probe = np.arange(0, 5000, dtype=np.int64)
    pos = _bloom_positions(probe, 1 << 14, 4)
    w = words.view(np.uint64)[(pos >> np.uint64(6)).astype(np.int64)]
    hit = ((w >> (pos & np.uint64(63))) & np.uint64(1)).all(axis=0)
    assert hit[:50].all()                      # no false negatives
    fp = hit[50:].mean()
    assert fp < 0.02                           # ~(1-e^{-kn/m})^k ≈ 1e-5 here


def test_bloom_semi_join_odd_m_bits(ray_session):
    """m_bits not a multiple of 64 (the docstring's '10 bits/key' sizing
    naturally produces these) is rounded up instead of crashing."""
    import numpy as np
    import ray.data as rd

    from lucene_msmarco_ray.ops.join import bloom_semi_join
    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4, 5], pa.int64())}))
    right = rd.from_arrow(pa.table({"k": pa.array([2, 4], pa.int64())}))
    sch = pa.schema([pa.field("k", pa.int64())])
    for m in (1, 50, 100, 1000):
        out = bloom_semi_join(left, right, key="k", m_bits=m,
                              left_schema=sch).to_pandas()
        assert sorted(out["k"]) == [2, 4], m


def test_bloom_build_empty_right_blocks(ray_session):
    """Regression: _build_bloom's partial crashed (reduceat on a size-0
    array) when a right-side block carried zero keys — routine when the
    right side is a filtered dataset. An entirely-empty right side must
    also work: semi yields nothing, anti yields everything."""
    import numpy as np
    import ray.data as rd

    from lucene_msmarco_ray.ops.join import bloom_semi_join
    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64())}))
    # 4 blocks, only one of which survives the filter → 3 empty blocks
    right = rd.from_arrow(pa.table({
        "k": pa.array(np.arange(40), pa.int64())})).repartition(4) \
        .filter(lambda r: r["k"] == 2)
    sch = pa.schema([pa.field("k", pa.int64())])
    out = bloom_semi_join(left, right, key="k", left_schema=sch).to_pandas()
    assert sorted(out["k"]) == [2]

    nothing = right.filter(lambda r: r["k"] < 0)
    assert bloom_semi_join(left, nothing, key="k",
                           left_schema=sch).count() == 0
    anti = bloom_semi_join(left, nothing, key="k", how="anti",
                           left_schema=sch).to_pandas()
    assert sorted(anti["k"]) == [1, 2, 3, 4]

"""Query-KNN, few-shot generation, multimodal stubs, experiment drivers."""

import numpy as np
import pandas as pd
import pytest

from lucene_msmarco_ray.ops.multimodal import (
    AudioFeatureStage,
    ImageDecodeStage,
    decode_media,
    synth_media_table,
)
from lucene_msmarco_ray.pipelines.knn import (
    QueryKnn,
    find_rank,
    generate_fewshot,
    sample_negative_rank,
)


def test_query_knn():
    knn = QueryKnn({"a": ["x", "y"], "b": ["x", "z"], "c": ["w"]})
    top = knn.topk(["x", "y"], k=2)
    assert top[0][0] == "a" and top[1][0] == "b"
    assert knn.topk(["x"], k=2, exclude_qid="a")[0][0] == "b"
    assert knn.topk(["nope"], k=2) == []


def test_negative_sampling_deterministic():
    r1 = sample_negative_rank("q1", 5)
    assert 50 <= r1 < 150
    assert r1 == sample_negative_rank("q1", 5)
    assert sample_negative_rank("q1", 6) != r1 or True  # may collide, range ok


def test_fewshot_structure():
    knn = QueryKnn({"t1": ["x", "y"], "t2": ["x"]})
    docs = {1: "doc one", 2: "doc two"}
    out = generate_fewshot(
        {"q9": "x y"}, knn, lambda t: t.split(),
        rel_docs_of=lambda q: {1} if q == "t1" else set(),
        retrieve_fn=lambda terms, k: [2, 1],
        doc_text_of=lambda d: docs.get(d, ""),
        k_related=2)
    assert out[0]["query.id"] == "q9"
    shots = out[0]["fewshots"]
    assert shots and shots[0]["msmarco.query.id"] == "t1"
    info = shots[0]["msmarco.qrel.info"][0]
    assert info["reldoc.id"] == 1 and info["reldoc.lexmodel.rank"] == 2
    assert find_rank(99, [2, 1]) == -1


def test_video_frame_sampling_real():
    """Real MPNG path: stride sampling decodes the right source frames and
    features match a direct decode of those frames."""
    import pyarrow as pa

    from lucene_msmarco_ray.ops.media_codec import (
        decode_png,
        encode_mpng,
        image_feature,
        parse_mpng,
    )
    from lucene_msmarco_ray.ops.multimodal import VideoFrameSampleStage
    rng = np.random.default_rng(7)
    frames = [rng.integers(0, 256, (10, 12, 3), np.uint8) for _ in range(9)]
    payload = encode_mpng(frames, frame_interval_ms=40)
    interval, spans = parse_mpng(payload)
    assert interval == 40 and len(spans) == 9
    for (off, ln), f in zip(spans, frames):
        assert np.array_equal(decode_png(payload[off:off + ln]), f)

    batch = pa.table({"media_id": pa.array([5], pa.int64()),
                      "payload": pa.array([payload], pa.large_binary()),
                      "duration_ms": pa.array([360], pa.int32())})
    # stride_ms=120 / interval 40 -> every 3rd frame: indices 0, 3, 6
    out = VideoFrameSampleStage(dim=16, stride_ms=120, fake=False)(batch)
    assert out["frame_idx"].to_pylist() == [0, 3, 6]
    for idx, feat in zip(out["frame_idx"].to_pylist(),
                         out["feature"].to_pylist()):
        expect = image_feature(frames[idx], 16)
        assert np.allclose(np.array(feat, np.float32), expect)
    # max_frames caps the sample count
    capped = VideoFrameSampleStage(dim=16, stride_ms=40, max_frames=4,
                                   fake=False)(batch)
    assert capped["frame_idx"].to_pylist() == [0, 1, 2, 3]


def test_png_roundtrip_all_filters_and_channels():
    from lucene_msmarco_ray.ops.media_codec import decode_png, encode_png
    rng = np.random.default_rng(11)
    for ch in (1, 2, 3, 4):
        img = rng.integers(0, 256, (13, 9, ch), np.uint8)
        for filters in (None, [1] * 13, [2] * 13, [3] * 13, [4] * 13,
                        [y % 5 for y in range(13)]):
            out = decode_png(encode_png(img, filters=filters))
            assert np.array_equal(out, img), (ch, filters)


def test_wav_roundtrip_and_features():
    from lucene_msmarco_ray.ops.media_codec import (
        audio_feature,
        decode_wav,
        encode_wav,
    )
    rng = np.random.default_rng(5)
    sig = np.clip(rng.standard_normal(8000) * 0.3, -1, 1)
    out, rate = decode_wav(encode_wav(sig, 8000))
    assert rate == 8000 and out.size == 8000
    assert np.allclose(out, np.trunc(sig * 32767) / 32768.0, atol=1 / 32768)
    f = audio_feature(out, 16)
    assert f.shape == (16,) and (f >= 0).all()


def test_image_feature_and_resize():
    from lucene_msmarco_ray.ops.media_codec import (
        image_feature,
        resize_nearest,
    )
    # constant image → constant luminance feature
    img = np.full((20, 30, 3), 128, np.uint8)
    small = resize_nearest(img, (8, 8))
    assert small.shape == (8, 8, 3)
    f = image_feature(small, 64)
    assert f.shape == (64,) and np.allclose(f, 128 / 255, atol=2e-3)


def test_multimodal_real_pipeline(ray_session):
    import ray.data as rd

    from lucene_msmarco_ray.ops.media_codec import (
        decode_image,
        image_feature,
        resize_nearest,
    )
    from lucene_msmarco_ray.ops.multimodal import synth_real_media_table
    tbl = synth_real_media_table(30)
    ds = rd.from_arrow(tbl)
    img = decode_media(ds, "image", fake=False, concurrency=1).to_pandas()
    assert len(img) == 10
    # per-row: source dims reported, feature replayable from the payload
    # (mixed-format table: dispatch on magic, like the stage does)
    pay = {m: p for m, p, k in zip(tbl["media_id"].to_pylist(),
                                   tbl["payload"].to_pylist(),
                                   tbl["kind"].to_pylist()) if k == "image"}
    for _, r in img.iterrows():
        src = decode_image(pay[r["media_id"]])
        assert (r["height"], r["width"]) == src.shape[:2]
        want = image_feature(resize_nearest(src, (224, 224)), 64)
        assert np.allclose(np.array(r["feature"]), want)
    aud = decode_media(ds, "audio", fake=False, concurrency=1).to_pandas()
    assert len(aud) == 10 and (aud["n_frames"] >= 1).all()
    # determinism across runs
    aud2 = decode_media(rd.from_arrow(tbl), "audio", fake=False,
                        concurrency=1).to_pandas()
    a = np.array(aud.sort_values("media_id")["feature"].tolist())
    b = np.array(aud2.sort_values("media_id")["feature"].tolist())
    assert np.array_equal(a, b)


def test_multimodal_fake_pipeline(ray_session):
    import ray.data as rd
    tbl = synth_media_table(30)
    ds = rd.from_arrow(tbl)
    img = decode_media(ds, "image", fake=True, concurrency=1).to_pandas()
    assert len(img) == 10 and len(img.iloc[0]["feature"]) == 64
    vid = decode_media(ds, "video", fake=True, concurrency=1).to_pandas()
    assert (vid.groupby("media_id").size() >= 1).all()
    # determinism: same payload → same feature
    img2 = decode_media(rd.from_arrow(tbl), "image", fake=True,
                        concurrency=1).to_pandas()
    a = np.array(img.sort_values("media_id")["feature"].tolist())
    b = np.array(img2.sort_values("media_id")["feature"].tolist())
    assert np.array_equal(a, b)


def test_qpp_experiment(ray_session, tmp_path_factory):
    import ray.data as rd

    from lucene_msmarco_ray.config import EngineConfig
    from lucene_msmarco_ray.index.build import build_index
    from lucene_msmarco_ray.pipelines.experiment import (
        qpp_experiment,
        stochastic_qpp_evaluation,
    )
    from lucene_msmarco_ray.search.service import retrieve
    out = str(tmp_path_factory.mktemp("exp") / "idx")
    ds = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"])
    build_index(ds, out, EngineConfig(analyzer="simple", num_shards=2),
                text_col="text", id_col="doc_id")
    queries = {"1": "table value hash", "2": "window sort merge",
               "3": "key scan"}
    run = retrieve(rd.from_items(
        [{"qid": q, "text": t} for q, t in queries.items()]),
        out, k=30, concurrency=1).materialize()
    # qrels over docs that actually appear in the run, graded deterministically
    rdf = run.to_pandas()
    rows = []
    for qid, g in rdf.groupby("qid"):
        for _, r in g.sort_values("rank").head(10).iterrows():
            rows.append({"qid": qid, "docid": int(r["doc_id"]),
                         "rel": (int(r["doc_id"]) + int(qid)) % 4})
    qrels = pd.DataFrame(rows)
    qrels = qrels[qrels.rel > 0]
    exp = qpp_experiment(run, qrels, queries, out)
    assert set(exp["method"]) == {"nqc", "avgidf", "maxidf"}
    assert set(exp["corr_metric"]) == {"kendall", "sare"}
    assert exp["value"].notna().all()
    st = stochastic_qpp_evaluation(run, qrels, queries, out, num_samples=2)
    assert len(st) == 2 * 1 * 2
    # determinism across invocations
    st2 = stochastic_qpp_evaluation(run, qrels, queries, out, num_samples=2)
    assert st.equals(st2)


def test_variant_qpp_estimates(ray_session, tmp_path_factory):
    import ray.data as rd

    from lucene_msmarco_ray.config import EngineConfig
    from lucene_msmarco_ray.fdbk.srlm import variant_specificity
    from lucene_msmarco_ray.index.build import build_index
    from lucene_msmarco_ray.pipelines.experiment import variant_qpp_estimates
    from lucene_msmarco_ray.pipelines.feedback import qpp_estimates
    from lucene_msmarco_ray.search.service import retrieve

    out = str(tmp_path_factory.mktemp("vqpp") / "idx")
    ds = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"])
    build_index(ds, out, EngineConfig(analyzer="simple", num_shards=2),
                text_col="text", id_col="doc_id")
    queries = {"1": "table value hash", "2": "window sort merge"}
    run = retrieve(rd.from_items(
        [{"qid": q, "text": t} for q, t in queries.items()]),
        out, k=30, concurrency=1).materialize()
    vdf = pd.DataFrame([
        ("1", 0, "table value", 0.9), ("1", 1, "value hash", 0.8),
        ("1", 2, "ignored extra", 0.7),     # beyond num_variants → dropped
        ("2", 0, "window sort", 0.9),
    ], columns=["qid", "variant_rank", "variant_text", "ref_sim"])
    est = variant_qpp_estimates(run, vdf, out, queries, k=20,
                                num_variants=2, lam=0.4, concurrency=1)
    assert list(est["qid"]) == ["1", "2"]
    # replay the combine by hand from the SAME primitives
    base = qpp_estimates(run, out, queries, k=20, methods=("nqc",),
                         concurrency=1, normalize_scores=True).to_pandas()
    vq = [(f"{q}#v{r}", t) for q, r, t, _ in vdf.itertuples(index=False)
          if r < 2]
    vrun = retrieve(rd.from_items(
        [{"qid": q, "text": t} for q, t in vq]), out, k=20, concurrency=1)
    vest = qpp_estimates(vrun, out, dict(vq), k=20, methods=("nqc",),
                         concurrency=1, normalize_scores=True).to_pandas()
    vmap = dict(zip(vest["qid"], vest["nqc"]))
    bmap = dict(zip(base["qid"], base["nqc"]))
    for _, row in est.iterrows():
        q = row["qid"]
        pairs = [(rs, vmap[f"{q}#v{r}"]) for _, r, _, rs in
                 vdf[vdf.qid == q].itertuples(index=False) if r < 2]
        want = round(variant_specificity(float(bmap[q]), pairs, 0.4), 6)
        assert row["est"] == pytest.approx(want)

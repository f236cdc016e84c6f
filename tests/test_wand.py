"""Block-max WAND must return EXACTLY the TAAT top-k (scores and tie-break);
serving scores every query with TAAT and never reaches WAND."""

import numpy as np
import pyarrow as pa
import pytest

from lucene_msmarco_ray.config import EngineConfig
from lucene_msmarco_ray.index.build import build_index
from lucene_msmarco_ray.search.scoring import BM25Scorer
from lucene_msmarco_ray.search import wand
from lucene_msmarco_ray.search.searcher import (IndexReader, SearchStage,
                                                score_query_taat)
from lucene_msmarco_ray.search.wand import score_query_wand
from lucene_msmarco_ray.synth import generate_corpus


@pytest.fixture(scope="module")
def wand_index(ray_session, tmp_path_factory):
    import ray.data as rd
    out = str(tmp_path_factory.mktemp("wand") / "idx")
    tbl = generate_corpus(600, seed=11)
    tbl = tbl.append_column("doc_id", __import__("pyarrow").array(
        np.arange(tbl.num_rows, dtype=np.int64)))
    ds = rd.from_arrow(tbl)
    build_index(ds, out, EngineConfig(analyzer="english", num_shards=4,
                                      block_size=32),
                text_col="content", id_col="doc_id")
    return IndexReader(out, preload=True)


@pytest.mark.parametrize("k", [1, 5, 17, 100])
def test_wand_equals_taat(wand_index, k):
    r = wand_index
    scorer = BM25Scorer(k1=0.7, b=0.3)
    vocab = []
    seg = r._cache
    vocab = sorted(seg.keys())
    queries = [
        {vocab[3]: 1.0, vocab[len(vocab) // 2]: 1.0},
        {vocab[0]: 1.0, vocab[1]: 2.0, vocab[len(vocab) - 5]: 1.0},
        {"return": 1.0, "valu": 1.0},            # heavy stemmed terms
        {"zz_absent": 1.0, vocab[7]: 1.0},
        {vocab[i]: 1.0 for i in range(0, len(vocab), max(1, len(vocab) // 8))},
    ]
    for q in queries:
        dt, st = score_query_taat(r, q, k, scorer)
        dw, sw = score_query_wand(r, q, k, scorer)
        assert dt.tolist() == dw.tolist(), q
        np.testing.assert_allclose(st, sw, rtol=1e-12)


def test_wand_bm25_ref_params(wand_index):
    r = wand_index
    scorer = BM25Scorer(k1=1.2, b=0.75)
    q = {"return": 1.0, "index": 1.0, "data": 1.0}
    dt, st = score_query_taat(r, q, 10, scorer)
    dw, sw = score_query_wand(r, q, 10, scorer)
    assert dt.tolist() == dw.tolist()
    np.testing.assert_allclose(st, sw, rtol=1e-12)


def test_search_stage_never_routes_to_wand(wand_index, monkeypatch):
    """A selective query (total df <= 20k, the bound below which serving
    once switched to the per-document WAND loop) and a broad one are both
    answered by TAAT."""
    def no_wand(*a, **k):
        raise AssertionError("SearchStage reached score_query_wand")
    monkeypatch.setattr(wand, "score_query_wand", no_wand)

    r = wand_index
    by_df = sorted(r._cache, key=lambda t: (-r.df(t), t))
    broad, total = [], 0
    for t in by_df:
        broad.append(t)
        total += r.df(t)
        if total > 20_000:
            break
    selective = by_df[-2:] + by_df[:1]
    assert total > 20_000 >= sum(r.df(t) for t in selective)

    stage = SearchStage(r.index_dir, k=100, preload=True, k1=0.7, b=0.3)
    scorer = BM25Scorer(k1=0.7, b=0.3)
    for terms in (selective, broad):
        run = stage(pa.table({"qid": ["q"], "terms": [terms]}))
        dt, st = score_query_taat(r, {t: 1.0 for t in terms}, 100, scorer)
        assert run["doc_id"].to_pylist() == dt.tolist()
        assert run["score"].to_pylist() == st.tolist()

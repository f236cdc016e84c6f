"""Feedback + QPP Ray pipelines over a real built index."""

import numpy as np
import pytest

from lucene_msmarco_ray.pipelines.feedback import (
    expand_queries,
    feedback_rerank,
    induced_rescore,
    qpp_estimates,
    rocchio_pipeline,
    sparsevec_topdocs,
    srlm_fit,
    srlm_rerank_pipeline,
)
from lucene_msmarco_ray.search.searcher import IndexReader

QUERIES = {"1": "table value hash", "2": "window sort merge"}


@pytest.fixture(scope="module")
def run_and_index(ray_session, tmp_path_factory):
    import ray.data as rd

    from lucene_msmarco_ray.config import EngineConfig
    from lucene_msmarco_ray.index.build import build_index
    from lucene_msmarco_ray.search.service import retrieve
    out = str(tmp_path_factory.mktemp("fbidx") / "idx")
    ds = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"])
    build_index(ds, out, EngineConfig(analyzer="simple", num_shards=4),
                text_col="text", id_col="doc_id")
    qs = rd.from_items([{"qid": q, "text": t} for q, t in QUERIES.items()])
    run = retrieve(qs, out, k=50, concurrency=1)
    return run.materialize(), out


def test_feedback_rerank_pipeline(run_and_index):
    run, idx = run_and_index
    rr = feedback_rerank(run, idx, QUERIES, model="conditional",
                         concurrency=1).to_pandas()
    base = run.to_pandas()
    for qid in QUERIES:
        g = rr[rr.qid == qid]
        b = base[base.qid == qid]
        assert set(g["doc_id"]) == set(b["doc_id"])          # permutation
        assert g.sort_values("rank")["score"].is_monotonic_decreasing


def test_expand_queries_pipeline(run_and_index):
    run, idx = run_and_index
    ex = expand_queries(run, idx, QUERIES, concurrency=1).to_pandas()
    for qid, text in QUERIES.items():
        g = ex[ex.qid == qid]
        orig = set(text.split())
        got = set(g["term"])
        assert orig <= got
        assert np.allclose(g[g.term.isin(orig)]["boost"], 0.8)
        assert len(got - orig) > 0       # expansion terms were added


def test_fdbk_term_stats_pipeline(run_and_index):
    """FdbkTermStats dump semantics: weights are the RM-conditional fit
    itself (they sum to 1 per query — each top doc contributes
    sim/sum_sim × a per-doc distribution that sums to <1 only via the
    df mixing; verify against a direct in-process recomputation)."""
    from lucene_msmarco_ray.fdbk.rlm import (TopDocsTermStats,
                                             rm_conditional_weights)
    from lucene_msmarco_ray.pipelines.feedback import fdbk_term_stats
    from lucene_msmarco_ray.search.searcher import IndexReader

    run, idx = run_and_index
    out = fdbk_term_stats(run, idx, num_top_docs=20,
                          concurrency=1).to_pandas()
    reader = IndexReader(idx)
    base = run.to_pandas()
    for qid in QUERIES:
        g = out[out.qid == qid]
        b = base[base.qid == qid].sort_values("rank").head(20)
        topdocs = list(zip(b["doc_id"].astype(int),
                           b["score"].astype(float)))
        vecs = reader.term_vectors([d for d, _ in topdocs])
        exp = rm_conditional_weights(TopDocsTermStats(topdocs, vecs, 20))
        got = dict(zip(g["term"], g["weight"]))
        assert set(got) == set(exp)
        for t, w in exp.items():
            assert abs(got[t] - w) < 1e-12
        # dump order: weight-descending (reference compareTo)
        assert g["weight"].is_monotonic_decreasing


def test_qpp_pipeline(run_and_index):
    run, idx = run_and_index
    qp = qpp_estimates(run, idx, QUERIES, k=50, concurrency=1).to_pandas()
    assert set(qp["qid"]) == set(QUERIES)
    for col in ("nqc", "cumnqc", "avgidf", "maxidf", "rsd", "uef"):
        assert col in qp.columns
        assert (qp[col] >= 0).all()
    # determinism of seeded samplers across a second invocation
    qp2 = qpp_estimates(run, idx, QUERIES, k=50, concurrency=1).to_pandas()
    a = qp.sort_values("qid").reset_index(drop=True)
    b = qp2.sort_values("qid").reset_index(drop=True)
    assert a.equals(b)


def _ranked_docs(base, qid, k=None):
    g = base[base.qid == qid].sort_values("rank")
    return [int(d) for d in (g if k is None else g.head(k))["doc_id"]]


def _lm_lookup(reader):
    from lucene_msmarco_ray.fdbk.srlm import lm_term_weights
    return lambda d: lm_term_weights(reader.term_vectors([d])[d],
                                     reader.num_docs, reader.df)


def test_induced_rescore_pipeline(run_and_index):
    """LM-JM over the matched query terms, 6-dp scores ranked on
    (score desc, doc asc), against the scalar weight in-process."""
    from lucene_msmarco_ray.analysis import get_analyzer
    from lucene_msmarco_ray.fdbk.srlm import lmjm_weight

    run, idx = run_and_index
    out = induced_rescore(run, idx, QUERIES, concurrency=1).to_pandas()
    assert str(out["doc_id"].dtype) == "int64"
    assert str(out["rank"].dtype) == "int64"
    assert str(out["score"].dtype) == "float64"
    reader = IndexReader(idx)
    base = run.to_pandas()
    for qid, text in QUERIES.items():
        docs = _ranked_docs(base, qid)
        vecs = reader.term_vectors(docs)
        exp = []
        for d in docs:
            vec, dl = vecs[d], sum(vecs[d].values())
            exp.append((d, round(sum(
                lmjm_weight(vec[t], reader.num_docs, reader.df(t), dl)
                for t in set(get_analyzer("simple")(text)) if t in vec), 6)))
        exp.sort(key=lambda x: (-x[1], x[0]))
        g = out[out.qid == qid].sort_values("rank")
        assert list(g["rank"]) == list(range(1, len(exp) + 1))
        assert list(g["doc_id"]) == [d for d, _ in exp]
        assert list(g["score"]) == pytest.approx([s for _, s in exp],
                                                 abs=1e-6)
        assert exp[0][1] > 0


def test_sparsevec_topdocs_pipeline(run_and_index):
    from lucene_msmarco_ray.sources.extra import sparsevec_bm25_weight

    run, idx = run_and_index
    out = sparsevec_topdocs(run, idx, k=5, concurrency=1).to_pandas()
    reader = IndexReader(idx)
    base = run.to_pandas()
    for qid in QUERIES:
        top = _ranked_docs(base, qid, 5)
        vecs = reader.term_vectors(top)
        exp = [(d, t, round(sparsevec_bm25_weight(
                    tf, reader.num_docs, reader.df(t),
                    float(sum(vecs[d].values()))), 6))
               for d in top for t, tf in sorted(vecs[d].items())]
        g = out[out.qid == qid]
        assert sorted(zip(g["doc_id"], g["term"], g["wt"])) == sorted(exp)
        assert len(exp) > 0


def test_rocchio_pipeline(run_and_index):
    """Rocchio expansion against the scalar helper, including a query
    with rel docs but no run rows and one with neither."""
    from lucene_msmarco_ray.fdbk.srlm import rocchio_expand

    run, idx = run_and_index
    base = run.to_pandas()
    queries = {**QUERIES, "3": "table merge", "4": "hash"}
    rel_map = {"1": _ranked_docs(base, "1")[2:4],
               "2": _ranked_docs(base, "2")[:1],
               "3": _ranked_docs(base, "2")[1:3]}
    out = rocchio_pipeline(run, idx, queries, rel_map, top_k=10, round_to=6,
                           concurrency=1).to_pandas()
    assert set(out["qid"]) == set(queries)
    reader = IndexReader(idx)
    for qid, text in queries.items():
        exp = rocchio_expand(text.split(), [(qid, 1.0)],
                             lambda q: set(rel_map.get(q) or ()),
                             _ranked_docs(base, qid, 10), _lm_lookup(reader))
        g = out[out.qid == qid]
        assert list(g["term"]) == [t for t, _ in exp]
        assert list(g["wt"]) == pytest.approx([round(w, 6) for _, w in exp],
                                              abs=1e-6)
    assert len(out[out.qid == "3"]) > len(queries["3"].split())
    assert list(out[out.qid == "4"]["term"]) == ["hash"]


def test_srlm_fit_and_rerank_pipeline(run_and_index):
    """The distributed fit equals an in-process SupervisedRLMModel fit at
    9 dp; the rerank equals the model's own rerank at 6 dp."""
    import ray.data as rd

    from lucene_msmarco_ray.fdbk.srlm import SupervisedRLMModel

    run, idx = run_and_index
    base = run.to_pandas()
    rel = {q: _ranked_docs(base, q)[:3] for q in QUERIES}
    rel_pairs = rd.from_items([{"qid": q, "doc_id": d}
                               for q, ds_ in rel.items() for d in ds_])
    reader = IndexReader(idx)
    model = SupervisedRLMModel()
    model.fit(QUERIES, rel, _lm_lookup(reader))
    assert model.dists
    fit = srlm_fit(rel_pairs, idx, QUERIES, concurrency=1)
    assert set(fit.dists) == set(model.dists)
    for q, dist in model.dists.items():
        assert set(fit.dists[q]) == set(dist)
        for t, w in dist.items():
            assert fit.dists[q][t] == pytest.approx(round(w, 9), abs=1e-9)

    out = srlm_rerank_pipeline(run, idx, QUERIES, rel_pairs, top_k=20,
                               prune_to=5, round_to=6,
                               concurrency=1).to_pandas()
    fit.prune(5)
    for qid, text in QUERIES.items():
        topdocs = [(d, float(base[(base.qid == qid) & (base.doc_id == d)]
                             ["score"].iloc[0]))
                   for d in _ranked_docs(base, qid, 20)]
        exp = sorted(((d, round(s, 6)) for d, s in
                      fit.rerank(text, topdocs, _lm_lookup(reader))),
                     key=lambda x: (-x[1], x[0]))
        g = out[out.qid == qid].sort_values("rank")
        assert list(g["doc_id"]) == [d for d, _ in exp]
        assert list(g["score"]) == pytest.approx([s for _, s in exp],
                                                 abs=1e-6)
        assert exp[0][1] > 0

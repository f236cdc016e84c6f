"""End-to-end: build an index over testdata documents, retrieve, and compare
against an independent brute-force oracle (SURVEY.md §5b — the in-sandbox
stand-in for the reference Lucene run)."""

import math
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_msmarco_ray.config import EngineConfig
from lucene_msmarco_ray.index.build import build_index
from lucene_msmarco_ray.search.searcher import IndexReader, score_query_taat
from lucene_msmarco_ray.search.service import retrieve
from lucene_msmarco_ray.search.scoring import BM25Scorer, LMDirichletScorer

SF_DIR = "/root/testdata/sf0.001"
CFG = EngineConfig(analyzer="simple", num_shards=4, block_size=16)


@pytest.fixture(scope="session")
def built_index(ray_session, tmp_path_factory):
    import ray.data as rd
    out = str(tmp_path_factory.mktemp("idx") / "documents_idx")
    ds = rd.read_parquet(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    stats = build_index(ds, out, CFG, text_col="text", id_col="doc_id")
    return out, stats


@pytest.fixture(scope="session")
def corpus_tokens():
    t = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    docs = {int(i): txt.split() for i, txt in zip(t["doc_id"].to_pylist(),
                                                 t["text"].to_pylist())}
    return docs


def brute_force_bm25(docs, qterms, k, k1=0.7, b=0.3):
    N = len(docs)
    avgdl = sum(len(v) for v in docs.values()) / N
    df = {}
    for toks in docs.values():
        for t in set(toks):
            df[t] = df.get(t, 0) + 1
    scored = []
    for did, toks in docs.items():
        dl = len(toks)
        s = 0.0
        for term, boost in qterms.items():
            tf = toks.count(term)
            if tf == 0 or term not in df:
                continue
            idf = math.log(1 + (N - df[term] + 0.5) / (df[term] + 0.5))
            s += boost * idf * tf / (tf + k1 * (1 - b + b * dl / avgdl))
        if s > 0:
            scored.append((did, s))
    scored.sort(key=lambda x: (-x[1], x[0]))
    return scored[:k]


def test_forward_index_buckets(ray_session, tmp_path, corpus_tokens):
    """fwd/ is doc-bucket partitioned and term_vectors reads span buckets."""
    import os

    import ray.data as rd
    out = str(tmp_path / "fwd_idx")
    ds = rd.read_parquet(f"{SF_DIR}/documents.parquet",
                         columns=["doc_id", "text"])
    cfg = CFG.with_(fwd_docs_per_bucket=64)      # force many buckets
    stats = build_index(ds, out, cfg, text_col="text", id_col="doc_id")
    assert stats["fwd_bucket_docs"] == 64
    from lucene_msmarco_ray.index.manifest import Commit
    buckets = Commit(out).fwd_bucket_dirs()
    assert len(buckets) > 2
    assert sorted(buckets) == list(range(len(buckets)))   # contiguous ranges
    r = IndexReader(out)
    ids = sorted(corpus_tokens)
    probe = [ids[0], ids[len(ids) // 2], ids[-1]]   # spans several buckets
    vecs = r.term_vectors(probe)
    for d in probe:
        from collections import Counter
        assert vecs[d] == dict(Counter(corpus_tokens[d]))


def test_term_vectors_without_forward_index_says_rebuild(built_index,
                                                        tmp_path):
    """An index whose stats lack ``fwd_bucket_docs`` predates the forward
    index; term_vectors refuses it instead of scanning staged postings."""
    import json
    import shutil
    idx_dir, _ = built_index
    old = str(tmp_path / "pre_fwd")
    shutil.copytree(idx_dir, old)
    man_path = os.path.join(old, "manifest.json")
    man = json.load(open(man_path))
    del man["stats"]["fwd_bucket_docs"]
    json.dump(man, open(man_path, "w"))
    with pytest.raises(RuntimeError, match="rebuild"):
        IndexReader(old).term_vectors([0])


def test_build_stats(built_index, corpus_tokens):
    _, stats = built_index
    assert stats["num_docs"] == len(corpus_tokens)
    assert stats["total_len"] == sum(len(v) for v in corpus_tokens.values())
    assert stats["num_terms"] > 0
    exp_vocab = len({t for v in corpus_tokens.values() for t in v})
    assert stats["num_terms"] == exp_vocab


def test_reader_df_cf(built_index, corpus_tokens):
    idx_dir, _ = built_index
    r = IndexReader(idx_dir)
    # spot-check several terms against the raw corpus
    vocab = sorted({t for v in corpus_tokens.values() for t in v})
    for term in vocab[::max(1, len(vocab) // 17)]:
        tp = r.get_term(term)
        exp_df = sum(1 for v in corpus_tokens.values() if term in v)
        exp_cf = sum(v.count(term) for v in corpus_tokens.values())
        assert tp is not None and tp.df == exp_df and tp.cf == exp_cf, term
    assert r.get_term("zz_no_such_term_zz") is None


def test_bm25_matches_bruteforce(built_index, corpus_tokens):
    idx_dir, _ = built_index
    r = IndexReader(idx_dir)
    scorer = BM25Scorer(k1=0.7, b=0.3)
    vocab = sorted({t for v in corpus_tokens.values() for t in v})
    queries = [
        {vocab[0]: 1.0, vocab[len(vocab) // 2]: 1.0},
        {vocab[1]: 1.0, vocab[2]: 1.0, vocab[3]: 2.0},  # duplicate-term boost
        {vocab[-1]: 1.0, "zz_absent": 1.0},             # df=0 edge
        {"zz_absent": 1.0},                              # no hits at all
    ]
    for q in queries:
        docs, scores = score_query_taat(r, q, 25, scorer)
        exp = brute_force_bm25(corpus_tokens, q, 25)
        assert docs.tolist() == [d for d, _ in exp]
        np.testing.assert_allclose(scores, [s for _, s in exp], rtol=1e-12)


def test_lmdir_sane(built_index, corpus_tokens):
    idx_dir, _ = built_index
    r = IndexReader(idx_dir)
    vocab = sorted({t for v in corpus_tokens.values() for t in v})
    docs, scores = score_query_taat(r, {vocab[0]: 1.0}, 10, LMDirichletScorer(mu=1000))
    assert len(docs) > 0 and (scores >= 0).all()
    assert (np.diff(scores) <= 1e-12).all()


def test_retrieve_pipeline(built_index, ray_session):
    import ray.data as rd
    idx_dir, _ = built_index
    qs = rd.from_items([{"qid": "1", "text": "table value hash"},
                        {"qid": "2", "text": "window sort"}])
    run = retrieve(qs, idx_dir, k=10).to_pandas()
    assert set(run.columns) == {"qid", "doc_id", "rank", "score"}
    for qid, g in run.groupby("qid"):
        assert g["rank"].tolist() == list(range(1, len(g) + 1))
        assert (g["score"].diff().dropna() <= 1e-12).all()


def test_resume_skips_work(built_index):
    import ray.data as rd
    idx_dir, _ = built_index
    seg_mtime = os.path.getmtime(os.path.join(idx_dir, "segments"))
    ds = rd.read_parquet(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    stats2 = build_index(ds, idx_dir, CFG, text_col="text", id_col="doc_id")
    assert os.path.getmtime(os.path.join(idx_dir, "segments")) == seg_mtime
    assert stats2["num_docs"] > 0


def test_resume_invalidates_on_changed_input(ray_session, tmp_path):
    """A partition whose input lineage changed must re-tokenize and re-merge
    (round-1 review: resume skipped on status alone → stale index)."""
    import shutil

    import ray.data as rd

    from lucene_msmarco_ray.index.build import file_lineage
    src = str(tmp_path / "docs.parquet")
    shutil.copy(f"{SF_DIR}/documents.parquet", src)
    out = str(tmp_path / "idx")

    def build():
        ds = rd.read_parquet(src, columns=["doc_id", "text"])
        return build_index(ds, out, CFG, text_col="text", id_col="doc_id",
                           input_lineage=file_lineage([src]))

    def segment_files():
        seg = os.path.join(out, "segments")
        return {os.path.join(r, f): os.stat(os.path.join(r, f)).st_mtime_ns
                for r, _, fs in os.walk(seg) for f in fs}

    build()
    files1 = segment_files()
    build()                                     # unchanged input → resume
    assert segment_files() == files1
    os.utime(src, ns=(1, 1))                    # simulate changed input
    build()
    files3 = segment_files()                    # re-tokenized AND re-merged
    assert files3 and not set(files3) & set(files1)


def test_contribution_cache_keys_on_scorer_params(built_index, corpus_tokens):
    """Two scorers differing only in params must never share cached
    per-(term, scorer) contribution vectors (VERDICT r3 #8: keying on an
    explicit cache_key(), not repr, so a custom scorer whose repr omits a
    param can't silently collide)."""
    idx_dir, _ = built_index
    r = IndexReader(idx_dir)
    vocab = sorted({t for v in corpus_tokens.values() for t in v})
    term = max(vocab, key=lambda t: sum(1 for v in corpus_tokens.values()
                                        if t in v))
    a = BM25Scorer(k1=0.7, b=0.3)
    b = BM25Scorer(k1=1.2, b=0.75)
    docs_a, contrib_a = r.get_scored_postings(term, a)
    docs_b, contrib_b = r.get_scored_postings(term, b)
    assert (term, a.cache_key()) in r._contrib
    assert (term, b.cache_key()) in r._contrib
    assert a.cache_key() != b.cache_key()
    assert not np.allclose(contrib_a, contrib_b)
    # same params → same key → cache hit returns the identical arrays
    docs_a2, contrib_a2 = r.get_scored_postings(term, BM25Scorer(k1=0.7, b=0.3))
    assert contrib_a2 is contrib_a
    # scorer families never collide even with equal param tuples
    assert BM25Scorer(k1=1000.0, b=1.0).cache_key() != \
        LMDirichletScorer(mu=1000.0, clamp=True).cache_key()


def test_retrieve_fixed_pool_never_hangs_on_full_cluster(built_index,
                                                         ray_session):
    """A searcher pool sized to the whole cluster used to deadlock the
    upstream repartition (all CPUs held by idle actors waiting for blocks);
    retrieve() now reads its queries before any searcher takes a CPU."""
    import ray
    import ray.data as rd
    from lucene_msmarco_ray.search.service import retrieve
    idx_dir, _ = built_index
    ncpu = int(ray.cluster_resources()["CPU"])
    qs = rd.from_items([{"qid": "q1", "text": "the data"},
                        {"qid": "q2", "text": "index value"}])
    run = retrieve(qs, idx_dir, scorer="bm25", k=5, concurrency=ncpu)
    assert run.count() > 0

"""Feedback / QPP Ray pipelines: per-query computations over a run table.

Every operation here but :func:`lm_doc_weights` has one shape (SURVEY.md
§3.3): per query, fetch the ranked docs' term vectors and compute. One
stage runs them all as ``groupby(qid).map_groups``: :class:`PerQueryStage`
builds its per-actor state once (T1) — the IndexReader (doc lens, stats,
term cache), the query texts and the index's query analyzer — and receives
the queries and the op's arguments as ONE broadcast object (J4). Each op is
a plain function ``(stage, qid, group, **kw) -> DataFrame``. The stage
hands it the group as it arrives, unsorted: SRLM-fit groups are
(qid, doc_id) rel pairs without a ``rank`` column, and Rocchio groups carry
rank-0 placeholder rows. Each group is one query's rows, so no further
shuffle is needed downstream.

The pieces the ops share live once: :meth:`PerQueryStage.rm_fit` (rerank,
expand, term stats), :meth:`PerQueryStage.lm_weights` (SRLM fit and rerank,
Rocchio) and :func:`_ranked` (the rerankers' run rows). The scalar
semantics stay in ``fdbk/`` and ``qpp/``.

:func:`lm_doc_weights` is a map over forward-index buckets, not a
per-query op, and keeps its own stage.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

from ..analysis import get_analyzer
from ..fdbk.rlm import (
    RLM_NUM_TOP_DOCS,
    TopDocsTermStats,
    expand_query,
    kldiv_rerank,
    rm1_weights,
    rm_conditional_weights,
)
from ..fdbk.srlm import (
    SupervisedRLMModel,
    induce_scores,
    lm_term_weights,
    rocchio_expand,
)
from ..qpp.methods import avg_idf, cumulative_nqc, max_idf, nqc, rsd, uef
from ..search.searcher import IndexReader


class PerQueryStage:
    """One qid group → ``op(self, qid, group, **kw)`` rows."""

    def __init__(self, index_dir: str, op, args_ref):
        self.reader = IndexReader(index_dir)
        st = self.reader.stats
        self.analyzer = get_analyzer(st["analyzer"], st.get("stopword_file"),
                                     st.get("normalize_numbers", True))
        self.kw = dict(ray.get(args_ref))
        self.queries = self.kw.pop("queries")
        self.op = op

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        return self.op(self, str(g["qid"].iloc[0]), g, **self.kw)

    def query_terms(self, qid: str) -> list[str]:
        return self.analyzer(self.queries.get(qid, ""))

    def rm_fit(self, qid: str, topdocs: list[tuple[int, float]], model: str,
               num_top_docs: int):
        """RM fit over a ranked list → (stats, weights). ``model``: "iid"
        (reference: fdbk/RelevanceModelIId) or "conditional"
        (RelevanceModelConditional); weights is None when the list's docs
        hold no terms."""
        vecs = self.reader.term_vectors([d for d, _ in topdocs])
        stats = TopDocsTermStats(topdocs, vecs, num_top_docs)
        if not stats.docvecs or stats.sum_tf == 0:
            return stats, None
        if model == "iid":
            return stats, rm1_weights(stats, self.query_terms(qid))
        return stats, rm_conditional_weights(stats)

    def lm_weights(self, docs: list[int]):
        """One term-vector fetch for ``docs`` → lookup doc → its
        L2-normalized LM-idf term weights (M6)."""
        vecs = self.reader.term_vectors(docs)
        return lambda d: lm_term_weights(vecs.get(d, {}),
                                         self.reader.num_docs, self.reader.df)


def _per_query(ds, op, index_dir: str, concurrency, queries=None, **kw):
    """``op`` over every qid group of ``ds`` on a :class:`PerQueryStage`
    pool; the queries and ``kw`` travel in one ``ray.put``."""
    ref = ray.put({"queries": dict(queries or {}), **kw})
    return ds.groupby("qid").map_groups(
        PerQueryStage, batch_format="pandas", concurrency=concurrency,
        num_cpus=0.5,
        fn_constructor_kwargs=dict(index_dir=index_dir, op=op, args_ref=ref))


def _topdocs_of(g: pd.DataFrame) -> list[tuple[int, float]]:
    g = g.sort_values("rank")
    return list(zip(g["doc_id"].astype(int), g["score"].astype(float)))


def _ranked(qid: str, scored, round_to: int | None) -> pd.DataFrame:
    """(doc, score) pairs → run rows, ranked by score desc (stable), or with
    ``round_to`` by (rounded score desc, doc_id asc): SQL-comparable, where
    the stable order's ties depend on float summation order."""
    if round_to is None:
        scored = sorted(scored, key=lambda x: -x[1])
    else:
        scored = sorted(((d, round(s, round_to)) for d, s in scored),
                        key=lambda x: (-x[1], x[0]))
    return pd.DataFrame({
        "qid": qid,
        "doc_id": [d for d, _ in scored],
        "rank": np.arange(1, len(scored) + 1, dtype=np.int64),
        "score": [s for _, s in scored],
    })


def _rerank_op(st, qid, g, model, num_top_docs, round_to):
    """KL-div rerank under the RM fit (A4/A5)."""
    topdocs = _topdocs_of(g)
    stats, weights = st.rm_fit(qid, topdocs, model, num_top_docs)
    if weights is None:
        return g[["qid", "doc_id", "rank", "score"]]
    return _ranked(qid, kldiv_rerank(stats, weights, topdocs), round_to)


def _term_stats_op(st, qid, g, num_top_docs, round_to):
    """The RM-conditional weights themselves, weight-descending. The
    reference arraycopies the top numTopDocs BEFORE fitting; cutting here
    also skips forward-index lookups past the cut."""
    _, weights = st.rm_fit(qid, _topdocs_of(g)[:num_top_docs],
                           "conditional", num_top_docs)
    if weights is None:
        return pd.DataFrame({"qid": pd.Series([], dtype=object),
                             "term": pd.Series([], dtype=object),
                             "weight": pd.Series([], dtype=np.float64)})
    if round_to is None:
        items = sorted(weights.items(), key=lambda x: -x[1])
    else:
        items = sorted(((t, round(w, round_to)) for t, w in weights.items()),
                       key=lambda x: (-x[1], x[0]))
    return pd.DataFrame({"qid": qid,
                         "term": [t for t, _ in items],
                         "weight": np.array([w for _, w in items],
                                            np.float64)})


def _expand_op(st, qid, g, model, num_terms, fb, round_to):
    """RM3-expanded query (R5/A6): original terms at 1-fb, expansion terms
    at fb·weight; the original query alone when the fit is empty."""
    qterms = st.query_terms(qid)
    _, weights = st.rm_fit(qid, _topdocs_of(g), model, RLM_NUM_TOP_DOCS)
    if weights is None:
        expanded = [(t, 1.0 - fb) for t in qterms]
    else:
        expanded = expand_query(weights, qterms, st.reader.num_docs,
                                st.reader.df, num_terms, fb)
    if round_to is not None:
        expanded = [(t, round(b, round_to)) for t, b in expanded]
    return pd.DataFrame({"qid": qid,
                         "term": [t for t, _ in expanded],
                         "boost": [b for _, b in expanded]})


def _qpp_op(st, qid, g, k, methods, normalize_scores):
    """One row of QPP estimates (A12-A16), rounded to 6 dp."""
    topdocs = _topdocs_of(g)
    if normalize_scores and topdocs:
        # VariantSpecificity.normaliseScores (reference:
        # qpp/VariantSpecificity.java:45-60, Constants.NORMALISE_SCORES):
        # min-max over the WHOLE ranked list before the estimator.
        # Deviation (flagged): max==min yields 0.0 here (the reference's
        # float 0/0 would be NaN) — same convention as minmax_norm.
        sc = np.array([s for _, s in topdocs])
        lo, hi = float(sc.min()), float(sc.max())
        sc = (sc - lo) / (hi - lo) if hi > lo else np.zeros_like(sc)
        topdocs = [(d, float(s)) for (d, _), s in zip(topdocs, sc)]
    scores = np.array([s for _, s in topdocs])
    terms = st.query_terms(qid)
    N, dfl = st.reader.num_docs, st.reader.df
    estimators = {
        "nqc": lambda: nqc(scores, k, terms, N, dfl),
        "cumnqc": lambda: cumulative_nqc(scores, min(k, len(scores)), terms,
                                         N, dfl),
        "avgidf": lambda: avg_idf(terms, N, dfl),
        "maxidf": lambda: max_idf(terms, N, dfl),
        "rsd": lambda: rsd(topdocs, k, terms, N, dfl, qid=qid),
        "uef": lambda: uef(topdocs, st.reader.term_vectors(
            [d for d, _ in topdocs[:RLM_NUM_TOP_DOCS]]), k, terms, N, dfl,
            qid=qid),
    }
    return pd.DataFrame([{"qid": qid, **{m: round(float(estimators[m]()), 6)
                                         for m in methods}}])


def _induced_op(st, qid, g, lam):
    """LM-JM induced rescoring of the run (M10; reference:
    qrels/RetrievedResults.java:51-96), ranked on the 6-dp score."""
    topdocs = _topdocs_of(g)
    vecs = st.reader.term_vectors([d for d, _ in topdocs])
    rescored = induce_scores(topdocs, st.query_terms(qid),
                             st.reader.num_docs, st.reader.df,
                             lambda d: vecs.get(d, {}), lam)
    return _ranked(qid, [(d, s) for d, _, s in rescored], 6)


def _sparsevec_op(st, qid, g, k, k1=1.2, b=0.75, avgdl_const=57.25):
    """(qid, doc_id, term, wt) rows of the top-k docs, with the reference's
    own BM25 weight incl. its quirks (S9; reference:
    indexing/SparseVecWriter.java:117-164, weight :29-38,157)."""
    # imported here: the sources package imports ray.data
    from ..sources.extra import sparsevec_bm25_weight
    docs = [d for d, _ in _topdocs_of(g)[:k]]
    vecs = st.reader.term_vectors(docs)
    out_d, out_t, out_w = [], [], []
    for doc in docs:
        vec = vecs.get(doc, {})
        dl = float(sum(vec.values()))
        for term, tf in sorted(vec.items()):
            out_d.append(doc)
            out_t.append(term)
            out_w.append(round(sparsevec_bm25_weight(
                tf, st.reader.num_docs, st.reader.df(term), dl, k1, b,
                avgdl_const), 6))
    return pd.DataFrame({"qid": qid, "doc_id": out_d, "term": out_t,
                         "wt": out_w})


def _srlm_fit_op(st, qid, g):
    """One query's rel docs → its (qterm, term, c) co-occurrence sums. The
    A7 fit is additive over (query, rel doc) pairs, so one groupby-sum over
    these tiny rows finishes the model (reference:
    SupervisedRLM.java:151-200)."""
    docs = [int(d) for d in g["doc_id"]]
    part = SupervisedRLMModel()
    part.fit({qid: st.queries.get(qid, "")}, {qid: docs}, st.lm_weights(docs))
    return pd.DataFrame([(q, t, c) for q, dist in part.dists.items()
                         for t, c in dist.items()],
                        columns=["qterm", "term", "c"])


def _srlm_rerank_op(st, qid, g, srlm, top_k, round_to):
    """SRLM rerank of the top_k (SupervisedRLM.java:240-270)."""
    topdocs = _topdocs_of(g)[:top_k]
    return _ranked(qid, srlm.rerank(st.queries.get(qid, ""), topdocs,
                                     st.lm_weights([d for d, _ in topdocs])),
                   round_to)


def _rocchio_op(st, qid, g, rel_map, top_k, round_to):
    """Rocchio-expanded (qid, term, wt) rows (KNNRelModel.java:297-360;
    the single KNN query is the query itself)."""
    topdocs = [d for d, _ in _topdocs_of(g[g["rank"] >= 1])[:top_k]]
    out = rocchio_expand(
        st.queries.get(qid, "").split(), [(qid, 1.0)],
        lambda q: set(rel_map.get(q) or ()), topdocs,
        st.lm_weights(topdocs + list(rel_map.get(qid) or ())))
    if round_to is not None:
        out = [(t, round(w, round_to)) for t, w in out]
    return pd.DataFrame({"qid": qid,
                         "term": [t for t, _ in out],
                         "wt": [w for _, w in out]})


def fdbk_term_stats(run_ds, index_dir: str,
                    num_top_docs: int = RLM_NUM_TOP_DOCS,
                    concurrency=(1, 4), round_to: int | None = None):
    """Distributed FdbkTermStats (the last reference entry point): per
    query, the RM-conditional feedback-term weights (qid, term, weight),
    weight-descending (src/main/java/retrieval/FdbkTermStats.java:25-66,
    printfdbkterms.sh; RetrievedDocTermInfo.compareTo:28-30).

    ``round_to``: SQL-comparable mode — round weights and break ties on
    (-weight, term); the reference's tie order is HashMap insertion order,
    which is not deterministic across JVMs."""
    return _per_query(run_ds, _term_stats_op, index_dir, concurrency,
                      num_top_docs=num_top_docs, round_to=round_to)


def induced_rescore(run_ds, index_dir: str, queries: dict[str, str],
                    lam: float = 0.2, concurrency=(1, 4)):
    return _per_query(run_ds, _induced_op, index_dir, concurrency, queries,
                      lam=lam)


def sparsevec_topdocs(run_ds, index_dir: str, k: int = 10,
                      concurrency=(1, 4), **kw):
    return _per_query(run_ds, _sparsevec_op, index_dir, concurrency, k=k, **kw)


def srlm_fit(rel_pairs_ds, index_dir: str, queries: dict[str, str],
             prune_to: int | None = None, concurrency=(1, 4)):
    """Distributed SRLM fit: rel pairs → per-query contributions →
    (qterm, term) sum. The finished model (vocab × ≤num-qterms, tiny) is
    collected on the driver. Returns a SupervisedRLMModel."""
    from ray.data.aggregate import Sum

    contrib = _per_query(rel_pairs_ds, _srlm_fit_op, index_dir, concurrency,
                         queries)
    agg = contrib.groupby(["qterm", "term"]).aggregate(
        Sum("c", alias_name="wt")).to_pandas()
    model = SupervisedRLMModel()
    # 9dp rounding: the distributed Sum's float order differs from any
    # serial fit; rounding makes the model (and its pruned top-k) identical
    # across parallelism levels and reproducible by the SQL oracle
    for q, t, w in zip(agg["qterm"], agg["term"], agg["wt"]):
        model.dists.setdefault(q, {})[t] = round(float(w), 9)
    if prune_to is not None:
        model.prune(prune_to)
    return model


def srlm_rerank_pipeline(run_ds, index_dir: str, queries: dict[str, str],
                         rel_pairs_ds, top_k: int = 50,
                         prune_to: int | None = 5, round_to: int | None = None,
                         concurrency=(1, 4)):
    """Full SRLM path as Ray stages: distributed fit over the rel pairs,
    broadcast of the pruned model, then per-query rerank groups.
    ``round_to`` ranks on (rounded score desc, doc_id asc) for SQL parity."""
    model = srlm_fit(rel_pairs_ds, index_dir, queries, prune_to=prune_to,
                     concurrency=concurrency)
    return _per_query(run_ds, _srlm_rerank_op, index_dir, concurrency,
                      queries, srlm=model, top_k=top_k, round_to=round_to)


def rocchio_pipeline(run_ds, index_dir: str, queries: dict[str, str],
                     rel_map: dict[str, list], top_k: int = 20,
                     round_to: int | None = None, concurrency=(1, 4)):
    import ray.data as rd
    # Rocchio is defined even for queries with an empty ranked list (the rel
    # accumulator still contributes); a rank=0 placeholder row per query
    # guarantees each query forms a group, and the op drops it. The map
    # after the union gives every block one format: the groupby sort
    # rejects a mix of Arrow (a retrieve() run) and pandas blocks.
    ph = rd.from_items(
        [{"qid": str(q), "doc_id": -1, "rank": 0, "score": 0.0}
         for q in queries],
        override_num_blocks=max(1, len(queries)))
    run_ds = run_ds.union(ph).map_batches(lambda df: df,
                                          batch_format="pandas")
    return _per_query(run_ds, _rocchio_op, index_dir, concurrency, queries,
                      rel_map={str(k): list(v) for k, v in rel_map.items()},
                      top_k=top_k, round_to=round_to)


def feedback_rerank(run_ds, index_dir: str, queries: dict[str, str],
                    model: str = "conditional",
                    num_top_docs: int = RLM_NUM_TOP_DOCS, concurrency=(1, 4),
                    round_to: int | None = None):
    """KL-div rerank of each query's run under an RM fit. ``model``: "iid"
    or "conditional" (reference: fdbk/RelevanceModelIId vs
    RelevanceModelConditional). ``round_to``: SQL-comparable mode — round
    scores and rank on (rounded desc, doc_id asc) instead of the
    reference's stable sort (whose tie order depends on float summation
    order)."""
    return _per_query(run_ds, _rerank_op, index_dir, concurrency, queries,
                      model=model, num_top_docs=num_top_docs,
                      round_to=round_to)


def expand_queries(run_ds, index_dir: str, queries: dict[str, str],
                   model: str = "conditional", num_terms: int = 20,
                   fb: float = 0.2, concurrency=(1, 4),
                   round_to: int | None = None):
    """RM3-expanded query rows (qid, term, boost) per query (R5/A6)."""
    return _per_query(run_ds, _expand_op, index_dir, concurrency, queries,
                      model=model, num_terms=num_terms, fb=fb,
                      round_to=round_to)


def qpp_estimates(run_ds, index_dir: str, queries: dict[str, str], k: int = 50,
                  methods: tuple[str, ...] = ("nqc", "cumnqc", "avgidf",
                                              "maxidf", "rsd", "uef"),
                  concurrency=(1, 4), normalize_scores: bool = False):
    """One row of QPP estimates per query; ``normalize_scores`` min-max
    normalizes each ranked list first (the variant-specificity mode)."""
    return _per_query(run_ds, _qpp_op, index_dir, concurrency, queries, k=k,
                      methods=tuple(methods),
                      normalize_scores=normalize_scores)


class _LmDocWeightStage:
    """One fwd bucket dir → (doc_id, term, wt) rows, fully vectorized.

    The df map is deserialized ONCE per actor in ``__init__`` (J3 broadcast;
    round-1 review flagged the old per-group ``ray.get``), and the forward
    index's doc-bucket partitioning means every doc's rows are already
    co-located — ZERO shuffle, one task per bucket."""

    __name__ = "lm_doc_weights"

    def __init__(self, df_ref, num_docs: int):
        import pandas as _pd
        dfm = ray.get(df_ref)
        self.df_series = _pd.Series(dfm, dtype=np.float64)
        self.num_docs = float(num_docs)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        from ..fdbk.srlm import LAMBDA_ODDS
        from ..index.manifest import pads_dirs
        out = []
        for dirs in batch["dirs"]:
            t = pads_dirs(list(dirs)).to_table(
                columns=["doc_id", "term", "tf"])
            doc = t["doc_id"].to_numpy(zero_copy_only=False)
            tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
            term = t["term"].to_pandas()
            df = term.map(self.df_series).to_numpy()
            order = np.argsort(doc, kind="stable")
            doc, tf, df = doc[order], tf[order], df[order]
            term = term.to_numpy()[order]
            starts = np.flatnonzero(np.concatenate(([True],
                                                    doc[1:] != doc[:-1])))
            sizes = np.diff(np.concatenate((starts, [doc.size])))
            dl = np.repeat(np.add.reduceat(tf, starts), sizes)
            w = np.log1p(LAMBDA_ODDS * (tf / dl) * (self.num_docs / df))
            # df==0 terms drop before normalization (lm_term_weights contract)
            w = np.where(df > 0, w, 0.0)
            z = np.repeat(np.sqrt(np.add.reduceat(w * w, starts)), sizes)
            keep = (df > 0) & (z > 0)
            out.append(pd.DataFrame({
                "doc_id": doc[keep].astype(np.int64),
                "term": term[keep],
                "wt": np.round(w[keep] / z[keep], 6)}))
        if not out:
            return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                                 "term": pd.Series([], dtype=str),
                                 "wt": pd.Series([], dtype=np.float64)})
        return pd.concat(out, ignore_index=True)


def lm_doc_weights(index_dir: str, concurrency=(1, 8)):
    """M6 as a dataset op: every (doc, term) → L2-normalized LM-idf weight.
    df map is broadcast once per actor (J3); the per-doc normalization is
    vectorized inside each forward-index bucket (docs are co-located by the
    build-time ``fwd/bucket=doc//B`` partitioning), so the whole op is a
    shuffle-free map over bucket descriptors."""
    import ray.data as rd

    from ..index.manifest import Commit
    commit = Commit(index_dir)
    tot = commit.term_totals()
    df_ref = ray.put(dict(zip(tot["term"].to_pylist(),
                              tot["df"].to_pylist())))
    num_docs = commit.stats["num_docs"]
    buckets = commit.fwd_bucket_dirs()
    if not buckets:
        raise FileNotFoundError(
            f"no forward index (staged kind=f) under {index_dir} — rebuild "
            "with build_index() to enable lm_doc_weights")
    desc = rd.from_items([{"dirs": ds_} for _, ds_ in sorted(buckets.items())],
                         override_num_blocks=len(buckets))
    return desc.map_batches(
        _LmDocWeightStage, batch_format="pandas", batch_size=1,
        concurrency=concurrency,
        fn_constructor_kwargs=dict(df_ref=df_ref, num_docs=num_docs))

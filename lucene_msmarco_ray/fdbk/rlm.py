"""Pseudo-relevance-feedback models (SURVEY.md A3-A6) — semantics mirrored
from the reference, including its quirks, each flagged:

* term stats over the top-k docs (reference:
  src/main/java/fdbk/RetrievedDocsTermStats.java:51-105):
  - ``sum_df`` is initialized to numTopDocs and NEVER incremented (quirk:
    ctor :38) — the RM mixing denominator for df is the number of top docs;
  - ``sum_sim`` accumulates sim once per (doc, unique term) pair — i.e.
    Σ_d sim_d·|V_d| — not once per doc (quirk: the += sits inside the term
    loop, :100);
  - doc vectors are built for every doc in the list, but collection stats
    only for ranks < numTopDocs (:92-95).
* RM1 i.i.d. weights (src/main/java/fdbk/RelevanceModelIId.java:66-104):
  p_w = λ·tf_topk(w)/sumTf + (1-λ)·df_topk(w)/sumDf, λ=MIXING_LAMDA=0.9;
  p_q = tf_topk(q)/sumTf (query terms absent from the top-k vocab are
  skipped); wt(w) = p_w · exp(Σ_q ln(1+p_q) − 1).
* RM conditional (src/main/java/fdbk/RelevanceModelConditional.java:27-57):
  wt(w) = Σ_{d∈topk, w∈d} [λ·tf(w,d)/Σtf(d) + (1−λ)·df_topk(w)/sumDf]
          · sim_d / sumSim.
* KL-div rerank (src/main/java/fdbk/KLDivReranker.java:20-47): per doc,
  kl = Σ_{w: tf(w,d)>0} wt(w)·ln(wt(w)/ntf(w,d)), score = 1 − exp(kl),
  stable sort desc by score.
* Query expansion (src/main/java/fdbk/RelevanceModelIId.java:119-175):
  wt(w) *= ln(N/df_coll(w)); normalize by Σwt; take top NUM_EXPANSION_TERMS
  not in the original query; boosts: original terms (1−fb), expansion terms
  fb·wt, fb = RLM_FDBK_TERM_WT = 0.2.

These are per-query computations (top-k ≤ tens of docs) intended to run
inside ``groupby(qid).map_groups`` with the doc term vectors provided by the
forward index (staged kind=f rows of the build).
"""

from __future__ import annotations

import math

MIXING_LAMBDA = 0.9
RLM_FDBK_TERM_WT = 0.2
NUM_EXPANSION_TERMS = 20
RLM_NUM_TOP_DOCS = 20


class TopDocsTermStats:
    """Aggregated term statistics over a ranked list's documents."""

    def __init__(self, topdocs: list[tuple[int, float]],
                 doc_vectors: dict[int, dict[str, int]], num_top_docs: int):
        self.topdocs = topdocs
        self.num_top_docs = num_top_docs
        self.term_tf: dict[str, int] = {}
        self.term_df: dict[str, int] = {}
        self.sum_tf = 0
        self.sum_df = float(num_top_docs)   # reference quirk: never updated
        self.sum_sim = 0.0
        self.docvecs: dict[int, dict[str, int]] = {}
        self.doc_sumtf: dict[int, int] = {}
        self.doc_sim: dict[int, float] = {}
        for rank, (doc, sim) in enumerate(topdocs):
            vec = doc_vectors.get(doc)
            if not vec:
                continue
            self.docvecs[doc] = vec
            self.doc_sumtf[doc] = sum(vec.values())
            self.doc_sim[doc] = sim
            if rank >= num_top_docs:
                continue
            for term, tf in vec.items():
                self.term_tf[term] = self.term_tf.get(term, 0) + tf
                self.term_df[term] = self.term_df.get(term, 0) + 1
                self.sum_tf += tf
                self.sum_sim += sim   # reference quirk: per unique term


def rm1_weights(stats: TopDocsTermStats, query_terms: list[str],
                lam: float = MIXING_LAMBDA) -> dict[str, float]:
    total_p_q = 0.0
    for q in set(query_terms):
        tf_q = stats.term_tf.get(q)
        if tf_q is None:
            continue   # "No KDE for query term" path
        total_p_q += math.log(1.0 + tf_q / stats.sum_tf)
    mult = math.exp(total_p_q - 1.0)
    out = {}
    for term, tf in stats.term_tf.items():
        p_w = (lam * tf / stats.sum_tf
               + (1 - lam) * stats.term_df[term] / stats.sum_df)
        out[term] = p_w * mult
    return out


def rm_conditional_weights(stats: TopDocsTermStats,
                           lam: float = MIXING_LAMBDA) -> dict[str, float]:
    out: dict[str, float] = {}
    seen = 0
    for doc, _sim in stats.topdocs:
        vec = stats.docvecs.get(doc)
        if vec is None:
            continue
        sum_tf_d = stats.doc_sumtf[doc]
        sim = stats.doc_sim[doc]
        for term, tf in vec.items():
            df = stats.term_df.get(term, 0)
            p_w = lam * tf / sum_tf_d + (1 - lam) * df / stats.sum_df
            out[term] = out.get(term, 0.0) + p_w * sim / stats.sum_sim
        seen += 1
        if seen >= stats.num_top_docs:
            break
    return out


def kldiv_rerank(stats: TopDocsTermStats, weights: dict[str, float],
                 topdocs: list[tuple[int, float]]) -> list[tuple[int, float]]:
    """→ re-scored list (doc, 1-exp(kl)), stable-sorted desc by score."""
    rescored = []
    for doc, _ in topdocs:
        vec = stats.docvecs.get(doc)
        kl = 0.0
        if vec:
            sum_tf_d = stats.doc_sumtf[doc]
            for term, wt in weights.items():
                tf = vec.get(term)
                if not tf:
                    continue
                kl += wt * math.log(wt / (tf / sum_tf_d))
        rescored.append((doc, 1.0 - math.exp(kl)))
    # stable sort desc (ties keep original rank order, like Arrays.stream sort)
    return sorted(rescored, key=lambda x: -x[1])


def expand_query(weights: dict[str, float], orig_terms: list[str],
                 num_docs: int, df_lookup, num_terms: int = NUM_EXPANSION_TERMS,
                 fb: float = RLM_FDBK_TERM_WT) -> list[tuple[str, float]]:
    """→ [(term, boost)] — the RM3-style expanded query (R5)."""
    idf_wts = {}
    norm = 0.0
    for term, wt in weights.items():
        df = df_lookup(term)
        w = wt * math.log(num_docs / df) if df else 0.0
        idf_wts[term] = w
        norm += w
    orig_set = set(orig_terms)
    out = [(t, 1.0 - fb) for t in orig_terms]
    added = 0
    # tie-break deviation (flagged): the reference's sort leaves equal-weight
    # term order to HashMap iteration; we order (-round(w,9), term) so the
    # selection is deterministic, SQL-reproducible, and immune to last-ulp
    # float-summation-order noise at the cutoff
    for term, w in sorted(idf_wts.items(),
                          key=lambda x: (-round(x[1], 9), x[0])):
        if term in orig_set:
            continue
        out.append((term, fb * (w / norm if norm else 0.0)))
        added += 1
        if added >= num_terms:
            break
    return out

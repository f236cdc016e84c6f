"""Experiment drivers — the reference's evaluator entry points re-expressed
(SURVEY.md §3.3; reference: src/main/java/experiments/TRECDLQPPEvaluator.java,
src/main/java/stochastic_qpp/StochasticQPPEvaluation.java:229-264).

Shape: the heavy per-query work (retrieval, metrics, QPP) runs as Ray
pipelines; the final correlation over the per-query arrays (≤ hundreds of
rows) is driver-side numpy — same split as SURVEY.md §2.11.
"""

from __future__ import annotations

import math

import pandas as pd

from ..eval.correlation import METRIC_REGISTRY
from ..eval.metrics import per_query_metrics
from .feedback import qpp_estimates


def qpp_experiment(run_ds, qrels_df: pd.DataFrame, queries: dict[str, str],
                   index_dir: str, target_metric: str = "ap",
                   methods: tuple[str, ...] = ("nqc", "avgidf", "maxidf"),
                   k: int = 50,
                   corr_metrics: tuple[str, ...] = ("kendall", "sare")
                   ) -> pd.DataFrame:
    """runSingleExperiment equivalent: per-query target metric + QPP
    estimates → correlation per (method, corr_metric)."""
    target = per_query_metrics(run_ds, qrels_df, cutoffs=(10,)).to_pandas()
    est = qpp_estimates(run_ds, index_dir, queries, k=k,
                        methods=methods).to_pandas()
    merged = target.merge(est, on="qid").sort_values("qid")
    rows = []
    for m in methods:
        for cm in corr_metrics:
            fn = METRIC_REGISTRY[cm]
            rows.append({
                "method": m, "corr_metric": cm,
                "value": round(float(fn(merged[target_metric].to_numpy(),
                                        merged[m].to_numpy())), 6),
            })
    return pd.DataFrame(rows)


def train_and_test(train_metric: pd.DataFrame, train_base: pd.DataFrame,
                   train_variants: pd.DataFrame,
                   test_metric: pd.DataFrame, test_base: pd.DataFrame,
                   test_variants: pd.DataFrame,
                   target_metric: str = "ap", base_col: str = "est",
                   max_num_variants: int = 5, lambda_step: float = 0.5
                   ) -> dict:
    """TRECDLQPPEvaluator.trainAndTest grid search (reference:
    src/main/java/experiments/TRECDLQPPEvaluator.java:83-145): loop
    (numVariants 1..max) × (λ ∈ {0, step, …, 1}) over CACHED per-query
    tables — no re-retrieval inside the grid; the per-query combined
    estimate at a grid point is ``variant_specificity(base, first-nv
    variants, λ/2)``.

    Reference quirks kept (flagged): the experiment runs with λ/2 while λ
    itself is recorded/reported (:114 ``l/2`` vs :119 ``p.l = l``); the best
    tau starts at 0.0 and only strictly-greater taus win (:118) — if every
    grid tau ≤ 0 the winner stays (λ=0, numVariants=0), i.e. the test falls
    back to the bare base estimate.

    Inputs: per-query tables (already computed by per_query_metrics /
    qpp_estimates / the variant composite): ``*_metric`` (qid,
    ``target_metric``), ``*_base`` (qid, ``base_col``), ``*_variants``
    (qid, variant_rank, ref_sim, est) with variant_rank the 0-based variant
    order. Returns {lambda, num_variants, train_tau, test_tau, test_sare}.
    """
    import numpy as np

    from ..eval.correlation import kendall, sare
    from ..fdbk.srlm import variant_specificity

    def _maps(base_df, var_df):
        bm = dict(zip(base_df["qid"].astype(str), base_df[base_col]))
        vm: dict[str, list[tuple[float, float]]] = {}
        for q, g in var_df.groupby("qid"):
            g = g.sort_values("variant_rank")
            vm[str(q)] = list(zip(g["ref_sim"].astype(float),
                                  g["est"].astype(float)))
        return bm, vm

    def _combined(qids, bm, vm, nv: int, lam: float) -> np.ndarray:
        return np.array([variant_specificity(float(bm[q]),
                                             vm.get(q, [])[:nv], lam)
                         for q in qids])

    tr_bm, tr_vm = _maps(train_base, train_variants)
    tr = train_metric[train_metric["qid"].astype(str).isin(tr_bm)] \
        .sort_values("qid")
    tr_qids = tr["qid"].astype(str).tolist()
    tr_y = tr[target_metric].to_numpy()

    best = {"lambda": 0.0, "num_variants": 0, "train_tau": 0.0}
    lam = 0.0
    lams = []
    while lam <= 1.0 + 1e-9:         # float accumulation, like the reference
        lams.append(round(lam, 9))
        lam += lambda_step
    for nv in range(1, max_num_variants + 1):
        for lam in lams:
            est = _combined(tr_qids, tr_bm, tr_vm, nv, lam / 2.0)
            tau = float(kendall(tr_y, est))
            if tau > best["train_tau"]:
                best = {"lambda": lam, "num_variants": nv, "train_tau": tau}

    te_bm, te_vm = _maps(test_base, test_variants)
    te = test_metric[test_metric["qid"].astype(str).isin(te_bm)] \
        .sort_values("qid")
    te_qids = te["qid"].astype(str).tolist()
    te_y = te[target_metric].to_numpy()
    te_est = _combined(te_qids, te_bm, te_vm, best["num_variants"],
                       best["lambda"] / 2.0)
    best["test_tau"] = float(kendall(te_y, te_est))
    best["test_sare"] = float(sare(te_y, te_est))
    return best


def variant_qpp_estimates(run_ds, variants_df: pd.DataFrame, index_dir: str,
                          queries: dict[str, str], k: int = 50,
                          num_variants: int = 5, lam: float = 0.5,
                          base_method: str = "nqc",
                          normalize_scores: bool = True,
                          retrieve_fn=None, scorer: str = "bm25",
                          concurrency=(1, 4), est_round: int | None = None,
                          **scorer_kw) -> pd.DataFrame:
    """VariantSpecificity end-to-end (reference:
    src/main/java/experiments/TRECDLQPPEvaluatorWithGenVariants.java,
    qpp/VariantSpecificity.java:63-115): retrieve top-``k`` for every query
    VARIANT through the searcher actor pool, run the base QPP on each
    variant's own ranked list (scores min-max normalized when
    ``normalize_scores``, per Constants.NORMALISE_SCORES=true), then combine
    per original query: λ·(Σ refSim·est / Σ refSim) + (1−λ)·base — the
    ``fdbk.srlm.variant_specificity`` arithmetic, with its no-variant /
    zero-refSim fallbacks.

    ``variants_df``: (qid, variant_rank, variant_text, ref_sim); the first
    ``num_variants`` per qid (by variant_rank) are used — getKNNs(q, M).
    ``retrieve_fn(queries_list) -> run Dataset`` overrides the default
    searcher-pool retrieval (the gate injects its 6dp-rounded re-rank so the
    SQL oracle can replay the variant runs). ``est_round``: round every
    per-list estimate to this many decimals BEFORE the combine (the gate
    passes 6 so the engine combines the same 6dp intermediates the SQL
    oracle does — unrounded combines flip the final 6dp digit on ~1e-7
    boundary queries). → DataFrame(qid, est)."""
    import ray.data as rd

    from ..fdbk.srlm import variant_specificity
    from .feedback import qpp_estimates

    vdf = variants_df.copy()
    vdf["qid"] = vdf["qid"].astype(str)
    vdf = vdf.sort_values(["qid", "variant_rank"]) \
        .groupby("qid").head(num_variants)
    vqueries = [(f"{q}#v{int(r)}", t) for q, r, t in
                zip(vdf["qid"], vdf["variant_rank"], vdf["variant_text"])]

    if retrieve_fn is None:
        from ..search.service import retrieve

        # the searcher pool takes an actor count: a (min, max) pool range's max
        n_searchers = (concurrency[1] if isinstance(concurrency, tuple)
                       else concurrency)

        def retrieve_fn(qlist):
            qs = rd.from_items([{"qid": q, "text": t} for q, t in qlist])
            return retrieve(qs, index_dir, scorer=scorer, k=k,
                            concurrency=n_searchers, **scorer_kw)

    variant_run = retrieve_fn(vqueries)
    vest = qpp_estimates(variant_run, index_dir, dict(vqueries), k=k,
                         methods=(base_method,), concurrency=concurrency,
                         normalize_scores=normalize_scores).to_pandas()
    base = qpp_estimates(run_ds, index_dir, dict(queries), k=k,
                         methods=(base_method,), concurrency=concurrency,
                         normalize_scores=normalize_scores).to_pandas()

    def _r(v: float) -> float:
        # scaled half-away-from-zero round (SQL ROUND semantics): Python's
        # round() decimal-rounds the true binary value, so a combine landing
        # exactly on a 6dp boundary (e.g. 0.0073385) rounds the other way
        # than the oracle; floor(|x|·10^d + 0.5) on the scaled double agrees.
        if est_round is None:
            return v
        s = 10.0 ** est_round
        return math.copysign(math.floor(abs(v) * s + 0.5), v) / s

    est_of = dict(zip(vest["qid"], vest[base_method]))
    empty = vdf.iloc[0:0]
    by_qid = {q: g for q, g in vdf.groupby("qid", sort=False)}
    rows = []
    for _, b in base.iterrows():
        qid = str(b["qid"])
        g = by_qid.get(qid, empty)
        pairs = [(float(r), _r(float(est_of[f"{qid}#v{int(v)}"])))
                 for v, r in zip(g["variant_rank"], g["ref_sim"])
                 if f"{qid}#v{int(v)}" in est_of]
        est = variant_specificity(_r(float(b[base_method])), pairs, lam)
        rows.append({"qid": qid,
                     "est": _r(est) if est_round is not None
                     else round(est, 6)})
    return pd.DataFrame(rows).sort_values("qid").reset_index(drop=True)


def perturb_runs(run_ds, qrels_df: pd.DataFrame, num_samples: int,
                 id_sep: str = "#"):
    """All ``num_samples`` rank-swap perturbations of every query's ranked
    list in ONE ``groupby(qid).map_groups`` pass — no driver materialization.

    Each sample applies the single rel↔nonrel swap selected by the
    deterministic arithmetic ``perm_index`` (qpp.stochastic; identity is
    always permutation 0), mirroring the reference's RankSwapper enumeration
    (stochastic_qpp/StochasticQPPEvaluation.java:229-264, RankSwapper.java:
    34-141) with SQL-reproducible choice instead of unseeded Math.random.
    → Dataset(qid=f"{{qid}}{id_sep}{{sample}}", sample, doc_id, rank, score);
    the composite qid lets one downstream metrics/QPP pass treat every
    (query, sample) as its own group."""
    import numpy as np
    import ray

    from ..qpp.stochastic import chosen_swap, perm_index

    rel_map = {str(q): set(g[g["rel"] >= 2]["docid"].astype(int))
               for q, g in qrels_df.groupby("qid")}
    relref = ray.put(rel_map)

    def groups(g: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(relref)
        qid = str(g["qid"].iloc[0])
        g = g.sort_values("rank")
        docs = g["doc_id"].to_numpy().astype(np.int64)
        scores = g["score"].to_numpy().astype(np.float64)
        n = docs.size
        rel = m.get(qid, set())
        isrel = np.fromiter((int(d) in rel for d in docs), bool, n)
        rel_pos = np.flatnonzero(isrel)
        if rel_pos.size == 0 or rel_pos[0] != 0:     # TOPDOC_ALWAYS_SWAPPED
            rel_pos = np.concatenate(([0], rel_pos))
        nonrel_pos = np.flatnonzero(~isrel)
        n_perms = 1 + rel_pos.size * nonrel_pos.size
        ranks = np.arange(1, n + 1, dtype=np.int64)
        frames = []
        for s in range(num_samples):
            d2, s2 = docs.copy(), scores.copy()
            sw = chosen_swap(rel_pos.size, nonrel_pos.size,
                             perm_index(qid, s, n_perms))
            if sw is not None:
                r, nr = int(rel_pos[sw[0]]), int(nonrel_pos[sw[1]])
                d2[[r, nr]] = d2[[nr, r]]        # ALLOW_UNSORTED_TOPDOCS:
                s2[[r, nr]] = s2[[nr, r]]        # (doc, score) move together
            frames.append(pd.DataFrame({
                "qid": f"{qid}{id_sep}{s}", "sample": np.int64(s),
                "doc_id": d2, "rank": ranks, "score": s2}))
        return pd.concat(frames, ignore_index=True)

    groups.__name__ = "perturb_runs"
    return run_ds.groupby("qid").map_groups(groups, batch_format="pandas")


def stochastic_qpp_evaluation(run_ds, qrels_df: pd.DataFrame,
                              queries: dict[str, str], index_dir: str,
                              num_samples: int = 10,
                              methods: tuple[str, ...] = ("nqc",),
                              target_metric: str = "ap", k: int = 50,
                              corr_metrics: tuple[str, ...] = ("kendall",
                                                               "sare")
                              ) -> pd.DataFrame:
    """StochasticQPPEvaluation: perturb each query's ranked list per sample
    (rel↔nonrel swaps), recompute metric + QPP, report per-sample
    correlations and deltas vs the unperturbed baseline.

    Dataflow (no whole-run driver materialization — round-2 review):
    ONE perturbation pass emits all samples under composite qids, then ONE
    per_query_metrics pass + ONE qpp_estimates pass over the (query, sample)
    groups; only the tiny per-(sample, qid) arrays reach the driver for the
    final correlations."""
    base = qpp_experiment(run_ds, qrels_df, queries, index_dir,
                          target_metric, methods, k, corr_metrics)
    pert = perturb_runs(run_ds, qrels_df, num_samples)
    # replicate the small sides under the composite qids (broadcast-sized:
    # qrels × samples and queries × samples)
    qrels_s = pd.concat(
        [qrels_df.assign(qid=qrels_df["qid"].astype(str) + f"#{s}")
         for s in range(num_samples)], ignore_index=True)
    queries_s = {f"{q}#{s}": t for q, t in queries.items()
                 for s in range(num_samples)}
    target = per_query_metrics(pert, qrels_s, cutoffs=(10,)).to_pandas()
    est = qpp_estimates(pert, index_dir, queries_s, k=k,
                        methods=methods).to_pandas()
    merged = target.merge(est, on="qid")
    split = merged["qid"].str.rsplit("#", n=1, expand=True)
    merged["qid"] = split[0]
    merged["sample"] = split[1].astype(int)
    # per-sample qid-string order — the same stable order qpp_experiment
    # uses, so SARE position arithmetic matches the baseline's
    merged = merged.sort_values(["sample", "qid"], kind="mergesort")
    rows = []
    for s, gs in merged.groupby("sample", sort=True):
        for m in methods:
            for cm in corr_metrics:
                fn = METRIC_REGISTRY[cm]
                v = round(float(fn(gs[target_metric].to_numpy(),
                                   gs[m].to_numpy())), 6)
                b = base[(base.method == m) &
                         (base.corr_metric == cm)]["value"].iloc[0]
                rows.append({"sample": int(s), "method": m,
                             "corr_metric": cm, "value": v,
                             "delta": round(float(v - b), 6)})
    return pd.DataFrame(rows)

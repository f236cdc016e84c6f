"""Benchmark harness. Prints ONE JSON line:
  {"metric": ..., "value": sec, "unit": "sec", "queries": {...}, "sf": ..., "num_cpus": N}

Headline pipelines:
  * corpus_build  — inverted-index build over a deterministic synthetic code
                    corpus (BASELINE.json input_hint schema; GRAFT_BENCH_DOCS
                    docs, cached parquet under /tmp) — english analyzer,
                    salted groupby-term merge, sharded segments;
  * corpus_search — BM25 top-1000 for the synthetic query set against that
                    index (searcher actor pool);
  * plus the gate pipelines over $GRAFT_SF_DIR/documents.parquet.

`--scaling` runs the same job in two fresh processes (num_cpus=8 and 32) on
the same input and reports both throughputs + scaling efficiency
(the in-sandbox stand-in for N vs 4N nodes; see BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_DOCS = int(os.environ.get("GRAFT_BENCH_DOCS", "200000"))
BENCH_QUERIES = int(os.environ.get("GRAFT_BENCH_QUERIES", "1000"))


def _corpus_files() -> list[str]:
    """Deterministic synthetic code corpus, cached across runs."""
    from lucene_msmarco_ray.synth import SYNTH_VERSION, generate_corpus
    d = f"/tmp/graft_bench_corpus_v{SYNTH_VERSION}_{BENCH_DOCS}"
    marker = os.path.join(d, "_COMPLETE")
    if os.path.exists(marker):
        return sorted(os.path.join(d, f) for f in os.listdir(d)
                      if f.endswith(".parquet"))
    files = generate_corpus(BENCH_DOCS, seed=42, n_files=32, out_dir=d)
    with open(marker, "w") as f:
        f.write("ok")
    return files


def run_bench() -> dict:
    os.environ.setdefault("PYTHONPATH", REPO)
    import ray
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import ray.data as rd

    from lucene_msmarco_ray.config import EngineConfig
    from lucene_msmarco_ray.index.build import build_index
    from lucene_msmarco_ray.search.service import retrieve
    from lucene_msmarco_ray.sources.corpus import read_code_corpus
    from lucene_msmarco_ray.synth import generate_queries

    timings: dict[str, float] = {}
    files = _corpus_files()
    # warm the page cache so we measure compute+shuffle, not first disk read
    for f in files:
        with open(f, "rb") as fh:
            fh.read()
    # warm the cluster: spawn worker processes + Ray Data machinery once,
    # untimed — real clusters are long-lived, the metric is steady-state
    # throughput, not cold-start
    rd.range(NUM_CPUS * 4, override_num_blocks=NUM_CPUS * 4) \
        .map_batches(lambda b: b, batch_format="pyarrow").count()

    import shutil
    idx_dir = f"/tmp/graft_bench_idx_{BENCH_DOCS}_{NUM_CPUS}"
    shutil.rmtree(idx_dir, ignore_errors=True)
    # fixed shard count: the index layout must be identical at every cluster
    # size or the scaling comparison measures different work.
    # emit_fwd=False: this corpus never runs the feedback/QPP family, and the
    # forward-index copy roughly doubles the staged write volume (the r2
    # build regression); gate indexes keep the default emit_fwd=True.
    cfg = EngineConfig(analyzer="english", num_shards=32, emit_fwd=False)

    from lucene_msmarco_ray.index.build import file_lineage
    t0 = time.time()
    stats = build_index(read_code_corpus(files, columns=["content"]),
                        idx_dir, cfg, text_col="content", id_col="doc_id",
                        key_col="doc_key", input_lineage=file_lineage(files))
    timings["corpus_build"] = round(time.time() - t0, 3)

    import pyarrow as pa
    qtbl = generate_queries(BENCH_QUERIES, seed=7)
    qs = rd.from_arrow(qtbl)
    search_conc = max(1, NUM_CPUS // 2)
    # every retrieve() opens and shuts down its own SearcherPool, so it pays
    # pool spin-up (actor launch + index broadcast) before any query is scored.
    # Two-point fit separates the components: time the query set once (t1)
    # and five times over (t5, same pool paid once) — steady QPS =
    # 4N / (t5 - t1), spin-up = t1 - N/steady. The driver-visible
    # corpus_search number stays the full cold run for cross-round
    # comparability.
    t0 = time.time()
    run = retrieve(qs, idx_dir, scorer="bm25", k=1000, k1=0.7, b=0.3,
                   concurrency=search_conc, batch_size=16)
    nrows = run.count()
    t1 = time.time() - t0
    timings["corpus_search"] = round(t1, 3)
    q5 = rd.from_arrow(pa.concat_tables([qtbl] * 5))
    t0 = time.time()
    retrieve(q5, idx_dir, scorer="bm25", k=1000, k1=0.7, b=0.3,
             concurrency=search_conc, batch_size=16).count()
    t5 = time.time() - t0
    nq = qtbl.num_rows
    if t5 > t1 * 1.02:
        steady_qps = 4 * nq / (t5 - t1)
        spinup = max(t1 - nq / steady_qps, 0.0)
    else:
        # host variance inverted the two-point pair (the 5x run was not
        # measurably slower than the 1x run) — the fit is invalid; fall
        # back to the amortized 5x rate, a LOWER bound on steady state,
        # and report no spin-up estimate rather than a nonsense one
        steady_qps = 5 * nq / t5
        spinup = 0.0

    # corpus_search_steady: the real serving topology — one long-lived
    # SearcherPool reused across query sets (search/service.py). The first
    # pass pays actor launch + index broadcast; the TIMED second pass is
    # pure steady-state QPS, tracked round-over-round by the driver
    # (BASELINE.md measured ~985 QPS/set at 2M docs through this path).
    from lucene_msmarco_ray.search.service import SearcherPool
    pool = SearcherPool(idx_dir, n_actors=search_conc, scorer="bm25",
                        k=1000, k1=0.7, b=0.3)
    pool.query(qtbl)                      # warm-up, untimed
    t0 = time.time()
    pool_rows = pool.query(qtbl).num_rows
    t_pool = time.time() - t0
    pool.shutdown()
    timings["corpus_search_steady"] = round(t_pool, 3)
    pool_qps = nq / t_pool if t_pool > 0 else 0.0
    assert pool_rows == nrows            # pool is a drop-in for retrieve()

    # gate pipelines over the sf dir (skipped in scaling legs: the scaling
    # metric is corpus build+search throughput on identical input)
    gate_names = () if os.environ.get("GRAFT_SKIP_GATE") else (
        "bm25_topk", "term_stats", "dedup_exact", "token_count",
        "ann_bruteforce", "minhash_pairs", "simhash_pairs", "ann_ivf",
        "lm_doc_weights", "sessionize", "sessionize_chunked", "asof_join",
        "range_join", "curate_corpus", "sliding_window", "topk_per_group",
        "group_quantile", "pack_sequences", "duplicate_spans",
        "lm_perplexity", "repetition_stats", "cumulative_agg",
        "semi_join", "rrf_fuse", "normalize_text", "group_centroids",
        "quantile_filter", "decontaminate", "importance_weights",
        "group_zscore", "dedup_components", "funnel", "cohort_retention",
        "heavy_hitters", "quantize_embeddings", "bigram_lm",
        "redact_text", "json_extract_agg", "tfidf_keywords", "time_deltas",
        "bloom_semi_join", "token_budget")
    import __ray_entry__ as e
    sys.modules.setdefault("__ray_entry__", e)
    qmap = e.queries()
    # ngram_jaccard is excluded here: on the synthetic sf0.1 documents table
    # (31-word vocab, all docs near-similar) exact all-pairs Jaccard is
    # inherently quadratic; it stays in the sf0.01 correctness gate.
    for name in gate_names:
        t0 = time.time()
        res = qmap[name](SF_DIR)
        # consume to force execution
        try:
            import ray.data as _rd
            if isinstance(res, _rd.Dataset):
                res.count()
        except Exception:
            pass
        timings[name] = round(time.time() - t0, 3)

    result = {
        "metric": "graft_bench_total",
        "value": round(sum(timings.values()), 3),
        "unit": "sec",
        "queries": timings,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "bench_docs": BENCH_DOCS,
        "build_docs_per_sec": round(stats["num_docs"] / timings["corpus_build"], 1),
        "search_qps": round((BENCH_QUERIES + 2) / timings["corpus_search"], 2),
        "search_spinup_sec": round(spinup, 3),
        "search_qps_steady": round(steady_qps, 2),
        "search_pool_qps": round(pool_qps, 2),
        "run_rows": int(nrows),
    }
    ray.shutdown()
    return result


def run_scaling() -> None:
    """Same job, same input, two fresh processes at N and 4N CPUs (default
    2 and 8 — see BASELINE.md: both levels sit below the single-node memory
    bandwidth ceiling, so the measurement reflects scheduler/shuffle scaling
    rather than shared-DRAM contention that separate nodes would not have)."""
    lo, hi = (int(x) for x in
              os.environ.get("GRAFT_SCALING_CPUS", "2,8").split(","))
    out = {}
    for ncpu in (lo, hi):
        # OMP_NUM_THREADS=1 caps pyarrow/numpy intra-op thread pools per
        # worker: without it the low-CPU leg silently uses every hardware
        # core for parquet encode / sort kernels, inflating its throughput
        # (a single-node artifact a real multi-node cluster doesn't have)
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_SKIP_GATE="1",
                   OMP_NUM_THREADS="1",
                   GRAFT_BENCH_DOCS=os.environ.get("GRAFT_SCALING_DOCS", "500000"),
                   GRAFT_BENCH_QUERIES=os.environ.get("GRAFT_SCALING_QUERIES", "12000"))
        r = subprocess.run([sys.executable, os.path.join(REPO, "bench.py")],
                           env=env, capture_output=True, text=True, check=True)
        out[ncpu] = json.loads(r.stdout.strip().splitlines()[-1])
    ratio = hi / lo
    tb_lo = out[lo]["build_docs_per_sec"]
    tb_hi = out[hi]["build_docs_per_sec"]
    ts_lo = out[lo]["search_qps"]
    ts_hi = out[hi]["search_qps"]
    print(json.dumps({
        "metric": "scaling_efficiency",
        "cpu_levels": [lo, hi],
        "build_docs_per_sec": {f"cpus{lo}": tb_lo, f"cpus{hi}": tb_hi},
        "search_qps": {f"cpus{lo}": ts_lo, f"cpus{hi}": ts_hi},
        "build_scaling_efficiency": round(tb_hi / (ratio * tb_lo), 3),
        "search_scaling_efficiency": round(ts_hi / (ratio * ts_lo), 3),
        f"sec_{lo}": out[lo]["value"], f"sec_{hi}": out[hi]["value"],
    }))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        run_scaling()
    else:
        print(json.dumps(run_bench()))

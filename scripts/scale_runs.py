"""Scale anchors beyond the sf0.1 gate inputs (VERDICT r3 #4/#6).

Runs on the deterministic synthetic code corpus (BASELINE.json input_hint
schema, same cache dir as bench.py):

  A. curation flow at N docs: curate_corpus (fused quality/lang/exact-dedup)
     and minhash -> connected_components -> anti-join near-dedup filter —
     wall time, docs/s and per-stage peak heap memory, demonstrating the
     metadata-only-shuffle claim holds off gate-sized inputs.
  B. search topology at N docs: query-partitioned retrieve() vs the
     doc-partitioned retrieve_sharded() (salt buckets dealt to actors) — QPS
     and per-actor index footprint for the multi-node story.

Usage: python scripts/scale_runs.py [--docs 2000000] [--queries 1000]
       [--part A|B|AB]
Prints one JSON line; paste the numbers into BENCH/BASELINE.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def peak_heap_mib(ds) -> float:
    """Max per-operator 'Peak heap memory usage' from ds.stats()."""
    peaks = [float(x) for x in re.findall(
        r"Peak heap memory usage \(MiB\): \S+ min, (\S+) max", ds.stats())]
    return max(peaks) if peaks else float("nan")


def corpus_files(n_docs: int) -> list[str]:
    from lucene_msmarco_ray.synth import SYNTH_VERSION, generate_corpus
    d = f"/tmp/graft_bench_corpus_v{SYNTH_VERSION}_{n_docs}"
    marker = os.path.join(d, "_COMPLETE")
    if not os.path.exists(marker):
        generate_corpus(n_docs, seed=42, n_files=32, out_dir=d)
        with open(marker, "w") as f:
            f.write("ok")
    return sorted(os.path.join(d, f) for f in os.listdir(d)
                  if f.endswith(".parquet"))


def run_curation(files: list[str], n_docs: int) -> dict:
    from lucene_msmarco_ray.ops.curate import curate_corpus
    from lucene_msmarco_ray.ops.dedup import (connected_components_distributed,
                                              minhash_lsh_candidates)
    from lucene_msmarco_ray.ops.join import bucketed_semi_join
    from lucene_msmarco_ray.sources.corpus import read_code_corpus
    import pyarrow as pa

    out = {}
    t0 = time.time()
    cur = curate_corpus(read_code_corpus(files, columns=["content"]),
                        text_col="content", min_tokens=5,
                        min_uniq_ratio=0.05).materialize()
    out["curate_sec"] = round(time.time() - t0, 2)
    out["curate_docs_per_sec"] = round(n_docs / out["curate_sec"], 1)
    out["curate_kept_rows"] = cur.count()
    out["curate_peak_heap_mib"] = peak_heap_mib(cur)

    t0 = time.time()
    pairs = minhash_lsh_candidates(
        read_code_corpus(files, columns=["content"]),
        text_col="content").materialize()
    out["minhash_sec"] = round(time.time() - t0, 2)
    out["minhash_pairs"] = pairs.count()
    out["minhash_peak_heap_mib"] = peak_heap_mib(pairs)

    t0 = time.time()
    comp = connected_components_distributed(pairs).materialize()
    out["components_sec"] = round(time.time() - t0, 2)
    out["components_rows"] = comp.count()
    out["components_peak_heap_mib"] = peak_heap_mib(comp)

    def nonkeepers(batch: pa.Table) -> pa.Table:
        import numpy as np
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        c = batch["component"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(d != c)).select(["doc_id"])

    t0 = time.time()
    losers = comp.map_batches(nonkeepers, batch_format="pyarrow")
    sch = pa.schema([pa.field("doc_id", pa.int64()),
                     pa.field("doc_key", pa.string())])
    kept = bucketed_semi_join(
        read_code_corpus(files, columns=[]).select_columns(
            ["doc_id", "doc_key"]),
        losers, key="doc_id", how="anti", left_schema=sch).materialize()
    out["neardup_filter_sec"] = round(time.time() - t0, 2)
    out["neardup_kept_rows"] = kept.count()
    out["end_to_end_sec"] = round(out["curate_sec"] + out["minhash_sec"]
                                  + out["components_sec"]
                                  + out["neardup_filter_sec"], 2)
    out["end_to_end_docs_per_sec"] = round(n_docs / out["end_to_end_sec"], 1)
    return out


def run_search_topologies(files: list[str], n_docs: int,
                          n_queries: int, num_cpus: int) -> dict:
    import ray
    import ray.data as rd

    from lucene_msmarco_ray.config import EngineConfig
    from lucene_msmarco_ray.index.build import build_index, file_lineage
    from lucene_msmarco_ray.index.manifest import read_stats
    from lucene_msmarco_ray.search.service import retrieve, retrieve_sharded
    from lucene_msmarco_ray.sources.corpus import read_code_corpus
    from lucene_msmarco_ray.synth import generate_queries

    out = {}
    idx_dir = f"/tmp/graft_scale_idx_{n_docs}"
    cfg = EngineConfig(analyzer="english", num_shards=32, emit_fwd=False)
    try:
        stats = read_stats(idx_dir)
    except (FileNotFoundError, ValueError):     # none, or an older layout
        shutil.rmtree(idx_dir, ignore_errors=True)
        t0 = time.time()
        stats = build_index(read_code_corpus(files, columns=["content"]),
                            idx_dir, cfg, text_col="content",
                            id_col="doc_id", key_col="doc_key",
                            input_lineage=file_lineage(files))
        out["build_sec"] = round(time.time() - t0, 2)
        out["build_docs_per_sec"] = round(n_docs / out["build_sec"], 1)
    out["n_salt"] = int(stats.get("n_salt", 1))

    qtbl = generate_queries(n_queries, seed=7)

    # query-partitioned: every actor holds the WHOLE index
    t0 = time.time()
    run_q = retrieve(rd.from_arrow(qtbl), idx_dir, scorer="bm25", k=1000,
                     k1=0.7, b=0.3, concurrency=num_cpus,
                     batch_size=16).materialize()
    out["query_part_sec"] = round(time.time() - t0, 2)
    out["query_part_qps"] = round(n_queries / out["query_part_sec"], 1)
    out["query_part_rows"] = run_q.count()
    out["query_part_peak_heap_mib"] = peak_heap_mib(run_q)

    # per-actor index footprint for the query-partitioned path = the
    # broadcast (segments + doc-meta) tables each actor views
    from lucene_msmarco_ray.search.searcher import preload_tables
    seg, meta = preload_tables(idx_dir)
    out["query_part_actor_index_mib"] = round(
        (seg.nbytes + meta.nbytes) / 2**20, 1)
    del seg, meta

    # doc-partitioned: each actor holds its share of the salt buckets
    t0 = time.time()
    run_s = retrieve_sharded(
        rd.from_arrow(qtbl), idx_dir, scorer="bm25", k=1000, k1=0.7, b=0.3,
        concurrency=num_cpus).materialize()
    out["doc_part_sec"] = round(time.time() - t0, 2)
    out["doc_part_qps"] = round(n_queries / out["doc_part_sec"], 1)
    out["doc_part_rows"] = run_s.count()
    out["doc_part_peak_heap_mib"] = peak_heap_mib(run_s)
    return out


def run_tfidf(files: list[str], n_docs: int) -> dict:
    """Part C: tfidf_keywords at N docs — the vocabulary-bounded-exchange
    claim off gate-sized inputs (pass 1 reduces to the (term, df) table,
    pass 2 never exchanges the scored stream)."""
    from lucene_msmarco_ray.ops.textstats import _df_micro_idf, tfidf_keywords
    from lucene_msmarco_ray.sources.corpus import read_code_corpus

    out = {}
    t0 = time.time()
    terms, _micro, n = _df_micro_idf(
        read_code_corpus(files, columns=["content"]), "content")
    out["pass1_df_sec"] = round(time.time() - t0, 2)
    out["vocab_terms"] = int(terms.size)
    out["n_docs"] = int(n)

    t0 = time.time()
    res = tfidf_keywords(read_code_corpus(files, columns=["content"]),
                         k=5, text_col="content", id_col="doc_id",
                         concurrency=(1, 16))
    out["rows"] = res.count()
    # tfidf_keywords re-runs pass 1 internally, so this IS the full cost
    out["total_sec"] = round(time.time() - t0, 2)
    out["docs_per_sec"] = round(n_docs / out["total_sec"], 1)
    out["peak_heap_mib"] = peak_heap_mib(res)
    return out


def run_lm_paths(files: list[str], n_docs: int) -> dict:
    """Part E: broadcast vs forced bucketed-join LM scoring at N docs —
    the measured cost of the huge-vocab fallback (ops/vocab_join.py).
    On real unbounded-vocabulary corpora the switch is automatic; this
    forces it (max_broadcast_vocab=1) on the same input so the two
    paths' throughputs are directly comparable."""
    from lucene_msmarco_ray.ops.textstats import (tfidf_keywords,
                                                  unigram_lm_perplexity)
    from lucene_msmarco_ray.sources.corpus import read_code_corpus

    out = {}
    t0 = time.time()
    res = unigram_lm_perplexity(
        read_code_corpus(files, columns=["content"]),
        text_col="content", id_col="doc_id", concurrency=(1, 16))
    out["lm_broadcast_rows"] = res.count()
    out["lm_broadcast_sec"] = round(time.time() - t0, 2)
    out["lm_broadcast_docs_per_sec"] = round(
        n_docs / out["lm_broadcast_sec"], 1)
    print(json.dumps({"phase": "lm_broadcast", **out}), file=sys.stderr,
          flush=True)

    t0 = time.time()
    res = unigram_lm_perplexity(
        read_code_corpus(files, columns=["content"]),
        text_col="content", id_col="doc_id", concurrency=(1, 16),
        max_broadcast_vocab=1)
    out["lm_join_rows"] = res.count()
    out["lm_join_sec"] = round(time.time() - t0, 2)
    out["lm_join_docs_per_sec"] = round(n_docs / out["lm_join_sec"], 1)
    out["lm_join_peak_heap_mib"] = peak_heap_mib(res)
    out["lm_join_overhead_x"] = round(
        out["lm_join_sec"] / out["lm_broadcast_sec"], 2)
    print(json.dumps({"phase": "lm_join", **out}), file=sys.stderr,
          flush=True)
    print(res.stats()[-3000:], file=sys.stderr, flush=True)

    t0 = time.time()
    res = tfidf_keywords(read_code_corpus(files, columns=["content"]),
                         k=5, text_col="content", id_col="doc_id",
                         concurrency=(1, 16), max_broadcast_vocab=1)
    out["tfidf_join_rows"] = res.count()
    out["tfidf_join_sec"] = round(time.time() - t0, 2)
    out["tfidf_join_docs_per_sec"] = round(
        n_docs / out["tfidf_join_sec"], 1)
    out["tfidf_join_peak_heap_mib"] = peak_heap_mib(res)
    return out


def run_compaction(files: list[str], n_docs: int) -> dict:
    """Part D: append fragmentation + compaction at N docs — build on 90%,
    append the tail, compact; segment-row reduction, compact wall time,
    and preload-time before/after (the read cost compaction pays down)."""
    import pyarrow.dataset as pads

    from lucene_msmarco_ray.config import EngineConfig
    from lucene_msmarco_ray.index.append import append_documents
    from lucene_msmarco_ray.index.build import build_index, file_lineage
    from lucene_msmarco_ray.index.compact import compact_index
    from lucene_msmarco_ray.search.searcher import IndexReader
    from lucene_msmarco_ray.sources.corpus import read_code_corpus

    out = {}
    idx = f"/tmp/graft_scale_compact_{n_docs}"
    shutil.rmtree(idx, ignore_errors=True)
    cfg = EngineConfig(analyzer="english", num_shards=32, emit_fwd=False)
    cut = int(n_docs * 0.9)
    t0 = time.time()
    build_index(read_code_corpus(files).filter(expr=f"doc_id < {cut}"),
                idx, cfg, text_col="content", id_col="doc_id",
                key_col="doc_key")
    out["build_sec"] = round(time.time() - t0, 2)
    # the realistic ingestion shape: MANY small appends, most landing
    # INSIDE an existing salt bucket — each splices another per-term run
    n_appends = 8
    bounds = [cut + (n_docs - cut) * i // n_appends
              for i in range(n_appends + 1)]
    t0 = time.time()
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        append_documents(idx, read_code_corpus(files)
                         .filter(expr=f"doc_id >= {lo} and doc_id < {hi}"),
                         text_col="content", id_col="doc_id",
                         key_col="doc_key", pid=f"tail{i}",
                         input_lineage=f"{file_lineage(files)}-{i}")
    out["append_sec"] = round(time.time() - t0, 2)
    out["n_appends"] = n_appends

    t0 = time.time()
    IndexReader(idx, preload=True)
    out["preload_before_sec"] = round(time.time() - t0, 2)
    t0 = time.time()
    summary = compact_index(idx)
    out["compact_sec"] = round(time.time() - t0, 2)
    out.update(summary)
    t0 = time.time()
    IndexReader(idx, preload=True)
    out["preload_after_sec"] = round(time.time() - t0, 2)
    shutil.rmtree(idx, ignore_errors=True)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--docs", type=int, default=2_000_000)
    ap.add_argument("--queries", type=int, default=1000)
    ap.add_argument("--part", default="AB",
                    choices=["A", "B", "AB", "C", "ABC", "D", "ABCD", "E"])
    ap.add_argument("--num-cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    args = ap.parse_args()

    os.environ.setdefault("PYTHONPATH", REPO)
    import ray
    ray.init(address="local", num_cpus=args.num_cpus,
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    files = corpus_files(args.docs)
    for f in files:  # warm page cache: measure compute, not first disk read
        with open(f, "rb") as fh:
            fh.read()

    res = {"docs": args.docs, "num_cpus": args.num_cpus}
    if "A" in args.part:
        res["curation"] = run_curation(files, args.docs)
    if "B" in args.part:
        res["search"] = run_search_topologies(files, args.docs, args.queries,
                                              args.num_cpus)
    if "C" in args.part:
        res["tfidf"] = run_tfidf(files, args.docs)
    if "D" in args.part:
        res["compaction"] = run_compaction(files, args.docs)
    if "E" in args.part:
        res["lm_paths"] = run_lm_paths(files, args.docs)
    print(json.dumps(res))
    ray.shutdown()


if __name__ == "__main__":
    main()

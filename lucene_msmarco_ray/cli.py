"""Command-line entry point — the `ray job submit` surface (SURVEY.md §2.13,
§4; replaces the reference's `mvn exec:java` shell scripts index.sh /
retrieve.sh / jm.sh).

    python -m lucene_msmarco_ray.cli build    --corpus DIR --index DIR [opts]
    python -m lucene_msmarco_ray.cli search   --index DIR --queries TSV --out RES [opts]
    python -m lucene_msmarco_ray.cli evaluate --run RES --qrels QRELS
    python -m lucene_msmarco_ray.cli qpp      --index DIR --queries TSV --run RES

Owns the Ray session (scripts only — library code never calls ray.init).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _init_ray(num_cpus: int | None):
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    return ray


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="lucene_msmarco_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build")
    b.add_argument("--corpus", required=True,
                   help="parquet file/dir (input_hint schema) or TSV "
                        "docid\\ttext collection (--format tsv)")
    b.add_argument("--format", default="parquet",
                   choices=["parquet", "tsv"])
    b.add_argument("--index", required=True)
    b.add_argument("--analyzer", default="english",
                   choices=["english", "whitespace", "simple"])
    b.add_argument("--num-shards", type=int, default=32)
    b.add_argument("--text-col", default="content")
    b.add_argument("--no-resume", action="store_true")

    a = sub.add_parser("append", help="incrementally add a delta corpus "
                       "to an existing index (O(new docs); old segments "
                       "untouched; analysis chain comes from the index "
                       "manifest)")
    a.add_argument("--corpus", required=True,
                   help="parquet file/dir of NEW documents (input_hint "
                        "schema); ids are assigned after the index's "
                        "current num_docs")
    a.add_argument("--index", required=True)
    a.add_argument("--text-col", default="content")
    a.add_argument("--pid", default=None,
                   help="stable partition id for resumable appends")

    k = sub.add_parser("compact", help="fold per-append posting runs back "
                       "to one row per (term, shard, salt) — zero-decode "
                       "concatenating merge, search-bit-identical")
    k.add_argument("--index", required=True)

    s = sub.add_parser("search")
    s.add_argument("--index", required=True)
    s.add_argument("--queries", required=True, help="TSV qid\\ttext")
    s.add_argument("--out", required=True, help="TREC res output path")
    s.add_argument("--scorer", default="bm25", choices=["bm25", "lmdir"])
    s.add_argument("--k", type=int, default=1000)
    s.add_argument("--k1", type=float, default=0.7)
    s.add_argument("--b", type=float, default=0.3)
    s.add_argument("--mu", type=float, default=1000.0)
    s.add_argument("--concurrency", type=int, default=0,
                   help="searcher actors; 0 = half the cluster CPUs")
    s.add_argument("--run-name", default="ray-bm25")

    e = sub.add_parser("evaluate")
    e.add_argument("--run", required=True)
    e.add_argument("--qrels", required=True)

    ea = sub.add_parser("evalat", help="evalat50.sh equivalent: concat a "
                        "directory of res files, truncate to --depth, "
                        "report macro metrics")
    ea.add_argument("--dir", required=True)
    ea.add_argument("--qrels", required=True)
    ea.add_argument("--depth", type=int, default=50)
    ea.add_argument("--pattern", default="*.res")

    q = sub.add_parser("qpp")
    q.add_argument("--index", required=True)
    q.add_argument("--queries", required=True)
    q.add_argument("--run", required=True)
    q.add_argument("--k", type=int, default=50)

    ft = sub.add_parser("fdbkterms", help="printfdbkterms.sh equivalent: "
                        "dump per-query RM-conditional feedback-term "
                        "weights from a run file")
    ft.add_argument("--index", required=True)
    ft.add_argument("--run", required=True)
    ft.add_argument("--num-top-docs", type=int, default=20)

    c = sub.add_parser("curate", help="quality-filter + exact-dedup a "
                       "parquet corpus; writes the kept (doc_id, features) "
                       "table as parquet")
    c.add_argument("--corpus", required=True,
                   help="parquet file/dir with (doc_id, text)")
    c.add_argument("--out", required=True)
    c.add_argument("--text-col", default="text")
    c.add_argument("--min-tokens", type=int, default=1)
    c.add_argument("--langs", default=None,
                   help="comma-separated predicted langs to keep")
    c.add_argument("--min-uniq-ratio", type=float, default=None)
    c.add_argument("--max-stop-ratio", type=float, default=None)

    args = p.parse_args(argv)
    os.environ.setdefault("PYTHONPATH",
                          os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

    if args.cmd == "build":
        ray = _init_ray(args.num_cpus)
        from .config import EngineConfig
        from .index.build import build_index
        from .sources.corpus import read_code_corpus
        cfg = EngineConfig(analyzer=args.analyzer, num_shards=args.num_shards)
        if args.format == "tsv":
            from .sources.corpus import read_tsv_corpus
            ds = read_tsv_corpus(args.corpus)
            text_col = "content"
        else:
            ds = read_code_corpus(args.corpus, columns=[args.text_col])
            text_col = args.text_col
        stats = build_index(ds, args.index, cfg, text_col=text_col,
                            id_col="doc_id", key_col="doc_key",
                            resume=not args.no_resume)
        print(json.dumps(stats))
        ray.shutdown()

    elif args.cmd == "append":
        ray = _init_ray(args.num_cpus)
        from .index.append import append_documents
        from .index.build import file_lineage
        from .sources.corpus import _expand, read_code_corpus
        from .index.manifest import read_stats
        n0 = int(read_stats(args.index)["num_docs"])
        ds = read_code_corpus(args.corpus, columns=[args.text_col],
                              id_offset=n0)
        stats = append_documents(
            args.index, ds, text_col=args.text_col, id_col="doc_id",
            key_col="doc_key", pid=args.pid,
            input_lineage=file_lineage(_expand(args.corpus)))
        print(json.dumps(stats))
        ray.shutdown()

    elif args.cmd == "compact":
        ray = _init_ray(args.num_cpus)
        from .index.compact import compact_index
        print(json.dumps(compact_index(args.index)))
        ray.shutdown()

    elif args.cmd == "search":
        ray = _init_ray(args.num_cpus)
        import ray.data as rd
        from .search.service import retrieve
        from .sources.trec import read_queries, write_run
        qdf = read_queries(args.queries)
        conc = args.concurrency or max(
            1, int(ray.cluster_resources().get("CPU", 2)) // 2)
        run = retrieve(rd.from_pandas(qdf), args.index, scorer=args.scorer,
                       k=args.k, k1=args.k1, b=args.b, mu=args.mu,
                       concurrency=conc)
        write_run(run, args.out, run_name=args.run_name)
        print(json.dumps({"queries": len(qdf), "out": args.out}))
        ray.shutdown()

    elif args.cmd == "evaluate":
        ray = _init_ray(args.num_cpus)
        import ray.data as rd
        from .eval.metrics import evaluate_run
        from .sources.trec import read_qrels, read_run
        run_df = read_run(args.run)
        run_df = run_df.rename(columns={"docid": "doc_id"})
        pq_df, macro = evaluate_run(rd.from_pandas(run_df),
                                    read_qrels(args.qrels))
        print(pq_df.drop(columns=["_rel_seen", "_total_rel"])
              .to_string(index=False))
        print(json.dumps({"macro": macro}))
        ray.shutdown()

    elif args.cmd == "evalat":
        ray = _init_ray(args.num_cpus)
        from .eval.metrics import evaluate_run_dir
        _, macro = evaluate_run_dir(args.dir, args.qrels, depth=args.depth,
                                    pattern=args.pattern)
        # evalat50.sh greps map|ndcg from trec_eval; report the same family
        print(json.dumps({"map": macro["ap"], "ndcg10": macro["ndcg10"],
                          "macro": macro, "depth": args.depth}))
        ray.shutdown()

    elif args.cmd == "curate":
        ray = _init_ray(args.num_cpus)
        import ray.data as rd
        from .ops.curate import curate_corpus
        ds = rd.read_parquet(args.corpus, columns=["doc_id", args.text_col])
        kept = curate_corpus(
            ds, text_col=args.text_col, min_tokens=args.min_tokens,
            langs=args.langs.split(",") if args.langs else None,
            min_uniq_ratio=args.min_uniq_ratio,
            max_stop_ratio=args.max_stop_ratio)
        kept.write_parquet(args.out)
        n = rd.read_parquet(args.out).count()
        print(json.dumps({"kept": int(n), "out": args.out}))
        ray.shutdown()

    elif args.cmd == "fdbkterms":
        ray = _init_ray(args.num_cpus)
        import ray.data as rd
        from .pipelines.feedback import fdbk_term_stats
        from .sources.trec import read_run
        run_df = read_run(args.run).rename(columns={"docid": "doc_id"})
        run_df["doc_id"] = run_df["doc_id"].astype(int)
        wdf = fdbk_term_stats(rd.from_pandas(run_df), args.index,
                              num_top_docs=args.num_top_docs).to_pandas()
        # FdbkTermStats.java prints "qid: ..." then "term: weight" lines
        for qid, grp in wdf.groupby("qid", sort=True):
            print(f"{qid}:")
            for _, r in grp.sort_values(
                    ["weight", "term"], ascending=[False, True]).iterrows():
                print(f"{r['term']}: {r['weight']}")
        ray.shutdown()

    elif args.cmd == "qpp":
        ray = _init_ray(args.num_cpus)
        import ray.data as rd
        from .pipelines.feedback import qpp_estimates
        from .sources.trec import read_queries, read_run
        qdf = read_queries(args.queries)
        run_df = read_run(args.run).rename(columns={"docid": "doc_id"})
        run_df["doc_id"] = run_df["doc_id"].astype(int)
        est = qpp_estimates(rd.from_pandas(run_df), args.index,
                            dict(zip(qdf["qid"], qdf["text"])), k=args.k)
        print(est.to_pandas().to_string(index=False))
        ray.shutdown()

    return 0


if __name__ == "__main__":
    sys.exit(main())

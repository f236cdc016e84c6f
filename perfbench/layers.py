"""Per-layer metrics: which library calls are wrapped, how worker-side
work is replayed in-process, and how spans become the layer table.

Every per-layer metric is a mean per operation of the workload (one build,
one request, one ingest round) unless its unit says otherwise. For each
operation::

    wall = sum of the self times in OP_IDENTITY + ray.overhead_s

so ``ray.overhead_s`` is whatever the named layers do not cover: task
scheduling, serialization, Parquet writes of staged and segment files,
actor start-up and waiting. The operations themselves run untraced while
the self times come from traced replays, so each operation's wall has the
replays' tracing cost (traced minus untraced replay time) added to it.
Attributed time must not exceed the wall: the run reports an error when the
mean ``ray.overhead_s`` is below zero by more than two standard errors of
the per-operation values. A single operation can fall below zero, because
it and its replay are two executions on a shared host and a request's
dispatch cost is as small as that noise; their number and the smallest
overhead are reported.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

# per-layer metric -> (unit, the end-to-end metric and workload it should move)
LAYERS = {
    "index.build.tokenize_phase_s": ("s", "build/throughput_per_s"),
    "index.build.merge_phase_s": ("s", "build/throughput_per_s"),
    "index.build.count_terms_s": ("s", "build/throughput_per_s"),
    "index.build.staged_bytes": ("bytes", "index_bytes_per_input_byte"),
    "index.build.segment_bytes": ("bytes", "index_bytes_per_input_byte"),
    "index.append.append_s": ("s", "ingest/throughput_per_s"),
    "index.compact.compact_s": ("s", "ingest/latency_p50_ms"),
    "index.compact.compactions": ("count", "ingest/latency_tail_ms"),
    "index.compact.rows_rewritten": ("count", "ingest/throughput_per_s"),
    "index.compact.runs_per_term": ("ratio", "ingest/latency_p50_ms"),
    "search.searcher.preload_s": ("s", "serve/setup_s"),
    "search.service.pool_init_s": ("s", "serve/setup_s"),
    "sources.read_s": ("s", "build/throughput_per_s"),
    "analysis.analyze_s": ("s", "build/throughput_per_s"),
    "analysis.tokens": ("count", "build/throughput_per_s"),
    "stages.tokenize_self_s": ("s", "build/throughput_per_s"),
    "stages.staged_rows": ("count", "build/throughput_per_s"),
    "index.codec.encode_s": ("s", "build/throughput_per_s"),
    "index.codec.postings_encoded": ("count", "build/throughput_per_s"),
    "analysis.query_analyze_s": ("s", "serve/latency_p50_ms"),
    "search.searcher.reader_open_s": ("s", "ingest/latency_p50_ms"),
    "index.codec.decode_s": ("s", "ingest/latency_p50_ms"),
    "index.codec.postings_decoded": ("count", "ingest/latency_p50_ms"),
    "index.codec.concat_runs_s": ("s", "ingest/latency_p50_ms"),
    "index.codec.runs_concatenated": ("count", "ingest/latency_p50_ms"),
    "search.scoring.term_scores_s": ("s", "serve/throughput_per_s"),
    "search.scoring.postings_scored": ("count", "serve/throughput_per_s"),
    "search.searcher.contrib_hit_ratio": ("ratio", "serve/latency_tail_ms"),
    "search.searcher.taat_s": ("s", "serve/latency_p50_ms"),
    "search.searcher.taat_queries": ("count", "serve/latency_p50_ms"),
    "search.wand.wand_s": ("s", "serve/latency_tail_ms"),
    "search.wand.wand_queries": ("count", "serve/latency_tail_ms"),
    "search.searcher.candidates_per_result": ("ratio", "serve/throughput_per_s"),
    "search.searcher.topk_s": ("s", "serve/latency_p50_ms"),
    "search.searcher.assemble_s": ("s", "serve/latency_p50_ms"),
    "search.service.dispatch_ms": ("ms", "serve/latency_p50_ms"),
    "ray.overhead_s": ("s", "build/throughput_per_s, ingest/latency_p50_ms"),
}

# span name -> per-layer metric holding its self time
SELF_TIME = {
    "sources.read": "sources.read_s",
    "analysis.analyze": "analysis.analyze_s",
    "stages.tokenize": "stages.tokenize_self_s",
    "index.codec.encode": "index.codec.encode_s",
    "index.build.count_terms": "index.build.count_terms_s",
    "index.compact.compact": "index.compact.compact_s",
    "search.searcher.preload": "search.searcher.preload_s",
    "search.service.pool_init": "search.service.pool_init_s",
    "search.searcher.reader_open": "search.searcher.reader_open_s",
    "analysis.query_analyze": "analysis.query_analyze_s",
    "index.codec.decode": "index.codec.decode_s",
    "index.codec.concat_runs": "index.codec.concat_runs_s",
    "search.scoring.term_scores": "search.scoring.term_scores_s",
    "search.searcher.taat": "search.searcher.taat_s",
    "search.wand.wand": "search.wand.wand_s",
    "search.searcher.topk": "search.searcher.topk_s",
    "search.searcher.stage": "search.searcher.assemble_s",
}
# per operation: wall = sum of these spans' self times + ray.overhead_s.
# Spans not listed (the op root, append_documents, the fragmentation scan,
# replay roots) hold Ray and I/O time and fall into the overhead. So does
# pool_init: its self time is the actor's start plus the actor's reader
# open, which the replay already counts in reader_open_s.
OP_IDENTITY = tuple(s for s in SELF_TIME if s != "search.service.pool_init")


def install_client_wrappers(tr) -> None:
    """Wrap the public functions the benchmark process calls into."""
    from lucene_msmarco_ray.index import append as append_mod
    from lucene_msmarco_ray.index import build as build_mod
    from lucene_msmarco_ray.index import compact as compact_mod
    from lucene_msmarco_ray.search import searcher as searcher_mod
    from lucene_msmarco_ray.search import service as service_mod

    def on_compact(args, kwargs, res):
        tr.add("index.compact.compactions", 1)
        tr.add("index.compact.rows_rewritten", res["rows_before"])

    def on_frag(args, kwargs, res):
        tr.add("frag.rows", res[0])
        tr.add("frag.unique", res[1])

    tr.wrap(build_mod, "count_distinct_terms", "index.build.count_terms")
    tr.wrap(append_mod, "count_distinct_terms", "index.build.count_terms")
    tr.wrap(compact_mod, "compact_index", "index.compact.compact", on_compact)
    tr.wrap(compact_mod, "fragmentation", "index.compact.fragmentation",
            on_frag)
    tr.wrap(service_mod, "preload_tables", "search.searcher.preload")
    tr.wrap(searcher_mod, "preload_tables", "search.searcher.preload")


def install_worker_wrappers(tr) -> None:
    """Wrap what runs inside Ray workers; only the in-process replays
    below reach these wrappers."""
    from lucene_msmarco_ray.index import build as build_mod
    from lucene_msmarco_ray.search import scoring as scoring_mod
    from lucene_msmarco_ray.search import searcher as searcher_mod
    from lucene_msmarco_ray.search import wand as wand_mod
    from lucene_msmarco_ray.sources import corpus as corpus_mod
    from lucene_msmarco_ray.stages import tokenize as tokenize_mod

    add = tr.add

    tr.wrap(corpus_mod._ReadRowGroup, "__call__", "sources.read")
    tr.wrap(tokenize_mod.TokenizeStage, "__call__", "stages.tokenize",
            lambda a, k, r: add("stages.staged_rows", r.num_rows))
    tr.wrap(build_mod, "encode_group_postings", "index.codec.encode",
            lambda a, k, r: add("index.codec.postings_encoded", len(a[0])))
    tr.wrap(searcher_mod.SearchStage, "__init__", "search.searcher.reader_open")
    tr.wrap(searcher_mod.SearchStage, "__call__", "search.searcher.stage")
    tr.wrap(searcher_mod, "score_query_taat", "search.searcher.taat",
            lambda a, k, r: add("search.searcher.taat_queries", 1))
    tr.wrap(wand_mod, "score_query_wand", "search.wand.wand",
            lambda a, k, r: add("search.wand.wand_queries", 1))
    tr.wrap(searcher_mod, "_topk_exact", "search.searcher.topk")
    tr.wrap(searcher_mod, "decode_all", "index.codec.decode",
            lambda a, k, r: add("index.codec.postings_decoded", len(r[0])))
    tr.wrap(wand_mod, "decode_block", "index.codec.decode",
            lambda a, k, r: add("index.codec.postings_decoded", len(r[0])))
    tr.wrap(searcher_mod, "concat_runs", "index.codec.concat_runs",
            lambda a, k, r: add("index.codec.runs_concatenated", len(a[0])))
    tr.wrap(scoring_mod.BM25Scorer, "term_scores", "search.scoring.term_scores",
            lambda a, k, r: add("search.scoring.postings_scored", np.size(r)))

    orig_lookup = searcher_mod.IndexReader.get_scored_postings

    def lookup(self, term, scorer):
        # a lookup that scores no postings is a contribution-cache hit
        before = tr.totals["search.scoring.postings_scored"]
        res = orig_lookup(self, term, scorer)
        if res is not None:
            add("contrib.lookups", 1)
            if tr.totals["search.scoring.postings_scored"] == before:
                add("contrib.hits", 1)
        return res

    tr.patch(searcher_mod.IndexReader, "get_scored_postings", lookup)

    def analyzer_wrapper(orig, span):
        def analyze(text):
            if tr.paused:
                return orig(text)
            sid = tr.open(span)
            try:
                terms = orig(text)
            finally:
                tr.close(sid)
            if span == "analysis.analyze":
                add("analysis.tokens", len(terms))
            return terms
        return analyze

    orig_tok_init = tokenize_mod.TokenizeStage.__init__
    orig_stage_init = searcher_mod.SearchStage.__init__

    def tok_init(self, *a, **k):
        orig_tok_init(self, *a, **k)
        self.analyzer = analyzer_wrapper(self.analyzer, "analysis.analyze")

    def stage_init(self, *a, **k):
        orig_stage_init(self, *a, **k)
        self.analyzer = analyzer_wrapper(self.analyzer,
                                         "analysis.query_analyze")

    tr.patch(tokenize_mod.TokenizeStage, "__init__", tok_init)
    tr.patch(searcher_mod.SearchStage, "__init__", stage_init)


def replay_build(tr, cfg, files: list[str], id_offset: int, staged_part: str
                 ) -> int:
    """Replay the worker side of one build (or append) in-process: read
    every row group of ``files``, tokenize it in the stage's batch size,
    and encode every gkey group of the staged partition directory
    ``staged_part``. Returns the replay's root span id."""
    from lucene_msmarco_ray.index.build import _EncodeGkeyTask
    from lucene_msmarco_ray.sources.corpus import _ReadRowGroup, corpus_file_plan
    from lucene_msmarco_ray.stages.tokenize import TokenizeStage

    key_cols = ("repo", "path", "commit")
    with tr.span("replay.build") as root:
        read = _ReadRowGroup(sorted({"content", *key_cols}), key_cols)
        stage = TokenizeStage(cfg, text_col="content", id_col="doc_id",
                              key_col="doc_key")
        for p in corpus_file_plan(files):
            p["base"] += id_offset
            tbl = read(pa.Table.from_pylist([p]))
            for b in tbl.to_batches(max_chunksize=cfg.tokenize_batch_size):
                stage(pa.Table.from_batches([b]))
        encode = _EncodeGkeyTask(cfg.block_size)
        pdir = os.path.join(staged_part, "kind=p")
        for g in sorted(os.listdir(pdir)):
            gdir = os.path.join(pdir, g)
            encode(pd.DataFrame([{
                "gkey": int(g.split("=", 1)[1]),
                "files": sorted(os.path.join(gdir, f) for f in os.listdir(gdir)
                                if f.endswith(".parquet"))}]))
    return root.sid


def open_searcher(tr, index_dir: str, scorer_kw: dict):
    """Open an in-process searcher as a ``SearcherPool`` actor does: a
    reader over a preloaded object-store copy of the index. Returns the
    searcher and the root span id of the open."""
    import ray
    from lucene_msmarco_ray.search import searcher as searcher_mod

    with tr.span("replay.open") as root:
        # the unwrapped function: the pool's own preload is not replayed
        preload = getattr(searcher_mod.preload_tables, "__wrapped__",
                          searcher_mod.preload_tables)
        stage = searcher_mod.SearchStage(
            index_dir, k=1000, preload_ref=ray.put(preload(index_dir)),
            **scorer_kw)
    return stage, root.sid


def replay_query(tr, stage, query: pa.Table) -> int:
    """Answer one query in-process; returns the root span id."""
    with tr.span("replay.query") as root:
        stage(query)
    return root.sid


def replay_search(tr, index_dir: str, queries: pa.Table, passes: int,
                  scorer_kw: dict) -> tuple[int, list[list[int]]]:
    """Replay a searcher actor in-process: open a searcher, then answer
    ``queries`` one per call, ``passes`` times. Returns the root span id of
    the open and, per pass, the root span ids of the queries."""
    stage, root = open_searcher(tr, index_dir, scorer_kw)
    return root, [[replay_query(tr, stage, queries.slice(i, 1))
                   for i in range(queries.num_rows)] for _ in range(passes)]


def wall(tr, root_ids) -> float:
    """Summed durations of the given root spans."""
    per = tr.per_root(root_ids)
    return sum(per[r]["wall"] for r in root_ids)


def untraced_query_seconds(tr, index_dir: str, queries: pa.Table,
                           passes: int, scorer_kw: dict) -> list[float]:
    """Seconds per query of ``replay_search`` with every wrapper removed:
    the fastest of ``passes`` passes over ``queries``."""
    with tr.suspended():
        _, ids = replay_search(tr, index_dir, queries, passes, scorer_kw)
    per = tr.per_root([r for p in ids for r in p])
    return [min(per[p[i]]["wall"] for p in ids)
            for i in range(queries.num_rows)]


def layer_table(tr, ops: list[dict], extra: list[int],
                gauges: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the spans.

    ``ops``: one dict per timed operation, {"root": its span id, "wall":
    seconds, "replays": replay root ids attributed to it}.
    ``extra``: root span ids of the replay phase that exercises, once, the
    layers the workload's own operations do not reach.
    ``gauges``: values measured directly (phase seconds from
    ``build_index``'s stats, directory sizes, dispatch, candidates).
    Returns ({metric: {"value", "unit", "source", "moves"}}, the per-op
    identity: the means {"wall_s", "layers_s", "overhead_s"}, the standard
    error of the mean overhead, the number of "ops", the smallest per-op
    overhead, the number of ops whose layer self times exceed their wall,
    and "ok": whether the mean overhead is not below zero by more than
    two standard errors)."""
    per = tr.per_root([o["root"] for o in ops]
                      + [r for o in ops for r in o["replays"]] + list(extra))

    def summed(root_ids) -> dict:
        row: dict = {}
        for r in root_ids:
            for k, v in per[r].items():
                if k != "wall":
                    row[k] = row.get(k, 0) + v
        return row

    rows = [{**summed([o["root"], *o["replays"]]), "wall": o["wall"]}
            for o in ops]
    extra_row = summed(extra)

    def value(key):
        """Mean per op; the replay phase's value when no op reached it."""
        if any(key in row for row in rows):
            return float(np.mean([row.get(key, 0) for row in rows])), "ops"
        if key in extra_row:
            return float(extra_row[key]), "once"
        return 0.0, "not reached"

    out = {}
    for span, metric in SELF_TIME.items():
        out[metric] = value(span)
    for metric in ("analysis.tokens", "stages.staged_rows",
                   "index.codec.postings_encoded",
                   "index.codec.postings_decoded",
                   "index.codec.runs_concatenated",
                   "search.scoring.postings_scored",
                   "search.searcher.taat_queries", "search.wand.wand_queries",
                   "index.compact.compactions", "index.compact.rows_rewritten"):
        out[metric] = value(metric)

    def ratio(num, den):
        src = rows if any(den in r for r in rows) else [extra_row]
        n = sum(r.get(num, 0) for r in src)
        d = sum(r.get(den, 0) for r in src)
        return (n / d if d else 0.0,
                "ops" if src is rows else "once")

    out["search.searcher.contrib_hit_ratio"] = ratio("contrib.hits",
                                                     "contrib.lookups")
    out["index.compact.runs_per_term"] = ratio("frag.rows", "frag.unique")
    # append_documents' whole duration, recorded as a counter
    out["index.append.append_s"] = value("append.wall")
    for metric, (v, src) in gauges.items():
        out[metric] = (v, src)
    walls = np.array([row["wall"] for row in rows])
    own = np.array([sum(row.get(s, 0) for s in OP_IDENTITY) for row in rows])
    overhead = walls - own
    out["ray.overhead_s"] = (float(overhead.mean()), "ops")
    table = {m: {"value": out[m][0], "unit": LAYERS[m][0],
                 "source": out[m][1], "moves": LAYERS[m][1]} for m in LAYERS}
    stderr = (float(overhead.std(ddof=1) / np.sqrt(len(rows)))
              if len(rows) > 1 else 0.0)
    return table, {"wall_s": float(walls.mean()), "layers_s": float(own.mean()),
                   "overhead_s": float(overhead.mean()),
                   "overhead_stderr_s": stderr, "ops": len(rows),
                   "min_overhead_s": float(overhead.min()),
                   "ops_below_zero": int((overhead < 0).sum()),
                   "ok": bool(overhead.mean() + 2 * stderr >= 0)}

"""The three workloads. Each returns the measured operations and the
numbers the run reports; ``run.py`` owns the process, Ray and the output.

A workload receives a :class:`Ctx` and only ever hands the program the
generated Parquet files (and query tables drawn from them). Every timed
operation runs under a deadline; an exception, a timeout or a result the
oracle rejects counts as a failed operation. Checks run outside the timed
region.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from inputs import make_corpus, make_queries
from oracle import Oracle, ranking_errors

# corpus and query sizes; "tiny" is the self-test configuration
CONFIGS = {
    "full": dict(files=8, build_docs=15_000, serve_docs=20_000,
                 serve_queries=200, ingest_base=20_000, slice_docs=1_500,
                 max_slices=9, ingest_queries=30, extra_docs=1_000,
                 extra_queries=100),
    "tiny": dict(files=2, build_docs=1_500, serve_docs=1_500,
                 serve_queries=30, ingest_base=1_500, slice_docs=300,
                 max_slices=5, ingest_queries=20, extra_docs=200,
                 extra_queries=20),
}
SCORER = dict(k1=0.7, b=0.3)       # library defaults, stated for the oracle
K = 1000
SELECTIVE_SHARE = 1 / 2
DEADLINE_S = {"build": 120.0, "request": 15.0, "round": 120.0}
TRACED_BUILDS = 3


class OpTimeout(Exception):
    pass


class deadline:
    """Raise OpTimeout in the main thread if the block overruns."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        def alarm(signum, frame):
            raise OpTimeout(f"operation exceeded {self.seconds:.0f} s")
        self.prev = signal.signal(signal.SIGALRM, alarm)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.prev)
        return False


@dataclass
class Ctx:
    seed: int
    seconds: float
    size: dict
    work: str                  # benchmark work directory in the checkout
    tracer: object             # spans.Tracer (op spans always recorded)
    traced: bool
    start_ray: object          # callable: start the Ray session
    rss: object                # callable: run.peak_rss
    stop_by: float             # perf_counter time by which to stop issuing ops
    setup_t0: float = 0.0

    def corpus(self, n_base: int, n_slices: int, slice_docs: int):
        return make_corpus(os.path.join(self.work, "inputs"), self.seed,
                           n_base, self.size["files"], n_slices, slice_docs)

    def index_dir(self, name: str) -> str:
        d = os.path.join(self.work, "index", name)
        shutil.rmtree(d, ignore_errors=True)
        return d


def tail(lat: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile
    with at least ten samples beyond it; the maximum when there are fewer
    than eleven samples."""
    x = sorted(lat)
    n = len(x)
    if n < 11:
        return x[-1], 100.0, 0
    return x[n - 11], 100.0 * (n - 10) / n, 10


def pass_tail(lat: list[float], per_pass: int) -> tuple[float, float, int, int]:
    """The :func:`tail` of each whole pass of ``per_pass`` operations, and
    the median over the passes: (value, percentile, samples beyond it per
    pass, passes). One pass of whatever ran when there is no whole one."""
    passes = [lat[p:p + per_pass]
              for p in range(0, len(lat) - per_pass + 1, per_pass)] or [lat]
    tails = [tail(p) for p in passes]
    return (statistics.median(t[0] for t in tails), tails[0][1],
            tails[0][2], len(passes))


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(r, f))
               for r, _, fs in os.walk(path) for f in fs)


def _analyzer():
    from lucene_msmarco_ray.analysis import get_analyzer
    return get_analyzer("english")


def _read(files, id_offset=0):
    from lucene_msmarco_ray.sources.corpus import read_code_corpus
    return read_code_corpus(files, columns=["content"], id_offset=id_offset)


def _build(files, idx):
    from lucene_msmarco_ray.config import EngineConfig
    from lucene_msmarco_ray.index.build import build_index
    return build_index(_read(files), idx, EngineConfig(), text_col="content",
                       id_col="doc_id", key_col="doc_key", resume=False)


def _append(idx, file, n_docs):
    """Append without auto-compaction (see NOTES.md)."""
    from lucene_msmarco_ray.index.append import append_documents
    return append_documents(idx, _read([file], n_docs), text_col="content",
                            id_col="doc_id", key_col="doc_key",
                            auto_compact_ratio=None)


def _pool(ctx, idx):
    from lucene_msmarco_ray.search.service import SearcherPool
    with ctx.tracer.span("search.service.pool_init"):
        return SearcherPool(idx, n_actors=1, k=K, **SCORER)


def _split_run(run: pa.Table) -> dict:
    """Run table -> {qid: (doc ids, scores)} in rank order."""
    out = {}
    if run.num_rows == 0:
        return out
    qids = run["qid"].to_numpy(zero_copy_only=False)
    docs = run["doc_id"].to_numpy()
    scores = run["score"].to_numpy()
    ranks = run["rank"].to_numpy()
    bounds = np.flatnonzero(qids[1:] != qids[:-1]) + 1
    for lo, hi in zip(np.r_[0, bounds], np.r_[bounds, len(qids)]):
        if not np.array_equal(ranks[lo:hi], np.arange(1, hi - lo + 1)):
            raise ValueError(f"ranks of {qids[lo]} are not 1..n")
        out[qids[lo]] = (docs[lo:hi], scores[lo:hi])
    return out


def _attempt(fn, limit):
    """(result, error) of ``fn()`` under a deadline; errors are caught."""
    try:
        with deadline(limit):
            return fn(), None
    except Exception as e:   # any program failure is a failed operation
        return None, f"{type(e).__name__}: {e}"


class Outcome:
    """Operations and the numbers a workload reports."""

    def __init__(self):
        self.lat: list[float] = []          # seconds per completed operation
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.ops: list[dict] = []           # for the layer table
        self.extra: list[int] = []
        self.gauges: dict = {}
        self.named: dict = {}
        self.inputs: dict = {}              # seed, SYNTH_VERSION, sha256s
        self.rss: tuple = (0.0, [])         # largest run.peak_rss reading
        self.per_pass = 0                   # operations per pass; 0: one

    def note_rss(self, reading: tuple) -> None:
        if reading[0] > self.rss[0]:
            self.rss = reading

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(msg)


def _extra_phase(ctx, out, idx, corpus, oracle, queries, n_docs,
                 search: bool, append: bool, pool: bool) -> None:
    """Exercise once, on this workload's index, the layers its own
    operations do not reach, then compact it (no workload compacts in its
    timed operations; see NOTES.md) and check the compacted index against
    the oracle. Traced runs only; after every other check."""
    from lucene_msmarco_ray.index.compact import compact_index, fragmentation

    import layers
    tr = ctx.tracer
    if search:
        root, passes = layers.replay_search(tr, idx, queries, 1, SCORER)
        out.extra += [root] + passes[0]
        _candidates(out, oracle, queries, n_docs, source="once")
    if pool:
        with tr.span("extra.pool") as root:
            p = _pool(ctx, idx)
        out.extra.append(root.sid)
        sample = queries.slice(0, min(50, queries.num_rows))
        for _ in range(2):              # the second pass is timed, warm
            lat = []
            for i in range(sample.num_rows):
                t = time.perf_counter()
                p.query(sample.slice(i, 1).select(["qid", "text"]))
                lat.append(time.perf_counter() - t)
        p.shutdown()
        inproc = layers.untraced_query_seconds(tr, idx, sample, 2, SCORER)
        out.gauges["search.service.dispatch_ms"] = (
            1000 * (statistics.median(lat) - statistics.median(inproc)),
            "once")
    if append:
        with tr.span("extra.append") as root:
            t = time.perf_counter()
            _append(idx, corpus.slice_files[0], n_docs)
            tr.add("append.wall", time.perf_counter() - t)
        out.extra.append(root.sid)
        n_docs += ctx.size["extra_docs"]
    out.attempted += 1
    with tr.span("extra.compact") as root:
        fragmentation(os.path.join(idx, "segments"))
        _, err = _attempt(lambda: compact_index(idx), DEADLINE_S["build"])
    out.extra.append(root.sid)
    errs = [err] if err else oracle.check_index(idx, n_docs)
    if errs:
        out.fail("compaction: " + "; ".join(errs[:3]))


def _candidates(out, oracle, queries, n_docs, repeat=None,
                source="ops") -> None:
    """Documents a TAAT accumulator touches per returned hit, counted by the
    oracle over the same queries (``repeat``: times each query was sent)."""
    cand = hits = 0
    for i, text in enumerate(queries["text"].to_pylist()):
        docs, _, n = oracle.bm25_topk(text, n_docs, K, **SCORER)
        w = 1 if repeat is None else repeat[i]
        cand += w * n
        hits += w * len(docs)
    out.gauges["search.searcher.candidates_per_result"] = (
        cand / hits if hits else 0.0, source)


def _phase_gauges(out, stats_list, idx, source) -> None:
    for phase in ("tokenize", "merge"):
        out.gauges[f"index.build.{phase}_phase_s"] = (
            float(np.mean([s["stage_secs"][phase] for s in stats_list])),
            source)
    out.gauges["index.build.staged_bytes"] = (
        dir_bytes(os.path.join(idx, "staged")), "ops")
    out.gauges["index.build.segment_bytes"] = (
        dir_bytes(os.path.join(idx, "segments")), "ops")


# --------------------------------------------------------------- build
def build(ctx: Ctx) -> Outcome:
    """Repeated full builds of one corpus; the first build is warm-up."""
    size = ctx.size
    n = size["build_docs"]
    corpus = ctx.corpus(n, 1, size["extra_docs"])
    oracle = Oracle(corpus.table["content"], _analyzer())
    out = Outcome()
    out.inputs = corpus.identity()
    idx = ctx.index_dir("build")
    ctx.setup_t0 = time.perf_counter()
    ctx.start_ray()
    _, err = _attempt(lambda: _build(corpus.base_files, idx),
                      DEADLINE_S["build"])
    if err:
        out.fail(f"warm-up build: {err}")
        return out
    out.named["setup_s"] = time.perf_counter() - ctx.setup_t0
    tr = ctx.tracer
    stats_list = []
    if ctx.traced:
        import layers
        from lucene_msmarco_ray.config import EngineConfig
        args = (EngineConfig(), corpus.base_files, 0,
                os.path.join(idx, "staged", "part=all"))
    # a traced run replays every build twice, so it stops at TRACED_BUILDS
    limit = TRACED_BUILDS if ctx.traced else float("inf")
    while sum(out.lat) < ctx.seconds and len(out.lat) < limit \
            and time.perf_counter() < ctx.stop_by:
        t = time.perf_counter()
        out.attempted += 1
        with tr.span("op.build") as root:
            stats, err = _attempt(lambda: _build(corpus.base_files, idx),
                                  DEADLINE_S["build"])
        dt = time.perf_counter() - t
        out.lat.append(dt)
        if err:
            out.fail(err)
            break
        errs = oracle.check_index(idx, n)
        if errs:
            out.fail("; ".join(errs))
        stats_list.append(stats)
        op = {"root": root.sid, "wall": dt, "replays": []}
        out.ops.append(op)
        if ctx.traced and not out.failed:
            # right after the build, so the host runs at the same speed:
            # the worker side traced, then untraced. The build ran
            # untraced, so add what tracing costs to its wall
            op["replays"].append(layers.replay_build(tr, *args))
            with tr.suspended():
                plain = layers.replay_build(tr, *args)
            op["wall"] += (layers.wall(tr, op["replays"])
                           - layers.wall(tr, [plain]))
    if not stats_list:
        return out
    # all documents indexed over all build time: a mean, so that every
    # build counts, whatever the host's speed while it ran
    out.named["docs_per_s"] = n * len(out.lat) / sum(out.lat)
    out.named["throughput_per_s"] = out.named["docs_per_s"]
    out.named["index_bytes_per_input_byte"] = (
        dir_bytes(idx) / corpus.input_bytes())
    if ctx.traced and not out.failed:
        _phase_gauges(out, stats_list, idx, "ops")
        queries = make_queries(oracle, n, size["extra_queries"], ctx.seed,
                               SELECTIVE_SHARE)
        _extra_phase(ctx, out, idx, corpus, oracle, queries, n,
                     search=True, append=True, pool=True)
    return out


# --------------------------------------------------------------- serve
def serve(ctx: Ctx) -> Outcome:
    """One long-lived SearcherPool; one closed-loop client, one query per
    request, passes over the query set after one warm-up pass."""
    size = ctx.size
    n = size["serve_docs"]
    corpus = ctx.corpus(n, 1, size["extra_docs"])
    oracle = Oracle(corpus.table["content"], _analyzer())
    queries = make_queries(oracle, n, size["serve_queries"], ctx.seed,
                           SELECTIVE_SHARE)
    requests = [queries.slice(i, 1).select(["qid", "text"])
                for i in range(queries.num_rows)]
    out = Outcome()
    out.inputs = corpus.identity()
    idx = ctx.index_dir("serve")
    ctx.setup_t0 = time.perf_counter()
    ctx.start_ray()
    stats, err = _attempt(lambda: _build(corpus.base_files, idx),
                          DEADLINE_S["build"])
    if err:
        out.fail(f"setup build: {err}")
        return out
    with ctx.tracer.span("setup.pool") as pool_root:
        pool, err = _attempt(lambda: _pool(ctx, idx), DEADLINE_S["build"])
    out.extra.append(pool_root.sid)
    if err:
        out.fail(f"pool start: {err}")
        return out
    for req in requests:
        _, err = _attempt(lambda: pool.query(req), DEADLINE_S["request"])
        if err:
            out.fail(f"warm-up request: {err}")
            return out
    out.named["setup_s"] = time.perf_counter() - ctx.setup_t0
    tr = ctx.tracer
    if ctx.traced:
        # an in-process searcher for the replays, warmed by one pass as the
        # pool was
        import layers
        stage, root = layers.open_searcher(tr, idx, SCORER)
        out.extra += [root] + [layers.replay_query(tr, stage, r)
                               for r in requests]
    sent = []
    # a traced run replays every request twice, so it makes one pass
    limit = len(requests) if ctx.traced else float("inf")
    # whole passes only, so every run answers the same mix of queries
    while (sum(out.lat) < ctx.seconds or len(sent) % len(requests)) \
            and len(sent) < limit and time.perf_counter() < ctx.stop_by:
        i = len(sent) % len(requests)
        t = time.perf_counter()
        out.attempted += 1
        with tr.span("op.request") as root:
            res, err = _attempt(lambda: pool.query(requests[i]),
                                DEADLINE_S["request"])
        dt = time.perf_counter() - t
        out.lat.append(dt)
        replays = None
        if ctx.traced and not err:
            # right after the request, so the host runs at the same speed
            # and the caches are as warm: traced, then untraced
            replays = [layers.replay_query(tr, stage, requests[i])]
            with tr.suspended():
                replays.append(layers.replay_query(tr, stage, requests[i]))
        sent.append((i, res, err, root.sid, replays))
        if err and "OpTimeout" in err:
            break
    out.note_rss(ctx.rss())          # while the actor is alive
    pool.shutdown()
    want = {}
    for i, res, err, *_ in sent:
        if err:
            out.fail(err)
            continue
        if i not in want:
            want[i] = oracle.bm25_topk(queries["text"][i].as_py(), n, K,
                                       **SCORER)
        try:
            got = _split_run(res).get(queries["qid"][i].as_py(),
                                      (np.empty(0), np.empty(0)))
            bad = ranking_errors(want[i], *got)
        except ValueError as e:
            bad = str(e)
        if bad:
            out.fail(f"{queries['qid'][i].as_py()}: {bad}")
    # the tail is taken per pass over the query set, median over passes:
    # over the whole run it is the 11th-slowest of ~1,400 requests, i.e.
    # the slowest two or three queries at whatever speed the shared host
    # ran them, and it spread 0.18-0.27 between runs of the same code
    out.per_pass = len(requests)
    out.named["qps"] = len(out.lat) / sum(out.lat)
    out.named["throughput_per_s"] = out.named["qps"]
    out.named["index_bytes_per_input_byte"] = (
        dir_bytes(idx) / corpus.input_bytes())
    if ctx.traced and not out.failed:
        per = tr.per_root([r for *_, pair in sent for r in pair])
        plain = []
        for (*_, sid, (r, p)), dt in zip(sent, out.lat):
            # the actor ran untraced: add what tracing costs on this query
            # so the identity compares traced time with traced time
            out.ops.append({"root": sid, "replays": [r],
                            "wall": dt + per[r]["wall"] - per[p]["wall"]})
            plain.append(per[p]["wall"])
        out.gauges["search.service.dispatch_ms"] = (
            1000 * (statistics.median(out.lat) - statistics.median(plain)),
            "ops")
        counts = np.bincount([i for i, *_ in sent], minlength=len(requests))
        _candidates(out, oracle, queries, n, counts)
        from lucene_msmarco_ray.config import EngineConfig
        out.extra.append(layers.replay_build(
            tr, EngineConfig(), corpus.base_files, 0,
            os.path.join(idx, "staged", "part=all")))
        _phase_gauges(out, [stats], idx, "setup build")
        del stage
        _extra_phase(ctx, out, idx, corpus, oracle, queries, n,
                     search=False, append=True, pool=False)
    return out


# -------------------------------------------------------------- ingest
def ingest(ctx: Ctx) -> Outcome:
    """Base index in setup; then rounds of append-a-slice followed by a
    cold query set on a fresh SearcherPool over the new version. Every
    append adds a posting run per term, so reads concatenate more runs each
    round. Auto-compaction is off in the rounds: see NOTES.md for why; the
    traced run compacts the final index once."""
    size = ctx.size
    n = size["ingest_base"]
    s = size["slice_docs"]
    corpus = ctx.corpus(n, size["max_slices"], s)
    oracle = Oracle(corpus.table["content"], _analyzer())
    queries = make_queries(oracle, n, size["ingest_queries"], ctx.seed,
                           SELECTIVE_SHARE)
    qtbl = queries.select(["qid", "text"])
    texts = queries["text"].to_pylist()
    qids = queries["qid"].to_pylist()
    out = Outcome()
    out.inputs = corpus.identity()
    idx = ctx.index_dir("ingest")
    ctx.setup_t0 = time.perf_counter()
    ctx.start_ray()
    stats, err = _attempt(lambda: _build(corpus.base_files, idx),
                          DEADLINE_S["build"])
    if err:
        out.fail(f"setup build: {err}")
        return out
    out.named["setup_s"] = time.perf_counter() - ctx.setup_t0
    tr = ctx.tracer
    append_s, query_s = [], []
    rounds = 0
    while rounds < len(corpus.slice_files) \
            and sum(out.lat) < ctx.seconds \
            and time.perf_counter() < ctx.stop_by:
        file = corpus.slice_files[rounds]

        def one_round():
            t = time.perf_counter()
            _append(idx, file, n)
            ta = time.perf_counter() - t
            tr.add("append.wall", ta)
            pool = _pool(ctx, idx)
            try:
                run = pool.query(qtbl)
            finally:
                t_done = time.perf_counter()
                out.note_rss(ctx.rss())  # while the actor is alive
                pool.shutdown()
            return ta, t_done - t, run

        out.attempted += 1
        with tr.span("op.round") as root:
            res, err = _attempt(one_round, DEADLINE_S["round"])
        rounds += 1
        if err:
            out.fail(err)
            break
        ta, dt, run = res
        n += s
        out.lat.append(dt)
        append_s.append(ta)
        query_s.append(dt - ta)
        bad = oracle.check_index(idx, n)
        try:
            got = _split_run(run)
        except ValueError as e:
            got, bad = {}, bad + [str(e)]
        for q, text in zip(qids, texts):
            e = ranking_errors(oracle.bm25_topk(text, n, K, **SCORER),
                               *got.get(q, (np.empty(0), np.empty(0))))
            if e:
                bad.append(f"{q}: {e}")
        if bad:
            out.fail(f"round {rounds}: " + "; ".join(bad[:3]))
        op = {"root": root.sid, "wall": dt, "replays": []}
        out.ops.append(op)
        if ctx.traced and not out.failed:
            import layers
            from lucene_msmarco_ray.config import EngineConfig
            args = (EngineConfig(), [file], n - s, os.path.join(
                idx, "staged", f"part=append{rounds - 1:03d}"))

            def replay():
                b = layers.replay_build(tr, *args)
                r_open, passes = layers.replay_search(tr, idx, queries, 1,
                                                      SCORER)
                return [b, r_open] + passes[0]
            op["replays"] += replay()
            with tr.suspended():
                plain = replay()
            # the round ran untraced: add what tracing costs on it
            op["wall"] += (layers.wall(tr, op["replays"])
                           - layers.wall(tr, plain))
    if not out.lat:
        return out
    out.named["docs_per_s"] = s * len(append_s) / sum(append_s)
    out.named["qps"] = len(qids) * len(query_s) / sum(query_s)
    # documents made searchable per second: a slice over the median round.
    # The append alone is ~0.6 s of mostly fixed cost and spread 28%
    # between seeds on the shared host; the whole round spreads ~11%.
    out.named["throughput_per_s"] = s / statistics.median(out.lat)
    out.named["freshness_p50_s"] = statistics.median(out.lat)
    out.named["rounds"] = len(out.lat)
    out.named["index_bytes_per_input_byte"] = (
        dir_bytes(idx) / corpus.input_bytes(len(out.lat)))
    if ctx.traced and not out.failed:
        _candidates(out, oracle, queries, n)
        _phase_gauges(out, [stats], idx, "setup build")
        _extra_phase(ctx, out, idx, corpus, oracle, queries, n,
                     search=False, append=False, pool=True)
    return out


WORKLOADS = {"build": build, "serve": serve, "ingest": ingest}

"""Both searcher-pool layouts must be IDENTICAL to the in-process
single-reader searcher — scores, ranks, and tie-breaks."""

import ast
import os

import pandas as pd
import pyarrow as pa
import pytest

from lucene_msmarco_ray.config import EngineConfig
from lucene_msmarco_ray.index.build import build_index

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module", params=["build", "build+append"])
def salted_index(ray_session, tmp_path_factory, request):
    """A 4-bucket salted index, built in one go or built from the first 300
    docs and appended with the rest: the append leaves two runs of a term
    in one salt dir (bucket 2 straddles doc 300) and adds bucket 3."""
    import ray.data as rd

    from lucene_msmarco_ray.index.append import append_documents
    out = str(tmp_path_factory.mktemp("shidx") / "idx")
    cfg = EngineConfig(analyzer="simple", num_shards=4, block_size=16,
                       salt_docs_per_bucket=128)   # 500 docs → 4 doc shards
    ds = rd.read_parquet(f"{SF_DIR}/documents.parquet",
                         columns=["doc_id", "text"])
    if request.param == "build":
        stats = build_index(ds, out, cfg, text_col="text", id_col="doc_id")
    else:
        build_index(ds.filter(expr="doc_id < 300"), out, cfg,
                    text_col="text", id_col="doc_id")
        stats = append_documents(out, ds.filter(expr="doc_id >= 300"),
                                 text_col="text", id_col="doc_id",
                                 auto_compact_ratio=None)
    assert stats["n_salt"] == 4
    return out


QUERIES = [{"qid": "1", "text": "table value hash"},
           {"qid": "2", "text": "window sort merge"},
           {"qid": "9", "text": "table table key"},
           {"qid": "12", "text": "zzmissing"}]


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(["qid", "rank"]).reset_index(drop=True) \
        .astype({"doc_id": "int64", "rank": "int64"})


def _in_process(queries: list[dict], idx: str, **kw) -> pd.DataFrame:
    """The oracle: one in-process single-reader searcher, no Ray actor."""
    from lucene_msmarco_ray.search.searcher import SearchStage
    return _canon(SearchStage(idx, preload=True, **kw)(
        pa.Table.from_pylist(queries)).to_pandas())


@pytest.mark.parametrize("scorer,kw", [
    ("bm25", {"k1": 0.7, "b": 0.3}),
    ("lmdir", {"mu": 1000.0}),
])
def test_sharded_equals_single(salted_index, scorer, kw):
    import ray.data as rd

    from lucene_msmarco_ray.search.service import retrieve, retrieve_sharded
    want = _in_process(QUERIES, salted_index, scorer=scorer, k=50, **kw)
    qs = rd.from_items(QUERIES, override_num_blocks=2)
    single = _canon(retrieve(qs, salted_index, scorer=scorer, k=50,
                             **kw).to_pandas())
    qs2 = rd.from_items(QUERIES, override_num_blocks=2)
    sharded = _canon(retrieve_sharded(qs2, salted_index, scorer=scorer,
                                      k=50, **kw).to_pandas())
    pd.testing.assert_frame_equal(single, want)      # bit-identical scores
    pd.testing.assert_frame_equal(sharded, want)


def test_sharded_topk_cut_is_global(salted_index):
    """k smaller than per-shard candidate counts: the merge must take the
    global best, not per-shard quotas."""
    import ray.data as rd

    from lucene_msmarco_ray.search.service import retrieve, retrieve_sharded
    want = _in_process(QUERIES[:1], salted_index, scorer="bm25", k=7,
                       k1=0.7, b=0.3)
    qs = rd.from_items(QUERIES[:1], override_num_blocks=1)
    single = _canon(retrieve(qs, salted_index, scorer="bm25", k=7,
                             k1=0.7, b=0.3).to_pandas())
    qs2 = rd.from_items(QUERIES[:1], override_num_blocks=1)
    sharded = _canon(retrieve_sharded(qs2, salted_index, scorer="bm25",
                                      k=7, k1=0.7, b=0.3).to_pandas())
    assert len(sharded) == 7
    pd.testing.assert_frame_equal(single, want)
    pd.testing.assert_frame_equal(sharded, want)


def test_sharded_on_one_cpu_returns(salted_index):
    """A one-CPU cluster with the default pool sizes: ``retrieve_sharded``
    and ``retrieve`` return, and ``SearcherPool(idx)`` with its default
    ``n_actors`` starts and answers (a pool asking for more CPUs than the
    cluster holds waits forever for its actors)."""
    import json
    import signal
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = f"""
import json, ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import pyarrow as pa
import ray.data as rd
from lucene_msmarco_ray.search.service import (
    SearcherPool, retrieve, retrieve_sharded)
runs = [retrieve_sharded(rd.from_items({QUERIES!r}), {salted_index!r},
                         scorer="bm25", k=50, k1=0.7, b=0.3).to_pandas(),
        retrieve(rd.from_items({QUERIES!r}), {salted_index!r},
                 scorer="bm25", k=50, k1=0.7, b=0.3).to_pandas()]
pool = SearcherPool({salted_index!r}, k=50, k1=0.7, b=0.3)
runs.append(pool.query(pa.Table.from_pylist({QUERIES!r})).to_pandas())
pool.shutdown()
for run in runs:
    print(json.dumps(run.to_dict(orient="list")))
ray.shutdown()
"""
    # own process group: a hung run's Ray services are killed with it
    p = subprocess.Popen([sys.executable, "-c", code], cwd=repo,
                         env=dict(os.environ, PYTHONPATH=repo),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        out, err = p.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise
    assert p.returncode == 0, err[-2000:]
    want = _in_process(QUERIES, salted_index, scorer="bm25", k=50,
                       k1=0.7, b=0.3)
    lines = out.strip().splitlines()[-3:]
    assert len(lines) == 3, out[-2000:]
    for line in lines:
        got = _canon(pd.DataFrame(json.loads(line)))
        pd.testing.assert_frame_equal(got, want)


@pytest.fixture(scope="module")
def pool_index(ray_session, tmp_path_factory):
    """A 300-doc synthetic code corpus, english analyzer, 4 term shards."""
    from lucene_msmarco_ray.sources.corpus import read_code_corpus
    from lucene_msmarco_ray.synth import generate_corpus

    d = tmp_path_factory.mktemp("svc")
    files = generate_corpus(300, seed=17, n_files=2, out_dir=str(d))
    idx = str(tmp_path_factory.mktemp("svcidx") / "idx")
    build_index(read_code_corpus(files), idx,
                EngineConfig(analyzer="english", num_shards=4),
                text_col="content", id_col="doc_id", key_col="doc_key")
    return idx


def _stage_canon(tbl, idx, k=20):
    """The oracle run of ``tbl``: an in-process single-reader searcher."""
    from lucene_msmarco_ray.search.searcher import SearchStage
    return SearchStage(idx, scorer="bm25", k=k, preload=True, k1=0.7,
                       b=0.3)(tbl).to_pandas() \
        .sort_values(["qid", "rank"]).reset_index(drop=True)


def test_searcher_pool_matches_retrieve_and_reuses(pool_index):
    """The persistent serving pool returns BIT-identical runs to the
    in-process searcher, answers a second query set on the same (warm)
    actors, caps in-flight futures, and shuts down cleanly."""
    from lucene_msmarco_ray.search.service import SearcherPool
    from lucene_msmarco_ray.synth import generate_queries

    qtbl = generate_queries(40, seed=11)
    want = _stage_canon(qtbl, pool_index)
    pool = SearcherPool(pool_index, n_actors=2, scorer="bm25", k=20,
                        num_cpus=0.5, k1=0.7, b=0.3)
    try:
        got = pool.query(qtbl, batch_size=7).to_pandas() \
            .sort_values(["qid", "rank"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)   # bit-identical scores
        # same pool, different query set (the serving case)
        q2 = generate_queries(25, seed=23)
        want2 = _stage_canon(q2, pool_index)
        got2 = pool.query(q2, batch_size=3, inflight_per_actor=1) \
            .to_pandas().sort_values(["qid", "rank"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got2, want2)
    finally:
        pool.shutdown()
    assert pool.actors == []


def test_retrieve_small_query_set_has_no_empty_blocks(pool_index):
    """11 queries in batches of 3 on a pool of 2 actors: the run equals
    the in-process searcher's, and its blocks hold 3 whole queries each
    (the last one fewer), none empty."""
    import ray
    import ray.data as rd

    from lucene_msmarco_ray.search.searcher import SearchStage
    from lucene_msmarco_ray.search.service import retrieve
    from lucene_msmarco_ray.synth import generate_queries

    qtbl = generate_queries(11, seed=29).slice(2)     # 11 of its 13 rows
    run = retrieve(rd.from_arrow(qtbl), pool_index, scorer="bm25", k=20,
                   k1=0.7, b=0.3, concurrency=2, batch_size=3).materialize()
    want = SearchStage(pool_index, k=20, k1=0.7, b=0.3)(qtbl).to_pandas() \
        .sort_values(["qid", "rank"]).reset_index(drop=True)
    got = run.to_pandas().sort_values(["qid", "rank"]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    blocks = [ray.get(ref) for ref in run.to_arrow_refs()]
    n_hit = want["qid"].nunique()
    assert [len(b["qid"].unique()) for b in blocks] == \
        [3] * (n_hit // 3) + ([n_hit % 3] if n_hit % 3 else [])


def test_searcher_pool_empty_queries_typed_schema(pool_index):
    import pyarrow as pa

    from lucene_msmarco_ray.search.searcher import RUN_SCHEMA
    from lucene_msmarco_ray.search.service import SearcherPool
    pool = SearcherPool(pool_index, n_actors=1, scorer="bm25", k=5,
                        num_cpus=0.5)
    try:
        empty = pa.table({"qid": pa.array([], pa.string()),
                          "text": pa.array([], pa.string())})
        out = pool.query(empty)
        assert out.schema.equals(RUN_SCHEMA) and out.num_rows == 0
    finally:
        pool.shutdown()


@pytest.mark.parametrize("sharded", [False, True])
def test_retrieve_no_blocks_typed_empty_run(pool_index, sharded):
    """A query Dataset with no blocks at all (so no schema either) gives
    an empty run with the run schema, as an empty table does."""
    import ray
    import ray.data as rd

    from lucene_msmarco_ray.search.searcher import RUN_SCHEMA
    from lucene_msmarco_ray.search.service import retrieve, retrieve_sharded
    fn = retrieve_sharded if sharded else retrieve
    run = fn(rd.from_items([]), pool_index, k=5, concurrency=1)
    blocks = ray.get(run.to_arrow_refs())
    assert blocks and all(b.schema.equals(RUN_SCHEMA) for b in blocks)
    assert sum(b.num_rows for b in blocks) == 0


# batch_size=3: zero-hit queries sit mid-batch (1, 7) and at a batch's end
# (5, 8); 3 repeats a term; 4 mixes non-ASCII text with a hitting term
EDGE_TEXTS = ["return index search", "", "merge partition value",
              "wife wife jojav", "ünïcödé café — index", "the and of to",
              "zowuz wabub kofot", "zzxqjv unseen_term_xq", "the of"]


@pytest.mark.parametrize("shape", ["text", "int-qid", "terms"])
def test_searcher_pool_edge_queries_match_retrieve(pool_index, shape):
    """Zero-hit, duplicate-term and non-ASCII queries, integer qids and a
    pre-analyzed ``terms`` column: the pool's run equals the in-process
    searcher's."""
    import pyarrow as pa

    from lucene_msmarco_ray.search.searcher import SearchStage
    from lucene_msmarco_ray.search.service import SearcherPool
    qids = list(range(101, 101 + len(EDGE_TEXTS)))
    if shape == "text":
        tbl = pa.table({"qid": [str(q) for q in qids], "text": EDGE_TEXTS})
    elif shape == "int-qid":
        tbl = pa.table({"qid": pa.array(qids, pa.int64()),
                        "text": EDGE_TEXTS})
    else:
        analyze = SearchStage(pool_index, preload=True).analyzer
        terms = [analyze(t) for t in EDGE_TEXTS]
        terms[6] = ["zzxqjv", "zzxqjv"]      # absent, repeated
        tbl = pa.table({"qid": [str(q) for q in qids], "terms": terms})
    want = _stage_canon(tbl, pool_index)
    pool = SearcherPool(pool_index, n_actors=2, scorer="bm25", k=20,
                        num_cpus=0.5, k1=0.7, b=0.3)
    try:
        run = pool.query(tbl, batch_size=3)
    finally:
        pool.shutdown()
    # rows come grouped per query, in submission order
    seen = dict.fromkeys(run["qid"].to_pylist())
    assert list(seen) == [q for q in map(str, qids) if q in seen]
    got = run.to_pandas().sort_values(["qid", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)   # bit-identical scores
    per_q = got.groupby("qid").size()
    assert sorted(per_q.index) == ["101", "103", "104", "105"]
    assert per_q["101"] == 20


def test_searcher_pool_shutdown_leaves_no_process(pool_index):
    """Every actor process is gone within 30 s of ``shutdown()``."""
    import os
    import time

    import ray

    from lucene_msmarco_ray.search.service import SearcherPool
    pool = SearcherPool(pool_index, n_actors=2, scorer="bm25", k=5,
                        num_cpus=0.5)
    pids = ray.get([a.__ray_call__.remote(lambda self: os.getpid())
                    for a in pool.actors])
    assert len(set(pids)) == 2 and os.getpid() not in pids
    pool.shutdown()
    stop = time.monotonic() + 30

    def alive():
        return [p for p in pids if os.path.exists(f"/proc/{p}")]
    while alive() and time.monotonic() < stop:
        time.sleep(0.1)
    assert not alive()


def test_retrieve_leaves_no_searcher_process(pool_index, monkeypatch):
    """No searcher actor process outlives ``retrieve()``: neither when it
    returns nor when it raises because an actor failed on a query batch."""
    import time

    import ray
    import ray.data as rd

    from lucene_msmarco_ray.search import service
    pids: list[int] = []
    orig_init = service.SearcherPool.__init__

    def init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        pids.extend(ray.get([a.__ray_call__.remote(lambda _: os.getpid())
                             for a in self.actors]))
    monkeypatch.setattr(service.SearcherPool, "__init__", init)

    def gone(ps: list[int]) -> bool:
        stop = time.monotonic() + 30
        while (any(os.path.exists(f"/proc/{p}") for p in ps)
               and time.monotonic() < stop):
            time.sleep(0.1)
        return not any(os.path.exists(f"/proc/{p}") for p in ps)

    ok = pa.table({"qid": ["1", "2", "3"],
                   "text": ["return index", "merge value", "search"]})
    run = service.retrieve(rd.from_arrow(ok), pool_index, k=5,
                           concurrency=2, batch_size=2)
    assert run.count() > 0
    assert len(pids) == 2 and os.getpid() not in pids and gone(pids)

    pids.clear()
    # a null term list fails inside the actor on the second batch
    bad = pa.table({"qid": ["1", "2"],
                    "terms": pa.array([["index"], None],
                                      pa.list_(pa.string()))})
    with pytest.raises(ray.exceptions.RayTaskError) as failed:
        service.retrieve(rd.from_arrow(bad), pool_index, k=5,
                         concurrency=2, batch_size=1)
    # the held traceback keeps the failed call's frames, and any pool in
    # them, referenced: only an explicit shutdown ends the actors here
    assert len(pids) == 2 and gone(pids), failed.value


def test_search_modules_run_no_dataset_topology():
    """Searchers start one way, on ``SearcherPool``: no module under
    ``search/`` calls ``map_batches``, ``map_groups`` or ``groupby``."""
    pkg = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "lucene_msmarco_ray", "search")
    banned = {"map_batches", "map_groups", "groupby"}
    offenders = []
    for f in sorted(os.listdir(pkg)):
        if f.endswith(".py"):
            with open(os.path.join(pkg, f), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            offenders += [f"{f}:{n.lineno}" for n in ast.walk(tree)
                          if isinstance(n, ast.Call)
                          and isinstance(n.func, ast.Attribute)
                          and n.func.attr in banned]
    assert not offenders, offenders

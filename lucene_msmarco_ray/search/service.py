"""Searcher pool — the one searcher topology, for serving and batch runs.

The reference opens one IndexSearcher shared by every operation
(reference: src/main/java/retrieval/OneStepRetriever.java:34-45). Here
every query path runs on :class:`SearcherPool`: LONG-LIVED Ray actors
(read-only index state that a Dataset's per-execution actor pool cannot
keep alive across query sets), each holding
:class:`~.searcher.SearchStage` objects built once. A serving caller keeps
one pool across query sets; :func:`retrieve` and :func:`retrieve_sharded`
collect a query table, open a pool, query it and shut it down.

Two layouts of the same pool; batches are dealt round-robin to replica
groups, each group a set of actors that together cover the whole index,
and a group's hits are merged per query with :func:`merge_hits`:

* query-partitioned (default): every actor holds the WHOLE index, built
  from a single broadcast preload (one driver decode + one object-store
  copy; actors map zero-copy plasma views), and is a group of its own —
  the right topology while the per-actor footprint fits DRAM;
* doc-partitioned (``doc_partitioned=True``): the index's salt buckets are
  dealt round-robin to the actors, and all actors form one group. An
  actor holds one bucket ``SearchStage`` per salt (postings fetched on
  demand, no preload) sharing one global df/cf dict, analyzes each batch
  once and merges its buckets' hits. The salt-run layout makes a doc
  shard free at the storage level: ``salt = doc_id //
  salt_docs_per_bucket`` is a directory (``segments/shard=S/salt=B/``),
  so a bucket reader reads only its ``salt=B`` dirs. Every per-term score
  uses GLOBAL statistics, so results are IDENTICAL to the
  query-partitioned layout including tie-breaks (test-enforced).

Wire format: plain Python in, numpy out. The driver sends each batch's
term source as a plain list (``searcher.term_source``: the ``text``
strings, or the ``terms`` lists of a pre-analyzed table) and the actor
returns ``SearchStage.search``'s triple (hits per query, doc ids, scores)
as numpy arrays; no ``pa.Table`` crosses the wire. The driver builds the
run table once per query set with ``searcher.run_table``, the one
run-table builder, which ``SearchStage.__call__`` uses too. Building a
1000-row table with one Python qid string per row in the actor, then
pickling it back, cost more than scoring the query. A batch run passes
through the driver once (≤ Q·k·~21 bytes) on its way to a Dataset.

Batches go out with at most ``inflight_per_actor`` outstanding calls per
actor so a giant query table cannot queue unbounded futures.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from ..index.manifest import read_stats
from .searcher import (NO_HITS, SearchStage, _topk_exact, preload_tables,
                       run_table, term_source)


def merge_hits(parts: list[tuple], k: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hit triples (hits per query, doc ids, scores) of the same queries
    over disjoint doc sets → one triple holding each query's exact top-k
    of all its hits, in (score desc, doc id asc) order. One part is
    returned as it is."""
    if len(parts) == 1:
        return parts[0]
    lens = sum(p[0] for p in parts)
    qpos = np.concatenate([np.repeat(np.arange(lens.size), p[0])
                           for p in parts])
    order = np.argsort(qpos, kind="stable")
    docs = np.concatenate([p[1] for p in parts])[order]
    scores = np.concatenate([p[2] for p in parts])[order]
    ends = np.cumsum(lens)
    top = [_topk_exact(docs[lo:hi], scores[lo:hi], k)
           for lo, hi in zip(ends - lens, ends)]
    return (np.array([d.size for d, _ in top], np.int64),
            np.concatenate([NO_HITS[1], *(d for d, _ in top)]),
            np.concatenate([NO_HITS[2], *(s for _, s in top)]))


@ray.remote
class _SearcherActor:
    def __init__(self, index_dir: str, stage_kws: list[dict], scorer: str,
                 k: int, scorer_kw: dict):
        # one SearchStage per entry of stage_kws: the whole index
        # ({"preload_ref": ref} — nested, so Ray hands over the ref itself
        # and the stage ray.gets a zero-copy view) or one salt bucket
        # ({"salt": s}); bucket readers share one term → (df, cf) dict
        shared: dict = {}
        self.stages = [SearchStage(index_dir, scorer=scorer, k=k,
                                   global_stats=shared, **kw, **scorer_kw)
                       for kw in stage_kws]
        self.k = k

    def search(self, col: str, values: list
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One batch's term source (``term_source``) → (hits per query,
        doc ids, scores), merged over this actor's stages."""
        terms = self.stages[0].term_lists(col, values)
        if len(self.stages) == 1:
            return self.stages[0].search(terms)
        return merge_hits([s.search(terms) for s in self.stages], self.k)

    def ping(self) -> bool:
        return True


class SearcherPool:
    """Long-lived searcher actors over one index version.

    >>> pool = SearcherPool(idx, n_actors=8, scorer="bm25", k1=0.7, b=0.3)
    >>> run1 = pool.query(queries_tbl)      # pays warm-up once
    >>> run2 = pool.query(other_tbl)        # steady-state
    >>> pool.shutdown()

    ``n_actors`` is capped at what the cluster's CPU total holds at
    ``num_cpus`` each (at least one actor), and in doc-partitioned mode
    at the index's salt bucket count.
    """

    def __init__(self, index_dir: str, n_actors: int = 8,
                 scorer: str = "bm25", k: int = 1000, num_cpus: float = 1.0,
                 doc_partitioned: bool = False, **scorer_kw):
        total = ray.cluster_resources().get("CPU", 0)
        if num_cpus:
            n_actors = min(n_actors, int(total // num_cpus))
        n_actors = max(1, n_actors)
        self.k = k
        if doc_partitioned:
            n_salt = int(read_stats(index_dir).get("n_salt", 1))
            n_actors = min(n_actors, n_salt)
            stage_kws = [[{"salt": s} for s in range(i, n_salt, n_actors)]
                         for i in range(n_actors)]
        else:
            ref = ray.put(preload_tables(index_dir))
            self._preload_ref = ref    # keep alive for the pool's lifetime
            stage_kws = [[{"preload_ref": ref}]] * n_actors
        self.actors = [
            _SearcherActor.options(num_cpus=num_cpus).remote(
                index_dir, kws, scorer, k, scorer_kw)
            for kws in stage_kws]
        self._groups = ([self.actors] if doc_partitioned
                        else [[a] for a in self.actors])
        try:
            ray.get([a.ping.remote() for a in self.actors])   # fail fast
        except BaseException:
            self.shutdown()
            raise

    def query(self, queries: pa.Table, batch_size: int = 64,
              inflight_per_actor: int = 4) -> pa.Table:
        """(qid, text) table → run table (qid, doc_id, rank, score), rows
        grouped per query in submission order."""
        col, values = term_source(queries)
        groups = self._groups
        max_inflight = inflight_per_actor * len(groups)
        futs: list = []
        out: list = [NO_HITS]     # typed arrays for an empty query set too
        for bi, lo in enumerate(range(0, len(values), batch_size)):
            if len(futs) >= max_inflight:
                out.append(merge_hits(ray.get(futs.pop(0)), self.k))
            batch = values[lo:lo + batch_size]
            futs.append([a.search.remote(col, batch)
                         for a in groups[bi % len(groups)]])
        out.extend(merge_hits(ray.get(f), self.k) for f in futs)
        return run_table(queries["qid"].to_pylist(),
                         *map(np.concatenate, zip(*out)))

    def shutdown(self) -> None:
        """Kill the actors and wait until Ray reports them dead, so their
        CPUs are free when this returns: a task started right after would
        otherwise wait about a second for them on a one-CPU cluster."""
        for a in self.actors:
            ray.kill(a)
        for a in self.actors:
            try:
                ray.get(a.ping.remote())
            except ray.exceptions.RayActorError:
                pass
        self.actors = []
        self._groups = []


def _collect(queries_ds) -> pa.Table:
    """A query Dataset as one driver-side table (qid plus text or terms:
    small), read before any searcher takes a CPU."""
    tables = ray.get(queries_ds.to_arrow_refs())
    if not tables:      # a Dataset with no blocks: no queries, no schema
        return pa.table({"qid": pa.array([], pa.string()),
                         "text": pa.array([], pa.string())})
    return pa.concat_tables(tables, promote_options="default")


def _run_on_pool(queries: pa.Table, index_dir: str, batch_size: int = 64,
                 **pool_kw):
    """Answer ``queries`` on a pool opened for this call and shut down
    before it returns, also when a batch fails. The run Dataset has one
    block per ``batch_size`` queries with hits (a query's rows never
    straddle two blocks), so downstream stages keep their parallelism.
    ``from_blocks`` reads the blocks' metadata in the driver, where
    ``from_arrow`` starts a remote task per block for it (about 1 s on a
    one-CPU cluster, which must first start a worker)."""
    import ray.data as rd

    pool = SearcherPool(index_dir, **pool_kw)
    try:
        run = pool.query(queries, batch_size)
    finally:
        pool.shutdown()
    starts = np.flatnonzero(run["rank"].to_numpy() == 1)
    cuts = [0, *starts[batch_size::batch_size], run.num_rows]
    return rd.from_blocks([run.slice(lo, hi - lo)
                           for lo, hi in zip(cuts, cuts[1:])])


def retrieve(queries_ds, index_dir: str, *, scorer: str = "bm25",
             k: int = 1000, concurrency: int = 8, batch_size: int = 64,
             **scorer_kw):
    """queries (qid, text — or pre-analyzed ``terms``) → run dataset (qid,
    doc_id, rank, score), on a query-partitioned :class:`SearcherPool` of
    ``concurrency`` actors, no more than there are query batches."""
    queries = _collect(queries_ds)
    n_batches = -(-queries.num_rows // batch_size)
    return _run_on_pool(queries, index_dir, batch_size, scorer=scorer, k=k,
                        n_actors=max(1, min(concurrency, n_batches)),
                        **scorer_kw)


def retrieve_sharded(queries_ds, index_dir: str, *, scorer: str = "bm25",
                     k: int = 1000, concurrency: int = 8, **scorer_kw):
    """Doc-partitioned retrieval → run dataset (qid, doc_id, rank, score);
    identical results to :func:`retrieve` (test-enforced). Parallelism
    axis = doc shards: ``concurrency`` actors share the index's salt
    buckets; use the query-partitioned path when the index fits one
    node's memory."""
    return _run_on_pool(_collect(queries_ds), index_dir, scorer=scorer, k=k,
                        n_actors=concurrency, doc_partitioned=True,
                        **scorer_kw)

"""Persistent searcher pool — the query-SERVING topology.

:func:`~.searcher.retrieve` is the batch path: Ray Data actor pools are
per-execution, so every query SET re-pays pool spin-up (actor launch +
first-touch posting decode + contribution-cache warm). Right for
pipelines; wasteful for serving, where many query sets hit the same
index version. :class:`SearcherPool` holds LONG-LIVED Ray actors — the
prompt's sanctioned raw-actor case (shared read-only index state the
Dataset API can't keep alive across executions) — built once from a
single broadcast preload (one driver decode + one object-store copy;
actors map zero-copy plasma views). Every query set after the first
runs at steady-state throughput.

Results are bit-identical to ``retrieve`` on the same index/scorer
(test-enforced): the actors wrap the very same
:class:`~.searcher.SearchStage`.

Scale notes: the pool is query-partitioned (each actor holds the WHOLE
index) — the right topology while the per-actor footprint fits DRAM;
``search/sharded.py`` is the doc-partitioned path beyond that. Batches
round-robin across actors with at most ``inflight_per_actor``
outstanding calls so a giant query table cannot queue unbounded futures.
"""

from __future__ import annotations

import pyarrow as pa
import ray

from .searcher import RUN_SCHEMA, SearchStage, preload_tables


@ray.remote
class _SearcherActor:
    def __init__(self, index_dir: str, ref_box: list, scorer: str, k: int,
                 scorer_kw: dict):
        # ref arrives boxed in a list: Ray auto-dereferences TOP-LEVEL
        # ObjectRef arguments, but SearchStage wants the ref itself (it
        # ray.gets a zero-copy view once per actor)
        self.stage = SearchStage(index_dir, scorer=scorer, k=k,
                                 preload_ref=ref_box[0], **scorer_kw)

    def search(self, tbl: pa.Table) -> pa.Table:
        return self.stage(tbl)

    def ping(self) -> bool:
        return True


class SearcherPool:
    """Long-lived searcher actors over one index version.

    >>> pool = SearcherPool(idx, n_actors=8, scorer="bm25", k1=0.7, b=0.3)
    >>> run1 = pool.query(queries_tbl)      # pays warm-up once
    >>> run2 = pool.query(other_tbl)        # steady-state
    >>> pool.shutdown()
    """

    def __init__(self, index_dir: str, n_actors: int = 8,
                 scorer: str = "bm25", k: int = 1000, num_cpus: float = 1.0,
                 **scorer_kw):
        ref = ray.put(preload_tables(index_dir))
        self._preload_ref = ref        # keep alive for the pool's lifetime
        self.actors = [
            _SearcherActor.options(num_cpus=num_cpus).remote(
                index_dir, [ref], scorer, k, scorer_kw)
            for _ in range(n_actors)]
        ray.get([a.ping.remote() for a in self.actors])   # fail fast

    def query(self, queries: pa.Table, batch_size: int = 64,
              inflight_per_actor: int = 4) -> pa.Table:
        """(qid, text) table → run table (qid, doc_id, rank, score), rows
        grouped per query in submission order within each batch."""
        n = queries.num_rows
        max_inflight = inflight_per_actor * len(self.actors)
        futs: list = []
        out: list[pa.Table] = []
        for bi, lo in enumerate(range(0, n, batch_size)):
            if len(futs) >= max_inflight:
                out.append(ray.get(futs.pop(0)))
            actor = self.actors[bi % len(self.actors)]
            futs.append(actor.search.remote(
                queries.slice(lo, min(batch_size, n - lo))))
        out.extend(ray.get(futs))
        parts = [t for t in out if t.num_rows]
        if not parts:
            # typed empty result — same schema as retrieve(), so callers
            # treating the pool as a drop-in never hit a schema mismatch
            return RUN_SCHEMA.empty_table()
        return pa.concat_tables(parts)

    def shutdown(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []

"""Doc-partitioned sharded search — the multi-node scale path.

The per-actor footprint of :class:`search.searcher.SearchStage` grows with
the corpus (dense doc-length array + postings cache); past DRAM limits the
right topology is DOC partitioning: every node holds one doc range's
postings and answers every query over just that range, then a per-query
merge takes the global top-k.

The merge-free segment layout makes this free at the storage level: salt
runs are written ``segments/shard=S/salt=B/`` where ``salt = doc_id //
salt_docs_per_bucket`` — a doc shard IS a salt bucket, so a shard reader
reads only its ``salt=B`` directories (directory-level pruning), and in
them only the query terms' rows.

A doc shard is answered by the single-reader searcher itself: a
:class:`~.searcher.SearchStage` opened on one salt bucket. Its reader holds
the bucket's doc lengths and postings under bucket-local ids, and scores
with GLOBAL collection statistics — N/avgdl from stats.json, per-term
df/cf summed across salt runs with a term-filtered metadata read into a
cache shared by all of an actor's bucket readers (footprint O(query
terms), never the whole vocabulary). A document's score is a sum of
per-term contributions evaluated identically in every shard, so sharded
results are IDENTICAL to the single-reader path including tie-breaks
(test-enforced).

Dataflow::

    queries ──flat_map(replicate × shards)──groupby(salt)──map_groups(
        _ShardSearch: the salt's SearchStage, opened once per actor →
        per-shard top-k rows)
      ──groupby(qid)──map_groups(exact merge top-k)──► run

Shuffle inventory: one exchange of (query × shard) rows (tiny) and one of
per-shard top-k rows (≤ k rows per query per shard).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..index.manifest import read_stats
from .searcher import SearchStage, _topk_exact, actor_pool_kwargs


class _ShardSearch:
    """One group = (all queries, one doc shard), answered by that shard's
    :class:`SearchStage`, opened on the first group of its salt."""

    __name__ = "shard_search"

    def __init__(self, index_dir: str, k: int, scorer: str,
                 scorer_kw: dict):
        # one global-stats dict for every bucket reader of this actor
        self._kw = dict(index_dir=index_dir, k=k, scorer=scorer,
                        global_stats={}, **scorer_kw)
        self._stages: dict[int, SearchStage] = {}

    def __call__(self, g: pa.Table) -> pa.Table:
        salt = g["salt"][0].as_py()
        stage = self._stages.get(salt)
        if stage is None:
            stage = self._stages[salt] = SearchStage(salt=salt, **self._kw)
        return stage(g)


def _merge_topk(k: int):
    def merge(g: pd.DataFrame) -> pd.DataFrame:
        d, s = _topk_exact(g["doc_id"].to_numpy(np.int64),
                           g["score"].to_numpy(np.float64), k)
        return pd.DataFrame({
            "qid": str(g["qid"].iloc[0]),
            "doc_id": d,
            "rank": np.arange(1, d.size + 1, dtype=np.int32),
            "score": s})
    merge.__name__ = "merge_topk"
    return merge


def retrieve_sharded(queries_ds, index_dir: str, *, scorer: str = "bm25",
                     k: int = 1000, concurrency=(1, 8),
                     actor_num_cpus: float | None = None, **scorer_kw):
    """Doc-partitioned retrieval → run dataset (qid, doc_id, rank, score);
    identical results to :func:`search.searcher.retrieve` (test-enforced).
    Parallelism axis = doc shards (n_salt); use the query-partitioned path
    when the index fits one node's memory."""
    n_salt = int(read_stats(index_dir).get("n_salt", 1))

    def replicate(row: dict) -> list[dict]:
        return [{"qid": str(row["qid"]), "text": row["text"], "salt": s}
                for s in range(n_salt)]

    pool_kw, _ = actor_pool_kwargs(concurrency, actor_num_cpus)
    partial = queries_ds.flat_map(replicate).groupby("salt").map_groups(
        _ShardSearch, batch_format="pyarrow",
        fn_constructor_kwargs=dict(index_dir=index_dir,
                                   k=k, scorer=scorer, scorer_kw=scorer_kw),
        **pool_kw)
    return partial.groupby("qid").map_groups(_merge_topk(k),
                                             batch_format="pandas")

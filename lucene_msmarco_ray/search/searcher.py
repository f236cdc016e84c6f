"""Index reader + top-k scoring: the searcher every query path runs.

The reference opens one IndexSearcher shared by every operation (reference:
src/main/java/retrieval/OneStepRetriever.java:34-45). Our equivalent is
:class:`SearchStage`: the reader state (doc-length array, stats, term
cache), analyzer and scorer are built once, and :meth:`SearchStage.search`
scores a batch of queries. ``search/service.py``'s long-lived
``SearcherPool`` actors each hold one, and ``retrieve()`` and
``retrieve_sharded()`` run on that pool.

Scale model: queries are the distributed axis (each query is fully answered by
one actor — no per-query merge); term postings are fetched on demand
from the sharded segment parquet via predicate pushdown (only the query's
terms' rows are read) and cached per actor, or preloaded from one
object-store copy of the index. Heavy salted terms arrive as
multiple block-runs concatenated at read time (codec.concat_runs — zero
decode). The doc-length array is dense int32 indexed by doc id (dense ids via
sources.corpus); at multi-node scale this array is the only per-actor
footprint that grows with N (4 bytes/doc ⇒ 4 GB per 10^9 docs).

Beyond that, the same reader opens ONE salt bucket (``salt=B``): it reads
only that bucket's ``segments/shard=*/salt=B`` dirs and doc-length rows, with
doc ids local to the bucket, so its footprint is O(bucket docs); df/cf stay
global. A doc-partitioned ``SearcherPool`` holds one such
:class:`SearchStage` per bucket and merges the per-bucket top-k — the same
:func:`score_query_taat` scores both topologies.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..analysis import get_analyzer
from ..index.build import term_shard
from ..index.codec import TermPostings, concat_runs, decode_all, segment_runs
from ..index.manifest import Commit, pads_dirs
from .scoring import make_scorer

RUN_SCHEMA = pa.schema([
    ("qid", pa.string()),
    ("doc_id", pa.int64()),
    ("rank", pa.int32()),
    ("score", pa.float64()),
])


# (hits per query, doc ids, scores) of no queries: what
# SearchStage.search returns for an empty batch
NO_HITS = (np.empty(0, np.int64), np.empty(0, np.int64),
           np.empty(0, np.float64))


def term_source(batch: pa.Table) -> tuple[str, list]:
    """A query batch's term source as a plain list: its ``terms`` lists
    when the table has that column (pre-analyzed queries), else its
    ``text`` strings."""
    col = "terms" if "terms" in batch.column_names else "text"
    return col, batch[col].to_pylist()


def run_table(qids: list, lens: np.ndarray, doc_ids: np.ndarray,
              scores: np.ndarray) -> pa.Table:
    """The one builder of run tables: ``lens[i]`` rows of ``qids[i]``
    (stringified as ``str(qid)``), in order, ranked 1..lens[i]. The qid
    column repeats one index per query into the distinct qid strings, so
    no per-row Python string is made."""
    lens = np.asarray(lens, np.int64)
    names = pa.array([str(q) for q in qids], pa.string())
    qid_col = pa.DictionaryArray.from_arrays(
        np.repeat(np.arange(len(names), dtype=np.int32), lens),
        names).cast(pa.string())
    starts = np.repeat(np.cumsum(lens) - lens, lens)
    rank = np.arange(1, starts.size + 1) - starts
    return pa.Table.from_arrays([
        qid_col,
        pa.array(doc_ids, pa.int64()),
        pa.array(rank.astype(np.int32)),
        pa.array(scores, pa.float64()),
    ], schema=RUN_SCHEMA)


class IndexReader:
    def __init__(self, index_dir: str, preload: bool = False,
                 preload_ref=None, salt: int | None = None,
                 global_stats: dict | None = None):
        """``preload_ref``: an ``ray.put`` ObjectRef of
        ``preload_tables(index_dir)`` — every actor then builds its views
        over ONE shared plasma copy of the segment/meta tables (zero-copy
        Arrow buffers) instead of re-reading and re-decoding the parquet
        per actor. On a multi-node cluster this is the broadcast pattern:
        one object-store copy per node, not one decode per actor.
        ``preload=True`` reads the same tables in-process.

        ``salt``: read only that doc bucket — its ``segments/shard=*/salt=B``
        dirs and its doc-length rows — with doc ids local to the bucket
        (``doc_id - doc_base``). Scores still use GLOBAL statistics:
        :meth:`prefetch` fetches each term's summed df/cf into
        ``global_stats``, a term → (df, cf) dict that a caller holding
        several bucket readers shares between them (one metadata read per
        term, not one per bucket)."""
        # every read of the reader opens only what this commit lists, so
        # it sees one generation whatever a writer does meanwhile
        self.index_dir = index_dir
        self._commit = Commit(index_dir)
        self.stats = self._commit.stats
        self.num_docs = int(self.stats["num_docs"])
        self.avgdl = float(self.stats["avgdl"])
        self.total_len = int(self.stats["total_len"])
        self.num_shards = int(self.stats["num_shards"])
        self.salt = salt
        self.doc_base = 0
        if salt is not None:
            if preload or preload_ref is not None:
                raise ValueError("a salt-bucket reader fetches on demand; "
                                 "preload reads the whole index")
            self._bucket_docs = (int(self.stats.get("salt_docs_per_bucket", 0))
                                 or self.num_docs)
            self.doc_base = salt * self._bucket_docs
            self._global = {} if global_stats is None else global_stats
        seg_tbl = meta_tbl = None
        if preload_ref is not None:
            import ray
            seg_tbl, meta_tbl = ray.get(preload_ref)
        elif preload:
            seg_tbl, meta_tbl = _preload(self._commit)
        self._load_doc_lens(meta_tbl)
        self._cache: dict[str, TermPostings | None] = {}
        # per-(term, scorer) contribution cache: a term's per-posting score
        # is query-independent, so heavy terms are scored ONCE per actor;
        # bounded by bytes, hottest-first eviction (insertion-ordered)
        self._contrib: dict[tuple, tuple] = {}
        self._contrib_bytes = 0
        self._contrib_budget = 256 << 20
        self._preloaded = seg_tbl is not None
        if self._preloaded:
            self._rows_to_cache(seg_tbl)

    # --- doc lengths (dense array) ---
    def _load_doc_lens(self, t: pa.Table | None = None) -> None:
        if t is None:
            in_bucket = None
            if self.salt is not None:
                in_bucket = ((pc.field("doc_id") >= self.doc_base)
                             & (pc.field("doc_id")
                                < self.doc_base + self._bucket_docs))
            t = self._commit.doc_meta(in_bucket)
        ids = t["doc_id"].to_numpy(zero_copy_only=False) - self.doc_base
        dls = t["dl"].to_numpy(zero_copy_only=False)
        size = int(ids.max()) + 1 if len(ids) else 0
        self._dl = np.zeros(size, dtype=np.int32)
        self._dl[ids] = dls

    def doc_len(self, doc_ids: np.ndarray) -> np.ndarray:
        return self._dl[doc_ids]

    def _acc_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        if not hasattr(self, "_acc"):
            self._acc = np.zeros(self._dl.size, np.float64)
            self._match = np.zeros(self._dl.size, bool)
        return self._acc, self._match

    # --- term postings ---
    def _rows_to_cache(self, tbl: pa.Table) -> None:
        for term, runs in segment_runs(tbl).items():
            self._cache[term] = concat_runs(runs)

    def prefetch(self, terms: list[str]) -> None:
        """Batched fetch of missing terms: one term-filtered read over the
        committed segment files of the shards that hold them."""
        if self._preloaded:
            return
        missing = sorted({t for t in terms if t not in self._cache})
        if not missing:
            return
        if self.salt is not None:
            self._fetch_global_stats(missing)
        self._rows_to_cache(self._commit.read_segments(
            {term_shard(t, self.num_shards) for t in missing}, self.salt,
            filter=pc.field("term").isin(missing)))
        for t in missing:
            tp = self._cache.setdefault(t, None)  # None: df = 0 terms
            if tp is not None and self.salt is not None:
                tp.df, tp.cf = self._global[t]

    def _fetch_global_stats(self, terms: list[str]) -> None:
        """Summed (df, cf) of ``terms`` over every bucket into the shared
        ``global_stats``; (0, 0) marks a term no bucket holds, so sibling
        readers do not ask again."""
        todo = [t for t in terms if t not in self._global]
        if todo:
            t = self._commit.term_totals(todo)
            self._global.update(dict.fromkeys(todo, (0, 0)))
            self._global.update(zip(t["term"].to_pylist(), zip(
                t["df"].to_pylist(), t["cf"].to_pylist())))

    def get_term(self, term: str) -> TermPostings | None:
        if term not in self._cache:
            self.prefetch([term])
        return self._cache.get(term)

    def get_scored_postings(self, term: str, scorer):
        """(docs, per-posting score contributions) for one term under one
        scorer — cached: the contribution vector does not depend on the
        query, only on (term, scorer params)."""
        ck = getattr(scorer, "cache_key", None)
        key = (term, ck() if ck is not None else repr(scorer))
        hit = self._contrib.get(key)
        if hit is not None:
            return hit
        tp = self.get_term(term)
        if tp is None:
            return None
        docs, tfs = decode_all(tp)
        if self.doc_base:
            docs = docs - self.doc_base
        contrib = scorer.term_scores(
            tfs.astype(np.float64), self.doc_len(docs).astype(np.float64),
            tp.df, tp.cf, self.num_docs, self.avgdl, self.total_len)
        nbytes = docs.nbytes + contrib.nbytes
        while self._contrib and self._contrib_bytes + nbytes > self._contrib_budget:
            k, (d, c) = next(iter(self._contrib.items()))
            self._contrib_bytes -= d.nbytes + c.nbytes
            del self._contrib[k]
        self._contrib[key] = (docs, contrib)
        self._contrib_bytes += nbytes
        return docs, contrib

    def df(self, term: str) -> int:
        tp = self.get_term(term)
        return tp.df if tp else 0

    # --- forward index (per-doc term vectors) ---
    def term_vectors(self, doc_ids) -> dict[int, dict[str, int]]:
        """Per-doc term→tf maps for the given docs — replaces the reference's
        reader.getTermVector (SURVEY.md §1.1). Reads ONLY the doc-bucket
        partitions of the build-time forward index (``fwd/bucket=<doc//B>``)
        holding the requested ids, with a doc_id predicate for row-group
        pruning inside each bucket — cost is O(buckets touched), independent
        of corpus size."""
        ids = sorted(set(int(d) for d in doc_ids))
        if not ids:
            return {}
        bucket_docs = self.stats.get("fwd_bucket_docs")
        if not bucket_docs:
            raise RuntimeError(
                f"index {self.index_dir} has no forward index (its "
                "committed stats lack fwd_bucket_docs: built before the "
                "forward-index stage) — term-vector / feedback operators "
                "need one; rebuild the index")
        if not hasattr(self, "_fwd_dirs"):
            self._fwd_dirs = self._commit.fwd_bucket_dirs()
        dirs = [d for b in sorted({i // bucket_docs for i in ids})
                for d in self._fwd_dirs.get(b, ())]
        if not dirs:
            return {i: {} for i in ids}
        tbl = pads_dirs(dirs).to_table(
            columns=["term", "doc_id", "tf"],
            filter=pc.field("doc_id").isin(ids))
        out: dict[int, dict[str, int]] = {i: {} for i in ids}
        for term, doc, tf in zip(tbl["term"].to_pylist(),
                                 tbl["doc_id"].to_pylist(),
                                 tbl["tf"].to_pylist()):
            out[int(doc)][term] = int(tf)
        return out


def _topk_exact(doc_ids: np.ndarray, scores: np.ndarray, k: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k with (score desc, doc_id asc) tie-break — the Lucene
    ordering (SURVEY.md R1). Boundary ties resolved by doc id, not partition
    order, so results are deterministic at any parallelism."""
    n = scores.size
    if n == 0:
        return doc_ids[:0], scores[:0]
    if n > k:
        thresh = np.partition(scores, n - k)[n - k]
        sel = scores >= thresh
        doc_ids, scores = doc_ids[sel], scores[sel]
    order = np.lexsort((doc_ids, -scores))[:k]
    return doc_ids[order], scores[order]


_DENSE_ACC_LIMIT = 50_000_000   # dense accumulator cap: ~400 MB float64


def score_query_taat(reader: IndexReader, qterms: dict[str, float], k: int,
                     scorer) -> tuple[np.ndarray, np.ndarray]:
    """Term-at-a-time exhaustive scoring (vectorized numpy accumulation).
    The one path :class:`SearchStage` scores with, and the oracle for
    block-max WAND (``search/wand.py``). Dense doc-id
    accumulator (ids are dense, SURVEY.md I1) when the id space fits;
    sort-based merge beyond that."""
    N, avgdl, total_len = reader.num_docs, reader.avgdl, reader.total_len
    size = reader._dl.size
    dense = 0 < size <= _DENSE_ACC_LIMIT
    if dense:
        # reuse per-reader buffers: fresh np.zeros page-faults the whole
        # accumulator on every query (16 MB per 2M docs)
        acc, matched = reader._acc_buffers()
    parts_d, parts_s = [], []
    hit = False
    for term, boost in qterms.items():
        scored = reader.get_scored_postings(term, scorer)
        if scored is None:
            continue
        docs, base_contrib = scored
        contrib = base_contrib if boost == 1.0 else boost * base_contrib
        hit = True
        if dense:
            acc[docs] += contrib       # doc ids unique within one term
            matched[docs] = True
        else:
            parts_d.append(docs)
            parts_s.append(contrib)
    if not hit:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    if dense:
        cand = np.flatnonzero(matched)
        result = _topk_exact(cand, acc[cand], k)
        acc[cand] = 0.0          # reset only touched entries for the next query
        matched[cand] = False
        return result
    all_d = np.concatenate(parts_d)
    all_s = np.concatenate(parts_s)
    uniq, inv = np.unique(all_d, return_inverse=True)
    return _topk_exact(uniq, np.bincount(inv, weights=all_s), k)


def preload_tables(index_dir: str) -> tuple[pa.Table, pa.Table]:
    """Read the (segments, doc-meta) tables ONCE for object-store sharing
    across a searcher pool: ``ref = ray.put(preload_tables(idx))`` then
    ``IndexReader(idx, preload_ref=ref)`` per actor. Requires the
    index-fits-one-node preload mode (beyond that, a doc-partitioned
    ``SearcherPool`` runs one salt-bucket reader per doc shard)."""
    return _preload(Commit(index_dir))


def _preload(commit: Commit) -> tuple[pa.Table, pa.Table]:
    return (commit.read_segments().combine_chunks(),
            commit.doc_meta().combine_chunks())


class SearchStage:
    """One searcher: query batch (qid, text) → TREC-style run rows.

    The state a searcher actor holds (reader, analyzer, scorer) is built
    once in ``__init__`` (SURVEY.md T1). ``salt``/``global_stats`` open a
    one-bucket reader (see :class:`IndexReader`); the returned doc ids are
    global either way. :meth:`search` is the scoring core (term lists →
    numpy arrays), which ``SearcherPool``'s actors call
    (search/service.py); ``__call__`` wraps it in :func:`run_table` for an
    in-process run.
    """

    def __init__(self, index_dir: str, scorer: str = "bm25", k: int = 1000,
                 preload: bool = False, preload_ref=None,
                 salt: int | None = None, global_stats: dict | None = None,
                 **scorer_kw):
        self.reader = IndexReader(index_dir, preload=preload,
                                  preload_ref=preload_ref, salt=salt,
                                  global_stats=global_stats)
        st = self.reader.stats
        self.analyzer = get_analyzer(st["analyzer"], st.get("stopword_file"),
                                     st.get("normalize_numbers", True))
        self.scorer = make_scorer(scorer, **scorer_kw)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        return run_table(batch["qid"].to_pylist(),
                         *self.search(self.term_lists(*term_source(batch))))

    def term_lists(self, col: str, values: list) -> list[list[str]]:
        """A batch's term source (see :func:`term_source`) → one term list
        per query: ``terms`` pass through, ``text`` is analyzed."""
        return values if col == "terms" else [self.analyzer(t) for t in values]

    def search(self, term_lists: list[list[str]]
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Term lists → (hits per query int64, doc ids int64, scores
        float64): each query's hits in rank order, queries in input
        order."""
        self.reader.prefetch([t for ts in term_lists for t in ts])
        lens = np.zeros(len(term_lists), np.int64)
        out_doc, out_score = [NO_HITS[1]], [NO_HITS[2]]   # typed if empty
        for i, terms in enumerate(term_lists):
            # bag-of-terms query: duplicate terms score once per occurrence
            # (Lucene BooleanQuery of SHOULD TermQuery clauses — reference:
            # src/main/java/retrieval/MsMarcoQuery.java:74-83)
            qterms = {t: float(c) for t, c in Counter(terms).items()}
            docs, scores = score_query_taat(self.reader, qterms, self.k,
                                            self.scorer)
            if self.reader.doc_base:
                docs = docs + self.reader.doc_base
            lens[i] = docs.size
            out_doc.append(docs)
            out_score.append(scores)
        return lens, np.concatenate(out_doc), np.concatenate(out_score)

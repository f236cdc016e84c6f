"""Index reader + top-k retrieval.

The reference opens one IndexSearcher shared by every operation (reference:
src/main/java/retrieval/OneStepRetriever.java:34-45). Our equivalent
(SURVEY.md T1) is an actor-pool stage: :class:`SearchStage` is a callable
class used with ``map_batches(SearchStage, concurrency=N, batch_size=B)`` —
the reader state (doc-length array, stats, term cache) is built once per actor
in ``__init__``; each ``__call__`` scores a batch of queries.

Scale model: queries are the distributed axis (each query is fully answered by
one actor — no per-query merge shuffle); term postings are fetched on demand
from the sharded segment parquet via predicate pushdown (only the query's
terms' rows are read) and cached per actor. Heavy salted terms arrive as
multiple block-runs concatenated at read time (codec.concat_runs — zero
decode). The doc-length array is dense int32 indexed by doc id (dense ids via
sources.corpus); at multi-node scale this array is the only per-actor
footprint that grows with N (4 bytes/doc ⇒ 4 GB per 10^9 docs — sharded
doc-partitioned search is the documented path beyond that).
"""

from __future__ import annotations

import json
import os
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from ..analysis import get_analyzer
from ..index.build import pads_dirs, term_shard
from ..index.codec import TermPostings, concat_runs, decode_all
from .scoring import make_scorer

RUN_SCHEMA = pa.schema([
    ("qid", pa.string()),
    ("doc_id", pa.int64()),
    ("rank", pa.int32()),
    ("score", pa.float64()),
])


class IndexReader:
    def __init__(self, index_dir: str, preload: bool = False,
                 preload_ref=None):
        """``preload_ref``: an ``ray.put`` ObjectRef of
        ``preload_tables(index_dir)`` — every actor then builds its views
        over ONE shared plasma copy of the segment/meta tables (zero-copy
        Arrow buffers) instead of re-reading and re-decoding the parquet
        per actor. On a multi-node cluster this is the broadcast pattern:
        one object-store copy per node, not one decode per actor."""
        # a compaction that crashed between its two renames leaves only
        # segments.pre-compact; restore it on OPEN (not just on the next
        # compact) — otherwise the reader would silently serve an empty
        # index (the missing-segments fallback below exists for indexes
        # that legitimately have no postings yet)
        from ..index.compact import _recover_interrupted
        _recover_interrupted(index_dir)
        self.index_dir = index_dir
        with open(os.path.join(index_dir, "stats.json")) as f:
            self.stats = json.load(f)
        self.num_docs = int(self.stats["num_docs"])
        self.avgdl = float(self.stats["avgdl"])
        self.total_len = int(self.stats["total_len"])
        self.num_shards = int(self.stats["num_shards"])
        seg_tbl = meta_tbl = None
        if preload_ref is not None:
            import ray
            seg_tbl, meta_tbl = ray.get(preload_ref)
            preload = False
        self._load_doc_lens(meta_tbl)
        self._cache: dict[str, TermPostings | None] = {}
        self._decoded: dict[str, tuple] = {}
        self._decoded_cap = 1024
        # per-(term, scorer) contribution cache: a term's per-posting score
        # is query-independent, so heavy terms are scored ONCE per actor;
        # bounded by bytes, hottest-first eviction (insertion-ordered)
        self._contrib: dict[tuple, tuple] = {}
        self._contrib_bytes = 0
        self._contrib_budget = 256 << 20
        self._preloaded = False
        if preload:
            self._preload_all()
        elif seg_tbl is not None:
            self._rows_to_cache(seg_tbl)
            self._preloaded = True

    # --- doc lengths (dense array) ---
    def _load_doc_lens(self, t: pa.Table | None = None) -> None:
        if t is None:
            base = os.path.join(self.index_dir, "staged")
            meta_dirs = sorted(
                os.path.join(base, p, "kind=m") for p in os.listdir(base)
                if p.startswith("part="))
            t = pads_dirs(meta_dirs).to_table(columns=["doc_id", "dl"])
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
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
    def _shard_dir(self, shard: int) -> str:
        return os.path.join(self.index_dir, "segments", f"shard={shard}")

    def _rows_to_cache(self, tbl: pa.Table) -> None:
        """Columnar: flat numpy views over the Arrow buffers — one slice per
        row instead of per-row to_pylist dicts (the dict path measured 2x
        the whole preload cost on a salted 2M-doc index)."""
        if tbl.num_rows == 0:
            return
        tbl = tbl.combine_chunks()
        terms = tbl["term"].to_pylist()
        dfs = tbl["df"].to_numpy()
        cfs = tbl["cf"].to_numpy()

        def _bin_views(name: str):
            arr = tbl[name].chunk(0)
            off = arr.buffers()[1]
            offsets = np.frombuffer(off, dtype=np.int64,
                                    count=len(arr) + 1,
                                    offset=arr.offset * 8)
            data = memoryview(arr.buffers()[2])
            return offsets, data

        d_off, d_data = _bin_views("doc_bytes")
        t_off, t_data = _bin_views("tf_bytes")

        def _list_views(name: str, dtype):
            arr = tbl[name].chunk(0)
            offsets = arr.offsets.to_numpy()
            values = arr.values.to_numpy(zero_copy_only=False).astype(
                dtype, copy=False)
            return offsets, values

        lists = {n: _list_views(n, t) for n, t in (
            ("b_count", np.int32), ("b_first", np.int64),
            ("b_last", np.int64), ("b_max_tf", np.int32),
            ("b_min_dl", np.int32), ("b_doc_off", np.int64),
            ("b_tf_off", np.int64))}

        def _row_tp(i: int) -> TermPostings:
            kw = {}
            for n, (offs, vals) in lists.items():
                kw[n] = vals[offs[i]:offs[i + 1]]
            return TermPostings(
                df=int(dfs[i]), cf=int(cfs[i]),
                doc_bytes=d_data[d_off[i]:d_off[i + 1]],
                tf_bytes=t_data[t_off[i]:t_off[i + 1]], **kw)

        by_term: dict[str, list[TermPostings]] = {}
        for i, term in enumerate(terms):
            by_term.setdefault(term, []).append(_row_tp(i))
        for term, runs in by_term.items():
            self._cache[term] = concat_runs(runs)

    def _preload_all(self) -> None:
        seg = os.path.join(self.index_dir, "segments")
        if os.path.isdir(seg):
            self._rows_to_cache(pads.dataset(seg).to_table())
        self._preloaded = True

    def prefetch(self, terms: list[str]) -> None:
        """Batched fetch of missing terms, one filtered read per shard."""
        if self._preloaded:
            return
        missing = sorted({t for t in terms if t not in self._cache})
        if not missing:
            return
        by_shard: dict[int, list[str]] = {}
        for t in missing:
            by_shard.setdefault(term_shard(t, self.num_shards), []).append(t)
        for shard, ts in by_shard.items():
            d = self._shard_dir(shard)
            if os.path.isdir(d):
                tbl = pads.dataset(d).to_table(
                    filter=pc.field("term").isin(ts))
                self._rows_to_cache(tbl)
        for t in missing:
            self._cache.setdefault(t, None)  # df = 0 terms

    def get_term(self, term: str) -> TermPostings | None:
        if term not in self._cache:
            self.prefetch([term])
        return self._cache.get(term)

    def get_postings_arrays(self, term: str):
        """Decoded (docs, tfs) with a bounded per-reader cache — heavy terms
        recur across queries, so decode once per actor, not per query."""
        hit = self._decoded.get(term)
        if hit is not None:
            return hit
        tp = self.get_term(term)
        if tp is None:
            return None
        arrays = decode_all(tp)
        if len(self._decoded) >= self._decoded_cap:
            # drop ~half, oldest first (insertion-ordered dict)
            for k in list(self._decoded)[: self._decoded_cap // 2]:
                del self._decoded[k]
        self._decoded[term] = arrays
        return arrays

    def get_scored_postings(self, term: str, scorer):
        """(docs, per-posting score contributions) for one term under one
        scorer — cached: the contribution vector does not depend on the
        query, only on (term, scorer params)."""
        ck = getattr(scorer, "cache_key", None)
        key = (term, ck() if ck is not None else repr(scorer))
        hit = self._contrib.get(key)
        if hit is not None:
            return hit
        arrays = self.get_postings_arrays(term)
        if arrays is None:
            return None
        docs, tfs = arrays
        tp = self.get_term(term)
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
        of corpus size. Falls back to a staged-postings scan for indexes
        built before the fwd stage existed (legacy; full-scan cost)."""
        ids = sorted(set(int(d) for d in doc_ids))
        if not ids:
            return {}
        from ..index.build import fwd_bucket_dirs, pads_dirs
        bucket_docs = int(self.stats.get("fwd_bucket_docs", 0))
        if not hasattr(self, "_fwd_dirs"):
            self._fwd_dirs = fwd_bucket_dirs(self.index_dir) \
                if bucket_docs else {}
        if self._fwd_dirs:
            dirs = [d for b in sorted({i // bucket_docs for i in ids})
                    for d in self._fwd_dirs.get(b, ())]
            if not dirs:
                return {i: {} for i in ids}
        else:                                    # legacy pre-fwd index
            base = os.path.join(self.index_dir, "staged")
            dirs = sorted(os.path.join(base, p, "kind=p")
                          for p in os.listdir(base) if p.startswith("part="))
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
    index-fits-one-node preload mode (search/sharded.py is the
    doc-partitioned path beyond that)."""
    from ..index.compact import _recover_interrupted
    _recover_interrupted(index_dir)    # interrupted compaction → restore
    seg = os.path.join(index_dir, "segments")
    seg_tbl = (pads.dataset(seg).to_table() if os.path.isdir(seg)
               else pa.table({}))
    base = os.path.join(index_dir, "staged")
    meta_dirs = sorted(
        os.path.join(base, p, "kind=m") for p in os.listdir(base)
        if p.startswith("part="))
    meta_tbl = pads_dirs(meta_dirs).to_table(columns=["doc_id", "dl"])
    return seg_tbl.combine_chunks(), meta_tbl.combine_chunks()


class SearchStage:
    """Actor-pool stage: query batch (qid, text) → TREC-style run rows.

    Per-actor state (reader, analyzer, scorer) is built once in ``__init__``
    (SURVEY.md T1); use as
    ``queries.map_batches(SearchStage, fn_constructor_kwargs=..., concurrency=A)``.
    """

    def __init__(self, index_dir: str, scorer: str = "bm25", k: int = 1000,
                 preload: bool = False, preload_ref=None, **scorer_kw):
        self.reader = IndexReader(index_dir, preload=preload,
                                  preload_ref=preload_ref)
        st = self.reader.stats
        self.analyzer = get_analyzer(
            st["analyzer"], st.get("stopword_file"),
            st.get("normalize_numbers", True) if st["analyzer"] == "english" else False)
        self.scorer = make_scorer(scorer, **scorer_kw)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids = batch["qid"].to_pylist()
        if "terms" in batch.column_names:
            term_lists = batch["terms"].to_pylist()
        else:
            term_lists = [self.analyzer(t) for t in batch["text"].to_pylist()]
        self.reader.prefetch([t for ts in term_lists for t in ts])
        out_qid: list[str] = []
        out_doc, out_rank, out_score = [], [], []
        for qid, terms in zip(qids, term_lists):
            # bag-of-terms query: duplicate terms score once per occurrence
            # (Lucene BooleanQuery of SHOULD TermQuery clauses — reference:
            # src/main/java/retrieval/MsMarcoQuery.java:74-83)
            qterms = {t: float(c) for t, c in Counter(terms).items()}
            docs, scores = score_query_taat(self.reader, qterms, self.k,
                                            self.scorer)
            n = len(docs)
            out_qid.extend([str(qid)] * n)
            out_doc.append(docs)
            out_rank.append(np.arange(1, n + 1, dtype=np.int32))
            out_score.append(scores)
        return pa.Table.from_arrays([
            pa.array(out_qid, type=pa.string()),
            pa.array(np.concatenate(out_doc) if out_doc else np.empty(0, np.int64)),
            pa.array(np.concatenate(out_rank) if out_rank else np.empty(0, np.int32)),
            pa.array(np.concatenate(out_score) if out_score else np.empty(0, np.float64)),
        ], schema=RUN_SCHEMA)


def retrieve(queries_ds, index_dir: str, *, scorer: str = "bm25", k: int = 1000,
             concurrency: int | tuple[int, int] = (1, 8), batch_size: int = 64,
             preload: bool = False, actor_num_cpus: float | None = None,
             **scorer_kw):
    """queries (qid, text) → run dataset (qid, doc_id, rank, score).

    ``concurrency`` sizes the searcher actor pool (callable class ⇒ actors;
    an (min, max) tuple lets the pool autoscale with query volume).

    The query set is repartitioned so every actor gets work: query tables
    usually arrive as ONE block (from_arrow/from_items), and one block means
    one task on one actor regardless of pool size. 8 blocks per actor keeps
    the pool load-balanced (per-query cost varies ~2x with term weight)."""
    lo, hi = concurrency if isinstance(concurrency, tuple) \
        else (concurrency, concurrency)
    # A pool that starts with every CPU deadlocks: Ray Data waits for its
    # first actors before scheduling work, the actors hold every CPU, and
    # the upstream repartition can never produce a block (observed live,
    # not hypothetical). Such a pool becomes a fixed one that leaves one CPU
    # for producers; on a one-CPU cluster that leaves nothing, so the lone
    # actor reserves no CPU and shares the core with the producer tasks.
    try:
        import ray
        total = int(ray.cluster_resources().get("CPU", 0))
    except Exception:
        total = 0
    per_actor = actor_num_cpus or 1.0
    if total and lo * per_actor >= total:
        actor_num_cpus = min(per_actor, total - 1)
        hi = int((total - 1) / actor_num_cpus) if actor_num_cpus else 1
        concurrency = hi
    queries_ds = queries_ds.repartition(max(8 * hi, 8))
    preload_ref = None
    if preload and hi > 1:
        # one driver-side read + object-store broadcast instead of every
        # actor re-decoding the segment parquet (actors build zero-copy
        # views over the shared plasma buffers) — cuts pool spin-up from
        # O(actors x index decode) to O(1 decode + actor launch)
        import ray
        preload_ref = ray.put(preload_tables(index_dir))
        preload = False
    return queries_ds.map_batches(
        SearchStage,
        fn_constructor_kwargs=dict(index_dir=index_dir, scorer=scorer, k=k,
                                   preload=preload, preload_ref=preload_ref,
                                   **scorer_kw),
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency,
        **({} if actor_num_cpus is None else {"num_cpus": actor_num_cpus}))

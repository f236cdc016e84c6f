"""Block-max WAND early termination (Ding & Suel, SIGIR 2011) — the dynamic
pruning the reference gets from Lucene 8's BMW implementation (anchored by
pom.xml:21; similarity set at
src/main/java/stochastic_qpp/QPPOnPreRetrievedResults.java:78).

Exactness contract: returns the SAME top-k as exhaustive TAAT scoring with
the (score desc, doc_id asc) tie-break — verified in tests. Two details make
this hold:

* block upper bounds are mathematically ≥ any member score (tf-norm is
  increasing in tf, decreasing in dl; bounds use (max_tf, min_dl)); a 1e-12
  relative margin guards against float rounding inverting the inequality;
* a doc enters the heap only with score strictly greater than the incumbent
  threshold entry (score, -doc) — docs are visited in ascending id order, so
  equal-score later docs correctly lose the tie.

Blocks are decoded lazily — a skipped block's bytes are never touched.

Not on the serving path: :class:`~.searcher.SearchStage` scores every query
with vectorized TAAT, which is faster than this per-document loop at every
index size measured (BASELINE.md).
"""

from __future__ import annotations

import heapq

import numpy as np

from ..index.codec import TermPostings, decode_block

_MARGIN = 1.0 + 1e-12
_INF = np.iinfo(np.int64).max


class _Cursor:
    __slots__ = ("tp", "ub", "idf", "boost", "scorer_args", "block", "i",
                 "docs", "tfs", "doc", "nblocks", "block_ubs", "ord")

    def __init__(self, tp: TermPostings, boost: float, scorer, N: int,
                 avgdl: float, total_len: int):
        self.tp = tp
        self.nblocks = len(tp.b_count)
        self.block_ubs = boost * scorer.block_upper_bound(
            tp.b_max_tf.astype(np.float64), tp.b_min_dl.astype(np.float64),
            tp.df, tp.cf, N, avgdl, total_len) * _MARGIN
        self.ub = float(self.block_ubs.max())
        self.boost = boost
        self.block = -1
        self._load_block(0)

    def _load_block(self, b: int) -> None:
        if b >= self.nblocks:
            self.docs = None
            self.doc = _INF
            return
        self.block = b
        self.docs, self.tfs = decode_block(self.tp, b)
        self.i = 0
        self.doc = int(self.docs[0])

    def next(self) -> None:
        self.i += 1
        if self.i < len(self.docs):
            self.doc = int(self.docs[self.i])
        else:
            self._load_block(self.block + 1)

    def advance(self, target: int) -> None:
        """Move to first doc >= target (block skip via b_last, no decode of
        skipped blocks)."""
        if self.doc >= target:
            return
        if self.docs is not None and int(self.tp.b_last[self.block]) >= target:
            j = int(np.searchsorted(self.docs, target, side="left"))
            if j < len(self.docs):
                self.i = j
                self.doc = int(self.docs[j])
                return
        b = int(np.searchsorted(self.tp.b_last, target, side="left"))
        if b >= self.nblocks:
            self.docs = None
            self.doc = _INF
            return
        self._load_block(b)
        j = int(np.searchsorted(self.docs, target, side="left"))
        self.i = j
        self.doc = int(self.docs[j]) if j < len(self.docs) else _INF
        if j >= len(self.docs):  # target beyond this block's last (can't happen)
            self._load_block(b + 1)

    def block_ub(self) -> float:
        return float(self.block_ubs[self.block]) if self.docs is not None else 0.0

    def block_last(self) -> int:
        return int(self.tp.b_last[self.block]) if self.docs is not None else _INF

    def current_tf(self) -> int:
        return int(self.tfs[self.i])


def score_query_wand(reader, qterms: dict[str, float], k: int, scorer
                     ) -> tuple[np.ndarray, np.ndarray]:
    N, avgdl, total_len = reader.num_docs, reader.avgdl, reader.total_len
    cursors: list[_Cursor] = []
    for term, boost in qterms.items():
        tp = reader.get_term(term)
        if tp is not None:
            c = _Cursor(tp, boost, scorer, N, avgdl, total_len)
            c.ord = len(cursors)   # float summation order must match TAAT
            cursors.append(c)
    if not cursors:
        return np.empty(0, np.int64), np.empty(0, np.float64)

    heap: list[tuple[float, int]] = []   # (score, -doc) min-heap; weakest first
    theta = -np.inf

    def exact_score(doc: int) -> float:
        # sum in term (creation) order — bit-identical to the TAAT accumulator
        s = 0.0
        for c in sorted(cursors, key=lambda c: c.ord):
            if c.doc == doc:
                tf = np.float64(c.current_tf())
                dl = np.float64(reader.doc_len(np.array([doc]))[0])
                s += c.boost * float(scorer.term_scores(
                    tf, dl, c.tp.df, c.tp.cf, N, avgdl, total_len))
        return s

    while True:
        cursors.sort(key=lambda c: c.doc)
        # pivot: smallest prefix whose Σ ub can beat theta
        acc = 0.0
        pivot = -1
        for i, c in enumerate(cursors):
            if c.doc == _INF:
                break
            acc += c.ub
            if acc > theta or len(heap) < k:
                pivot = i
                break
        if pivot < 0:
            break
        pivot_doc = cursors[pivot].doc
        if pivot_doc == _INF:
            break
        for c in cursors[: pivot + 1]:
            c.advance(pivot_doc)  # position blocks for block-max check
        cursors.sort(key=lambda c: c.doc)
        if cursors[0].doc != pivot_doc:
            continue
        block_acc = sum(c.block_ub() for c in cursors
                        if c.doc <= pivot_doc and c.doc != _INF)
        if len(heap) >= k and block_acc <= theta:
            # skip past the earliest block boundary among the aligned cursors,
            # but never beyond the next non-aligned cursor's doc — that doc
            # may gain a contribution the block bound didn't include
            nxt = min(c.block_last() for c in cursors
                      if c.doc <= pivot_doc and c.doc != _INF) + 1
            rest = [c.doc for c in cursors
                    if pivot_doc < c.doc < _INF]
            if rest:
                nxt = min(nxt, min(rest))
            for c in cursors:
                if c.doc <= pivot_doc:
                    c.advance(max(nxt, pivot_doc + 1))
            continue
        s = exact_score(pivot_doc)
        entry = (s, -pivot_doc)
        if len(heap) < k:
            heapq.heappush(heap, entry)
            if len(heap) == k:
                theta = heap[0][0]
        elif entry > heap[0]:
            heapq.heapreplace(heap, entry)
            theta = heap[0][0]
        for c in cursors:
            if c.doc == pivot_doc:
                c.next()

    out = sorted(heap, key=lambda e: (-e[0], -e[1]))
    docs = np.array([-d for _, d in out], np.int64)
    scores = np.array([s for s, _ in out], np.float64)
    return docs, scores

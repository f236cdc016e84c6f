"""Independent correctness oracle.

Postings, document lengths and BM25 rankings are recomputed here from the
generated corpus with plain numpy. The library analyzer defines term
identity; everything after analysis (counting, encoding, scoring, top-k)
is recomputed without the program's code. The one assumption -- the
synthetic corpus is single-space separated tokens, so a document analyzes
to the concatenation of its tokens' analyses -- is checked per corpus on a
sample of whole documents.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

SCORE_RTOL = 1e-9


class Oracle:
    def __init__(self, contents: pa.ChunkedArray, analyzer):
        self.analyzer = analyzer
        n = len(contents)
        toks = pc.split_pattern(contents, " ")
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        enc = pc.dictionary_encode(pc.list_flatten(toks)).combine_chunks()
        raw = enc.dictionary.to_pylist()
        analyzed = [analyzer(t) for t in raw]
        if any(len(a) > 1 for a in analyzed):
            raise RuntimeError("corpus token analyzes to several terms; "
                               "the token-wise oracle does not apply")
        self.terms = sorted({a[0] for a in analyzed if a})
        code_of = {t: i for i, t in enumerate(self.terms)}
        tok_code = np.array([code_of[a[0]] if a else -1 for a in analyzed],
                            np.int64)
        # one raw spelling per term (the first in dictionary order)
        self.raw_form = [""] * len(self.terms)
        for t, a in zip(reversed(raw), reversed(analyzed)):
            if a:
                self.raw_form[code_of[a[0]]] = t
        occ_term = tok_code[enc.indices.to_numpy(zero_copy_only=False)]
        occ_doc = np.repeat(np.arange(n, dtype=np.int64), lens)
        keep = occ_term >= 0
        occ_term, occ_doc = occ_term[keep], occ_doc[keep]
        self.dl = np.bincount(occ_doc, minlength=n).astype(np.int64)
        keys, tf = np.unique(occ_term * n + occ_doc, return_counts=True)
        self.post_term = keys // n
        self.post_doc = keys % n
        self.post_tf = tf.astype(np.int64)
        self.term_start = np.searchsorted(
            self.post_term, np.arange(len(self.terms) + 1))
        self.code_of = code_of
        self._check_sample(contents)

    def _check_sample(self, contents: pa.ChunkedArray) -> None:
        n = len(contents)
        for d in np.linspace(0, n - 1, min(n, 64)).astype(np.int64):
            got = Counter(self.analyzer(contents[int(d)].as_py()))
            want = self.doc_terms(int(d))
            if got != want:
                raise RuntimeError(f"oracle analysis of doc {d} disagrees "
                                   "with the analyzer")

    def doc_terms(self, d: int) -> Counter:
        sel = self.post_doc == d
        return Counter({self.terms[t]: int(f) for t, f in
                        zip(self.post_term[sel], self.post_tf[sel])})

    def _postings(self, code: int, n_docs: int):
        lo, hi = self.term_start[code], self.term_start[code + 1]
        docs = self.post_doc[lo:hi]
        cut = int(np.searchsorted(docs, n_docs))
        return docs[:cut], self.post_tf[lo:lo + cut]

    def term_df_cf(self, n_docs: int) -> tuple[np.ndarray, np.ndarray]:
        live = self.post_doc < n_docs
        df = np.bincount(self.post_term[live], minlength=len(self.terms))
        cf = np.bincount(self.post_term[live], weights=self.post_tf[live],
                         minlength=len(self.terms))
        return df, cf

    # --- index check -------------------------------------------------
    def check_index(self, index_dir: str, n_docs: int) -> list[str]:
        """Compare an index's postings, document lengths and document stats
        with the recount over the first ``n_docs`` documents. Returns the
        list of mismatches (empty when the index is right)."""
        import json
        errs = []
        with open(os.path.join(index_dir, "stats.json")) as f:
            stats = json.load(f)
        dl = self.dl[:n_docs]
        if stats["num_docs"] != n_docs:
            errs.append(f"num_docs {stats['num_docs']} != {n_docs}")
        if stats["total_len"] != int(dl.sum()):
            errs.append(f"total_len {stats['total_len']} != {int(dl.sum())}")
        df, _ = self.term_df_cf(n_docs)
        if stats.get("num_terms") != int((df > 0).sum()):
            errs.append(f"num_terms {stats.get('num_terms')} != "
                        f"{int((df > 0).sum())}")
        staged = os.path.join(index_dir, "staged")
        meta = pads.dataset([
            pads.dataset(os.path.join(staged, p, "kind=m"))
            for p in sorted(os.listdir(staged)) if p.startswith("part=")
        ]).to_table(columns=["doc_id", "dl"])
        ids = meta["doc_id"].to_numpy()
        got_dl = np.full(n_docs, -1, np.int64)
        if len(ids) != n_docs or ids.min() < 0 or ids.max() >= n_docs:
            errs.append("document ids are not exactly [0, num_docs)")
        else:
            got_dl[ids] = meta["dl"].to_numpy()
            if not np.array_equal(got_dl, dl):
                errs.append("document lengths differ")
        seg = pads.dataset(os.path.join(index_dir, "segments")).to_table(
            columns=["term", "df", "cf", "doc_bytes", "tf_bytes", "b_count",
                     "b_first"])
        errs += self._check_postings(seg, n_docs)
        return errs

    def _check_postings(self, seg: pa.Table, n_docs: int) -> list[str]:
        seg = seg.combine_chunks()
        codes = np.array([self.code_of.get(t, -1)
                          for t in seg["term"].to_pylist()], np.int64)
        if (codes < 0).any():
            return ["index holds terms the corpus does not"]
        b_count = pc.list_flatten(seg["b_count"]).to_numpy().astype(np.int64)
        b_first = pc.list_flatten(seg["b_first"]).to_numpy().astype(np.int64)
        df = seg["df"].to_numpy()
        blocks = pc.list_value_length(seg["b_count"]).to_numpy()
        row_of_block = np.repeat(np.arange(len(df)), blocks)
        if not np.array_equal(np.bincount(row_of_block, weights=b_count,
                                          minlength=len(df)), df):
            return ["block counts do not add up to df"]
        deltas = _varbyte(_joined(seg["doc_bytes"]))
        tfs = _varbyte(_joined(seg["tf_bytes"]))
        n = int(b_count.sum())
        if deltas.size != n - b_count.size or tfs.size != n:
            return ["posting byte streams have the wrong length"]
        starts = np.r_[0, np.cumsum(b_count)[:-1]]
        arr = np.empty(n, np.int64)
        first = np.zeros(n, bool)
        first[starts] = True
        arr[first] = b_first
        arr[~first] = deltas
        c = np.cumsum(arr)
        docs = c - np.repeat(c[starts] - b_first, b_count)
        cf = np.add.reduceat(tfs, np.r_[0, np.cumsum(df)[:-1]]) \
            if len(df) else df
        if not np.array_equal(cf, seg["cf"].to_numpy()):
            return ["collection frequencies differ"]
        terms = np.repeat(codes, df)
        order = np.lexsort((docs, terms))
        live = self.post_doc < n_docs
        if not (np.array_equal(terms[order], self.post_term[live])
                and np.array_equal(docs[order], self.post_doc[live])):
            return ["postings (term, doc) pairs differ"]
        if not np.array_equal(tfs[order], self.post_tf[live]):
            return ["posting term frequencies differ"]
        return []

    # --- ranking check -----------------------------------------------
    def bm25_topk(self, text: str, n_docs: int, k: int, k1: float,
                  b: float) -> tuple[np.ndarray, np.ndarray]:
        """Exhaustive BM25 (Lucene 8 formula) over the first ``n_docs``
        documents: (doc ids, scores) in (score desc, doc asc) order, and
        the number of documents that matched any query term."""
        dl = self.dl[:n_docs].astype(np.float64)
        avgdl = int(self.dl[:n_docs].sum()) / n_docs
        acc = np.zeros(n_docs)
        matched = np.zeros(n_docs, bool)
        for term, cnt in Counter(self.analyzer(text)).items():
            code = self.code_of.get(term)
            if code is None:
                continue
            docs, tf = self._postings(code, n_docs)
            if docs.size == 0:
                continue
            dfv = np.float64(docs.size)
            idf = float(np.log(1.0 + (n_docs - dfv + 0.5) / (dfv + 0.5)))
            tf = tf.astype(np.float64)
            contrib = idf * (tf / (tf + k1 * (1.0 - b + b * dl[docs] / avgdl)))
            if cnt != 1:
                contrib = float(cnt) * contrib
            acc[docs] += contrib
            matched[docs] = True
        cand = np.flatnonzero(matched)
        order = np.lexsort((cand, -acc[cand]))[:k]
        return cand[order], acc[cand][order], cand.size


def ranking_errors(want: tuple[np.ndarray, np.ndarray], docs: np.ndarray,
                   scores: np.ndarray) -> str | None:
    """None when ``(docs, scores)`` equals the oracle's ranking: same doc
    ids in the same order, scores within SCORE_RTOL."""
    wd, ws = want[0], want[1]
    if len(docs) != len(wd):
        return f"{len(docs)} hits, oracle has {len(wd)}"
    if not np.array_equal(docs, wd):
        return "doc ids or their order differ"
    if not np.allclose(scores, ws, rtol=SCORE_RTOL, atol=0.0):
        return "scores differ"
    return None


def _joined(col: pa.ChunkedArray) -> np.ndarray:
    """All values of a binary column, concatenated, as one byte array."""
    arr = col.combine_chunks()
    offsets = np.frombuffer(arr.buffers()[1], np.int64, len(arr) + 1,
                            arr.offset * 8)
    data = np.frombuffer(arr.buffers()[2], np.uint8)
    return data[offsets[0]:offsets[-1]]


def _varbyte(b: np.ndarray) -> np.ndarray:
    """Little-endian 7-bit groups; a set high bit means more bytes follow."""
    if b.size == 0:
        return np.empty(0, np.int64)
    end = b < 128
    vid = np.r_[0, np.cumsum(end)[:-1]]
    starts = np.flatnonzero(np.r_[True, end[:-1]])
    shift = (np.arange(b.size) - starts[vid]) * 7
    vals = (b & 0x7F).astype(np.int64) << shift
    return np.add.reduceat(vals, starts)

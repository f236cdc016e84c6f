"""Posting-list codec: block-local delta-gap + variable-byte compression with
per-block block-max metadata.

The reference delegates all of this to Lucene's internal postings format
(reference: src/main/java/indexing/MsMarcoIndexer.java:83 — addDocument is
where control crosses into Lucene). Per the north rule we build it explicitly.

Layout — postings are split into blocks of ≤ ``block_size`` docs; each block is
**self-contained**: its first doc id lives in metadata (``b_first``) and the
byte stream holds only the ``count-1`` in-block deltas (varbyte). Consequences:

* merging two salt-bucket runs of one term (disjoint, ordered doc ranges —
  SURVEY.md I6 stage 2) is a pure metadata/bytes concatenation, no decode;
* block-max WAND can skip a block without touching its bytes, using
  ``(b_last, b_max_tf, b_min_dl)`` — BM25's tf-norm is increasing in tf and
  decreasing in doc length, so (max_tf, min_dl) upper-bounds the block for ANY
  (k1, b), the same trick as Lucene 8's (tf, norm) impact pairs
  (Ding & Suel, "Faster top-k document retrieval using block-max indexes",
  SIGIR 2011).

Varbyte: little-endian 7-bit groups; high bit set ⇒ more bytes follow.
Everything is numpy-vectorized; no Python loop over postings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa


def varbyte_encode(values: np.ndarray) -> bytes:
    """Vectorized varbyte encode of a non-negative int64 array."""
    return _varbyte(values)[0]


def _varbyte(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Varbyte stream of ``values`` and each value's byte count."""
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return b"", np.zeros(0, dtype=np.int64)
    # 7-bit groups needed per value (min 1)
    ngroups = np.zeros(v.shape, dtype=np.int64)
    tmp = v.copy()
    while True:
        nz = tmp > 0
        if not nz.any():
            break
        ngroups[nz] += 1
        tmp >>= np.uint64(7)
    nbytes = np.maximum(ngroups, 1)
    offsets = np.concatenate(([0], np.cumsum(nbytes)[:-1]))
    out = np.zeros(int(nbytes.sum()), dtype=np.uint8)
    for k in range(int(nbytes.max())):
        sel = nbytes > k
        byte = (v[sel] >> np.uint64(7 * k)) & np.uint64(0x7F)
        cont = (nbytes[sel] - 1) > k
        out[offsets[sel] + k] = byte.astype(np.uint8) | (cont.astype(np.uint8) << 7)
    return out.tobytes(), nbytes


def varbyte_decode(buf: bytes | np.ndarray, count: int | None = None) -> np.ndarray:
    """Vectorized varbyte decode → int64 array."""
    b = np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else buf
    if b.size == 0:
        return np.empty(0, dtype=np.int64)
    terminal = b < 128
    nvals = int(terminal.sum())
    if nvals == 0 or not terminal[-1]:
        raise ValueError("truncated varbyte stream (no terminal byte at end)")
    # value index per byte, position of byte within its value
    vidx = np.concatenate(([0], np.cumsum(terminal)[:-1].astype(np.int64)))
    starts = np.flatnonzero(np.concatenate(([True], terminal[:-1])))
    pos = np.arange(b.size, dtype=np.int64) - starts[vidx]
    out = np.zeros(nvals, dtype=np.uint64)
    np.bitwise_or.at(out, vidx,
                     (b & np.uint8(0x7F)).astype(np.uint64) << (7 * pos).astype(np.uint64))
    res = out.astype(np.int64)
    if count is not None and res.size != count:
        raise ValueError(f"decoded {res.size} values, expected {count}")
    return res


@dataclass
class TermPostings:
    """One term's encoded postings (possibly the concat of several salt runs)."""
    df: int
    cf: int
    doc_bytes: bytes              # concat of per-block delta streams
    tf_bytes: bytes               # concat of per-block tf streams
    b_count: np.ndarray           # int32  docs per block
    b_first: np.ndarray           # int64  first doc id per block
    b_last: np.ndarray           # int64  last doc id per block
    b_max_tf: np.ndarray          # int32  max tf per block
    b_min_dl: np.ndarray          # int32  min doc length per block
    b_doc_off: np.ndarray         # int64  byte offset of block in doc_bytes
    b_tf_off: np.ndarray          # int64  byte offset of block in tf_bytes


def encode_term_postings(doc_ids: np.ndarray, tfs: np.ndarray, doc_lens: np.ndarray,
                         block_size: int = 128) -> TermPostings:
    """Encode one term's postings (inputs sorted here by doc id)."""
    order = np.argsort(doc_ids, kind="stable")
    d = np.asarray(doc_ids, dtype=np.int64)[order]
    t = np.asarray(tfs, dtype=np.int64)[order]
    dl = np.asarray(doc_lens, dtype=np.int64)[order]
    n = d.size
    if n == 0:
        raise ValueError("empty postings")
    if n > 1 and (d[1:] <= d[:-1]).any():
        raise ValueError("duplicate doc id in postings for one term")

    starts = np.arange(0, n, block_size, dtype=np.int64)
    ends = np.minimum(starts + block_size, n)
    counts = (ends - starts).astype(np.int32)
    firsts = d[starts]
    lasts = d[ends - 1]
    max_tf = np.maximum.reduceat(t, starts).astype(np.int32)
    min_dl = np.minimum.reduceat(dl, starts).astype(np.int32)

    # in-block deltas: drop each block's first element from the delta stream
    deltas_all = np.empty(n, dtype=np.int64)
    deltas_all[0] = 0
    np.subtract(d[1:], d[:-1], out=deltas_all[1:])
    keep = np.ones(n, dtype=bool)
    keep[starts] = False
    deltas = deltas_all[keep]          # length n - nblocks

    # per-block byte offsets: encode per block? no — encode whole streams,
    # then compute offsets from per-value byte lengths (vectorized).
    doc_bytes, d_lens = _varbyte(deltas)
    tf_bytes, t_lens = _varbyte(t)
    # delta-count per block = count - 1
    dcounts = counts.astype(np.int64) - 1
    d_cum = np.concatenate(([0], np.cumsum(d_lens)))
    t_cum = np.concatenate(([0], np.cumsum(t_lens)))
    d_start_idx = np.concatenate(([0], np.cumsum(dcounts)[:-1]))
    b_doc_off = d_cum[d_start_idx]
    b_tf_off = t_cum[starts]

    return TermPostings(
        df=int(n), cf=int(t.sum()),
        doc_bytes=doc_bytes, tf_bytes=tf_bytes,
        b_count=counts, b_first=firsts.astype(np.int64), b_last=lasts.astype(np.int64),
        b_max_tf=max_tf, b_min_dl=min_dl,
        b_doc_off=b_doc_off.astype(np.int64), b_tf_off=b_tf_off.astype(np.int64),
    )


def encode_group_postings(codes: np.ndarray, doc: np.ndarray, tf: np.ndarray,
                          dl: np.ndarray, block_size: int = 128) -> dict:
    """Vectorized encode of MANY terms' postings in one pass.

    Inputs are the whole (shard, salt) group sorted by (term code, doc id)
    — ``codes`` is the dense factorized term id, contiguous runs. Produces
    byte-identical output to calling :func:`encode_term_postings` per term
    (tested), but with no Python loop over terms: block structure, deltas,
    varbyte streams and all offsets are computed over the flat arrays, and
    the per-term binary columns are ZERO-COPY slices (offset arrays) into
    the two group-level byte streams.

    Returns a dict of flat numpy arrays + the two byte streams, consumed by
    :func:`group_segment_table`.
    """
    n = codes.size
    if n == 0:
        raise ValueError("empty group")
    doc = np.asarray(doc, np.int64)
    tf = np.asarray(tf, np.int64)
    dl = np.asarray(dl, np.int64)
    same = codes[1:] == codes[:-1]
    if same.size and not (doc[1:][same] > doc[:-1][same]).all():
        raise ValueError("duplicate doc id in postings for one term")

    term_starts = np.flatnonzero(np.concatenate(([True], ~same)))
    term_sizes = np.diff(np.concatenate((term_starts, [n])))
    n_terms = term_starts.size

    # block starts: every block_size-th posting WITHIN a term
    pos_in_term = np.arange(n, dtype=np.int64) \
        - np.repeat(term_starts, term_sizes)
    is_start = (pos_in_term % block_size) == 0
    starts = np.flatnonzero(is_start)
    counts = np.diff(np.concatenate((starts, [n])))
    blocks_per_term = np.add.reduceat(is_start.astype(np.int64), term_starts)

    firsts = doc[starts]
    lasts = doc[starts + counts - 1]
    max_tf = np.maximum.reduceat(tf, starts).astype(np.int32)
    min_dl = np.minimum.reduceat(dl, starts).astype(np.int32)

    # delta stream: doc gaps everywhere except block starts
    deltas_all = np.empty(n, np.int64)
    deltas_all[0] = 0
    np.subtract(doc[1:], doc[:-1], out=deltas_all[1:])
    keep = ~is_start
    deltas = deltas_all[keep]

    doc_bytes, d_lens = _varbyte(deltas)
    tf_bytes, t_lens = _varbyte(tf)
    d_cum = np.concatenate(([0], np.cumsum(d_lens)))
    t_cum = np.concatenate(([0], np.cumsum(t_lens)))

    # global delta index of each block's first delta; byte offsets from it
    dcounts = counts - 1
    d_start_idx = np.concatenate(([0], np.cumsum(dcounts)[:-1]))
    blk_doc_off = d_cum[d_start_idx]
    blk_tf_off = t_cum[starts]

    # per-term byte ranges (for the zero-copy binary slices) and
    # term-relative block offsets
    term_first_blk = np.concatenate(([0], np.cumsum(blocks_per_term)[:-1]))
    term_doc_byte0 = blk_doc_off[term_first_blk]
    term_tf_byte0 = blk_tf_off[term_first_blk]
    rel_doc_off = blk_doc_off - np.repeat(term_doc_byte0, blocks_per_term)
    rel_tf_off = blk_tf_off - np.repeat(term_tf_byte0, blocks_per_term)

    return {
        "term_starts": term_starts, "term_sizes": term_sizes,
        "n_terms": n_terms,
        "df": term_sizes.astype(np.int64),
        "cf": np.add.reduceat(tf, term_starts).astype(np.int64),
        "doc_bytes": doc_bytes, "tf_bytes": tf_bytes,
        "doc_byte_offsets": np.concatenate((term_doc_byte0,
                                            [d_cum[-1]])).astype(np.int64),
        "tf_byte_offsets": np.concatenate((term_tf_byte0,
                                           [t_cum[-1]])).astype(np.int64),
        "blocks_per_term": blocks_per_term.astype(np.int64),
        "b_count": counts.astype(np.int32),
        "b_first": firsts.astype(np.int64),
        "b_last": lasts.astype(np.int64),
        "b_max_tf": max_tf, "b_min_dl": min_dl,
        "b_doc_off": rel_doc_off.astype(np.int64),
        "b_tf_off": rel_tf_off.astype(np.int64),
    }


def concat_runs(runs: list[TermPostings]) -> TermPostings:
    """Concatenate salt-bucket runs of ONE term with disjoint, ordered doc-id
    ranges. Pure metadata + bytes concat — no decode (SURVEY.md I6 stage 2)."""
    runs = sorted(runs, key=lambda r: int(r.b_first[0]))
    for a, b in zip(runs, runs[1:]):
        if int(b.b_first[0]) <= int(a.b_last[-1]):
            raise ValueError("salt-bucket doc ranges overlap")
    if len(runs) == 1:
        return runs[0]
    doc_bytes = b"".join(r.doc_bytes for r in runs)
    tf_bytes = b"".join(r.tf_bytes for r in runs)
    d_off, t_off, parts_d, parts_t = 0, 0, [], []
    for r in runs:
        parts_d.append(r.b_doc_off + d_off)
        parts_t.append(r.b_tf_off + t_off)
        d_off += len(r.doc_bytes)
        t_off += len(r.tf_bytes)
    return TermPostings(
        df=sum(r.df for r in runs), cf=sum(r.cf for r in runs),
        doc_bytes=doc_bytes, tf_bytes=tf_bytes,
        b_count=np.concatenate([r.b_count for r in runs]),
        b_first=np.concatenate([r.b_first for r in runs]),
        b_last=np.concatenate([r.b_last for r in runs]),
        b_max_tf=np.concatenate([r.b_max_tf for r in runs]),
        b_min_dl=np.concatenate([r.b_min_dl for r in runs]),
        b_doc_off=np.concatenate(parts_d),
        b_tf_off=np.concatenate(parts_t),
    )


def segment_runs(tbl: pa.Table) -> dict[str, list[TermPostings]]:
    """Segment rows → term → its posting runs, in row order. Columnar:
    flat numpy views over the Arrow buffers, one slice per row instead of
    per-row ``to_pylist`` dicts (the dict path measured 2x the whole
    preload cost on a salted 2M-doc index). The one decoder of the
    segment-row format; the reader and compaction both call it."""
    if tbl.num_rows == 0:
        return {}
    tbl = tbl.combine_chunks()
    terms = tbl["term"].to_pylist()
    dfs = tbl["df"].to_numpy()
    cfs = tbl["cf"].to_numpy()

    def _bin_views(name: str):
        arr = tbl[name].chunk(0)
        off = arr.buffers()[1]
        offsets = np.frombuffer(off, dtype=np.int64, count=len(arr) + 1,
                                offset=arr.offset * 8)
        return offsets, memoryview(arr.buffers()[2])

    d_off, d_data = _bin_views("doc_bytes")
    t_off, t_data = _bin_views("tf_bytes")

    def _list_views(name: str, dtype):
        arr = tbl[name].chunk(0)
        values = arr.values.to_numpy(zero_copy_only=False).astype(
            dtype, copy=False)
        return arr.offsets.to_numpy(), values

    lists = {n: _list_views(n, t) for n, t in (
        ("b_count", np.int32), ("b_first", np.int64),
        ("b_last", np.int64), ("b_max_tf", np.int32),
        ("b_min_dl", np.int32), ("b_doc_off", np.int64),
        ("b_tf_off", np.int64))}

    by_term: dict[str, list[TermPostings]] = {}
    for i, term in enumerate(terms):
        by_term.setdefault(term, []).append(TermPostings(
            df=int(dfs[i]), cf=int(cfs[i]),
            doc_bytes=d_data[d_off[i]:d_off[i + 1]],
            tf_bytes=t_data[t_off[i]:t_off[i + 1]],
            **{n: vals[offs[i]:offs[i + 1]]
               for n, (offs, vals) in lists.items()}))
    return by_term


def decode_all(tp: TermPostings) -> tuple[np.ndarray, np.ndarray]:
    """Decode every block → (doc_ids ascending within each run, tfs)."""
    counts = tp.b_count.astype(np.int64)
    n = int(counts.sum())
    deltas = varbyte_decode(tp.doc_bytes, n - counts.size) if n > counts.size \
        else np.empty(0, dtype=np.int64)
    tfs = varbyte_decode(tp.tf_bytes, n)
    # rebuild: arr holds first_doc at block starts, deltas elsewhere;
    # docs = cumsum(arr) - repeat(cumsum_at_starts - firsts)
    arr = np.empty(n, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    mask = np.ones(n, dtype=bool)
    mask[starts] = False
    arr[starts] = tp.b_first
    arr[mask] = deltas
    c = np.cumsum(arr)
    docs = c - np.repeat(c[starts] - tp.b_first, counts)
    return docs, tfs


def decode_block(tp: TermPostings, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode a single block (block-max WAND skip path)."""
    cnt = int(tp.b_count[i])
    d0 = int(tp.b_doc_off[i])
    d1 = int(tp.b_doc_off[i + 1]) if i + 1 < len(tp.b_doc_off) else len(tp.doc_bytes)
    t0 = int(tp.b_tf_off[i])
    t1 = int(tp.b_tf_off[i + 1]) if i + 1 < len(tp.b_tf_off) else len(tp.tf_bytes)
    deltas = varbyte_decode(tp.doc_bytes[d0:d1], cnt - 1) if cnt > 1 \
        else np.empty(0, dtype=np.int64)
    tfs = varbyte_decode(tp.tf_bytes[t0:t1], cnt)
    docs = int(tp.b_first[i]) + np.concatenate(([0], np.cumsum(deltas)))
    return docs, tfs

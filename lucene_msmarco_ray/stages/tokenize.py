"""Tokenize stage: corpus batches → postings rows + doc-meta rows.

The reference's equivalent is the per-line loop feeding Lucene
(reference: src/main/java/indexing/MsMarcoIndexer.java:67-90, with the
analysis chain at :25-46,112-135). Here it is a single ``map_batches``
stage over Arrow batches that emits BOTH row kinds in one pass (kind="p"
postings, kind="m" doc metadata), so the corpus is tokenized exactly once and
the staged output can be split by a partitioned Parquet write
(``partition_cols=["kind"]``) without a second scan.

The per-row sha256 of ``content`` is the lineage invariant demanded by
BASELINE.json's input_hint ("per-row invariant vs the reference: content
sha256 equality"); per-partition lineage is derived from these row hashes in
``index.manifest``.

Stateful setup (analyzer: stop set, stem cache, compiled regexes) happens once
per worker via the callable-class pattern; work happens per batch in
``__call__`` (SURVEY.md T6). Python touches the batch's vocabulary, not each
token: the batch's text bytes are split in numpy at the analyzer's neutral
separators (``analysis.analyzer``), the analyzer runs once per distinct
piece (cached across batches as int term codes), and the (doc, term) counts,
doc lengths and crc32 shards are array operations over those codes.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from zlib import crc32

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..analysis import get_analyzer
from ..config import EngineConfig

POSTINGS_KIND = "p"
META_KIND = "m"
FWD_KIND = "f"      # forward-index copy: same rows, doc-bucket partitioned
LINEAGE_KIND = "l"  # one summary row per tokenize batch: sha256 = XOR of the
                    # batch's per-row content hashes (hex), doc_id = Σ dl,
                    # tf = n_docs — the build's lineage/stats pass reads ONLY
                    # these tiny rows, never re-scanning kind=m

STAGED_SCHEMA = pa.schema([
    ("kind", pa.string()),
    ("gkey", pa.int64()),             # shard*2^20 + salt; -1 for meta rows
    ("term", pa.string()),
    ("doc_id", pa.int64()),
    ("tf", pa.int32()),
    ("dl", pa.int32()),
    ("doc_key", pa.string()),
    ("sha256", pa.string()),
])

GKEY_SALT_SPAN = 1 << 20   # salts per shard in the gkey encoding


class TokenizeStage:
    """corpus batch (pyarrow) → staged table of postings + meta rows.

    Each posting row carries ``gkey = shard(term) * 2^20 + salt(doc_id)`` so
    the staged Parquet write (``partition_cols=["kind", "gkey"]``) doubles as
    the shuffle: the posting-merge stage just reads each gkey directory —
    no all-to-all operator (whose wall time proved 2x-variable at this
    sandbox's scale; the partitioned write is deterministic and resumable).

    The same write also emits a FORWARD-INDEX copy of the postings rows
    (kind="f", ``gkey = doc_id // fwd_docs_per_bucket``) — doc-bucket
    partitioned term vectors for the feedback/QPP family, produced in the
    SAME tokenize pass and partitioned write (no second scan over the
    corpus or the postings; measured ~25% cheaper than a separate fwd
    stage at sf0.001)."""

    def __init__(self, cfg: EngineConfig, text_col: str = "text",
                 id_col: str = "doc_id", key_col: str | None = None) -> None:
        self.analyzer = get_analyzer(cfg.analyzer, cfg.stopword_file,
                                     cfg.normalize_numbers)
        # read here, not per batch: a traced run swaps ``self.analyzer`` for
        # a plain function after __init__, and __call__ only ever calls it
        self._in_piece = np.ones(256, bool)     # by UTF-8 byte
        self._in_piece[[ord(c) for c in self.analyzer.separators]] = False
        self.text_col = text_col
        self.id_col = id_col
        self.key_col = key_col
        self.num_shards = cfg.num_shards
        self.salt_bucket = cfg.salt_docs_per_bucket
        self.fwd_bucket = cfg.fwd_docs_per_bucket
        self.emit_fwd = cfg.emit_fwd
        # analysis results cached across batches as int term codes; code 0
        # is "", the term column's value on meta and lineage rows
        self._piece_codes: dict[str, tuple[int, ...]] = {}
        self._term_code = {"": 0}
        self._terms = pa.array([""], pa.string())
        self._shards = np.zeros(1, np.int64)   # crc32 shard per term code

    def _analyze_pieces(self, pieces: list[str]) -> list[tuple[int, ...]]:
        """Term codes of each piece; analyzes only pieces never seen before
        and gives each new term a code and its crc32 shard."""
        cache, term_code = self._piece_codes, self._term_code
        new: list[str] = []
        out = []
        for piece in pieces:
            codes = cache.get(piece)
            if codes is None:
                codes = []
                for t in self.analyzer(piece):
                    c = term_code.get(t)
                    if c is None:
                        c = term_code[t] = len(term_code)
                        new.append(t)
                    codes.append(c)
                codes = cache[piece] = tuple(codes)
            out.append(codes)
        if new:
            self._terms = pa.concat_arrays([self._terms,
                                            pa.array(new, pa.string())])
            self._shards = np.append(self._shards, np.array(
                [crc32(t.encode("utf-8")) for t in new]) % self.num_shards)
        return out

    def _split(self, raw: np.ndarray, starts: np.ndarray
               ) -> tuple[pa.Array, np.ndarray]:
        """Split UTF-8 bytes ``raw`` (docs beginning at byte ``starts``) at
        the separator bytes: the non-empty pieces, and each one's doc.
        Separators are ASCII, and an ASCII byte is never part of a
        multi-byte UTF-8 char, so every piece is valid UTF-8."""
        keep = self._in_piece.take(raw)
        edges = np.flatnonzero(np.diff(keep, prepend=False, append=False))
        begin, end = edges[0::2], edges[1::2]
        # a run of kept bytes across a doc boundary is two pieces
        cut = np.unique(starts[(starts > 0) & (starts < len(raw))])
        cut = cut[keep[cut] & keep[cut - 1]]
        begin = np.insert(begin, np.searchsorted(begin, cut), cut)
        end = np.insert(end, np.searchsorted(end, cut), cut)
        offsets = np.zeros(len(begin) + 1, np.int64)
        np.cumsum(end - begin, out=offsets[1:])
        pieces = pa.Array.from_buffers(
            pa.large_string(), len(begin),
            [None, pa.py_buffer(offsets), pa.py_buffer(raw[keep])])
        per_doc = np.diff(np.searchsorted(begin, starts), append=len(begin))
        return pieces, np.repeat(np.arange(len(starts)), per_doc)

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch[self.text_col].combine_chunks().cast(pa.large_string())
        if text.null_count:
            raise ValueError(f"column {self.text_col!r} has null texts")
        ids = batch[self.id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keys = (batch[self.key_col] if self.key_col
                else batch[self.id_col]).combine_chunks().cast(pa.string())
        n_docs = len(text)
        _, offs_buf, data_buf = text.buffers()
        offs = np.frombuffer(offs_buf, np.int64)[
            text.offset:text.offset + n_docs + 1]
        raw = (np.frombuffer(data_buf, np.uint8)[offs[0]:offs[-1]]
               if data_buf is not None else np.empty(0, np.uint8))
        starts = offs[:-1] - offs[0]

        # split at the analyzer's neutral separators: a doc's terms are the
        # concatenation of its pieces' terms, so each distinct piece of the
        # batch is analyzed once (and never again in a later batch)
        pieces, piece_doc = self._split(raw, starts)
        enc = pc.dictionary_encode(pieces)
        piece_codes = self._analyze_pieces(enc.dictionary.to_pylist())
        lens = np.fromiter(map(len, piece_codes), np.int64, len(piece_codes))
        flat = np.fromiter(chain.from_iterable(piece_codes), np.int64,
                           int(lens.sum()))

        # expand piece occurrences to term occurrences (in text order)
        occ = enc.indices.to_numpy(zero_copy_only=False)
        occ_len = lens[occ]
        shift = (np.cumsum(lens) - lens)[occ] - (np.cumsum(occ_len) - occ_len)
        codes = flat[np.repeat(shift, occ_len) + np.arange(occ_len.sum())]
        doc = np.repeat(piece_doc, occ_len)
        m_dl = np.bincount(doc, minlength=n_docs).astype(np.int32)

        # one posting per (doc, term), in order of first occurrence in the doc
        span = len(self._term_code)
        pairs, first, tfs = np.unique(doc * span + codes, return_index=True,
                                      return_counts=True)
        order = np.argsort(first)
        pairs = pairs[order]
        p_doc, p_code = pairs // span, pairs % span
        np_docs = ids[p_doc]
        np_tfs = tfs[order].astype(np.int32)
        np_dls = m_dl[p_doc]
        npost = len(pairs)

        gkey = self._shards[p_code] * GKEY_SALT_SPAN + np_docs // self.salt_bucket
        nf = npost if self.emit_fwd else 0   # forward-index copies (kind=f)
        fkey = (np_docs // self.fwd_bucket)[:nf]

        # batch lineage summary (kind=l): XOR of the per-row sha256 digests
        # (order-independent; vectorized over one bulk hex decode) + counts
        mv = memoryview(raw)
        m_sha = [hashlib.sha256(mv[a:b]).hexdigest() for a, b in
                 zip(starts.tolist(), (offs[1:] - offs[0]).tolist())]
        digests = np.frombuffer(bytes.fromhex("".join(m_sha)),
                                dtype=np.uint8).reshape(n_docs, 32)
        xor_hex = np.bitwise_xor.reduce(digests, axis=0).tobytes().hex()
        l_dlsum = int(m_dl.astype(np.int64).sum())

        # string columns by ``take``: postings rows index the term codes;
        # the other rows index [meta rows' values, lineage value, ""]
        meta_rows = np.concatenate([np.full(npost + nf, n_docs + 1),
                                    np.arange(n_docs + 1)])
        return pa.Table.from_arrays(
            [
                pa.array([POSTINGS_KIND, FWD_KIND, META_KIND, LINEAGE_KIND])
                .take(np.repeat(np.arange(4), [npost, nf, n_docs, 1])),
                pa.array(np.concatenate([gkey, fkey,
                                         np.full(n_docs + 1, -1, np.int64)])),
                self._terms.take(np.concatenate(
                    [p_code, p_code[:nf], np.zeros(n_docs + 1, np.int64)])),
                pa.array(np.concatenate([np_docs, np_docs[:nf], ids,
                                         np.array([l_dlsum], np.int64)])),
                pa.array(np.concatenate([np_tfs, np_tfs[:nf],
                                         np.zeros(n_docs, np.int32),
                                         np.array([n_docs], np.int32)])),
                pa.array(np.concatenate([np_dls, np_dls[:nf], m_dl,
                                         np.zeros(1, np.int32)])),
                pa.concat_arrays([keys, pa.array(["", ""])]).take(meta_rows),
                pa.array(m_sha + [xor_hex, ""]).take(meta_rows),
            ],
            schema=STAGED_SCHEMA,
        )

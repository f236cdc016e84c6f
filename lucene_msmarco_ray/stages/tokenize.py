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

Stateful setup (analyzer: stop set, stem cache, compiled regexes) happens in
``__init__``; work happens in ``__call__`` (SURVEY.md T6), which cuts its
block into passes of ``tokenize_batch_size`` rows. Python touches each
pass's vocabulary, not each token: the text bytes are split in numpy at the
analyzer's neutral separators (``analysis.analyzer``), the analyzer runs
once per distinct piece, and the (doc, term) counts, doc lengths and crc32
shards are array operations over int term codes.

Cache scope: Ray Data unpickles a fresh copy of the stage for every task,
so the analysis cache (piece → term codes, term → code, and per code its
term and shard) is not pickled with the stage. It lives in one module-level
entry per worker process, keyed by a token that ``__init__`` draws: every
task of one build (or partition, or append) on a worker reuses the warm
entry, as Lucene reuses one indexing chain per thread; a stage with a new
token replaces it, so nothing carries over from one build to the next.
``CACHE_MAX_PIECES`` bounds the entry: once a pass leaves more pieces than
that, the next pass starts a fresh one. Term codes never leave a pass, so
a reset changes no output.
"""

from __future__ import annotations

import hashlib
import threading
import uuid
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

CACHE_MAX_PIECES = 1 << 18  # distinct pieces one worker's cache may hold


def _grown(buf: np.ndarray, size: int) -> np.ndarray:
    """``buf``, or a copy at least twice as long when ``size`` exceeds it."""
    if size <= len(buf):
        return buf
    out = np.empty(max(size, 2 * len(buf)), buf.dtype)
    out[:len(buf)] = buf
    return out


class _Vocab:
    """One build's analysis cache on one worker: each distinct piece's term
    codes, each term's code, and per code its UTF-8 term and crc32 shard.
    The term bytes, offsets and shards sit in arrays that grow by doubling,
    so adding terms costs their own size, not the vocabulary's. Code 0 is
    "", the term column's value on meta and lineage rows."""

    def __init__(self, token: str) -> None:
        self.token = token
        self.pieces: dict[str, tuple[int, ...]] = {}
        self.term_code = {"": 0}
        self._offs = np.zeros(1 << 12, np.int32)   # term c: [offs[c], offs[c+1])
        self._data = np.empty(1 << 16, np.uint8)
        self._shards = np.zeros(1 << 12, np.int64)

    def add_terms(self, new: list[str], num_shards: int) -> None:
        """Store the terms that just got the codes after the old ones."""
        n, k = len(self.term_code) - len(new), len(new)
        arr = pa.array(new, pa.string())
        _, offs_buf, data_buf = arr.buffers()
        offs = np.frombuffer(offs_buf, np.int32)[:k + 1]
        end = int(self._offs[n])
        self._offs = _grown(self._offs, n + k + 1)
        self._offs[n + 1:n + k + 1] = offs[1:] + end
        self._data = _grown(self._data, end + int(offs[-1]))
        if data_buf is not None:
            self._data[end:end + offs[-1]] = np.frombuffer(
                data_buf, np.uint8)[:offs[-1]]
        self._shards = _grown(self._shards, n + k)
        self._shards[n:n + k] = np.array(
            [crc32(t.encode("utf-8")) for t in new]) % num_shards

    def terms(self) -> pa.StringArray:
        """Every term, by code (a zero-copy view of the term arrays)."""
        n = len(self.term_code)
        return pa.Array.from_buffers(
            pa.string(), n, [None, pa.py_buffer(self._offs[:n + 1]),
                             pa.py_buffer(self._data[:self._offs[n]])])

    def shards(self) -> np.ndarray:
        return self._shards[:len(self.term_code)]


_worker_vocab: _Vocab | None = None   # this worker's cache, for one token
_worker_lock = threading.Lock()        # one pass at a time grows it


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
        self.pass_rows = cfg.tokenize_batch_size
        # names this stage's cache entry on every worker (module docstring)
        self._token = uuid.uuid4().hex

    def _vocab(self) -> _Vocab:
        """This worker's cache entry for the stage's token: the warm one,
        or a fresh one if another stage's or an over-full one is there."""
        global _worker_vocab
        v = _worker_vocab
        if v is None or v.token != self._token \
                or len(v.pieces) > CACHE_MAX_PIECES:
            v = _worker_vocab = _Vocab(self._token)
        return v

    def _analyze_pieces(self, vocab: _Vocab, pieces: list[str]
                        ) -> list[tuple[int, ...]]:
        """Term codes of each piece; analyzes only pieces ``vocab`` has not
        seen and gives each new term a code and its crc32 shard."""
        cache, term_code = vocab.pieces, vocab.term_code
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
            vocab.add_terms(new, self.num_shards)
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
        """Staged rows of ``batch``: those of each pass of ``pass_rows``
        rows in turn, so a whole row group's working arrays stay the size
        of one pass."""
        # names no module global but ``pa``: a traced run wraps this
        # method, so the original is pickled by value with its globals
        step = self.pass_rows
        outs = [self._pass(batch.slice(i, step))
                for i in range(0, max(batch.num_rows, 1), step)]
        return outs[0] if len(outs) == 1 else pa.concat_tables(outs)

    def _pass(self, batch: pa.Table) -> pa.Table:
        with _worker_lock:
            return self._tokenize(self._vocab(), batch)

    def _tokenize(self, vocab: _Vocab, batch: pa.Table) -> pa.Table:
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
        # pass is analyzed once (and not again while the cache holds it)
        pieces, piece_doc = self._split(raw, starts)
        enc = pc.dictionary_encode(pieces)
        piece_codes = self._analyze_pieces(vocab, enc.dictionary.to_pylist())
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
        span = len(vocab.term_code)
        pairs, first, tfs = np.unique(doc * span + codes, return_index=True,
                                      return_counts=True)
        order = np.argsort(first)
        pairs = pairs[order]
        p_doc, p_code = pairs // span, pairs % span
        np_docs = ids[p_doc]
        np_tfs = tfs[order].astype(np.int32)
        np_dls = m_dl[p_doc]
        npost = len(pairs)

        gkey = vocab.shards()[p_code] * GKEY_SALT_SPAN + np_docs // self.salt_bucket
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
                vocab.terms().take(np.concatenate(
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

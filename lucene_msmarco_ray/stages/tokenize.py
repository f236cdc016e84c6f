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
``__call__`` (SURVEY.md T6).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

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
        self.text_col = text_col
        self.id_col = id_col
        self.key_col = key_col
        self.num_shards = cfg.num_shards
        self.salt_bucket = cfg.salt_docs_per_bucket
        self.fwd_bucket = cfg.fwd_docs_per_bucket
        self.emit_fwd = cfg.emit_fwd
        self._shard_cache: dict[str, int] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        keys = (batch[self.key_col].to_pylist() if self.key_col
                else [str(i) for i in ids])

        analyzer = self.analyzer
        n_docs = len(texts)
        p_terms: list[str] = []
        p_docs: list[np.ndarray] = []
        p_tfs: list[np.ndarray] = []
        p_dls: list[np.ndarray] = []
        m_dl = np.empty(n_docs, dtype=np.int32)
        m_sha: list[str] = []

        for i, text in enumerate(texts):
            terms = analyzer(text)
            counts: dict[str, int] = {}
            for t in terms:
                counts[t] = counts.get(t, 0) + 1
            dl = len(terms)
            m_dl[i] = dl
            m_sha.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
            if counts:
                k = len(counts)
                p_terms.extend(counts.keys())
                p_tfs.append(np.fromiter(counts.values(), dtype=np.int32, count=k))
                p_docs.append(np.full(k, ids[i], dtype=np.int64))
                p_dls.append(np.full(k, dl, dtype=np.int32))

        np_docs = np.concatenate(p_docs) if p_docs else np.empty(0, np.int64)
        np_tfs = np.concatenate(p_tfs) if p_tfs else np.empty(0, np.int32)
        np_dls = np.concatenate(p_dls) if p_dls else np.empty(0, np.int32)
        npost = len(p_terms)

        # gkey: crc32-shard per unique term (cached across batches) + doc salt
        from zlib import crc32
        cache = self._shard_cache
        shards = np.empty(npost, np.int64)
        for i, t in enumerate(p_terms):
            s = cache.get(t)
            if s is None:
                s = crc32(t.encode("utf-8")) % self.num_shards
                cache[t] = s
            shards[i] = s
        gkey = shards * GKEY_SALT_SPAN + np_docs // self.salt_bucket
        nf = npost if self.emit_fwd else 0   # forward-index copies (kind=f)
        fkey = (np_docs // self.fwd_bucket)[:nf]

        # batch lineage summary (kind=l): XOR of the per-row sha256 digests
        # (order-independent; vectorized over one bulk hex decode) + counts
        digests = np.frombuffer(bytes.fromhex("".join(m_sha)),
                                dtype=np.uint8).reshape(n_docs, 32)
        xor_hex = np.bitwise_xor.reduce(digests, axis=0).tobytes().hex()
        l_dlsum = int(m_dl.astype(np.int64).sum())

        return pa.Table.from_arrays(
            [
                pa.array([POSTINGS_KIND] * npost + [FWD_KIND] * nf
                         + [META_KIND] * n_docs + [LINEAGE_KIND]),
                pa.array(np.concatenate([gkey, fkey,
                                         np.full(n_docs + 1, -1, np.int64)])),
                pa.array(p_terms + p_terms[:nf] + [""] * (n_docs + 1),
                         type=pa.string()),
                pa.array(np.concatenate([np_docs, np_docs[:nf],
                                         ids.astype(np.int64),
                                         np.array([l_dlsum], np.int64)])),
                pa.array(np.concatenate([np_tfs, np_tfs[:nf],
                                         np.zeros(n_docs, np.int32),
                                         np.array([n_docs], np.int32)])),
                pa.array(np.concatenate([np_dls, np_dls[:nf], m_dl,
                                         np.zeros(1, np.int32)])),
                pa.array([""] * (npost + nf) + keys + [""], type=pa.string()),
                pa.array([""] * (npost + nf) + m_sha + [xor_hex],
                         type=pa.string()),
            ],
            schema=STAGED_SCHEMA,
        )

"""Deduplication operators over a documents table.

The reference's only dedup semantics are hash-map first/last-write-wins on
small in-heap maps (reference: src/main/java/qrels/PerQueryRelDocs.java:20-26,
src/main/java/retrieval/SupervisedRLM.java:137). At 100 TB dedup is a
first-class pipeline stage; these operators are Ray-Data-native:

* exact_dedup      — content-hash → hash-partitioned groupby (one shuffle of
                     (hash, id) pairs only, never the content);
* minhash_lsh      — shingle → minhash signature → banded LSH buckets →
                     candidate pairs (Broder 1997; Leskovec/Rajaraman/Ullman
                     ch.3);
* simhash          — Charikar 2002 fingerprints (62-bit here), banded for
                     candidate generation, Hamming-distance verified;
* ngram_jaccard    — exact word-n-gram Jaccard via gram-inverted-index join
                     (SQL-expressible; the gate oracle covers it).

Hash family (round-2 design): every content hash used by minhash/simhash is
the polynomial rolling hash ``h(s) = fold(acc*131 + codepoint) mod 2^31-1``
— chosen because it is (a) exactly expressible in ANSI-ish SQL
(``list_reduce`` over ``ord(substr(...))``), so the DuckDB gate oracle can
recompute signatures independently, and (b) batch-vectorizable in numpy
(positional fold over a flat codepoint array; products stay < 2^62 so plain
uint64 arithmetic is exact). MinHash permutations are ``(a*h + b) mod 2^31-1``
with seeded a,b; SimHash takes two independent base-131/137 hashes for a
62-bit fingerprint. All per-batch work is vectorized (no per-row Python in
the hash/signature path); signatures travel as fixed-width columns so every
shuffle moves small rows.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa

from . import fold
from .fold import _mix64, coarse_group_agg, partition_fold

logger = logging.getLogger(__name__)

M31 = (1 << 31) - 1          # Mersenne prime modulus (SQL-safe int64 products)
HASH_BASE = 131
HASH_BASE2 = 137             # second family for simhash bits 31..61
_SPACE = 32                  # ord(' ') — shingle join character


def _poly_hashes(strings: list[str], base: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized rolling hash of many strings → (hashes, lengths).

    One utf-32 encode of the concatenated batch, then a positional fold:
    iteration j updates only strings longer than j (no N×L padded matrix).
    """
    n = len(strings)
    if n == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    lengths = np.fromiter(map(len, strings), np.int64, n)
    cps = np.frombuffer("".join(strings).encode("utf-32-le"),
                        dtype=np.uint32).astype(np.uint64)
    starts = np.empty(n, np.int64)
    starts[0] = 0
    np.cumsum(lengths[:-1], out=starts[1:])
    h = np.zeros(n, np.uint64)
    ubase = np.uint64(base)
    um = np.uint64(M31)
    for j in range(int(lengths.max(initial=0))):
        act = np.flatnonzero(lengths > j)
        h[act] = (h[act] * ubase + cps[starts[act] + j]) % um
    return h, lengths


def _pow_table(base: int, max_len: int) -> np.ndarray:
    p = np.empty(max_len + 1, np.uint64)
    p[0] = 1
    for i in range(1, max_len + 1):
        p[i] = (int(p[i - 1]) * base) % M31
    return p


def _gram_hashes(tok_h: np.ndarray, tok_len: np.ndarray, doc_cnt: np.ndarray,
                 k: int, base: int = HASH_BASE
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Hashes of space-joined k-token shingles per doc, composed from token
    hashes (H(a+' '+b) = ((H(a)*B+32)%M * B^len(b) + H(b)) % M — identical to
    hashing the joined gram string). Docs with 0 < n < k tokens contribute one
    whole-doc gram; empty docs contribute none.

    Returns (gram_hashes grouped contiguously by doc, grams_per_doc).
    """
    ub, um, usp = np.uint64(base), np.uint64(M31), np.uint64(_SPACE)
    n_docs = len(doc_cnt)
    doc_of_tok = np.repeat(np.arange(n_docs), doc_cnt)
    tok_start = np.concatenate(([0], np.cumsum(doc_cnt)[:-1]))
    powb = _pow_table(base, int(tok_len.max(initial=0)))

    def compose(g, idx):
        # g ← H(g + ' ' + token[idx]), all uint64-safe (< 2^62)
        return (((g * ub + usp) % um) * powb[tok_len[idx]] + tok_h[idx]) % um

    # full windows: starts w with w..w+k-1 inside one doc
    if len(tok_h) >= k:
        w = np.flatnonzero(doc_of_tok[: len(tok_h) - k + 1]
                           == doc_of_tok[k - 1:])
        g_full = tok_h[w].copy()
        for j in range(1, k):
            g_full = compose(g_full, w + j)
        full_doc = doc_of_tok[w] if w.size else np.empty(0, np.int64)
    else:
        g_full = np.empty(0, np.uint64)
        full_doc = np.empty(0, np.int64)
    # short docs (0 < n < k): single whole-doc gram
    sd = np.flatnonzero((doc_cnt > 0) & (doc_cnt < k))
    g_short = tok_h[tok_start[sd]].copy() if sd.size else np.empty(0, np.uint64)
    for j in range(1, k - 1):
        act = np.flatnonzero(doc_cnt[sd] > j)
        g_short[act] = compose(g_short[act], tok_start[sd[act]] + j)

    grams = np.concatenate([g_full, g_short])
    docs = np.concatenate([full_doc, sd])
    order = np.argsort(docs, kind="stable")
    per_doc = np.bincount(docs, minlength=n_docs).astype(np.int64)
    return grams[order], per_doc


def _tokenize_batch(texts: list[str]) -> tuple[list[str], np.ndarray]:
    toks_per_doc = [t.split() for t in texts]
    cnt = np.fromiter(map(len, toks_per_doc), np.int64, len(toks_per_doc))
    flat = [t for ts in toks_per_doc for t in ts]
    return flat, cnt


#: Independent bases of the 124-bit exact-dedup content hash (4 × 31 bits).
CONTENT_HASH_BASES = (131, 137, 139, 149)


def _poly_hash_closed(strings: list[str], bases: tuple[int, ...]) -> np.ndarray:
    """Closed-form polynomial hashes of whole strings, one numpy pass per
    base (no per-position fold): h = Σ_i cp_i · B^(L-1-i) mod M31, computed
    as per-char 51-bit products (cp < 2^21, pow < 2^31) reduced per string
    with ``np.add.reduceat`` — exact in uint64 for strings < 2^12 ... in fact
    for any realistic length (sum of n 31-bit terms needs n < 2^33).

    → (len(bases), n) uint64; empty strings hash to 0 (matches the fold).
    """
    n = len(strings)
    out = np.zeros((len(bases), n), np.uint64)
    if n == 0:
        return out
    lengths = np.fromiter(map(len, strings), np.int64, n)
    total = int(lengths.sum())
    if total == 0:
        return out
    cps = np.frombuffer("".join(strings).encode("utf-32-le"),
                        dtype=np.uint32).astype(np.uint64)
    ends = np.cumsum(lengths)
    # exponent of char at global position i in its string: (end-1) - i
    exp = (np.repeat(ends, lengths) - 1
           - np.arange(total, dtype=np.int64))
    nz = np.flatnonzero(lengths)
    starts = ends[nz] - lengths[nz]
    um = np.uint64(M31)
    for bi, base in enumerate(bases):
        powtab = _pow_table(base, int(lengths.max()) - 1)
        prod = (cps * powtab[exp]) % um       # each term < 2^31
        out[bi, nz] = np.add.reduceat(prod, starts) % um
    return out


def content_hash_hex(strings: list[str]) -> pa.Array:
    """32-hex-char content hash (four base-B poly hashes, ``%08x`` each) —
    the dedup key. Vectorized end-to-end: one hexlify of the big-endian
    (n, 4) uint32 digest matrix, then a zero-copy Arrow string build over
    uniform 32-char offsets. SQL-reproducible (gate oracle recomputes it
    via list_reduce + printf)."""
    import binascii
    hs = _poly_hash_closed(strings, CONTENT_HASH_BASES)
    digest = np.ascontiguousarray(hs.T.astype(">u4"))
    hexbuf = binascii.hexlify(digest.tobytes())
    n = len(strings)
    offsets = np.arange(0, 32 * n + 1, 32, dtype=np.int32)
    return pa.StringArray.from_buffers(
        n, pa.py_buffer(offsets.tobytes()), pa.py_buffer(hexbuf))


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """→ (content_hash, doc_id=keeper min id, dup_count). One shuffle over
    (hash, id) pairs; content never leaves the map stage. The hash is the
    repo's vectorized four-base polynomial family (124 bits — collision
    odds ~n²/2^125, negligible at 10^12 docs), not per-row md5: the hash
    stage is pure numpy over the batch. The fold is
    :func:`~.fold.coarse_group_agg` — content_hash cardinality scales
    with the corpus, so Ray's per-row-Python aggregate merge is the
    wrong reduce (15.7× measured, see fold.py)."""
    def add_hash(batch: pa.Table) -> pa.Table:
        hashes = content_hash_hex(batch[text_col].to_pylist())
        return pa.Table.from_arrays(
            [hashes, batch[id_col]], names=["content_hash", id_col])

    pairs = ds.map_batches(add_hash, batch_format="pyarrow")
    return coarse_group_agg(pairs, ["content_hash"],
                            [("doc_id", id_col, "min"),
                             ("dup_count", id_col, "size")])


def minhash_params(num_perm: int, seed: int = 13) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (a, b) of the permutation family (a*h + b) mod M31. Exposed so
    the SQL oracle can embed the identical constants."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, M31, num_perm, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, M31, num_perm, dtype=np.int64).astype(np.uint64)
    return a, b


class _MinHashStage:
    """doc → (band_id, band_key, doc_id) rows, fully vectorized per batch."""

    def __init__(self, num_perm: int, bands: int, shingle_k: int,
                 text_col: str, id_col: str, seed: int = 13):
        self.a, self.b = minhash_params(num_perm, seed)
        self.num_perm, self.bands = num_perm, bands
        self.rows_per_band = num_perm // bands
        self.shingle_k = shingle_k
        self.text_col, self.id_col = text_col, id_col

    def signatures(self, grams: np.ndarray, per_doc: np.ndarray) -> np.ndarray:
        """→ (num_perm, n_docs_with_grams) uint64 minhash matrix."""
        nz = np.flatnonzero(per_doc)
        offs = np.concatenate(([0], np.cumsum(per_doc[nz])[:-1]))
        um = np.uint64(M31)
        sig = np.empty((self.num_perm, nz.size), np.uint64)
        for p0 in range(0, self.num_perm, 8):   # chunk perms: bounds memory
            p1 = min(p0 + 8, self.num_perm)
            vals = (self.a[p0:p1, None] * grams[None, :]
                    + self.b[p0:p1, None]) % um
            sig[p0:p1] = np.minimum.reduceat(vals, offs, axis=1)
        return sig

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        flat, cnt = _tokenize_batch(batch[self.text_col].to_pylist())
        tok_h, tok_len = _poly_hashes(flat, HASH_BASE)
        grams, per_doc = _gram_hashes(tok_h, tok_len, cnt, self.shingle_k)
        nz = np.flatnonzero(per_doc)
        if nz.size == 0:
            return pa.table({"band_id": pa.array([], pa.int32()),
                             "band_key": pa.array([], pa.string()),
                             "doc_id": pa.array([], pa.int64())})
        sig = self.signatures(grams, per_doc)
        r = self.rows_per_band
        # one int64 bucket key per (band, doc): avalanche-chain the band's r
        # signature values with the band id — grouping on a single int column
        # is measurably cheaper than string keys in the sort shuffle
        keys = []
        for bnd in range(self.bands):
            bk = _mix64(np.full(nz.size, bnd, np.uint64))
            for j in range(r):
                bk = _mix64(bk ^ sig[bnd * r + j])
            keys.append(bk)
        doc_ids = ids[nz]
        return pa.table({
            "bucket": pa.array(np.concatenate(keys).view(np.int64)),
            "doc_id": pa.array(np.tile(doc_ids, self.bands).astype(np.int64)),
        })


def _segments(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts/sizes of equal-key runs in a sorted key array."""
    if keys.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sizes = np.diff(np.concatenate((starts, [keys.size])))
    return starts, sizes


def _bucket_pairs(g: pd.DataFrame, max_bucket: int) -> pd.DataFrame:
    """One coarse partition (many LSH buckets) → all within-bucket doc pairs.

    Per-group Python overhead is paid once per PARTITION, not per bucket:
    the partition is lexsorted and only buckets holding >= 2 docs are
    expanded (near-dup buckets are rare, so the inner loop is short).
    Oversized buckets are truncated to their ``max_bucket`` smallest ids and
    the drop is logged (worker log)."""
    b = g["bucket"].to_numpy()
    d = g["doc_id"].to_numpy()
    order = np.lexsort((d, b))
    b, d = b[order], d[order]
    keep = np.ones(b.size, bool)                  # drop (bucket, doc) dupes
    keep[1:] = (b[1:] != b[:-1]) | (d[1:] != d[:-1])
    b, d = b[keep], d[keep]
    starts, sizes = _segments(b)
    out_a, out_b = [], []
    for s, n in zip(starts[sizes >= 2], sizes[sizes >= 2]):
        ids = d[s:s + n]
        if n > max_bucket:
            logger.warning(
                "minhash_lsh: bucket %s has %d docs; truncating to %d "
                "(dropping %d)", b[s], n, max_bucket, n - max_bucket)
            ids = ids[:max_bucket]
        ia, ib = np.triu_indices(ids.size, k=1)
        out_a.append(ids[ia])
        out_b.append(ids[ib])
    if not out_a:
        return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                             "doc_b": pd.Series([], dtype=np.int64)})
    return pd.DataFrame({"doc_a": np.concatenate(out_a),
                         "doc_b": np.concatenate(out_b)})


def _dedup_pairs(pairs, extra: tuple[str, ...] = ()):
    """Distinct (doc_a, doc_b) rows via ONE coarse int-keyed shuffle.
    ``extra`` columns are carried from the first occurrence (they are
    deterministic per pair for every caller here)."""

    def uniq(g: pd.DataFrame) -> pd.DataFrame:
        a = g["doc_a"].to_numpy()
        bb = g["doc_b"].to_numpy()
        order = np.lexsort((bb, a))
        a, bb = a[order], bb[order]
        keep = np.ones(a.size, bool)
        keep[1:] = (a[1:] != a[:-1]) | (bb[1:] != bb[:-1])
        cols = {"doc_a": a[keep], "doc_b": bb[keep]}
        for c in extra:
            cols[c] = g[c].to_numpy()[order][keep]
        return pd.DataFrame(cols)

    uniq.__name__ = "distinct_pairs"
    return partition_fold(pairs, ["doc_a", "doc_b"], uniq)


def minhash_lsh_candidates(ds, text_col: str = "text", id_col: str = "doc_id",
                           num_perm: int = 64, bands: int = 16,
                           shingle_k: int = 3, max_bucket: int = 1000,
                           seed: int = 13):
    """Near-duplicate candidate pairs via MinHash-LSH.

    → (doc_a, doc_b) distinct pairs that collide in ≥1 band. Buckets larger
    than ``max_bucket`` are truncated (see :func:`_bucket_pairs`) — at web
    scale a giant bucket means a boilerplate cluster; cap and handle those
    via exact_dedup first.

    Shuffle discipline: TWO int-keyed coarse folds total — band rows by
    bucket (bucket-local pair expansion is vectorized inside each
    partition), then pair dedup by pair. No per-tiny-group pandas overhead
    (measured 10x on the sf0.1 bench)."""

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        return _bucket_pairs(g, max_bucket)

    bucket_pairs.__name__ = "bucket_pairs"
    rows = ds.map_batches(
        _MinHashStage, fn_constructor_kwargs=dict(
            num_perm=num_perm, bands=bands, shingle_k=shingle_k,
            text_col=text_col, id_col=id_col, seed=seed),
        batch_format="pyarrow", concurrency=(1, 8))
    pairs = partition_fold(rows, "bucket", bucket_pairs)
    # distinct pairs (a pair can collide in several bands)
    return _dedup_pairs(pairs)


# simhash band layout over the 62-bit fingerprint: widths/shifts chosen so
# 4 disjoint bands cover all bits (pigeonhole-complete for hamming <= 3)
_SIM_BANDS = ((0, 16), (16, 16), (32, 15), (47, 15))


class _SimHashStage:
    """doc → 4 rows (bkey, doc_id, simhash); vectorized.

    ``bkey = band_id << 16 | band_bits`` packs the band number and the band's
    bit slice into ONE int64 (exactly injective: every band is <= 16 bits),
    so candidate generation is a single int-keyed groupby instead of four
    separate shuffles. Empty-token docs emit no row (no content to
    fingerprint — documented deviation, keeps the SQL oracle trivial)."""

    def __init__(self, text_col: str, id_col: str):
        self.text_col, self.id_col = text_col, id_col

    def fingerprints(self, batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        flat, cnt = _tokenize_batch(batch[self.text_col].to_pylist())
        nz = np.flatnonzero(cnt)
        if nz.size == 0:
            return np.empty(0, np.int64), np.empty(0, np.uint64)
        h1, _ = _poly_hashes(flat, HASH_BASE)
        h2, _ = _poly_hashes(flat, HASH_BASE2)
        offs = np.concatenate(([0], np.cumsum(cnt[nz])[:-1]))
        shifts = np.arange(31, dtype=np.uint64)
        f = np.zeros(nz.size, np.uint64)
        for lo, h in ((0, h1), (31, h2)):
            bits = ((h[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
            v = np.add.reduceat(2 * bits - 1, offs, axis=0)
            f |= ((v > 0).astype(np.uint64)
                  << (shifts + np.uint64(lo))[None, :]).sum(axis=1,
                                                            dtype=np.uint64)
        return ids[nz].astype(np.int64), f

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, f = self.fingerprints(batch)
        bkeys, docs, fps = [], [], []
        for bnd, (lo, width) in enumerate(_SIM_BANDS):
            band = ((f >> np.uint64(lo)) & np.uint64((1 << width) - 1))
            bkeys.append((np.int64(bnd) << np.int64(16)) | band.astype(np.int64))
            docs.append(ids)
            fps.append(f.view(np.int64))
        return pa.table({
            "bkey": pa.array(np.concatenate(bkeys) if bkeys else
                             np.empty(0, np.int64)),
            "doc_id": pa.array(np.concatenate(docs) if docs else
                               np.empty(0, np.int64)),
            "simhash": pa.array(np.concatenate(fps) if fps else
                                np.empty(0, np.int64)),
        })


def simhash_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                  max_hamming: int = 3, max_bucket: int = 1000):
    """SimHash near-dup pairs: 4 disjoint bands (16+16+15+15 of 62 bits) for
    candidates, Hamming-verified — any pair within distance d≤3 shares ≥1
    exact band (pigeonhole), so results equal the all-pairs scan whenever no
    bucket overflows ``max_bucket`` (overflows are logged)."""

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        # one coarse partition = many band buckets; vectorize across them
        bk = g["bkey"].to_numpy()
        d = g["doc_id"].to_numpy()
        f = g["simhash"].to_numpy().astype(np.uint64)
        order = np.lexsort((d, bk))
        bk, d, f = bk[order], d[order], f[order]
        keep = np.ones(bk.size, bool)
        keep[1:] = (bk[1:] != bk[:-1]) | (d[1:] != d[:-1])
        bk, d, f = bk[keep], d[keep], f[keep]
        starts, sizes = _segments(bk)
        out_a, out_b, out_h = [], [], []
        for s, n in zip(starts[sizes >= 2], sizes[sizes >= 2]):
            if n > max_bucket:
                logger.warning(
                    "simhash: band bucket %s has %d docs; truncating to %d "
                    "(dropping %d)", bk[s], n, max_bucket, n - max_bucket)
                n = max_bucket
            ids, fp = d[s:s + n], f[s:s + n]
            ia, ib = np.triu_indices(int(n), k=1)
            x = fp[ia] ^ fp[ib]
            ham = np.zeros(x.size, dtype=np.int64)
            while x.any():
                ham += (x & np.uint64(1)).astype(np.int64)
                x >>= np.uint64(1)
            sel = ham <= max_hamming
            out_a.append(ids[ia][sel])
            out_b.append(ids[ib][sel])
            out_h.append(ham[sel])
        if not out_a:
            return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                                 "doc_b": pd.Series([], dtype=np.int64),
                                 "hamming": pd.Series([], dtype=np.int64)})
        return pd.DataFrame({"doc_a": np.concatenate(out_a),
                             "doc_b": np.concatenate(out_b),
                             "hamming": np.concatenate(out_h)})

    verify.__name__ = "verify_hamming"
    sigs = ds.map_batches(
        _SimHashStage, fn_constructor_kwargs=dict(text_col=text_col, id_col=id_col),
        batch_format="pyarrow", concurrency=(1, 8))
    allpairs = partition_fold(sigs, "bkey", verify)
    # hamming is deterministic per pair, so dedup keeps the first occurrence
    return _dedup_pairs(allpairs, extra=("hamming",))


def ngram_jaccard_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                        n: int = 3, threshold: float = 0.8,
                        max_gram_df: int = 200):
    """Exact n-gram Jaccard near-dup pairs via a gram inverted index:
    explode (gram_id, doc) → coarse-partition groupby → per-gram pairs →
    count shared grams per pair → jaccard = shared / (|A| + |B| - shared)
    ≥ threshold.

    Grams are identified by a 62-bit id (two independent 31-bit rolling
    hashes of the joined gram string — collision probability ~2^-62 per gram
    pair, negligible against the exactness contract). Both shuffles are
    int-keyed coarse folds with work vectorized across the contained
    groups — no per-tiny-group pandas overhead.

    ``max_gram_df``: grams occurring in more than this many docs are dropped
    from pair generation (stop-gram pruning — they cannot discriminate and
    would blow up the pair count quadratically; standard candidate-pruning
    practice). Exactness holds for pairs whose similarity rests on at least
    one non-stop gram; boilerplate-only pairs are the domain of exact_dedup.
    """

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        flat, cnt = _tokenize_batch(batch[text_col].to_pylist())
        h1, l1 = _poly_hashes(flat, HASH_BASE)
        h2, _ = _poly_hashes(flat, HASH_BASE2)
        g1, per_doc = _gram_hashes(h1, l1, cnt, n, HASH_BASE)
        g2, _ = _gram_hashes(h2, l1, cnt, n, HASH_BASE2)
        gid = (g1 | (g2 << np.uint64(31))).view(np.int64)
        nz = np.flatnonzero(per_doc)
        doc_of = np.repeat(ids[nz].astype(np.int64), per_doc[nz])
        # distinct (doc, gram) + per-doc distinct-gram counts
        order = np.lexsort((gid, doc_of))
        doc_of, gid = doc_of[order], gid[order]
        keep = np.ones(gid.size, bool)
        keep[1:] = (doc_of[1:] != doc_of[:-1]) | (gid[1:] != gid[:-1])
        doc_of, gid = doc_of[keep], gid[keep]
        starts, sizes = _segments(doc_of)
        ng = np.repeat(sizes, sizes)
        return pa.table({"gram_id": pa.array(gid),
                         "doc_id": pa.array(doc_of),
                         "n_grams": pa.array(ng)})

    def gram_pairs(g: pd.DataFrame) -> pd.DataFrame:
        gid = g["gram_id"].to_numpy()
        d = g["doc_id"].to_numpy()
        ng = g["n_grams"].to_numpy()
        order = np.lexsort((d, gid))
        gid, d, ng = gid[order], d[order], ng[order]
        starts, sizes = _segments(gid)
        out = []
        sel = (sizes >= 2) & (sizes <= max_gram_df)
        for s, m in zip(starts[sel], sizes[sel]):
            ids, cnts = d[s:s + m], ng[s:s + m]
            ia, ib = np.triu_indices(int(m), k=1)
            out.append((ids[ia], ids[ib], cnts[ia], cnts[ib]))
        if not out:
            return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                                 "doc_b": pd.Series([], dtype=np.int64),
                                 "na": pd.Series([], dtype=np.int64),
                                 "nb": pd.Series([], dtype=np.int64)})
        return pd.DataFrame({
            "doc_a": np.concatenate([o[0] for o in out]),
            "doc_b": np.concatenate([o[1] for o in out]),
            "na": np.concatenate([o[2] for o in out]),
            "nb": np.concatenate([o[3] for o in out])})

    gram_pairs.__name__ = "gram_pairs"

    def count_shared(g: pd.DataFrame) -> pd.DataFrame:
        a = g["doc_a"].to_numpy()
        bb = g["doc_b"].to_numpy()
        na = g["na"].to_numpy()
        nb = g["nb"].to_numpy()
        order = np.lexsort((bb, a))
        a, bb, na, nb = a[order], bb[order], na[order], nb[order]
        key_change = np.concatenate(([True], (a[1:] != a[:-1])
                                     | (bb[1:] != bb[:-1])))
        starts = np.flatnonzero(key_change)
        sizes = np.diff(np.concatenate((starts, [a.size])))
        sh = sizes.astype(np.float64)
        naf = na[starts].astype(np.float64)
        nbf = nb[starts].astype(np.float64)
        j = np.round(sh / (naf + nbf - sh), 6)
        m = j >= threshold
        return pd.DataFrame({"doc_a": a[starts][m], "doc_b": bb[starts][m],
                             "jaccard": j[m]})

    count_shared.__name__ = "count_shared"
    grams = ds.map_batches(explode, batch_format="pyarrow")
    pairs = partition_fold(grams, "gram_id", gram_pairs)
    return partition_fold(pairs, ["doc_a", "doc_b"], count_shared)


def duplicate_spans(ds, text_col: str = "text", id_col: str = "doc_id",
                    w: int = 20):
    """Per-document duplicated-text fraction: the share of a document's
    distinct ``w``-token spans that also occur in at least one OTHER
    document (or twice here — occurrence counting is by document) — the
    doc-level contamination/boilerplate signal web-corpus curation
    pipelines threshold on (cf. the duplicate-text fractions in
    RefinedWeb/Dolma-style quality filters).

    Deliberately NOT a pair operator: output is one row per document, and
    every stage is linear in tokens — (gram, doc) rows cross one coarse
    int-keyed exchange (distinct-per-doc, so bounded by token count), the
    per-part reduce marks grams with df ≥ 2 and folds to per-doc partial
    counts, and a tiny (doc, partials) groupby sums them. No quadratic
    blowup on near-identical corpora, unlike all-pairs similarity.

    Span identity is the 62-bit two-family rolling hash of the
    space-joined gram (same contract as :func:`ngram_jaccard_pairs`); the
    SQL oracle counts distinct gram strings — identical absent 2^-62
    collisions.

    → (doc_id, n_spans, n_dup_spans, dup_frac); documents with fewer than
    ``w`` tokens emit nothing (they have no spans).
    """

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        flat, cnt = _tokenize_batch(batch[text_col].to_pylist())
        h1, l1 = _poly_hashes(flat, HASH_BASE)
        h2, _ = _poly_hashes(flat, HASH_BASE2)
        g1, per_doc = _gram_hashes(h1, l1, cnt, w, HASH_BASE)
        g2, _ = _gram_hashes(h2, l1, cnt, w, HASH_BASE2)
        gid = (g1 | (g2 << np.uint64(31))).view(np.int64)
        # _gram_hashes gives a 0 < n < w doc one whole-doc gram (the
        # Jaccard contract); the span contract is "no spans" — drop them
        long_enough = cnt >= w
        gmask = long_enough[np.repeat(np.arange(cnt.size), per_doc)]
        gid = gid[gmask]
        per_doc = np.where(long_enough, per_doc, 0)
        nz = np.flatnonzero(per_doc)
        doc_of = np.repeat(ids[nz].astype(np.int64), per_doc[nz])
        order = np.lexsort((gid, doc_of))
        doc_of, gid = doc_of[order], gid[order]
        keep = np.ones(gid.size, bool)
        keep[1:] = (doc_of[1:] != doc_of[:-1]) | (gid[1:] != gid[:-1])
        doc_of, gid = doc_of[keep], gid[keep]
        return pa.table({"gram_id": pa.array(gid),
                         "doc_id": pa.array(doc_of)})

    def part_stats(g: pd.DataFrame) -> pd.DataFrame:
        gid = g["gram_id"].to_numpy()
        d = g["doc_id"].to_numpy()
        order = np.argsort(gid, kind="stable")
        gid, d = gid[order], d[order]
        _starts, sizes = _segments(gid)
        dup = np.repeat(sizes >= 2, sizes)
        codes, uniq = pd.factorize(d)
        n = np.bincount(codes, minlength=uniq.size)
        nd = np.bincount(codes[dup], minlength=uniq.size)
        return pd.DataFrame({"doc_id": uniq.astype(np.int64),
                             "__n": n.astype(np.int64),
                             "__nd": nd.astype(np.int64)})

    part_stats.__name__ = "part_stats"

    def doc_sums(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("doc_id", sort=False)[["__n", "__nd"]].sum()
        n = s["__n"].to_numpy(np.int64)
        nd = s["__nd"].to_numpy(np.int64)
        return pd.DataFrame({"doc_id": s.index.to_numpy(np.int64),
                             "n_spans": n, "n_dup_spans": nd,
                             "dup_frac": np.round(nd / n, 6)})

    doc_sums.__name__ = "doc_sums"

    stats = partition_fold(ds.map_batches(explode, batch_format="pyarrow"),
                           "gram_id", part_stats)
    # second exchange is coarse too: a direct groupby(doc_id).aggregate
    # over these micro-blocks measured 17.5 s for 163k rows
    # (high-cardinality sort-shuffle of tiny blocks); the coarse fold
    # with a vectorized in-partition sum is 0.2 s
    return partition_fold(stats, "doc_id", doc_sums)


def flag_contaminated(ds, benchmark, n: int = 5, text_col: str = "text",
                      id_col: str = "doc_id"):
    """Benchmark decontamination: flag corpus docs sharing any word
    ``n``-gram with a (small) benchmark/eval set → (doc_id, n_grams,
    n_shared, contaminated), where ``n_grams`` counts the doc's DISTINCT
    grams and ``n_shared`` those also present anywhere in the benchmark.

    Scale shape: the benchmark is the broadcast-small side by contract
    (eval sets are ≤ millions of grams) — its distinct gram hashes are
    reduced batch-locally, folded once on the driver, and shipped via ONE
    ``ray.put``; the corpus pass is stateless (sorted-array searchsorted
    membership per batch, no shuffle at all). Grams use the dedup family's
    composed polynomial hashes under TWO bases (62-bit — cross-set
    collision odds ~|corpus grams|·|bench grams|/2^63), with the same
    short-doc semantic as :func:`fingerprint`'s gram CTE (docs with
    0 < tokens < n contribute one whole-doc gram); the SQL oracle joins
    the gram STRINGS, independently checking the hash semantics."""
    import ray

    from .textstats import _flat_tokens

    def _doc_grams(batch: pa.Table):
        flat, counts = _flat_tokens(batch[text_col])
        toks = flat.to_pylist()
        h1, tlen = _poly_hashes(toks, HASH_BASE)
        h2, _ = _poly_hashes(toks, HASH_BASE2)
        g1, per_doc = _gram_hashes(h1, tlen, counts, n, HASH_BASE)
        g2, _ = _gram_hashes(h2, tlen, counts, n, HASH_BASE2)
        return ((g1 << np.uint64(31)) | g2).astype(np.int64), per_doc

    def bench_grams(batch: pa.Table) -> pa.Table:
        g, _ = _doc_grams(batch)
        return pa.table({"g": pa.array(np.unique(g))})

    bg = benchmark.map_batches(bench_grams, batch_format="pyarrow") \
        .to_pandas()["g"].to_numpy()
    bref = ray.put(np.unique(bg))      # sorted + deduped across batches

    def scan(batch: pa.Table) -> pa.Table:
        bset = ray.get(bref)
        g, per_doc = _doc_grams(batch)
        n_docs = per_doc.size
        ngr = np.zeros(n_docs, np.int64)
        nsh = np.zeros(n_docs, np.int64)
        nzg = np.flatnonzero(per_doc)
        if nzg.size:
            d = np.repeat(np.arange(n_docs), per_doc)
            order = np.lexsort((g, d))
            gs, dd = g[order], d[order]
            new = np.concatenate(
                ([True], (dd[1:] != dd[:-1]) | (gs[1:] != gs[:-1])))
            ug, ud = gs[new], dd[new]                # distinct per doc
            ngr += np.bincount(ud, minlength=n_docs)
            if bset.size:
                pos = np.minimum(np.searchsorted(bset, ug), bset.size - 1)
                hit = bset[pos] == ug
                nsh += np.bincount(ud[hit], minlength=n_docs)
        return pa.table({
            "doc_id": batch[id_col].cast(pa.int64()),
            "n_grams": pa.array(ngr),
            "n_shared": pa.array(nsh),
            "contaminated": pa.array(nsh > 0),
        })

    return ds.map_batches(scan, batch_format="pyarrow")


def connected_components(pairs, a_col: str = "doc_a", b_col: str = "doc_b"):
    """Union-find over candidate duplicate pairs → (doc_id, component),
    component = the minimum doc id in the group — the step that turns LSH
    candidate PAIRS into canonical dedup GROUPS (keeper = the component id,
    drop the rest).

    Scale rationale: the pair table is already the reduction (LSH
    candidates ≪ corpus), so driver state is O(nodes appearing in any
    pair), streamed in via ``iter_batches`` — the same bounded-driver-state
    class as group_quantile's histogram and sample_n's candidate fold. The
    per-pair union loop is Python, which is correct HERE because pairs are
    the small side by construction; a corpus whose pair-node set outgrows
    one machine needs iterative min-label propagation instead (k
    groupby-min exchanges, k ≈ component diameter — LSH near-dup graphs
    are overwhelmingly tiny cliques, making the driver fold the right
    default)."""
    import ray.data as rd

    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:            # path compression
            parent[x], x = root, parent[x]
        return root

    for batch in pairs.select_columns([a_col, b_col]) \
            .iter_batches(batch_format="pyarrow", batch_size=65536):
        aa = batch[a_col].to_numpy(zero_copy_only=False)
        bb = batch[b_col].to_numpy(zero_copy_only=False)
        for a, b in zip(aa.tolist(), bb.tolist()):
            if a not in parent:
                parent[a] = a
            if b not in parent:
                parent[b] = b
            ra, rb = find(a), find(b)
            if ra != rb:
                # union by MIN id so the root IS the component id
                lo, hi = (ra, rb) if ra < rb else (rb, ra)
                parent[hi] = lo
        logger.debug("connected_components: %d nodes folded", len(parent))

    nodes = sorted(parent)
    comp = [find(n) for n in nodes]
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(nodes, pa.int64()),
        "component": pa.array(comp, pa.int64())}))


def connected_components_distributed(pairs, a_col: str = "doc_a",
                                     b_col: str = "doc_b",
                                     max_iters: int = 50):
    """Distributed connected components by iterative min-label propagation
    — identical output to :func:`connected_components`, no driver-side
    graph state: the scale path when the pair-NODE set itself outgrows one
    machine.

    Each round: every node ships its current label to its neighbors over
    the (symmetrized) edge list via one bucketed hash join, then a
    groupby-min folds (own label ∪ neighbor labels). Labels only decrease,
    so an unchanged label SUM (exact int64) proves a fixpoint; rounds
    needed = max component diameter (LSH near-dup graphs: tiny cliques →
    1-2 rounds). Per-round cost is two exchanges over edge-count rows —
    never the corpus.

    Two iterative-Ray-Data disciplines, both measured at 2M docs / 800k
    pairs:

    * **Block-count pinning** — the sort-based aggregate emits as many
      blocks as it consumes, and ``cand.union(labels)`` adds the join's
      blocks on top each round; left alone the label table's block count
      COMPOUNDS geometrically (64→192→448→960 over three rounds) and each
      round's sort grows superlinearly with partition count (18s→35s→101s
      on constant data). Every round re-pins ``labels`` to
      :func:`.fold.coarse_parts` blocks with a split/merge repartition.
    * **Lineage cutting** — chaining rounds off ``materialize()`` drags
      the accumulated plan/stats lineage into every subsequent job:
      per-round time degrades 3s→44s over 12 rounds (a bare ``sum()``
      grows 0.2s→17s). Re-wrapping each generation's blocks via
      ``from_arrow_refs(to_arrow_refs())`` keeps rounds flat at ~2s
      (:func:`_snapshot`)."""
    import ray.data as rd

    from .join import bucketed_hash_join

    parts = fold.coarse_parts()     # via the module: tests pin the count

    def _snapshot(ds):
        # fresh Dataset over the SAME materialized blocks (zero-copy,
        # metadata-only) — drops the per-round lineage/stats chain
        return rd.from_arrow_refs(ds.to_arrow_refs())

    def sym(batch: pa.Table) -> pa.Table:
        aa = batch[a_col].to_numpy(zero_copy_only=False)
        bb = batch[b_col].to_numpy(zero_copy_only=False)
        return pa.table({"node": pa.array(np.concatenate([aa, bb])),
                         "nbr": pa.array(np.concatenate([bb, aa]))})

    edges = _snapshot(pairs.map_batches(sym, batch_format="pyarrow")
                      .repartition(parts, shuffle=False).materialize())

    def init_nodes(batch: pa.Table) -> pa.Table:
        u = np.unique(batch["node"].to_numpy(zero_copy_only=False))
        return pa.table({"node": pa.array(u), "label": pa.array(u)})

    # coarse fold, not groupby().aggregate(): node cardinality scales
    # with the candidate-pair graph (ops/fold.py, 15.7x measured) — and
    # the per-round fold below pays this EVERY propagation round
    labels = (coarse_group_agg(
        edges.map_batches(init_nodes, batch_format="pyarrow"),
        ["node"], [("label", "label", "min")])
        .repartition(parts, shuffle=False).materialize())
    labels = _snapshot(labels)
    total = labels.sum("label")

    eschema = pa.schema([("node", pa.int64()), ("nbr", pa.int64())])
    lschema = pa.schema([("node", pa.int64()), ("label", pa.int64())])
    kschema = pa.schema([("lkey", pa.int64()), ("node", pa.int64())])
    k2schema = pa.schema([("lkey", pa.int64()), ("newlabel", pa.int64())])

    def shortcut(lab):
        """Pointer doubling: label(n) := label(label(n)) — one bucketed
        self-join of the label table (every label value IS a node with a
        label row, so the inner join covers every node). Halves label-path
        lengths, turning the O(diameter) rounds of plain min-propagation
        into O(log diameter) — on an 800k-pair chain graph this cut the
        op from 409 s to the propagation of a handful of rounds."""
        lab_l = lab.map_batches(lambda b: pa.table(
            {"lkey": b["label"], "node": b["node"]}), batch_format="pyarrow")
        lab_r = lab.map_batches(lambda b: pa.table(
            {"lkey": b["node"], "newlabel": b["label"]}),
            batch_format="pyarrow")
        j = bucketed_hash_join(lab_l, lab_r, key="lkey",
                               left_schema=kschema, right_schema=k2schema)
        return j.map_batches(lambda b: pa.table(
            {"node": b["node"], "label": b["newlabel"]}),
            batch_format="pyarrow")

    for it in range(max_iters):
        sent = bucketed_hash_join(edges, labels, key="node",
                                  left_schema=eschema, right_schema=lschema)

        def to_cand(batch: pa.Table) -> pa.Table:
            # neighbor receives the sender's label as a candidate
            return pa.table({"node": batch["nbr"],
                             "label": batch["label"]})

        cand = sent.map_batches(to_cand, batch_format="pyarrow")
        labels = _snapshot(
            coarse_group_agg(cand.union(labels), ["node"],
                             [("label", "label", "min")])
            .repartition(parts, shuffle=False).materialize())
        new_total = labels.sum("label")
        # shortcut-only inner rounds: each exchanges ONLY the label table
        # (1 sort vs the 2 an edge round pays), and each composition
        # halves pointer-path lengths — a diameter-D chain needs one edge
        # round + O(log D) of these instead of D edge rounds
        for _ in range(max_iters):
            nxt = _snapshot(shortcut(labels)
                            .repartition(parts, shuffle=False).materialize())
            s = nxt.sum("label")
            if s == new_total:
                break
            labels, new_total = nxt, s
        logger.debug("cc-dist iter %d: label sum %s -> %s", it, total,
                     new_total)
        if new_total == total:      # labels only decrease: fixpoint
            break
        total = new_total
    else:
        raise RuntimeError(
            f"connected_components_distributed: no fixpoint in "
            f"{max_iters} iterations — component diameter exceeds the "
            "bound; raise max_iters")

    return labels.map_batches(
        lambda b: pa.table({"doc_id": b["node"].cast(pa.int64()),
                            "component": b["label"].cast(pa.int64())}),
        batch_format="pyarrow")

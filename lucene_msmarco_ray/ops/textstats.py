"""Text-analysis operators for training-data pipelines: token counting,
quality scoring, language-ID heuristic, document fingerprinting.

All are stateless ``map_batches`` transforms emitting flat Arrow columns;
floats are rounded to 6 dp so results hash-match the SQL oracles.

Round-2 rewrite: the per-document Python loops are gone — tokenization is
``pc.utf8_split_whitespace`` (empties filtered vectorized; equals Python's
``str.split``), per-doc reductions are ``np.add.reduceat`` over the flat
token array, uniqueness is factorize+lexsort segment counting, and the
fingerprint reuses the dedup family's SQL-reproducible polynomial gram hash
(min over 3-gram hashes) instead of per-gram md5 calls.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# small public marker-word sets (top function words per language)
LANG_MARKERS: dict[str, frozenset[str]] = {
    "en": frozenset("the and of to in is you that it he was for on are".split()),
    "fr": frozenset("le la et les des en un une du que pour dans ce il".split()),
    "de": frozenset("der die und in den von zu das mit sich des auf ist".split()),
    "es": frozenset("de la que el en y a los del se las por un para".split()),
}

STOP_SMALL = frozenset("a an the and of to is in that it".split())


def _flat_tokens(col) -> tuple[pa.Array, np.ndarray]:
    """Whitespace tokens of a string column → (flat token array, per-doc
    counts), matching Python ``str.split`` (no empty tokens). Vectorized:
    one Arrow split + one boolean filter."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lst = pc.utf8_split_whitespace(col)
    raw_counts = pc.list_value_length(lst).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(lst)
    nonempty = pc.not_equal(flat, "")
    ne = nonempty.to_numpy(zero_copy_only=False)
    # arrow split never yields an empty LIST (an empty doc gives [""]), so
    # every reduceat segment is non-degenerate
    starts = np.zeros(raw_counts.size, np.int64)
    np.cumsum(raw_counts[:-1], out=starts[1:])
    counts = np.add.reduceat(ne.astype(np.int64), starts) \
        if raw_counts.size else np.empty(0, np.int64)
    return flat.filter(nonempty), counts


def _doc_segments(counts: np.ndarray) -> np.ndarray:
    """reduceat start offsets for docs with >= 1 token (callers mask)."""
    nz = np.flatnonzero(counts)
    offs = np.zeros(nz.size, np.int64)
    np.cumsum(counts[nz][:-1], out=offs[1:])
    return nz, offs


def token_count(ds, text_col: str = "text", id_col: str = "doc_id"):
    """→ (doc_id, n_tokens, n_unique)."""

    def f(batch: pa.Table) -> pa.Table:
        flat, counts = _flat_tokens(batch[text_col])
        n_docs = counts.size
        nuniq = np.zeros(n_docs, np.int64)
        nz, offs = _doc_segments(counts)
        if nz.size:
            import pandas as pd
            codes, _ = pd.factorize(flat.to_pandas())
            doc_idx = np.repeat(nz, counts[nz])
            order = np.lexsort((codes, doc_idx))
            c, d = codes[order], doc_idx[order]
            new = np.concatenate(([True], (d[1:] != d[:-1]) | (c[1:] != c[:-1])))
            nuniq[nz] = np.add.reduceat(new.astype(np.int64), offs)
        return pa.table({"doc_id": batch[id_col].cast(pa.int64()),
                         "n_tokens": pa.array(counts),
                         "n_unique": pa.array(nuniq)})

    return ds.map_batches(f, batch_format="pyarrow")


def quality_score(ds, text_col: str = "text", id_col: str = "doc_id"):
    """→ (doc_id, n_tokens, stop_ratio, mean_token_len, uniq_ratio) — simple
    heuristic quality features (length / stopword density / repetition)."""
    stop_set = pa.array(sorted(STOP_SMALL))

    def f(batch: pa.Table) -> pa.Table:
        import pandas as pd
        flat, counts = _flat_tokens(batch[text_col])
        n_docs = counts.size
        sr = np.zeros(n_docs, np.float64)
        mtl = np.zeros(n_docs, np.float64)
        ur = np.zeros(n_docs, np.float64)
        nz, offs = _doc_segments(counts)
        if nz.size:
            nzc = counts[nz].astype(np.float64)
            is_stop = pc.is_in(flat, value_set=stop_set) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            sr[nz] = np.round(np.add.reduceat(is_stop, offs) / nzc, 6)
            tlen = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
            mtl[nz] = np.round(np.add.reduceat(tlen, offs) / nzc, 6)
            codes, _ = pd.factorize(flat.to_pandas())
            doc_idx = np.repeat(nz, counts[nz])
            order = np.lexsort((codes, doc_idx))
            c, d = codes[order], doc_idx[order]
            new = np.concatenate(([True], (d[1:] != d[:-1]) | (c[1:] != c[:-1])))
            ur[nz] = np.round(np.add.reduceat(new.astype(np.int64), offs) / nzc, 6)
        return pa.table({"doc_id": batch[id_col].cast(pa.int64()),
                         "n_tokens": pa.array(counts),
                         "stop_ratio": pa.array(sr),
                         "mean_token_len": pa.array(mtl),
                         "uniq_ratio": pa.array(ur)})

    return ds.map_batches(f, batch_format="pyarrow")


def lang_id(ds, text_col: str = "text", id_col: str = "doc_id"):
    """→ (doc_id, lang_pred, lang_score) — marker-word voting; ties broken
    alphabetically; 'und' when no marker hits."""
    langs = sorted(LANG_MARKERS)
    marker_sets = {lang: pa.array(sorted(LANG_MARKERS[lang])) for lang in langs}

    def f(batch: pa.Table) -> pa.Table:
        flat, counts = _flat_tokens(batch[text_col])
        n_docs = counts.size
        scores = np.zeros((len(langs), n_docs), np.int64)
        nz, offs = _doc_segments(counts)
        if nz.size:
            for li, lang in enumerate(langs):
                hit = pc.is_in(flat, value_set=marker_sets[lang]) \
                    .to_numpy(zero_copy_only=False).astype(np.int64)
                scores[li, nz] = np.add.reduceat(hit, offs)
        best_i = np.argmax(scores, axis=0)      # first max → alphabetical tie
        best = scores[best_i, np.arange(n_docs)]
        preds = np.where(best > 0, np.array(langs, dtype=object)[best_i], "und")
        return pa.table({"doc_id": batch[id_col].cast(pa.int64()),
                         "lang_pred": pa.array(preds, pa.string()),
                         "lang_score": pa.array(best)})

    return ds.map_batches(f, batch_format="pyarrow")


def fingerprint(ds, text_col: str = "text", id_col: str = "doc_id", n: int = 3):
    """→ (doc_id, fp) — document fingerprint = min of the polynomial rolling
    hashes of the word n-grams (1-band winnowing variant; the dedup family's
    SQL-reproducible hash, so the oracle is min over list_reduce gram
    hashes). Docs with no tokens get a NULL fp."""
    from .dedup import HASH_BASE, _gram_hashes, _poly_hashes

    def f(batch: pa.Table) -> pa.Table:
        flat, counts = _flat_tokens(batch[text_col])
        tok_h, tok_len = _poly_hashes(flat.to_pylist(), HASH_BASE)
        grams, per_doc = _gram_hashes(tok_h, tok_len, counts, n)
        fp = np.zeros(counts.size, np.int64)
        nzg = np.flatnonzero(per_doc)
        if nzg.size:
            offs = np.zeros(nzg.size, np.int64)
            np.cumsum(per_doc[nzg][:-1], out=offs[1:])
            fp[nzg] = np.minimum.reduceat(grams, offs).astype(np.int64)
        mask = per_doc > 0
        return pa.table({"doc_id": batch[id_col].cast(pa.int64()),
                         "fp": pa.array(np.where(mask, fp, 0),
                                        pa.int64(),
                                        mask=~mask)})

    return ds.map_batches(f, batch_format="pyarrow")


def _unigram_counts_ds(ds, text_col: str):
    """Reduce ``ds`` to its (term, c) count table WITHOUT bringing it to
    the driver → (materialized Dataset (term, c int64), vocab rows).
    Batch-local token counts (batch-vocabulary-sized partials) → ONE
    groupby exchange; the reduced table stays in the object store so
    callers can decide broadcast-vs-join AFTER seeing its size (count()
    on the materialized result is block metadata, not a job). Total
    tokens is NOT computed here: the broadcast path folds it from the
    pandas pull it pays anyway, and only the huge-vocab join path pays a
    distributed ``sum("c")``."""
    from ray.data.aggregate import Sum

    def count_partial(batch: pa.Table) -> pa.Table:
        flat, _ = _flat_tokens(batch[text_col])
        vc = flat.to_pandas().value_counts()
        return pa.table({
            "term": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
            "c": pa.array(vc.to_numpy(np.int64))})

    # coarse fold, not groupby().aggregate(): on unbounded-vocabulary
    # corpora the term key scales with the data, where Ray's
    # per-row-Python block merge is the wrong reduce (ops/fold.py)
    from .fold import coarse_group_agg
    vocab = (coarse_group_agg(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        ["term"], [("c", "c", "sum")]).materialize())
    return vocab, vocab.count()


def _micro_vocab_ds(vocab, total: float):
    """(term, c) Dataset → (key, micro) Dataset with the repo's
    fixed-point log convention — the join-side twin of the broadcast
    (terms, micro) arrays."""
    def f(batch: pa.Table) -> pa.Table:
        cf = batch["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        micro = np.floor(np.log(cf / total) * 1e6 + 0.5).astype(np.int64)
        return pa.table({"key": batch["term"], "micro": pa.array(micro)})
    f.__name__ = "micro_vocab"
    return vocab.map_batches(f, batch_format="pyarrow")


def _explode_terms(id_col: str, text_col: str,
                   emit_empty_docs: bool = True):
    """Batch fn: docs → batch-locally aggregated (doc_id, key, tf) unit
    rows for the bucketed-join scoring path, with a (key='', tf=0)
    sentinel per EMPTY doc so it survives the join (whitespace
    tokenization never yields an empty token). Pass
    ``emit_empty_docs=False`` for consumers whose contract DROPS empty
    docs (tf-idf)."""
    import pandas as pd

    def f(batch: pa.Table) -> pa.Table:
        flat, counts = _flat_tokens(batch[text_col])
        ids = batch[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        toks = flat.to_pandas()
        codes, uniq = pd.factorize(toks)
        if len(uniq):
            doc_idx = np.repeat(np.arange(counts.size, dtype=np.int64),
                                counts)
            pair, tf = np.unique(doc_idx * np.int64(len(uniq)) + codes,
                                 return_counts=True)
            udoc = (pair // len(uniq)).astype(np.int64)
            ucode = (pair % len(uniq)).astype(np.int64)
            uniq_arr = (uniq.to_numpy(dtype=object)
                        if hasattr(uniq, "to_numpy")
                        else np.asarray(uniq, object))
            keys = uniq_arr[ucode]
            tf = tf.astype(np.int64)
        else:
            udoc = np.empty(0, np.int64)
            keys = np.empty(0, object)
            tf = np.empty(0, np.int64)
        empty_docs = (np.flatnonzero(counts == 0) if emit_empty_docs
                      else np.empty(0, np.int64))
        if empty_docs.size:
            udoc = np.concatenate([udoc, empty_docs])
            keys = np.concatenate([keys,
                                   np.full(empty_docs.size, "", object)])
            tf = np.concatenate([tf, np.zeros(empty_docs.size, np.int64)])
        return pa.table({"doc_id": pa.array(ids[udoc].astype(np.int64)),
                         "key": pa.array(keys, pa.string()),
                         "tf": pa.array(tf)})
    f.__name__ = "explode_terms"
    return f


def _explode_pairs(id_col: str, text_col: str):
    """Batch fn: docs → batch-locally aggregated (doc_id, key, tf) over
    within-document ADJACENT-PAIR keys (``w1␟w2``), with a (key='',
    tf=0) sentinel per doc having < 2 tokens — the pair twin of
    :func:`_explode_terms` for the bucketed bigram-LM path."""
    import pandas as pd

    def f(batch: pa.Table) -> pa.Table:
        flat, counts = _flat_tokens(batch[text_col])
        ids = batch[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        npairs = np.maximum(counts - 1, 0)
        toks = flat.to_pandas()
        n = len(toks)
        udoc = np.empty(0, np.int64)
        keys = np.empty(0, object)
        tf = np.empty(0, np.int64)
        if n >= 2:
            ends = np.cumsum(counts)
            mask = np.ones(n - 1, bool)
            inner = ends[(ends > 0) & (ends < n)]
            mask[inner - 1] = False          # pairs crossing doc boundaries
            pairs = (toks.iloc[:-1].reset_index(drop=True) + _SEP
                     + toks.iloc[1:].reset_index(drop=True))[mask]
            doc_idx = np.repeat(np.arange(counts.size, dtype=np.int64),
                                counts)[:-1][mask]
            codes, uniq = pd.factorize(pairs)
            if len(uniq):
                pr, cnt = np.unique(doc_idx * np.int64(len(uniq)) + codes,
                                    return_counts=True)
                udoc = (pr // len(uniq)).astype(np.int64)
                ucode = (pr % len(uniq)).astype(np.int64)
                uniq_arr = (uniq.to_numpy(dtype=object)
                            if hasattr(uniq, "to_numpy")
                            else np.asarray(uniq, object))
                keys = uniq_arr[ucode]
                tf = cnt.astype(np.int64)
        empty_docs = np.flatnonzero(npairs == 0)
        if empty_docs.size:
            udoc = np.concatenate([udoc, empty_docs])
            keys = np.concatenate([keys,
                                   np.full(empty_docs.size, "", object)])
            tf = np.concatenate([tf, np.zeros(empty_docs.size, np.int64)])
        return pa.table({"doc_id": pa.array(ids[udoc].astype(np.int64)),
                         "key": pa.array(keys, pa.string()),
                         "tf": pa.array(tf)})
    f.__name__ = "explode_pairs"
    return f


class _LmScoreStage:
    """Scores batches against a broadcast unigram LM: the hash index over
    the vocabulary builds ONCE per actor (``__init__``), not per batch."""

    def __init__(self, bref, oov_micro: int):
        import pandas as pd
        import ray
        terms, micro = ray.get(bref)
        self.index = pd.Index(terms)
        self.micro = micro
        self.oov = np.int64(oov_micro)

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat, counts = _flat_tokens(batch["__text"])
        n_docs = counts.size
        s = np.zeros(n_docs, np.int64)
        avg = np.zeros(n_docs, np.float64)
        ppl = np.ones(n_docs, np.float64)
        nz, offs = _doc_segments(counts)
        if nz.size:
            pos = self.index.get_indexer(flat.to_pandas())
            per_tok = np.where(pos >= 0,
                               self.micro[np.clip(pos, 0, None)], self.oov)
            s[nz] = np.add.reduceat(per_tok, offs)
            a = s[nz] / 1e6 / counts[nz]
            # explicit floor(x*1e6+0.5)/1e6 rounding: avg is a ratio of
            # small integers, so exact .5 ties at 6dp are COMMON and
            # half-even (numpy) vs half-away (SQL round()) would diverge
            avg[nz] = np.floor(a * 1e6 + 0.5) / 1e6
            ppl[nz] = np.floor(np.exp(-a) * 1e6 + 0.5) / 1e6
        return pa.table({"doc_id": batch["__id"],
                         "n_tokens": pa.array(counts),
                         "avg_logprob": pa.array(avg),
                         "ppl": pa.array(ppl)})


def _finish_lm_scores(n_col: str, avg_col: str, with_ppl: bool,
                      sum_col: str | None = None):
    """Batch fn: exact (doc_id, s, n) integer sums → the public LM-score
    schema, applying the same floor(x·1e6+0.5)/1e6 rounding as the
    broadcast stages so the two paths are bit-identical."""
    def f(batch: pa.Table) -> pa.Table:
        s = batch["s"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        nz = n > 0
        avg = np.zeros(n.size, np.float64)
        a = s[nz] / 1e6 / n[nz]
        avg[nz] = np.floor(a * 1e6 + 0.5) / 1e6
        cols = {"doc_id": batch["doc_id"].cast(pa.int64()),
                n_col: pa.array(n)}
        if sum_col is not None:
            cols[sum_col] = pa.array(s)
        cols[avg_col] = pa.array(avg)
        if with_ppl:
            ppl = np.ones(n.size, np.float64)
            ppl[nz] = np.floor(np.exp(-a) * 1e6 + 0.5) / 1e6
            cols["ppl"] = pa.array(ppl)
        return pa.table(cols)
    f.__name__ = "finish_lm_scores"
    return f


def unigram_lm_perplexity(ds, text_col: str = "text", id_col: str = "doc_id",
                          score_ds=None, concurrency: int = 4,
                          max_broadcast_vocab: int | None = None):
    """Per-document unigram-LM perplexity (the CCNet/quality-filter signal)
    → (doc_id, n_tokens, avg_logprob, ppl).

    Two passes. Pass 1 trains the LM: batch-local token counts (partials are
    batch-vocabulary-sized) → ONE groupby exchange → the reduced (term, cf)
    table, the only thing materialized — bounded by vocabulary, never the
    token stream. Per-token log-probs become fixed-point micro-nats
    ``int64(floor(ln(cf/T)·1e6 + 0.5))`` so every per-doc sum is an EXACT
    integer — bit-stable under any partitioning or summation order, and the
    SQL oracle replays the same integers. Pass 2 broadcasts the (term,
    micro) arrays once via ``ray.put`` and scores with a per-actor hash
    index + ``reduceat`` (no per-row Python).

    OOV (only when ``score_ds`` differs from the training corpus): absent
    tokens cost ``ln(0.5/T)`` micro-nats. ``avg_logprob`` is
    ``sum_micro/1e6/n`` and ``ppl = exp(-avg)``; empty docs score (0, 1).

    Detect-and-switch: when the reduced vocab exceeds
    ``max_broadcast_vocab`` (default :data:`~.vocab_join
    .MAX_BROADCAST_VOCAB`) — think 100 TB of source code, whose
    identifier/hex-literal vocabulary outgrows any single node — the
    vocab stays distributed and scoring flips to the bucketed join in
    :mod:`.vocab_join`, bit-identical output."""
    import ray

    from .vocab_join import MAX_BROADCAST_VOCAB, bucketed_micro_sum

    limit = (MAX_BROADCAST_VOCAB if max_broadcast_vocab is None
             else max_broadcast_vocab)
    counts, n_vocab = _unigram_counts_ds(ds, text_col)
    target = score_ds if score_ds is not None else ds

    if n_vocab > limit:
        total = float(counts.sum("c") or 0.0)     # join path only
        oov_micro = int(np.floor(np.log(0.5 / total) * 1e6 + 0.5))
        units = target.map_batches(_explode_terms(id_col, text_col),
                                   batch_format="pyarrow")
        sums = bucketed_micro_sum(units, _micro_vocab_ds(counts, total),
                                  oov_micro)
        return sums.map_batches(
            _finish_lm_scores("n_tokens", "avg_logprob", with_ppl=True),
            batch_format="pyarrow")

    vocab = counts.to_pandas()
    cf = vocab["c"].to_numpy(np.float64)
    total = float(cf.sum())
    oov_micro = int(np.floor(np.log(0.5 / total) * 1e6 + 0.5))
    micro = np.floor(np.log(cf / total) * 1e6 + 0.5).astype(np.int64)
    terms = vocab["term"].to_numpy(dtype=object)
    bref = ray.put((terms, micro))

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"__id": batch[id_col].cast(pa.int64()),
                         "__text": batch[text_col]})

    return (target.map_batches(project, batch_format="pyarrow")
            .map_batches(_LmScoreStage, fn_constructor_args=(bref, oov_micro),
                         batch_format="pyarrow", concurrency=concurrency))


class _ImportanceStage:
    """Scores batches against a broadcast (term → micro-nat log-ratio)
    table; index builds once per actor."""

    def __init__(self, bref, default_micro: int):
        import pandas as pd
        import ray
        terms, diff = ray.get(bref)
        self.index = pd.Index(terms)
        self.diff = diff
        self.default = np.int64(default_micro)

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat, counts = _flat_tokens(batch["__text"])
        n_docs = counts.size
        s = np.zeros(n_docs, np.int64)
        avg = np.zeros(n_docs, np.float64)
        nz, offs = _doc_segments(counts)
        if nz.size:
            pos = self.index.get_indexer(flat.to_pandas())
            per_tok = np.where(pos >= 0,
                               self.diff[np.clip(pos, 0, None)],
                               self.default)
            s[nz] = np.add.reduceat(per_tok, offs)
            a = s[nz] / 1e6 / counts[nz]
            avg[nz] = np.floor(a * 1e6 + 0.5) / 1e6
        return pa.table({"doc_id": batch["__id"],
                         "n_tokens": pa.array(counts),
                         "logw_micro": pa.array(s),
                         "avg_logw": pa.array(avg)})


def importance_weights(ds, target, text_col: str = "text",
                       id_col: str = "doc_id", concurrency: int = 4,
                       max_broadcast_vocab: int | None = None):
    """DSIR-style importance weights (Xie et al. 2023, unigram variant):
    per-doc log importance ``Σ_t [ln p_target(t) − ln p_source(t)]`` where
    the source LM trains on ``ds`` and the target LM on ``target`` (the
    distribution you want more of) → (doc_id, n_tokens, logw_micro,
    avg_logw). Docs whose tokens look more target-like than source-like
    get positive weights — rank by ``logw_micro`` and resample.

    Both LMs train with the one-exchange vocabulary reduce
    (:func:`_unigram_counts_ds`); the driver folds them into a single
    (term → micro-nat log-ratio) table broadcast once, so scoring is a
    stateless actor-pool pass with exact int64 per-doc sums (bit-stable,
    SQL-replayable). Tokens absent from the target vocab cost its
    ``ln(0.5/T_target)`` floor; tokens absent from BOTH (scoring a third
    corpus) cost the floors' difference.

    Detect-and-switch: when either reduced vocab exceeds
    ``max_broadcast_vocab``, the fold happens as a distributed
    :func:`~.vocab_join.vocab_diff` and scoring as a bucketed join —
    no driver materialization, bit-identical output."""
    import pandas as pd
    import ray

    from .vocab_join import (
        MAX_BROADCAST_VOCAB,
        bucketed_micro_sum,
        vocab_diff,
    )

    limit = (MAX_BROADCAST_VOCAB if max_broadcast_vocab is None
             else max_broadcast_vocab)
    t_counts, t_n = _unigram_counts_ds(target, text_col)
    s_counts, s_n = _unigram_counts_ds(ds, text_col)

    if max(t_n, s_n) > limit:
        t_total = float(t_counts.sum("c") or 0.0)   # join path only
        s_total = float(s_counts.sum("c") or 0.0)
        t_oov = int(np.floor(np.log(0.5 / t_total) * 1e6 + 0.5))
        s_oov = int(np.floor(np.log(0.5 / s_total) * 1e6 + 0.5))
        diff = vocab_diff(_micro_vocab_ds(s_counts, s_total),
                          _micro_vocab_ds(t_counts, t_total), t_oov)
        units = ds.map_batches(_explode_terms(id_col, text_col),
                               batch_format="pyarrow")
        sums = bucketed_micro_sum(units, diff, t_oov - s_oov)
        return sums.map_batches(
            _finish_lm_scores("n_tokens", "avg_logw", with_ppl=False,
                              sum_col="logw_micro"),
            batch_format="pyarrow")

    def _driver_micro(counts):
        pdf = counts.to_pandas()
        cf = pdf["c"].to_numpy(np.float64)
        total = float(cf.sum())
        return (pdf["term"].to_numpy(dtype=object),
                np.floor(np.log(cf / total) * 1e6 + 0.5).astype(np.int64),
                int(np.floor(np.log(0.5 / total) * 1e6 + 0.5)))

    t_terms, t_micro, t_oov = _driver_micro(t_counts)
    s_terms, s_micro, s_oov = _driver_micro(s_counts)
    pos = pd.Index(t_terms).get_indexer(pd.Index(s_terms))
    tgt_m = np.where(pos >= 0, t_micro[np.clip(pos, 0, None)],
                     np.int64(t_oov))
    bref = ray.put((s_terms, tgt_m - s_micro))

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"__id": batch[id_col].cast(pa.int64()),
                         "__text": batch[text_col]})

    return (ds.map_batches(project, batch_format="pyarrow")
            .map_batches(_ImportanceStage,
                         fn_constructor_args=(bref, t_oov - s_oov),
                         batch_format="pyarrow", concurrency=concurrency))


def repetition_stats(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Within-document repetition signals (the Gopher repetition filters)
    → (doc_id, n_tokens, top_bigram_frac, dup_trigram_frac).

    * ``top_bigram_frac``  — occurrences of the doc's most frequent word
      bigram / total bigrams (0 when the doc has < 2 tokens);
    * ``dup_trigram_frac`` — fraction of trigram occurrences whose trigram
      appears ≥ 2× within the doc (0 when < 3 tokens).

    Stateless single text pass, fully vectorized: grams are the dedup
    family's composed polynomial hashes under TWO bases (62-bit combined —
    within-doc collision odds ~L²/2^63, negligible), per-doc run-length
    stats via one lexsort + ``reduceat``. The SQL oracle counts the gram
    STRINGS, so it independently checks the hash-equality semantics."""
    from .dedup import HASH_BASE, HASH_BASE2, _gram_hashes, _poly_hashes

    def f(batch: pa.Table) -> pa.Table:
        flat, counts = _flat_tokens(batch[text_col])
        n_docs = counts.size
        toks = flat.to_pylist()
        h1, tlen = _poly_hashes(toks, HASH_BASE)
        h2, _ = _poly_hashes(toks, HASH_BASE2)
        out = {}
        for k, stat in ((2, "top"), (3, "dup")):
            frac = np.zeros(n_docs, np.float64)
            g1, per_doc = _gram_hashes(h1, tlen, counts, k, HASH_BASE)
            g2, _ = _gram_hashes(h2, tlen, counts, k, HASH_BASE2)
            g = (g1 << np.uint64(31)) | g2
            nzg = np.flatnonzero(per_doc)
            if nzg.size:
                d = np.repeat(np.arange(n_docs), per_doc)
                order = np.lexsort((g, d))
                gs, dd = g[order], d[order]
                new = np.concatenate(
                    ([True], (dd[1:] != dd[:-1]) | (gs[1:] != gs[:-1])))
                run_id = np.cumsum(new) - 1
                run_len = np.bincount(run_id)
                run_doc = dd[np.flatnonzero(new)]
                rd_starts = np.flatnonzero(np.concatenate(
                    ([True], run_doc[1:] != run_doc[:-1])))
                docs_present = run_doc[rd_starts]
                if stat == "top":
                    val = np.maximum.reduceat(run_len, rd_starts)
                else:
                    val = np.add.reduceat(
                        np.where(run_len >= 2, run_len, 0), rd_starts)
                frac[docs_present] = val / per_doc[docs_present]
            # docs with < k tokens got a whole-doc gram from _gram_hashes —
            # repetition over a single gram is meaningless; define as 0
            frac[counts < k] = 0.0
            # floor(x*1e6+0.5) — the repo's half-away-from-zero convention
            # (fracs are nonnegative); np.round is half-to-even and diverges
            # from the DuckDB oracle on exact .5 ties (e.g. 1/128 at 6dp).
            out[stat] = np.floor(frac * 1e6 + 0.5) / 1e6
        return pa.table({"doc_id": batch[id_col].cast(pa.int64()),
                         "n_tokens": pa.array(counts),
                         "top_bigram_frac": pa.array(out["top"]),
                         "dup_trigram_frac": pa.array(out["dup"])})

    return ds.map_batches(f, batch_format="pyarrow")


def pmi_collocations(ds, text_col: str = "text", min_count: int = 2):
    """Top collocations by pointwise mutual information over ADJACENT
    whitespace-token pairs → (bigram "x^y", n_xy, pmi), pmi rounded to 6.

    ``PMI(x,y) = ln(c_xy * T^2 / (B * c_x * c_y))`` with T = total tokens,
    B = total bigrams (corpus-wide; bigrams never cross document
    boundaries).

    Scale shape: ONE pass over the text emits pre-aggregated per-batch
    (x, y, n) partials — unigrams ride in the same table as y='' rows, so
    unigram and bigram counting share a single groupby exchange whose
    input is batch-vocabulary-sized, never token-stream-sized. The reduced
    count table is materialized (bounded by distinct bigrams, not the
    corpus); the unigram slice (vocabulary-sized — the documented
    broadcast-side assumption, same as the df broadcast in the feedback
    family) is broadcast once via ray.put for the final vectorized score
    map."""
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        flat, counts = _flat_tokens(batch[text_col])
        toks = flat.to_pandas()
        n = len(toks)
        uc = toks.value_counts()
        xs = [uc.index.to_numpy(dtype=object)]
        ys = [np.full(len(uc), "", dtype=object)]
        ns = [uc.to_numpy(np.int64)]
        if n >= 2:
            ends = np.cumsum(counts)
            mask = np.ones(n - 1, bool)
            inner = ends[(ends > 0) & (ends < n)]
            mask[inner - 1] = False      # pairs crossing doc boundaries
            v = toks.to_numpy(dtype=object)
            bc = pd.DataFrame({"x": v[:-1][mask], "y": v[1:][mask]}) \
                .groupby(["x", "y"], sort=True).size()
            if len(bc):
                idx = bc.index
                xs.append(idx.get_level_values(0).to_numpy(dtype=object))
                ys.append(idx.get_level_values(1).to_numpy(dtype=object))
                ns.append(bc.to_numpy(np.int64))
        return pa.table({"x": pa.array(np.concatenate(xs), pa.string()),
                         "y": pa.array(np.concatenate(ys), pa.string()),
                         "n": pa.array(np.concatenate(ns), pa.int64())})

    from .fold import coarse_group_agg
    counts = coarse_group_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["x", "y"], [("sum(n)", "n", "sum")]).materialize()
    uni = counts.filter(expr="y == ''").to_pandas()
    total_t = float(uni["sum(n)"].sum())
    total_b = float(counts.filter(expr="y != ''").sum("sum(n)") or 0)
    cref = ray.put(dict(zip(uni["x"], uni["sum(n)"].astype(float))))

    def score(batch: pa.Table) -> pa.Table:
        cm = ray.get(cref)
        df = batch.to_pandas()
        df = df[df["sum(n)"] >= min_count]
        nxy = df["sum(n)"].to_numpy(np.float64)
        cx = df["x"].map(cm).to_numpy(np.float64)
        cy = df["y"].map(cm).to_numpy(np.float64)
        pmi = np.log(nxy * total_t * total_t / (total_b * cx * cy))
        return pa.table({
            "bigram": pa.array((df["x"] + "^" + df["y"]).to_numpy(object),
                               pa.string()),
            "n_xy": pa.array(df["sum(n)"].to_numpy(np.int64)),
            "pmi": pc.round(pa.array(pmi, pa.float64()), ndigits=6)})

    return counts.filter(expr="y != ''") \
        .map_batches(score, batch_format="pyarrow")


def normalize_text(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Curation text normalization → (doc_id, norm_text, n_chars_norm):
    lowercase, collapse whitespace runs to one space, trim. All three are
    single Arrow kernels (utf8_lower / replace_substring_regex /
    utf8_trim_whitespace — RE2, same dialect the SQL oracle's
    regexp_replace uses), so the stage is zero-copy streaming with no
    Python in the loop."""

    def f(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        norm = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(pc.utf8_lower(col), r"\s+", " "))
        return pa.table({
            "doc_id": batch[id_col].cast(pa.int64()),
            "norm_text": norm,
            "n_chars_norm": pc.utf8_length(norm).cast(pa.int64()),
        })

    return ds.map_batches(f, batch_format="pyarrow")


def importance_resample(weights, n: int, logw_col: str = "logw_micro",
                        id_col: str = "doc_id", salt: int = 7):
    """Gumbel top-k resampling — the DSIR selection step: draw ``n`` docs
    WITHOUT replacement with probability ∝ softmax(log-weights) (Gumbel
    top-k ≡ weighted sampling without replacement), fully deterministic:
    the per-doc uniform is the multiplicative id hash
    ``u = (mix32(id)+0.5)/2^32``, the key is ``logw + (-ln(-ln u))``, and
    the ``n`` largest keys win (ties on id — measure-zero anyway).

    Scale shape: each block contributes at most ``n`` candidates to one
    bounded reduce — the ``sample_n`` pattern; no shuffle of the input.
    → (doc_id, logw_micro, gumbel_key), key rounded by the shared
    floor(x·1e6+0.5)/1e6 convention."""
    from .relational import _M32, _mix32

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        lw = batch[logw_col].to_numpy(zero_copy_only=False)
        u = (_mix32(ids, salt).astype(np.float64) + 0.5) / _M32
        key = lw / 1e6 + (-np.log(-np.log(u)))
        if key.size > n:
            keep = np.argpartition(-key, n - 1)[:n]
            ids, lw, key = ids[keep], lw[keep], key[keep]
        return pa.table({id_col: pa.array(ids.astype(np.int64)),
                         logw_col: pa.array(lw.astype(np.int64)),
                         "__k": pa.array(key)})

    def final(batch: pa.Table) -> pa.Table:
        key = batch["__k"].to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -key))[:n]
        t = batch.take(pa.array(order))
        k6 = np.floor(t["__k"].to_numpy(zero_copy_only=False) * 1e6
                      + 0.5) / 1e6
        return pa.table({id_col: t[id_col], logw_col: t[logw_col],
                         "gumbel_key": pa.array(k6)})

    return (weights.map_batches(partial, batch_format="pyarrow")
            .repartition(1)
            .map_batches(final, batch_format="pyarrow", batch_size=None))


def heavy_hitters(ds, text_col: str = "text", k: int = 50,
                  id_col: str = "doc_id"):
    """EXACT frequent terms — every term with count > total_tokens/k, with
    its exact count → (term, cf). Two passes built on the mergeable
    Misra-Gries summary (Agarwal et al. 2013):

    1. each batch compresses its token counts to ≤ k MG counters (exact
       batch counts minus the (k+1)-th largest — the counted-multiset MG
       step); the driver folds the block summaries and re-compresses, so
       driver state is O(k) regardless of vocabulary. MG guarantees the
       surviving counters are a SUPERSET of all terms above total/k.
    2. the candidate set (≤ k terms) broadcasts; one pre-aggregated
       exchange computes their exact corpus counts, and the final filter
       ``cf · k > total`` is pure integer arithmetic — identical in the
       SQL oracle, so the output is exact, not approximate; the sketch
       only prunes.
    """
    import ray
    from ray.data.aggregate import Sum

    def mg_partial(batch: pa.Table) -> pa.Table:
        flat, _ = _flat_tokens(batch[text_col])
        vc = flat.to_pandas().value_counts()
        if len(vc) > k:
            d = int(vc.iloc[k])             # (k+1)-th largest count
            vc = (vc - d).iloc[:k]
            vc = vc[vc > 0]
        return pa.table({
            "term": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
            "c": pa.array(vc.to_numpy(np.int64)),
        })

    acc: dict[str, int] = {}
    for b in ds.map_batches(mg_partial, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow", batch_size=65536):
        for t, c in zip(b["term"].to_pylist(),
                        b["c"].to_numpy(zero_copy_only=False).tolist()):
            acc[t] = acc.get(t, 0) + c
        if len(acc) > k:                    # driver-side MG re-compress
            d = sorted(acc.values(), reverse=True)[k]
            acc = {t: c - d for t, c in acc.items() if c - d > 0}
    candidates = sorted(acc)

    cref = ray.put(pa.array(candidates, pa.string()))

    def exact_counts(batch: pa.Table) -> pa.Table:
        # exact candidate counts PLUS the batch token total as a sentinel
        # row (term = "" — tokens are never empty), so the threshold total
        # rides the same exchange and no third text scan is needed
        cand = ray.get(cref)
        flat, _ = _flat_tokens(batch[text_col])
        hit = flat.filter(pc.is_in(flat, value_set=cand))
        vc = hit.to_pandas().value_counts()
        terms = list(vc.index) + [""]
        cs = list(vc.to_numpy(np.int64)) + [len(flat)]
        return pa.table({"term": pa.array(terms, pa.string()),
                         "c": pa.array(np.asarray(cs, np.int64))})

    agg = (ds.map_batches(exact_counts, batch_format="pyarrow")
           .groupby("term").aggregate(Sum("c")).materialize())
    total = int(agg.filter(expr="term == ''").to_pandas()["sum(c)"].iloc[0])

    def finish(batch: pa.Table) -> pa.Table:
        terms = batch["term"].to_numpy(zero_copy_only=False)
        cf = batch["sum(c)"].to_numpy(zero_copy_only=False)
        keep = (cf * k > total) & (terms != "")   # exact integer compare
        t = batch.filter(pa.array(keep))
        return pa.table({"term": t["term"],
                         "cf": t["sum(c)"].cast(pa.int64())})

    return agg.map_batches(finish, batch_format="pyarrow")


_SEP = "\x1f"    # unit separator — never appears in whitespace tokens


class _PairMicro:
    """(pair, c) batches → (key, micro) against the broadcast unigram
    counts ``uref`` = ref of (terms, counts); per-actor hash index, built
    once."""

    def __init__(self, uref, lam: float, total: float):
        import pandas as pd
        import ray
        terms, cnt = ray.get(uref)
        self.index = pd.Index(terms)
        self.cnt = cnt
        self.lam = lam
        self.total = total

    def _counts(self, words) -> np.ndarray:
        # a word missing from the table (a different corpus) counts 1, as
        # in the two-level path
        pos = self.index.get_indexer(words)
        return np.where(pos >= 0, self.cnt[np.clip(pos, 0, None)], 1.0)

    def __call__(self, batch: pa.Table) -> pa.Table:
        prs = batch["pair"].to_pandas()
        c12 = batch["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        w1 = prs.str.split(_SEP).str[0]
        w2 = prs.str.split(_SEP).str[1]
        c1, c2 = self._counts(w1), self._counts(w2)
        p = self.lam * c12 / c1 + (1.0 - self.lam) * c2 / self.total
        micro = np.floor(np.log(p) * 1e6 + 0.5).astype(np.int64)
        return pa.table({"key": batch["pair"], "micro": pa.array(micro)})


def bigram_lm_perplexity(ds, text_col: str = "text",
                         id_col: str = "doc_id", lam: float = 0.9,
                         concurrency: int = 4,
                         max_broadcast_vocab: int | None = None):
    """Per-document interpolated bigram-LM perplexity →
    (doc_id, n_pairs, avg_logprob, ppl): ``p(w2|w1) = λ·c(w1w2)/c(w1)
    + (1−λ)·c(w2)/T`` over adjacent within-document pairs — the next
    step up from :func:`unigram_lm_perplexity` toward the KenLM-style
    quality filters.

    Shapes: bigram and unigram counts each reduce through ONE
    pre-aggregated exchange (partials are batch-vocabulary-sized); the
    driver folds them into a single (pair → micro-nat) table broadcast
    once — bounded by the DISTINCT-bigram vocabulary. Per-pair log-probs
    are int64 micro-nats → exact per-doc sums, SQL-replayed; docs with
    < 2 tokens score (0 pairs, 0, 1).

    Detect-and-switch: a bigram vocab past ``max_broadcast_vocab`` stays
    a distributed Dataset — per-pair micros are computed by a stateless
    actor pass over it (against the still-broadcastable UNIGRAM table)
    and scoring flips to the bucketed join, bit-identical. When even the
    unigram vocab exceeds the limit, per-pair c(w1) / c(w2) resolve
    through TWO :func:`~.vocab_join.lookup_micro` exchanges over the
    distributed unigram table instead (counts ride the micro slot) —
    nothing is ever broadcast, still bit-identical to both other
    paths."""
    import pandas as pd
    import ray

    def pair_partials(batch: pa.Table) -> pa.Table:
        flat, counts = _flat_tokens(batch[text_col])
        toks = flat.to_pandas()
        n = len(toks)
        if n < 2:
            return pa.table({"pair": pa.array([], pa.string()),
                             "c": pa.array([], pa.int64())})
        ends = np.cumsum(counts)
        mask = np.ones(n - 1, bool)
        inner = ends[(ends > 0) & (ends < n)]
        mask[inner - 1] = False          # pairs crossing doc boundaries
        pairs = (toks.iloc[:-1].reset_index(drop=True) + _SEP
                 + toks.iloc[1:].reset_index(drop=True))[mask]
        vc = pairs.value_counts()
        return pa.table({
            "pair": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
            "c": pa.array(vc.to_numpy(np.int64))})

    from .fold import coarse_group_agg
    bi_ds = (coarse_group_agg(
        ds.map_batches(pair_partials, batch_format="pyarrow"),
        ["pair"], [("c", "c", "sum")]).materialize())
    uni_ds, n_uni = _unigram_counts_ds(ds, text_col)

    from .vocab_join import (MAX_BROADCAST_VOCAB, bucketed_micro_sum,
                             lookup_micro)
    limit = (MAX_BROADCAST_VOCAB if max_broadcast_vocab is None
             else max_broadcast_vocab)

    if bi_ds.count() > limit:
        if n_uni > limit:
            # two-level distributed path: the UNIGRAM table also stays a
            # Dataset. total folds from one Sum job; per-pair c(w1)/c(w2)
            # resolve via two bucketed lookup exchanges; the per-pair
            # float arithmetic below is the same expression as the
            # broadcast paths, so micros (and hence scores) are
            # bit-identical. Misses (scoring a corpus disjoint from the
            # trained one) get count 1 — the same "never triggers on
            # self-scoring" caveat as the pair-level oov floor.
            total = float(uni_ds.sum("c"))
            oov = int(np.floor(np.log((1.0 - lam) * 0.5 / total)
                               * 1e6 + 0.5))

            def as_kv(batch: pa.Table) -> pa.Table:
                return pa.table({"key": batch["term"],
                                 "micro": batch["c"].cast(pa.int64())})

            uni_kv = uni_ds.map_batches(as_kv, batch_format="pyarrow")

            def split_pair(batch: pa.Table) -> pa.Table:
                prs = batch["pair"].to_pandas()
                return pa.table({
                    "pair": batch["pair"].combine_chunks().cast(pa.string()),
                    "c12": batch["c"].cast(pa.int64()),
                    "w1": pa.array(
                        prs.str.split(_SEP).str[0].to_numpy(object),
                        pa.string()),
                    "w2": pa.array(
                        prs.str.split(_SEP).str[1].to_numpy(object),
                        pa.string())})

            sch1 = pa.schema([pa.field("pair", pa.string()),
                              pa.field("c12", pa.int64()),
                              pa.field("w1", pa.string()),
                              pa.field("w2", pa.string())])
            sch2 = sch1.append(pa.field("__c1", pa.int64()))
            pr = bi_ds.map_batches(split_pair, batch_format="pyarrow")
            pr = lookup_micro(pr, "w1", uni_kv, out_col="__c1",
                              default_micro=1, rows_schema=sch1)
            pr = lookup_micro(pr, "w2", uni_kv, out_col="__c2",
                              default_micro=1, rows_schema=sch2)

            def to_micro(batch: pa.Table) -> pa.Table:
                c12 = batch["c12"].to_numpy(zero_copy_only=False) \
                    .astype(np.float64)
                c1 = batch["__c1"].to_numpy(zero_copy_only=False) \
                    .astype(np.float64)
                c2 = batch["__c2"].to_numpy(zero_copy_only=False) \
                    .astype(np.float64)
                p = lam * c12 / c1 + (1.0 - lam) * c2 / total
                micro = np.floor(np.log(p) * 1e6 + 0.5).astype(np.int64)
                return pa.table({"key": batch["pair"],
                                 "micro": pa.array(micro)})

            pair_micro = pr.map_batches(to_micro, batch_format="pyarrow")
            units = ds.map_batches(_explode_pairs(id_col, text_col),
                                   batch_format="pyarrow")
            sums = bucketed_micro_sum(units, pair_micro, oov)
            return sums.map_batches(
                _finish_lm_scores("n_pairs", "avg_logprob", with_ppl=True),
                batch_format="pyarrow")
        uni = uni_ds.to_pandas()
        # both paths pull the unigram table to the driver anyway (the
        # join path still broadcasts it), so total folds from pandas —
        # no distributed sum job
        total = float(uni["c"].sum())
        # unseen pair (scoring a different corpus): back off to the
        # unigram interpolation floor using c12=0 — per-w2 value;
        # approximate with the corpus-level floor ln((1-λ)·0.5/T)
        # (never triggers on self-scoring)
        oov = int(np.floor(np.log((1.0 - lam) * 0.5 / total) * 1e6 + 0.5))
        uref = ray.put((uni["term"].to_numpy(dtype=object),
                        uni["c"].to_numpy(np.float64)))
        pair_micro = bi_ds.map_batches(
            _PairMicro, fn_constructor_kwargs=dict(
                uref=uref, lam=lam, total=total),
            batch_format="pyarrow", concurrency=concurrency)
        units = ds.map_batches(_explode_pairs(id_col, text_col),
                               batch_format="pyarrow")
        sums = bucketed_micro_sum(units, pair_micro, oov)
        return sums.map_batches(
            _finish_lm_scores("n_pairs", "avg_logprob", with_ppl=True),
            batch_format="pyarrow")

    bi = bi_ds.to_pandas().rename(columns={"c": "sum(c)"})
    uni = uni_ds.to_pandas()
    total = float(uni["c"].sum())
    oov = int(np.floor(np.log((1.0 - lam) * 0.5 / total) * 1e6 + 0.5))
    cmap = pd.Series(uni["c"].to_numpy(np.float64), index=uni["term"])
    w1 = bi["pair"].str.split(_SEP).str[0]
    w2 = bi["pair"].str.split(_SEP).str[1]
    c12 = bi["sum(c)"].to_numpy(np.float64)
    c1 = cmap.reindex(w1).to_numpy(np.float64)
    c2 = cmap.reindex(w2).to_numpy(np.float64)
    p = lam * c12 / c1 + (1.0 - lam) * c2 / total
    micro = np.floor(np.log(p) * 1e6 + 0.5).astype(np.int64)
    bref = ray.put((bi["pair"].to_numpy(dtype=object), micro))

    class _BiScore:
        def __init__(self):
            terms, m = ray.get(bref)
            self.index = pd.Index(terms)
            self.micro = m

        def __call__(self, batch: pa.Table) -> pa.Table:
            flat, counts = _flat_tokens(batch["__text"])
            n_docs = counts.size
            s = np.zeros(n_docs, np.int64)
            npairs = np.maximum(counts - 1, 0)
            avg = np.zeros(n_docs, np.float64)
            ppl = np.ones(n_docs, np.float64)
            toks = flat.to_pandas()
            n = len(toks)
            if n >= 2:
                ends = np.cumsum(counts)
                mask = np.ones(n - 1, bool)
                inner = ends[(ends > 0) & (ends < n)]
                mask[inner - 1] = False
                pairs = (toks.iloc[:-1].reset_index(drop=True) + _SEP
                         + toks.iloc[1:].reset_index(drop=True))[mask]
                pos = self.index.get_indexer(pd.Index(pairs))
                per = np.where(pos >= 0,
                               self.micro[np.clip(pos, 0, None)],
                               np.int64(oov))
                # int64 segment sums (reduceat) — bincount's float64 weight
                # accumulation loses exactness past 2^53 micro-nats/doc
                nz, offs = _doc_segments(npairs)
                s[nz] = np.add.reduceat(per.astype(np.int64), offs)
                a = s[nz] / 1e6 / npairs[nz]
                avg[nz] = np.floor(a * 1e6 + 0.5) / 1e6
                ppl[nz] = np.floor(np.exp(-a) * 1e6 + 0.5) / 1e6
            return pa.table({"doc_id": batch["__id"],
                             "n_pairs": pa.array(npairs),
                             "avg_logprob": pa.array(avg),
                             "ppl": pa.array(ppl)})

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"__id": batch[id_col].cast(pa.int64()),
                         "__text": batch[text_col]})

    return (ds.map_batches(project, batch_format="pyarrow")
            .map_batches(_BiScore, batch_format="pyarrow",
                         concurrency=concurrency))


def chunk_boundaries(ds, chunk_tokens: int = 64, text_col: str = "text",
                     id_col: str = "doc_id"):
    """Within-document fixed-size chunking → one row per chunk:
    (doc_id, chunk_id, tok_start, n_tokens) with 1-based token offsets —
    the context-window splitting step that complements
    :func:`~lucene_msmarco_ray.ops.relational.pack_sequences` (which bins
    whole documents). Emitting BOUNDARIES rather than text keeps the
    stage zero-copy; materializing chunk text is a trivial downstream map
    over (tok_start, n_tokens). Stateless, no shuffle; empty docs emit
    no chunks."""

    def f(batch: pa.Table) -> pa.Table:
        _, counts = _flat_tokens(batch[text_col])
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        nchunks = -(-counts // chunk_tokens)        # ceil; 0 for empty
        doc_rep = np.repeat(ids, nchunks)
        cnt_rep = np.repeat(counts, nchunks)
        # chunk ordinal within each doc: global arange minus segment start
        starts = np.concatenate(([0], np.cumsum(nchunks)[:-1]))
        cid = (np.arange(int(nchunks.sum()), dtype=np.int64)
               - np.repeat(starts, nchunks))
        tok_start = cid * chunk_tokens + 1
        ntok = np.minimum(cnt_rep - cid * chunk_tokens, chunk_tokens)
        return pa.table({
            "doc_id": pa.array(doc_rep),
            "chunk_id": pa.array(cid),
            "tok_start": pa.array(tok_start),
            "n_tokens": pa.array(ntok.astype(np.int64))})

    return ds.map_batches(f, batch_format="pyarrow")


def _df_counts_ds(ds, text_col: str):
    """One exchange → (materialized Dataset (term, df int64), N docs,
    vocab rows). Pass-1 partials are batch-local distinct-(doc,term)
    counts (batch-vocabulary-sized) plus a sentinel row (term='',
    df=docs-in-batch) so document count N rides the same reduce; '' can
    never be a token (whitespace split drops empties). The reduced table
    stays in the object store so :func:`tfidf_keywords` can decide
    broadcast-vs-join after seeing its size. ``micro_idf =
    floor(ln(N/df)·1e6 + 0.5)`` — the repo's fixed-point log convention,
    replayed exactly by the SQL oracle."""
    import pandas as pd

    def df_partial(batch: pa.Table) -> pa.Table:
        flat, counts = _flat_tokens(batch[text_col])
        toks = flat.to_pandas()
        codes, uniq = pd.factorize(toks)
        doc_idx = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        if len(uniq):
            pair = doc_idx * np.int64(len(uniq)) + codes
            upair = np.unique(pair)
            dfp = np.bincount((upair % len(uniq)).astype(np.int64),
                              minlength=len(uniq)).astype(np.int64)
        else:
            dfp = np.empty(0, np.int64)
        terms = np.concatenate([uniq.to_numpy(dtype=object)
                                if hasattr(uniq, "to_numpy")
                                else np.asarray(uniq, object), [""]])
        return pa.table({
            "term": pa.array(terms, pa.string()),
            "df": pa.array(np.concatenate([dfp, [counts.size]]))})

    from .fold import coarse_group_agg
    red = (coarse_group_agg(
        ds.map_batches(df_partial, batch_format="pyarrow"),
        ["term"], [("df", "df", "sum")]).materialize())
    # sentinel INCLUDED: extracting N here would cost a filter/take job;
    # the broadcast path reads it from the pandas pull it pays anyway and
    # only the huge-vocab join path pays the distributed filter
    return red, red.count() - 1


def _split_df_total(pdf):
    """(term, df) pandas WITH the sentinel row → (vocab rows, N docs)."""
    is_sent = pdf["term"] == ""
    n_docs = int(pdf.loc[is_sent, "df"].iloc[0])
    return pdf[~is_sent], n_docs


def _df_micro_idf(ds, text_col: str):
    """Driver-array form of :func:`_df_counts_ds` for the broadcast
    path → (terms, micro_idf int64, N)."""
    red, _n = _df_counts_ds(ds, text_col)
    pdf, n_docs = _split_df_total(red.to_pandas())
    terms = pdf["term"].to_numpy(dtype=object)
    df = pdf["df"].to_numpy(np.float64)
    micro = np.floor(np.log(n_docs / df) * 1e6 + 0.5).astype(np.int64)
    return terms, micro, n_docs


class _TfidfStage:
    """Selects each doc's top-k tf-idf terms against the broadcast
    (term → micro-idf) table; hash index builds once per actor. Docs are
    single rows, so top-k needs NO exchange — one lexsort per batch."""

    def __init__(self, bref, k: int):
        import pandas as pd
        import ray
        terms, micro = ray.get(bref)
        self.index = pd.Index(terms)
        self.micro = micro
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pandas as pd
        flat, counts = _flat_tokens(batch["__text"])
        ids = batch["__id"].to_numpy(zero_copy_only=False)
        toks = flat.to_pandas()
        codes, uniq = pd.factorize(toks)
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "term": pa.array([], pa.string()),
                          "tf": pa.array([], pa.int64()),
                          "score": pa.array([], pa.float64())})
        if not len(uniq):
            return empty
        doc_idx = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        pair, tf = np.unique(doc_idx * np.int64(len(uniq)) + codes,
                             return_counts=True)
        udoc = (pair // len(uniq)).astype(np.int64)
        ucode = (pair % len(uniq)).astype(np.int64)
        uniq_arr = (uniq.to_numpy(dtype=object) if hasattr(uniq, "to_numpy")
                    else np.asarray(uniq, object))
        pos = self.index.get_indexer(pd.Index(uniq_arr))
        # same corpus both passes → every term is known; guard regardless
        micro_u = np.where(pos >= 0, self.micro[np.clip(pos, 0, None)], 0)
        score_micro = tf.astype(np.int64) * micro_u[ucode]
        terms_row = uniq_arr[ucode]
        order = np.lexsort((terms_row, -score_micro, udoc))
        udoc, tf = udoc[order], tf[order]
        terms_row, score_micro = terms_row[order], score_micro[order]
        seg = np.flatnonzero(np.concatenate(([True], udoc[1:] != udoc[:-1])))
        rank = np.arange(udoc.size, dtype=np.int64) \
            - np.repeat(seg, np.diff(np.append(seg, udoc.size)))
        keep = rank < self.k
        return pa.table({
            "doc_id": pa.array(ids[udoc[keep]].astype(np.int64)),
            "term": pa.array(terms_row[keep], pa.string()),
            "tf": pa.array(tf[keep].astype(np.int64)),
            "score": pa.array(score_micro[keep] / 1e6)})


def tfidf_keywords(ds, k: int = 5, text_col: str = "text",
                   id_col: str = "doc_id", concurrency=(1, 4),
                   max_broadcast_vocab: int | None = None):
    """Top-k tf-idf keywords per document → (doc_id, term, tf, score),
    ``score = tf · floor(ln(N/df)·1e6+0.5)/1e6`` ranked per doc by
    (score desc, term asc); empty docs yield no rows.

    Two passes over the text, ONE vocabulary-bounded exchange: pass 1
    reduces batch-local distinct-(doc,term) partials to the global (term,
    df) table (+ N via a sentinel term), which is broadcast once via
    ``ray.put``; pass 2 recomputes per-doc tf in-batch and ranks — a doc
    is one row, so the top-k selection is batch-local and the scored
    (doc, term) stream never crosses an exchange. Fixed-point micro-idf
    keeps scores bit-stable under any partitioning and SQL-replayable.

    Detect-and-switch: past ``max_broadcast_vocab`` the (term, df) table
    stays distributed, idf resolution becomes the bucketed join in
    :mod:`.vocab_join` and the per-doc top-k a
    :func:`~.relational.topk_per_group` — bit-identical rows at the cost
    of exchanging the scored (doc, term) stream, the honest price when
    the vocab can't fit one node."""
    import ray

    from .vocab_join import MAX_BROADCAST_VOCAB, resolve_micro

    limit = (MAX_BROADCAST_VOCAB if max_broadcast_vocab is None
             else max_broadcast_vocab)
    red, n_vocab = _df_counts_ds(ds, text_col)

    if n_vocab > limit:
        from .relational import topk_per_group

        # join path only: extract N + drop the sentinel distributed
        n_docs = int(red.filter(expr="term == ''").take(1)[0]["df"])
        vocab = red.filter(expr="term != ''")

        def to_micro(batch: pa.Table) -> pa.Table:
            df = batch["df"].to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            micro = np.floor(np.log(n_docs / df) * 1e6 + 0.5) \
                .astype(np.int64)
            return pa.table({"key": batch["term"],
                             "micro": pa.array(micro)})

        units = ds.map_batches(
            _explode_terms(id_col, text_col, emit_empty_docs=False),
            batch_format="pyarrow")
        resolved = resolve_micro(
            units, vocab.map_batches(to_micro, batch_format="pyarrow"),
            default_micro=0)

        def score(batch: pa.Table) -> pa.Table:
            tf = batch["tf"].to_numpy(zero_copy_only=False)
            micro = batch["micro"].to_numpy(zero_copy_only=False)
            return batch.append_column(
                "score_micro", pa.array((tf * micro).astype(np.int64)))

        top = topk_per_group(
            resolved.map_batches(score, batch_format="pyarrow"),
            ["doc_id"], "score_micro", k, descending=True,
            tie_cols=["key"])

        def finish(batch: pa.Table) -> pa.Table:
            sm = batch["score_micro"].to_numpy(zero_copy_only=False)
            return pa.table({
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "term": batch["key"].cast(pa.string()),
                "tf": batch["tf"].cast(pa.int64()),
                "score": pa.array(sm / 1e6)})
        return top.map_batches(finish, batch_format="pyarrow")

    pdf, n_docs = _split_df_total(red.to_pandas())
    terms = pdf["term"].to_numpy(dtype=object)
    dfv = pdf["df"].to_numpy(np.float64)
    micro = np.floor(np.log(n_docs / dfv) * 1e6 + 0.5).astype(np.int64)
    bref = ray.put((terms, micro))

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"__id": batch[id_col].cast(pa.int64()),
                         "__text": batch[text_col]})

    return (ds.map_batches(project, batch_format="pyarrow")
            .map_batches(_TfidfStage, fn_constructor_args=(bref, k),
                         batch_format="pyarrow", concurrency=concurrency))

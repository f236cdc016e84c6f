"""Bucketed vocab-join fallback parity: every textstats op that
broadcasts its reduced vocabulary must produce BIT-IDENTICAL output when
forced onto the :mod:`lucene_msmarco_ray.ops.vocab_join` path with
``max_broadcast_vocab=1`` (every real vocab exceeds 1, so the huge-vocab
branch is exercised on the same tiny inputs the broadcast goldens use).

Inputs deliberately include the fallback's hard cases: empty documents
(sentinel rows must survive the join), single-token documents (the
bigram sentinel), repeated tokens (tf aggregation), OOV tokens when the
scored corpus differs from the trained one, and enough distinct keys
that one document's terms land in several hash buckets.
"""

import numpy as np
import pandas as pd
import pytest


def _docs(rows, blocks=3):
    import ray.data as rd
    return rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(rows)],
        override_num_blocks=blocks)


CORPUS = [
    "the quick brown fox jumps over the lazy dog",
    "pack my box with five dozen liquor jugs",
    "the the the repeated token stream the",
    "",                       # empty doc — must ride the sentinel
    "solo",                   # single token — bigram sentinel case
    "a b c d e f g h i j k l m n o p q r s t u v w x y z",
    "quick quick brown brown fox fox",
    "zeta eta theta iota kappa lambda mu nu xi omicron",
]

SCORE = [
    "the quick unseen-token fox",
    "completely novel words only",
    "",
    "solo",
]


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return (df.sort_values(list(df.columns))
            .reset_index(drop=True))


def _parity(broadcast_df, fallback_df):
    b, f = _sorted(broadcast_df), _sorted(fallback_df)
    assert list(b.columns) == list(f.columns)
    pd.testing.assert_frame_equal(b, f)


def test_unigram_ppl_fallback_parity(ray_session):
    from lucene_msmarco_ray.ops.textstats import unigram_lm_perplexity
    b = unigram_lm_perplexity(_docs(CORPUS), concurrency=1).to_pandas()
    f = unigram_lm_perplexity(_docs(CORPUS), concurrency=1,
                              max_broadcast_vocab=1).to_pandas()
    _parity(b, f)
    # fallback really ran: it has rows for every doc incl. the empty one
    assert sorted(f["doc_id"]) == list(range(len(CORPUS)))


def test_unigram_ppl_fallback_oov_parity(ray_session):
    from lucene_msmarco_ray.ops.textstats import unigram_lm_perplexity
    b = unigram_lm_perplexity(_docs(CORPUS), score_ds=_docs(SCORE),
                              concurrency=1).to_pandas()
    f = unigram_lm_perplexity(_docs(CORPUS), score_ds=_docs(SCORE),
                              concurrency=1,
                              max_broadcast_vocab=1).to_pandas()
    _parity(b, f)
    assert sorted(f["doc_id"]) == list(range(len(SCORE)))


def test_importance_weights_fallback_parity(ray_session):
    from lucene_msmarco_ray.ops.textstats import importance_weights
    b = importance_weights(_docs(CORPUS), _docs(SCORE),
                           concurrency=1).to_pandas()
    f = importance_weights(_docs(CORPUS), _docs(SCORE), concurrency=1,
                           max_broadcast_vocab=1).to_pandas()
    _parity(b, f)
    assert sorted(f["doc_id"]) == list(range(len(CORPUS)))


def test_bigram_ppl_fallback_parity(ray_session):
    from lucene_msmarco_ray.ops.textstats import bigram_lm_perplexity
    # bigram vocab (pairs) over limit, unigram vocab under it: pick the
    # limit between the two counts so the _PairMicro branch is the one
    # exercised (the fully distributed two-level path is tested separately).
    n_uni = len({t for d in CORPUS for t in d.split()})
    b = bigram_lm_perplexity(_docs(CORPUS), concurrency=1).to_pandas()
    f = bigram_lm_perplexity(_docs(CORPUS), concurrency=1,
                             max_broadcast_vocab=n_uni).to_pandas()
    _parity(b, f)
    assert sorted(f["doc_id"]) == list(range(len(CORPUS)))


def test_bigram_ppl_two_level_parity(ray_session):
    """max_broadcast_vocab=0 forces the FULLY distributed path: bigram
    AND unigram vocab both stay Datasets, c(w1)/c(w2) resolve through
    two lookup_micro exchanges — output bit-identical to broadcast."""
    from lucene_msmarco_ray.ops.textstats import bigram_lm_perplexity
    b = bigram_lm_perplexity(_docs(CORPUS), concurrency=1).to_pandas()
    f = bigram_lm_perplexity(_docs(CORPUS), concurrency=1,
                             max_broadcast_vocab=0).to_pandas()
    _parity(b, f)
    assert sorted(f["doc_id"]) == list(range(len(CORPUS)))


def test_lookup_micro_contract(ray_session, monkeypatch):
    """Direct lookup_micro check: rider columns (string + int64)
    survive untouched, misses get default_micro, vocab-only partitions
    emit nothing, and a key landing in every partition still resolves."""
    import ray.data as rd

    from lucene_msmarco_ray.ops import fold
    from lucene_msmarco_ray.ops.vocab_join import lookup_micro

    monkeypatch.setattr(fold, "coarse_parts", lambda: 7)

    rows = rd.from_items([
        {"k": f"t{i}", "tag": f"r{i}", "val": i} for i in range(40)
    ] + [{"k": "miss", "tag": "m", "val": -1}], override_num_blocks=3)
    vocab = rd.from_items(
        [{"key": f"t{i}", "micro": 10 * i} for i in range(40)]
        + [{"key": "unreferenced", "micro": 999}])
    out = (lookup_micro(rows, "k", vocab, out_col="m", default_micro=-5)
           .to_pandas().sort_values("val").reset_index(drop=True))
    assert len(out) == 41
    assert out.loc[0, "m"] == -5 and out.loc[0, "tag"] == "m"
    got = out[out["val"] >= 0]
    assert got["m"].tolist() == [10 * i for i in range(40)]
    assert got["tag"].tolist() == [f"r{i}" for i in range(40)]


def test_chained_lookup_micro_vocab_only_partitions(ray_session):
    """A lookup whose rows miss most partitions (vocab-only partitions)
    still emits its declared column types, so a second lookup_micro can
    infer its rows schema from the first one's output."""
    import ray.data as rd

    from lucene_msmarco_ray.ops.vocab_join import lookup_micro

    rows = rd.from_items([{"w1": "a", "w2": "b", "tag": "r", "val": 1}])
    vocab = rd.from_items(
        [{"key": f"t{i}", "micro": i} for i in range(40)]
        + [{"key": "a", "micro": 7}, {"key": "b", "micro": 9}],
        override_num_blocks=4)
    first = lookup_micro(rows, "w1", vocab, out_col="m1")
    out = lookup_micro(first, "w2", vocab, out_col="m2").to_pandas()
    assert out[["w1", "w2", "tag", "val", "m1", "m2"]].values.tolist() == \
        [["a", "b", "r", 1, 7, 9]]


def test_tfidf_keywords_fallback_parity(ray_session):
    from lucene_msmarco_ray.ops.textstats import tfidf_keywords
    b = tfidf_keywords(_docs(CORPUS), k=3).to_pandas()
    f = tfidf_keywords(_docs(CORPUS), k=3,
                       max_broadcast_vocab=1).to_pandas()
    _parity(b, f)
    # empty doc contributes no keyword rows on either path
    assert 3 not in set(f["doc_id"])


def test_bucketed_micro_sum_exactness(ray_session):
    """Direct contract check: per-doc Σ tf·micro is exact int64 under
    bucketing, OOV keys cost default_micro, sentinel rows yield (0, 0)."""
    import ray.data as rd

    from lucene_msmarco_ray.ops.vocab_join import bucketed_micro_sum

    units = rd.from_items([
        {"doc_id": 0, "key": "a", "tf": 2},
        {"doc_id": 0, "key": "b", "tf": 1},
        {"doc_id": 1, "key": "zzz", "tf": 3},   # OOV
        {"doc_id": 2, "key": "", "tf": 0},      # empty-doc sentinel
    ], override_num_blocks=2)
    vocab = rd.from_items([
        {"key": "a", "micro": -1_000_000},
        {"key": "b", "micro": -2_000_000},
    ])
    out = (bucketed_micro_sum(units, vocab, default_micro=-7)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["doc_id"].tolist() == [0, 1, 2]
    assert out["s"].tolist() == [-4_000_000, -21, 0]
    assert out["n"].tolist() == [3, 3, 0]


def test_fallback_many_buckets_one_doc(ray_session):
    """A single doc whose terms scatter across many hash buckets still
    folds to one exact row (the cross-bucket groupby-sum contract)."""
    from lucene_msmarco_ray.ops.textstats import unigram_lm_perplexity
    doc = " ".join(f"tok{i}" for i in range(500))
    b = unigram_lm_perplexity(_docs([doc], blocks=1),
                              concurrency=1).to_pandas()
    f = unigram_lm_perplexity(_docs([doc], blocks=1), concurrency=1,
                              max_broadcast_vocab=1).to_pandas()
    _parity(b, f)
    assert f["n_tokens"].tolist() == [500]

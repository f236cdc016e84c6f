"""Unigram-LM perplexity, repetition stats, and per-key running aggregates
against hand-computed goldens."""

import datetime as dt
import math

import numpy as np
import pytest


def _docs(rows):
    import ray.data as rd
    return rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(rows)],
        override_num_blocks=2)


def test_unigram_lm_perplexity_goldens(ray_session):
    from lucene_msmarco_ray.ops.textstats import unigram_lm_perplexity
    # corpus: counts a=3, b=2, c=1 → T=6
    ds = _docs(["a a b", "a b c", ""])
    out = unigram_lm_perplexity(ds, concurrency=1).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    micro = {t: math.floor(math.log(c / 6) * 1e6 + 0.5)
             for t, c in (("a", 3), ("b", 2), ("c", 1))}

    def golden(toks):
        s = sum(micro[t] for t in toks)
        a = s / 1e6 / len(toks)
        return (math.floor(a * 1e6 + 0.5) / 1e6,
                math.floor(math.exp(-a) * 1e6 + 0.5) / 1e6)

    assert out["n_tokens"].tolist() == [3, 3, 0]
    a0, p0 = golden(["a", "a", "b"])
    a1, p1 = golden(["a", "b", "c"])
    assert out["avg_logprob"].tolist() == [a0, a1, 0.0]
    assert out["ppl"].tolist() == [p0, p1, 1.0]
    # self-perplexity of the more-probable doc is lower
    assert p0 < p1


def test_unigram_lm_oov_floor(ray_session):
    from lucene_msmarco_ray.ops.textstats import unigram_lm_perplexity
    train = _docs(["a a b b"])           # T=4, vocab {a, b}
    score = _docs(["a zzz"])             # zzz is OOV
    out = unigram_lm_perplexity(train, score_ds=score,
                                concurrency=1).to_pandas()
    m_a = math.floor(math.log(2 / 4) * 1e6 + 0.5)
    m_oov = math.floor(math.log(0.5 / 4) * 1e6 + 0.5)
    a = (m_a + m_oov) / 1e6 / 2
    assert out["avg_logprob"].tolist() == [math.floor(a * 1e6 + 0.5) / 1e6]


def test_repetition_stats_goldens(ray_session):
    from lucene_msmarco_ray.ops.textstats import repetition_stats
    ds = _docs([
        "x y x y x",      # bigrams: xy,yx,xy,yx → top 2/4; trigrams:
                          # xyx,yxy,xyx → dup occurrences 2/3
        "a b c d",        # all bigrams/trigrams unique → 1/3, 0
        "w w w w",        # ww×3 → 3/3; www×2 → 2/2
        "p q",            # one bigram, no trigram → 1/1, 0
        "solo",           # <2 tokens → both 0
        "",
    ])
    out = repetition_stats(ds).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["n_tokens"].tolist() == [5, 4, 4, 2, 1, 0]
    assert out["top_bigram_frac"].tolist() == [0.5, round(1 / 3, 6), 1.0,
                                               1.0, 0.0, 0.0]
    assert out["dup_trigram_frac"].tolist() == [
        round(np.floor(2 / 3 * 1e6 + 0.5) / 1e6, 6), 0.0, 1.0, 0.0, 0.0, 0.0]


def test_repetition_stats_half_tie_rounds_away(ray_session):
    """129 all-distinct tokens → 128 bigrams, top fraction 1/128 =
    0.0078125 — an exact .5 tie at 6dp. DuckDB round() (the oracle) is
    half-away-from-zero: 0.007813. np.round (half-to-even) would give
    0.007812 and break parity."""
    from lucene_msmarco_ray.ops.textstats import repetition_stats
    ds = _docs([" ".join(f"t{i}" for i in range(129))])
    out = repetition_stats(ds).to_pandas()
    assert out["n_tokens"].tolist() == [129]
    assert out["top_bigram_frac"].tolist() == [0.007813]


def test_cumulative_agg_goldens(ray_session):
    import ray.data as rd

    from lucene_msmarco_ray.ops.events import cumulative_agg
    base = dt.datetime(2024, 1, 1)

    def ev(eid, user, sec, value):
        return {"event_id": eid, "user_id": user,
                "ts": base + dt.timedelta(seconds=sec), "value": value}

    rows = [ev(0, 1, 0, 1.25), ev(2, 1, 10, 2.0), ev(1, 1, 10, 4.5),
            ev(3, 2, 5, 10.0)]
    out = cumulative_agg(rd.from_items(rows, override_num_blocks=2)) \
        .to_pandas().sort_values(["user_id", "ts_us", "event_id"]) \
        .reset_index(drop=True)
    # ties on ts order by event_id: user 1 order = 0, 1, 2
    assert out["event_id"].tolist() == [0, 1, 2, 3]
    assert out["cum_events"].tolist() == [1, 2, 3, 1]
    assert out["cum_value"].tolist() == [1.25, 5.75, 7.75, 10.0]


def test_flag_contaminated_goldens(ray_session):
    import ray.data as rd

    from lucene_msmarco_ray.ops.dedup import flag_contaminated
    corpus = _docs([
        "a b c d e f",     # shares the benchmark's "b c d" trigram window
        "x y z w v",       # clean
        "q r",             # short doc: whole-doc gram "q r"
        "",
    ])
    bench = _docs(["b c d", "q r"])   # trigram + a short doc
    out = flag_contaminated(corpus, bench, n=3).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # doc0 grams: abc bcd cde def → bcd shared
    assert out["n_grams"].tolist() == [4, 3, 1, 0]
    assert out["n_shared"].tolist() == [1, 0, 1, 0]
    assert out["contaminated"].tolist() == [True, False, True, False]


def test_importance_weights_goldens(ray_session):
    import ray.data as rd

    from lucene_msmarco_ray.ops.textstats import importance_weights
    # source corpus: "a a b", "c c"; target: "a b"
    src = _docs(["a a b", "c c"])
    tgt = _docs(["a b"])
    out = importance_weights(src, tgt, concurrency=1).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)

    def m(c, t):
        return math.floor(math.log(c / t) * 1e6 + 0.5)

    # source: a=2,b=1,c=2, T=5; target: a=1,b=1, T=2; t_oov = ln(.5/2)
    d_a = m(1, 2) - m(2, 5)
    d_b = m(1, 2) - m(1, 5)
    d_c = math.floor(math.log(0.5 / 2) * 1e6 + 0.5) - m(2, 5)
    assert out["logw_micro"].tolist() == [2 * d_a + d_b, 2 * d_c]
    # doc 0 is target-like (positive), doc 1 is not (negative)
    assert out["logw_micro"][0] > 0 > out["logw_micro"][1]


def test_importance_resample_goldens(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from lucene_msmarco_ray.ops.relational import _M32, _mix32
    from lucene_msmarco_ray.ops.textstats import importance_resample
    ids = np.arange(20, dtype=np.int64)
    # doc 5 has overwhelming weight; everyone else is tiny
    lw = np.full(20, -50_000_000, np.int64)
    lw[5] = 50_000_000
    w = rd.from_arrow(pa.table({"doc_id": pa.array(ids),
                                "logw_micro": pa.array(lw)}))
    out = importance_resample(w, n=3).to_pandas()
    # exact golden: replay the key arithmetic
    u = (_mix32(ids, 7).astype(np.float64) + 0.5) / _M32
    key = lw / 1e6 + (-np.log(-np.log(u)))
    exp = ids[np.lexsort((ids, -key))[:3]]
    assert out["doc_id"].tolist() == exp.tolist()
    assert out["doc_id"].tolist()[0] == 5        # the heavy doc always wins
    assert (np.diff(out["gumbel_key"].to_numpy()) <= 0).all()


def test_heavy_hitters_exact_under_pruning(ray_session):
    from collections import Counter

    from lucene_msmarco_ray.ops.textstats import heavy_hitters
    # 60 distinct rare terms + 3 genuinely heavy ones; k=5 forces real
    # Misra-Gries pruning in both the batch and the driver fold
    docs, toks = [], []
    for i in range(60):
        docs.append(f"rare{i}")
        toks.append(f"rare{i}")
    for t, reps in (("hot", 40), ("warm", 25), ("tepid", 15)):
        docs.extend([t] * reps)
        toks.extend([t] * reps)
    out = heavy_hitters(_docs(docs), k=5).to_pandas() \
        .sort_values("term").reset_index(drop=True)
    counts = Counter(toks)
    total = sum(counts.values())
    exp = sorted((t, c) for t, c in counts.items() if c * 5 > total)
    assert list(zip(out["term"], out["cf"])) == exp
    # only hot clears 140/5 = 28; warm (25) and tepid (15) miss it
    assert set(out["term"]) == {"hot"}
    assert out["cf"].tolist() == [40]            # exact count, not MG's


def test_bigram_lm_perplexity_goldens(ray_session):
    from lucene_msmarco_ray.ops.textstats import bigram_lm_perplexity
    # corpus: "a b a b", "b c", "solo" → unigrams a=2 b=3 c=1 solo=1, T=7
    # bigrams: ab=2, ba=1, bc=1 (no cross-doc pair; "solo" has none)
    ds = _docs(["a b a b", "b c", "solo", ""])
    out = bigram_lm_perplexity(ds, lam=0.9, concurrency=1).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)

    def micro(c12, c1, c2):
        p = 0.9 * c12 / c1 + (1.0 - 0.9) * c2 / 7.0
        return math.floor(math.log(p) * 1e6 + 0.5)

    m_ab = micro(2, 2, 3)
    m_ba = micro(1, 3, 2)
    m_bc = micro(1, 3, 1)

    def fin(s, n):
        a = s / 1e6 / n
        return math.floor(a * 1e6 + 0.5) / 1e6

    assert out["n_pairs"].tolist() == [3, 1, 0, 0]
    assert out["avg_logprob"].tolist() == [
        fin(2 * m_ab + m_ba, 3), fin(m_bc, 1), 0.0, 0.0]
    assert out["ppl"].tolist()[2:] == [1.0, 1.0]


def test_pair_micro_vocabulary_miss_counts_one(ray_session):
    """Pairs scored against a unigram table counted on another corpus: a
    word missing from the table counts 1, as in the two-level path, never
    the count of the table's last term."""
    import pyarrow as pa
    import ray

    from lucene_msmarco_ray.ops.textstats import _SEP, _PairMicro
    # unigram table a=2 b=3 zz=50 → T=55; x and y are not in it
    uref = ray.put((np.array(["a", "b", "zz"], dtype=object),
                    np.array([2.0, 3.0, 50.0])))
    out = _PairMicro(uref, lam=0.9, total=55.0)(pa.table({
        "pair": [f"a{_SEP}b", f"x{_SEP}a", f"b{_SEP}y"],
        "c": pa.array([2, 1, 1], pa.int64())}))

    def micro(c12, c1, c2):
        p = 0.9 * c12 / c1 + (1.0 - 0.9) * c2 / 55.0
        return math.floor(math.log(p) * 1e6 + 0.5)

    assert out["micro"].to_pylist() == [
        micro(2, 2, 3), micro(1, 1, 2), micro(1, 3, 1)]


def test_chunk_boundaries_goldens(ray_session):
    from lucene_msmarco_ray.ops.textstats import chunk_boundaries
    ds = _docs(["a b c d e", "x y", ""])
    out = chunk_boundaries(ds, chunk_tokens=2).to_pandas() \
        .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    assert out["doc_id"].tolist() == [0, 0, 0, 1]
    assert out["chunk_id"].tolist() == [0, 1, 2, 0]
    assert out["tok_start"].tolist() == [1, 3, 5, 1]
    assert out["n_tokens"].tolist() == [2, 2, 1, 2]


def test_tfidf_keywords_golden_and_parallelism(ray_session):
    """Hand-computable corpus: scores equal tf*floor(ln(N/df)*1e6+0.5)/1e6,
    ranking is (score desc, term asc), k caps per-doc rows, empty docs
    vanish; identical output at 1 and 8 blocks."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from lucene_msmarco_ray.ops.textstats import tfidf_keywords
    docs = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": ["apple apple banana",      # tf(apple)=2
                 "apple cherry cherry date",
                 "banana date date date",
                 ""],                        # empty: no rows
    })
    N = 4.0
    micro = {t: np.floor(np.log(N / d) * 1e6 + 0.5)
             for t, d in {"apple": 2, "banana": 2, "cherry": 1,
                          "date": 2}.items()}

    def score(t, tf):
        return tf * micro[t] / 1e6

    outs = []
    for nblocks in (1, 8):
        ds = rd.from_pandas(docs).repartition(nblocks)
        out = tfidf_keywords(ds, k=2).to_pandas() \
            .sort_values(["doc_id", "score", "term"],
                         ascending=[True, False, True]) \
            .reset_index(drop=True)
        outs.append(out)
    pd.testing.assert_frame_equal(outs[0], outs[1])
    out = outs[0]
    assert out["doc_id"].tolist() == [0, 0, 1, 1, 2, 2]
    # doc 0: apple tf2 beats banana tf1 (same df)
    assert out.iloc[0][["term", "tf"]].tolist() == ["apple", 2]
    assert out.iloc[0]["score"] == score("apple", 2)
    # doc 1: cherry tf2 (df1) tops; apple vs date tie broken by score
    assert out.iloc[2]["term"] == "cherry"
    assert out.iloc[2]["score"] == score("cherry", 2)
    # doc 2: date tf3 over banana
    assert out.iloc[4][["term", "score"]].tolist() \
        == ["date", score("date", 3)]
    # k caps rows and no doc_id 3 anywhere
    assert (out.groupby("doc_id").size() == 2).all()
    assert 3 not in set(out["doc_id"])

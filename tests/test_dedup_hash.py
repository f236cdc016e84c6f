"""Vectorized dedup hash path vs scalar reference implementation, plus
bucket-overflow surfacing (VERDICT r1 items 8 and 10)."""

import logging

import numpy as np
import pandas as pd
import pytest

from lucene_msmarco_ray.ops.dedup import (
    HASH_BASE,
    HASH_BASE2,
    M31,
    _gram_hashes,
    _MinHashStage,
    _poly_hashes,
    _SimHashStage,
    _tokenize_batch,
    minhash_params,
)


def poly_hash_str(s: str, base: int = HASH_BASE) -> int:
    """Scalar oracle of the rolling hash: h = h·base + codepoint mod M31."""
    h = 0
    for ch in s:
        h = (h * base + ord(ch)) % M31
    return h


TEXTS = ["the quick brown fox jumps", "hi there", "single", "", "a b c",
         "the quick brown fox jumps over the lazy dog", "x  y", "ünïcödé tökens"]


def test_poly_hashes_match_scalar():
    flat, _ = _tokenize_batch(TEXTS)
    for base in (HASH_BASE, HASH_BASE2):
        h, lens = _poly_hashes(flat, base)
        assert [int(x) for x in h] == [poly_hash_str(t, base) for t in flat]
        assert lens.tolist() == [len(t) for t in flat]


def test_gram_hashes_match_joined_strings():
    flat, cnt = _tokenize_batch(TEXTS)
    th, tl = _poly_hashes(flat, HASH_BASE)
    grams, per_doc = _gram_hashes(th, tl, cnt, 3)
    expected = []
    exp_cnt = []
    for t in TEXTS:
        toks = t.split()
        if not toks:
            exp_cnt.append(0)
            continue
        gs = ([" ".join(toks[i:i + 3]) for i in range(len(toks) - 2)]
              if len(toks) >= 3 else [" ".join(toks)])
        expected.extend(poly_hash_str(g) for g in gs)
        exp_cnt.append(len(gs))
    assert per_doc.tolist() == exp_cnt
    assert [int(x) for x in grams] == expected


def test_minhash_signature_scalar_golden():
    flat, cnt = _tokenize_batch(TEXTS)
    th, tl = _poly_hashes(flat, HASH_BASE)
    grams, per_doc = _gram_hashes(th, tl, cnt, 3)
    st = _MinHashStage(num_perm=16, bands=4, shingle_k=3,
                       text_col="text", id_col="doc_id")
    sig = st.signatures(grams, per_doc)
    a, b = minhash_params(16)
    doc0 = [int(g) for g in grams[:per_doc[0]]]
    for p in range(16):
        assert int(sig[p, 0]) == min(
            (int(a[p]) * h + int(b[p])) % M31 for h in doc0)


def test_simhash_stage_scalar_golden():
    import pyarrow as pa

    from lucene_msmarco_ray.ops.dedup import _SIM_BANDS
    batch = pa.table({"doc_id": list(range(len(TEXTS))), "text": TEXTS})
    out = _SimHashStage("text", "doc_id")(batch).to_pydict()
    # empty doc (index 3) emits no row; every other doc emits 4 band rows
    assert 3 not in out["doc_id"]
    assert out["doc_id"].count(0) == 4
    # scalar recompute for doc 0
    toks = TEXTS[0].split()
    f = 0
    for lo, base in ((0, HASH_BASE), (31, HASH_BASE2)):
        hs = [poly_hash_str(t, base) for t in toks]
        for j in range(31):
            v = sum(1 if (h >> j) & 1 else -1 for h in hs)
            if v > 0:
                f |= 1 << (j + lo)
    rows = [i for i, d in enumerate(out["doc_id"]) if d == 0]
    assert all(out["simhash"][i] == f for i in rows)
    # band keys carry the right bit slices of the fingerprint
    got = sorted(out["bkey"][i] for i in rows)
    exp = sorted((bnd << 16) | ((f >> lo) & ((1 << width) - 1))
                 for bnd, (lo, width) in enumerate(_SIM_BANDS))
    assert got == exp


def test_minhash_bucket_truncation_logged(caplog):
    """Oversized buckets are truncated AND the drop count is surfaced."""
    from lucene_msmarco_ray.ops.dedup import _bucket_pairs

    g = pd.DataFrame({"bucket": 7, "doc_id": np.arange(10, dtype=np.int64)})
    with caplog.at_level(logging.WARNING, logger="lucene_msmarco_ray.ops.dedup"):
        out = _bucket_pairs(g, max_bucket=4)
    assert len(out) == 6                       # C(4,2) pairs survive
    assert len(caplog.records) == 1 and "dropping 6" in caplog.text
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="lucene_msmarco_ray.ops.dedup"):
        _bucket_pairs(g, max_bucket=100)
    assert len(caplog.records) == 0


def test_minhash_pairs_symmetric_dupes(ray_session):
    """Two identical docs collide in every band; an unrelated doc in none."""
    import ray.data as rd

    from lucene_msmarco_ray.ops.dedup import minhash_lsh_candidates
    ds = rd.from_items([
        {"doc_id": 1, "text": "alpha beta gamma delta epsilon zeta"},
        {"doc_id": 2, "text": "alpha beta gamma delta epsilon zeta"},
        {"doc_id": 3, "text": "totally different words here now okay"},
    ], override_num_blocks=3)
    out = minhash_lsh_candidates(ds).to_pandas()
    assert [(r.doc_a, r.doc_b) for r in out.itertuples()] == [(1, 2)]


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    min_size=0, max_size=25), min_size=1, max_size=30))
def test_poly_hashes_property(strings):
    """Vectorized fold == scalar fold for arbitrary unicode strings."""
    h, lens = _poly_hashes(strings, HASH_BASE)
    assert [int(x) for x in h] == [poly_hash_str(s) for s in strings]
    assert lens.tolist() == [len(s) for s in strings]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=6),
                         min_size=0, max_size=12),
                min_size=1, max_size=10),
       st.integers(min_value=1, max_value=4))
def test_gram_hashes_property(docs, k):
    """Composed window hashes == direct hashes of the joined gram strings
    for arbitrary token lists and window sizes."""
    flat = [t for d in docs for t in d]
    cnt = np.fromiter((len(d) for d in docs), np.int64, len(docs))
    th, tl = _poly_hashes(flat, HASH_BASE)
    grams, per_doc = _gram_hashes(th, tl, cnt, k)
    exp = []
    exp_cnt = []
    for d in docs:
        if not d:
            exp_cnt.append(0)
            continue
        gs = ([" ".join(d[i:i + k]) for i in range(len(d) - k + 1)]
              if len(d) >= k else [" ".join(d)])
        exp.extend(poly_hash_str(g) for g in gs)
        exp_cnt.append(len(gs))
    assert per_doc.tolist() == exp_cnt
    assert [int(x) for x in grams] == exp


@settings(max_examples=30, deadline=None)
@given(st.lists(st.text(max_size=200), min_size=1, max_size=20))
def test_content_hash_hex_property(strings):
    """Closed-form reduceat hash == scalar fold, per base, hex-formatted."""
    from lucene_msmarco_ray.ops.dedup import (CONTENT_HASH_BASES,
                                              content_hash_hex)
    got = content_hash_hex(strings).to_pylist()
    exp = ["".join(f"{poly_hash_str(s, b):08x}" for b in CONTENT_HASH_BASES)
           for s in strings]
    assert got == exp


def test_pmi_collocations_golden(ray_session):
    """PMI vs hand computation: doc-boundary pairs excluded, min_count
    filter, ln(c_xy T^2 / (B c_x c_y)) to 6 dp."""
    import math

    import ray.data as rd

    from lucene_msmarco_ray.ops.textstats import pmi_collocations
    rows = [{"text": "a b a b"},    # bigrams: a^b, b^a, a^b
            {"text": "b a"},        # b^a  (no pair across docs)
            {"text": "c"}]          # no bigram
    out = pmi_collocations(rd.from_items(rows, override_num_blocks=3),
                           min_count=2).to_pandas() \
        .sort_values("bigram").reset_index(drop=True)
    # T=7 tokens (a:3 b:3 c:1), B=4 bigrams; a^b:2, b^a:2 (both >= 2)
    exp = round(math.log(2 * 7.0 * 7.0 / (4.0 * 3.0 * 3.0)), 6)
    assert list(out["bigram"]) == ["a^b", "b^a"]
    assert list(out["n_xy"]) == [2, 2]
    assert list(out["pmi"]) == [exp, exp]


def test_duplicate_spans(ray_session, monkeypatch):
    import ray.data as rd

    from lucene_msmarco_ray.ops import fold
    from lucene_msmarco_ray.ops.dedup import duplicate_spans

    monkeypatch.setattr(fold, "coarse_parts", lambda: 8)

    # doc 0/1 share "a b c d"; doc 2 is unique; doc 3 too short; doc 4
    # repeats the shared span inside itself (distinct-per-doc: counts once)
    docs = [{"doc_id": 0, "text": "a b c d e f"},
            {"doc_id": 1, "text": "z a b c d y"},
            {"doc_id": 2, "text": "p q r s t u"},
            {"doc_id": 3, "text": "a b c"},
            {"doc_id": 4, "text": "a b c d a b c d"}]
    got = [duplicate_spans(rd.from_items(docs, override_num_blocks=nb),
                           w=4).to_pandas()
           .sort_values("doc_id").reset_index(drop=True) for nb in (1, 5)]
    assert got[0].equals(got[1])          # parallelism-invariant

    df = got[0].set_index("doc_id")
    assert 3 not in df.index              # < w tokens → no spans
    # pandas oracle: distinct 4-gram strings per doc, df >= 2 → dup
    def grams(t):
        toks = t.split()
        return {" ".join(toks[i:i + 4]) for i in range(len(toks) - 3)}
    gs = {d["doc_id"]: grams(d["text"]) for d in docs if d["doc_id"] != 3}
    from collections import Counter
    c = Counter(g for s in gs.values() for g in s)
    for did, s in gs.items():
        nd = sum(1 for g in s if c[g] >= 2)
        assert df.loc[did, "n_spans"] == len(s)
        assert df.loc[did, "n_dup_spans"] == nd
        assert df.loc[did, "dup_frac"] == round(nd / len(s), 6)
    assert df.loc[2, "n_dup_spans"] == 0 and df.loc[0, "n_dup_spans"] == 1

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_msmarco_ray.index.codec import (
    TermPostings,
    concat_runs,
    decode_all,
    decode_block,
    encode_term_postings,
    segment_runs,
    varbyte_decode,
    varbyte_encode,
)


def term_postings_from_row(row: dict) -> TermPostings:
    """Oracle decoder of one segment row from its ``to_pylist`` dict."""
    return TermPostings(
        df=int(row["df"]), cf=int(row["cf"]),
        doc_bytes=row["doc_bytes"], tf_bytes=row["tf_bytes"],
        b_count=np.asarray(row["b_count"], np.int32),
        b_first=np.asarray(row["b_first"], np.int64),
        b_last=np.asarray(row["b_last"], np.int64),
        b_max_tf=np.asarray(row["b_max_tf"], np.int32),
        b_min_dl=np.asarray(row["b_min_dl"], np.int32),
        b_doc_off=np.asarray(row["b_doc_off"], np.int64),
        b_tf_off=np.asarray(row["b_tf_off"], np.int64),
    )


def assert_same_postings(a: TermPostings, b: TermPostings) -> None:
    assert (a.df, a.cf) == (b.df, b.cf)
    assert bytes(a.doc_bytes) == bytes(b.doc_bytes)
    assert bytes(a.tf_bytes) == bytes(b.tf_bytes)
    for f in ("b_count", "b_first", "b_last", "b_max_tf", "b_min_dl",
              "b_doc_off", "b_tf_off"):
        x, y = getattr(a, f), getattr(b, f)
        assert x.dtype == y.dtype and np.array_equal(x, y), f


@given(st.lists(st.integers(min_value=0, max_value=2**56 - 1), max_size=300))
@settings(max_examples=200, deadline=None)
def test_varbyte_roundtrip(vals):
    arr = np.array(vals, dtype=np.int64)
    assert varbyte_decode(varbyte_encode(arr)).tolist() == vals


def test_varbyte_edge():
    assert varbyte_encode(np.array([0])) == b"\x00"
    assert varbyte_encode(np.array([127])) == b"\x7f"
    assert varbyte_encode(np.array([128])) == b"\x80\x01"
    assert varbyte_decode(b"").size == 0
    with pytest.raises(ValueError):
        varbyte_decode(b"\x80\x80")


@given(
    st.sets(st.integers(min_value=0, max_value=10**7), min_size=1, max_size=500),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_postings_roundtrip(docset, data):
    docs = np.array(sorted(docset), dtype=np.int64)
    tfs = np.array(data.draw(st.lists(st.integers(1, 1000),
                                      min_size=len(docs), max_size=len(docs))))
    dls = tfs + 3
    tp = encode_term_postings(docs, tfs, dls, block_size=16)
    d, t = decode_all(tp)
    assert d.tolist() == docs.tolist()
    assert t.tolist() == tfs.tolist()
    assert tp.df == len(docs) and tp.cf == int(tfs.sum())
    nb = (len(docs) + 15) // 16
    assert len(tp.b_last) == nb
    assert tp.b_last[-1] == docs[-1] and tp.b_first[0] == docs[0]
    for i in range(nb):
        sl = slice(i * 16, (i + 1) * 16)
        assert tp.b_max_tf[i] == tfs[sl].max()
        assert tp.b_min_dl[i] == dls[sl].min()
        bd, bt = decode_block(tp, i)
        assert bd.tolist() == docs[sl].tolist()
        assert bt.tolist() == tfs[sl].tolist()


def test_duplicate_doc_rejected():
    with pytest.raises(ValueError):
        encode_term_postings(np.array([1, 1]), np.array([1, 2]), np.array([3, 3]))


def test_concat_salted_runs_no_decode():
    d1, t1 = np.arange(0, 50), np.arange(1, 51)
    d2, t2 = np.arange(100, 130), np.arange(2, 32)
    r1 = encode_term_postings(d1, t1, d1 + 5, block_size=8)
    r2 = encode_term_postings(d2, t2, d2 + 5, block_size=8)
    merged = concat_runs([r2, r1])  # order-insensitive
    d, t = decode_all(merged)
    assert d.tolist() == d1.tolist() + d2.tolist()
    assert t.tolist() == t1.tolist() + t2.tolist()
    assert merged.df == 80 and merged.cf == int(t1.sum() + t2.sum())
    # block decode still works across the seam
    for i in range(len(merged.b_count)):
        decode_block(merged, i)
    with pytest.raises(ValueError):
        concat_runs([r1, r1])


def test_group_encoder_matches_per_term():
    """encode_group_postings must be byte-identical to per-term encoding."""
    import numpy as np

    from lucene_msmarco_ray.index.build import (
        group_segment_table,
        rows_to_segment_table,
    )
    from lucene_msmarco_ray.index.codec import (
        encode_group_postings,
        encode_term_postings,
    )
    rng = np.random.default_rng(11)
    codes_l, doc_l, tf_l, dl_l = [], [], [], []
    for t in range(60):
        nd = int(rng.integers(1, 300))
        docs = np.sort(rng.choice(50000, nd, replace=False))
        codes_l.append(np.full(nd, t))
        doc_l.append(docs)
        tf_l.append(rng.integers(1, 9, nd))
        dl_l.append(rng.integers(5, 200, nd))
    codes = np.concatenate(codes_l)
    doc = np.concatenate(doc_l)
    tf = np.concatenate(tf_l)
    dl = np.concatenate(dl_l)
    enc = encode_group_postings(codes, doc, tf, dl, 16)
    terms = np.array([f"t{c}" for c in codes[enc["term_starts"]]])
    gt = group_segment_table(terms, 1, enc)
    bounds = np.concatenate(([0], np.flatnonzero(codes[1:] != codes[:-1]) + 1,
                             [len(codes)]))
    tps = [encode_term_postings(doc[s:e], tf[s:e], dl[s:e], 16)
           for s, e in zip(bounds[:-1], bounds[1:])]
    rt = rows_to_segment_table([f"t{codes[s]}" for s in bounds[:-1]],
                               np.full(len(tps), 1), tps)
    assert gt.schema.equals(rt.schema)
    for col in gt.column_names:
        assert gt[col].combine_chunks().equals(rt[col].combine_chunks()), col


def test_segment_runs_matches_row_decode():
    """The columnar decoder equals the per-row dict decode on a segment
    table where terms have several runs, across chunk boundaries."""
    import pyarrow as pa

    from lucene_msmarco_ray.index.build import rows_to_segment_table
    rng = np.random.default_rng(5)
    terms, tps = [], []
    for run in range(3):                       # 3 disjoint doc ranges
        for t in ("alpha", "beta", "gamma", "delta"):
            if rng.random() < 0.3 and run:
                continue                       # some terms skip a run
            nd = int(rng.integers(1, 90))
            docs = np.sort(rng.choice(1000, nd, replace=False)) + run * 1000
            tps.append(encode_term_postings(docs, rng.integers(1, 9, nd),
                                            rng.integers(5, 50, nd), 16))
            terms.append(t)
    tbl = rows_to_segment_table(terms, np.zeros(len(terms)), tps)
    half = tbl.num_rows // 2
    for t in (pa.concat_tables([tbl.slice(0, half), tbl.slice(half)]),
              tbl.slice(3)):               # chunked; offset into buffers
        got = segment_runs(t)
        want: dict[str, list[TermPostings]] = {}
        for row in t.to_pylist():
            want.setdefault(row["term"], []).append(
                term_postings_from_row(row))
        assert list(got) == list(want)
        assert any(len(r) > 1 for r in want.values())
        for term, runs in want.items():
            assert len(got[term]) == len(runs)
            for a, b in zip(got[term], runs):
                assert_same_postings(a, b)
            assert_same_postings(concat_runs(got[term]), concat_runs(runs))
    assert segment_runs(tbl.slice(0, 0)) == {}


def test_gkey_encode_sorts_unicode_terms_as_sorted(tmp_path):
    """One (shard, salt) group staged as several files (one of two row
    groups, each with its own term dictionary) encodes to the rows of
    the earlier path — ``pd.factorize(sort=True)`` over Python strings,
    then ``np.lexsort`` — with terms in ``sorted()`` order."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_msmarco_ray.index.build import (
        GKEY_SALT_SPAN,
        _EncodeGkeyTask,
        group_segment_table,
    )
    from lucene_msmarco_ray.index.codec import encode_group_postings

    words = ["é", "e", "ß", "ss", "ſ", "s", "Z", "z", "Éa", "éa", "中文",
             "日本", "😀", "👍", "�", "ÿ", "Ā", "a", "A", "_num_", "ﬁ"]
    rng = np.random.default_rng(5)
    rows = [(w, int(d)) for w in words
            for d in rng.choice(400, int(rng.integers(1, 40)), replace=False)]
    rng.shuffle(rows)
    tbl = pa.table({
        "term": pa.array([w for w, _ in rows], pa.string()),
        "doc_id": pa.array([d for _, d in rows], pa.int64()),
        "tf": pa.array(rng.integers(1, 9, len(rows)), pa.int32()),
        "dl": pa.array(rng.integers(5, 99, len(rows)), pa.int32()),
    })
    # docs split over files as build partitions split them: disjoint
    files = []
    for i, part in enumerate((tbl.filter(pa.compute.less(tbl["doc_id"], 150)),
                              tbl.filter(pa.compute.greater_equal(
                                  tbl["doc_id"], 150)))):
        files.append(str(tmp_path / f"doc{i}.parquet"))
        pq.write_table(part, files[-1], row_group_size=-(-part.num_rows // 2))
    assert pq.ParquetFile(files[0]).num_row_groups == 2

    gkey = 3 * GKEY_SALT_SPAN + 1
    got = _EncodeGkeyTask(4)(pd.DataFrame([{"gkey": gkey, "files": files}]))

    staged = pa.concat_tables([pq.read_table(f) for f in files])
    codes, uniq = pd.factorize(staged["term"].to_pandas(), sort=True)
    doc = staged["doc_id"].to_numpy()
    order = np.lexsort((doc, codes))
    codes = codes[order]
    enc = encode_group_postings(codes, doc[order],
                                staged["tf"].to_numpy()[order],
                                staged["dl"].to_numpy()[order], 4)
    want = group_segment_table(np.asarray(uniq)[codes[enc["term_starts"]]],
                               3, enc, 1)
    assert got["term"].to_pylist() == sorted(words)
    assert got.schema.equals(want.schema)
    for col in got.column_names:
        assert got[col].combine_chunks().equals(
            want[col].combine_chunks()), col

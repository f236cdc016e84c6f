"""Code-corpus path: deterministic doc ids, sha256 lineage, salted build,
per-partition resume (SURVEY.md I1/I6/I7, BASELINE.json input_hint)."""

import hashlib
import json
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_msmarco_ray.config import EngineConfig
from lucene_msmarco_ray.index.build import build_index
from lucene_msmarco_ray.index.manifest import Manifest
from lucene_msmarco_ray.search.scoring import BM25Scorer
from lucene_msmarco_ray.search.searcher import IndexReader, score_query_taat
from lucene_msmarco_ray.sources.corpus import read_code_corpus
from lucene_msmarco_ray.synth import generate_corpus, generate_queries


@pytest.fixture(scope="session")
def corpus_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("synth")
    return generate_corpus(400, seed=42, n_files=4, out_dir=str(d))


def test_corpus_deterministic(tmp_path):
    t1 = generate_corpus(50, seed=1)
    t2 = generate_corpus(50, seed=1)
    assert t1.equals(t2)
    assert t1.column_names == ["repo", "path", "commit", "lang", "content"]


def test_doc_ids_dense_and_stable(ray_session, corpus_files):
    ds = read_code_corpus(corpus_files)
    df = ds.to_pandas()
    assert sorted(df["doc_id"]) == list(range(len(df)))
    # doc order is (sorted file, row) order == sorted doc_key order by construction
    df = df.sort_values("doc_id")
    keys = df["doc_key"].tolist()
    assert keys == sorted(keys)
    # re-read at different parallelism → same assignment
    df2 = read_code_corpus(corpus_files).to_pandas().sort_values("doc_id")
    assert df2["doc_key"].tolist() == keys


@pytest.fixture(scope="session")
def salted_index(ray_session, corpus_files, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("idx") / "code_idx")
    cfg = EngineConfig(analyzer="english", num_shards=4, block_size=32,
                       salt_docs_per_bucket=100)  # forces n_salt=4 at 400 docs
    ds = read_code_corpus(corpus_files)
    stats = build_index(ds, out, cfg, text_col="content", id_col="doc_id",
                        key_col="doc_key")
    return out, stats, cfg


def test_salted_build_matches_bruteforce(salted_index, corpus_files):
    out, stats, cfg = salted_index
    assert stats["n_salt"] == 4
    r = IndexReader(out)
    # oracle: analyze in-process with the same public analyzer
    from lucene_msmarco_ray.analysis import get_analyzer
    an = get_analyzer("english")
    tbl = pq.read_table(corpus_files[0])
    text0 = tbl["content"][0].as_py()
    terms = an(text0)[:3]
    q = {t: 1.0 for t in terms}
    docs, scores = score_query_taat(r, q, 20, BM25Scorer())
    assert len(docs) > 0
    # validate df of the query terms against the full corpus
    all_tokens = []
    for f in corpus_files:
        for txt in pq.read_table(f, columns=["content"])["content"].to_pylist():
            all_tokens.append(an(txt))
    for t in terms:
        tp = r.get_term(t)
        exp_df = sum(1 for toks in all_tokens if t in toks)
        assert (tp.df if tp else 0) == exp_df


def combine_hashes(hex_hashes: list[str]) -> str:
    """Oracle for a partition's lineage sha: XOR of the per-row sha256
    digests (order-independent), then sha256 of the result."""
    acc = bytearray(32)
    for h in hex_hashes:
        for i, byte in enumerate(bytes.fromhex(h)):
            acc[i] ^= byte
    return hashlib.sha256(bytes(acc)).hexdigest()


def test_lineage_sha_matches_content(salted_index, corpus_files):
    out, _, _ = salted_index
    man = Manifest(os.path.join(out, "manifest.json"))
    part = man.data["partitions"]["all"]
    shas = []
    for f in corpus_files:
        for txt in pq.read_table(f, columns=["content"])["content"].to_pylist():
            shas.append(hashlib.sha256(txt.encode()).hexdigest())
    assert part["sha"] == combine_hashes(shas)
    assert part["rows"] == len(shas)
    # order-independence of the combiner
    assert combine_hashes(shas[::-1]) == combine_hashes(shas)


def test_partitioned_resume(ray_session, corpus_files, tmp_path):
    out = str(tmp_path / "p_idx")
    cfg = EngineConfig(analyzer="simple", num_shards=2)
    # build partitions = one per input file; ids must stay global, so each
    # partition dataset carries its file's global base offset
    import ray.data as rd
    import pyarrow as pa

    def file_ds(i):
        base = sum(pq.read_metadata(corpus_files[j]).num_rows for j in range(i))
        t = pq.read_table(corpus_files[i])
        ids = np.arange(base, base + t.num_rows, dtype=np.int64)
        t = t.append_column("doc_id", pa.array(ids))
        return rd.from_arrow(t)

    parts = [(f"f{i}", file_ds(i)) for i in range(4)]
    build_index(None, out, cfg, text_col="content", id_col="doc_id",
                partitions=parts[:2])
    man1 = json.load(open(os.path.join(out, "manifest.json")))
    assert len(man1["partitions"]) == 2
    t_first = os.path.getmtime(os.path.join(out, "staged", "part=f0"))
    # resume with all 4: first two skipped, last two processed, merge redone
    stats = build_index(None, out, cfg, text_col="content", id_col="doc_id",
                        partitions=parts)
    assert os.path.getmtime(os.path.join(out, "staged", "part=f0")) == t_first
    total = sum(pq.read_metadata(f).num_rows for f in corpus_files)
    assert stats["num_docs"] == total
    # the resumed index answers queries over ALL docs
    r = IndexReader(out)
    assert r.num_docs == total


def test_tsv_corpus_reader(ray_session, tmp_path):
    """S1 TSV side: dense deterministic ids across files and parallelism;
    tab-less and multi-tab lines survive."""
    import numpy as np

    from lucene_msmarco_ray.sources.corpus import read_tsv_corpus
    (tmp_path / "b.tsv").write_text("d3\tthird doc\nd4\tfour\tkeeps tabs\n")
    (tmp_path / "a.tsv").write_text("d1\tfirst doc text\nd2\n")  # d2: no text
    df = read_tsv_corpus(str(tmp_path)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # files sorted lexicographically → a.tsv rows first
    assert df["docid"].tolist() == ["d1", "d2", "d3", "d4"]
    assert df["doc_id"].tolist() == [0, 1, 2, 3]
    assert df["content"].tolist() == ["first doc text", "",
                                      "third doc", "four\tkeeps tabs"]
    assert df["doc_key"].tolist() == df["docid"].tolist()


def test_tsv_corpus_index_roundtrip(ray_session, tmp_path):
    """A reference user's TSV collection indexes end-to-end."""
    from collections import Counter

    from lucene_msmarco_ray.config import EngineConfig
    from lucene_msmarco_ray.index.build import build_index
    from lucene_msmarco_ray.search.searcher import IndexReader
    from lucene_msmarco_ray.sources.corpus import read_tsv_corpus
    (tmp_path / "c.tsv").write_text(
        "p0\tthe quick fox\np1\tquick quick lazy dog\n")
    ds = read_tsv_corpus(str(tmp_path / "c.tsv"))
    out = str(tmp_path / "idx")
    stats = build_index(ds, out, EngineConfig(analyzer="simple", num_shards=2),
                        text_col="content", id_col="doc_id",
                        key_col="docid")
    assert stats["num_docs"] == 2
    r = IndexReader(out)
    assert r.df("quick") == 2
    assert r.term_vectors([1])[1] == dict(Counter("quick quick lazy dog".split()))

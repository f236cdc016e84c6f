"""Incremental append: build+append must be search-identical to a full
rebuild (postings, stats, BM25 scores), resume idempotently, and reject
non-dense id ranges."""

import json
import os

import numpy as np
import pyarrow.dataset as pads
import pytest

from test_codec import assert_same_postings, term_postings_from_row

from lucene_msmarco_ray.config import EngineConfig
from lucene_msmarco_ray.index.append import append_documents
from lucene_msmarco_ray.index.build import build_index
from lucene_msmarco_ray.index.codec import concat_runs
from lucene_msmarco_ray.search.scoring import BM25Scorer
from lucene_msmarco_ray.search.searcher import IndexReader, score_query_taat
from lucene_msmarco_ray.sources.corpus import read_code_corpus
from lucene_msmarco_ray.synth import generate_corpus, generate_queries


@pytest.fixture(scope="module")
def corpora(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("appsynth")
    files = generate_corpus(400, seed=7, n_files=4, out_dir=str(d))
    cfg = EngineConfig(analyzer="english", num_shards=4, block_size=32,
                       salt_docs_per_bucket=150)  # boundary mid-bucket
    full_dir = str(tmp_path_factory.mktemp("idx") / "full")
    build_index(read_code_corpus(files), full_dir, cfg,
                text_col="content", id_col="doc_id", key_col="doc_key")
    app_dir = str(tmp_path_factory.mktemp("idx") / "appended")
    base = read_code_corpus(files).filter(expr="doc_id < 300")
    build_index(base, app_dir, cfg, text_col="content", id_col="doc_id",
                key_col="doc_key")
    rest = read_code_corpus(files).filter(expr="doc_id >= 300")
    append_documents(app_dir, rest, text_col="content", id_col="doc_id",
                     key_col="doc_key", pid="rest", input_lineage="rest-v1")
    return files, full_dir, app_dir, rest


def _term_table(idx):
    return pads.dataset(os.path.join(idx, "segments")).to_table(
        columns=["term", "df", "cf"]) \
        .group_by("term").aggregate([("df", "sum"), ("cf", "sum")]) \
        .sort_by("term")


def test_append_stats_match_full_build(corpora):
    _, full_dir, app_dir, _ = corpora
    full = json.load(open(os.path.join(full_dir, "stats.json")))
    app = json.load(open(os.path.join(app_dir, "stats.json")))
    for k in ("num_docs", "total_len", "avgdl", "n_salt", "num_terms"):
        assert app[k] == full[k], k


def test_append_postings_match_full_build(corpora):
    _, full_dir, app_dir, _ = corpora
    assert _term_table(full_dir).equals(_term_table(app_dir))


def test_append_search_identical(corpora):
    from collections import Counter

    from lucene_msmarco_ray.analysis import get_analyzer
    files, full_dir, app_dir, _ = corpora
    an = get_analyzer("english")
    r_full = IndexReader(full_dir, preload=True)
    r_app = IndexReader(app_dir, preload=True)
    sc = BM25Scorer()
    matched = 0
    for row in generate_queries(12, seed=3).to_pylist():
        q = {t: float(c) for t, c in Counter(an(row["text"])).items()}
        if not q:
            continue
        ids_f, s_f = score_query_taat(r_full, q, 50, sc)
        ids_a, s_a = score_query_taat(r_app, q, 50, sc)
        assert list(ids_f) == list(ids_a)
        assert list(s_f) == list(s_a)  # bit-identical scores
        matched += len(ids_f) > 0
    assert matched >= 3  # enough queries actually hit the index


def test_append_rerun_idempotent(corpora):
    files, full_dir, app_dir, rest = corpora
    before = _term_table(app_dir)
    stats1 = json.load(open(os.path.join(app_dir, "stats.json")))
    # same pid + same lineage → checkpointed no-op fast path
    stats2 = append_documents(app_dir, rest, text_col="content",
                              id_col="doc_id", key_col="doc_key",
                              pid="rest", input_lineage="rest-v1")
    assert stats2["num_docs"] == stats1["num_docs"]
    assert _term_table(app_dir).equals(before)
    # the commit deletes what it does not list: a stale file (a copy of
    # another dir's segment) and a crashed write's dot-temp in a salt dir
    # the re-run does NOT write are gone after it, output unchanged
    import shutil
    seg = os.path.join(app_dir, "segments")
    stale = os.path.join(seg, "shard=0", "salt=0", "rest-segment.parquet")
    assert not os.path.exists(stale)
    d = os.path.join(seg, "shard=1", "salt=0")
    shutil.copy(os.path.join(d, sorted(os.listdir(d))[0]), stale)
    shutil.copy(stale, os.path.join(seg, "shard=0", "salt=0",
                                    ".rest-segment.parquet.tmp"))
    assert not _term_table(app_dir).equals(before)
    stats3 = append_documents(app_dir, rest, text_col="content",
                              id_col="doc_id", key_col="doc_key",
                              pid="rest", input_lineage="rest-v1")
    assert stats3 == stats1
    assert not os.path.exists(stale)
    left = [os.path.join(r, f) for r, _, fs in os.walk(seg) for f in fs
            if f.startswith(".")]
    assert left == []
    assert not [e for e in os.listdir(app_dir)
                if e.startswith("segments.append-")]
    assert _term_table(app_dir).equals(before)
    assert _term_table(app_dir).equals(_term_table(full_dir))


def test_append_rejects_gapped_ids(corpora, tmp_path):
    files, _, _, _ = corpora
    cfg = EngineConfig(analyzer="english", num_shards=4, block_size=32)
    idx = str(tmp_path / "gap")
    build_index(read_code_corpus(files).filter(expr="doc_id < 100"), idx,
                cfg, text_col="content", id_col="doc_id", key_col="doc_key")
    with pytest.raises(ValueError, match="dense"):
        append_documents(idx, read_code_corpus(files)
                         .filter(expr="doc_id >= 200"),
                         text_col="content", id_col="doc_id",
                         key_col="doc_key")


def test_cli_append_matches_full_build(tmp_path, corpora):
    """CLI surface: build on half the files, `append` the rest — stats
    equal a full one-shot build."""
    import shutil
    import subprocess
    import sys

    files, full_dir, _, _ = corpora
    base_d, delta_d = tmp_path / "base", tmp_path / "delta"
    base_d.mkdir(), delta_d.mkdir()
    for f in sorted(files)[:2]:
        shutil.copy(f, base_d / os.path.basename(f))
    for f in sorted(files)[2:]:
        shutil.copy(f, delta_d / os.path.basename(f))
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo, RAY_ADDRESS="local")

    def cli(*a):
        return subprocess.run(
            [sys.executable, "-m", "lucene_msmarco_ray.cli",
             "--num-cpus", "4", *a],
            capture_output=True, text=True, env=env, cwd=repo, timeout=420)

    idx = str(tmp_path / "cli_idx")
    r = cli("build", "--corpus", str(base_d), "--index", idx,
            "--analyzer", "english", "--num-shards", "4")
    assert r.returncode == 0, r.stderr[-2000:]
    r = cli("append", "--corpus", str(delta_d), "--index", idx)
    assert r.returncode == 0, r.stderr[-2000:]
    stats = json.loads(r.stdout.strip().splitlines()[-1])
    full = json.load(open(os.path.join(full_dir, "stats.json")))
    assert stats["num_docs"] == full["num_docs"]
    assert stats["total_len"] == full["total_len"]
    assert stats["num_terms"] == full["num_terms"]
    r = cli("compact", "--index", idx)
    assert r.returncode == 0, r.stderr[-2000:]
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    assert summary["rows_after"] <= summary["rows_before"]


def test_append_requires_built_index(tmp_path, ray_session):
    import ray.data as rd
    with pytest.raises(ValueError, match="completed index"):
        append_documents(str(tmp_path / "nope"),
                         rd.from_items([{"doc_id": 0, "text": "x"}]))


def test_append_chain_matches_full_build(ray_session, tmp_path_factory):
    """Continuous-ingestion contract: THREE successive appends (distinct
    pids/lineages, uneven delta sizes crossing salt-bucket boundaries)
    end bit-identical to the one-shot build — postings, stats, and top-10
    BM25 runs."""
    d = tmp_path_factory.mktemp("chainsynth")
    files = generate_corpus(400, seed=13, n_files=4, out_dir=str(d))
    cfg = EngineConfig(analyzer="english", num_shards=4, block_size=32,
                       salt_docs_per_bucket=150)
    full_dir = str(tmp_path_factory.mktemp("cidx") / "full")
    build_index(read_code_corpus(files), full_dir, cfg,
                text_col="content", id_col="doc_id", key_col="doc_key")
    app_dir = str(tmp_path_factory.mktemp("cidx") / "chained")
    base = read_code_corpus(files).filter(expr="doc_id < 130")
    build_index(base, app_dir, cfg, text_col="content", id_col="doc_id",
                key_col="doc_key")
    for i, (lo, hi) in enumerate([(130, 160), (160, 340), (340, 400)]):
        delta = read_code_corpus(files).filter(
            expr=f"doc_id >= {lo} and doc_id < {hi}")
        append_documents(app_dir, delta, text_col="content",
                         id_col="doc_id", key_col="doc_key",
                         pid=f"delta{i}", input_lineage=f"chain-v{i}")

    full_stats = json.load(open(os.path.join(full_dir, "stats.json")))
    app_stats = json.load(open(os.path.join(app_dir, "stats.json")))
    for k in ("num_docs", "total_len", "avgdl", "n_salt", "num_terms"):
        assert app_stats[k] == full_stats[k], k
    assert _term_table(full_dir).equals(_term_table(app_dir))

    from collections import Counter

    from lucene_msmarco_ray.analysis import get_analyzer
    an = get_analyzer("english")
    rf = IndexReader(full_dir, preload=True)
    ra = IndexReader(app_dir, preload=True)
    sc = BM25Scorer(k1=0.7, b=0.3)
    matched = 0
    for row in generate_queries(12, seed=3).to_pylist():
        q = {t: float(c) for t, c in Counter(an(row["text"])).items()}
        if not q:
            continue
        ids_f, s_f = score_query_taat(rf, q, 10, sc)
        ids_a, s_a = score_query_taat(ra, q, 10, sc)
        assert list(ids_f) == list(ids_a)
        assert list(s_f) == list(s_a)     # bit-identical scores
        matched += len(ids_f) > 0
    assert matched >= 3


def test_compact_after_appends_is_bit_identical(ray_session,
                                                tmp_path_factory):
    """Compaction folds per-append posting runs to one row per (term,
    shard, salt) with bit-identical search results, is idempotent, and
    later appends still work on the compacted tree."""
    import pyarrow.dataset as pads

    from collections import Counter

    from lucene_msmarco_ray.analysis import get_analyzer
    from lucene_msmarco_ray.index.compact import compact_index

    d = tmp_path_factory.mktemp("compsynth")
    files = generate_corpus(400, seed=21, n_files=4, out_dir=str(d))
    cfg = EngineConfig(analyzer="english", num_shards=4, block_size=32,
                       salt_docs_per_bucket=150)
    idx = str(tmp_path_factory.mktemp("kidx") / "app")
    base = read_code_corpus(files).filter(expr="doc_id < 200")
    build_index(base, idx, cfg, text_col="content", id_col="doc_id",
                key_col="doc_key")
    # two appends; the first ends mid-salt-bucket so the second splices
    # extra run files into an EXISTING salt dir (the fragmentation case)
    for i, (lo, hi) in enumerate([(200, 280), (280, 400)]):
        delta = read_code_corpus(files).filter(
            expr=f"doc_id >= {lo} and doc_id < {hi}")
        append_documents(idx, delta, text_col="content", id_col="doc_id",
                         key_col="doc_key", pid=f"d{i}",
                         input_lineage=f"k-v{i}")

    an = get_analyzer("english")
    sc = BM25Scorer(k1=0.7, b=0.3)

    def runs(reader):
        out = []
        for row in generate_queries(10, seed=5).to_pylist():
            q = {t: float(c) for t, c in Counter(an(row["text"])).items()}
            if q:
                out.append(score_query_taat(reader, q, 20, sc))
        return out

    before = runs(IndexReader(idx, preload=True))
    seg = os.path.join(idx, "segments")
    tbl = pads.dataset(seg, partitioning="hive") \
        .to_table(columns=["term", "shard", "salt"])
    n_rows_before = tbl.num_rows
    n_unique = len({(r["term"], r["shard"], r["salt"])
                    for r in tbl.to_pylist()})
    assert n_rows_before > n_unique          # fragmentation actually exists

    pre_rows = pads.dataset(seg, partitioning="hive").to_table()
    summary = compact_index(idx)
    assert summary["rows_before"] == n_rows_before
    assert summary["rows_after"] == n_unique
    # row level: each (term, shard, salt) row is the concat of its runs
    post = pads.dataset(seg, partitioning="hive").to_table()
    assert post.schema.equals(pre_rows.schema)
    want: dict[tuple, list] = {}
    for r in pre_rows.to_pylist():
        want.setdefault((r["term"], r["shard"], r["salt"]), []).append(
            term_postings_from_row(r))
    got = {(r["term"], r["shard"], r["salt"]): term_postings_from_row(r)
           for r in post.to_pylist()}
    assert len(got) == post.num_rows and set(got) == set(want)
    for key, parts in want.items():
        assert_same_postings(got[key], concat_runs(parts))
    after = runs(IndexReader(idx, preload=True))
    for (ib, sb), (ia, sa) in zip(before, after):
        assert list(ib) == list(ia) and list(sb) == list(sa)

    # idempotent
    again = compact_index(idx)
    assert again["rows_before"] == again["rows_after"] == n_unique

    # appends still work post-compaction (ids stay dense)
    extra_dir = tmp_path_factory.mktemp("compsynth2")
    efiles = generate_corpus(500, seed=21, n_files=4,
                             out_dir=str(extra_dir))
    tail = read_code_corpus(efiles).filter(expr="doc_id >= 400")
    append_documents(idx, tail, text_col="content", id_col="doc_id",
                     key_col="doc_key", pid="post", input_lineage="post-v1")
    st = json.load(open(os.path.join(idx, "stats.json")))
    assert st["num_docs"] == 500
    assert runs(IndexReader(idx, preload=True))  # still searchable


def test_compact_failure_leaves_segments_untouched(corpora, tmp_path):
    """A corrupt segment file makes compaction raise before its commit:
    ``segments/`` keeps every file byte for byte, and once the file is
    restored it compacts."""
    import shutil

    import pyarrow as pa

    from lucene_msmarco_ray.index.compact import compact_index, fragmentation
    _, _, app_dir, _ = corpora
    idx = str(tmp_path / "idx")
    shutil.copytree(app_dir, idx)
    seg = os.path.join(idx, "segments")

    def snapshot():
        return {os.path.relpath(os.path.join(r, f), seg):
                open(os.path.join(r, f), "rb").read()
                for r, _, fs in os.walk(seg) for f in fs}

    salt_dir = next(r for r, _, fs in sorted(os.walk(seg))
                    if "salt=" in r and fs)
    victim = os.path.join(salt_dir, sorted(os.listdir(salt_dir))[0])
    good = open(victim, "rb").read()
    open(victim, "wb").write(b"not a parquet file" * 8)
    before = snapshot()
    with pytest.raises(pa.ArrowInvalid):
        compact_index(idx)
    assert snapshot() == before
    assert sorted(os.listdir(idx)) == ["manifest.json", "segments",
                                       "staged", "stats.json"]

    open(victim, "wb").write(good)
    rows, unique = fragmentation(seg)
    summary = compact_index(idx)
    assert (summary["rows_before"], summary["rows_after"]) == (rows, unique)


def test_compact_crash_before_commit_keeps_previous_generation(
        ray_session, tmp_path_factory, monkeypatch):
    """A compaction that crashes after writing its files and before its
    commit leaves the previous generation: a reader sees it bit for bit
    (its files and its search results), no other path appears next to
    ``segments/``, and a re-run compacts."""
    import hashlib
    from collections import Counter

    from lucene_msmarco_ray.analysis import get_analyzer
    from lucene_msmarco_ray.index import manifest as manifest_mod
    from lucene_msmarco_ray.index.compact import compact_index, fragmentation
    from lucene_msmarco_ray.index.manifest import Commit

    d = tmp_path_factory.mktemp("crashsynth")
    files = generate_corpus(300, seed=9, n_files=3, out_dir=str(d))
    cfg = EngineConfig(analyzer="english", num_shards=2, block_size=32,
                       salt_docs_per_bucket=10_000)
    idx = str(tmp_path_factory.mktemp("cidx") / "idx")
    build_index(read_code_corpus(files).filter(expr="doc_id < 200"), idx,
                cfg, text_col="content", id_col="doc_id", key_col="doc_key")
    append_documents(idx, read_code_corpus(files).filter(
        expr="doc_id >= 200"), text_col="content", id_col="doc_id",
        key_col="doc_key", pid="a0", input_lineage="a0",
        auto_compact_ratio=None)
    seg = os.path.join(idx, "segments")

    def committed():
        return {f: hashlib.sha256(open(f, "rb").read()).hexdigest()
                for f in Commit(idx).segment_files()}

    an = get_analyzer("english")
    sc = BM25Scorer(k1=0.7, b=0.3)

    def runs():
        r = IndexReader(idx, preload=True)
        out = []
        for row in generate_queries(10, seed=5).to_pylist():
            q = {t: float(c) for t, c in Counter(an(row["text"])).items()}
            if q:
                ids, scores = score_query_taat(r, q, 20, sc)
                out.append((list(ids), list(scores)))
        return out

    files_before, runs_before = committed(), runs()
    entries = sorted(os.listdir(idx))
    rows, unique = fragmentation(seg)
    assert rows > unique

    def crash(*a, **kw):
        raise RuntimeError("simulated crash before the commit")

    monkeypatch.setattr(manifest_mod.Manifest, "save", crash)
    with pytest.raises(RuntimeError, match="simulated crash"):
        compact_index(idx)
    monkeypatch.undo()
    written = [os.path.join(r, f) for r, _, fs in os.walk(seg) for f in fs
               if os.path.join(r, f) not in files_before]
    assert written                        # its files were written ...
    assert committed() == files_before    # ... and no reader sees them
    assert runs() == runs_before
    assert sorted(os.listdir(idx)) == entries
    assert fragmentation(seg) == (rows, unique)

    summary = compact_index(idx)
    assert (summary["rows_before"], summary["rows_after"]) == (rows, unique)
    assert fragmentation(seg) == (unique, unique)
    assert runs() == runs_before
    assert set(written) <= set(Commit(idx).segment_files())   # same names


def test_auto_compaction_triggers_exactly_once(ray_session,
                                               tmp_path_factory):
    """Continuous ingestion with auto_compact_ratio: chained appends into
    ONE salt bucket grow runs/term by ~1 per append; the trigger fires
    the first time the exact fragmentation ratio crosses the threshold,
    folds runs back to 1/term, and later appends stay under it — exactly
    one compaction, search bit-identical to the one-shot build."""
    from collections import Counter

    from lucene_msmarco_ray.analysis import get_analyzer
    from lucene_msmarco_ray.index.compact import fragmentation
    from lucene_msmarco_ray.index.manifest import Manifest

    d = tmp_path_factory.mktemp("autosynth")
    files = generate_corpus(300, seed=17, n_files=3, out_dir=str(d))
    # one shard, one salt bucket → every append splices runs into the
    # SAME (shard, salt) dir, so fragmentation actually accrues
    cfg = EngineConfig(analyzer="english", num_shards=1, block_size=32,
                       salt_docs_per_bucket=10_000)
    full_dir = str(tmp_path_factory.mktemp("aidx") / "full")
    build_index(read_code_corpus(files), full_dir, cfg,
                text_col="content", id_col="doc_id", key_col="doc_key")
    app_dir = str(tmp_path_factory.mktemp("aidx") / "auto")
    build_index(read_code_corpus(files).filter(expr="doc_id < 120"),
                app_dir, cfg, text_col="content", id_col="doc_id",
                key_col="doc_key")

    n_compactions = []
    for i, (lo, hi) in enumerate([(120, 180), (180, 240), (240, 300)]):
        delta = read_code_corpus(files).filter(
            expr=f"doc_id >= {lo} and doc_id < {hi}")
        append_documents(app_dir, delta, text_col="content",
                         id_col="doc_id", key_col="doc_key",
                         pid=f"a{i}", input_lineage=f"auto-v{i}",
                         auto_compact_ratio=2.0)
        man = Manifest(os.path.join(app_dir, "manifest.json"))
        n_compactions.append(len(man.data.get("compactions", [])))
        rows, unique = fragmentation(os.path.join(app_dir, "segments"))
        assert rows / unique <= 2.0   # invariant the trigger maintains

    # threshold crossed exactly once across the chain
    assert max(n_compactions) == 1 and n_compactions[-1] == 1

    an = get_analyzer("english")
    rf = IndexReader(full_dir, preload=True)
    ra = IndexReader(app_dir, preload=True)
    sc = BM25Scorer(k1=0.7, b=0.3)
    for row in generate_queries(10, seed=29).to_pylist():
        q = {t: float(c) for t, c in Counter(an(row["text"])).items()}
        if not q:
            continue
        ids_f, s_f = score_query_taat(rf, q, 10, sc)
        ids_a, s_a = score_query_taat(ra, q, 10, sc)
        assert list(ids_f) == list(ids_a)
        assert list(s_f) == list(s_a)

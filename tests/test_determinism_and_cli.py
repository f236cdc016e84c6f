"""SURVEY.md §5(d,e): byte-level determinism across parallelism levels and
resume-after-interrupt; CLI smoke via subprocess."""

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

from lucene_msmarco_ray.synth import generate_corpus

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("detcorpus"))
    generate_corpus(300, seed=9, n_files=4, out_dir=d)
    return d


def _run_cli(*args, cpus: int = 4):
    env = dict(os.environ, PYTHONPATH=REPO, RAY_ADDRESS="local")
    return subprocess.run([sys.executable, "-m", "lucene_msmarco_ray.cli",
                           "--num-cpus", str(cpus), *args],
                          capture_output=True, text=True, env=env, cwd=REPO,
                          timeout=420)


def test_cli_build_search_evaluate(corpus_dir, tmp_path):
    idx = str(tmp_path / "idx")
    r = _run_cli("build", "--corpus", corpus_dir, "--index", idx,
                 "--num-shards", "4")
    assert r.returncode == 0, r.stderr[-2000:]
    stats = json.loads(r.stdout.strip().splitlines()[-1])
    assert stats["num_docs"] == 300

    qf = str(tmp_path / "q.tsv")
    open(qf, "w").write("1\treturn value index\n2\tdata result\n")
    res = str(tmp_path / "out.res")
    r = _run_cli("search", "--index", idx, "--queries", qf, "--out", res,
                 "--k", "20")
    assert r.returncode == 0, r.stderr[-2000:]
    lines = open(res).read().splitlines()
    assert lines and lines[0].split("\t")[1] == "Q0"

    qrels = str(tmp_path / "q.qrels")
    with open(qrels, "w") as f:
        for line in lines[:10]:
            t = line.split("\t")
            f.write(f"{t[0]} 0 {t[2]} 2\n")
    r = _run_cli("evaluate", "--run", res, "--qrels", qrels)
    assert r.returncode == 0, r.stderr[-2000:]
    assert "macro" in r.stdout

    # a one-CPU cluster: the lone searcher actor must not starve the
    # producer tasks feeding it, and the res file must not change
    res1 = str(tmp_path / "out_1cpu.res")
    r = _run_cli("search", "--index", idx, "--queries", qf, "--out", res1,
                 "--k", "20", cpus=1)
    assert r.returncode == 0, r.stderr[-2000:]
    assert open(res).read() == open(res1).read()

    # printfdbkterms.sh equivalent: qid headers + "term: weight" lines
    r = _run_cli("fdbkterms", "--index", idx, "--run", res,
                 "--num-top-docs", "10")
    assert r.returncode == 0, r.stderr[-2000:]
    out_lines = [ln for ln in r.stdout.splitlines() if ":" in ln]
    assert any(ln.startswith("1:") for ln in out_lines)
    assert any(ln.startswith("2:") for ln in out_lines)
    assert len(out_lines) > 4


def _tree_files(root: str) -> dict[str, str]:
    """relative path → sha256 of every file under ``root``."""
    import hashlib
    return {os.path.relpath(os.path.join(d, f), root):
            hashlib.sha256(open(os.path.join(d, f), "rb").read()).hexdigest()
            for d, _, fs in os.walk(root) for f in fs}


def test_parallelism_determinism(corpus_dir, tmp_path):
    """Same build at num_cpus=1 and num_cpus=4 → identical segment CONTENT,
    the same segment files byte for byte (same relative paths, same
    sha256) and identical retrieval output (SURVEY.md §5e). Two builds at
    the same CPU count also write the same staged files byte for byte."""
    outs = {}
    for run, n in enumerate((1, 4, 4)):
        idx = str(tmp_path / f"idx{run}")
        env = dict(os.environ, PYTHONPATH=REPO)
        code = f"""
import ray, json
ray.init(address="local", num_cpus={n}, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext; DataContext.get_current().enable_progress_bars=False
import ray.data as rd
from lucene_msmarco_ray.config import EngineConfig
from lucene_msmarco_ray.index.build import build_index
from lucene_msmarco_ray.sources.corpus import read_code_corpus
from lucene_msmarco_ray.search.searcher import IndexReader, score_query_taat
from lucene_msmarco_ray.search.scoring import BM25Scorer
build_index(read_code_corpus({corpus_dir!r}), {idx!r},
            EngineConfig(analyzer="english", num_shards=4),
            text_col="content", id_col="doc_id", key_col="doc_key")
r = IndexReader({idx!r}, preload=True)
docs, scores = score_query_taat(r, {{"return": 1.0, "valu": 1.0}}, 30, BM25Scorer())
print(json.dumps({{"docs": docs.tolist(), "scores": scores.tolist()}}))
ray.shutdown()
"""
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env, cwd=REPO, timeout=420)
        assert r.returncode == 0, r.stderr[-2000:]
        outs[run] = json.loads(r.stdout.strip().splitlines()[-1])
        # segment content identical: compare sorted (term, df, cf) triples
        import glob

        import pyarrow.dataset as pads
        seg = pads.dataset(os.path.join(idx, "segments")).to_table(
            columns=["term", "df", "cf", "doc_bytes", "tf_bytes"])
        outs[f"seg{run}"] = sorted(zip(seg["term"].to_pylist(),
                                     seg["df"].to_pylist(),
                                     seg["cf"].to_pylist(),
                                     seg["doc_bytes"].to_pylist(),
                                     seg["tf_bytes"].to_pylist()))
        outs[f"files{run}"] = _tree_files(os.path.join(idx, "segments"))
        outs[f"staged{run}"] = _tree_files(os.path.join(idx, "staged"))
    for run in (1, 2):
        assert outs[0] == outs[run]
        assert outs["seg0"] == outs[f"seg{run}"]
        assert outs["files0"] and outs["files0"] == outs[f"files{run}"]
    assert outs["staged1"] and outs["staged1"] == outs["staged2"]


def test_cli_curate(ray_session, tmp_path):
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_msmarco_ray.cli import main
    src = tmp_path / "docs.parquet"
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["the cat sat", "the cat sat", "x"])}), src)
    out = tmp_path / "curated"
    rc = main(["curate", "--corpus", str(src), "--out", str(out),
               "--min-tokens", "2"])
    assert rc == 0
    kept = pq.read_table(str(out)).to_pandas()
    # exact dup (doc 1) collapses onto doc 0; doc 2 fails min_tokens
    assert kept["doc_id"].tolist() == [0]
    assert kept["dup_count"].tolist() == [2]

"""The index's commit record: ``stats.json`` always equals the manifest's
stats, its write is atomic, a crashed merge resumes to the same segment
tree, and only ``index/`` opens the record files by name."""

import hashlib
import json
import os
import re

import pytest

from lucene_msmarco_ray.config import EngineConfig
from lucene_msmarco_ray.index import build as build_mod
from lucene_msmarco_ray.index import manifest as manifest_mod
from lucene_msmarco_ray.index.append import append_documents
from lucene_msmarco_ray.index.build import build_index
from lucene_msmarco_ray.index.compact import compact_index
from lucene_msmarco_ray.index.manifest import Manifest
from lucene_msmarco_ray.search.searcher import IndexReader
from lucene_msmarco_ray.sources.corpus import read_code_corpus
from lucene_msmarco_ray.synth import generate_corpus

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "lucene_msmarco_ray")
CFG = EngineConfig(analyzer="english", num_shards=2, block_size=32,
                   salt_docs_per_bucket=100)
KW = dict(text_col="content", id_col="doc_id", key_col="doc_key")


@pytest.fixture(scope="module")
def files(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("commitsynth")
    return generate_corpus(240, seed=31, n_files=2, out_dir=str(d))


def _docs(files, lo, hi):
    return read_code_corpus(files).filter(
        expr=f"doc_id >= {lo} and doc_id < {hi}")


def _manifest(idx):
    return Manifest(os.path.join(idx, "manifest.json"))


def _stats_file(idx):
    with open(os.path.join(idx, "stats.json")) as f:
        return json.load(f)


def _tree(root):
    out = {}
    for r, _, fs in os.walk(root):
        for f in fs:
            p = os.path.join(r, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return out


def test_stats_file_equals_manifest_after_every_step(files, tmp_path):
    """build → append → compact → append → resumed build: after each step
    ``stats.json`` is the manifest's stats, and an append's stats carry no
    build timings."""
    idx = str(tmp_path / "idx")

    def check(step):
        man = _manifest(idx).data
        assert _stats_file(idx) == man["stats"], step
        assert man["stats"]["num_docs"] == sum(
            p["rows"] for p in man["partitions"].values()), step
        return man["stats"]

    build_index(_docs(files, 0, 100), idx, CFG, **KW)
    assert "stage_secs" in check("build")
    append_documents(idx, _docs(files, 100, 170), pid="a0",
                     input_lineage="a0", auto_compact_ratio=None, **KW)
    assert "stage_secs" not in check("append")
    compact_index(idx)
    assert "segment_rows" not in check("compact")
    st = append_documents(idx, _docs(files, 170, 240), pid="a1",
                          input_lineage="a1", auto_compact_ratio=None, **KW)
    assert "stage_secs" not in check("second append")
    assert st["num_docs"] == 240 and st["n_salt"] == 3
    build_index(_docs(files, 0, 100), idx, CFG, **KW)
    assert check("resumed build")["num_docs"] == 240


def test_crash_in_stats_write_keeps_previous_stats(files, tmp_path,
                                                   monkeypatch):
    """A crash part-way through writing ``stats.json`` leaves the previous
    file loadable and the index openable; re-running the append commits
    the new stats."""
    idx = str(tmp_path / "idx")
    build_index(_docs(files, 0, 100), idx, CFG, **KW)
    before = _stats_file(idx)
    real_dump = json.dump

    def torn_dump(obj, f, **kw):
        if os.path.basename(getattr(f, "name", "")).startswith("stats.json"):
            f.write(json.dumps(obj, **kw)[:20])
            raise OSError("simulated crash inside the stats write")
        return real_dump(obj, f, **kw)

    monkeypatch.setattr(manifest_mod.json, "dump", torn_dump)
    with pytest.raises(OSError, match="simulated crash"):
        append_documents(idx, _docs(files, 100, 170), pid="a0",
                         input_lineage="a0", auto_compact_ratio=None, **KW)
    monkeypatch.undo()
    assert _stats_file(idx) == before
    assert IndexReader(idx).num_docs == before["num_docs"]
    st = append_documents(idx, _docs(files, 100, 170), pid="a0",
                          input_lineage="a0", auto_compact_ratio=None, **KW)
    assert st["num_docs"] == 170
    assert _stats_file(idx) == _manifest(idx).data["stats"] == st


def test_build_resumes_after_crash_in_merge(files, tmp_path, monkeypatch):
    """A build that crashes after its staged write, leaving a partial
    ``segments.tmp`` and a pending merge, resumes to the segment tree an
    uninterrupted build writes (same relative paths and sha256)."""
    ref = str(tmp_path / "ref")
    build_index(_docs(files, 0, 240), ref, CFG, **KW)

    real_encode = build_mod.encode_segments

    def crashing_encode(pdirs, root, name, block_size):
        real_encode(pdirs, root, name, block_size)
        written = sorted(_tree(root))
        for rel in written[: len(written) // 2]:
            os.remove(os.path.join(root, rel))
        open(os.path.join(root, ".partial.tmp"), "wb").write(b"torn")
        raise RuntimeError("simulated crash inside the merge")

    idx = str(tmp_path / "idx")
    monkeypatch.setattr(build_mod, "encode_segments", crashing_encode)
    with pytest.raises(RuntimeError, match="simulated crash"):
        build_index(_docs(files, 0, 240), idx, CFG, **KW)
    monkeypatch.undo()
    man = _manifest(idx)
    assert not man.merge_done and man.data["partitions"]["all"]
    assert os.path.isdir(os.path.join(idx, "segments.tmp"))
    assert not os.path.exists(os.path.join(idx, "segments"))

    st = build_index(_docs(files, 0, 240), idx, CFG, **KW)
    assert _tree(os.path.join(idx, "segments")) \
        == _tree(os.path.join(ref, "segments"))
    assert not os.path.exists(os.path.join(idx, "segments.tmp"))
    want = {k: v for k, v in _stats_file(ref).items() if k != "stage_secs"}
    assert {k: v for k, v in st.items() if k != "stage_secs"} == want


def test_only_index_opens_the_record_files():
    """Outside ``index/`` no module names ``stats.json`` or
    ``manifest.json``: readers go through ``index.manifest``."""
    pat = re.compile(r"""["'](stats|manifest)\.json["']""")
    offenders = []
    for root, dirs, fs in os.walk(PKG):
        dirs[:] = [d for d in dirs if d != "index"]
        for f in fs:
            if f.endswith(".py"):
                p = os.path.join(root, f)
                with open(p, encoding="utf-8") as fh:
                    for i, line in enumerate(fh, 1):
                        if pat.search(line):
                            offenders.append(
                                f"{os.path.relpath(p, PKG)}:{i}")
    assert not offenders, offenders

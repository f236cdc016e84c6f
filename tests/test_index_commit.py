"""The index's commit record: the manifest is the one record a reader
trusts, ``stats.json`` is its view, a crash at any write of build, append
or compaction leaves a generation a reader sees whole and a re-run
finishes, and only ``index/`` opens the record files or names the index's
directories."""

import ast
import hashlib
import json
import os
import re
import shutil

import numpy as np
import pytest
import ray

from lucene_msmarco_ray.config import EngineConfig
from lucene_msmarco_ray.index import build as build_mod
from lucene_msmarco_ray.index import manifest as manifest_mod
from lucene_msmarco_ray.index import append as append_mod
from lucene_msmarco_ray.index import compact as compact_mod
from lucene_msmarco_ray.index.append import append_documents
from lucene_msmarco_ray.index.build import build_index
from lucene_msmarco_ray.index.codec import decode_all
from lucene_msmarco_ray.index.compact import compact_index
from lucene_msmarco_ray.index.manifest import Manifest, term_totals
from lucene_msmarco_ray.search.searcher import IndexReader
from lucene_msmarco_ray.sources.corpus import read_code_corpus
from lucene_msmarco_ray.synth import generate_corpus

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(REPO, "lucene_msmarco_ray")
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
    """A crash part-way through writing ``stats.json`` (after the commit)
    leaves the previous file loadable and the index openable at the new
    generation, consistent; re-running the append writes the view."""
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
    r = IndexReader(idx)
    assert r.num_docs == r._dl.size == 170
    assert int(r._dl.sum()) == r.total_len
    st = append_documents(idx, _docs(files, 100, 170), pid="a0",
                          input_lineage="a0", auto_compact_ratio=None, **KW)
    assert st["num_docs"] == 170
    assert _stats_file(idx) == _manifest(idx).data["stats"] == st


def test_build_resumes_after_crash_in_merge(files, tmp_path, monkeypatch):
    """A build that crashes in its encode, leaving some segment files and
    a torn temp file but no commit, resumes to the segment tree an
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
    assert man.data["partitions"]["all"]
    assert man.segments == [] and man.stats is None   # nothing committed
    with pytest.raises(FileNotFoundError):
        IndexReader(idx)

    st = build_index(_docs(files, 0, 240), idx, CFG, **KW)
    assert _tree(os.path.join(idx, "segments")) \
        == _tree(os.path.join(ref, "segments"))
    want = {k: v for k, v in _stats_file(ref).items() if k != "stage_secs"}
    assert {k: v for k, v in st.items() if k != "stage_secs"} == want


class _Crash(Exception):
    pass


class _Writes:
    """Counts the index's writes and raises :class:`_Crash` at the
    ``crash_at``-th (never when it is 0)."""

    def __init__(self, crash_at: int = 0):
        self.crash_at, self.calls = crash_at, 0

    def hit(self, what: str) -> None:
        self.calls += 1
        if self.calls == self.crash_at:
            raise _Crash(f"simulated crash at write {self.calls}: {what}")

    def wrap(self, fn, what: str):
        def wrapped(*a, **kw):
            self.hit(what)
            return fn(*a, **kw)
        return wrapped


class _Module:
    """A stand-in for ``os`` or ``shutil`` inside one index module whose
    ``names`` are counted as writes."""

    def __init__(self, mod, writes: _Writes, names):
        self._mod, self._writes, self._names = mod, writes, names

    def __getattr__(self, name):
        attr = getattr(self._mod, name)
        if name in self._names:
            return self._writes.wrap(attr, f"{self._mod.__name__}.{name}")
        return attr


class _InProcessWriter:
    """``write_segment_dir`` run in this process, so the writes inside it
    are counted too and no task outlives a crash; its submit is a write."""

    _fn = staticmethod(build_mod.write_segment_dir._function)

    def __init__(self, writes: _Writes):
        self._writes = writes

    def remote(self, *args):
        self._writes.hit("write_segment_dir submit")
        return ray.put(self._fn(*args))


def _patch_writes(monkeypatch, writes: _Writes) -> None:
    for mod in (build_mod, manifest_mod, append_mod, compact_mod):
        monkeypatch.setattr(mod, "os", _Module(os, writes,
                                               {"replace", "remove"}))
        if hasattr(mod, "shutil"):
            monkeypatch.setattr(mod, "shutil",
                                _Module(shutil, writes, {"rmtree"}))
        if hasattr(mod, "write_segment_dir"):
            monkeypatch.setattr(mod, "write_segment_dir",
                                _InProcessWriter(writes))
    monkeypatch.setattr(manifest_mod, "_write_json", writes.wrap(
        manifest_mod._write_json, "_write_json"))


def _steps(files):
    """build → append (whose second salt bucket lands in a dir the build
    wrote) → compaction."""
    return [
        ("build", lambda idx: build_index(_docs(files, 0, 150), idx, CFG,
                                          **KW)),
        ("append", lambda idx: append_documents(
            idx, _docs(files, 150, 240), pid="a0", input_lineage="a0",
            auto_compact_ratio=None, **KW)),
        ("compact", compact_index),
    ]


def _check_consistent(idx) -> None:
    """A reader opened now sees one generation: N equals the doc-length
    rows (ids are dense) and their sum, each term's df and cf equal its
    decoded postings, and the vocabulary equals the terms it can read.
    Before the first commit there is no index to open."""
    try:
        r = IndexReader(idx)
    except FileNotFoundError:
        assert _manifest(idx).stats is None
        return
    assert r.num_docs == r._dl.size
    assert int(r._dl.sum()) == r.total_len
    tot = term_totals(idx)
    terms = tot["term"].to_pylist()
    assert r.stats["num_terms"] == len(terms)
    r.prefetch(terms)
    for term, df, cf in zip(terms, tot["df"].to_pylist(),
                            tot["cf"].to_pylist()):
        tp = r.get_term(term)
        docs, tfs = decode_all(tp)
        assert tp.df == df == len(docs) == len(np.unique(docs)), term
        assert tp.cf == cf == int(tfs.sum()), term
        assert int(docs.max()) < r.num_docs, term


def test_every_crash_point_leaves_one_generation(files, tmp_path,
                                                 monkeypatch):
    """Crash at each write of one build → append → compaction (the n-th
    call of ``_write_json``, ``os.replace``, ``os.remove``,
    ``shutil.rmtree`` or a ``write_segment_dir`` submit, for every n an
    uninterrupted run makes): a reader opened after the crash sees one
    consistent generation, and re-running the interrupted step and the
    ones after it gives the uninterrupted run's segment tree (paths and
    sha256: the committed files and nothing else) and stats."""
    steps = _steps(files)
    ref = str(tmp_path / "ref")
    snapshots, counts = [None], []
    for i, (_, step) in enumerate(steps):
        writes = _Writes()
        with monkeypatch.context() as m:
            _patch_writes(m, writes)
            step(ref)
        counts.append(writes.calls)
        snapshots.append(str(tmp_path / f"after{i}"))
        shutil.copytree(ref, snapshots[-1])
    want_tree = _tree(os.path.join(ref, "segments"))
    want_stats = _stats_file(ref)
    assert sorted(want_tree) == _manifest(ref).segments   # nothing else
    assert _manifest(ref).data["compactions"][0]["dirs"] > 0
    print(f"crash points: {sum(counts)} "
          f"({dict(zip([s for s, _ in steps], counts))})")

    for i, (name, step) in enumerate(steps):
        for n in range(1, counts[i] + 1):
            idx = str(tmp_path / f"crash-{name}-{n}")
            if snapshots[i] is not None:
                shutil.copytree(snapshots[i], idx)
            with monkeypatch.context() as m:
                _patch_writes(m, _Writes(n))
                with pytest.raises(_Crash):
                    step(idx)
            where = f"{name} write {n}"
            try:
                _check_consistent(idx)
                for _, rest in steps[i:]:
                    rest(idx)
                assert _tree(os.path.join(idx, "segments")) == want_tree
                assert _stats_file(idx) == want_stats
                assert _manifest(idx).data["stats"] == want_stats
            except AssertionError as e:
                raise AssertionError(f"after a crash at {where}: {e}") from e
            shutil.rmtree(idx)


# calls that change or delete files, by name; the harness above patches
# the first three wherever ``index/`` calls them
_WRITE_CALLS = {"replace", "remove", "rmtree", "rename", "unlink", "rmdir",
                "removedirs", "move", "copy", "copy2", "copyfile", "copytree",
                "write_table", "write_parquet", "dump"}
_PATCHED = {"replace", "remove", "rmtree"}
# (module, function, call) writes that happen inside a patched unit: the
# ``_write_json`` call, the ``write_segment_dir`` submit, or the staged
# write into ``part=<pid>.tmp`` that a patched ``os.replace`` publishes
_INSIDE_PATCHED = {("manifest", "_write_json", "open"),
                   ("manifest", "_write_json", "dump"),
                   ("build", "write_segment_dir", "write_table"),
                   ("build", "stage_tokenize_partition", "write_parquet")}


class _WriteCalls(ast.NodeVisitor):
    def __init__(self, module: str):
        self.module, self.funcs, self.found = module, [], set()

    def visit_FunctionDef(self, node):
        self.funcs.append(node.name)
        self.generic_visit(node)
        self.funcs.pop()

    def visit_Call(self, node):
        f = node.func
        if isinstance(f, ast.Attribute):
            # a module function (os.replace, pq.write_table, ...) or a
            # Dataset's write_parquet; not a method such as ndarray.copy
            own = getattr(f.value, "id", "") in ("os", "shutil", "json", "pq")
            name = f.attr if own or f.attr == "write_parquet" else ""
        else:
            name = getattr(f, "id", "")
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        if name in _WRITE_CALLS or name == "open" and isinstance(
                mode, ast.Constant) and set(str(mode.value)) & set("wax+"):
            self.found.add((self.module, ".".join(self.funcs), name))
        self.generic_visit(node)


def test_crash_harness_covers_every_index_write():
    """Every call in ``index/`` that changes or deletes a file is one the
    crash-point harness patches, or runs inside one it patches; a new
    kind of write fails here until the harness counts it."""
    found = set()
    for f in sorted(os.listdir(os.path.join(PKG, "index"))):
        if f.endswith(".py"):
            with open(os.path.join(PKG, "index", f), encoding="utf-8") as fh:
                v = _WriteCalls(f[:-3])
                v.visit(ast.parse(fh.read()))
                found |= v.found
    assert {w for w in found if w[2] not in _PATCHED} == _INSIDE_PATCHED


def test_only_index_opens_the_record_files():
    """Outside ``index/`` no module of the package, ``scripts/``,
    ``bench.py`` or ``__ray_entry__.py`` names ``stats.json`` or
    ``manifest.json``, or names the index's ``segments/`` or ``staged/``
    directories or their ``key=value`` levels: readers go through
    ``index.manifest``, which alone knows what a commit lists."""
    pat = re.compile(r"""["'](stats|manifest)\.json["']"""
                     r"""|["'](segments|staged)["'/]"""
                     r"""|["'](shard|salt|part|kind|gkey)=""")
    paths = [os.path.join(REPO, f) for f in ("bench.py", "__ray_entry__.py")]
    for top in (PKG, os.path.join(REPO, "scripts")):
        for root, dirs, fs in os.walk(top):
            dirs[:] = [d for d in dirs if d != "index"]
            paths += [os.path.join(root, f) for f in fs if f.endswith(".py")]
    offenders = []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            for i, line in enumerate(fh, 1):
                if pat.search(line):
                    offenders.append(f"{os.path.relpath(p, REPO)}:{i}")
    assert not offenders, offenders

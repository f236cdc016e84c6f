"""scripts/check_gate.py reports a gate's own failure, not a stand-in."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "scripts", "check_gate.py")


def _check_gate():
    spec = importlib.util.spec_from_file_location("check_gate", _PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_to_pandas_surfaces_the_datasets_own_error(ray_session):
    import ray.data as rd

    def boom(batch):
        raise ValueError("boom")

    ds = rd.range(4).map_batches(boom)
    # Ray Data re-raises a map's exception on the driver as
    # RayTaskError(UserCodeException); the worker's ValueError and its
    # traceback are in its text
    with pytest.raises(Exception) as err:
        _check_gate().to_pandas(ds)
    assert not isinstance(err.value, TypeError)
    assert "ValueError: boom" in str(err.value)


def test_gate_index_dir_follows_the_index_code(tmp_path, monkeypatch):
    """A gate index is resumed from its dir, so the dir must change when
    the code that builds indexes changes, and only then."""
    import shutil
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(_PATH)))
    import __ray_entry__ as entry

    pkg = tmp_path / "pkg"
    for sub in (*entry._INDEX_CODE_DIRS, "search"):
        shutil.copytree(os.path.join(entry._PKG_DIR, sub), pkg / sub)
    monkeypatch.setattr(entry, "_PKG_DIR", str(pkg))
    sf = "/data/sf0.01"
    base = entry._index_dir_for(sf)
    assert entry._index_dir_for(sf) == base
    assert entry._index_dir_for("/data/sf0.001") != base

    # code outside the index dirs, and files that are not sources, keep it
    with open(pkg / "search" / "searcher.py", "a") as f:
        f.write("\n# changed\n")
    (pkg / "index" / "notes.txt").write_text("x")
    assert entry._index_dir_for(sf) == base

    for sub in entry._INDEX_CODE_DIRS:
        path = next((pkg / sub).glob("*.py"))
        text = path.read_text()
        path.write_text(text + "\n# changed\n")
        assert entry._index_dir_for(sf) != base, sub
        path.write_text(text)
        assert entry._index_dir_for(sf) == base

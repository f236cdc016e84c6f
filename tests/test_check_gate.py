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

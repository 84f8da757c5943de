"""The benchmark's layer tracer wraps chebcurve functions by name; every name
it lists must exist, or a traced benchmark run breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layertrace = _layertrace()


@pytest.mark.parametrize(
    "module,name", layertrace.TRACED, ids=[".".join(t) for t in layertrace.TRACED]
)
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"chebcurve.{module}"), name))


@pytest.mark.parametrize(
    "module,cls,methods",
    [entry[:3] for entry in layertrace.COUNTED],
    ids=[f"{m}.{c}.{n}" for m, c, _, n in layertrace.COUNTED],
)
def test_counted_methods_exist(module, cls, methods):
    owner = getattr(importlib.import_module(f"chebcurve.{module}"), cls)
    for method in methods:
        assert callable(getattr(owner, method))

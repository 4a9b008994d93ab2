"""The per-layer benchmark wraps package functions by name; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    module_name, _, attr = name.partition(".")
    owner = importlib.import_module(f"diracboost.{module_name}")
    *classes, function = attr.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name)
    # class methods are read from the class dict, as the tracer does
    target = owner.__dict__[function] if classes else getattr(owner, function)
    assert callable(getattr(target, "__func__", target))

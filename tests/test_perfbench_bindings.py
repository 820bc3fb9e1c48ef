"""The benchmark's tracer wraps chaincut functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module, attr", traced_names())
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"chaincut.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)

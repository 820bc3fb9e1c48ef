"""The benchmark reaches into chaincut by name; every name it uses must exist.

Three kinds of use are guarded: the functions the tracer wraps (TRACED),
the counter hooks ``tracer.install`` rebinds, and every
``from chaincut.<module> import <name>`` in perfbench's sources.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def counter_hooks():
    """(module, name) of each ``(module.name, _count_...)`` pair in tracer.install."""
    return re.findall(r"\(\s*(\w+)\.(\w+),\s*_count_\w+\s*\)", TRACER.read_text())


def imported_names():
    """(module, name) of each ``from chaincut.<module> import <names>`` in perfbench."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for module, names in re.findall(
            r"^\s*from chaincut\.(\w+) import ([\w, ]+)$", path.read_text(), re.MULTILINE
        ):
            found.update((module, name.strip()) for name in names.split(","))
    return sorted(found)


def resolve(module: str, attr: str):
    owner = importlib.import_module(f"chaincut.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module, attr", traced_names())
def test_traced_name_resolves(module, attr):
    assert callable(resolve(module, attr))


def test_every_use_is_found():
    assert sorted(counter_hooks()) == [
        ("direct", "heisenberg_distribution"),
        ("mitigation", "apply_tmem"),
    ]
    assert {name for _, name in imported_names()} >= {
        "witness_term_count", "build_linear_cluster", "statevector_distribution", "witness_setting",
    }


@pytest.mark.parametrize("module, attr", counter_hooks() + imported_names())
def test_benchmark_name_resolves(module, attr):
    assert callable(resolve(module, attr))

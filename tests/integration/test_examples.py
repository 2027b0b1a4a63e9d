"""Smoke tests that keep the example scripts runnable.

Each example's ``main()`` is executed end to end (with output captured by
pytest); failures here mean the documented entry points drifted from the API.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def _load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name",
    ["quickstart", "graph_search", "airline_analytics", "workload_discovery"],
)
def test_example_runs(name, capsys):
    module = _load_example(name)
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"example {name} produced no output"

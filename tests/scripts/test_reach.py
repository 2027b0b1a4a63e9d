"""``scripts/reach.py``: which lines of ``src/`` a function owns, and which are unreached.

Only the bookkeeping is checked here; the entry points it profiles are the
product's own and run in CI.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
reach = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(reach)

MODULE = '''\
def outer():
    x = 1

    @decorator
    def inner():
        return 2

    return inner


class Box:
    def method(self):
        return [y for y in range(3)]

    def hook(self):
        """Subclasses say."""
        raise NotImplementedError
'''


@pytest.fixture
def module(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    return path


def test_a_line_belongs_to_its_innermost_def_from_its_first_decorator(module):
    assert reach.functions(module) == [
        ("outer", 1, {1, 2, 3, 7, 8}),
        ("outer.inner", 4, {4, 5, 6}),
        ("Box.method", 12, {12, 13}),
    ]


def test_an_abstract_hook_is_no_function():
    defs = {
        node.name: node for node in ast.walk(ast.parse(MODULE)) if isinstance(node, ast.FunctionDef)
    }
    assert reach._abstract(defs["hook"])
    assert not any(reach._abstract(defs[name]) for name in ("outer", "inner", "method"))


def test_a_called_function_is_reached_and_only_it():
    path = reach.SRC / "sharding" / "partition.py"
    owned = {name: (first, lines) for name, first, lines in reach.functions(path)}
    first, lines = owned["Partitioner.route"]
    report = reach.reach({(str(path), first)})
    row = report["repro/sharding/partition.py"]
    assert row["function_lines"] == sum(len(lines) for _, lines in owned.values())
    assert "Partitioner.route" not in row["unreached"]
    assert row["unreached_lines"] == row["function_lines"] - len(lines)
    # a module none of whose functions was called is unreached whole
    other = report["repro/sharding/router.py"]
    assert other["unreached_lines"] == other["function_lines"] > 0

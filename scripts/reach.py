"""Which ``src/`` functions the product's entry points reach, and which they do not.

Code that no entry point runs is carried by tests alone: a candidate for
deletion, or a feature that needs a workload before it earns its place.  This
script records, with ``sys.setprofile``, every function of ``src/repro`` that
these entry points call, all in this process:

* the five layered workloads (``benchmarks/layered``, imported, never
  changed), each set up, run for ``OPS`` operations and verified;
* ``repro.cli report --quick`` on AIRCA, MCBM and TFACC;
* the four scripts under ``examples/``;
* ``repro.cli check`` / ``plan`` / ``run`` on Example 1's graph-search query;
* the plain soak and the ``--shards 3`` soak, CI's quick AIRCA pair.

It then prints, per module, the lines inside functions that none of them
called, and each such function.  A line belongs to the innermost ``def`` that
holds it, from its first decorator to its last line; lambdas and
comprehensions count with the function around them, and a called function's
untaken branches count as reached.  Module and class bodies are not
functions, and neither is an abstract hook whose body only raises
``NotImplementedError``: neither is counted::

    python scripts/reach.py

About 45 s on a 2-core machine; the entry points' own output is discarded.
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
for path in (ROOT / "benchmarks", ROOT / "src"):
    sys.path.insert(0, str(path))

from layered.queries import ShapeCatalog  # noqa: E402
from layered.workloads import WORKLOADS, Budget  # noqa: E402
from repro import cli  # noqa: E402
from repro.workloads import WORKLOADS as DATASETS  # noqa: E402

#: Example 1's q1 over the default facebook instance: 3 rows, bounded
GRAPH_SEARCH = (
    "SELECT dine.cid FROM friend, dine, cafe WHERE friend.pid = 'p0' "
    "AND friend.fid = dine.pid AND dine.month = 'may' AND dine.year = 2013 "
    "AND dine.cid = cafe.cid AND cafe.city = 'austin'"
)
#: operations per layered workload
OPS = 300
SOAK = ["soak", "--workload", "AIRCA", "--scale", "60", "--requests", "80", "--seed", "3"]


def entry_points():
    """``(name, thunk)`` for every entry point, in the order they run."""

    def layered(cls):
        def run():
            workload = cls(ShapeCatalog(DATASETS["TFACC"]), 7)
            workload.set_up()
            try:
                workload.run(Budget(ops=OPS))
                workload.verify()
            finally:
                workload.close()

        return run

    def command(*argv):
        return lambda: cli.main(list(argv))

    def example(path):
        return lambda: runpy.run_path(str(path), run_name="__main__")

    yield from ((f"layered {name}", layered(cls)) for name, cls in WORKLOADS.items())
    for name in ("AIRCA", "MCBM", "TFACC"):
        yield f"report {name}", command("report", "--workload", name, "--quick")
    for path in sorted((ROOT / "examples").glob("*.py")):
        yield f"example {path.stem}", example(path)
    for verb in ("check", "plan", "run"):
        yield f"cli {verb}", command(verb, "--sql", GRAPH_SEARCH)
    yield "soak", command(*SOAK)
    yield "soak --shards 3", command(*SOAK, "--shards", "3")


def record() -> set[tuple[str, int]]:
    """``(file, first line)`` of every ``src/repro`` function the entry points call."""
    called: set = set()
    prefix = str(SRC)

    def profiler(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    for name, thunk in entry_points():
        print(f"# running {name}", file=sys.stderr)
        threading.setprofile(profiler)
        sys.setprofile(profiler)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                thunk()
        except SystemExit:
            pass
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    return {
        (code.co_filename, code.co_firstlineno)
        for code in called
        if code.co_filename.startswith(prefix)
    }


def _abstract(function: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether ``function``'s body, past its docstring, only raises ``NotImplementedError``."""
    body = function.body[1:] if ast.get_docstring(function) is not None else function.body
    if len(body) != 1 or not isinstance(body[0], ast.Raise) or body[0].exc is None:
        return False
    raised = body[0].exc.func if isinstance(body[0].exc, ast.Call) else body[0].exc
    return isinstance(raised, ast.Name) and raised.id == "NotImplementedError"


def functions(path: Path) -> list[tuple[str, int, set[int]]]:
    """``(qualified name, first line, its own lines)`` of every ``def`` in ``path``
    that is not an abstract hook."""
    found: list[tuple[str, int, set[int]]] = []

    def visit(node, scope: str, owner: set[int] | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _abstract(child):
                    continue
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                lines = set(range(first, child.end_lineno + 1))
                if owner is not None:
                    owner -= lines
                found.append((f"{scope}{child.name}", first, lines))
                visit(child, f"{scope}{child.name}.", lines)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{scope}{child.name}.", owner)
            else:
                visit(child, scope, owner)

    visit(ast.parse(path.read_text(), str(path)), "", None)
    return found


def reach(called: set[tuple[str, int]]) -> dict[str, dict]:
    """Per module: lines inside functions, those unreached, and the unreached functions."""
    report = {}
    for path in sorted(SRC.rglob("*.py")):
        total, unreached = 0, {}
        for name, first, lines in functions(path):
            total += len(lines)
            if (str(path), first) not in called:
                unreached[name] = len(lines)
        report[str(path.relative_to(SRC.parent))] = {
            "function_lines": total,
            "unreached_lines": sum(unreached.values()),
            "unreached": unreached,
        }
    return report


def main() -> int:
    report = reach(record())
    print(f"{'module':<36} {'lines in functions':>18} {'unreached':>9}")
    for module, row in report.items():
        print(f"{module:<36} {row['function_lines']:>18,} {row['unreached_lines']:>9,}")
    total = sum(row["function_lines"] for row in report.values())
    missed = sum(row["unreached_lines"] for row in report.values())
    print(f"{'total':<36} {total:>18,} {missed:>9,}")
    print()
    for module, row in report.items():
        for name, lines in row["unreached"].items():
            print(f"{module}::{name} {lines}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Documentation checks: docstrings, links, named root files, documented figures.

Stdlib only (the CI image has no pydocstyle).  Four passes:

1. **Docstrings** — every module, public class, and public function/method
   under ``src/repro/core/`` must carry a docstring.  "Public" means the
   name has no leading underscore and, for methods, the enclosing class is
   public too.  One carve-out, mirroring interrogate's
   ``--ignore-property-decorators``: a ``@property`` (or
   ``@cached_property``) getter whose body is a single ``return`` is a
   named attribute, not behaviour — the class docstring documents it.
2. **Links** — every relative Markdown link or image in ``README.md``,
   ``docs/**/*.md``, ``benchmarks/README.md`` and ``benchmarks/history/*.md``
   must resolve to a file or directory in the repo.  External links
   (``http://``, ``https://``, ``mailto:``) and intra-page anchors (``#...``)
   are skipped; an anchor suffix on a relative link (``file.md#section``) is
   stripped before the existence check.
3. **Named files** — a root-level file a docstring names (``UPPER_CASE.md``,
   ``pyproject.toml``) under ``src/``, ``examples/``, ``benchmarks/*.py`` or
   in ``setup.py`` must exist: docstrings outlive the files they point at.
4. **Paper figures** — the "Reproducing the paper" table of ``README.md`` must
   have a row for every id of ``repro.bench.experiments.FIGURES``: a figure
   is not checked in without its claim written down.

Exit code 1 with one ``path:line: message`` per problem; 0 when clean.

Run from the repo root (as CI does)::

    python scripts/check_docs.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCSTRING_ROOTS = [REPO / "src" / "repro" / "core"]
MARKDOWN_FILES = [REPO / "README.md", REPO / "benchmarks" / "README.md"]
MARKDOWN_GLOBS = [(REPO / "docs", "**/*.md"), (REPO / "benchmarks" / "history", "*.md")]

#: inline Markdown links/images: [text](target) / ![alt](target) — tolerates
#: one level of nested parentheses in the target, strips a trailing title.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^()\s]+(?:\([^()]*\))?[^()]*)\)")
_CODE_FENCE = re.compile(r"^(```|~~~)")
#: a root-level file named in prose (not the tail of a longer path)
_ROOT_FILE = re.compile(r"(?<![\w/.-])(?:[A-Z_]+\.md|pyproject\.toml)\b")


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _is_trivial_property(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """A ``@property``/``@cached_property`` getter that just returns a value."""
    names = set()
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Name):
            names.add(decorator.id)
        elif isinstance(decorator, ast.Attribute):
            names.add(decorator.attr)
    if not names & {"property", "cached_property"}:
        return False
    return len(node.body) == 1 and isinstance(node.body[0], ast.Return)


def _check_docstrings(path: Path, problems: list[str]) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    rel = path.relative_to(REPO)
    if ast.get_docstring(tree) is None:
        problems.append(f"{rel}:1: module is missing a docstring")

    def visit(node: ast.AST, inside_public_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if (
                    _is_public(child.name)
                    and ast.get_docstring(child) is None
                    and not _is_trivial_property(child)
                ):
                    kind = "method" if inside_public_class else "function"
                    problems.append(
                        f"{rel}:{child.lineno}: public {kind} "
                        f"'{child.name}' is missing a docstring"
                    )
                # Nested defs are implementation detail: don't descend.
            elif isinstance(child, ast.ClassDef):
                public = _is_public(child.name)
                if public and ast.get_docstring(child) is None:
                    problems.append(
                        f"{rel}:{child.lineno}: public class "
                        f"'{child.name}' is missing a docstring"
                    )
                if public:
                    visit(child, inside_public_class=True)

    visit(tree, inside_public_class=False)


def _iter_links(text: str):
    """Yield ``(lineno, target)`` for inline links outside code fences."""
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _CODE_FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in _LINK.finditer(line):
            yield lineno, match.group(1)


def _check_links(path: Path, problems: list[str]) -> None:
    rel = path.relative_to(REPO)
    for lineno, target in _iter_links(path.read_text(encoding="utf-8")):
        target = target.split('"')[0].strip()  # drop an optional link title
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target = target.split("#", 1)[0]  # strip an anchor suffix
        if not target:
            continue
        resolved = (path.parent / target).resolve()
        try:
            resolved.relative_to(REPO)
        except ValueError:
            problems.append(
                f"{rel}:{lineno}: link target escapes the repo: {target}"
            )
            continue
        if not resolved.exists():
            problems.append(
                f"{rel}:{lineno}: broken relative link: {target}"
            )


def _named_file_sources() -> list[Path]:
    sources = [REPO / "setup.py", *sorted((REPO / "benchmarks").glob("*.py"))]
    for root in (REPO / "src", REPO / "examples"):
        sources.extend(sorted(root.rglob("*.py")))
    return [path for path in sources if path.exists()]


def _check_named_files(path: Path, problems: list[str]) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    rel = path.relative_to(REPO)
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if not isinstance(node, documented) or ast.get_docstring(node) is None:
            continue
        docstring = node.body[0]
        for name in sorted(set(_ROOT_FILE.findall(docstring.value.value))):
            if not (REPO / name).exists():
                problems.append(
                    f"{rel}:{docstring.lineno}: docstring names {name}, "
                    "which does not exist at the repo root"
                )


def _check_figures_documented(problems: list[str]) -> int:
    """Every ``FIGURES`` id heads a row of the README's reproduction table."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.bench.experiments import FIGURES

    readme = (REPO / "README.md").read_text(encoding="utf-8")
    for name in FIGURES:
        if f"| `{name}` |" not in readme:
            problems.append(
                f"README.md:1: paper figure '{name}' (repro.bench.experiments.FIGURES) "
                "has no row in the 'Reproducing the paper' table"
            )
    return len(FIGURES)


def main() -> int:
    """Run the four passes over the configured roots; print problems, exit 1 on any."""
    problems: list[str] = []

    for root in DOCSTRING_ROOTS:
        for path in sorted(root.rglob("*.py")):
            _check_docstrings(path, problems)

    markdown = [p for p in MARKDOWN_FILES if p.exists()]
    for base, pattern in MARKDOWN_GLOBS:
        if base.exists():
            markdown.extend(sorted(base.glob(pattern)))
    for path in markdown:
        _check_links(path, problems)

    sources = _named_file_sources()
    for path in sources:
        _check_named_files(path, problems)

    figures = _check_figures_documented(problems)

    for problem in problems:
        print(problem)
    checked = sum(1 for root in DOCSTRING_ROOTS for _ in root.rglob("*.py"))
    print(
        f"checked {checked} modules for docstrings, "
        f"{len(markdown)} markdown files for links, "
        f"{len(sources)} sources for named root files, "
        f"{figures} paper figures for a README row: "
        f"{len(problems)} problem(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""No module imports a name at top level that it never uses.

The CI lint job runs ``ruff check`` with pyflakes' F401 over ``src``,
``tests``, ``benchmarks`` and ``examples``; this test is the same check
in the test suite, so an unused import fails here and not only in CI.
It honours the ``pyproject.toml`` exemptions: the excluded
``tests/analysis/fixtures`` and ``results`` trees, and the F401-exempt
``src/repro/**/__init__.py`` re-export modules.

A name counts as used when the module reads it anywhere: as a bare
name, the base of an attribute chain, inside a string annotation, or in
``__all__``.  An import line marked ``# noqa: F401`` is skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples")
EXCLUDED = ("tests/analysis/fixtures", "results")


def _exempt(relative: str) -> bool:
    parts = relative.split("/")
    if any(relative.startswith(prefix + "/") for prefix in EXCLUDED):
        return True
    if "results" in parts[:-1]:
        return True
    return relative.startswith("src/repro/") and parts[-1] == "__init__.py"


def _top_level_imports(body: List[ast.stmt], lines: List[str]) -> Iterator[tuple]:
    """(bound name, line) of every import at module level, incl. if/try."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.If):
            yield from _top_level_imports(node.body + node.orelse, lines)
        elif isinstance(node, ast.Try):
            blocks = node.body + node.orelse + node.finalbody
            for handler in node.handlers:
                blocks = blocks + handler.body
            yield from _top_level_imports(blocks, lines)


def _annotations(tree: ast.AST) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> Set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            for item in ast.walk(node.value):
                if isinstance(item, ast.Constant) and isinstance(item.value, str):
                    used.add(item.value)
    return used


def unused_imports(path: Path) -> Dict[str, int]:
    """Top-level imported names of ``path`` that the module never reads."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    used = _used_names(tree)
    return {
        name: line
        for name, line in _top_level_imports(tree.body, source.splitlines())
        if name not in used
    }


def test_scanner_flags_only_unread_names(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import math\n"
        "import os.path\n"
        "from typing import Dict, List, Sequence\n"
        "from x import y  # noqa: F401\n"
        "__all__ = ['List']\n"
        "def f(a: 'Sequence[int]') -> Dict[str, int]:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(module) == {"math": 1}


def test_no_unused_top_level_imports():
    problems = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            relative = path.relative_to(ROOT).as_posix()
            if _exempt(relative):
                continue
            for name, line in sorted(unused_imports(path).items()):
                problems.append(f"{relative}:{line}: {name!r} imported but unused")
    assert not problems, "\n".join(problems)

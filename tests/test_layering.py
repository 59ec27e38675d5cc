"""Import layering between :mod:`repro.serving` and :mod:`repro.index`.

The edge runs one way: serving imports index at module level (the
service wraps its stack in an ``IndexedEmbeddingProvider``), and index
names serving types only as annotations, under ``TYPE_CHECKING``.  The
index CLI driver is the one index module allowed to import serving at
run time, lazily.  A call-time import of index inside serving would mean
the cycle is back and merely hidden; these tests read the ASTs so they
catch it without importing anything.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _is_type_checking(test: ast.expr) -> bool:
    return ((isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
            or (isinstance(test, ast.Attribute)
                and test.attr == "TYPE_CHECKING"))


def _imports(node: ast.AST, in_function=False, in_type_checking=False):
    """Yield ``(import, in_function, in_type_checking)`` at or under node."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        yield node, in_function, in_type_checking
        return
    if isinstance(node, ast.If) and _is_type_checking(node.test):
        for stmt in node.body:
            yield from _imports(stmt, in_function, True)
        for stmt in node.orelse:
            yield from _imports(stmt, in_function, in_type_checking)
        return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        in_function = True
    for child in ast.iter_child_nodes(node):
        yield from _imports(child, in_function, in_type_checking)


def _targets(node: ast.Import | ast.ImportFrom, path: Path) -> list[str]:
    """Dotted modules an import may load (``from a import b`` -> a, a.b)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    module = node.module or ""
    if node.level:
        package = path.relative_to(SRC.parent).with_suffix("").parts[:-1]
        base = ".".join(package[:len(package) - node.level + 1])
        module = f"{base}.{module}" if module else base
    return [module] + [f"{module}.{alias.name}" for alias in node.names]


def _imports_of(directory: str, package: str) -> list[tuple]:
    """``(file, line, in_function, in_type_checking)`` for each import of
    ``package`` in the modules under ``src/repro/<directory>``."""
    found = []
    for path in sorted((SRC / directory).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, in_function, in_type_checking in _imports(tree):
            if any(target == package or target.startswith(package + ".")
                   for target in _targets(node, path)):
                found.append((path.relative_to(SRC).as_posix(), node.lineno,
                              in_function, in_type_checking))
    return found


def test_serving_never_imports_index_at_call_time():
    assert [f"{file}:{line}" for file, line, in_function, _
            in _imports_of("serving", "repro.index") if in_function] == []


def test_index_imports_serving_only_for_annotations():
    assert [f"{file}:{line}" for file, line, _, guarded
            in _imports_of("index", "repro.serving")
            if not guarded and file != "index/cli.py"] == []


def test_walker_sees_nested_and_guarded_imports():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.serving.store import EmbeddingStore\n"
        "def f():\n"
        "    from repro.index import provider\n")
    seen = {node.lineno: (in_function, in_type_checking)
            for node, in_function, in_type_checking in _imports(tree)}
    assert seen == {1: (False, False), 3: (False, True), 5: (True, False)}

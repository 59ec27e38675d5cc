"""Import layering of the serving stack.

Between :mod:`repro.serving` and :mod:`repro.index` the edge runs one
way: serving imports index at module level (the store's
``PersistentProvider`` adds served names to a ``VectorIndex``, and the
service builds one with ``build_from_store``), and index names serving
types only as annotations, under ``TYPE_CHECKING``.  The index CLI
driver is the one index module allowed to import serving at run time,
lazily.  A call-time import of index inside serving would mean the cycle
is back and merely hidden.

The packages a server loads name the synthetic world and the Tele-KG
only as annotations, under ``TYPE_CHECKING``, so a serving process never
loads them for a type, and no module imports networkx.  No two modules
import each other, directly or round a longer loop, not even from inside
a function.  These tests read the ASTs so they catch a violation without
importing anything.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Packages a serving process loads: they may name ``repro.world`` and
#: ``repro.kg`` types only under ``TYPE_CHECKING``.
SERVING_SIDE = ("serving", "netserve", "index", "service", "prompts",
                "models", "tokenization")


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


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _import_graph() -> dict[str, set[str]]:
    """Each ``src/repro`` module -> the ``src/repro`` modules its import
    statements name, call-time imports included and ``TYPE_CHECKING``
    blocks not.  ``from a import b`` names ``a.b`` when that is a module
    and ``a`` otherwise; the parent packages an import loads implicitly
    are not edges."""
    paths = {_module_name(path): path for path in SRC.rglob("*.py")}
    graph = {}
    for name, path in paths.items():
        edges = set()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, _, guarded in _imports(tree):
            if guarded:
                continue
            targets = _targets(node, path)
            if isinstance(node, ast.ImportFrom):
                base = targets[0]
                targets = [target if target in paths else base
                           for target in targets[1:]]
            edges.update(target for target in targets if target in paths)
        graph[name] = edges - {name}
    return graph


def _cycle(graph: dict[str, set[str]]) -> list[str]:
    """One import loop in ``graph`` as ``[a, b, ..., a]``, or ``[]``."""
    done: set[str] = set()
    stack: list[str] = []

    def visit(module: str) -> list[str]:
        if module in stack:
            return stack[stack.index(module):] + [module]
        if module in done:
            return []
        stack.append(module)
        for target in sorted(graph[module]):
            loop = visit(target)
            if loop:
                return loop
        stack.pop()
        done.add(module)
        return []

    for module in sorted(graph):
        loop = visit(module)
        if loop:
            return loop
    return []


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


@pytest.mark.parametrize("directory", SERVING_SIDE)
def test_serving_side_names_world_and_kg_only_for_annotations(directory):
    assert [f"{file}:{line}" for package in ("repro.world", "repro.kg")
            for file, line, _, guarded in _imports_of(directory, package)
            if not guarded] == []


def test_no_module_imports_networkx():
    assert [f"{file}:{line}" for file, line, *_
            in _imports_of(".", "networkx")] == []


def test_no_import_cycle_among_modules():
    assert _cycle(_import_graph()) == []


def test_cycle_finder_sees_a_loop_and_no_false_one():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == [
        "a", "b", "c", "a"]
    assert _cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) == []


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

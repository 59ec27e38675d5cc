"""Whole-program analysis layer (``repro.lint.flow``'s engine).

The per-module rules (RL001-RL007) see one file at a time, which is why
the bug classes PRs 4, 7, and 9 fixed by hand kept escaping them: a
blocking call two frames below a ``with lock:``, a ``deadline`` accepted
but never forwarded, a ``SharedArray`` opened on one path and unlinked on
another.  This module builds the project-wide context those rules need:

* a **symbol table** spanning every linted file — imports and aliases
  (``import x as y`` / ``from x import y as z``), module-level functions
  and classes, and ``__init__.py`` re-exports resolved transitively;
* a **call graph** — call sites resolved through the symbol table,
  ``self.``-method resolution within a class (including base classes and
  ``self.attr = SomeClass(...)`` attribute types), and local
  ``var = SomeClass(...)`` constructor types;
* **per-function summaries** — locks acquired (normalised to
  project-wide identities), blocking calls made, ``deadline``/``timeout``
  parameters accepted and forwarded, and resources opened/closed.

Each parsed file is summarised once, from the one walk its module rules
read (:class:`~repro.lint.core.ModuleContext`), into the
:class:`ModuleSummary` that both the :class:`ProjectContext` and the
cache (``tools/.lint_cache.json``, keyed by file SHA) hold.  One codec
writes and strictly reads each :class:`CacheEntry`, so an entry of the
wrong shape is a miss: an unchanged file is never re-parsed, only the
(cheap) graph fixpoints rerun, and an unchanged cache is not rewritten.
The run driver lives here too (:func:`analyze_sources`,
:func:`analyze_paths`, :func:`graph_paths`): it replays or builds each
file's entry, then runs the project rules over the context it built.

Everything here is stdlib-only (``ast`` + ``hashlib``) so the lint tier
keeps running without the package's numeric dependencies installed.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import hashlib
import itertools
import json
import operator
import os
import re
import tempfile
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from repro.lint.core import (
    _BLOCKING_ATTRS,
    _LOCKY_RE,
    _THREADY_RE,
    FRAMEWORK_CODE,
    RULES,
    Finding,
    LintConfig,
    ModuleContext,
    _apply_suppressions,
    _attr_chain,
    _parse_suppressions,
    _Suppression,
    iter_python_files,
)

_DEADLINE_PARAM_RE = re.compile(r"(deadline|timeout)", re.IGNORECASE)

#: Keyword names that bound a call (a timeout or a threaded-through
#: deadline); a call carrying one is not an unbounded sink.
_BOUND_KWARGS = frozenset({
    "timeout", "timeout_s", "timeout_ms", "deadline", "deadline_s",
    "deadline_ms", "flush_timeout_s", "total_budget_s",
})

_WAIT_ATTRS = frozenset({"wait", "wait_for", "get", "result", "acquire",
                         "join", "sleep", "recv"})

#: Sinks that make a function "may block" for the *transitive* analysis.
#: ``flush`` stays RL001-only: file/stream flushes are everywhere and
#: cheap, so propagating them through the call graph would drown the
#: real provider-flush findings in noise.
_TRANSITIVE_BLOCKING = frozenset(_BLOCKING_ATTRS - {"flush"})

#: ``var.close()``-shaped calls that count as releasing a resource.
_CLOSE_ATTRS = frozenset({"close", "unlink", "release", "shutdown",
                          "terminate", "__exit__"})


def _names_in(node: ast.AST) -> set[str]:
    """Every ``Name`` identifier loaded anywhere inside ``node``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def rel_to_module(rel: str) -> str:
    """Repo-relative path -> dotted pseudo-module name.

    ``src/repro/serving/pool.py`` -> ``repro.serving.pool``;
    ``src/repro/lint/__init__.py`` -> ``repro.lint``;
    ``tests/test_lint.py`` -> ``tests.test_lint`` (tools/ and
    benchmarks/ likewise get pseudo-packages so their files join the
    same symbol table).
    """
    path = rel[:-3] if rel.endswith(".py") else rel
    parts = [p for p in path.split("/") if p]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<root>"


# ---------------------------------------------------------------------
# Summary data model (all JSON round-trippable for the cache)
# ---------------------------------------------------------------------
@dataclass
class CallSummary:
    """One call site inside a function body."""

    chain: list[str]          # receiver chain, e.g. ["self", "_batcher", "encode"]
    line: int
    col: int
    locks_held: list[str]     # normalised lock ids held at the site
    bounded: bool             # carries a timeout/deadline-ish argument
    tainted: bool             # an argument derives from a deadline param
    guarded: bool             # an enclosing if/while test mentions one
    nargs: int = 0            # positional argument count
    const_str_args: bool = False  # every positional arg a str literal

    @property
    def attr(self) -> str:
        return self.chain[-1]

    @property
    def receiver(self) -> str:
        return ".".join(self.chain[:-1])


@dataclass
class ResourceSummary:
    """One resource opened inside a function body."""

    var: str                  # local name bound to the handle
    kind: str                 # resolved opener, e.g. "socket.socket"
    line: int
    col: int
    closed: str               # "with" | "guaranteed" | "conditional" | "none"
    escapes: bool             # returned / yielded / stored / passed away


@dataclass
class LockEdge:
    """Lock ``outer`` was held while ``inner`` was acquired here."""

    outer: str
    inner: str
    line: int


@dataclass
class FunctionSummary:
    """Everything the flow rules need to know about one function."""

    qualname: str             # e.g. "PersistentProvider.encode_names"
    line: int
    params: list[str]
    deadline_params: list[str]
    calls: list[CallSummary]
    locks: list[str]          # lock ids acquired via `with` in this body
    lock_edges: list[LockEdge]
    resources: list[ResourceSummary]
    var_types: dict[str, str]  # local var -> raw constructor text
    class_name: str = ""       # enclosing class, "" for free functions


@dataclass
class ClassSummary:
    """Methods, bases, and constructor-typed attributes of one class."""

    name: str
    line: int
    methods: list[str]
    bases: list[str]            # raw base names (resolved at build time)
    attr_types: dict[str, str]  # self.attr -> raw constructor text


@dataclass
class ModuleSummary:
    """The per-file slice of the project symbol table."""

    rel: str
    module: str
    imports: dict[str, str]        # local alias -> dotted target
    functions: dict[str, FunctionSummary]  # qualname -> summary
    classes: dict[str, ClassSummary]
    module_locals: list[str]       # module-level assigned names


@dataclass
class CacheEntry:
    """One file's cache record: what a hit replays instead of parsing."""

    sha: str                       # source_sha of the text it describes
    summary: ModuleSummary
    findings: list[Finding]        # module findings, suppressions applied
    suppressions: list[_Suppression]


def _stored_as(kind) -> type:
    """The JSON type a value of summary type ``kind`` is stored as."""
    if dataclasses.is_dataclass(kind):
        return dict
    return typing.get_origin(kind) or (
        list if issubclass(kind, tuple) else kind)


@functools.cache
def _decoder(kind) -> Callable[[object, list], object]:
    """Compile the decoder of a record type or a container of records.

    ``decode(raw, strings)`` takes a value stored as ``_stored_as(kind)``:
    a dataclass comes from an object of exactly its fields, a named tuple
    from a list of its length, and every field and item must be stored
    as its declared type, else ``ValueError`` (``KeyError`` for a missing
    field).  A list or dict of ``str`` is kept as loaded (summaries are
    never mutated) and its items go to ``strings``, for the caller to
    check in one pass.
    """
    origin = typing.get_origin(kind)
    if origin in (list, dict):
        item = typing.get_args(kind)[-1]
        allowed, inner = {_stored_as(item)}, _decoder(item)

        def decode_container(raw, strings):
            values = raw if origin is list else raw.values()
            if not allowed.issuperset(map(type, values)):
                raise ValueError(f"{kind} holds a value of another type")
            if origin is list:
                return [inner(value, strings) for value in raw]
            return {key: inner(value, strings) for key, value in raw.items()}
        return decode_container

    hints = typing.get_type_hints(kind)
    stored = tuple(map(_stored_as, hints.values()))
    strs, nested = [], []
    for index, hint in enumerate(hints.values()):
        if hint in (list[str], dict[str, str]):
            strs.append((index, hint == dict[str, str]))
        elif hint not in (str, int, bool):
            nested.append((index, _decoder(hint)))
    pick = operator.itemgetter(*hints) if dataclasses.is_dataclass(kind) \
        else tuple

    def decode_record(raw, strings):
        values = pick(raw)
        if len(raw) != len(stored) or tuple(map(type, values)) != stored:
            raise ValueError(f"{kind.__name__} is not stored as {stored}")
        for index, is_dict in strs:
            strings.append(values[index].values() if is_dict
                           else values[index])
        if nested:
            values = list(values)
            for index, decode in nested:
                values[index] = decode(values[index], strings)
        return kind(*values)
    return decode_record


def _decode(kind, raw):
    """The codec's read half: ``raw``, stored as ``_stored_as(kind)``, as a
    ``kind``; ``ValueError`` or ``KeyError`` for any other shape."""
    strings: list = []
    value = _decoder(kind)(raw, strings)
    if not {str}.issuperset(map(type, itertools.chain.from_iterable(
            strings))):
        raise ValueError("a list or dict of str holds another type")
    return value


# ---------------------------------------------------------------------
# Extraction: one parsed module -> ModuleSummary
# ---------------------------------------------------------------------
class _Extractor:
    """Single pass over one module's AST producing its summary."""

    def __init__(self, context: ModuleContext):
        self.context = context
        self.rel = context.rel
        self.module = rel_to_module(context.rel)
        self.config = context.config
        self.tree = context.tree
        self.imports: dict[str, str] = {}
        self.functions: dict[str, FunctionSummary] = {}
        self.classes: dict[str, ClassSummary] = {}
        self.module_locals: list[str] = []

    def run(self) -> ModuleSummary:
        for node in self.tree.body if isinstance(self.tree, ast.Module) \
                else []:
            self._collect_imports(node)
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.module_locals.append(target.id)
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                self.module_locals.append(node.target.id)
        self._walk_defs(self.tree, prefix="", class_name="")
        return ModuleSummary(rel=self.rel, module=self.module,
                             imports=self.imports,
                             functions=self.functions,
                             classes=self.classes,
                             module_locals=self.module_locals)

    def _collect_imports(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for name in node.names:
                alias = name.asname or name.name.split(".")[0]
                # `import a.b` binds `a`; `import a.b as c` binds the leaf.
                self.imports[alias] = name.name if name.asname \
                    else name.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.names:
            base = node.module or ""
            if node.level:  # relative import: anchor at this package
                package = self.module.split(".")
                if self.rel.endswith("__init__.py"):
                    anchor = package[:len(package) - node.level + 1]
                else:
                    anchor = package[:len(package) - node.level]
                base = ".".join(anchor + ([node.module]
                                          if node.module else []))
            for name in node.names:
                if name.name == "*":
                    continue
                alias = name.asname or name.name
                self.imports[alias] = f"{base}.{name.name}" if base \
                    else name.name

    # -- defs ----------------------------------------------------------
    def _walk_defs(self, node: ast.AST, prefix: str,
                   class_name: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                self.functions[qualname] = self._summarise_function(
                    child, qualname, class_name)
                self._walk_defs(child, prefix=f"{qualname}.",
                                class_name="")
            elif isinstance(child, ast.ClassDef):
                qualname = f"{prefix}{child.name}"
                self.classes[qualname] = self._summarise_class(
                    child, qualname)
                self._walk_defs(child, prefix=f"{qualname}.",
                                class_name=qualname)
            elif not isinstance(child, ast.expr):  # no def inside an expr
                self._walk_defs(child, prefix=prefix,
                                class_name=class_name)

    def _summarise_class(self, node: ast.ClassDef,
                         qualname: str) -> ClassSummary:
        methods = [child.name for child in node.body
                   if isinstance(child, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))]
        bases = []
        for base in node.bases:
            chain = _attr_chain(base)
            if chain:
                bases.append(".".join(chain))
        attr_types: dict[str, str] = {}
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Assign) or \
                    not isinstance(inner.value, ast.Call):
                continue
            ctor = _attr_chain(inner.value.func)
            if ctor is None:
                continue
            for target in inner.targets:
                if isinstance(target, ast.Attribute) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == "self":
                    previous = attr_types.get(target.attr)
                    dotted = ".".join(ctor)
                    if previous is not None and previous != dotted:
                        attr_types[target.attr] = ""  # conflicting types
                    else:
                        attr_types[target.attr] = dotted
        attr_types = {attr: dotted for attr, dotted in attr_types.items()
                      if dotted}
        return ClassSummary(name=qualname, line=node.lineno,
                            methods=methods, bases=bases,
                            attr_types=attr_types)

    # -- function bodies ----------------------------------------------
    def _summarise_function(self, node, qualname: str,
                            class_name: str) -> FunctionSummary:
        args = node.args
        params = [a.arg for a in (args.posonlyargs + args.args
                                  + args.kwonlyargs)]
        if args.vararg:
            params.append(args.vararg.arg)
        if args.kwarg:
            params.append(args.kwarg.arg)
        deadline_params = [p for p in params
                           if _DEADLINE_PARAM_RE.search(p)]

        # One walk of the body, shared by every whole-function scan below.
        nodes = list(ast.walk(node))
        tainted = self._taint_set(nodes, set(deadline_params))
        var_types = self._local_types(nodes)

        calls: list[CallSummary] = []
        locks: list[str] = []
        lock_edges: list[LockEdge] = []

        def lock_id(expr: ast.AST) -> str | None:
            return self._lock_id(expr, qualname, class_name, params,
                                 var_types)

        def visit(stmts: Iterable[ast.stmt], held: tuple[str, ...],
                  guarded: bool) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue  # nested defs run later, outside these locks
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    new_held = list(held)
                    for item in stmt.items:
                        self._scan_expr(item.context_expr, calls, held,
                                        tainted, guarded)
                        this_lock = lock_id(item.context_expr)
                        if this_lock is not None:
                            for outer in new_held:
                                lock_edges.append(LockEdge(
                                    outer=outer, inner=this_lock,
                                    line=item.context_expr.lineno))
                            if this_lock not in locks:
                                locks.append(this_lock)
                            new_held.append(this_lock)
                    visit(stmt.body, tuple(new_held), guarded)
                    continue
                if isinstance(stmt, (ast.If, ast.While)):
                    self._scan_expr(stmt.test, calls, held, tainted,
                                    guarded)
                    test_guard = guarded or bool(
                        _names_in(stmt.test) & tainted)
                    visit(stmt.body, held, test_guard)
                    visit(stmt.orelse, held, test_guard)
                    continue
                if isinstance(stmt, ast.For):
                    self._scan_expr(stmt.iter, calls, held, tainted,
                                    guarded)
                    visit(stmt.body, held, guarded)
                    visit(stmt.orelse, held, guarded)
                    continue
                if isinstance(stmt, ast.Try):
                    visit(stmt.body, held, guarded)
                    for handler in stmt.handlers:
                        visit(handler.body, held, guarded)
                    visit(stmt.orelse, held, guarded)
                    visit(stmt.finalbody, held, guarded)
                    continue
                # Generic statement: scan every expression inside it.
                for child in ast.walk(stmt):
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef,
                                          ast.Lambda, ast.ClassDef)):
                        continue
                    if isinstance(child, ast.Call):
                        self._record_call(child, calls, held, tainted,
                                          guarded)

        visit(node.body, (), False)
        resources = self._scan_resources(node, nodes)
        return FunctionSummary(
            qualname=qualname, line=node.lineno, params=params,
            deadline_params=deadline_params, calls=calls, locks=locks,
            lock_edges=lock_edges, resources=resources,
            var_types=var_types, class_name=class_name)

    def _scan_expr(self, expr: ast.AST, calls, held, tainted,
                   guarded) -> None:
        for child in ast.walk(expr):
            if isinstance(child, (ast.Lambda,)):
                continue
            if isinstance(child, ast.Call):
                self._record_call(child, calls, held, tainted, guarded)

    def _record_call(self, node: ast.Call, calls: list[CallSummary],
                     held: tuple[str, ...], tainted: set[str],
                     guarded: bool) -> None:
        chain = _attr_chain(node.func)
        if chain is None:
            return
        arg_names: set[str] = set()
        bounded = False
        for arg in node.args:
            arg_names |= _names_in(arg)
        for kw in node.keywords:
            arg_names |= _names_in(kw.value)
            if kw.arg is not None and (
                    kw.arg in _BOUND_KWARGS
                    or _DEADLINE_PARAM_RE.search(kw.arg)):
                bounded = True
        attr = chain[-1]
        if attr in ("wait", "wait_for", "acquire", "result", "recv",
                    "sleep") and node.args:
            bounded = True  # positional timeout-shaped argument
        if attr == "get" and len(node.args) >= 2:
            bounded = True  # Queue.get(block, timeout)
        is_tainted = bool(arg_names & tainted)
        # `deadline.remaining()` threaded as a receiver method is a use.
        if set(chain[:-1]) & tainted:
            is_tainted = True
        if is_tainted:
            bounded = True
        # "utf-8"-style literals or an `encoding=`-named variable mark a
        # codec call (str.encode), not a model encode.
        const_str_args = bool(node.args) and all(
            (isinstance(a, ast.Constant) and isinstance(a.value, str))
            or (isinstance(a, ast.Name)
                and re.search(r"encoding|codec", a.id, re.IGNORECASE))
            for a in node.args)
        calls.append(CallSummary(chain=chain, line=node.lineno,
                                 col=node.col_offset,
                                 locks_held=list(held), bounded=bounded,
                                 tainted=is_tainted, guarded=guarded,
                                 nargs=len(node.args),
                                 const_str_args=const_str_args))

    def _taint_set(self, nodes: list[ast.AST], seeds: set[str]) -> set[str]:
        """Names derived (transitively, via simple assignment) from the
        function's deadline/timeout parameters."""
        if not seeds:
            return set()
        tainted = set(seeds)
        for _ in range(4):  # fixpoint; chains deeper than 4 are unheard of
            grew = False
            for stmt in nodes:
                if isinstance(stmt, ast.Assign):
                    value_names = _names_in(stmt.value)
                    if value_names & tainted:
                        for target in stmt.targets:
                            if isinstance(target, ast.Name) and \
                                    target.id not in tainted:
                                tainted.add(target.id)
                                grew = True
                elif isinstance(stmt, ast.AnnAssign) and stmt.value and \
                        isinstance(stmt.target, ast.Name):
                    if _names_in(stmt.value) & tainted and \
                            stmt.target.id not in tainted:
                        tainted.add(stmt.target.id)
                        grew = True
            if not grew:
                break
        return tainted

    def _local_types(self, nodes: list[ast.AST]) -> dict[str, str]:
        """``var = SomeClass(...)`` constructor types (raw dotted text)."""
        types: dict[str, str] = {}
        for stmt in nodes:
            if not isinstance(stmt, ast.Assign) or \
                    not isinstance(stmt.value, ast.Call):
                continue
            ctor = _attr_chain(stmt.value.func)
            if ctor is None:
                continue
            dotted = ".".join(ctor)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    previous = types.get(target.id)
                    if previous is not None and previous != dotted:
                        types[target.id] = ""
                    else:
                        types[target.id] = dotted
        return {var: dotted for var, dotted in types.items() if dotted}

    # -- lock identity -------------------------------------------------
    def _lock_id(self, expr: ast.AST, qualname: str, class_name: str,
                 params: list[str],
                 var_types: dict[str, str]) -> str | None:
        """Normalise a with-item to a project-wide lock identity.

        ``self._lock`` in class ``C`` of module ``m`` -> ``m.C._lock``;
        a module-level lock name -> ``m.<name>``; a local/parameter lock
        -> ``m.<qualname>.<name>`` (function-scoped identity).  Non-locky
        expressions return None.
        """
        node = expr
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if chain and chain[-1] == "acquire":
                node = node.func.value  # `with lock.acquire():` idiom
            elif chain and _LOCKY_RE.search(".".join(chain)):
                # `with make_lock():` — identify by the factory call site.
                return f"{self.module}.{qualname}.{'.'.join(chain)}()"
            else:
                return None
        chain = _attr_chain(node)
        if chain is None:
            return None
        text = ".".join(chain)
        if not _LOCKY_RE.search(text):
            return None
        root = chain[0]
        if root in ("self", "cls"):
            owner = class_name or qualname
            return f"{self.module}.{owner}." + ".".join(chain[1:])
        if root in self.imports:
            resolved = self.imports[root]
            return ".".join([resolved] + chain[1:])
        if root in self.module_locals:
            return f"{self.module}.{text}"
        # Parameter or local variable: function-scoped identity.
        return f"{self.module}.{qualname}.{text}"

    # -- resources -----------------------------------------------------
    def _opener_kind(self, call: ast.Call) -> str | None:
        chain = _attr_chain(call.func)
        if chain is None:
            return None
        root = self.imports.get(chain[0], chain[0])
        dotted = ".".join([root] + chain[1:])
        for suffix in self.config.resource_openers:
            if dotted == suffix or dotted.endswith("." + suffix):
                # mmap-mode np.load only hands back a handle when asked.
                if suffix == "numpy.load" and not any(
                        kw.arg == "mmap_mode" for kw in call.keywords):
                    return None
                return suffix
        return None

    def _scan_resources(self, node,
                        nodes: list[ast.AST]) -> list[ResourceSummary]:
        resources: list[ResourceSummary] = []
        opens: dict[str, tuple[str, int, int]] = {}
        with_vars: set[str] = set()
        for stmt in nodes:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if isinstance(item.context_expr, ast.Call) and \
                            self._opener_kind(item.context_expr):
                        if isinstance(item.optional_vars, ast.Name):
                            with_vars.add(item.optional_vars.id)
            elif isinstance(stmt, ast.Assign) and \
                    isinstance(stmt.value, ast.Call):
                kind = self._opener_kind(stmt.value)
                if kind is None:
                    continue
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        opens[target.id] = (kind, stmt.value.lineno,
                                            stmt.value.col_offset)
        for var, (kind, line, col) in opens.items():
            if var in with_vars:
                continue
            aliases = self._resource_aliases(nodes, var)
            escapes = self._escapes(nodes, aliases)
            closed = self._close_state(node, nodes, aliases)
            resources.append(ResourceSummary(
                var=var, kind=kind, line=line, col=col, closed=closed,
                escapes=escapes))
        return resources

    def _resource_aliases(self, nodes: list[ast.AST], var: str) -> set[str]:
        aliases = {var}
        for stmt in nodes:
            if isinstance(stmt, ast.Assign) and \
                    isinstance(stmt.value, ast.Name) and \
                    stmt.value.id in aliases:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        aliases.add(target.id)
        return aliases

    def _escapes(self, nodes: list[ast.AST], aliases: set[str]) -> bool:
        for stmt in nodes:
            if isinstance(stmt, ast.Return) and stmt.value is not None \
                    and _names_in(stmt.value) & aliases:
                return True
            if isinstance(stmt, (ast.Yield, ast.YieldFrom)) and \
                    stmt.value is not None and \
                    _names_in(stmt.value) & aliases:
                return True
            if isinstance(stmt, ast.Assign):
                if isinstance(stmt.value, ast.Name) and \
                        stmt.value.id in aliases:
                    for target in stmt.targets:
                        if isinstance(target, (ast.Attribute,
                                               ast.Subscript)):
                            return True  # stored: ownership transferred
            if isinstance(stmt, ast.Call):
                chain = _attr_chain(stmt.func)
                receiver_is_resource = chain is not None and \
                    chain[0] in aliases
                if receiver_is_resource:
                    continue  # its own method calls are uses, not escapes
                for arg in list(stmt.args) + \
                        [kw.value for kw in stmt.keywords]:
                    if _names_in(arg) & aliases:
                        return True  # handed to someone else
        return False

    def _close_state(self, node, nodes: list[ast.AST],
                     aliases: set[str]) -> str:
        """'guaranteed' / 'conditional' / 'none' for the close calls."""
        best = "none"
        for stmt in nodes:
            if not isinstance(stmt, ast.Call):
                continue
            chain = _attr_chain(stmt.func)
            if chain is None or len(chain) < 2:
                continue
            if chain[0] not in aliases or chain[-1] not in _CLOSE_ATTRS:
                continue
            state = "guaranteed"
            cursor: ast.AST | None = stmt
            while cursor is not None and cursor is not node:
                parent = self.context.parent(cursor)
                if isinstance(parent, ast.Try):
                    if any(cursor is s for s in parent.finalbody):
                        break  # finally runs on every path: guaranteed
                    state = "conditional"  # try/except body may be skipped
                elif isinstance(parent, (ast.If, ast.While, ast.For,
                                         ast.ExceptHandler)):
                    state = "conditional"
                elif isinstance(parent, (ast.FunctionDef,
                                         ast.AsyncFunctionDef,
                                         ast.Lambda)) and \
                        parent is not node:
                    state = "conditional"  # a nested closure may never run
                cursor = parent
            if state == "guaranteed":
                return "guaranteed"
            best = "conditional"
        return best


def summarise_module(context: ModuleContext) -> ModuleSummary:
    """Extract the cacheable per-file summary from a parsed module."""
    return _Extractor(context).run()


# ---------------------------------------------------------------------
# ProjectContext: the global graphs
# ---------------------------------------------------------------------
@dataclass
class LockCycle:
    """One lock-order inversion: the lock ids around the cycle plus the
    acquisition sites (rel, line, qualname, outer, inner) that close it."""

    locks: tuple[str, ...]
    sites: tuple[tuple[str, int, str, str, str], ...]


class ProjectContext:
    """Symbol table + call graph + flow fixpoints over every module.

    Built once per lint run from the per-file :class:`ModuleSummary`
    objects (freshly extracted or replayed from the cache); the
    project-scope rules (RL008-RL011) read it instead of a
    :class:`~repro.lint.core.ModuleContext`.
    """

    def __init__(self, modules: dict[str, ModuleSummary],
                 sources: dict[str, str], config: LintConfig):
        self.config = config
        self.modules = modules                 # rel -> summary
        self.sources = sources                 # rel -> source text
        self.by_module: dict[str, ModuleSummary] = {
            summary.module: summary for summary in modules.values()}
        #: FQN ("module:qualname") -> (ModuleSummary, FunctionSummary)
        self.functions: dict[str, tuple[ModuleSummary, FunctionSummary]] \
            = {}
        for summary in modules.values():
            for qualname, fn in summary.functions.items():
                self.functions[f"{summary.module}:{qualname}"] = \
                    (summary, fn)
        self._edges: dict[str, list[tuple[str, CallSummary]]] = {}
        self._resolve_all_calls()
        self._may_block: dict[str, tuple[str, int] | None] | None = None
        self._acquired: dict[str, set[str]] | None = None

    # -- symbol resolution --------------------------------------------
    def _resolve_dotted(self, dotted: str,
                        seen: frozenset[str] = frozenset()
                        ) -> str | None:
        """Resolve a dotted path to a project function/class FQN.

        Walks re-export chains: if ``repro.lint.__init__`` imports
        ``main`` from ``repro.lint.cli``, ``repro.lint.main`` resolves to
        ``repro.lint.cli:main``.
        """
        if dotted in seen:
            return None  # import cycle
        seen = seen | {dotted}
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            module = ".".join(parts[:cut])
            summary = self.by_module.get(module)
            if summary is None:
                continue
            remainder = parts[cut:]
            if not remainder:
                return None  # a bare module is not callable
            return self._resolve_in_module(summary, remainder, seen)
        return None

    def _resolve_in_module(self, summary: ModuleSummary,
                           remainder: list[str],
                           seen: frozenset[str]) -> str | None:
        head = remainder[0]
        qual = ".".join(remainder)
        if qual in summary.functions:
            return f"{summary.module}:{qual}"
        if head in summary.classes:
            if len(remainder) == 1:
                return self._class_init(summary.module, head)
            method = self.resolve_method(summary.module, head,
                                         remainder[1])
            if method is not None and len(remainder) == 2:
                return method
            return None
        if head in summary.imports:
            target = ".".join([summary.imports[head]] + remainder[1:])
            return self._resolve_dotted(target, seen)
        return None

    def _class_init(self, module: str, class_name: str) -> str | None:
        """Constructing a class enters its ``__init__`` (possibly
        inherited)."""
        return self.resolve_method(module, class_name, "__init__")

    def resolve_method(self, module: str, class_name: str, method: str,
                       _depth: int = 0) -> str | None:
        """``self.method`` resolution, walking project-local bases."""
        if _depth > 8:
            return None
        summary = self.by_module.get(module)
        if summary is None or class_name not in summary.classes:
            return None
        cls = summary.classes[class_name]
        qual = f"{class_name}.{method}"
        if qual in summary.functions:
            return f"{module}:{qual}"
        for base in cls.bases:
            resolved = self._resolve_class(summary, base)
            if resolved is None:
                continue
            base_module, base_name = resolved
            found = self.resolve_method(base_module, base_name, method,
                                        _depth + 1)
            if found is not None:
                return found
        return None

    def _resolve_class(self, summary: ModuleSummary,
                       dotted: str) -> tuple[str, str] | None:
        """Resolve a raw class reference to (module, class qualname)."""
        parts = dotted.split(".")
        head = parts[0]
        if dotted in summary.classes:
            return (summary.module, dotted)
        if head in summary.imports:
            target = ".".join([summary.imports[head]] + parts[1:])
            return self._resolve_class_dotted(target)
        return self._resolve_class_dotted(dotted)

    def _resolve_class_dotted(self, dotted: str,
                              seen: frozenset[str] = frozenset()
                              ) -> tuple[str, str] | None:
        if dotted in seen:
            return None
        seen = seen | {dotted}
        parts = dotted.split(".")
        # The longest module prefix is authoritative: falling through to
        # a shorter prefix would re-resolve through the package
        # __init__'s re-exports and can grow the path without bound
        # (e.g. a function named like its own module).
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            summary = self.by_module.get(module)
            if summary is None:
                continue
            remainder = parts[cut:]
            name = ".".join(remainder)
            if name in summary.classes:
                return (summary.module, name)
            if remainder[0] in summary.imports:
                target = ".".join([summary.imports[remainder[0]]]
                                  + remainder[1:])
                return self._resolve_class_dotted(target, seen)
            return None
        return None

    def resolve_call(self, summary: ModuleSummary, fn: FunctionSummary,
                     call: CallSummary) -> str | None:
        """Resolve one call site to a project function FQN (or None)."""
        chain = call.chain
        head = chain[0]
        if head in ("self", "cls") and fn.class_name:
            if len(chain) == 2:
                return self.resolve_method(summary.module, fn.class_name,
                                           chain[1])
            if len(chain) == 3:
                # self.attr.method() through the attribute's constructor
                # type (`self.attr = SomeClass(...)` anywhere in the class).
                cls = summary.classes.get(fn.class_name)
                ctor = cls.attr_types.get(chain[1]) if cls else None
                if ctor:
                    resolved = self._resolve_class(summary, ctor)
                    if resolved is not None:
                        return self.resolve_method(resolved[0],
                                                   resolved[1], chain[2])
            return None
        if len(chain) >= 2 and head in fn.var_types:
            # var = SomeClass(...); var.method()
            resolved = self._resolve_class(summary, fn.var_types[head])
            if resolved is not None and len(chain) == 2:
                return self.resolve_method(resolved[0], resolved[1],
                                           chain[1])
            return None
        if len(chain) == 1:
            # Bare name: sibling function, class constructor, or import.
            if head in summary.functions:
                return f"{summary.module}:{head}"
            if head in summary.classes:
                return self._class_init(summary.module, head)
            if head in summary.imports:
                return self._resolve_dotted(summary.imports[head])
            return None
        if head in summary.imports:
            dotted = ".".join([summary.imports[head]] + chain[1:])
            return self._resolve_dotted(dotted)
        return None

    # -- call graph ----------------------------------------------------
    def _resolve_all_calls(self) -> None:
        for fqn, (summary, fn) in self.functions.items():
            edges: list[tuple[str, CallSummary]] = []
            for call in fn.calls:
                callee = self.resolve_call(summary, fn, call)
                if callee is not None and callee != fqn:
                    edges.append((callee, call))
            self._edges[fqn] = edges

    def callees(self, fqn: str) -> list[tuple[str, CallSummary]]:
        """Resolved (callee FQN, call site) pairs for one function."""
        return self._edges.get(fqn, [])

    # -- transitive blocking (RL009) ----------------------------------
    def may_block(self, fqn: str) -> tuple[str, int] | None:
        """Witness (description, line) if the function may block without
        a bound — directly or through any resolved callee."""
        if self._may_block is None:
            self._compute_may_block()
        return self._may_block.get(fqn)

    def _direct_block_witness(self, summary: ModuleSummary,
                              fn: FunctionSummary
                              ) -> tuple[str, int] | None:
        for call in fn.calls:
            attr = call.attr
            if attr not in _TRANSITIVE_BLOCKING or call.bounded:
                continue
            receiver = call.receiver
            if attr == "get" and call.nargs:
                continue  # dict.get(key[, default]) — not a queue
            if attr == "join" and not _THREADY_RE.search(receiver):
                continue  # str.join / path join
            if attr == "encode" and call.const_str_args:
                continue  # text.encode("utf-8")
            if attr in ("wait", "wait_for") and any(
                    receiver.rsplit(".", 1)[-1] == held.rsplit(".", 1)[-1]
                    for held in call.locks_held):
                continue  # condition-variable wait releases its own lock
            if self.resolve_call(summary, fn, call) is not None:
                continue  # project-internal: judged by its own summary
            return (f"{'.'.join(call.chain)}() "
                    f"[{summary.rel}:{call.line}]", call.line)
        return None

    def _compute_may_block(self) -> None:
        self._may_block = {}
        for fqn, (summary, fn) in self.functions.items():
            witness = self._direct_block_witness(summary, fn)
            if witness is not None:
                self._may_block[fqn] = witness
        # Propagate backwards over unbounded call edges to a fixpoint.
        changed = True
        while changed:
            changed = False
            for fqn, (summary, fn) in self.functions.items():
                if fqn in self._may_block:
                    continue
                for callee, call in self._edges.get(fqn, []):
                    if call.bounded or call.guarded:
                        continue
                    inner = self._may_block.get(callee)
                    if inner is None:
                        continue
                    short = callee.split(":")[-1]
                    self._may_block[fqn] = (f"{short} -> {inner[0]}",
                                            call.line)
                    changed = True
                    break

    # -- transitive lock acquisition + lock graph (RL008) -------------
    def acquires_transitive(self, fqn: str) -> set[str]:
        if self._acquired is None:
            self._compute_acquired()
        return self._acquired.get(fqn, set())

    def _compute_acquired(self) -> None:
        self._acquired = {fqn: set(fn.locks)
                          for fqn, (_, fn) in self.functions.items()}
        changed = True
        while changed:
            changed = False
            for fqn in self.functions:
                mine = self._acquired[fqn]
                for callee, _ in self._edges.get(fqn, []):
                    extra = self._acquired.get(callee, set()) - mine
                    if extra:
                        mine |= extra
                        changed = True

    def lock_graph(self) -> dict[tuple[str, str],
                                 list[tuple[str, int, str]]]:
        """Directed edges outer->inner with their acquisition sites."""
        edges: dict[tuple[str, str], list[tuple[str, int, str]]] = {}

        def add(outer: str, inner: str, rel: str, line: int,
                qualname: str) -> None:
            if outer == inner:
                return  # re-entrant self-acquire: RLock territory, and
            edges.setdefault((outer, inner), []).append(
                (rel, line, qualname))

        for fqn, (summary, fn) in self.functions.items():
            for edge in fn.lock_edges:
                add(edge.outer, edge.inner, summary.rel, edge.line,
                    fn.qualname)
            for callee, call in self._edges.get(fqn, []):
                if not call.locks_held:
                    continue
                for inner in self.acquires_transitive(callee):
                    for outer in call.locks_held:
                        add(outer, inner, summary.rel, call.line,
                            fn.qualname)
        return edges

    def lock_cycles(self) -> list[LockCycle]:
        """Every elementary inversion (2-lock cycles and longer ones),
        reported once with a deterministic representative rotation."""
        edges = self.lock_graph()
        adjacency: dict[str, set[str]] = {}
        for (outer, inner) in edges:
            adjacency.setdefault(outer, set()).add(inner)
        cycles: dict[tuple[str, ...], LockCycle] = {}

        def canonical(path: tuple[str, ...]) -> tuple[str, ...]:
            pivot = min(range(len(path)), key=lambda i: path[i])
            return path[pivot:] + path[:pivot]

        def dfs(start: str, node: str, path: tuple[str, ...]) -> None:
            for succ in sorted(adjacency.get(node, ())):
                if succ == start:
                    cycle = canonical(path)
                    if cycle in cycles:
                        continue
                    sites = []
                    ring = list(cycle) + [cycle[0]]
                    for outer, inner in zip(ring, ring[1:]):
                        rel, line, qualname = sorted(
                            edges[(outer, inner)])[0]
                        sites.append((rel, line, qualname, outer, inner))
                    cycles[cycle] = LockCycle(locks=cycle,
                                              sites=tuple(sites))
                elif succ not in path and succ > start and \
                        len(path) < 6:
                    dfs(start, succ, path + (succ,))

        for start in sorted(adjacency):
            dfs(start, start, (start,))
        return [cycles[key] for key in sorted(cycles)]

    # -- introspection (CLI --graph) ----------------------------------
    def graph_dump(self) -> dict:
        """JSON-able call + lock graphs for ``repro lint --graph``."""
        calls = {}
        for fqn in sorted(self._edges):
            edges = self._edges[fqn]
            if edges:
                calls[fqn] = sorted({callee for callee, _ in edges})
        lock_edges = []
        for (outer, inner), sites in sorted(self.lock_graph().items()):
            rel, line, qualname = sorted(sites)[0]
            lock_edges.append({"outer": outer, "inner": inner,
                               "site": f"{rel}:{line}",
                               "qualname": qualname,
                               "occurrences": len(sites)})
        return {
            "modules": sorted(self.by_module),
            "functions": len(self.functions),
            "call_edges": calls,
            "lock_edges": lock_edges,
            "lock_cycles": [list(c.locks) for c in self.lock_cycles()],
        }

    # -- finding construction -----------------------------------------
    def line_text(self, rel: str, line: int) -> str:
        source = self.sources.get(rel)
        if source is None:
            return ""
        lines = source.splitlines()
        if 1 <= line <= len(lines):
            return lines[line - 1]
        return ""

    def finding(self, code: str, rel: str, line: int, col: int,
                qualname: str, message: str) -> Finding:
        return Finding(rule=code, path=rel, line=line, col=col,
                       message=message,
                       line_text=self.line_text(rel, line),
                       qualname=qualname)


# ---------------------------------------------------------------------
# Summary cache (tools/.lint_cache.json)
# ---------------------------------------------------------------------
def source_sha(source: str) -> str:
    """Cache key for one file's content (sha1 of the source text)."""
    return hashlib.sha1(source.encode("utf-8")).hexdigest()


def _analyzer_digest() -> str:
    """SHA-1 of this package's sources: cached summaries and findings
    are only as current as the rules and the extraction that made them."""
    digest = hashlib.sha1()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cache_key(config: LintConfig, select) -> str:
    """Invalidate wholesale when the analyzer's code, the rule set, the
    config or the selection moves."""
    parts = [_analyzer_digest(), ",".join(sorted(RULES)), repr(config),
             ",".join(sorted(select)) if select else "<all>"]
    return hashlib.sha1("|".join(parts).encode("utf-8")).hexdigest()[:16]


class SummaryCache:
    """File-SHA-keyed cache of one :class:`CacheEntry` per file.

    A hit skips the parse *and* the module-rule pass for that file; the
    project fixpoints always rerun (they are cheap graph walks).  The
    cache is advisory: any read problem degrades to a cold start, and an
    entry that does not decode is a miss.  ``save`` writes the file only
    when the run stored or pruned an entry.
    """

    def __init__(self, path: str | Path, key: str):
        self.path = Path(path)
        self.key = key
        self.files: dict[str, object] = {}  # as loaded, or a CacheEntry
        self.hits = 0
        self.misses = 0
        self._changed = False
        self._load()

    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(raw, dict) or raw.get("key") != self.key:
            return
        files = raw.get("files")
        if isinstance(files, dict):
            self.files = files

    def lookup(self, rel: str, sha: str) -> CacheEntry | None:
        raw = self.files.get(rel)
        if type(raw) is dict and raw.get("sha") == sha:
            try:
                entry = _decode(CacheEntry, raw)
            except (KeyError, ValueError):
                pass  # an entry of the wrong shape is a miss
            else:
                self.hits += 1
                return entry
        self.misses += 1
        return None

    def store(self, rel: str, entry: CacheEntry) -> None:
        self.files[rel] = entry
        self._changed = True

    def prune(self, live: set[str]) -> None:
        kept = {rel: entry for rel, entry in self.files.items()
                if rel in live}
        self._changed |= len(kept) != len(self.files)
        self.files = kept

    def save(self) -> None:
        if not self._changed:
            return
        # One C-encoder call; ``vars`` is the codec's write half.
        text = json.dumps({"key": self.key, "files": self.files},
                          default=vars)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                "w", dir=str(self.path.parent), suffix=".tmp",
                delete=False, encoding="utf-8")
            with handle:
                handle.write(text)
            os.replace(handle.name, self.path)
        except OSError:
            return  # best-effort: a cache that cannot be written is cold


# ---------------------------------------------------------------------
# Drivers: source text -> findings or graphs
# ---------------------------------------------------------------------
def _validate_select(select: Iterable[str] | None) -> set[str] | None:
    """Resolve ``select`` to a code set; unknown codes are a usage error."""
    if select is None:
        return None
    selected = set(select)
    unknown = selected - set(RULES) - {FRAMEWORK_CODE}
    if unknown:
        raise ValueError(f"unknown rule code(s): {sorted(unknown)}")
    return selected


def _module_findings(context: ModuleContext,
                     selected: set[str] | None) -> list[Finding]:
    """Run the selected module-scope rules over one parsed module."""
    findings: list[Finding] = []
    for meta in RULES.values():
        if meta.scope != "module":
            continue
        if selected is not None and meta.code not in selected:
            continue
        findings.extend(meta.check(context))
    return findings


def _framework_findings(problems: list[tuple[int, str]], rel: str,
                        line_text, selected: set[str] | None
                        ) -> list[Finding]:
    if selected is not None and FRAMEWORK_CODE not in selected:
        return []
    return [Finding(rule=FRAMEWORK_CODE, path=rel, line=line, col=0,
                    message=message, line_text=line_text(line),
                    qualname="<module>")
            for line, message in problems]


def _apply_exemptions(findings: list[Finding],
                      config: LintConfig) -> list[Finding]:
    return [f for f in findings if not config.exempt(f.path, f.rule)]


def _load(sources: dict[str, str], config: LintConfig,
          selected: set[str] | None, cache):
    """The per-file step of every run, ``--graph`` included: replay a
    file's cache entry, or parse, walk, check and summarise it once.
    Returns the project built from every summary, the module findings
    and each file's suppressions."""
    summaries = {}
    findings: list[Finding] = []
    suppressions: dict[str, list[_Suppression]] = {}
    for rel in sorted(sources):
        source = sources[rel]
        sha = source_sha(source)
        entry = cache.lookup(rel, sha) if cache is not None else None
        if entry is None:
            try:
                tree = ast.parse(source)
            except SyntaxError as error:
                findings.append(Finding(
                    rule=FRAMEWORK_CODE, path=rel, line=error.lineno or 1,
                    col=error.offset or 0,
                    message=f"syntax error: {error.msg}"))
                continue
            context = ModuleContext(rel=rel, source=source, tree=tree,
                                    config=config)
            module_findings = _module_findings(context, selected)
            file_suppressions, problems = _parse_suppressions(source)
            module_findings = _apply_suppressions(module_findings,
                                                  file_suppressions)
            module_findings.extend(_framework_findings(
                problems, rel, context.line_text, selected))
            entry = CacheEntry(
                sha=sha, summary=summarise_module(context),
                findings=module_findings, suppressions=file_suppressions)
            if cache is not None:
                cache.store(rel, entry)
        summaries[rel] = entry.summary
        findings.extend(entry.findings)
        suppressions[rel] = entry.suppressions
    if cache is not None:
        cache.prune(set(sources))
    return (ProjectContext(summaries, sources, config), findings,
            suppressions)


def analyze_sources(sources: dict[str, str],
                    config: LintConfig | None = None,
                    select: Iterable[str] | None = None,
                    cache=None) -> list[Finding]:
    """Lint a set of in-memory modules as one program.

    ``sources`` maps repo-relative posix paths to source text.  The
    module-scope rules run per file; the project-scope rules (RL008+) run
    once over the :class:`~repro.lint.project.ProjectContext` built from
    every parseable file.  ``cache`` is an optional
    :class:`~repro.lint.project.SummaryCache`: files whose SHA it knows
    replay their summary and module findings without re-parsing.
    """
    config = config or LintConfig()
    selected = _validate_select(select)
    project, findings, suppressions = _load(sources, config, selected,
                                            cache)
    project_findings: list[Finding] = []
    for meta in RULES.values():
        if meta.scope == "project" and (selected is None
                                        or meta.code in selected):
            project_findings.extend(meta.check(project))
    by_rel: dict[str, list[Finding]] = {}
    for finding in project_findings:
        by_rel.setdefault(finding.path, []).append(finding)
    for rel, batch in by_rel.items():
        findings.extend(_apply_suppressions(batch,
                                            suppressions.get(rel, [])))
    return sorted(_apply_exemptions(findings, config), key=Finding.sort_key)


def analyze_source(source: str, rel: str,
                   config: LintConfig | None = None,
                   select: Iterable[str] | None = None) -> list[Finding]:
    """Run the (selected) rules over one module's source text.

    ``rel`` is the repo-relative posix path used for scoping and
    fingerprints; it does not need to exist on disk, which is what makes
    fixture-based rule tests cheap.  Project-scope rules run too, over a
    one-module program — intra-module call chains still resolve.
    """
    return analyze_sources({rel: source}, config=config, select=select)


def _read_sources(paths: Iterable[str | Path], root: str | Path
                  ) -> tuple[dict[str, str], list[Finding]]:
    """Source text of every Python file under ``paths``, keyed by its
    path relative to ``root``, plus an RL000 finding per unreadable file."""
    root = Path(root).resolve()
    sources: dict[str, str] = {}
    findings: list[Finding] = []
    for path in iter_python_files(paths, root):
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        try:
            sources[rel] = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            findings.append(Finding(
                rule=FRAMEWORK_CODE, path=rel, line=1, col=0,
                message=f"unreadable file: {error}"))
    return sources, findings


def analyze_paths(paths: Iterable[str | Path], root: str | Path,
                  config: LintConfig | None = None,
                  select: Iterable[str] | None = None,
                  cache=None) -> list[Finding]:
    """Lint every Python file under ``paths``; findings sorted by location.

    ``root`` is the repository root: file paths are recorded relative to
    it so fingerprints are stable across checkouts.  ``cache`` is an
    optional :class:`~repro.lint.project.SummaryCache` (the caller saves
    it after the run).
    """
    _validate_select(select)  # fail fast even when no file matches
    sources, findings = _read_sources(paths, root)
    findings.extend(analyze_sources(sources, config=config, select=select,
                                    cache=cache))
    return sorted(findings, key=Finding.sort_key)


def graph_paths(paths: Iterable[str | Path], root: str | Path,
                config: LintConfig | None = None,
                select: Iterable[str] | None = None,
                cache=None) -> dict:
    """The call and lock graphs RL008-RL011 reason over (``repro lint
    --graph``), for files read and summarised as :func:`analyze_paths`
    does it."""
    config = config or LintConfig()
    selected = _validate_select(select)
    sources, _ = _read_sources(paths, root)
    project, _, _ = _load(sources, config, selected, cache)
    return project.graph_dump()


__all__ = [
    "CacheEntry",
    "CallSummary",
    "ClassSummary",
    "FunctionSummary",
    "LockCycle",
    "LockEdge",
    "ModuleSummary",
    "ProjectContext",
    "ResourceSummary",
    "SummaryCache",
    "analyze_paths",
    "analyze_source",
    "analyze_sources",
    "cache_key",
    "graph_paths",
    "rel_to_module",
    "source_sha",
    "summarise_module",
]

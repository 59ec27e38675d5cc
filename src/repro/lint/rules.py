"""The built-in repo-aware rules (RL001-RL007).

Each rule is distilled from a bug class PRs 2-4 fixed by hand; the
docstrings carry the rationale shown by ``--list-rules``.  Rules are pure
functions over a :class:`~repro.lint.core.ModuleContext` registered via
the :func:`~repro.lint.core.rule` decorator — adding a rule is writing one
function, no framework changes.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.lint.core import (
    _BLOCKING_ATTRS,
    _LOCKY_RE,
    _THREADY_RE,
    Finding,
    ModuleContext,
    _attr_chain,
    rule,
)

# ---------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------
_WAIT_ATTRS = frozenset({"wait", "wait_for", "get", "result", "acquire",
                         "join"})


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover  # repro-lint: allow[RL006] placeholder keeps the rule running when unparse fails; nothing to log
        return "<expr>"


def _walk_shallow(nodes: Iterable[ast.AST]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested defs/lambdas.

    A lambda *defined* inside a ``with lock:`` block does not run under
    the lock, so its body must not be attributed to the lock's critical
    section.
    """
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _enclosing_function_names(ctx: ModuleContext, node: ast.AST) -> list[str]:
    names = []
    cursor: ast.AST | None = node
    while cursor is not None:
        if isinstance(cursor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(cursor.name)
        cursor = ctx.parent(cursor)
    return names


# ---------------------------------------------------------------------
# RL001 — blocking call while holding a lock
# ---------------------------------------------------------------------
@rule("RL001", "blocking call inside a `with <lock>:` block")
def check_blocking_in_lock(ctx: ModuleContext) -> list[Finding]:
    """Holding a lock across a blocking call (`encode`, `.result()`,
    `.wait()`, `.get()`, `.join()`, `flush`, `sleep`) serializes every
    other path that needs the lock behind the slowest caller — and turns
    a hung provider into a stack-wide deadlock (the PR-4 bug class).
    Compute the blocking result outside the lock and re-acquire to
    publish it (last-write-wins), as `PersistentProvider.encode_names` does.
    Waiting on the *same* condition variable the block holds is exempt:
    `Condition.wait` releases the lock while sleeping."""
    findings: list[Finding] = []
    for node in ctx.nodes:
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        contexts = [_unparse(item.context_expr) for item in node.items]
        if not any(_LOCKY_RE.search(text) for text in contexts):
            continue
        held = {text.split(".acquire")[0] for text in contexts}
        for inner in _walk_shallow(node.body):
            if not isinstance(inner, ast.Call) or \
                    not isinstance(inner.func, ast.Attribute):
                continue
            attr = inner.func.attr
            if attr not in _BLOCKING_ATTRS:
                continue
            receiver = _unparse(inner.func.value)
            if attr in ("wait", "wait_for") and receiver in held:
                continue  # condition-variable wait releases the lock
            if attr == "get" and inner.args:
                continue  # dict.get(key[, default]) — not a queue
            if attr == "join" and not _THREADY_RE.search(receiver):
                continue  # str.join / path join — not a thread join
            if attr == "encode" and (
                    isinstance(inner.func.value, (ast.Call, ast.Constant))
                    or all(isinstance(a, ast.Constant)
                           and isinstance(a.value, str)
                           for a in inner.args)):
                continue  # str.encode("utf-8") — not a model encode
            findings.append(ctx.finding(
                "RL001", inner,
                f"blocking call `{receiver}.{attr}(...)` while holding "
                f"`{' / '.join(sorted(held))}` — move it outside the "
                f"lock (compute, then re-acquire to publish)"))
    return findings


# ---------------------------------------------------------------------
# RL002 — unbounded waits in the serving/training stack
# ---------------------------------------------------------------------
@rule("RL002", "unbounded blocking primitive in serving/training code")
def check_unbounded_wait(ctx: ModuleContext) -> list[Finding]:
    """In `repro.serving` / `repro.training` / `repro.service`, every
    `.wait()` / `.get()` / `.result()` / `.acquire()` / `.join()` must
    carry a timeout: an unbounded wait on work that never completes
    wedges the worker (and, pre-PR4, the whole process at exit).  Pass a
    bound — even a generous one — so the caller regains control and the
    deadline/fallback policy can engage."""
    if not ctx.in_scope(ctx.config.bounded_wait_scope):
        return []
    findings: list[Finding] = []
    for node in ctx.nodes:
        if not isinstance(node, ast.Call) or \
                not isinstance(node.func, ast.Attribute):
            continue
        attr = node.func.attr
        if attr not in _WAIT_ATTRS:
            continue
        if node.args or node.keywords:
            continue  # some bound (or at least an explicit argument) given
        receiver = _unparse(node.func.value)
        if attr == "join" and not _THREADY_RE.search(receiver):
            continue
        findings.append(ctx.finding(
            "RL002", node,
            f"`{receiver}.{attr}()` without a timeout — bound the wait "
            f"(or suppress with the reason it cannot block)"))
    return findings


# ---------------------------------------------------------------------
# RL003 — non-daemon threads in library code
# ---------------------------------------------------------------------
@rule("RL003", "threading.Thread without daemon=True")
def check_nondaemon_thread(ctx: ModuleContext) -> list[Finding]:
    """A non-daemon thread is joined at interpreter exit; if it is stuck
    on a hung provider, the *process* becomes unkillable short of
    SIGKILL.  Library threads must be `daemon=True` and owned by an
    explicit lifecycle (`close()` / context manager) instead of relying
    on interpreter-exit joins."""
    aliases = ctx.import_aliases
    findings: list[Finding] = []
    for node in ctx.nodes:
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if chain is None:
            continue
        dotted = ".".join(aliases.get(chain[0], chain[0]).split(".")
                          + chain[1:])
        if not dotted.endswith("threading.Thread") and \
                dotted != "threading.Thread":
            continue
        daemon = next((kw for kw in node.keywords if kw.arg == "daemon"),
                      None)
        if daemon is None:
            findings.append(ctx.finding(
                "RL003", node,
                "threading.Thread without daemon=True — a wedged worker "
                "must not block interpreter exit"))
        elif not (isinstance(daemon.value, ast.Constant)
                  and daemon.value.value is True):
            findings.append(ctx.finding(
                "RL003", node,
                "threading.Thread daemon flag is not literally True — "
                "library threads must be daemons"))
    return findings


# ---------------------------------------------------------------------
# RL004 — non-atomic checkpoint/store writes
# ---------------------------------------------------------------------
_BUFFERY_RE = re.compile(r"(buffer|buf|stream|bytesio|stringio)",
                         re.IGNORECASE)


@rule("RL004", "file write bypassing the atomic temp+fsync+rename "
               "discipline")
def check_non_atomic_write(ctx: ModuleContext) -> list[Finding]:
    """Checkpoint and store modules must write through
    `repro.ioutil.atomic_write_bytes` (temp file + fsync + rename) or an
    append-only log: a plain truncating write (`open(..., "w")`,
    `Path.write_text`, `np.savez(path)`) that crashes mid-way leaves a
    torn file where the previous complete artifact used to be — the
    exact corruption class `SnapshotStore` was built to prevent.
    Serialise to memory, then hand the bytes to the atomic writer."""
    if not ctx.in_scope(ctx.config.atomic_scope):
        return []
    aliases = ctx.import_aliases
    findings: list[Finding] = []
    for node in ctx.nodes:
        if not isinstance(node, ast.Call):
            continue
        enclosing = _enclosing_function_names(ctx, node)
        if any(name.startswith(prefix)
               for name in enclosing
               for prefix in ctx.config.atomic_impl_prefixes):
            continue
        # Path.write_text / Path.write_bytes
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in ("write_text", "write_bytes"):
            receiver = _unparse(node.func.value)
            findings.append(ctx.finding(
                "RL004", node,
                f"`{receiver}.{node.func.attr}(...)` is a truncating "
                f"write — use atomic_write_bytes/_text "
                f"(temp+fsync+rename)"))
            continue
        # open(path, "w"...) — truncating modes only; append is the
        # sanctioned journal/log discipline (torn tails are tolerated).
        chain = _attr_chain(node.func)
        if chain is not None and chain[-1] == "open" and \
                len(chain) <= 2:
            mode = None
            if len(node.args) >= 2 and isinstance(node.args[1],
                                                  ast.Constant):
                mode = node.args[1].value
            for kw in node.keywords:
                if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                    mode = kw.value.value
            if isinstance(mode, str) and ("w" in mode or "x" in mode):
                findings.append(ctx.finding(
                    "RL004", node,
                    f"open(..., {mode!r}) truncates in place — write "
                    f"via atomic_write_bytes or an append-only log"))
            continue
        # np.savez / np.save straight to a path (a BytesIO target is the
        # atomic pattern's serialisation step and is fine).
        if chain is not None and len(chain) >= 2 and \
                chain[-1] in ("save", "savez", "savez_compressed"):
            dotted = aliases.get(chain[0], chain[0])
            if dotted not in ("numpy",):
                continue
            if node.args and not _BUFFERY_RE.search(_unparse(node.args[0])):
                findings.append(ctx.finding(
                    "RL004", node,
                    f"np.{chain[-1]} writes the target in place — "
                    f"serialise to io.BytesIO and atomic_write_bytes "
                    f"the result"))
    return findings


# ---------------------------------------------------------------------
# RL005 — global-RNG use
# ---------------------------------------------------------------------
@rule("RL005", "global RNG state (random.* / np.random.*) in library code")
def check_global_rng(ctx: ModuleContext) -> list[Finding]:
    """Bit-exact resume (`repro.training.runtime`) snapshots every RNG
    stream it owns; a module-level `random.*` / `np.random.*` call draws
    from hidden global state that no snapshot captures, so a resumed run
    silently diverges from the uninterrupted one.  Thread an explicit
    seeded `np.random.default_rng(...)` Generator through the caller
    instead."""
    aliases = ctx.import_aliases
    findings: list[Finding] = []
    allowed_np = set(ctx.config.rng_allowed)
    allowed_std = set(ctx.config.stdlib_rng_allowed)
    for node in ctx.nodes:
        if isinstance(node, ast.ImportFrom) and node.module in (
                "random", "numpy.random"):
            allowed = allowed_std if node.module == "random" else allowed_np
            for name in node.names:
                if name.name not in allowed:
                    findings.append(ctx.finding(
                        "RL005", node,
                        f"`from {node.module} import {name.name}` pulls "
                        f"global-RNG state — use a seeded "
                        f"np.random.default_rng Generator"))
            continue
        if not isinstance(node, ast.Attribute):
            continue
        chain = _attr_chain(node)
        if chain is None or len(chain) < 2:
            continue
        root = aliases.get(chain[0], chain[0])
        # np.random.<fn> / numpy.random.<fn>
        if root == "numpy" and len(chain) >= 3 and chain[1] == "random":
            if chain[2] not in allowed_np:
                findings.append(ctx.finding(
                    "RL005", node,
                    f"`np.random.{chain[2]}` uses the module-global RNG "
                    f"— breaks bit-exact resume; use a seeded Generator"))
        elif root == "numpy.random" and chain[1] not in allowed_np:
            findings.append(ctx.finding(
                "RL005", node,
                f"`{chain[0]}.{chain[1]}` uses the module-global RNG — "
                f"use a seeded Generator"))
        elif root == "random" and len(chain) == 2 and \
                chain[1] not in allowed_std:
            findings.append(ctx.finding(
                "RL005", node,
                f"`random.{chain[1]}` draws from the global stdlib RNG "
                f"— use a seeded np.random.default_rng Generator"))
    return findings


# ---------------------------------------------------------------------
# RL006 — silent broad excepts
# ---------------------------------------------------------------------
_BROAD_NAMES = ("Exception", "BaseException")


def _exception_names(node: ast.expr | None) -> list[str]:
    if node is None:
        return []
    if isinstance(node, ast.Tuple):
        names = []
        for element in node.elts:
            names.extend(_exception_names(element))
        return names
    chain = _attr_chain(node)
    return [chain[-1]] if chain else []


@rule("RL006", "bare/over-broad except that swallows silently")
def check_silent_broad_except(ctx: ModuleContext) -> list[Finding]:
    """A bare `except:` (or `except Exception:` whose body neither
    re-raises, nor calls anything — logging, metrics, a structured-event
    emit — nor even reads the caught exception) erases the failure: the
    serving stack reports a healthy response for a request that actually
    died.  Narrow the type, re-raise, or record a structured event."""
    findings: list[Finding] = []
    for node in ctx.nodes:
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            findings.append(ctx.finding(
                "RL006", node,
                "bare `except:` catches everything (including "
                "KeyboardInterrupt) — name the exception type"))
            continue
        if not any(name in _BROAD_NAMES
                   for name in _exception_names(node.type)):
            continue
        has_raise = any(isinstance(n, ast.Raise)
                        for n in _walk_shallow(node.body))
        has_call = any(isinstance(n, ast.Call)
                       for n in _walk_shallow(node.body))
        uses_name = node.name is not None and any(
            isinstance(n, ast.Name) and n.id == node.name
            and isinstance(n.ctx, ast.Load)
            for n in _walk_shallow(node.body))
        if has_raise or has_call or uses_name:
            continue
        findings.append(ctx.finding(
            "RL006", node,
            "broad `except` swallows the failure silently — re-raise, "
            "narrow the type, or log a structured event"))
    return findings


# ---------------------------------------------------------------------
# RL007 — metric-name / prompt-token literal drift
# ---------------------------------------------------------------------
_METRIC_SHAPE_RE = re.compile(
    r"(serving|train|netserve|bench|index)\.[a-z0-9_]+(\.[a-z0-9_]+)*\.?")

#: Strings shaped like a metric id but actually a file name (a prefix
#: word followed by an extension, e.g. ``"index.json"``) are not drift.
_FILE_NAME_RE = re.compile(r".*\.(csv|json|jsonl|log|md|npy|npz|py|txt|"
                           r"ya?ml)$")

#: The linter's own configuration necessarily spells the tokens it hunts.
_SELF_PREFIX = "src/repro/lint/"


@rule("RL007", "string drift from a single source of truth "
               "(metric names / prompt tokens)")
def check_literal_drift(ctx: ModuleContext) -> list[Finding]:
    """Serving metric names live in `repro.serving.metric_names`;
    `bench.*` benchmark ids live in `repro.bench.registry`; the paper's
    prompt special tokens (`[ALM]`, `[KPI]`, ..., `|`) live in
    `repro.prompts.templates`.  A hard-coded copy anywhere else drifts
    silently when the canonical spelling changes — dashboards chart a
    metric nobody emits any more, the regression gate checks a benchmark
    nobody runs, or the tokenizer stops recognising a prompt marker.
    Import the constant (or a helper) instead."""
    if ctx.rel.startswith(_SELF_PREFIX):
        return []
    findings: list[Finding] = []
    tokens = ctx.config.prompt_tokens
    in_templates = ctx.rel == ctx.config.prompt_templates_module
    in_metric_names = ctx.rel == ctx.config.metric_names_module
    in_bench_registry = ctx.rel == ctx.config.bench_registry_module
    separator_scoped = ctx.in_scope(ctx.config.separator_scope)
    for node in ctx.nodes:
        if not isinstance(node, ast.Constant) or \
                not isinstance(node.value, str):
            continue
        if ctx.is_docstring(node):
            continue
        value = node.value
        if _METRIC_SHAPE_RE.fullmatch(value) and \
                not _FILE_NAME_RE.fullmatch(value):
            if value.startswith("bench."):
                if not in_bench_registry:
                    findings.append(ctx.finding(
                        "RL007", node,
                        f"hard-coded benchmark id {value!r} — import it "
                        f"from repro.bench.registry"))
                continue
            if not in_metric_names:
                findings.append(ctx.finding(
                    "RL007", node,
                    f"hard-coded metric name {value!r} — import it from "
                    f"repro.serving.metric_names"))
                continue
        if in_templates:
            continue
        hit = next((token for token in tokens if token in value), None)
        if hit is not None:
            findings.append(ctx.finding(
                "RL007", node,
                f"hard-coded prompt token {hit!r} in {value!r} — import "
                f"it from repro.prompts.templates"))
        elif value == "|" and separator_scoped:
            findings.append(ctx.finding(
                "RL007", node,
                "hard-coded prompt field separator '|' — use "
                "repro.prompts.templates.FIELD_SEPARATOR"))
    return findings

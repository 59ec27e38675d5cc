"""The interprocedural flow rules (RL008-RL011, ``repro.lint.flow``).

Each rule reads the :class:`~repro.lint.project.ProjectContext` — the
repo-wide symbol table, call graph, and per-function summaries — instead
of a single module, so it sees the bug shapes the per-module rules
structurally cannot: a blocking call two frames below a ``with lock:``,
a lock-acquisition cycle split across classes, a ``deadline`` parameter
that dies one call short of the wait it was meant to bound, a
``SharedArray`` whose unlink lives on only one of three exit paths.

Like the module rules, these are distilled from bug classes fixed by
hand: PR 4 (hung encoder under the store lock), PR 7 (leaked ``/dev/shm``
segments on crash paths), PR 9 (mmap shard handles).  RL009-RL011 are
scoped to the production stack (``LintConfig.flow_scope``); RL008 is
global because a lock-order inversion is a bug wherever the locks live.
"""

from __future__ import annotations

from repro.lint.core import _THREADY_RE, Finding, rule
from repro.lint.project import _WAIT_ATTRS, ProjectContext


def _in_flow_scope(project: ProjectContext, rel: str) -> bool:
    return any(rel.startswith(prefix)
               for prefix in project.config.flow_scope)


# ---------------------------------------------------------------------
# RL008 — lock-order inversion
# ---------------------------------------------------------------------
@rule("RL008", "lock-order inversion (cycle in the global "
               "lock-acquisition graph)", scope="project")
def check_lock_order(project: ProjectContext) -> list[Finding]:
    """Thread 1 takes A then B; thread 2 takes B then A; both stall
    forever holding the half the other needs.  No single function shows
    the bug — each ordering is locally reasonable — so the rule builds
    the *global* lock-acquisition-order graph (an edge A->B whenever B is
    acquired while A is held, including acquisitions made by callees
    resolved through the call graph) and reports every cycle.  Fix by
    picking one canonical order and acquiring in that order everywhere,
    or by narrowing one critical section until it no longer nests.
    Re-entrant self-acquisition is not reported (RLock territory, and
    instance-level lock identities would alias)."""
    findings: list[Finding] = []
    for cycle in project.lock_cycles():
        ring = " -> ".join(cycle.locks + (cycle.locks[0],))
        for rel, line, qualname, outer, inner in cycle.sites:
            findings.append(project.finding(
                "RL008", rel, line, 0, qualname,
                f"lock-order inversion: `{inner}` is acquired while "
                f"holding `{outer}`, closing the cycle {ring} — pick one "
                f"global order and acquire in it everywhere"))
    return findings


# ---------------------------------------------------------------------
# RL009 — transitive blocking under a lock
# ---------------------------------------------------------------------
@rule("RL009", "call chain from a critical section to an unbounded "
               "blocking sink", scope="project")
def check_transitive_blocking(project: ProjectContext) -> list[Finding]:
    """RL001 catches `with lock: provider.encode(...)`; it cannot catch
    `with lock: self._refresh()` where `_refresh` (or anything *it*
    calls) ends in an unbounded `.wait()` / `.get()` / `.encode(...)`.
    The result is the same PR-4 deadlock — every thread that needs the
    lock queues behind a provider that never returns — just hidden one
    or more frames down.  This rule propagates "may block without a
    bound" backwards over the resolved call graph and flags any call
    made while holding a lock whose callee's closure reaches such a
    sink.  Bound the sink (timeout/deadline argument), or move the call
    out of the critical section and re-acquire to publish the result."""
    findings: list[Finding] = []
    for fqn, (summary, fn) in sorted(project.functions.items()):
        if not _in_flow_scope(project, summary.rel):
            continue
        for callee, call in project.callees(fqn):
            if not call.locks_held or call.bounded or call.guarded:
                continue
            witness = project.may_block(callee)
            if witness is None:
                continue
            held = " / ".join(sorted(set(call.locks_held)))
            chain = f"{callee.split(':')[-1]} -> {witness[0]}"
            findings.append(project.finding(
                "RL009", summary.rel, call.line, call.col, fn.qualname,
                f"call chain `{chain}` can block without a bound while "
                f"holding `{held}` — bound the sink or move the call "
                f"outside the critical section"))
    return findings


# ---------------------------------------------------------------------
# RL010 — dropped deadline
# ---------------------------------------------------------------------
def _wait_shaped(call) -> bool:
    if call.attr not in _WAIT_ATTRS:
        return False
    if call.attr == "get" and call.nargs:
        return False  # dict.get
    if call.attr == "join" and call.receiver and \
            not _THREADY_RE.search(call.receiver):
        return False  # str.join
    return True


@rule("RL010", "deadline/timeout parameter accepted but not threaded "
               "to the wait it should bound", scope="project")
def check_dropped_deadline(project: ProjectContext) -> list[Finding]:
    """A `deadline=` parameter is a promise: every wait downstream of
    this frame is bounded by it.  A function that accepts one and then
    reaches a wait-shaped sink — `.wait()`, `.result()`, a call into a
    callee that itself takes a deadline — without passing the deadline
    (or a value derived from it, e.g. `deadline.remaining()`) silently
    converts the caller's budget into `forever`: exactly how the pre-PR4
    stack hung while every layer above believed it had a timeout.
    Thread the parameter through (any expression derived from it
    counts), or guard the unbounded branch on the deadline itself
    (`if deadline is None: ...`)."""
    findings: list[Finding] = []
    for fqn, (summary, fn) in sorted(project.functions.items()):
        if not _in_flow_scope(project, summary.rel):
            continue
        if not fn.deadline_params:
            continue
        params = ", ".join(fn.deadline_params)
        for call in fn.calls:
            if call.tainted or call.guarded:
                continue
            if _wait_shaped(call):
                findings.append(project.finding(
                    "RL010", summary.rel, call.line, call.col,
                    fn.qualname,
                    f"`{'.'.join(call.chain)}(...)` does not use the "
                    f"`{params}` this function accepted — pass "
                    f"the remaining budget so the wait stays bounded"))
                continue
            callee = project.resolve_call(summary, fn, call)
            if callee is None:
                continue
            callee_fn = project.functions[callee][1]
            if callee_fn.deadline_params and not call.bounded:
                findings.append(project.finding(
                    "RL010", summary.rel, call.line, call.col,
                    fn.qualname,
                    f"`{'.'.join(call.chain)}(...)` drops the deadline: "
                    f"the callee accepts "
                    f"`{', '.join(callee_fn.deadline_params)}` but this "
                    f"call forwards neither `{params}` nor anything "
                    f"derived from it"))
    return findings


# ---------------------------------------------------------------------
# RL011 — resource lifecycle
# ---------------------------------------------------------------------
@rule("RL011", "resource opened but not closed on every path",
      scope="project")
def check_resource_lifecycle(project: ProjectContext) -> list[Finding]:
    """A `SharedArray` that is not unlinked survives the process in
    `/dev/shm`; an unclosed socket holds its FD and its peer's accept
    slot; an unclosed mmap pins the shard file against the next
    generation's GC (the PR-7 and PR-9 crash-path leaks).  This rule
    tracks every handle-producing call (`open`, `socket.socket`,
    `np.memmap`, `SharedMemory`, `SharedArray`, ...) bound to a local
    name and requires a lifecycle the code can prove: a `with` block, a
    close/unlink/release in a `try/finally`, straight-line close on the
    only path, or an ownership transfer (returned, yielded, stored on
    `self`, handed to another call).  A close reachable on only *some*
    paths — inside one `if` branch, or in a `try` body an exception can
    skip — is reported as such."""
    findings: list[Finding] = []
    for fqn, (summary, fn) in sorted(project.functions.items()):
        if not _in_flow_scope(project, summary.rel):
            continue
        for resource in fn.resources:
            if resource.escapes or resource.closed in ("with",
                                                       "guaranteed"):
                continue
            if resource.closed == "conditional":
                message = (
                    f"`{resource.var}` ({resource.kind}) is closed on "
                    f"some paths only — move the close into a `finally` "
                    f"(or manage it with `with`) so every exit releases "
                    f"it")
            else:
                message = (
                    f"`{resource.var}` ({resource.kind}) is opened but "
                    f"never closed in this function and never handed "
                    f"off — use `with`, or close/unlink it in a "
                    f"`try/finally`")
            findings.append(project.finding(
                "RL011", summary.rel, resource.line, resource.col,
                fn.qualname, message))
    return findings


__all__ = [
    "check_dropped_deadline",
    "check_lock_order",
    "check_resource_lifecycle",
    "check_transitive_blocking",
]

"""Tests for :mod:`repro.lint` — rules, suppressions, summary cache, CLI.

Fixture snippets are analysed with injected repo-relative paths
(``analyze_source(source, rel)``), so a fixture can be placed inside or
outside a rule's scope without touching the real tree.  The meta-test at
the bottom holds the live ``src/repro`` tree to zero findings.
"""

import ast
import collections
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    RULES,
    LintConfig,
    analyze_paths,
    analyze_source,
    analyze_sources,
    lint_main,
    rule,
)
from repro.lint import project
from repro.lint.core import FRAMEWORK_CODE
from repro.lint.project import SummaryCache, cache_key

ROOT = Path(__file__).resolve().parents[1]

SERVING_REL = "src/repro/serving/fixture.py"
MODELS_REL = "src/repro/models/fixture.py"
OTHER_REL = "src/repro/analysis/fixture.py"


def codes(findings):
    return [f.rule for f in findings]


def lint(source, rel=OTHER_REL, select=None):
    return analyze_source(source, rel, select=select)


def lint_tree(sources, select=None):
    """Lint a dict of rel -> source as one program (project rules see
    the whole call graph)."""
    return analyze_sources(sources, select=select)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_eleven_rules_registered(self):
        assert {"RL001", "RL002", "RL003", "RL004", "RL005", "RL006",
                "RL007", "RL008", "RL009", "RL010", "RL011"} <= set(RULES)

    def test_rules_carry_metadata(self):
        for meta in RULES.values():
            assert meta.title
            assert meta.rationale, f"{meta.code} has no rationale"
            assert meta.scope in ("module", "project")

    def test_flow_rules_are_project_scoped(self):
        for code in ("RL008", "RL009", "RL010", "RL011"):
            assert RULES[code].scope == "project"

    def test_duplicate_code_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            rule("RL001", "again")(lambda ctx: [])

    def test_unknown_select_rejected(self):
        with pytest.raises(ValueError, match="RL998"):
            lint("x = 1", select=["RL998"])


# ----------------------------------------------------------------------
# RL001 — blocking call in a lock
# ----------------------------------------------------------------------
RL001_BAD = """
def f(self):
    with self._lock:
        return self.provider.encode(["a"])
"""

RL001_COND_WAIT_OK = """
def f(self):
    with self._cond:
        self._cond.wait(timeout=1.0)
"""

RL001_DICT_GET_OK = """
def f(self):
    with self._lock:
        return self._pending.get("name")
"""

RL001_STR_JOIN_OK = """
def f(self):
    with self._lock:
        return ", ".join(self.names)
"""

RL001_STR_ENCODE_OK = """
import json
def f(self):
    with self._lock:
        self.buf += json.dumps({}).encode("utf-8")
        self.tag = "x".encode("utf-8")
"""

RL001_NESTED_DEF_OK = """
def f(self):
    with self._lock:
        def later():
            return self.queue.get()
        return later
"""

RL001_THREAD_JOIN_BAD = """
def f(self):
    with self._lock:
        self.worker_thread.join()
"""


class TestRL001:
    def test_encode_in_lock_flagged(self):
        assert codes(lint(RL001_BAD, select=["RL001"])) == ["RL001"]

    def test_thread_join_in_lock_flagged(self):
        assert codes(lint(RL001_THREAD_JOIN_BAD,
                          select=["RL001"])) == ["RL001"]

    @pytest.mark.parametrize("source", [
        RL001_COND_WAIT_OK, RL001_DICT_GET_OK, RL001_STR_JOIN_OK,
        RL001_STR_ENCODE_OK, RL001_NESTED_DEF_OK,
    ], ids=["cond-wait", "dict-get", "str-join", "str-encode",
            "nested-def"])
    def test_exemptions(self, source):
        assert lint(source, select=["RL001"]) == []

    def test_suppression(self):
        suppressed = RL001_BAD.replace(
            "return self.provider.encode([\"a\"])",
            "return self.provider.encode([\"a\"])  "
            "# repro-lint: allow[RL001] bounded by the flush watchdog")
        assert lint(suppressed, select=["RL001"]) == []


# ----------------------------------------------------------------------
# RL002 — unbounded waits in serving/training scope
# ----------------------------------------------------------------------
RL002_BAD = """
def f(self):
    self.event.wait()
    item = self.queue.get()
"""


class TestRL002:
    def test_flagged_in_scope(self):
        assert codes(lint(RL002_BAD, rel=SERVING_REL,
                          select=["RL002"])) == ["RL002", "RL002"]

    def test_out_of_scope_ignored(self):
        assert lint(RL002_BAD, rel=OTHER_REL, select=["RL002"]) == []

    def test_timeout_argument_accepted(self):
        ok = "def f(self):\n    self.event.wait(timeout=2.0)\n"
        assert lint(ok, rel=SERVING_REL, select=["RL002"]) == []

    def test_suppression(self):
        suppressed = RL002_BAD.replace(
            "self.event.wait()",
            "self.event.wait()  # repro-lint: allow[RL002] event is "
            "always set before this point")
        assert codes(lint(suppressed, rel=SERVING_REL,
                          select=["RL002"])) == ["RL002"]


# ----------------------------------------------------------------------
# RL003 — non-daemon threads
# ----------------------------------------------------------------------
RL003_BAD = """
import threading
def f():
    return threading.Thread(target=f)
"""

RL003_FALSE_BAD = """
import threading
def f():
    return threading.Thread(target=f, daemon=False)
"""

RL003_OK = """
import threading
def f():
    return threading.Thread(target=f, daemon=True)
"""

RL003_ALIASED_BAD = """
from threading import Thread
def f():
    return Thread(target=f)
"""


class TestRL003:
    def test_missing_daemon_flagged(self):
        assert codes(lint(RL003_BAD, select=["RL003"])) == ["RL003"]

    def test_daemon_false_flagged(self):
        assert codes(lint(RL003_FALSE_BAD, select=["RL003"])) == ["RL003"]

    def test_aliased_import_flagged(self):
        assert codes(lint(RL003_ALIASED_BAD, select=["RL003"])) == ["RL003"]

    def test_daemon_true_accepted(self):
        assert lint(RL003_OK, select=["RL003"]) == []

    def test_suppression(self):
        suppressed = RL003_BAD.replace(
            "return threading.Thread(target=f)",
            "# repro-lint: allow[RL003] joined explicitly in close()\n"
            "    return threading.Thread(target=f)")
        assert lint(suppressed, select=["RL003"]) == []


# ----------------------------------------------------------------------
# RL004 — non-atomic writes in checkpoint/store scope
# ----------------------------------------------------------------------
RL004_BAD = """
import json
import numpy as np
from pathlib import Path

def save(path, meta, arrays):
    Path(path).write_text(json.dumps(meta))
    with open(path, "w") as handle:
        handle.write("x")
    np.savez(path, **arrays)
"""

RL004_OK = """
import io
import numpy as np
from repro.ioutil import atomic_write_bytes

def save(path, arrays, record):
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    atomic_write_bytes(path, buffer.getvalue())
    with open(path, "a", encoding="utf-8") as handle:  # append-only log
        handle.write(record)
"""

RL004_IMPL_OK = """
import os
def atomic_write_text(path, text):
    with open(path, "w") as handle:
        handle.write(text)
"""


class TestRL004:
    def test_truncating_writes_flagged(self):
        found = codes(lint(RL004_BAD, rel=MODELS_REL, select=["RL004"]))
        assert found == ["RL004", "RL004", "RL004"]

    def test_out_of_scope_ignored(self):
        assert lint(RL004_BAD, rel=OTHER_REL, select=["RL004"]) == []

    def test_atomic_pattern_accepted(self):
        assert lint(RL004_OK, rel=MODELS_REL, select=["RL004"]) == []

    def test_atomic_impl_function_exempt(self):
        assert lint(RL004_IMPL_OK, rel=MODELS_REL, select=["RL004"]) == []

    def test_suppression(self):
        suppressed = RL004_BAD.replace(
            "Path(path).write_text(json.dumps(meta))",
            "Path(path).write_text(json.dumps(meta))  "
            "# repro-lint: allow[RL004] scratch file, never reloaded")
        assert codes(lint(suppressed, rel=MODELS_REL,
                          select=["RL004"])) == ["RL004", "RL004"]


# ----------------------------------------------------------------------
# RL005 — global RNG
# ----------------------------------------------------------------------
RL005_BAD = """
import random
import numpy as np

def f():
    random.shuffle([1, 2])
    np.random.seed(0)
    return np.random.normal(size=3)
"""

RL005_OK = """
import numpy as np
import random

def f(seed):
    rng = np.random.default_rng(seed)
    local = random.Random(seed)
    return rng.normal(size=3), local.random()
"""

RL005_FROM_IMPORT_BAD = """
from numpy.random import rand
from random import shuffle
"""


class TestRL005:
    def test_global_calls_flagged(self):
        assert codes(lint(RL005_BAD, select=["RL005"])) == \
            ["RL005", "RL005", "RL005"]

    def test_seeded_generators_accepted(self):
        assert lint(RL005_OK, select=["RL005"]) == []

    def test_from_imports_flagged(self):
        assert codes(lint(RL005_FROM_IMPORT_BAD,
                          select=["RL005"])) == ["RL005", "RL005"]

    def test_suppression(self):
        suppressed = RL005_BAD.replace(
            "np.random.seed(0)",
            "np.random.seed(0)  # repro-lint: allow[RL005] test-only "
            "harness seeding")
        assert codes(lint(suppressed, select=["RL005"])) == \
            ["RL005", "RL005"]


# ----------------------------------------------------------------------
# RL006 — silent broad excepts
# ----------------------------------------------------------------------
RL006_BARE = """
def f():
    try:
        g()
    except:
        pass
"""

RL006_SILENT = """
def f():
    try:
        g()
    except Exception:
        pass
"""

RL006_LOGGED_OK = """
def f(self):
    try:
        g()
    except Exception as error:
        self.metrics.emit("error", error=repr(error))
"""

RL006_RERAISE_OK = """
def f():
    try:
        g()
    except Exception:
        raise
"""

RL006_NAME_USED_OK = """
def f(self):
    try:
        g()
    except BaseException as caught:
        self.error = caught
"""

RL006_NARROW_OK = """
def f():
    try:
        g()
    except (OSError, ValueError):
        pass
"""


class TestRL006:
    def test_bare_except_flagged(self):
        assert codes(lint(RL006_BARE, select=["RL006"])) == ["RL006"]

    def test_silent_broad_except_flagged(self):
        assert codes(lint(RL006_SILENT, select=["RL006"])) == ["RL006"]

    @pytest.mark.parametrize("source", [
        RL006_LOGGED_OK, RL006_RERAISE_OK, RL006_NAME_USED_OK,
        RL006_NARROW_OK,
    ], ids=["logged", "reraise", "name-used", "narrow"])
    def test_exemptions(self, source):
        assert lint(source, select=["RL006"]) == []

    def test_suppression(self):
        suppressed = RL006_SILENT.replace(
            "except Exception:",
            "except Exception:  # repro-lint: allow[RL006] best-effort "
            "cleanup, failure is fine")
        assert lint(suppressed, select=["RL006"]) == []


# ----------------------------------------------------------------------
# RL007 — metric-name / prompt-token drift
# ----------------------------------------------------------------------
RL007_METRIC_BAD = """
def f(metrics):
    metrics.counter("serving.requests").inc()
    metrics.counter(f"serving.latency.{0}").inc()
"""

RL007_TOKEN_BAD = """
def f(name):
    return f"[ENT] {name}"
"""

RL007_SEPARATOR_BAD = """
def f(parts):
    return "|".join(parts)
"""

RL007_BENCH_BAD = """
def f(record):
    record("bench.train_step", {"step_ms": 1.0})
"""

RL007_DOCSTRING_OK = '''
def f():
    """Wraps entities in the [ENT] format, e.g. serving.requests."""
    return None
'''


class TestRL007:
    def test_metric_literal_flagged(self):
        assert codes(lint(RL007_METRIC_BAD, rel=SERVING_REL,
                          select=["RL007"])) == ["RL007", "RL007"]

    def test_metric_names_module_exempt(self):
        assert lint(RL007_METRIC_BAD,
                    rel="src/repro/serving/metric_names.py",
                    select=["RL007"]) == []

    def test_prompt_token_flagged(self):
        assert codes(lint(RL007_TOKEN_BAD, rel=MODELS_REL,
                          select=["RL007"])) == ["RL007"]

    def test_templates_module_exempt(self):
        assert lint(RL007_TOKEN_BAD,
                    rel="src/repro/prompts/templates.py",
                    select=["RL007"]) == []

    def test_bench_id_flagged(self):
        found = lint(RL007_BENCH_BAD, rel=OTHER_REL, select=["RL007"])
        assert codes(found) == ["RL007"]
        assert "repro.bench.registry" in found[0].message

    def test_bench_registry_module_exempt(self):
        assert lint(RL007_BENCH_BAD,
                    rel="src/repro/bench/registry.py",
                    select=["RL007"]) == []

    def test_bench_id_not_misreported_as_metric(self):
        # A bench id in the metric-names module is still a bench finding,
        # not silently accepted by the serving-metric exemption.
        found = lint(RL007_BENCH_BAD,
                     rel="src/repro/serving/metric_names.py",
                     select=["RL007"])
        assert codes(found) == ["RL007"]
        assert "benchmark id" in found[0].message

    def test_separator_flagged_in_prompt_scope(self):
        assert codes(lint(RL007_SEPARATOR_BAD,
                          rel="src/repro/corpus/fixture.py",
                          select=["RL007"])) == ["RL007"]

    def test_separator_ignored_elsewhere(self):
        assert lint(RL007_SEPARATOR_BAD, rel=OTHER_REL,
                    select=["RL007"]) == []

    def test_index_metric_literal_flagged(self):
        source = """
def f(metrics):
    metrics.counter("index.queries").inc()
"""
        assert codes(lint(source, rel=OTHER_REL,
                          select=["RL007"])) == ["RL007"]

    def test_filename_shaped_strings_exempt(self):
        # "index.json" / "train.log" are file names, not metric ids.
        source = """
def f(directory):
    return [directory / "index.json", directory / "train.log"]
"""
        assert lint(source, rel=OTHER_REL, select=["RL007"]) == []

    def test_docstring_mentions_exempt(self):
        assert lint(RL007_DOCSTRING_OK, rel=MODELS_REL,
                    select=["RL007"]) == []

    def test_suppression(self):
        suppressed = RL007_TOKEN_BAD.replace(
            'return f"[ENT] {name}"',
            'return f"[ENT] {name}"  # repro-lint: allow[RL007] '
            'golden-output fixture')
        assert lint(suppressed, rel=MODELS_REL, select=["RL007"]) == []


# ----------------------------------------------------------------------
# RL008 — lock-order inversion
# ----------------------------------------------------------------------
RL008_INVERSION_BAD = """
import threading

lock_a = threading.Lock()
lock_b = threading.Lock()

def first():
    with lock_a:
        with lock_b:
            pass

def second():
    with lock_b:
        with lock_a:
            pass
"""

RL008_METHOD_BAD = """
import threading

class Store:
    def __init__(self):
        self._index_lock = threading.Lock()
        self._write_lock = threading.Lock()

    def query(self):
        with self._index_lock:
            with self._write_lock:
                pass

    def commit(self):
        with self._write_lock:
            with self._index_lock:
                pass
"""

RL008_TRANSITIVE_BAD = """
import threading

lock_a = threading.Lock()
lock_b = threading.Lock()

def outer_ab():
    with lock_a:
        _take_b()

def _take_b():
    with lock_b:
        pass

def outer_ba():
    with lock_b:
        with lock_a:
            pass
"""

RL008_ORDERED_OK = """
import threading

lock_a = threading.Lock()
lock_b = threading.Lock()

def first():
    with lock_a:
        with lock_b:
            pass

def second():
    with lock_a:
        with lock_b:
            pass
"""

RL008_SINGLE_OK = """
import threading

lock = threading.Lock()

def f():
    with lock:
        pass
"""

RL008_REENTRANT_OK = """
import threading

class Store:
    def __init__(self):
        self._lock = threading.RLock()

    def outer(self):
        with self._lock:
            self.inner()

    def inner(self):
        with self._lock:
            pass
"""


class TestRL008:
    def test_module_lock_inversion_flagged(self):
        found = lint(RL008_INVERSION_BAD, select=["RL008"])
        assert codes(found) == ["RL008", "RL008"]
        assert "lock-order inversion" in found[0].message

    def test_instance_lock_inversion_flagged(self):
        assert codes(lint(RL008_METHOD_BAD,
                          select=["RL008"])) == ["RL008", "RL008"]

    def test_inversion_through_callee_flagged(self):
        # No single function nests both orders; the A->B edge exists
        # only through the resolved call graph.
        found = lint(RL008_TRANSITIVE_BAD, select=["RL008"])
        assert "RL008" in codes(found)

    def test_consistent_order_accepted(self):
        assert lint(RL008_ORDERED_OK, select=["RL008"]) == []

    def test_single_lock_accepted(self):
        assert lint(RL008_SINGLE_OK, select=["RL008"]) == []

    def test_reentrant_self_acquisition_accepted(self):
        assert lint(RL008_REENTRANT_OK, select=["RL008"]) == []

    def test_global_scope(self):
        # RL008 applies outside flow_scope too: an inversion is a bug
        # wherever the locks live.
        assert codes(lint(RL008_INVERSION_BAD, rel=OTHER_REL,
                          select=["RL008"])) == ["RL008", "RL008"]


# ----------------------------------------------------------------------
# RL009 — transitive blocking under a lock
# ----------------------------------------------------------------------
RL009_ONE_HOP_BAD = """
class Service:
    def serve(self):
        with self._lock:
            self._refresh()

    def _refresh(self):
        self.ready_event.wait()
"""

RL009_TWO_HOPS_BAD = """
class Service:
    def serve(self):
        with self._lock:
            self._refresh()

    def _refresh(self):
        self._drain()

    def _drain(self):
        return self.queue.get()
"""

# The PR-4 shape: the encode itself moved one frame below the lock, so
# RL001 no longer sees it — only the interprocedural rule does.
RL009_HUNG_ENCODER_REGRESSION = """
class BatchStore:
    def lookup(self, names):
        with self._lock:
            return self._ensure_vectors(names)

    def _ensure_vectors(self, names):
        return self.provider.encode([n for n in names])
"""

RL009_BOUNDED_OK = """
class Service:
    def serve(self):
        with self._lock:
            self._refresh(timeout_s=1.0)

    def _refresh(self, timeout_s=None):
        self.ready_event.wait(timeout_s)
"""

RL009_OUTSIDE_LOCK_OK = """
class Service:
    def serve(self):
        payload = self._refresh()
        with self._lock:
            self.cache = payload

    def _refresh(self):
        return self.queue.get()
"""

RL009_NONBLOCKING_CALLEE_OK = """
class Service:
    def serve(self):
        with self._lock:
            self._bump()

    def _bump(self):
        self.counter += 1
"""


class TestRL009:
    def test_one_hop_chain_flagged(self):
        found = lint(RL009_ONE_HOP_BAD, rel=SERVING_REL,
                     select=["RL009"])
        assert codes(found) == ["RL009"]
        assert "_refresh" in found[0].message

    def test_two_hop_chain_flagged(self):
        assert codes(lint(RL009_TWO_HOPS_BAD, rel=SERVING_REL,
                          select=["RL009"])) == ["RL009"]

    def test_hung_encoder_regression(self):
        # Historical: PR 4 fixed a deadlock where a hung provider.encode
        # ran under the store lock; this is that shape one frame down.
        found = lint(RL009_HUNG_ENCODER_REGRESSION, rel=SERVING_REL,
                     select=["RL009"])
        assert codes(found) == ["RL009"]
        assert "while holding" in found[0].message

    def test_bounded_call_accepted(self):
        assert lint(RL009_BOUNDED_OK, rel=SERVING_REL,
                    select=["RL009"]) == []

    def test_call_outside_lock_accepted(self):
        assert lint(RL009_OUTSIDE_LOCK_OK, rel=SERVING_REL,
                    select=["RL009"]) == []

    def test_nonblocking_callee_accepted(self):
        assert lint(RL009_NONBLOCKING_CALLEE_OK, rel=SERVING_REL,
                    select=["RL009"]) == []

    def test_out_of_flow_scope_ignored(self):
        assert lint(RL009_ONE_HOP_BAD, rel=OTHER_REL,
                    select=["RL009"]) == []

    def test_suppression(self):
        suppressed = RL009_ONE_HOP_BAD.replace(
            "self._refresh()",
            "self._refresh()  # repro-lint: allow[RL009] event set "
            "before serve is reachable")
        assert lint(suppressed, rel=SERVING_REL, select=["RL009"]) == []


# ----------------------------------------------------------------------
# RL010 — dropped deadline
# ----------------------------------------------------------------------
RL010_WAIT_BAD = """
class Worker:
    def flush(self, deadline=None):
        self.done_event.wait()
"""

RL010_CALLEE_BAD = """
class Worker:
    def close(self, timeout_s=None):
        self._drain()

    def _drain(self, timeout_s=None):
        self.queue_empty.wait(timeout_s)
"""

# The netserve shape fixed in this PR: close(timeout_s) joined the
# accept thread with a constant instead of the caller's budget.
RL010_JOIN_REGRESSION = """
class Server:
    def close(self, timeout_s=None):
        self._accept_thread.join()
"""

RL010_FORWARDED_OK = """
class Worker:
    def close(self, timeout_s=None):
        self._drain(timeout_s=timeout_s)

    def _drain(self, timeout_s=None):
        self.queue_empty.wait(timeout_s)
"""

RL010_DERIVED_OK = """
class Worker:
    def flush(self, deadline=None):
        remaining = deadline.remaining()
        self.done_event.wait(remaining)
"""

RL010_GUARDED_OK = """
class Worker:
    def flush(self, deadline=None):
        if deadline is None:
            self.done_event.wait()
        else:
            self.done_event.wait(deadline.remaining())
"""

RL010_NO_DEADLINE_PARAM_OK = """
class Worker:
    def flush(self):
        self.done_event.wait()
"""


class TestRL010:
    def test_unbounded_wait_flagged(self):
        found = lint(RL010_WAIT_BAD, rel=SERVING_REL, select=["RL010"])
        assert codes(found) == ["RL010"]
        assert "deadline" in found[0].message

    def test_dropped_on_callee_flagged(self):
        found = lint(RL010_CALLEE_BAD, rel=SERVING_REL,
                     select=["RL010"])
        assert codes(found) == ["RL010"]
        assert "drops the deadline" in found[0].message

    def test_unforwarded_join_regression(self):
        # Historical: Server.close(timeout_s) joined its accept thread
        # with a fixed grace, stretching the caller's close budget.
        assert codes(lint(RL010_JOIN_REGRESSION, rel=SERVING_REL,
                          select=["RL010"])) == ["RL010"]

    def test_forwarded_deadline_accepted(self):
        assert lint(RL010_FORWARDED_OK, rel=SERVING_REL,
                    select=["RL010"]) == []

    def test_derived_value_accepted(self):
        assert lint(RL010_DERIVED_OK, rel=SERVING_REL,
                    select=["RL010"]) == []

    def test_guarded_branch_accepted(self):
        assert lint(RL010_GUARDED_OK, rel=SERVING_REL,
                    select=["RL010"]) == []

    def test_function_without_deadline_ignored(self):
        assert lint(RL010_NO_DEADLINE_PARAM_OK, rel=SERVING_REL,
                    select=["RL010"]) == []

    def test_out_of_flow_scope_ignored(self):
        assert lint(RL010_WAIT_BAD, rel=OTHER_REL,
                    select=["RL010"]) == []


# ----------------------------------------------------------------------
# RL011 — resource lifecycle
# ----------------------------------------------------------------------
RL011_SOCKET_BAD = """
import socket

def probe(host):
    sock = socket.socket()
    sock.connect((host, 80))
    return None
"""

RL011_CONDITIONAL_BAD = """
def read_header(path):
    handle = open(path, "rb")
    header = handle.read(16)
    if header:
        handle.close()
    return header
"""

# The PR-7 shape: a /dev/shm segment allocated on an error path that
# returns early without unlink() leaks until reboot.
RL011_SHARED_ARRAY_REGRESSION = """
from repro.training.shm import SharedArray

def stage(shape):
    scratch = SharedArray(shape)
    scratch.array.fill(0)
    return None
"""

RL011_WITH_OK = """
import socket

def probe(host):
    with socket.socket() as sock:
        sock.connect((host, 80))
"""

RL011_FINALLY_OK = """
def read_header(path):
    handle = open(path, "rb")
    try:
        return handle.read(16)
    finally:
        handle.close()
"""

RL011_HANDOFF_OK = """
import socket

def make_conn(host):
    sock = socket.socket()
    sock.connect((host, 80))
    return sock
"""

RL011_STORED_OK = """
import socket

class Client:
    def connect(self, host):
        sock = socket.socket()
        self._sock = sock
"""


class TestRL011:
    def test_never_closed_flagged(self):
        found = lint(RL011_SOCKET_BAD, rel=SERVING_REL,
                     select=["RL011"])
        assert codes(found) == ["RL011"]
        assert "never closed" in found[0].message

    def test_conditional_close_flagged(self):
        found = lint(RL011_CONDITIONAL_BAD, rel=SERVING_REL,
                     select=["RL011"])
        assert codes(found) == ["RL011"]
        assert "some paths only" in found[0].message

    def test_shared_array_regression(self):
        # Historical: PR 7 chased leaked /dev/shm segments from crash
        # paths that skipped unlink().
        assert codes(lint(RL011_SHARED_ARRAY_REGRESSION,
                          rel="src/repro/training/fixture.py",
                          select=["RL011"])) == ["RL011"]

    @pytest.mark.parametrize("source", [
        RL011_WITH_OK, RL011_FINALLY_OK, RL011_HANDOFF_OK,
        RL011_STORED_OK,
    ], ids=["with", "finally", "returned", "stored-on-self"])
    def test_lifecycles_accepted(self, source):
        assert lint(source, rel=SERVING_REL, select=["RL011"]) == []

    def test_out_of_flow_scope_ignored(self):
        assert lint(RL011_SOCKET_BAD, rel=OTHER_REL,
                    select=["RL011"]) == []

    def test_suppression(self):
        suppressed = RL011_SOCKET_BAD.replace(
            "sock = socket.socket()",
            "sock = socket.socket()  # repro-lint: allow[RL011] "
            "process-lifetime probe socket")
        assert lint(suppressed, rel=SERVING_REL, select=["RL011"]) == []


# ----------------------------------------------------------------------
# Call-graph resolution edge cases (the RL009 carrier shows an edge
# resolved iff the chain from `serve` to the blocking sink is found).
# ----------------------------------------------------------------------
WORKERS_REL = "src/repro/serving/workers.py"
CALLER_REL = "src/repro/serving/caller.py"

WORKERS_SRC = """
def spin():
    return shared_queue.get()
"""


class TestCallGraphResolution:
    def test_module_import_alias(self):
        caller = """
import repro.serving.workers as w

class S:
    def serve(self):
        with self._lock:
            w.spin()
"""
        found = lint_tree({WORKERS_REL: WORKERS_SRC,
                           CALLER_REL: caller}, select=["RL009"])
        assert codes(found) == ["RL009"]

    def test_from_import_as(self):
        caller = """
from repro.serving.workers import spin as go

class S:
    def serve(self):
        with self._lock:
            go()
"""
        found = lint_tree({WORKERS_REL: WORKERS_SRC,
                           CALLER_REL: caller}, select=["RL009"])
        assert codes(found) == ["RL009"]

    def test_reexport_through_package_init(self):
        sources = {
            "src/repro/serving/pool/__init__.py":
                "from repro.serving.pool.impl import spin\n",
            "src/repro/serving/pool/impl.py": WORKERS_SRC,
            CALLER_REL: """
from repro.serving.pool import spin

class S:
    def serve(self):
        with self._lock:
            spin()
""",
        }
        assert codes(lint_tree(sources, select=["RL009"])) == ["RL009"]

    def test_self_method_through_base_class(self):
        sources = {
            "src/repro/serving/base.py": """
class Base:
    def _refresh(self):
        self.ready_event.wait()
""",
            CALLER_REL: """
from repro.serving.base import Base

class S(Base):
    def serve(self):
        with self._lock:
            self._refresh()
""",
        }
        assert codes(lint_tree(sources, select=["RL009"])) == ["RL009"]

    def test_decorated_function_still_resolves(self):
        caller = """
import functools
from repro.serving.workers import spin

def traced(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)
    return wrapper

class S:
    @traced
    def serve(self):
        with self._lock:
            spin()
"""
        found = lint_tree({WORKERS_REL: WORKERS_SRC,
                           CALLER_REL: caller}, select=["RL009"])
        assert codes(found) == ["RL009"]

    def test_call_cycle_terminates(self):
        # a <-> b recursion must not hang the fixpoint; the chain out
        # of the cycle to the sink is still found.
        sources = {
            WORKERS_REL: """
def ping(n):
    if n:
        return pong(n - 1)
    return shared_queue.get()

def pong(n):
    return ping(n)
""",
            CALLER_REL: """
from repro.serving.workers import ping

class S:
    def serve(self):
        with self._lock:
            ping(3)
""",
        }
        assert codes(lint_tree(sources, select=["RL009"])) == ["RL009"]

    def test_constructed_instance_type_inferred(self):
        sources = {
            WORKERS_REL: """
class Pool:
    def drain(self):
        self.queue.get()
""",
            CALLER_REL: """
from repro.serving.workers import Pool

class S:
    def __init__(self):
        self._pool = Pool()

    def serve(self):
        with self._lock:
            self._pool.drain()
""",
        }
        assert codes(lint_tree(sources, select=["RL009"])) == ["RL009"]


# ----------------------------------------------------------------------
# Summary cache
# ----------------------------------------------------------------------
#: Appended to a copy of ``rules.py`` to make an analyzer whose RL005
#: never fires.
OLDER_RL005 = """
from dataclasses import replace as _replace
from repro.lint.core import RULES as _RULES
_RULES["RL005"] = _replace(_RULES["RL005"], check=lambda context: [])
"""


class TestSummaryCache:
    def make_tree(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\n")
        pkg = tmp_path / "src" / "repro" / "analysis"
        pkg.mkdir(parents=True)
        (pkg / "dirty.py").write_text(RL005_BAD)
        (pkg / "clean.py").write_text("x = 1\n")
        return tmp_path

    def test_warm_run_hits_and_findings_replay(self, tmp_path):
        root = self.make_tree(tmp_path)
        cache_path = tmp_path / "cache.json"
        key = cache_key(LintConfig(), None)

        cache = SummaryCache(cache_path, key)
        cold = analyze_paths([root / "src"], root=root, cache=cache)
        assert cache.hits == 0 and cache.misses == 2
        cache.save()

        cache = SummaryCache(cache_path, key)
        warm = analyze_paths([root / "src"], root=root, cache=cache)
        assert cache.hits == 2 and cache.misses == 0
        assert [f.to_dict() for f in warm] == \
            [f.to_dict() for f in cold]

    def test_cold_run_summarises_and_walks_each_file_once(
            self, tmp_path, monkeypatch):
        # The work, not the time: a cold run parses, walks the full tree
        # of, and summarises each file once; the warm run that follows
        # does none of it.
        root = self.make_tree(tmp_path)
        (root / "src" / "repro" / "analysis" / "locks.py").write_text(
            RL008_ORDERED_OK)
        counts = collections.Counter()

        def counting(name, call, counted=lambda *args: True):
            def wrapper(*args):
                if counted(*args):
                    counts[name] += 1
                return call(*args)
            return wrapper

        monkeypatch.setattr(ast, "parse", counting("parse", ast.parse))
        monkeypatch.setattr(ast, "walk", counting(
            "walk", ast.walk, lambda node: isinstance(node, ast.Module)))
        monkeypatch.setattr(project, "summarise_module", counting(
            "summary", project.summarise_module))
        cache_path = tmp_path / "cache.json"
        key = cache_key(LintConfig(), None)
        cache = SummaryCache(cache_path, key)
        cold = analyze_paths([root / "src"], root=root, cache=cache)
        cache.save()
        assert counts == {"parse": 3, "walk": 3, "summary": 3}

        counts.clear()
        cache = SummaryCache(cache_path, key)
        warm = analyze_paths([root / "src"], root=root, cache=cache)
        assert cache.hits == 3 and counts == {}
        assert warm == cold

    def test_warm_run_leaves_the_cache_file_alone(self, tmp_path):
        # A run that stores and prunes nothing does not rewrite the cache.
        root = self.make_tree(tmp_path)
        cache_path = tmp_path / "cache.json"
        args = ["--root", str(root), "--cache", str(cache_path),
                str(root / "src")]
        run_cli(args)
        before = (cache_path.stat().st_ino, cache_path.read_bytes())
        run_cli(args)
        assert (cache_path.stat().st_ino, cache_path.read_bytes()) == before

    def test_edited_file_misses(self, tmp_path):
        root = self.make_tree(tmp_path)
        cache_path = tmp_path / "cache.json"
        key = cache_key(LintConfig(), None)
        cache = SummaryCache(cache_path, key)
        analyze_paths([root / "src"], root=root, cache=cache)
        cache.save()

        dirty = root / "src" / "repro" / "analysis" / "dirty.py"
        dirty.write_text("x = 2\n")
        cache = SummaryCache(cache_path, key)
        findings = analyze_paths([root / "src"], root=root, cache=cache)
        assert cache.hits == 1 and cache.misses == 1
        assert findings == []

    def test_key_change_invalidates_wholesale(self, tmp_path):
        root = self.make_tree(tmp_path)
        cache_path = tmp_path / "cache.json"
        cache = SummaryCache(cache_path, cache_key(LintConfig(), None))
        analyze_paths([root / "src"], root=root, cache=cache)
        cache.save()

        other = SummaryCache(cache_path,
                             cache_key(LintConfig(), ["RL005"]))
        assert other.files == {}

    def test_deleted_file_pruned(self, tmp_path):
        root = self.make_tree(tmp_path)
        cache_path = tmp_path / "cache.json"
        key = cache_key(LintConfig(), None)
        cache = SummaryCache(cache_path, key)
        analyze_paths([root / "src"], root=root, cache=cache)
        cache.save()

        (root / "src" / "repro" / "analysis" / "clean.py").unlink()
        cache = SummaryCache(cache_path, key)
        analyze_paths([root / "src"], root=root, cache=cache)
        cache.save()
        reloaded = SummaryCache(cache_path, key)
        assert set(reloaded.files) == {"src/repro/analysis/dirty.py"}

    def test_cache_from_another_analyzer_ignored(self, tmp_path):
        # An analyzer whose RL005 finds nothing writes the cache; this
        # one must re-analyze instead of replaying its empty findings.
        root = self.make_tree(tmp_path)
        cache_path = tmp_path / "cache.json"
        older = tmp_path / "older"
        shutil.copytree(ROOT / "src" / "repro" / "lint", older / "lint",
                        ignore=shutil.ignore_patterns("__pycache__"))
        rules = older / "lint" / "rules.py"
        rules.write_text(rules.read_text() + OLDER_RL005)
        # Run the copy as ``repro.lint`` the way tools/run_lint.py does:
        # a bare ``repro`` stub whose __path__ is the copy's parent.
        subprocess.run(
            [sys.executable, "-c",
             "import sys, types; stub = types.ModuleType('repro'); "
             "stub.__path__ = [sys.argv[1]]; sys.modules['repro'] = stub; "
             "from repro.lint.cli import main; sys.exit(main(sys.argv[2:]))",
             str(older), "--root", str(root), "--cache", str(cache_path),
             str(root / "src")],
            check=True, capture_output=True, timeout=60)
        assert "src/repro/analysis/dirty.py" in \
            json.loads(cache_path.read_text())["files"]

        cache = SummaryCache(cache_path, cache_key(LintConfig(), None))
        findings = analyze_paths([root / "src"], root=root, cache=cache)
        assert cache.hits == 0
        assert codes(findings) == ["RL005", "RL005", "RL005"]

    def test_corrupt_cache_degrades_to_cold(self, tmp_path):
        root = self.make_tree(tmp_path)
        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{corrupt")
        cache = SummaryCache(cache_path, cache_key(LintConfig(), None))
        findings = analyze_paths([root / "src"], root=root, cache=cache)
        assert codes(findings) == ["RL005", "RL005", "RL005"]

    @pytest.mark.parametrize("payload", [
        "list", "string", "entries", "summary-list", "no-summary",
        "findings-string", "suppressions-int"])
    def test_cache_of_the_wrong_shape_degrades_to_cold(self, tmp_path,
                                                        payload):
        # Valid JSON that is not the cache's layout: a top level that is
        # not an object, a correctly keyed cache whose file entries are
        # not objects, or an entry keyed to the file's current SHA whose
        # body has the wrong shape.  The run matches a --no-cache run.
        root = self.make_tree(tmp_path)
        cache_path = tmp_path / "cache.json"
        common = ["--root", str(root), "--format", "json", str(root / "src")]
        run_cli(common + ["--cache", str(cache_path)])
        layout = json.loads(cache_path.read_text())
        dirty = layout["files"]["src/repro/analysis/dirty.py"]
        bad_entries = {
            "summary-list": {**dirty, "summary": []},
            "no-summary": {key: value for key, value in dirty.items()
                           if key != "summary"},
            "findings-string": {**dirty, "findings": "x"},
            "suppressions-int": {**dirty, "suppressions": [1]},
        }
        if payload in bad_entries:
            layout["files"]["src/repro/analysis/dirty.py"] = \
                bad_entries[payload]
        else:
            layout = {
                "list": [],
                "string": "x",
                "entries": {"key": cache_key(LintConfig(), None),
                            "files": {"src/repro/analysis/dirty.py": [],
                                      "src/repro/analysis/clean.py": "x"}},
            }[payload]
        cache_path.write_text(json.dumps(layout))
        cold_code, cold_out, _ = run_cli(common + ["--no-cache"])
        code, out, err = run_cli(common + ["--cache", str(cache_path)])
        assert (code, err) == (cold_code, "")
        assert json.loads(out) == json.loads(cold_out)
        assert json.loads(out)["summary"]["findings"] == 3
        # The run replaced the unusable cache with one a warm run hits.
        cache = SummaryCache(cache_path, cache_key(LintConfig(), None))
        analyze_paths([root / "src"], root=root, cache=cache)
        assert (cache.hits, cache.misses) == (2, 0)


# ----------------------------------------------------------------------
# Framework: suppressions, syntax errors, fingerprints
# ----------------------------------------------------------------------
class TestFramework:
    def test_suppression_without_reason_is_finding(self):
        source = "x = 1  # repro-lint: allow[RL005]\n"
        found = lint(source)
        assert codes(found) == [FRAMEWORK_CODE]
        assert "reason" in found[0].message

    def test_malformed_suppression_is_finding(self):
        source = "x = 1  # repro-lint: disable everything\n"
        assert codes(lint(source)) == [FRAMEWORK_CODE]

    def test_syntax_error_is_finding(self):
        assert codes(lint("def broken(:\n")) == [FRAMEWORK_CODE]

    def test_suppression_on_line_above(self):
        source = ("# repro-lint: allow[RL006] placeholder for a fixture\n"
                  "try:\n    g()\nexcept Exception:\n    pass\n")
        # The handler starts on the line after the comment... place it
        # directly above the except instead.
        source = ("try:\n    g()\n"
                  "# repro-lint: allow[RL006] fixture needs the swallow\n"
                  "except Exception:\n    pass\n")
        assert lint(source, select=["RL006", FRAMEWORK_CODE]) == []

    def test_fingerprint_survives_line_drift(self):
        before = lint(RL005_BAD, select=["RL005"])
        after = lint("\n\n# a new comment\n" + RL005_BAD, select=["RL005"])
        assert [f.fingerprint for f in before] == \
            [f.fingerprint for f in after]
        assert [f.line for f in before] != [f.line for f in after]

    def test_fingerprint_changes_with_line_edit(self):
        before = lint(RL005_BAD, select=["RL005"])
        edited = lint(RL005_BAD.replace("np.random.seed(0)",
                                        "np.random.seed(42)"),
                      select=["RL005"])
        assert before[1].fingerprint != edited[1].fingerprint

    def test_finding_dict_schema(self):
        finding = lint(RL005_BAD, select=["RL005"])[0]
        payload = finding.to_dict()
        assert set(payload) == {"rule", "path", "line", "col", "message",
                                "line_text", "qualname", "fingerprint"}

    def test_config_is_injectable(self):
        config = LintConfig(bounded_wait_scope=("src/repro/analysis/",))
        found = analyze_source(RL002_BAD, OTHER_REL, config=config,
                               select=["RL002"])
        assert codes(found) == ["RL002", "RL002"]


# ----------------------------------------------------------------------
# CLI driver
# ----------------------------------------------------------------------
def run_cli(args, tree=None):
    out, err = io.StringIO(), io.StringIO()
    code = lint_main(args, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestCli:
    @pytest.fixture
    def dirty_tree(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\n")
        pkg = tmp_path / "src" / "repro" / "analysis"
        pkg.mkdir(parents=True)
        (pkg / "dirty.py").write_text(RL005_BAD)
        return tmp_path

    def test_exit_1_on_new_error(self, dirty_tree):
        code, out, _ = run_cli(["--root", str(dirty_tree),
                                str(dirty_tree / "src")])
        assert code == 1
        assert "RL005" in out

    def test_exit_0_with_inline_suppression(self, dirty_tree):
        allow = "  # repro-lint: allow[RL005] fixture seeds its own run"
        source = RL005_BAD
        for call in ("random.shuffle([1, 2])", "np.random.seed(0)",
                     "np.random.normal(size=3)"):
            source = source.replace(call, call + allow)
        dirty = dirty_tree / "src" / "repro" / "analysis" / "dirty.py"
        dirty.write_text(source)
        code, out, _ = run_cli(["--root", str(dirty_tree),
                                str(dirty_tree / "src")])
        assert code == 0
        assert out.strip() == "repro-lint: 0 finding(s)"

    def test_json_output_schema(self, dirty_tree):
        code, out, _ = run_cli(["--root", str(dirty_tree),
                                "--format", "json",
                                str(dirty_tree / "src")])
        payload = json.loads(out)
        assert set(payload) == {"version", "findings", "summary"}
        assert payload["version"] == 2
        assert payload["summary"] == {"findings": 3, "exit_code": 1}
        assert code == 1
        assert [f["rule"] for f in payload["findings"]] == ["RL005"] * 3

    def test_exit_2_on_unknown_select(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\n")
        code, _, err = run_cli(["--root", str(tmp_path),
                                "--select", "RL998", str(tmp_path)])
        assert code == 2 and "RL998" in err

    def test_list_rules(self):
        code, out, _ = run_cli(["--list-rules"])
        assert code == 0
        for code_name in ("RL001", "RL007", "RL008", "RL009", "RL010",
                          "RL011"):
            assert code_name in out

    def test_sarif_output(self, dirty_tree):
        code, out, _ = run_cli(["--root", str(dirty_tree),
                                "--format", "sarif",
                                str(dirty_tree / "src")])
        assert code == 1
        payload = json.loads(out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"RL001", "RL008", "RL011"} <= rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "RL005"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == \
            "src/repro/analysis/dirty.py"
        assert location["region"]["startColumn"] >= 1
        assert result["partialFingerprints"]["reproLint/v1"]

    def test_graph_dump(self, dirty_tree):
        pkg = dirty_tree / "src" / "repro" / "analysis"
        (pkg / "locks.py").write_text(RL008_ORDERED_OK)
        code, out, _ = run_cli(["--root", str(dirty_tree), "--graph",
                                str(dirty_tree / "src")])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"modules", "functions", "call_edges",
                                "lock_edges", "lock_cycles"}
        outers = {edge["outer"] for edge in payload["lock_edges"]}
        assert any(outer.endswith("lock_a") for outer in outers)
        assert payload["lock_cycles"] == []

    def test_graph_dump_through_a_warm_cache(self, dirty_tree, monkeypatch):
        # --graph reads and summarises files like any run, cache included.
        pkg = dirty_tree / "src" / "repro" / "analysis"
        (pkg / "locks.py").write_text(RL008_ORDERED_OK)
        cache_path = dirty_tree / "cache.json"
        common = ["--root", str(dirty_tree), "--graph",
                  str(dirty_tree / "src")]
        uncached = run_cli(common + ["--no-cache"])
        cold = run_cli(common + ["--cache", str(cache_path)])
        assert cache_path.exists()

        def no_parse(*args):
            raise AssertionError("a warm --graph run parsed a file")

        monkeypatch.setattr(ast, "parse", no_parse)
        warm = run_cli(common + ["--cache", str(cache_path)])
        assert uncached[0] == 0
        assert uncached == cold == warm

    def test_max_seconds_gate(self, dirty_tree):
        code, _, err = run_cli(["--root", str(dirty_tree),
                                "--max-seconds", "0", "--no-cache",
                                str(dirty_tree / "src" / "repro" /
                                    "analysis" / "dirty.py")])
        assert code == 1 and "--max-seconds" in err
        # A clean file over budget: the report states the real exit code.
        clean = dirty_tree / "src" / "repro" / "analysis" / "clean.py"
        clean.write_text("x = 1\n")
        code, out, _ = run_cli(["--root", str(dirty_tree), "--format",
                                "json", "--max-seconds", "0", "--no-cache",
                                str(clean)])
        assert json.loads(out)["summary"] == {"findings": 0, "exit_code": 1}
        assert code == 1

    def test_default_cache_written_and_reused(self, dirty_tree):
        run_cli(["--root", str(dirty_tree), str(dirty_tree / "src")])
        cache_path = dirty_tree / "tools" / ".lint_cache.json"
        assert cache_path.exists()
        payload = json.loads(cache_path.read_text())
        assert "src/repro/analysis/dirty.py" in payload["files"]

    def test_no_cache_skips_the_file(self, dirty_tree):
        run_cli(["--root", str(dirty_tree), "--no-cache",
                 str(dirty_tree / "src")])
        assert not (dirty_tree / "tools" / ".lint_cache.json").exists()


# ----------------------------------------------------------------------
# Meta: the live tree is clean
# ----------------------------------------------------------------------
class TestLiveTree:
    def test_src_repro_clean(self):
        findings = analyze_paths([ROOT / "src" / "repro"], root=ROOT)
        rendered = "\n".join(f.render() for f in findings)
        assert not findings, f"repro-lint findings:\n{rendered}"

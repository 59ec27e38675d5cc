"""Tests for the TCP socket frontend: tenancy, admission, drain, loadgen.

Extends the fault-injection patterns of ``test_serving_resilience.py``
to the network layer.  The regression class under guard here: a burst of
clients beyond quota — or a wedged encoder underneath — must produce
*structured rejections in milliseconds*, never a hung socket; and
SIGTERM must drain in bounded time.  Every socket test runs under the
hard ``@pytest.mark.timeout`` watchdog from tests/conftest.py.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.netserve import (
    AdmissionConfig,
    AdmissionController,
    AdmissionRejected,
    NetServeConfig,
    TeleServer,
    TenantRegistry,
    TenantSpec,
    TokenBucket,
)
from repro.netserve import protocol
from repro.netserve.server import MAX_REQUEST_BYTES
from repro.serving import (
    Deadline,
    DeadlineExceeded,
    FaultAnalysisService,
    FlushTimeout,
    MetricsRegistry,
    ServiceConfig,
    ServingError,
)
from repro.service import RandomProvider


def _tight_config(**overrides):
    defaults = dict(max_batch_size=8, max_wait_ms=2, timeout_s=0.3,
                    max_retries=1, backoff_s=0.01, close_timeout_s=5.0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _poll(predicate, timeout=5.0, interval=0.01) -> bool:
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class HangingProvider(RandomProvider):
    """Every encode blocks until :meth:`release` — a wedged encoder."""

    label = "Hanging"

    def __init__(self, dim=8):
        super().__init__(dim=dim, seed=0)
        self._release = threading.Event()
        self._lock = threading.Lock()
        self.started = 0

    def release(self) -> None:
        self._release.set()

    def encode_names(self, names):
        with self._lock:
            self.started += 1
        self._release.wait()
        return super().encode_names(names)


class _Client:
    """Line-framed test client; every op has a bounded socket timeout."""

    def __init__(self, address, timeout=5.0):
        self.sock = socket.create_connection(address, timeout=timeout)
        self._buffer = b""

    def send_line(self, text: str) -> None:
        self.sock.sendall(text.encode() + b"\n")

    def read(self) -> dict:
        while b"\n" not in self._buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        raw, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(raw)

    def request(self, payload: dict) -> dict:
        self.send_line(json.dumps(payload))
        return self.read()

    def close(self) -> None:
        self.sock.close()


@pytest.fixture
def server_factory():
    """Build (service, server, address) stacks; tears all of them down."""
    stacks = []

    def build(provider=None, tenants=None, admission=None, config=None,
              service_config=None, index=None):
        service = FaultAnalysisService(
            provider or RandomProvider(dim=8, seed=0),
            config=service_config or _tight_config(),
            index=index)
        server = TeleServer(
            service,
            tenants or TenantRegistry.single("k-test"),
            admission=admission,
            config=config or NetServeConfig(close_timeout_s=2.0))
        address = server.start()
        stacks.append((service, server))
        return service, server, address

    yield build
    for service, server in stacks:
        server.close(timeout_s=1.0)
        service.close()


# ----------------------------------------------------------------------
# Token bucket / tenant registry
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill_timing(self):
        clock = [100.0]
        bucket = TokenBucket(rate_per_s=10.0, burst=2,
                             clock=lambda: clock[0])
        assert bucket.try_acquire() == (True, 0.0)
        assert bucket.try_acquire() == (True, 0.0)
        granted, retry = bucket.try_acquire()
        assert not granted
        assert retry == pytest.approx(0.1)
        clock[0] += 0.05                      # half a token accrued
        granted, retry = bucket.try_acquire()
        assert not granted
        assert retry == pytest.approx(0.05)
        clock[0] += 0.05
        assert bucket.try_acquire() == (True, 0.0)

    def test_refill_caps_at_burst(self):
        clock = [0.0]
        bucket = TokenBucket(rate_per_s=100.0, burst=3,
                             clock=lambda: clock[0])
        clock[0] += 60.0
        assert bucket.available() == pytest.approx(3.0)

    def test_zero_rate_is_unlimited(self):
        bucket = TokenBucket(rate_per_s=0.0)
        for _ in range(1000):
            assert bucket.try_acquire() == (True, 0.0)
        assert bucket.available() == float("inf")

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=-1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=1.0, burst=0)


class TestTenantRegistry:
    def test_from_json_and_authenticate(self):
        registry = TenantRegistry.from_json({"tenants": [
            {"name": "a", "api_key": "ka", "rate_per_s": 5, "burst": 2},
            {"name": "b", "api_key": "kb", "max_concurrency": 3},
        ]})
        assert registry.authenticate("ka").name == "a"
        assert registry.authenticate("kb").spec.max_concurrency == 3
        assert registry.authenticate("nope") is None
        assert registry.authenticate(None) is None
        assert registry.authenticate(42) is None

    def test_duplicate_keys_and_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate api_key"):
            TenantRegistry([TenantSpec(name="a", api_key="k"),
                            TenantSpec(name="b", api_key="k")])
        with pytest.raises(ValueError, match="duplicate tenant name"):
            TenantRegistry([TenantSpec(name="a", api_key="k1"),
                            TenantSpec(name="a", api_key="k2")])

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown tenant field"):
            TenantRegistry.from_json({"tenants": [
                {"name": "a", "api_key": "k", "rate": 5}]})

    def test_from_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({"tenants": [
            {"name": "t", "api_key": "k", "rate_per_s": 1.5}]}))
        registry = TenantRegistry.from_file(path)
        assert registry.authenticate("k").spec.rate_per_s == 1.5


# ----------------------------------------------------------------------
# Admission controller (no sockets)
# ----------------------------------------------------------------------
class TestAdmissionController:
    def _tenant(self, **overrides):
        spec = dict(name="t", api_key="k")
        spec.update(overrides)
        return TenantRegistry([TenantSpec(**spec)]).authenticate("k")

    def test_deadline_headroom_gate(self):
        controller = AdmissionController()    # MIN_HEADROOM_S = 0.01
        tenant = self._tenant()
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit(tenant, Deadline.after(0.001))
        assert excinfo.value.code == "deadline"
        with controller.admit(tenant, Deadline.after(1.0)):
            pass

    def test_queue_depth_gate(self):
        depth = [0]
        controller = AdmissionController(
            AdmissionConfig(max_queue_depth=4),
            queue_depth_fn=lambda: depth[0])
        tenant = self._tenant()
        depth[0] = 4
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit(tenant)
        assert excinfo.value.code == "queue_full"
        assert excinfo.value.retry_after_s > 0
        depth[0] = 3
        controller.admit(tenant).release()

    def test_global_inflight_gate_and_release(self):
        controller = AdmissionController(AdmissionConfig(max_inflight=2))
        tenant = self._tenant()
        first = controller.admit(tenant)
        second = controller.admit(tenant)
        assert controller.inflight() == 2
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit(tenant)
        assert excinfo.value.code == "overload"
        first.release()
        first.release()                     # idempotent
        assert controller.inflight() == 1
        with controller.admit(tenant):
            pass
        second.release()
        assert controller.inflight() == 0

    def test_tenant_concurrency_gate_releases_global_slot(self):
        controller = AdmissionController(AdmissionConfig(max_inflight=8))
        tenant = self._tenant(max_concurrency=1)
        held = controller.admit(tenant)
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit(tenant)
        assert excinfo.value.code == "concurrency"
        # the rejected request returned its global slot
        assert controller.inflight() == 1
        held.release()

    def test_rejection_never_burns_a_rate_token(self):
        controller = AdmissionController(AdmissionConfig(max_inflight=1))
        clock = [0.0]
        tenant = TenantRegistry(
            [TenantSpec(name="t", api_key="k", rate_per_s=1.0, burst=1)],
            clock=lambda: clock[0]).authenticate("k")
        held = controller.admit(tenant)
        tokens_before = tenant.bucket.available()
        with pytest.raises(AdmissionRejected):
            controller.admit(tenant)        # overload, not rate_limit
        assert tenant.bucket.available() == tokens_before
        held.release()

    def test_rate_limit_gate_reports_refill_time(self):
        controller = AdmissionController()
        clock = [0.0]
        tenant = TenantRegistry(
            [TenantSpec(name="t", api_key="k", rate_per_s=10.0, burst=1)],
            clock=lambda: clock[0]).authenticate("k")
        controller.admit(tenant).release()
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit(tenant)
        assert excinfo.value.code == "rate_limit"
        assert excinfo.value.retry_after_s == pytest.approx(0.1)
        # the rate-limited request also returned its concurrency claim
        assert tenant.inflight == 0
        clock[0] += 0.1
        controller.admit(tenant).release()


# ----------------------------------------------------------------------
# Socket server end-to-end
# ----------------------------------------------------------------------
@pytest.mark.timeout(30)
class TestTeleServer:
    def test_roundtrip_auth_and_protocol_errors(self, server_factory):
        _, _, address = server_factory()
        client = _Client(address)
        try:
            assert client.request({"op": "ping"}) == {"ok": True,
                                                      "op": "ping"}
            good = client.request({"op": "embed", "names": ["a", "b"],
                                   "api_key": "k-test", "id": "req-1"})
            assert good["ok"] and len(good["embeddings"]) == 2
            assert good["id"] == "req-1"

            bad_key = client.request({"op": "embed", "names": ["a"],
                                      "api_key": "wrong"})
            assert not bad_key["ok"] and bad_key["code"] == "auth"

            client.send_line("this is not json")
            garbled = client.read()
            assert not garbled["ok"]
            assert garbled["code"] == "bad_request"

            # the connection survived the protocol error
            assert client.request({"op": "ping"})["ok"]

            unknown = client.request({"op": "nope", "api_key": "k-test"})
            assert unknown["code"] == "bad_request"
            missing = client.request({"op": "embed", "api_key": "k-test"})
            assert missing["code"] == "bad_request"
        finally:
            client.close()

    def test_oversized_request_line_is_refused(self, server_factory):
        _, _, address = server_factory()
        client = _Client(address)
        try:
            # One byte past the bound, no newline: the server reads all of
            # it, answers once and closes the unframeable connection.
            client.sock.sendall(b"x" * (MAX_REQUEST_BYTES + 1))
            refused = client.read()
            assert not refused["ok"] and refused["code"] == "bad_request"
            assert f"exceeds {MAX_REQUEST_BYTES} bytes" in refused["error"]
            with pytest.raises(ConnectionError):
                client.read()
        finally:
            client.close()

    def test_concurrency_quota_burst_rejects_never_hangs(
            self, server_factory):
        provider = HangingProvider(dim=8)
        tenants = TenantRegistry([TenantSpec(
            name="t", api_key="k", max_concurrency=2)])
        _, _, address = server_factory(provider=provider, tenants=tenants)

        results = []
        results_lock = threading.Lock()

        def worker(index):
            client = _Client(address, timeout=10.0)
            try:
                response = client.request(
                    {"op": "embed", "names": [f"burst-{index}"],
                     "api_key": "k"})
                with results_lock:
                    results.append(response)
            finally:
                client.close()

        threads = [threading.Thread(target=worker, args=(i,), daemon=True)
                   for i in range(8)]
        for thread in threads:
            thread.start()
        # over-quota requests answer immediately; quota-holders park on
        # the wedged provider until released
        assert _poll(lambda: len(results) >= 6, timeout=5.0)
        provider.release()
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(results) == 8
        rejected = [r for r in results if not r["ok"]]
        assert rejected and all(r["code"] == "concurrency"
                                for r in rejected)
        assert all(r["retry_after_s"] > 0 for r in rejected)
        assert sum(1 for r in results if r["ok"]) >= 2

    def test_rate_limit_refills_after_retry_after(self, server_factory):
        tenants = TenantRegistry([TenantSpec(
            name="t", api_key="k", rate_per_s=50.0, burst=2)])
        _, _, address = server_factory(tenants=tenants)
        client = _Client(address)
        try:
            responses = [client.request({"op": "embed", "names": ["x"],
                                         "api_key": "k"})
                         for _ in range(4)]
            rejected = [r for r in responses if not r["ok"]]
            assert rejected and all(r["code"] == "rate_limit"
                                    for r in rejected)
            retry_after = rejected[-1]["retry_after_s"]
            assert 0 < retry_after <= 0.1
            time.sleep(retry_after + 0.02)
            assert client.request({"op": "embed", "names": ["x"],
                                   "api_key": "k"})["ok"]
        finally:
            client.close()

    def test_per_tenant_isolation(self, server_factory):
        tenants = TenantRegistry([
            TenantSpec(name="greedy", api_key="kg", rate_per_s=10.0,
                       burst=1),
            TenantSpec(name="patient", api_key="kp"),
        ])
        _, _, address = server_factory(tenants=tenants)
        client = _Client(address)
        try:
            greedy = [client.request({"op": "embed", "names": ["g"],
                                      "api_key": "kg"})
                      for _ in range(5)]
            patient = [client.request({"op": "embed", "names": ["p"],
                                       "api_key": "kp"})
                       for _ in range(5)]
            assert any(not r["ok"] for r in greedy)
            assert all(r["ok"] for r in patient), \
                "one tenant's flood must not starve another"
        finally:
            client.close()

    def test_wedged_provider_sheds_load_fast(self, server_factory):
        provider = HangingProvider(dim=8)
        admission_metrics = MetricsRegistry()
        admission = AdmissionController(
            AdmissionConfig(max_inflight=2),
            metrics=admission_metrics)
        service, _, address = server_factory(provider=provider,
                                             admission=admission)
        fillers = [_Client(address, timeout=10.0) for _ in range(2)]
        try:
            for index, filler in enumerate(fillers):
                filler.send_line(json.dumps(
                    {"op": "embed", "names": [f"wedge-{index}"],
                     "api_key": "k-test"}))
            assert _poll(lambda: admission.inflight() == 2, timeout=5.0)

            # the frontend keeps answering while the batcher is stuck:
            # over-admission rejections round-trip within 100ms
            client = _Client(address)
            try:
                for _ in range(5):
                    started = time.perf_counter()
                    response = client.request(
                        {"op": "embed", "names": ["shed"],
                         "api_key": "k-test"})
                    elapsed = time.perf_counter() - started
                    assert not response["ok"]
                    assert response["code"] == "overload"
                    assert response["retry_after_s"] > 0
                    assert elapsed < 0.1, \
                        f"rejection took {elapsed * 1e3:.1f}ms"
                assert client.request({"op": "ping"})["ok"]
            finally:
                client.close()
            counters = admission_metrics.snapshot()["counters"]
            assert counters["netserve.rejections.overload"] == 5
        finally:
            provider.release()
            for filler in fillers:
                filler.close()

    def test_deadline_ms_propagates(self, server_factory):
        provider = HangingProvider(dim=8)
        _, _, address = server_factory(
            provider=provider,
            service_config=_tight_config(timeout_s=5.0, max_retries=2))
        client = _Client(address, timeout=10.0)
        try:
            # below admission headroom: structured rejection, not a wait
            tiny = client.request({"op": "embed", "names": ["a"],
                                   "api_key": "k-test", "deadline_ms": 1})
            assert tiny["code"] == "deadline"

            # admitted, but the 300ms request deadline caps the service
            # budget (5s/attempt x 3 attempts configured)
            started = time.perf_counter()
            response = client.request(
                {"op": "embed", "names": ["a"], "api_key": "k-test",
                 "deadline_ms": 300})
            elapsed = time.perf_counter() - started
            assert not response["ok"]
            assert response["code"] == "unavailable"
            assert elapsed < 2.0, \
                f"deadline did not cap the budget ({elapsed:.2f}s)"

            bad = client.request({"op": "embed", "names": ["a"],
                                  "api_key": "k-test",
                                  "deadline_ms": "soon"})
            assert bad["code"] == "bad_request"
        finally:
            provider.release()
            client.close()

    def test_drain_waits_for_inflight_and_refuses_new(
            self, server_factory):
        provider = HangingProvider(dim=8)
        _, server, address = server_factory(
            provider=provider,
            service_config=_tight_config(timeout_s=5.0, max_retries=0))
        parked = _Client(address, timeout=10.0)
        try:
            parked.send_line(json.dumps({"op": "embed", "names": ["slow"],
                                         "api_key": "k-test"}))
            assert _poll(lambda: server.admission.inflight() == 1,
                         timeout=5.0)
            assert server.drain(timeout_s=0.2) is False, \
                "drain must report the in-flight request"
            assert server.draining
            provider.release()
            assert server.drain(timeout_s=5.0) is True
            # the parked request still got its answer during the drain
            assert parked.read()["ok"]
            # new connections are no longer accepted
            with pytest.raises(OSError):
                socket.create_connection(address, timeout=0.5)
        finally:
            provider.release()
            parked.close()

    def test_stats_snapshot(self, server_factory):
        _, server, address = server_factory()
        client = _Client(address)
        try:
            client.request({"op": "embed", "names": ["a"],
                            "api_key": "k-test"})
        finally:
            client.close()
        stats = server.stats()
        assert stats["requests"] >= 1
        assert stats["inflight"] == 0
        assert stats["tenants"][0]["admitted"] == 1


# ----------------------------------------------------------------------
# knn/retrieve over the socket: quotas, deadlines, structured errors
# ----------------------------------------------------------------------
def _indexed_stack(tmp_path, server_factory, **kwargs):
    """Server whose service answers knn from a pre-built index.

    The SAME provider instance feeds both the index build and the
    service: RandomProvider draws vectors sequentially from its seeded
    rng, so a second instance would assign different vectors to the
    same names.
    """
    from repro.index import VectorIndex

    provider = RandomProvider(dim=8, seed=0)
    catalog = [f"alarm-{i}" for i in range(32)]
    vectors = provider.encode_names(catalog)
    index = VectorIndex(tmp_path / "knn-index", fingerprint="unversioned")
    index.build({name: vectors[i] for i, name in enumerate(catalog)})
    return server_factory(provider=provider, index=index, **kwargs)


class TestKnnOp:
    def test_knn_roundtrip_and_retrieve_alias(self, tmp_path,
                                              server_factory):
        service, _, address = _indexed_stack(tmp_path, server_factory)
        client = _Client(address)
        try:
            response = client.request(
                {"op": "knn", "names": ["alarm-3"], "k": 3,
                 "api_key": "k-test"})
            assert response["ok"] and response["op"] == "knn"
            [hits] = response["neighbours"]
            assert len(hits) == 3
            assert hits[0]["name"] == "alarm-3"    # self-hit first
            assert hits[0]["score"] == pytest.approx(1.0, abs=1e-4)
            alias = client.request(
                {"op": "retrieve", "names": ["alarm-3"], "k": 3,
                 "api_key": "k-test"})
            assert alias["ok"] and alias["op"] == "retrieve"
            assert alias["neighbours"] == response["neighbours"]
        finally:
            client.close()
        assert service.stats()["index"]["counters"]["queries"] >= 2

    @pytest.mark.parametrize("payload", [
        {"op": "knn", "api_key": "k-test"},                  # no names
        {"op": "knn", "names": [], "api_key": "k-test"},     # empty
        {"op": "knn", "names": [7], "api_key": "k-test"},    # non-string
        {"op": "knn", "names": ["a"], "k": 0, "api_key": "k-test"},
        {"op": "knn", "names": ["a"], "nprobe": 0, "api_key": "k-test"},
        # Counts are JSON integers: these used to reach int() and come
        # back as ``internal`` (TypeError) or be truncated to 1 or 2.
        *({"op": "knn", "names": ["a"], field: value, "api_key": "k-test"}
          for field in ("k", "nprobe")
          for value in (None, True, 2.7, "3", [3], {"n": 3})),
    ])
    def test_bad_knn_requests_get_bad_request_code(self, tmp_path,
                                                   server_factory,
                                                   payload):
        _, _, address = _indexed_stack(tmp_path, server_factory)
        client = _Client(address)
        try:
            response = client.request(payload)
            assert response["ok"] is False
            assert response["code"] == "bad_request"
        finally:
            client.close()

    def test_knn_without_index_is_a_clean_error(self, server_factory):
        _, _, address = server_factory()    # no index configured
        client = _Client(address)
        try:
            response = client.request(
                {"op": "knn", "names": ["a"], "api_key": "k-test"})
            assert response["ok"] is False
            assert "no vector index" in response["error"]
        finally:
            client.close()

    def test_knn_deadline_rejection_is_structured(self, tmp_path,
                                                  server_factory):
        _, _, address = _indexed_stack(tmp_path, server_factory)
        client = _Client(address)
        try:
            response = client.request(
                {"op": "knn", "names": ["alarm-1"], "deadline_ms": 1,
                 "api_key": "k-test", "id": "dl-1"})
            assert response["ok"] is False
            assert response["code"] == "deadline"
            assert response["id"] == "dl-1"
        finally:
            client.close()

    def test_knn_tenant_rate_quota_sheds_with_retry_after(self, tmp_path,
                                                          server_factory):
        tenants = TenantRegistry([TenantSpec(
            name="t", api_key="k", rate_per_s=1.0, burst=1)])
        _, _, address = _indexed_stack(tmp_path, server_factory,
                                       tenants=tenants)
        client = _Client(address)
        try:
            first = client.request({"op": "knn", "names": ["alarm-0"],
                                    "api_key": "k"})
            assert first["ok"]
            shed = client.request({"op": "knn", "names": ["alarm-0"],
                                   "api_key": "k"})
            assert shed["ok"] is False
            assert shed["code"] == "rate_limit"
            assert shed["retry_after_s"] > 0
        finally:
            client.close()


# ----------------------------------------------------------------------
# Graceful SIGTERM drain through the real CLI process
# ----------------------------------------------------------------------
@pytest.mark.timeout(120)
def test_serve_net_cli_sigterm_drains_cleanly(tmp_path):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve-net", "--port", "0",
         "--api-key", "k-cli", "--timeout", "2", "--retries", "0",
         "--close-timeout", "2"],
        stderr=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(
                 filter(None, ["src", os.environ.get("PYTHONPATH")]))},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    try:
        line = process.stderr.readline()
        assert "netserve listening on " in line, line
        host, _, port = line.rsplit(" ", 1)[-1].strip().partition(":")
        client = _Client((host, int(port)), timeout=10.0)
        try:
            assert client.request({"op": "ping"})["ok"]
            assert client.request({"op": "embed", "names": ["cli"],
                                   "api_key": "k-cli"})["ok"]
        finally:
            client.close()
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
        assert "netserve draining" in process.stderr.read()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


# ----------------------------------------------------------------------
# Failure classification and the error envelope
# ----------------------------------------------------------------------
class TestSharedDispatchCore:
    @pytest.mark.timeout(30)
    def test_outage_is_not_a_bad_request(self, server_factory):
        class DownProvider(RandomProvider):
            def encode_names(self, names):
                raise RuntimeError("encoder down")

        service, _, address = server_factory(
            provider=DownProvider(dim=4, seed=0))
        client = _Client(address)
        try:
            outage = client.request({"op": "embed", "names": ["x"],
                                     "api_key": "k-test"})
            unknown = client.request({"op": "nope", "api_key": "k-test"})
        finally:
            client.close()
        assert outage["code"] == "unavailable"
        assert "ServingError" in outage["error"]
        assert outage["retry_after_s"] > 0
        assert unknown["code"] == "bad_request"
        assert "retry_after_s" not in unknown
        # serving.bad_requests counts only the unknown op
        assert service.metrics.counter("serving.bad_requests").value == 1
        bad = [e for e in service.metrics.events
               if e["kind"] == "bad_request"]
        assert len(bad) == 1 and "unknown op" in bad[0]["error"]

    def test_failure_codes(self):
        metrics = MetricsRegistry()
        assert protocol.failure_code(metrics, ValueError("x")) == \
            protocol.CODE_BAD_REQUEST
        for error in (DeadlineExceeded("x"), FlushTimeout("x"),
                      ServingError("x")):
            assert protocol.failure_code(metrics, error) == \
                protocol.CODE_UNAVAILABLE
        assert protocol.failure_code(metrics, KeyError("x")) == \
            protocol.CODE_INTERNAL
        assert [e["kind"] for e in metrics.events] == \
            ["bad_request", "internal_error"]

    def test_error_envelope_shapes(self):
        bare = protocol.error_envelope(ValueError("x"), code="bad_request")
        assert bare == {"ok": False, "error": "ValueError('x')",
                        "code": "bad_request"}
        with pytest.raises(TypeError):
            protocol.error_envelope(ValueError("x"))    # code is required
        rich = protocol.error_envelope(
            "busy", code="overload", request_id=3, retry_after_s=0.125)
        assert rich == {"ok": False, "error": "busy", "code": "overload",
                        "retry_after_s": 0.125, "id": 3}


# ----------------------------------------------------------------------
# One-pass reply rounding equals Python's round(float(x), 6)
# ----------------------------------------------------------------------
def _python_rounded(matrix):
    return [[round(float(x), 6) for x in row] for row in matrix]


def _hex(rows):
    """Exact spelling of nested floats: tells -0.0 from 0.0."""
    return [[float.hex(x) for x in row] for row in rows]


@st.composite
def _near_ties(draw):
    """``(k + 0.5) / 1e6`` moved by a few ulps, within +-1e3."""
    k = draw(st.integers(-10**9, 10**9 - 1))
    x = (k + 0.5) / 1e6
    for _ in range(draw(st.integers(0, 4))):
        x = float(np.nextafter(x, draw(st.sampled_from([-np.inf, np.inf]))))
    return x


_elements = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e3, 1e3),
    _near_ties(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]),
    st.floats(1e3, 1e12) | st.floats(-1e12, -1e3),
)
_matrices = arrays(np.float64, st.tuples(st.integers(1, 6),
                                         st.integers(1, 8)),
                   elements=_elements)


class _FixedEmbedService:
    """Answers every embed with one fixed matrix."""

    def __init__(self, matrix):
        self.matrix = matrix

    def embed(self, names, deadline=None):
        return self.matrix


class TestRoundRows:
    @settings(max_examples=300, deadline=None)
    @given(_matrices)
    def test_equals_python_round(self, matrix):
        rows = protocol.round_rows(matrix)
        assert _hex(rows) == _hex(_python_rounded(matrix))
        assert all(type(x) is float for row in rows for x in row)

    @settings(max_examples=100, deadline=None)
    @given(_matrices)
    def test_embed_envelope_bytes_unchanged(self, matrix):
        names = [f"n{i}" for i in range(len(matrix))]
        response = protocol.handle_request(
            _FixedEmbedService(matrix), {"op": "embed", "names": names})
        legacy = {"ok": True, "op": "embed",
                  "embeddings": _python_rounded(matrix)}
        assert json.dumps(response) == json.dumps(legacy)

    def test_exact_ties_and_non_finite(self):
        matrix = np.array([[0.0078125, -0.0078125, 2.5e-6, -2.5e-6],
                           [np.nan, np.inf, -np.inf, 1e-7],
                           [999.9999995, -999.9999995, 1e3, 1e3 + 1e-7]])
        assert json.dumps(protocol.round_rows(matrix)) == \
            json.dumps(_python_rounded(matrix))

    def test_float32_rows_round_as_doubles(self):
        matrix = np.random.default_rng(0).standard_normal(
            (4, 32)).astype(np.float32)
        assert _hex(protocol.round_rows(matrix)) == \
            _hex(_python_rounded(matrix))


# ----------------------------------------------------------------------
# CLI flag validation
# ----------------------------------------------------------------------
class TestServeFlagValidation:
    @pytest.mark.parametrize("flags", [
        ["serve-net", "--close-timeout", "0"],
        ["serve-net", "--timeout", "nope"],
        ["serve-net", "--max-inflight", "0"],
        # deleted flags: unknown options, whatever their value
        ["serve-net", "--backoff", "0.05"],
        ["serve-net", "--flush-timeout", "1.5"],
        ["serve-net", "--min-headroom", "0.01"],
        ["serve-net", "--retry-after", "0.1"],
        ["serve-net", "--default-deadline", "30"],
        ["loadgen", "--port", "1", "--bursty"],
        ["loadgen", "--port", "1", "--burst-factor", "4"],
        ["loadgen", "--port", "1", "--duration", "0"],
        ["loadgen", "--port", "0"],
        ["loadgen", "--port", "1", "--sweep", "50,abc"],
        ["loadgen", "--port", "1", "--sweep", "0"],
        ["loadgen", "--port", "1", "--sweep", ","],
        ["loadgen", "--port", "1", "--mix", "embed=-1"],
        ["loadgen", "--port", "1", "--mix", "embed=x"],
        ["loadgen", "--port", "1", "--mix", "nope=1"],
        ["loadgen", "--port", "1", "--mix", ""],
    ])
    def test_invalid_serve_family_flags_rejected(self, flags):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(flags)
        assert excinfo.value.code == 2

    def test_loadgen_parses_mix_and_sweep(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["loadgen", "--port", "1", "--mix", "embed=3,fct=1",
             "--sweep", "50, 100,"])
        assert args.mix == {"embed": 0.75, "fct": 0.25}
        assert args.sweep == [50.0, 100.0]
        defaults = build_parser().parse_args(["loadgen", "--port", "1"])
        assert (defaults.mix, defaults.sweep) == ({"embed": 1.0}, None)

    def test_serve_is_an_unknown_command(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--dim", "4"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'serve'" in capsys.readouterr().err

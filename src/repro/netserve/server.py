"""Threaded TCP socket frontend over :class:`FaultAnalysisService`.

This is the service's one frontend: ``python -m repro serve-net`` runs
it, and ``repro loadgen``, the smoke targets and the benchmark drive it.

Transport: newline-delimited JSON over TCP, the request language of
:mod:`repro.netserve.protocol`, plus three fields on every request:

``api_key``
    Tenant credential, resolved through :class:`TenantRegistry`.
    Required on every op except ``ping`` (health probes stay
    credential-free).
``deadline_ms``
    Client-declared budget for this request; the server turns it into a
    :class:`~repro.serving.deadline.Deadline` at receipt and propagates
    it through admission and every service wait underneath.  Defaults to
    :data:`DEFAULT_DEADLINE_S`.
``id``
    Opaque correlation value echoed back on the response line.

Each accepted connection is served by one daemon thread
(``socketserver.ThreadingTCPServer``) that loops: read a line,
authenticate, pass admission control, dispatch with the propagated
deadline, answer — or answer a structured rejection
(``retry_after_s``-carrying envelope) without ever touching the
provider.  Because admission rejects instead of queueing, the server
keeps answering within milliseconds even while the encoder underneath
is wedged.

Graceful drain: :meth:`TeleServer.drain` (wired to SIGTERM by the
``serve-net`` CLI) stops the accept loop, answers any late request on
open connections with the ``draining`` envelope, and waits — bounded by
``close_timeout_s`` — for admitted requests to finish.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import threading
import time
from dataclasses import dataclass

from repro.netserve import protocol
from repro.netserve.admission import (
    RETRY_AFTER_S,
    AdmissionController,
    AdmissionRejected,
)
from repro.netserve.tenants import TenantRegistry
from repro.serving import metric_names as mn
from repro.serving.deadline import Deadline
from repro.serving.metrics import MetricsRegistry
from repro.serving.service import FaultAnalysisService

#: How often a blocked socket read wakes to re-check the draining flag.
_READ_POLL_S = 0.25
#: Drain-wait poll interval while waiting for inflight to hit zero.
_DRAIN_POLL_S = 0.02
#: Request lines longer than this are refused (framing safety valve).
MAX_REQUEST_BYTES = 1_000_000
#: Listen backlog for connection bursts.
REQUEST_QUEUE_SIZE = 128
#: Budget of a request that sends no ``deadline_ms`` (seconds).
DEFAULT_DEADLINE_S = 30.0


@dataclass
class NetServeConfig:
    """Operational knobs for :class:`TeleServer`."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (reported by :meth:`TeleServer.start`)
    port: int = 0
    #: bound on :meth:`TeleServer.drain`: in-flight requests get this
    #: long to finish after the accept loop stops
    close_timeout_s: float = 5.0

    def __post_init__(self):
        if self.close_timeout_s <= 0:
            raise ValueError("close_timeout_s must be positive")


class _LineReader:
    """Buffered newline framing over a socket with bounded reads.

    ``readline`` returns one decoded line (``""`` for a blank one) or
    ``None`` on a poll timeout (caller re-checks the draining flag), and
    raises ``EOFError`` at EOF.  The buffer is owned by this reader — a
    poll timeout never loses partial input, which a ``makefile()``-based
    reader could not guarantee.
    """

    def __init__(self, sock: socket.socket, max_bytes: int):
        self._sock = sock
        self._max_bytes = max_bytes
        self._buffer = bytearray()

    def readline(self) -> str | None:
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                raw = bytes(self._buffer[:newline])
                del self._buffer[:newline + 1]
                return raw.decode("utf-8", errors="replace")
            if len(self._buffer) > self._max_bytes:
                raise ValueError(
                    f"request line exceeds {self._max_bytes} bytes")
            try:
                chunk = self._sock.recv(65536)
            except TimeoutError:
                return None
            if not chunk:
                # EOF: a trailing unterminated line is not a request.
                raise EOFError
            self._buffer.extend(chunk)


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True          # a wedged handler cannot block exit
    allow_reuse_address = True
    request_queue_size = REQUEST_QUEUE_SIZE
    block_on_close = False         # server_close never joins handlers

    owner: "TeleServer"


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):  # pragma: no cover — thin trampoline
        self.server.owner.handle_connection(self.request)


class TeleServer:
    """Multi-client NDJSON-over-TCP frontend with tenancy + admission."""

    def __init__(self, service: "FaultAnalysisService",
                 tenants: TenantRegistry,
                 admission: AdmissionController | None = None,
                 config: NetServeConfig | None = None,
                 metrics: MetricsRegistry | None = None):
        self.service = service
        self.tenants = tenants
        self.config = config or NetServeConfig()
        self.metrics = metrics or service.metrics
        self.admission = admission or AdmissionController(
            metrics=self.metrics,
            queue_depth_fn=lambda: service.batcher.stats()["pending"])
        self._tcp: _ThreadingTCPServer | None = None
        self._accept_thread: threading.Thread | None = None
        self._draining = threading.Event()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind, start the accept loop; returns the bound ``(host, port)``."""
        if self._tcp is not None:
            raise RuntimeError("server already started")
        self._tcp = _ThreadingTCPServer(
            (self.config.host, self.config.port), _Handler,
            bind_and_activate=False)
        self._tcp.owner = self
        try:
            self._tcp.server_bind()
            self._tcp.server_activate()
        except BaseException:
            self._tcp.server_close()
            self._tcp = None
            raise
        self._accept_thread = threading.Thread(
            target=self._tcp.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-netserve-accept", daemon=True)
        self._accept_thread.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ephemeral port 0)."""
        if self._tcp is None:
            raise RuntimeError("server not started")
        host, port = self._tcp.server_address[:2]
        return host, port

    @property
    def draining(self) -> bool:
        """Whether :meth:`drain` has been initiated."""
        return self._draining.is_set()

    def drain(self, timeout_s: float | None = None) -> bool:
        """Graceful shutdown: stop accepting, let in-flight work finish.

        Returns True when every admitted request completed within
        ``timeout_s`` (default ``config.close_timeout_s``).  Idempotent;
        late requests on still-open connections are answered with the
        structured ``draining`` envelope either way.
        """
        timeout_s = (self.config.close_timeout_s if timeout_s is None
                     else timeout_s)
        if not self._draining.is_set():
            self._draining.set()
            self.metrics.counter(mn.NETSERVE_DRAINS).inc()
            self.metrics.emit("drain_started",
                              inflight=self.admission.inflight())
            if self._tcp is not None:
                # Stops serve_forever's accept loop (bounded internally
                # by its poll_interval) and closes the listening socket,
                # so new connection attempts are refused at the kernel
                # instead of parking in the accept backlog unanswered.
                self._tcp.shutdown()
                self._tcp.server_close()
        end = time.monotonic() + timeout_s
        while time.monotonic() < end:
            if self.admission.inflight() == 0:
                return True
            time.sleep(_DRAIN_POLL_S)
        return self.admission.inflight() == 0

    def close(self, timeout_s: float | None = None) -> None:
        """Drain, then release the listening socket (idempotent).

        The whole teardown — drain *and* the accept-thread join — runs
        against one ``timeout_s`` budget, so a caller's close bound is
        honoured end to end instead of stretching by a fixed join grace.
        """
        if self._closed:
            return
        self._closed = True
        budget_s = (self.config.close_timeout_s if timeout_s is None
                    else timeout_s)
        started = time.monotonic()
        self.drain(budget_s)
        if self._tcp is not None:
            self._tcp.server_close()
        if self._accept_thread is not None:
            remaining_s = max(0.1, budget_s
                              - (time.monotonic() - started))
            self._accept_thread.join(timeout=remaining_s)

    def __enter__(self) -> "TeleServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def handle_connection(self, sock: socket.socket) -> None:
        """Serve one client connection until EOF, error, or drain."""
        self.metrics.counter(mn.NETSERVE_CONNECTIONS).inc()
        self.metrics.gauge(mn.NETSERVE_ACTIVE_CONNECTIONS).add(1)
        sock.settimeout(_READ_POLL_S)
        reader = _LineReader(sock, MAX_REQUEST_BYTES)
        try:
            while True:
                try:
                    line = reader.readline()
                except ValueError as error:   # oversized line: unframeable
                    self._send(sock, protocol.error_envelope(
                        error, code=protocol.CODE_BAD_REQUEST))
                    return
                except EOFError:              # client closed
                    return
                if line is None:              # poll tick
                    if self._draining.is_set():
                        return
                    continue
                if not line.strip():          # blank line: no reply
                    continue
                response = self._serve_line(line)
                if not self._send(sock, response):
                    return
                if self._draining.is_set():
                    return
        except OSError:
            # Peer reset / socket torn down mid-write; the connection is
            # done but the server keeps serving everyone else.
            self.metrics.emit("connection_error")
        finally:
            self.metrics.gauge(mn.NETSERVE_ACTIVE_CONNECTIONS).add(-1)

    def _send(self, sock: socket.socket, response: dict) -> bool:
        payload = (json.dumps(response, ensure_ascii=False) + "\n").encode()
        try:
            sock.sendall(payload)
            return True
        except OSError:
            self.metrics.emit("connection_error", during="send")
            return False

    # ------------------------------------------------------------------
    # Per-request pipeline: parse → auth → admit → dispatch
    # ------------------------------------------------------------------
    def _serve_line(self, line: str) -> dict:
        self.metrics.counter(mn.NETSERVE_REQUESTS).inc()
        started = time.perf_counter()
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as error:
            self.metrics.counter(mn.NETSERVE_PROTOCOL_ERRORS).inc()
            return protocol.error_envelope(
                error, code=protocol.CODE_BAD_REQUEST)
        request_id = request.get("id")
        response = self._dispatch(request, request_id)
        if request_id is not None:
            response["id"] = request_id
        self.metrics.histogram(mn.NETSERVE_LATENCY).observe(
            time.perf_counter() - started)
        return response

    def _dispatch(self, request: dict, request_id) -> dict:
        if request.get("op") == "ping":
            # Health probes bypass auth and admission: a supervisor must
            # be able to distinguish "draining" from "dead".
            if self._draining.is_set():
                return protocol.error_envelope(
                    "server is draining", code=protocol.CODE_DRAINING,
                    retry_after_s=self.config.close_timeout_s)
            return {"ok": True, "op": "ping"}
        if self._draining.is_set():
            self.metrics.counter(mn.NETSERVE_DRAINING_REJECTS).inc()
            return protocol.error_envelope(
                "server is draining", code=protocol.CODE_DRAINING,
                retry_after_s=self.config.close_timeout_s)
        tenant = self.tenants.authenticate(request.get("api_key"))
        if tenant is None:
            self.metrics.counter(mn.NETSERVE_AUTH_FAILURES).inc()
            return protocol.error_envelope(
                "unknown or missing api_key", code=protocol.CODE_AUTH)
        try:
            deadline = self._request_deadline(request)
        except ValueError as error:
            self.metrics.counter(mn.NETSERVE_PROTOCOL_ERRORS).inc()
            return protocol.error_envelope(
                error, code=protocol.CODE_BAD_REQUEST)
        try:
            ticket = self.admission.admit(tenant, deadline)
        except AdmissionRejected as rejection:
            return protocol.error_envelope(
                str(rejection), code=rejection.code,
                retry_after_s=rejection.retry_after_s)
        with ticket:
            try:
                return protocol.handle_request(self.service, request,
                                               deadline=deadline)
            except Exception as error:  # noqa: BLE001 — reported, survives
                code = protocol.failure_code(self.metrics, error)
                # A degraded service, not a malformed request: retry.
                retry_after_s = (RETRY_AFTER_S
                                 if code == protocol.CODE_UNAVAILABLE
                                 else None)
                return protocol.error_envelope(
                    error, code=code, retry_after_s=retry_after_s)

    def _request_deadline(self, request: dict) -> Deadline:
        raw = request.get("deadline_ms")
        if raw is None:
            return Deadline.after(DEFAULT_DEADLINE_S)
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ValueError("deadline_ms must be a positive, finite number")
        try:
            seconds = float(raw) / 1000.0
        except OverflowError:   # an integer too large for a float
            seconds = math.inf
        # NaN fails both comparisons: it is a bad request, not a
        # deadline that has already passed.
        if not 0 < seconds < math.inf:
            raise ValueError("deadline_ms must be a positive, finite number")
        return Deadline.after(seconds)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Frontend snapshot: connections, admission, per-tenant usage."""
        snapshot = self.metrics.snapshot()
        return {
            "address": self.address if self._tcp is not None else None,
            "draining": self.draining,
            "inflight": self.admission.inflight(),
            "connections": snapshot["counters"].get(
                mn.NETSERVE_CONNECTIONS, 0),
            "requests": snapshot["counters"].get(mn.NETSERVE_REQUESTS, 0),
            "rejections": snapshot["counters"].get(
                mn.NETSERVE_REJECTIONS, 0),
            "tenants": self.tenants.stats(),
        }

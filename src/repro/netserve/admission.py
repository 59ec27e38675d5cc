"""Admission control: shed load *before* the micro-batcher saturates.

The socket frontend must keep answering when the encoder underneath is
slow or wedged.  The failure mode to prevent is the wedge cascade: every
new request queues behind a stuck batcher, sockets pile up, and the
process stops being able to say *no*.  :class:`AdmissionController`
gates each authenticated request through cheap checks — all O(1), none
touching the provider — and rejects with a structured, machine-actionable
``retry_after_s`` instead of queueing:

``deadline``
    The request's propagated deadline has less than
    :data:`MIN_HEADROOM_S` remaining — executing it could only produce a
    timeout.
``queue_full``
    The micro-batcher's pending queue (via ``queue_depth_fn``) is at
    ``max_queue_depth`` — the stage underneath is saturated.
``overload``
    ``max_inflight`` admitted requests are already executing — the
    bounded admission queue is full.
``concurrency``
    The tenant's own ``max_concurrency`` quota is spent.
``rate_limit``
    The tenant's token bucket is empty; ``retry_after_s`` is the exact
    time until the next token accrues.

Ordering matters: global gates run before the tenant's token bucket so a
rejected request never burns a rate token, and the bucket runs last so
an admitted request always holds both a token and a concurrency slot.
Admission returns a ticket (context manager) that releases the slots on
exit, whatever the request's outcome.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.serving import metric_names as mn
from repro.serving.deadline import Deadline
from repro.serving.metrics import MetricsRegistry
from repro.netserve.tenants import TenantState

# -- rejection codes (wire-visible in the error envelope) --------------
REJECT_DEADLINE = "deadline"
REJECT_QUEUE_FULL = "queue_full"
REJECT_OVERLOAD = "overload"
REJECT_CONCURRENCY = "concurrency"
REJECT_RATE_LIMIT = "rate_limit"

REJECT_CODES = (REJECT_DEADLINE, REJECT_QUEUE_FULL, REJECT_OVERLOAD,
                REJECT_CONCURRENCY, REJECT_RATE_LIMIT)

#: Reject requests whose deadline has less than this left (seconds).
MIN_HEADROOM_S = 0.01
#: ``retry_after_s`` of every rejection but ``rate_limit``, which names
#: the time to the tenant's next token instead (seconds).
RETRY_AFTER_S = 0.1


class AdmissionRejected(RuntimeError):
    """Request refused at the door; carries the structured rejection."""

    def __init__(self, code: str, message: str, retry_after_s: float):
        super().__init__(message)
        self.code = code
        self.retry_after_s = retry_after_s


@dataclass
class AdmissionConfig:
    """Operational knobs for :class:`AdmissionController`."""

    #: bounded admission queue: admitted requests executing at once
    max_inflight: int = 64
    #: reject when the stage underneath reports this many queued names
    max_queue_depth: int = 256

    def __post_init__(self):
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive")


class AdmissionTicket:
    """Proof of admission; releases the claimed slots on ``__exit__``."""

    __slots__ = ("_controller", "_tenant", "_released")

    def __init__(self, controller: "AdmissionController",
                 tenant: TenantState):
        self._controller = controller
        self._tenant = tenant
        self._released = False

    def release(self) -> None:
        """Return the inflight slot and tenant slot (idempotent)."""
        if self._released:
            return
        self._released = True
        self._tenant.finish()
        self._controller._release()

    def __enter__(self) -> "AdmissionTicket":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class AdmissionController:
    """The request gate in front of :class:`FaultAnalysisService`.

    ``queue_depth_fn`` reports the saturation of the stage underneath
    (the micro-batcher's pending-name count); it is sampled *outside*
    the controller's lock so a slow callee cannot serialize admission.
    """

    def __init__(self, config: AdmissionConfig | None = None,
                 metrics: MetricsRegistry | None = None,
                 queue_depth_fn: Callable[[], int] | None = None):
        self.config = config or AdmissionConfig()
        self.metrics = metrics or MetricsRegistry()
        self.queue_depth_fn = queue_depth_fn
        self._lock = threading.Lock()
        self._inflight = 0

    def inflight(self) -> int:
        """Admitted requests currently executing."""
        with self._lock:
            return self._inflight

    def _reject(self, tenant: TenantState, code: str, message: str,
                retry_after_s: float) -> AdmissionRejected:
        tenant.note_rejected()
        self.metrics.counter(mn.NETSERVE_REJECTIONS).inc()
        self.metrics.counter(mn.rejections_for(code)).inc()
        return AdmissionRejected(code, message, retry_after_s)

    def admit(self, tenant: TenantState,
              deadline: Deadline | None = None) -> AdmissionTicket:
        """Run every gate; returns a ticket or raises AdmissionRejected."""
        if deadline is not None and deadline.remaining() < MIN_HEADROOM_S:
            raise self._reject(
                tenant, REJECT_DEADLINE,
                f"deadline headroom below {MIN_HEADROOM_S:g}s "
                f"— executing could only time out", RETRY_AFTER_S)
        # Sampled before taking the admission lock: the batcher holds its
        # own lock for this, and nesting the two would couple admission
        # latency to flush latency.
        if self.queue_depth_fn is not None:
            depth = self.queue_depth_fn()
            if depth >= self.config.max_queue_depth:
                raise self._reject(
                    tenant, REJECT_QUEUE_FULL,
                    f"{depth} names queued behind the batcher "
                    f"(limit {self.config.max_queue_depth})", RETRY_AFTER_S)
        with self._lock:
            if self._inflight >= self.config.max_inflight:
                overloaded = True
            else:
                overloaded = False
                self._inflight += 1
                inflight = self._inflight
        if overloaded:
            raise self._reject(
                tenant, REJECT_OVERLOAD,
                f"{self.config.max_inflight} requests already in flight",
                RETRY_AFTER_S)
        # From here on a failed gate must return the global slot.
        try:
            if not tenant.try_start():
                raise self._reject(
                    tenant, REJECT_CONCURRENCY,
                    f"tenant {tenant.name!r} is at its concurrency quota "
                    f"({tenant.spec.max_concurrency})", RETRY_AFTER_S)
            try:
                granted, bucket_retry = tenant.bucket.try_acquire()
                if not granted:
                    raise self._reject(
                        tenant, REJECT_RATE_LIMIT,
                        f"tenant {tenant.name!r} is over its rate limit "
                        f"({tenant.spec.rate_per_s:g}/s, burst "
                        f"{tenant.spec.burst})",
                        max(bucket_retry, 0.001))
            except AdmissionRejected:
                tenant.finish()
                raise
        except AdmissionRejected:
            self._release()
            raise
        tenant.note_admitted()
        self.metrics.counter(mn.NETSERVE_ADMITTED).inc()
        self.metrics.gauge(mn.NETSERVE_INFLIGHT).set(inflight)
        return AdmissionTicket(self, tenant)

    def _release(self) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            inflight = self._inflight
        self.metrics.gauge(mn.NETSERVE_INFLIGHT).set(inflight)

"""`FaultAnalysisService`: one façade over embedding + RCA / EAP / FCT.

Composes the serving stack the rest of :mod:`repro.serving` provides::

    caller ──▶ FaultAnalysisService.embed
                  │  deadline / bounded retry with backoff / fallback
                  ▼
               MicroBatcher  (coalesce + cross-request dedup,
                  │           deadline-aware waits, flush watchdog)
                  ▼
               PersistentProvider ──▶ EmbeddingStore (LRU + optional disk log)
                  │               ──▶ VectorIndex (optional: adds the names
                  ▼                   it lacks, folds its buffer at 4,096 rows)
               primary EmbeddingProvider (the frozen encoder)

Task calls (:meth:`rank_root_causes`, :meth:`propagate_alarms`,
:meth:`classify_fault`) route through lazily-fitted adapters from
``repro.tasks.*.serve``; the embeddings they consume travel the same
pipeline, so they hit the same caches and metrics.  :meth:`retrieve`
and the ``fct`` adapter query the index directly.

Batching: each :meth:`embed` is counted as a batcher caller from its
first attempt to its return (:meth:`MicroBatcher.caller`), and
:meth:`retrieve` and the adapters' first fit reach the batcher through
:meth:`embed`.  Once every counted caller is blocked in the batcher, no
name can still join the pending batch, so it flushes at once: a lone
caller never waits for ``max_wait_ms``.  That timer still bounds the
wait while a counted caller sleeps in retry backoff or runs its
fallback.

Degradation policy: every request carries a total budget of
``timeout_s × (max_retries + 1)`` plus backoff.  Each attempt gets a
:class:`~repro.serving.deadline.Deadline` of at most ``timeout_s``
(clipped to the remaining budget) and runs on the calling thread.  The
only call that can hang is the encoder's, and it runs only inside the
batcher: an embed attempt *propagates* its deadline into the batcher,
whose every wait is sized by it, so a hung provider makes the attempt
fail with a typed timeout.  Task and index attempts never reach the
encoder (the adapters answer from the vectors they were fitted on).
Exhausted budget falls back to the ``fallback`` provider when one is
configured (counted in ``serving.fallbacks``), else raises
:class:`ServingError`.  ``close()`` is bounded by ``close_timeout_s``
and never blocks on a wedged provider — hung flush threads are daemons
and cannot block interpreter exit.  Every call on a closed service
raises ``RuntimeError`` before the policy: no attempt, no fallback.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.index.index import build_from_store
from repro.serving import metric_names as mn
from repro.serving.batcher import MicroBatcher
from repro.serving.deadline import Deadline, DeadlineExceeded, FlushTimeout
from repro.serving.metrics import MetricsRegistry
from repro.serving.store import EmbeddingStore, PersistentProvider
from repro.service.providers import EmbeddingProvider


class ServingError(RuntimeError):
    """Primary provider failed and no fallback could answer."""


@dataclass
class ServiceConfig:
    """Operational knobs for :class:`FaultAnalysisService`."""

    #: flush a batch at this many pending unique names
    max_batch_size: int = 32
    #: ... or once every ``embed`` in flight waits on the batcher, or at
    #: the latest when the oldest pending name has waited this long (the
    #: bound while an ``embed`` is in retry backoff or its fallback)
    max_wait_ms: float = 5.0
    #: per-call wall-clock budget for one primary attempt (seconds)
    timeout_s: float = 30.0
    #: additional attempts after the first failed/timed-out one
    max_retries: int = 2
    #: first retry sleeps this long; doubles per attempt
    backoff_s: float = 0.05
    #: capacity of the store's in-memory LRU tier
    lru_capacity: int = 4096
    #: watchdog bound on one provider flush inside the batcher;
    #: ``None`` inherits ``timeout_s``
    flush_timeout_s: float | None = None
    #: upper bound on how long :meth:`FaultAnalysisService.close` blocks
    close_timeout_s: float = 5.0
    #: circuit-breaker: with this many provider flushes wedged, further
    #: flushes fail fast instead of stacking more hung threads
    max_hung_flushes: int = 8

    def __post_init__(self):
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be non-negative")
        if self.flush_timeout_s is not None and self.flush_timeout_s <= 0:
            raise ValueError("flush_timeout_s must be positive")
        if self.close_timeout_s <= 0:
            raise ValueError("close_timeout_s must be positive")
        if self.max_hung_flushes < 1:
            raise ValueError("max_hung_flushes must be positive")

    @property
    def effective_flush_timeout_s(self) -> float:
        """The watchdog bound actually armed on the batcher."""
        return (self.timeout_s if self.flush_timeout_s is None
                else self.flush_timeout_s)

    def total_budget_s(self) -> float:
        """Worst-case wall clock for one request: attempts + backoff."""
        attempts = self.max_retries + 1
        backoff = sum(self.backoff_s * (2 ** a)
                      for a in range(self.max_retries))
        return self.timeout_s * attempts + backoff


class FaultAnalysisService:
    """Batched, cached, observable front-end over a frozen encoder.

    Parameters
    ----------
    provider:
        The primary encoder (any :class:`EmbeddingProvider`).
    fallback:
        Optional cheaper provider answering when the primary is exhausted
        (timeouts/errors after retries) — e.g. a
        :class:`~repro.service.WordEmbeddingProvider` of the same ``dim``.
    store_dir:
        Directory for the embedding store's disk log; ``None`` keeps the
        store memory-only (its LRU tier alone).
    fingerprint:
        Version key for the store — pass
        :func:`repro.models.checkpoint.checkpoint_fingerprint` (or
        ``model_fingerprint``) output so re-training invalidates old
        vectors.
    mode:
        Data-mode component of the store key (matches the provider's
        ``mode`` when it has one).
    rca / eap / fct:
        Optional task adapters (``repro.tasks.*.serve``); fitted lazily on
        first use with embeddings drawn through this service.
    index:
        Optional :class:`~repro.index.VectorIndex` enabling
        :meth:`retrieve`.  An empty index over a non-empty store is built
        from the store at construction; the
        :class:`~repro.serving.store.PersistentProvider` adds every name
        it serves that the index lacks; ``close()`` folds the index's
        buffer into its shards; and the ``fct`` adapter draws its
        candidate next hops from it.  Must carry the service's fingerprint.
    """

    def __init__(self, provider: EmbeddingProvider, *,
                 fallback: EmbeddingProvider | None = None,
                 config: ServiceConfig | None = None,
                 metrics: MetricsRegistry | None = None,
                 store_dir=None, fingerprint: str = "unversioned",
                 mode: str | None = None,
                 rca=None, eap=None, fct=None, index=None):
        self.config = config or ServiceConfig()
        self.metrics = metrics or MetricsRegistry()
        self.fallback = fallback
        self.rca = rca
        self.eap = eap
        self.fct = fct
        if fallback is not None and fallback.dim != provider.dim:
            raise ValueError("fallback dim must match the primary provider")

        self.store = EmbeddingStore(
            store_dir, fingerprint=fingerprint, label=provider.label,
            mode=mode or getattr(provider, "mode", "name"),
            lru_capacity=self.config.lru_capacity)
        self.index = index
        stack = PersistentProvider(provider, self.store, index)
        if index is not None:
            if len(index) == 0 and len(self.store):
                build_from_store(index, self.store)
            if fct is not None:
                fct.attach_index(index)
        self.batcher = MicroBatcher(
            stack,
            max_batch_size=self.config.max_batch_size,
            max_wait_ms=self.config.max_wait_ms,
            flush_timeout_s=self.config.effective_flush_timeout_s,
            max_hung_flushes=self.config.max_hung_flushes,
            metrics=self.metrics)
        self._fit_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Resilience plumbing
    # ------------------------------------------------------------------
    def _call_with_policy(self, op: str, primary, fallback=None,
                          deadline: Deadline | None = None):
        """Deadline + bounded retry with backoff + graceful degradation.

        ``primary`` is called on the calling thread as
        ``primary(attempt_deadline)`` once per attempt.  Every wait it can
        block on is bounded by that deadline: the embed path sizes each
        batcher wait by it, and no other primary waits on the encoder.

        A caller-supplied ``deadline`` (e.g. the per-request budget a
        network frontend issued at admission) *caps* the configured
        budget: the overall budget is the smaller of
        ``config.total_budget_s()`` and the deadline's remaining time, so
        an end-to-end budget propagates through every retry and wait.
        An already-expired deadline degrades immediately (fallback or
        :class:`ServingError`) without touching the provider.  On a
        closed service it raises ``RuntimeError`` at once, counting
        nothing.
        """
        if self._closed:
            raise RuntimeError("FaultAnalysisService is closed")
        self.metrics.counter(mn.SERVING_REQUESTS).inc()
        self.metrics.counter(mn.requests_for(op)).inc()
        attempts = self.config.max_retries + 1
        budget_s = self.config.total_budget_s()
        if deadline is not None:
            budget_s = min(budget_s, deadline.remaining())
        overall = Deadline.after(budget_s)
        last_error: BaseException | None = None
        with self.metrics.time(mn.SERVING_LATENCY):
            for attempt in range(attempts):
                remaining = overall.remaining()
                if remaining <= 0:
                    # Budget already spent (e.g. by earlier slow attempts
                    # plus backoff): degrade now instead of queueing more
                    # work behind a stuck provider.
                    self.metrics.counter(mn.SERVING_BUDGET_EXHAUSTED).inc()
                    break
                attempt_deadline = Deadline.after(
                    min(self.config.timeout_s, remaining))
                try:
                    with self.metrics.time(mn.latency_for(op)):
                        result = primary(attempt_deadline)
                except (DeadlineExceeded, FlushTimeout) as error:
                    last_error = error
                    self.metrics.counter(mn.SERVING_TIMEOUTS).inc()
                    self.metrics.emit("timeout", op=op, attempt=attempt,
                                      error=repr(error))
                except Exception as error:  # noqa: BLE001 — retried
                    last_error = error
                    self.metrics.counter(mn.SERVING_ERRORS).inc()
                    self.metrics.emit("error", op=op, attempt=attempt,
                                      error=repr(error))
                else:
                    self.metrics.histogram(
                        mn.SERVING_DEADLINE_REMAINING).observe(
                        overall.remaining())
                    return result
                if attempt < attempts - 1:
                    self.metrics.counter(mn.SERVING_RETRIES).inc()
                    backoff = self.config.backoff_s * (2 ** attempt)
                    time.sleep(min(backoff, overall.remaining()))
            if fallback is not None:
                self.metrics.counter(mn.SERVING_FALLBACKS).inc()
                self.metrics.emit("fallback", op=op)
                return fallback()
            raise ServingError(
                f"{op} failed after {attempts} attempt(s)") from last_error

    # ------------------------------------------------------------------
    # Embedding
    # ------------------------------------------------------------------
    def embed(self, names: list[str],
              deadline: Deadline | None = None) -> np.ndarray:
        """Service embeddings for ``names`` through the full stack.

        ``deadline`` (optional) caps the total budget — see
        :meth:`_call_with_policy`.
        """
        fallback = None
        if self.fallback is not None:
            fallback = lambda: self.fallback.encode_names(names)  # noqa: E731

        def primary(attempt_deadline: Deadline):
            return self.batcher.encode(names, deadline=attempt_deadline)

        # One count across every attempt: while this caller sleeps in
        # backoff the batcher keeps other callers' names to max_wait_ms.
        with self.batcher.caller():
            return self._call_with_policy("embed", primary, fallback,
                                          deadline=deadline)

    # ------------------------------------------------------------------
    # Fault-analysis calls
    # ------------------------------------------------------------------
    def _fitted(self, adapter, op: str):
        """Fit ``adapter`` on first use (embeddings via this service).

        The embed runs *outside* ``_fit_lock`` (double-checked): a slow or
        hung first encode must not serialize every other task call behind
        the lock.  Concurrent first calls may both pay for the embed; the
        re-check under the lock makes exactly one of them fit the adapter
        (same liveness-over-dedup trade as ``PersistentProvider``).
        """
        if self._closed:
            raise RuntimeError("FaultAnalysisService is closed")
        if adapter is None:
            raise ValueError(f"no {op} adapter configured on this service")
        with self._fit_lock:
            if adapter.fitted:
                return adapter
        with self.metrics.time(mn.fit_for(op)):
            vectors = self.embed(adapter.event_names)
            with self._fit_lock:
                if not adapter.fitted:
                    adapter.fit(vectors)
                    self.metrics.emit("adapter_fitted", op=op)
        return adapter

    def rank_root_causes(self, state, top_k: int | None = None,
                         deadline: Deadline | None = None
                         ) -> list[tuple[str, float]]:
        """RCA: nodes of ``state`` ranked most-likely-root first."""
        adapter = self._fitted(self.rca, "rca")
        width = adapter.dataset.num_features
        if state.features.shape[1:] != (width,):
            # A client error, not an outage (see classify_fault).
            raise ValueError(f"rca features must have {width} columns, one "
                             f"per catalog event; got shape "
                             f"{state.features.shape}")
        ranking = self._call_with_policy(
            "rank_root_causes", lambda d: adapter.rank(state),
            deadline=deadline)
        return ranking[:top_k] if top_k is not None else ranking

    def propagate_alarms(self, pairs,
                         deadline: Deadline | None = None) -> list[dict]:
        """EAP: trigger verdict + confidence for each candidate pair."""
        adapter = self._fitted(self.eap, "eap")
        for pair in pairs:
            # Client errors, not outages (see classify_fault).
            for name in (pair.name_i, pair.name_j):
                if not adapter.knows(name):
                    raise ValueError(f"unknown event: {name!r}")
            for node in (pair.node_i, pair.node_j):
                if not adapter.knows_node(node):
                    raise ValueError(f"unknown network element: {node!r}")
        return self._call_with_policy(
            "propagate_alarms", lambda d: adapter.predict(pairs),
            deadline=deadline)

    def classify_fault(self, alarm_name: str, top_k: int = 5,
                       deadline: Deadline | None = None) -> list[dict]:
        """FCT: most plausible next-hop alarms for ``alarm_name``."""
        adapter = self._fitted(self.fct, "fct")
        if not adapter.knows(alarm_name):
            # A client error, not an outage: answer it before the retry
            # policy would count it as an error and retry it.
            raise ValueError(f"unknown alarm: {alarm_name!r}")
        return self._call_with_policy(
            "classify_fault", lambda d: adapter.trace(alarm_name,
                                                      top_k=top_k),
            deadline=deadline)

    # ------------------------------------------------------------------
    # Retrieval (ANN index tier)
    # ------------------------------------------------------------------
    def retrieve(self, names: list[str], k: int = 10,
                 nprobe: int | None = None,
                 deadline: Deadline | None = None) -> list[list[dict]]:
        """Top-``k`` nearest stored entities for each of ``names``.

        Embeds ``names`` through the full serving stack (batching, store,
        retries — deadline-aware), then answers from the ANN index; the
        remaining budget is re-checked between the two stages so a slow
        embed cannot push the query past its deadline.
        """
        if self.index is None:
            raise ValueError("no vector index configured on this service")
        vectors = self.embed(names, deadline=deadline)
        if deadline is not None and deadline.remaining() <= 0:
            self.metrics.counter(mn.SERVING_BUDGET_EXHAUSTED).inc()
            raise DeadlineExceeded("retrieve: budget spent during embed")

        def run(attempt_deadline: Deadline):
            with self.metrics.time(mn.INDEX_QUERY_LATENCY):
                hits = self.index.query(vectors, k=k, nprobe=nprobe)
            self.metrics.counter(mn.INDEX_QUERIES).inc(len(hits))
            return [[{"name": name, "score": round(score, 6)}
                     for name, score in per_query] for per_query in hits]

        return self._call_with_policy("retrieve", run, deadline=deadline)

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Request counts, cache hit rate, latency percentiles, tiers."""
        snapshot = self.metrics.snapshot()
        store = self.store.stats()
        latency = snapshot["histograms"].get(
            mn.SERVING_LATENCY, {"count": 0, "mean": 0.0,
                                 "p50": 0.0, "p95": 0.0, "p99": 0.0})
        return {
            "requests": snapshot["counters"].get(mn.SERVING_REQUESTS, 0),
            "cache": {key: store[key]
                      for key in ("hits", "misses", "hit_rate")},
            "latency": latency,
            "batcher": self.batcher.stats(),
            "store": store,
            "index": self.index.stats() if self.index else None,
            "metrics": snapshot,
        }

    def close(self) -> None:
        """Stop the batcher worker and its flusher (idempotent).

        Bounded by ``config.close_timeout_s``: a provider wedged inside a
        flush cannot hold shutdown hostage — its thread is a daemon and
        is simply left behind.
        """
        if self._closed:
            return
        self._closed = True
        self.batcher.close(timeout=self.config.close_timeout_s)
        if self.index is not None:
            # Fold any buffered adds into the shards so vectors encoded
            # during this process survive into the next one.
            flushed = self.index.flush()
            if flushed:
                self.metrics.counter(mn.INDEX_FLUSHED_ROWS).inc(flushed)

    def __enter__(self) -> "FaultAnalysisService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

"""Online fault-analysis serving layer.

Turns the frozen encoders of :mod:`repro.service` into a long-lived
inference service, the deployment shape the paper's "service embeddings"
imply (Sec. V-A3) and that industrial tele-PLM systems build around:

* :class:`MicroBatcher` — dynamic micro-batching with cross-request
  deduplication (flush on size, once every caller waits, or on the
  timer), deadline-aware waits, and a flush watchdog that bounds
  provider calls, the only calls that can hang;
* :class:`EmbeddingStore` / :class:`PersistentProvider` — the one
  embedding cache: an LRU memory tier, optionally over an append-only
  on-disk log keyed by checkpoint fingerprint (versioned invalidation);
  given a :class:`~repro.index.VectorIndex`, the provider also adds
  every name it serves that the index lacks;
* :class:`FaultAnalysisService` — one façade exposing ``embed`` plus the
  three fault-analysis calls (``rank_root_causes`` / ``propagate_alarms``
  / ``classify_fault``) with per-request deadlines, bounded retry with
  backoff, and graceful degradation to a fallback provider; every
  attempt runs on the calling thread, and an ``embed`` attempt whose
  names the store all holds is answered there, without the batcher;
* :class:`Deadline` — the propagated budget that keeps a hung encoder
  from wedging the stack (typed failures: :class:`DeadlineExceeded`,
  :class:`FlushTimeout`);
* :class:`CancellableWorkerPool` — the one mechanism for writing off a
  hung call: one live daemon flush thread, replaced when the batcher
  abandons a flush stuck in the provider;
* :class:`MetricsRegistry` — counters, gauges, latency histograms with
  p50/p95/p99, and structured event logging.

The request language lives in :mod:`repro.netserve.protocol`, and the
one frontend, the TCP server behind ``python -m repro serve-net``, in
:mod:`repro.netserve`.
"""

from repro.serving.batcher import MicroBatcher
from repro.serving.deadline import Deadline, DeadlineExceeded, FlushTimeout
from repro.serving.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serving.pool import CancellableWorkerPool
from repro.serving.service import (
    FaultAnalysisService,
    ServiceConfig,
    ServingError,
)
from repro.serving.store import (
    EmbeddingStore,
    PersistentProvider,
    ProviderShapeError,
)

__all__ = [
    "CancellableWorkerPool",
    "Counter",
    "Deadline",
    "DeadlineExceeded",
    "EmbeddingStore",
    "FaultAnalysisService",
    "FlushTimeout",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MicroBatcher",
    "PersistentProvider",
    "ProviderShapeError",
    "ServiceConfig",
    "ServingError",
]

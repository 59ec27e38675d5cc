"""Tenant registry: API keys carrying rate limits and concurrency quotas.

Every socket request authenticates with an ``api_key``; the key resolves
to a :class:`TenantState` holding the tenant's operational quota:

* a **token bucket** (``rate_per_s`` tokens/second, ``burst`` capacity)
  bounding sustained request rate while absorbing short bursts, and
* a **concurrency quota** (``max_concurrency``) bounding how many of the
  tenant's requests may execute at once — one tenant's flood consumes
  its own slots, not the shared service.

Tenant configuration is declarative (:meth:`TenantRegistry.from_json` /
``from_file``)::

    {"tenants": [
        {"name": "noc-east", "api_key": "k-noc-east",
         "rate_per_s": 50, "burst": 100, "max_concurrency": 8},
        ...
    ]}

All state is thread-safe: connection-handler threads call
:meth:`TokenBucket.try_acquire` and mutate inflight counts concurrently.
Clocks are injectable for deterministic refill-timing tests.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class TenantSpec:
    """Declarative quota configuration for one tenant."""

    #: stable identifier (reports, per-tenant stats)
    name: str
    #: shared secret presented as ``api_key`` on every request
    api_key: str
    #: sustained request rate (tokens/second); ``0`` disables rate limiting
    rate_per_s: float = 0.0
    #: bucket capacity — the burst absorbed beyond the sustained rate
    burst: int = 1
    #: concurrent in-flight requests this tenant may hold; ``0`` = unlimited
    max_concurrency: int = 0

    def __post_init__(self):
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if not self.api_key:
            raise ValueError(f"tenant {self.name!r} needs an api_key")
        if self.rate_per_s < 0:
            raise ValueError(f"tenant {self.name!r}: rate_per_s must be "
                             f"non-negative (0 = unlimited)")
        if self.burst < 1:
            raise ValueError(f"tenant {self.name!r}: burst must be >= 1")
        if self.max_concurrency < 0:
            raise ValueError(f"tenant {self.name!r}: max_concurrency must "
                             f"be non-negative (0 = unlimited)")


class TokenBucket:
    """Thread-safe token bucket on the monotonic clock.

    Starts full (``burst`` tokens); refills continuously at
    ``rate_per_s``.  :meth:`try_acquire` never blocks — it either takes a
    token or reports how long until one is available, so rejection paths
    can answer with a concrete ``retry_after_s`` instead of queueing.
    A ``rate_per_s`` of 0 means unlimited (every acquire succeeds).
    """

    def __init__(self, rate_per_s: float, burst: int = 1,
                 clock: Callable[[], float] = time.monotonic):
        if rate_per_s < 0:
            raise ValueError("rate_per_s must be non-negative")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate_per_s = float(rate_per_s)
        self.burst = int(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._refilled_at = clock()
        self._lock = threading.Lock()

    def _refill_locked(self, now: float) -> None:
        elapsed = max(0.0, now - self._refilled_at)
        self._refilled_at = now
        if self.rate_per_s > 0:
            self._tokens = min(float(self.burst),
                               self._tokens + elapsed * self.rate_per_s)

    def try_acquire(self) -> tuple[bool, float]:
        """Take one token if available.

        Returns ``(granted, retry_after_s)`` — ``retry_after_s`` is 0.0
        when granted, else the time until the next token accrues.
        """
        if self.rate_per_s == 0:
            return True, 0.0
        with self._lock:
            now = self._clock()
            self._refill_locked(now)
            # epsilon absorbs float error from incremental refills, so a
            # client that waited exactly its advertised retry_after_s is
            # granted rather than bounced on the 15th decimal
            if self._tokens >= 1.0 - 1e-9:
                self._tokens = max(0.0, self._tokens - 1.0)
                return True, 0.0
            return False, (1.0 - self._tokens) / self.rate_per_s

    def available(self) -> float:
        """Current token count (refilled to now); for stats/tests."""
        if self.rate_per_s == 0:
            return float("inf")
        with self._lock:
            self._refill_locked(self._clock())
            return self._tokens


class TenantState:
    """Live per-tenant state: quota instruments plus usage accounting."""

    def __init__(self, spec: TenantSpec,
                 clock: Callable[[], float] = time.monotonic):
        self.spec = spec
        self.bucket = TokenBucket(spec.rate_per_s, spec.burst, clock=clock)
        self._lock = threading.Lock()
        self.inflight = 0
        self.admitted = 0
        self.rejected = 0

    @property
    def name(self) -> str:
        return self.spec.name

    def try_start(self) -> bool:
        """Claim one concurrency slot; False when the quota is spent."""
        with self._lock:
            limit = self.spec.max_concurrency
            if limit and self.inflight >= limit:
                return False
            self.inflight += 1
            return True

    def finish(self) -> None:
        """Release a slot claimed by :meth:`try_start`."""
        with self._lock:
            self.inflight = max(0, self.inflight - 1)

    def note_admitted(self) -> None:
        with self._lock:
            self.admitted += 1

    def note_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def stats(self) -> dict:
        """Usage snapshot for the per-tenant stats table."""
        with self._lock:
            return {
                "name": self.spec.name,
                "inflight": self.inflight,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "rate_per_s": self.spec.rate_per_s,
                "burst": self.spec.burst,
                "max_concurrency": self.spec.max_concurrency,
            }


class TenantRegistry:
    """API-key → tenant resolution over a fixed set of tenant specs."""

    def __init__(self, specs: list[TenantSpec],
                 clock: Callable[[], float] = time.monotonic):
        if not specs:
            raise ValueError("a TenantRegistry needs at least one tenant")
        self._by_key: dict[str, TenantState] = {}
        by_name: set[str] = set()
        for spec in specs:
            if spec.api_key in self._by_key:
                raise ValueError(
                    f"duplicate api_key for tenant {spec.name!r}")
            if spec.name in by_name:
                raise ValueError(f"duplicate tenant name {spec.name!r}")
            by_name.add(spec.name)
            self._by_key[spec.api_key] = TenantState(spec, clock=clock)

    @classmethod
    def from_json(cls, obj: dict, **kwargs) -> "TenantRegistry":
        """Build from the declarative ``{"tenants": [...]}`` shape."""
        tenants = obj.get("tenants")
        if not isinstance(tenants, list) or not tenants:
            raise ValueError(
                "tenant config needs a non-empty 'tenants' list")
        specs = []
        for raw in tenants:
            if not isinstance(raw, dict):
                raise ValueError("each tenant must be a JSON object")
            unknown = set(raw) - {"name", "api_key", "rate_per_s", "burst",
                                  "max_concurrency"}
            if unknown:
                raise ValueError(
                    f"unknown tenant field(s): {sorted(unknown)}")
            specs.append(TenantSpec(
                name=str(raw.get("name", "")),
                api_key=str(raw.get("api_key", "")),
                rate_per_s=float(raw.get("rate_per_s", 0.0)),
                burst=int(raw.get("burst", 1)),
                max_concurrency=int(raw.get("max_concurrency", 0))))
        return cls(specs, **kwargs)

    @classmethod
    def from_file(cls, path: str | Path, **kwargs) -> "TenantRegistry":
        """Load the JSON tenant config at ``path``."""
        return cls.from_json(
            json.loads(Path(path).read_text(encoding="utf-8")), **kwargs)

    @classmethod
    def single(cls, api_key: str, *, name: str = "default",
               rate_per_s: float = 0.0, burst: int = 1,
               max_concurrency: int = 0, **kwargs) -> "TenantRegistry":
        """One-tenant registry — the ``serve-net`` CLI default."""
        return cls([TenantSpec(name=name, api_key=api_key,
                               rate_per_s=rate_per_s, burst=burst,
                               max_concurrency=max_concurrency)], **kwargs)

    def authenticate(self, api_key) -> TenantState | None:
        """The tenant owning ``api_key``, or None (auth failure)."""
        if not isinstance(api_key, str):
            return None
        return self._by_key.get(api_key)

    def tenants(self) -> list[TenantState]:
        """Every tenant, in configuration order."""
        return list(self._by_key.values())

    def stats(self) -> list[dict]:
        """Per-tenant usage snapshots (the ``stats`` op / drain report)."""
        return [tenant.stats() for tenant in self._by_key.values()]

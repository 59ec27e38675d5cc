"""Multi-threaded traffic generator for the netserve frontend.

Two shapes of load:

* **open-loop** — arrivals follow a precomputed schedule at a configured
  offered rate, independent of response latency (the honest way to
  measure saturation: a slow server does not slow the offered load
  down).  ``bursty`` alternates half-second on/off windows, with the
  on-window rate multiplied by ``burst_factor``.
* **closed-loop** — ``concurrency`` workers issue requests back-to-back,
  a new one the moment the previous answer lands (models N retrying
  clients rather than an arrival process).

Request mixes are configurable (``embed=8,fct=2`` …) over the four
service ops.  The task ops (``rca``/``eap``/``fct``) need payloads the
server's adapters recognise, so :class:`RequestFactory` rebuilds the
same seeded tiny world the ``serve-net --adapters`` flag uses
(:func:`repro.world.serving_world`) and samples states/pairs/alarms
from it — generator and server agree by construction when their
``world_seed`` matches.

Every request is recorded as ``(tenant, op, latency, outcome, code)``;
:class:`LoadReport` aggregates them into latency percentiles split by
outcome, offered vs. achieved throughput, per-tenant tallies, and
Jain's fairness index over per-tenant goodput.  ``sweep`` repeats a run
across offered rates and renders the latency-vs-offered-load curve.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.loadgen.client import NetClient, ProtocolError
from repro.netserve.protocol import RETRYABLE_CODES

#: mix tokens accepted by :func:`parse_mix` → wire op names
MIX_OPS = {"embed": "embed", "rca": "rca", "eap": "eap",
           "fct": "classify_fault"}

#: request outcome classes (see :func:`classify_response`)
OUTCOMES = ("ok", "rejected", "error", "protocol_error")

#: bounded sleep quantum — keeps every wait interruptible by the stop
#: event without busy-spinning
_SLEEP_QUANTUM_S = 0.2


def parse_mix(raw: str) -> dict[str, float]:
    """Parse ``"embed=8,fct=2"`` into normalised op weights."""
    weights: dict[str, float] = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        token, _, value = part.partition("=")
        token = token.strip()
        if token not in MIX_OPS:
            raise ValueError(f"unknown mix op {token!r} "
                             f"(expected one of {sorted(MIX_OPS)})")
        try:
            weight = float(value) if value else 1.0
        except ValueError:
            raise ValueError(f"mix weight for {token!r} must be a "
                             f"number, got {value!r}") from None
        if weight <= 0:
            raise ValueError(f"mix weight for {token!r} must be positive")
        weights[token] = weights.get(token, 0.0) + weight
    if not weights:
        raise ValueError("empty request mix")
    total = sum(weights.values())
    return {token: weight / total for token, weight in weights.items()}


class RequestFactory:
    """Samples request payloads for a configured mix, deterministically.

    ``mix`` maps ops to positive weights; like :func:`parse_mix`'s, they
    are normalised to sum to 1.
    """

    def __init__(self, mix: dict[str, float], seed: int = 0,
                 world_seed: int = 11, embed_pool: int = 64,
                 deadline_ms: float | None = None):
        total = sum(mix.values())
        self.mix = {op: weight / total for op, weight in mix.items()}
        self.deadline_ms = deadline_ms
        self._rng = np.random.default_rng(seed)
        self._ops = sorted(self.mix)
        self._weights = np.asarray([self.mix[op] for op in self._ops])
        self._names = [f"ne{i % 8}/alarm-{i}" for i in range(embed_pool)]
        self._lock = threading.Lock()
        self._pools: dict[str, list] = {}
        if any(op in self.mix for op in ("rca", "eap", "fct")):
            self._build_task_pools(world_seed)

    def _build_task_pools(self, world_seed: int) -> None:
        """Sample task payloads from the seeded world the server fits on."""
        from repro.tasks.eap import build_eap_dataset
        from repro.tasks.fct import build_fct_dataset
        from repro.tasks.rca import build_rca_dataset
        from repro.world import serving_world

        world, episodes = serving_world(world_seed)
        if "rca" in self.mix:
            states = build_rca_dataset(world, episodes).states
            self._pools["rca"] = [
                {"nodes": list(state.node_names),
                 "adjacency": state.adjacency.tolist(),
                 "features": state.features.tolist()}
                for state in states[:16]]
        if "eap" in self.mix:
            pairs = build_eap_dataset(world, episodes).pairs
            self._pools["eap"] = [
                {"name_i": pair.name_i, "name_j": pair.name_j,
                 "node_i": pair.node_i, "node_j": pair.node_j,
                 "time_i": pair.time_i, "time_j": pair.time_j}
                for pair in pairs[:64]]
        if "fct" in self.mix:
            self._pools["fct"] = list(
                build_fct_dataset(world, episodes).entity_names)

    def build(self, request_id: int) -> tuple[str, dict]:
        """One ``(mix_token, payload)`` draw; thread-safe."""
        with self._lock:
            token = self._ops[int(self._rng.choice(len(self._ops),
                                                   p=self._weights))]
            payload = self._build_locked(token)
        payload["op"] = MIX_OPS[token]
        payload["id"] = request_id
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        return token, payload

    def _build_locked(self, token: str) -> dict:
        if token == "embed":
            count = int(self._rng.integers(1, 5))
            picks = self._rng.choice(len(self._names), size=count,
                                     replace=False)
            return {"names": [self._names[i] for i in picks]}
        if token == "fct":
            pool = self._pools["fct"]
            return {"alarm": pool[int(self._rng.integers(len(pool)))],
                    "top_k": 3}
        if token == "rca":
            pool = self._pools["rca"]
            return dict(pool[int(self._rng.integers(len(pool)))])
        pool = self._pools["eap"]
        picks = self._rng.integers(len(pool),
                                   size=int(self._rng.integers(1, 4)))
        return {"pairs": [pool[int(i)] for i in picks]}


def classify_response(response: dict) -> tuple[str, str | None]:
    """Map a response envelope to ``(outcome, code)``."""
    if response.get("ok"):
        return "ok", None
    code = response.get("code")
    if code in RETRYABLE_CODES:
        return "rejected", code
    return "error", code


class RequestRecord(NamedTuple):
    tenant: str
    op: str
    latency_s: float
    outcome: str
    code: str | None


@dataclass
class LoadgenConfig:
    """One load-generation run against a netserve endpoint."""

    host: str = "127.0.0.1"
    port: int = 0
    #: API keys to spread requests across (one tenant each)
    api_keys: tuple[str, ...] = ("dev-key",)
    #: ``open`` (scheduled arrivals) or ``closed`` (back-to-back workers)
    mode: str = "open"
    duration_s: float = 5.0
    #: open-loop offered rate (requests/second, all tenants combined)
    rate_per_s: float = 50.0
    #: open-loop sender threads draining the arrival schedule
    workers: int = 4
    #: closed-loop concurrent workers
    concurrency: int = 4
    mix: dict[str, float] = field(default_factory=lambda: {"embed": 1.0})
    #: alternate half-second on/off windows instead of steady arrivals
    bursty: bool = False
    #: on-window rate multiplier; off-window rate is
    #: ``rate * max(0, 2 - burst_factor)`` (mean preserved up to 2x)
    burst_factor: float = 4.0
    seed: int = 0
    #: world seed for task-op payloads (match ``serve-net --adapters``)
    world_seed: int = 11
    #: client-side socket timeout per request
    timeout_s: float = 10.0
    #: per-request ``deadline_ms`` sent to the server (None = omit)
    deadline_ms: float | None = None

    def __post_init__(self):
        if self.mode not in ("open", "closed"):
            raise ValueError("mode must be 'open' or 'closed'")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if self.workers < 1 or self.concurrency < 1:
            raise ValueError("workers/concurrency must be >= 1")
        if self.burst_factor < 1:
            raise ValueError("burst_factor must be >= 1")
        if not self.api_keys:
            raise ValueError("at least one api_key is required")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile over a pre-sorted list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1,
               max(0, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def jain_fairness(values: list[float]) -> float:
    """Jain's index: 1.0 = perfectly fair, 1/n = one tenant starved."""
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)


@dataclass
class LoadReport:
    """Aggregated outcome of one load-generation run."""

    mode: str
    offered_rps: float
    duration_s: float
    counts: dict[str, int]
    codes: dict[str, int]
    ok_latency: dict[str, float]
    reject_latency: dict[str, float]
    per_tenant: dict[str, dict]
    fairness: float

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def achieved_rps(self) -> float:
        """Goodput: successful answers per second of wall time."""
        return self.counts["ok"] / self.duration_s if self.duration_s else 0.0

    @classmethod
    def from_records(cls, records: list[RequestRecord], mode: str,
                     duration_s: float, offered_rps: float) -> "LoadReport":
        counts = {outcome: 0 for outcome in OUTCOMES}
        codes: dict[str, int] = {}
        ok_lat: list[float] = []
        reject_lat: list[float] = []
        tenants: dict[str, dict] = {}
        for record in records:
            counts[record.outcome] += 1
            if record.code:
                codes[record.code] = codes.get(record.code, 0) + 1
            if record.outcome == "ok":
                ok_lat.append(record.latency_s)
            elif record.outcome == "rejected":
                reject_lat.append(record.latency_s)
            tenant = tenants.setdefault(
                record.tenant,
                {"sent": 0} | {outcome: 0 for outcome in OUTCOMES})
            tenant["sent"] += 1
            tenant[record.outcome] += 1
        ok_lat.sort()
        reject_lat.sort()

        def summarize(sorted_lat: list[float]) -> dict[str, float]:
            return {
                "count": float(len(sorted_lat)),
                "mean": (sum(sorted_lat) / len(sorted_lat)
                         if sorted_lat else 0.0),
                "p50": _percentile(sorted_lat, 0.50),
                "p95": _percentile(sorted_lat, 0.95),
                "p99": _percentile(sorted_lat, 0.99),
            }

        return cls(mode=mode, offered_rps=offered_rps,
                   duration_s=duration_s, counts=counts, codes=codes,
                   ok_latency=summarize(ok_lat),
                   reject_latency=summarize(reject_lat),
                   per_tenant=tenants,
                   fairness=jain_fairness(
                       [float(t["ok"]) for t in tenants.values()]))

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "offered_rps": round(self.offered_rps, 3),
            "achieved_rps": round(self.achieved_rps, 3),
            "duration_s": round(self.duration_s, 3),
            "total": self.total,
            "counts": dict(self.counts),
            "codes": dict(self.codes),
            "ok_latency": {k: round(v, 6)
                           for k, v in self.ok_latency.items()},
            "reject_latency": {k: round(v, 6)
                               for k, v in self.reject_latency.items()},
            "per_tenant": self.per_tenant,
            "fairness": round(self.fairness, 4),
        }

    def render(self) -> str:
        lines = [
            f"mode={self.mode} offered={self.offered_rps:.1f} rps "
            f"achieved={self.achieved_rps:.1f} rps "
            f"duration={self.duration_s:.2f}s total={self.total}",
            "outcomes: " + "  ".join(
                f"{outcome}={self.counts[outcome]}"
                for outcome in OUTCOMES),
        ]
        if self.codes:
            lines.append("codes: " + "  ".join(
                f"{code}={count}"
                for code, count in sorted(self.codes.items())))
        lines.append(
            f"ok latency ms: p50={self.ok_latency['p50'] * 1e3:.1f} "
            f"p95={self.ok_latency['p95'] * 1e3:.1f} "
            f"p99={self.ok_latency['p99'] * 1e3:.1f}")
        if self.reject_latency["count"]:
            lines.append(
                f"reject latency ms: "
                f"p50={self.reject_latency['p50'] * 1e3:.1f} "
                f"p95={self.reject_latency['p95'] * 1e3:.1f}")
        lines.append(f"tenant fairness (Jain): {self.fairness:.3f}")
        for name in sorted(self.per_tenant):
            tenant = self.per_tenant[name]
            lines.append(
                f"  tenant {name}: sent={tenant['sent']} ok={tenant['ok']} "
                f"rejected={tenant['rejected']} error={tenant['error']}")
        return "\n".join(lines)


def _arrival_times(config: LoadgenConfig) -> list[float]:
    """Offsets (seconds) of every open-loop arrival in the run window."""
    times: list[float] = []
    if not config.bursty:
        step = 1.0 / config.rate_per_s
        count = int(config.duration_s * config.rate_per_s)
        return [i * step for i in range(count)]
    window = 0.5
    on_rate = config.rate_per_s * config.burst_factor
    off_rate = config.rate_per_s * max(0.0, 2.0 - config.burst_factor)
    start, on = 0.0, True
    while start < config.duration_s:
        rate = on_rate if on else off_rate
        if rate > 0:
            step = 1.0 / rate
            count = int(window * rate)
            times.extend(start + i * step for i in range(count))
        start += window
        on = not on
    return [t for t in times if t < config.duration_s]


def _record_request(client: NetClient, factory: RequestFactory,
                    api_key: str, request_id: int,
                    records: list[RequestRecord]) -> None:
    token, payload = factory.build(request_id)
    payload["api_key"] = api_key
    started = time.perf_counter()
    try:
        response = client.request(payload)
        outcome, code = classify_response(response)
    except ProtocolError:
        outcome, code = "protocol_error", None
    records.append(RequestRecord(api_key, token,
                                 time.perf_counter() - started,
                                 outcome, code))


def run_load(config: LoadgenConfig) -> LoadReport:
    """Execute one load-generation run and aggregate the records."""
    factory = RequestFactory(config.mix, seed=config.seed,
                             world_seed=config.world_seed,
                             deadline_ms=config.deadline_ms)
    stop = threading.Event()
    worker_records: list[list[RequestRecord]] = []
    threads: list[threading.Thread] = []
    started_at = time.monotonic()

    if config.mode == "open":
        arrivals = _arrival_times(config)
        cursor_lock = threading.Lock()
        cursor = [0]

        def open_worker(worker_index: int,
                        records: list[RequestRecord]) -> None:
            rng = np.random.default_rng(config.seed + 1000 + worker_index)
            with NetClient(config.host, config.port,
                           timeout_s=config.timeout_s) as client:
                while not stop.is_set():
                    with cursor_lock:
                        index = cursor[0]
                        if index >= len(arrivals):
                            return
                        cursor[0] += 1
                    due = started_at + arrivals[index]
                    while not stop.is_set():
                        remaining = due - time.monotonic()
                        if remaining <= 0:
                            break
                        stop.wait(min(remaining, _SLEEP_QUANTUM_S))
                    if stop.is_set():
                        return
                    api_key = config.api_keys[
                        int(rng.integers(len(config.api_keys)))]
                    _record_request(client, factory, api_key, index,
                                    records)

        worker_count = min(config.workers, max(1, len(arrivals)))
        for worker_index in range(worker_count):
            records: list[RequestRecord] = []
            worker_records.append(records)
            threads.append(threading.Thread(
                target=open_worker, args=(worker_index, records),
                name=f"repro-loadgen-{worker_index}", daemon=True))
    else:
        def closed_worker(worker_index: int,
                          records: list[RequestRecord]) -> None:
            api_key = config.api_keys[worker_index % len(config.api_keys)]
            request_id = worker_index
            with NetClient(config.host, config.port,
                           timeout_s=config.timeout_s) as client:
                while not stop.is_set() and \
                        time.monotonic() - started_at < config.duration_s:
                    _record_request(client, factory, api_key, request_id,
                                    records)
                    request_id += 10_000

        for worker_index in range(config.concurrency):
            records = []
            worker_records.append(records)
            threads.append(threading.Thread(
                target=closed_worker, args=(worker_index, records),
                name=f"repro-loadgen-{worker_index}", daemon=True))

    for thread in threads:
        thread.start()
    # Bounded overall: the run window plus a grace period per request
    # timeout; stragglers past that are abandoned (daemon threads).
    join_by = started_at + config.duration_s + config.timeout_s + 5.0
    for thread in threads:
        thread.join(timeout=max(0.1, join_by - time.monotonic()))
    stop.set()
    wall_s = time.monotonic() - started_at

    merged = [record for records in worker_records for record in records]
    offered = (config.rate_per_s if config.mode == "open"
               else (len(merged) / wall_s if wall_s else 0.0))
    return LoadReport.from_records(merged, config.mode,
                                   min(wall_s, config.duration_s)
                                   if config.mode == "open" else wall_s,
                                   offered)


def sweep(config: LoadgenConfig,
          rates: list[float]) -> list[LoadReport]:
    """Run the same mix at each offered rate (open loop); returns reports."""
    from dataclasses import replace

    reports = []
    for rate in rates:
        reports.append(run_load(replace(config, mode="open",
                                        rate_per_s=rate)))
    return reports


def render_curve(reports: list[LoadReport]) -> str:
    """ASCII latency-vs-offered-load curve over a rate sweep."""
    header = (f"{'offered':>8} {'achieved':>9} {'ok':>6} {'rej':>6} "
              f"{'err':>5} {'p50ms':>8} {'p95ms':>8} {'p99ms':>8} "
              f"{'fair':>6}")
    rows = [header, "-" * len(header)]
    for report in reports:
        rows.append(
            f"{report.offered_rps:>8.1f} {report.achieved_rps:>9.1f} "
            f"{report.counts['ok']:>6d} {report.counts['rejected']:>6d} "
            f"{report.counts['error'] + report.counts['protocol_error']:>5d} "
            f"{report.ok_latency['p50'] * 1e3:>8.1f} "
            f"{report.ok_latency['p95'] * 1e3:>8.1f} "
            f"{report.ok_latency['p99'] * 1e3:>8.1f} "
            f"{report.fairness:>6.3f}")
    return "\n".join(rows)

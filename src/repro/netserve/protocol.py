"""Shared request-dispatch core for every serving frontend.

``python -m repro serve`` (stdin JSON-lines) and ``python -m repro
serve-net`` (the TCP socket server) speak the same request language:
one JSON object per line, an ``op`` field selecting the call, and a
response that always carries ``"ok"``.  This module is the single
implementation both frontends dispatch through — op validation, payload
parsing, the error envelope, and the bad-request metrics live here, so
the two transports cannot drift apart.

The envelope contract::

    success  {"ok": true, "op": <op>, ...payload}
    failure  {"ok": false, "error": <repr>}            # stdin loop
    failure  {"ok": false, "error": ..., "code": ...,  # socket server
              "retry_after_s": ..., "id": ...}

The stdin loop's failure shape predates the socket server and is kept
byte-compatible; the socket server adds the machine-actionable fields
(``code`` for programmatic handling, ``retry_after_s`` for admission
rejections, ``id`` echoing the request's correlation id).

Dispatch accepts an optional :class:`~repro.serving.deadline.Deadline`
that is propagated into the service, so a frontend-issued budget bounds
every wait underneath (retries, backoff, batcher) end to end.
"""

from __future__ import annotations

import json
import math
from typing import IO

import numpy as np

from repro.serving import metric_names as mn
from repro.serving.deadline import Deadline, DeadlineExceeded, FlushTimeout
from repro.serving.metrics import MetricsRegistry
from repro.serving.service import FaultAnalysisService, ServingError

# -- error codes ------------------------------------------------------
#: Request could not be parsed or failed op/payload validation.
CODE_BAD_REQUEST = "bad_request"
#: Unknown or missing API key.
CODE_AUTH = "auth"
#: Admitted request exhausted its budget (or the service degraded).
CODE_UNAVAILABLE = "unavailable"
#: Unexpected server-side failure.
CODE_INTERNAL = "internal"
#: Server is draining after SIGTERM; retry against another replica.
CODE_DRAINING = "draining"

#: Rejection codes a well-behaved client backs off and retries on
#: (admission codes are defined in :mod:`repro.netserve.admission`).
RETRYABLE_CODES = frozenset({
    "rate_limit", "concurrency", "overload", "queue_full", "deadline",
    CODE_DRAINING, CODE_UNAVAILABLE,
})


def parse_rca_state(request: dict):
    """Validate and build the RCA inference state from a request dict."""
    from repro.tasks.rca.serve import state_for_inference

    nodes = request.get("nodes")
    if not isinstance(nodes, list) or not nodes or \
            not all(isinstance(n, str) for n in nodes):
        raise ValueError("rca needs a non-empty 'nodes' string list")
    try:
        adjacency = np.asarray(request.get("adjacency"), dtype=float)
        features = np.asarray(request.get("features"), dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("rca 'adjacency'/'features' must be numeric "
                         "matrices") from None
    v = len(nodes)
    if adjacency.shape != (v, v):
        raise ValueError(f"rca 'adjacency' must be {v}x{v}")
    if features.ndim != 2 or features.shape[0] != v:
        raise ValueError(f"rca 'features' must have {v} rows")
    if not (np.isfinite(adjacency).all() and np.isfinite(features).all()):
        raise ValueError("rca 'adjacency'/'features' must be finite")
    return state_for_inference(nodes, adjacency, features)


def parse_eap_pairs(request: dict):
    """Validate and build EventPair objects from a request dict."""
    from repro.tasks.eap.data import EventPair

    raw_pairs = request.get("pairs")
    if not isinstance(raw_pairs, list) or not raw_pairs or \
            not all(isinstance(p, dict) for p in raw_pairs):
        raise ValueError("eap needs a non-empty 'pairs' list of objects")
    pairs = []
    for number, raw in enumerate(raw_pairs):
        try:
            pair = EventPair(
                event_i=str(raw.get("event_i", raw["name_i"])),
                event_j=str(raw.get("event_j", raw["name_j"])),
                name_i=str(raw["name_i"]), name_j=str(raw["name_j"]),
                node_i=str(raw["node_i"]), node_j=str(raw["node_j"]),
                time_i=float(raw["time_i"]), time_j=float(raw["time_j"]),
                label=0)  # placeholder; never read at inference time
        except KeyError as missing:
            raise ValueError(
                f"eap pair {number} lacks required field {missing}"
            ) from None
        except (TypeError, ValueError, OverflowError):
            raise ValueError(
                f"eap pair {number} has non-numeric time_i/time_j"
            ) from None
        if not (math.isfinite(pair.time_i) and math.isfinite(pair.time_j)):
            raise ValueError(f"eap pair {number} has non-finite "
                             f"time_i/time_j")
        pairs.append(pair)
    return pairs


def parse_count(request: dict, field: str, default: int | None = None
                ) -> int | None:
    """``request[field]`` as a count: a JSON integer of at least 1.

    An absent field gives ``default``.  Any other value — null, a bool, a
    float, a string, a list, an object, or an integer below 1 — raises
    ``ValueError``, which every frontend answers as a bad request.
    """
    if field not in request:
        return default
    value = request[field]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{request.get('op')} {field!r} must be an "
                         f"integer of at least 1, got {value!r}")
    return value


def round_rows(matrix) -> list[list[float]]:
    """``matrix`` as nested lists of floats rounded to 6 decimals.

    Every element equals ``round(float(x), 6)``, computed in one numpy
    pass: ``rint(x * 1e6) / 1e6`` agrees with it unless the product's
    rounding error changes how a tie breaks, which needs the scaled value
    within an ulp (under 1.2e-7 for ``|x| <= 1e3``) of a half-integer.
    Elements within 1e-6 of one, larger ones and non-finite ones take
    Python's ``round``.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        scaled = matrix * 1e6
        rows = (np.rint(scaled) / 1e6).tolist()
        exact = (np.abs(matrix) <= 1e3) & \
            (np.abs(scaled - np.floor(scaled) - 0.5) >= 1e-6)
    for i, j in zip(*np.nonzero(~exact)):
        rows[i][j] = round(float(matrix[i, j]), 6)
    return rows


def handle_request(service: FaultAnalysisService, request: dict,
                   deadline: Deadline | None = None) -> dict:
    """Dispatch one request dict to the service; returns the response.

    ``deadline`` (when given) is propagated into every service call, so
    the frontend's per-request budget bounds the retry and batcher waits
    underneath.  Raises ``ValueError`` on validation failures and
    whatever the service raises on exhaustion — converting those into
    the wire envelope is the transport's job (:func:`error_envelope`).
    """
    op = request.get("op")
    if op == "ping":
        return {"ok": True, "op": "ping"}
    if op == "embed":
        names = request.get("names")
        if not isinstance(names, list) or not names or \
                not all(isinstance(n, str) for n in names):
            raise ValueError("embed needs a non-empty 'names' string list")
        vectors = service.embed(names, deadline=deadline)
        return {"ok": True, "op": "embed", "embeddings": round_rows(vectors)}
    if op == "classify_fault":
        alarm = request.get("alarm")
        if not isinstance(alarm, str):
            raise ValueError("classify_fault needs an 'alarm' string")
        chain = service.classify_fault(
            alarm, top_k=parse_count(request, "top_k", 5), deadline=deadline)
        return {"ok": True, "op": "classify_fault", "next_hops": chain}
    if op == "rca":
        state = parse_rca_state(request)
        ranking = service.rank_root_causes(
            state, top_k=parse_count(request, "top_k"), deadline=deadline)
        return {"ok": True, "op": "rca",
                "ranking": [{"node": node, "score": round(float(score), 6)}
                            for node, score in ranking]}
    if op == "eap":
        verdicts = service.propagate_alarms(parse_eap_pairs(request),
                                            deadline=deadline)
        return {"ok": True, "op": "eap",
                "verdicts": [{"triggers": v["triggers"],
                              "confidence": round(float(v["confidence"]), 6)}
                             for v in verdicts]}
    if op in ("knn", "retrieve"):
        # knn request envelope:
        #   {"op": "knn", "names": [...], "k": 10, "nprobe": 4}
        # response:
        #   {"ok": true, "op": "knn",
        #    "neighbours": [[{"name": ..., "score": ...}, ...], ...]}
        # one neighbour list per query name, nearest first.
        names = request.get("names")
        if not isinstance(names, list) or not names or \
                not all(isinstance(n, str) for n in names):
            raise ValueError(f"{op} needs a non-empty 'names' string list")
        neighbours = service.retrieve(
            names, k=parse_count(request, "k", 10),
            nprobe=parse_count(request, "nprobe"), deadline=deadline)
        return {"ok": True, "op": op, "neighbours": neighbours}
    if op == "stats":
        stats = service.stats()
        return {"ok": True, "op": "stats",
                "requests": stats["requests"],
                "cache": stats["cache"],
                "latency": stats["latency"],
                "batcher": stats["batcher"]}
    raise ValueError(f"unknown op: {op!r}")


def error_envelope(error: BaseException | str, *, code: str | None = None,
                   request_id=None,
                   retry_after_s: float | None = None) -> dict:
    """The failure response shape shared by every frontend.

    With only ``error`` set this is byte-compatible with the historical
    stdin-loop envelope (``{"ok": false, "error": repr(error)}``); the
    socket server layers on ``code`` / ``retry_after_s`` / ``id``.
    """
    response: dict = {
        "ok": False,
        "error": error if isinstance(error, str) else repr(error),
    }
    if code is not None:
        response["code"] = code
    if retry_after_s is not None:
        response["retry_after_s"] = round(float(retry_after_s), 4)
    if request_id is not None:
        response["id"] = request_id
    return response


def failure_code(metrics: MetricsRegistry, error: Exception) -> str:
    """The error code of a request that raised ``error``; records it.

    A ``ValueError`` is the request's fault: ``bad_request``, counted in
    ``serving.bad_requests`` with a ``bad_request`` event.  An exhausted
    budget, or a degraded service with no fallback (``DeadlineExceeded``,
    ``FlushTimeout``, ``ServingError``), is ``unavailable``.  Anything
    else is ``internal``, with an ``internal_error`` event.  Both
    frontends classify through here and build their own envelopes.
    """
    if isinstance(error, ValueError):
        metrics.counter(mn.SERVING_BAD_REQUESTS).inc()
        metrics.emit("bad_request", error=repr(error))
        return CODE_BAD_REQUEST
    if isinstance(error, (DeadlineExceeded, FlushTimeout, ServingError)):
        return CODE_UNAVAILABLE
    metrics.emit("internal_error", error=repr(error))
    return CODE_INTERNAL


def dispatch_line(service: FaultAnalysisService, line: str) -> dict:
    """Parse and dispatch one JSON request line; never raises.

    This is the stdin loop's whole per-line pipeline: JSON parse, object
    check, :func:`handle_request`, :func:`failure_code` and the legacy
    error envelope.  The socket server shares the same parsing, dispatch
    and classification but builds richer envelopes (auth/admission), so
    it calls the pieces directly instead of this convenience wrapper.
    """
    try:
        request = json.loads(line)
        if not isinstance(request, dict):
            raise ValueError("request must be a JSON object")
        return handle_request(service, request)
    except Exception as error:  # noqa: BLE001 — reported, loop survives
        failure_code(service.metrics, error)
        return error_envelope(error)


def serve_loop(service: FaultAnalysisService, input_stream: IO[str],
               output_stream: IO[str]) -> int:
    """Run requests from ``input_stream`` until EOF; returns served count."""
    served = 0
    for line in input_stream:
        line = line.strip()
        if not line:
            continue
        response = dispatch_line(service, line)
        served += 1
        output_stream.write(json.dumps(response, ensure_ascii=False) + "\n")
        output_stream.flush()
    return served

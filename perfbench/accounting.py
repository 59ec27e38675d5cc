"""Per-layer self times from recorded spans, and the accounting check.

Each op's time is split along its critical path.  A span's self time is
its duration (clipped to its parent) minus the time its children cover;
the op's share of a layer is the self time of that layer's spans on the
op's path.  Time on the path that no named span claims is unattributed.

* Server ops run from the client's send to its receive.  The path is
  ``netserve.overhead`` (client latency minus ``handle_request``), the
  ``handle_request`` span tree (the retry pool keeps the caller's span as
  parent) and, under each ``serving.batcher.encode``, the batcher flushes
  that carried the call's names.  A flush shared by two requests lies on
  both paths, so it counts for both.
* Training ops are runtime steps, from one ``train_step`` to the next.
  The step's own glue (schedule advance, gradient reset) and the run
  loop's journal append and checkpoint cadence between steps are on the
  path; only the named spans inside it are attributed.

The self time of the container spans (``handle_request``, the service's
policy call and the provider's ``encode_names``) is reported, but it is
dispatch glue rather than the work of a layer, so it counts as
unattributed; so does a batcher call with no flush linked to it.
``netserve.overhead`` is the client latency outside ``handle_request``
and is charged to netserve.  On a training op the untraced glue between
the named spans shows.
"""

from __future__ import annotations

from collections import defaultdict

#: Span names reported by the benchmark, in BENCHMARK.json order.
SPANS = (
    "netserve.overhead", "netserve.handle_request", "serving.service.call",
    "serving.batcher.encode", "serving.batcher.flush",
    "serving.store.get_many", "serving.store.put_many", "models.encode",
    "tokenization.encode_batch", "models.embed", "nn.layer0", "nn.layer1",
    "index.add", "index.flush", "index.query", "tasks.rca", "tasks.eap",
    "tasks.fct", "training.draw_batches", "training.forward",
    "training.backward", "training.optimizer", "training.checkpoint",
)

#: Structural spans that mark an op but are not a layer of their own.
_UNNAMED = {"training.step"}
#: Containers whose self time is reported but left unattributed.
_GLUE = {"netserve.handle_request", "serving.service.call", "models.encode"}

#: Share of op time the named spans must explain.
CLOSES_AT = 0.90


class Span:
    __slots__ = ("name", "start", "end", "sid", "parent", "op", "extra")

    def __init__(self, row):
        (self.name, self.start, self.end, self.sid, self.parent, self.op,
         self.extra) = row


class _Walk:
    """Accumulates self time and distinct calls per span name."""

    def __init__(self, spans: list[Span]):
        self.children: dict[int, list[Span]] = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                self.children[span.parent].append(span)
        self.flushes_by_name: dict[str, list[Span]] = defaultdict(list)
        for span in spans:
            if span.name == "serving.batcher.flush":
                for name in span.extra:
                    self.flushes_by_name[name].append(span)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, set] = defaultdict(set)
        self.queue_wait_s = 0.0
        self.encode_calls = 0

    def carried_by(self, encode: Span) -> list[Span]:
        """The flushes that computed an encode call's names."""
        found = {}
        for name in set(encode.extra):
            for flush in self.flushes_by_name.get(name, ()):
                if encode.start <= flush.start <= encode.end:
                    found[flush.sid] = flush
        return sorted(found.values(), key=lambda s: s.start)

    def visit(self, span: Span, low: float, high: float) -> float:
        """Attributed seconds in ``span``'s subtree within [low, high]."""
        start, end = max(span.start, low), min(span.end, high)
        duration = max(0.0, end - start)
        kids = list(self.children.get(span.sid, ()))
        if span.name == "serving.batcher.encode":
            carried = self.carried_by(span)
            if not carried:
                # No flush carried these names, so nothing explains the
                # wait: leave it unattributed.
                return 0.0
            kids.extend(carried)
            self.encode_calls += 1
            before = sum(f.end - f.start for f in carried[:-1])
            self.queue_wait_s += max(0.0,
                                     carried[-1].start - span.start - before)
        covered = sum(self.visit(kid, start, end) for kid in kids)
        if span.name in _UNNAMED:
            return covered
        own = max(0.0, duration - covered)
        self.self_s[span.name] += own
        self.calls[span.name].add(span.sid)
        return covered if span.name in _GLUE else own + covered


def _layer_metrics(walk: _Walk, ops: int, op_time_s: float,
                   attributed_s: float) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = len(walk.calls.get(name, ())) / ops
        metrics[f"{name}.self_ms"] = walk.self_s.get(name, 0.0) * 1000 / ops
    metrics["index.flushes"] = len(walk.calls.get("index.flush", ()))
    metrics["serving.batcher.queue_wait_ms"] = (
        walk.queue_wait_s * 1000 / walk.encode_calls
        if walk.encode_calls else 0.0)
    metrics["trace.unattributed_share"] = max(
        0.0, (op_time_s - attributed_s) / op_time_s)
    return metrics


def serve_layers(rows: list, ops: dict) -> dict[str, float]:
    """Per-layer metrics of a traced server run.

    ``ops`` maps each measured request id to its client ``(send, recv)``
    timestamps; warm-up requests are left out of it and so of the result.
    """
    spans = [Span(row) for row in rows]
    walk = _Walk(spans)
    roots = {span.op: span for span in spans
             if span.name == "netserve.handle_request" and span.op in ops}
    if len(roots) != len(ops):
        raise ValueError(f"{len(ops) - len(roots)} measured request(s) have "
                         f"no handle_request span")
    op_time = attributed = 0.0
    for op, (sent, received) in ops.items():
        root = roots[op]
        latency = received - sent
        overhead = max(0.0, latency - (root.end - root.start))
        walk.self_s["netserve.overhead"] += overhead
        walk.calls["netserve.overhead"].add(("op", op))
        op_time += latency
        attributed += overhead + walk.visit(root, root.start, root.end)
    return _layer_metrics(walk, len(ops), op_time, attributed)


def train_layers(rows: list) -> dict[str, float]:
    """Per-layer metrics of a traced training run."""
    spans = [Span(row) for row in rows]
    walk = _Walk(spans)
    steps = sorted((s for s in spans if s.name == "training.step"),
                   key=lambda s: s.start)
    if len(steps) < 2:
        raise ValueError("traced training run recorded fewer than 2 steps")
    roots = sorted((s for s in spans if s.parent is None),
                   key=lambda s: s.start)
    op_time = attributed = 0.0
    cursor = 0
    for step, following in zip(steps, steps[1:]):
        low, high = step.start, following.start
        op_time += high - low
        while cursor < len(roots) and roots[cursor].start < low:
            cursor += 1
        while cursor < len(roots) and roots[cursor].start < high:
            attributed += walk.visit(roots[cursor], low, high)
            cursor += 1
    return _layer_metrics(walk, len(steps) - 1, op_time, attributed)

"""Run one ``repro`` CLI command with spans recorded around layer calls.

    PYTHONPATH=src python perfbench/traced.py SPANS.json -- serve-net ...

Wraps the public entry points of each layer at class (or module) level,
then enters ``repro.cli.main`` with the remaining arguments unchanged.
A span is ``(name, start, end, id, parent, op, extra)`` on the
``time.perf_counter`` clock, which on Linux is the system-wide monotonic
clock, so spans line up with the client's timestamps.  ``parent`` links
spans of one thread; work handed to the service's retry pool keeps its
caller's span as parent.  Spans stay in memory and are written to
SPANS.json, with the service's counters, when the command returns.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time


class Recorder:
    """In-memory span sink with a per-thread stack of open spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.services: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name, op=None, extra=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a callable of the call's arguments;
        ``op`` (callable) starts a new op id, else the parent's is kept;
        ``extra`` (callable) attaches a JSON-able payload.
        """
        original = getattr(owner, attr)
        spans, ids, stack_of = self.spans, self._ids, self.stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent, parent_op = stack[-1] if stack else (None, None)
            span_id = next(ids)
            span_op = op(args) if op is not None else parent_op
            stack.append((span_id, span_op))
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((name(args) if callable(name) else name, start,
                              end, span_id, parent, span_op,
                              extra(args) if extra is not None else None))

        setattr(owner, attr, wrapper)

    def propagate(self, owner, attr: str) -> None:
        """Make ``owner.attr(fn, ...)`` run ``fn`` under the caller's span."""
        original = getattr(owner, attr)
        stack_of = self.stack

        @functools.wraps(original)
        def submit(pool, fn, *args, **kwargs):
            caller = stack_of()
            if not caller:
                return original(pool, fn, *args, **kwargs)
            context = caller[-1]

            def run(*run_args, **run_kwargs):
                stack = stack_of()
                stack.append(context)
                try:
                    return fn(*run_args, **run_kwargs)
                finally:
                    stack.pop()

            return original(pool, run, *args, **kwargs)

        setattr(owner, attr, submit)

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        from repro.index.index import VectorIndex
        from repro.models.bert import BertEncoder
        from repro.netserve import protocol
        from repro.nn.transformer import TransformerEncoder, \
            TransformerEncoderLayer
        from repro.service.providers import KTeleBertProvider
        from repro.serving.batcher import MicroBatcher
        from repro.serving.pool import CancellableWorkerPool
        from repro.serving.service import FaultAnalysisService
        from repro.serving.store import EmbeddingStore
        from repro.tasks.eap.serve import EapAdapter
        from repro.tasks.fct.serve import FctAdapter
        from repro.tasks.rca.serve import RcaAdapter
        from repro.tensor.tensor import Tensor
        from repro.tokenization.tokenizer import WordTokenizer
        from repro.training.retrainer import KTeleBertRetrainer
        from repro.training.runtime import TrainingRuntime

        wrap = self.wrap
        # Serving path, outermost first.  The op id is the request's "id".
        wrap(protocol, "handle_request", "netserve.handle_request",
             op=lambda a: a[1].get("id") if isinstance(a[1], dict) else None)
        wrap(FaultAnalysisService, "_call_with_policy",
             "serving.service.call")
        self.propagate(CancellableWorkerPool, "submit")
        wrap(MicroBatcher, "encode", "serving.batcher.encode",
             extra=lambda a: list(a[1]))
        wrap(MicroBatcher, "_call_provider", "serving.batcher.flush",
             extra=lambda a: list(a[1].names))
        wrap(EmbeddingStore, "get_many", "serving.store.get_many")
        wrap(EmbeddingStore, "put_many", "serving.store.put_many")
        wrap(KTeleBertProvider, "encode_names", "models.encode")
        wrap(WordTokenizer, "encode_batch_with_tokens",
             "tokenization.encode_batch")
        wrap(WordTokenizer, "encode_batch", "tokenization.encode_batch")
        wrap(BertEncoder, "embed", "models.embed")
        layer_index: dict[int, int] = {}
        init = TransformerEncoder.__init__

        @functools.wraps(init)
        def index_layers(encoder, *args, **kwargs):
            init(encoder, *args, **kwargs)
            for position, layer in enumerate(encoder.layers):
                layer_index[id(layer)] = position

        TransformerEncoder.__init__ = index_layers
        wrap(TransformerEncoderLayer, "forward",
             lambda a: f"nn.layer{layer_index.get(id(a[0]), 'x')}")
        wrap(VectorIndex, "add", "index.add")
        wrap(VectorIndex, "flush", "index.flush")
        wrap(VectorIndex, "query", "index.query")
        wrap(RcaAdapter, "rank", "tasks.rca")
        wrap(EapAdapter, "predict", "tasks.eap")
        wrap(FctAdapter, "trace", "tasks.fct")
        # Training path: one op per runtime step.
        steps = itertools.count()
        wrap(TrainingRuntime, "train_step", "training.step",
             op=lambda a: next(steps))
        wrap(KTeleBertRetrainer, "draw_batches", "training.draw_batches")
        wrap(KTeleBertRetrainer, "compute_losses", "training.forward")
        wrap(Tensor, "backward", "training.backward")
        wrap(KTeleBertRetrainer, "finish_step", "training.optimizer")
        wrap(TrainingRuntime, "checkpoint", "training.checkpoint")

        service_init = FaultAnalysisService.__init__
        services = self.services

        @functools.wraps(service_init)
        def keep_service(service, *args, **kwargs):
            service_init(service, *args, **kwargs)
            services.append(service)

        FaultAnalysisService.__init__ = keep_service

    def dump(self, path: str) -> None:
        counters: dict[str, float] = {}
        for service in self.services:
            snapshot = service.metrics.snapshot()["counters"]
            for key, value in snapshot.items():
                counters[key] = counters.get(key, 0) + value
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": counters}, handle)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py SPANS.json -- <repro command> [args...]",
              file=sys.stderr)
        return 2
    recorder = Recorder()
    recorder.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[2:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

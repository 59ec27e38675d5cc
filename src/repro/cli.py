"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``reproduce``  regenerate one or all paper tables/figures
               (``--table 4`` or ``--table all``, ``--seeds 0,1``).
``pretrain``   run the full two-stage pipeline and save a KTeleBERT
               checkpoint directory.
``encode``     load a checkpoint and print service embeddings for texts.
``simulate``   generate a synthetic world + fault episodes and print stats.
``serve``      long-lived JSON-lines inference loop over stdin with dynamic
               micro-batching, a persistent embedding store, and a
               ``--stats`` metrics dump (see :mod:`repro.serving`).
``serve-net``  the same service behind a multi-client TCP socket frontend:
               per-tenant API keys with token-bucket rate limits and
               concurrency quotas, admission control with structured
               ``retry_after_s`` rejections, and graceful drain on
               SIGTERM (see :mod:`repro.netserve`).
``loadgen``    open/closed-loop traffic generator against a serve-net
               endpoint: configurable op mixes, bursty arrivals, latency/
               fairness reports, and ``--sweep`` latency-vs-load curves
               (see :mod:`repro.loadgen`).
``train``      run stage-2 re-training under the fault-tolerant runtime:
               atomic checkpoint/resume, optional multi-process gradient
               workers, SIGINT/SIGTERM trapped into a final checkpoint,
               and a JSONL run journal (see :mod:`repro.training.runtime`).
``lint``       repo-aware static analysis (:mod:`repro.lint`): concurrency,
               RNG discipline, atomic-IO, literal-drift and
               interprocedural flow rules; any finding fails the run
               unless a reasoned inline suppression accepts it.
``bench``      benchmark platform (:mod:`repro.bench`): ``check`` gates
               CI on out-of-tolerance regressions vs committed baselines,
               ``report`` renders trend tables + sparklines from the
               per-benchmark history, ``promote`` moves baselines
               intentionally (journaled), ``list`` shows the registry.
``index``      sharded mmap ANN retrieval tier (:mod:`repro.index`):
               ``build`` an index from an embedding store or a synthetic
               world, ``query`` top-k neighbours, ``stats`` geometry.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _parse_seeds(raw: str) -> list[int]:
    seeds = [int(part) for part in raw.split(",") if part.strip()]
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds given")
    return seeds


def _positive_float(raw: str) -> float:
    """Argparse type for strictly-positive float flags.

    Timeouts, backoffs, and rates silently misbehave at zero or below
    (a 0s backoff spins, a negative timeout raises deep inside the
    serving stack) — reject them at the parser with a clear message.
    """
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {raw!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {raw!r}")
    return value


def _positive_int(raw: str) -> int:
    """Argparse type for strictly-positive integer flags."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {raw!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {raw!r}")
    return value


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ExperimentPipeline,
        PipelineConfig,
        average_tables,
        format_table,
        run_fig10,
        run_table2,
        run_table3,
        run_table4,
        run_table5,
        run_table6,
        run_table7,
        run_table8,
    )

    single_seed = {"2": run_table2, "3": run_table3, "5": run_table5,
                   "7": run_table7}
    multi_seed = {"4": run_table4, "6": run_table6, "8": run_table8}
    targets = (list(single_seed) + list(multi_seed) + ["fig10"]
               if args.table == "all" else [args.table])

    pipelines = [ExperimentPipeline(PipelineConfig(seed=s))
                 for s in args.seeds]
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    for target in targets:
        if target in single_seed:
            result = single_seed[target](pipelines[0])
            text = format_table(result)
        elif target in multi_seed:
            runs = [multi_seed[target](p) for p in pipelines]
            text = format_table(average_tables(runs))
        elif target == "fig10":
            text = format_table(run_fig10(pipelines[0]).as_table(),
                                precision=4)
        else:
            print(f"unknown table: {target!r}", file=sys.stderr)
            return 2
        print(text)
        print()
        if out_dir:
            (out_dir / f"table_{target}.txt").write_text(
                text + "\n", encoding="utf-8")
    return 0


def _cmd_pretrain(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentPipeline, PipelineConfig
    from repro.models import save_ktelebert

    config = PipelineConfig(seed=args.seed,
                            stage1_steps=args.stage1_steps,
                            stage2_steps=args.stage2_steps)
    pipeline = ExperimentPipeline(config)
    model = {"stl": lambda: pipeline.ktelebert_stl,
             "pmtl": lambda: pipeline.ktelebert_pmtl,
             "imtl": lambda: pipeline.ktelebert_imtl}[args.strategy]()
    path = save_ktelebert(model, args.out)
    print(f"saved KTeleBERT ({args.strategy.upper()}) checkpoint to {path}")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    from repro.models import load_ktelebert
    from repro.netserve.protocol import round_rows

    model = load_ktelebert(args.checkpoint)
    texts = args.text or [line.strip() for line in sys.stdin
                          if line.strip()]
    if not texts:
        print("no input texts", file=sys.stderr)
        return 2
    vectors = round_rows(model.encode_texts(texts))
    for text, vector in zip(texts, vectors):
        payload = {"text": text, "embedding": vector}
        print(json.dumps(payload, ensure_ascii=False))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.kg import build_tele_kg
    from repro.world import TelecomWorld

    world = TelecomWorld.generate(seed=args.seed)
    episodes = world.simulate_episodes(args.episodes)
    kg = build_tele_kg(world)
    chains = [len(e.chain) for e in episodes]
    stats = {
        "alarms": len(world.ontology.alarms),
        "kpis": len(world.ontology.kpis),
        "network_elements": world.topology.num_nodes,
        "causal_edges": world.causal_graph.num_edges,
        "kg": kg.describe(),
        "episodes": len(episodes),
        "mean_chain_length": sum(chains) / len(chains),
        "log_records": sum(len(e.records) for e in episodes),
    }
    print(json.dumps(stats, indent=2))
    return 0


def _build_task_adapters(world_seed: int) -> dict:
    """Tiny-world rca/eap/fct adapters for checkpoint-free serving.

    The load generator samples request payloads from the same
    :func:`repro.world.serving_world`, so generator and server agree on
    node/alarm names by construction.
    """
    from repro.tasks.eap import EapAdapter, build_eap_dataset
    from repro.tasks.fct import FctAdapter, build_fct_dataset
    from repro.tasks.rca import RcaAdapter, build_rca_dataset
    from repro.world import serving_world

    world, episodes = serving_world(world_seed)
    return {"rca": RcaAdapter(build_rca_dataset(world, episodes), epochs=2),
            "eap": EapAdapter(build_eap_dataset(world, episodes), epochs=2),
            "fct": FctAdapter(build_fct_dataset(world, episodes), epochs=3)}


def _build_service(args: argparse.Namespace, adapters: dict | None = None):
    """Construct the FaultAnalysisService shared by serve and serve-net."""
    from repro.serving import (
        FaultAnalysisService,
        MetricsRegistry,
        ServiceConfig,
    )
    from repro.service import RandomProvider, WordEmbeddingProvider

    if args.checkpoint:
        from repro.models import checkpoint_fingerprint, load_ktelebert
        from repro.service import KTeleBertProvider

        model = load_ktelebert(args.checkpoint)
        provider = KTeleBertProvider(model, mode="name")
        fingerprint = checkpoint_fingerprint(args.checkpoint)
    else:
        # Stub encoder: deterministic random vectors.  Keeps the request
        # loop, batching, store, and metrics exercisable (smoke tests, CI)
        # without a pretrained checkpoint.
        provider = RandomProvider(dim=args.dim, seed=0)
        fingerprint = f"random-dim{args.dim}"

    fallback = None
    if args.fallback:
        fallback = WordEmbeddingProvider(dim=provider.dim, seed=0)
    config = ServiceConfig(max_batch_size=args.max_batch_size,
                           max_wait_ms=args.max_wait_ms,
                           timeout_s=args.timeout,
                           max_retries=args.retries,
                           backoff_s=args.backoff,
                           flush_timeout_s=args.flush_timeout,
                           close_timeout_s=args.close_timeout)
    index = None
    if getattr(args, "index", None):
        from repro.index import VectorIndex

        index = VectorIndex(args.index, fingerprint=fingerprint)
    return FaultAnalysisService(provider, fallback=fallback, config=config,
                                metrics=MetricsRegistry(),
                                store_dir=args.store,
                                fingerprint=fingerprint,
                                index=index,
                                **(adapters or {}))


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.netserve.protocol import serve_loop

    with _build_service(args) as service:
        metrics = service.metrics
        serve_loop(service, sys.stdin, sys.stdout)
        if args.stats:
            stats = service.stats()
            latency = stats["latency"]
            print(metrics.render(), file=sys.stderr)
            print(f"requests: {stats['requests']}", file=sys.stderr)
            print(f"cache hit rate: {stats['cache']['hit_rate']:.3f} "
                  f"(hits={stats['cache']['hits']} "
                  f"misses={stats['cache']['misses']})", file=sys.stderr)
            print(f"latency p50: {latency['p50'] * 1000:.3f}ms  "
                  f"p95: {latency['p95'] * 1000:.3f}ms  "
                  f"p99: {latency['p99'] * 1000:.3f}ms", file=sys.stderr)
    return 0


def _cmd_serve_net(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.netserve import (
        AdmissionConfig,
        AdmissionController,
        NetServeConfig,
        TeleServer,
        TenantRegistry,
    )

    if args.tenants:
        tenants = TenantRegistry.from_file(args.tenants)
    else:
        tenants = TenantRegistry.single(
            args.api_key, rate_per_s=args.rate, burst=args.burst,
            max_concurrency=args.max_concurrency)
    adapters = _build_task_adapters(args.world_seed) if args.adapters \
        else None

    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    with _build_service(args, adapters=adapters) as service:
        admission = AdmissionController(
            AdmissionConfig(max_inflight=args.max_inflight,
                            max_queue_depth=args.max_queue_depth,
                            min_headroom_s=args.min_headroom,
                            retry_after_s=args.retry_after),
            metrics=service.metrics,
            queue_depth_fn=lambda: service.batcher.stats()["pending"])
        config = NetServeConfig(host=args.host, port=args.port,
                                default_deadline_s=args.default_deadline,
                                close_timeout_s=args.close_timeout)
        with TeleServer(service, tenants, admission=admission,
                        config=config) as server:
            host, port = server.start()
            # Parsed by tooling (smoke test, loadgen wrappers) to
            # discover an ephemeral --port 0 binding; keep the shape.
            print(f"netserve listening on {host}:{port}", file=sys.stderr,
                  flush=True)
            while not stop.wait(0.5):
                pass
            print("netserve draining", file=sys.stderr, flush=True)
            drained = server.drain(args.close_timeout)
            if not drained:
                print(f"netserve drain timed out after "
                      f"{args.close_timeout:g}s", file=sys.stderr,
                      flush=True)
        if args.stats:
            print(service.metrics.render(), file=sys.stderr)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.loadgen import (
        LoadgenConfig,
        parse_mix,
        render_curve,
        run_load,
        sweep,
    )

    config = LoadgenConfig(
        host=args.host, port=args.port,
        api_keys=tuple(args.api_key or ["dev-key"]),
        mode=args.mode, duration_s=args.duration,
        rate_per_s=args.rate, workers=args.workers,
        concurrency=args.concurrency, mix=parse_mix(args.mix),
        bursty=args.bursty, burst_factor=args.burst_factor,
        seed=args.seed, world_seed=args.world_seed,
        timeout_s=args.timeout,
        deadline_ms=args.deadline_ms)
    if args.sweep:
        rates = [float(r) for r in args.sweep.split(",") if r.strip()]
        if not rates:
            print("--sweep needs a comma-separated rate list",
                  file=sys.stderr)
            return 2
        reports = sweep(config, rates)
        print(render_curve(reports))
        protocol_errors = sum(r.counts["protocol_error"] for r in reports)
        total = sum(r.total for r in reports)
    else:
        report = run_load(config)
        print(report.render())
        protocol_errors = report.counts["protocol_error"]
        total = report.total
    if total == 0:
        print("loadgen: no requests completed", file=sys.stderr)
        return 1
    if protocol_errors:
        print(f"loadgen: {protocol_errors} protocol error(s)",
              file=sys.stderr)
        return 1
    return 0


#: Model/data geometry presets for ``repro train``; kept deliberately coarse
#: so a run directory pins its build with a handful of JSON scalars.
_TRAIN_SIZES = {
    "smoke": {"alarms_per_theme": 2, "kpis_per_theme": 2,
              "topology_nodes": 8, "episodes": 4, "stage1_steps": 2,
              "d_model": 16, "num_layers": 1, "num_heads": 2, "d_ff": 32,
              "max_len": 24, "ke_negatives": 3},
    "small": {"alarms_per_theme": 3, "kpis_per_theme": 3,
              "topology_nodes": 12, "episodes": 8, "stage1_steps": 30,
              "d_model": 32, "num_layers": 2, "num_heads": 4, "d_ff": 64,
              "max_len": 32, "ke_negatives": 5},
    "full": {"alarms_per_theme": 4, "kpis_per_theme": 4,
             "topology_nodes": 20, "episodes": 16, "stage1_steps": 300,
             "d_model": 64, "num_layers": 2, "num_heads": 4, "d_ff": 128,
             "max_len": 48, "ke_negatives": 10},
}

#: The build-identity keys persisted to ``<run-dir>/config.json``.  Resuming
#: reuses the stored values so the rebuilt model/data match the snapshot.
_TRAIN_IDENTITY = ("seed", "size", "strategy", "steps", "batch_size",
                   "ke_batch_size", "learning_rate")


def _build_train_retrainer(config: dict):
    """Deterministically build a stage-2 retrainer from a config dict."""
    from repro.corpus import build_tele_corpus
    from repro.kg import build_tele_kg
    from repro.models import KTeleBert, KTeleBertConfig, TeleBertTrainer
    from repro.training import build_strategy
    from repro.training.retrainer import KTeleBertRetrainer
    from repro.training.stage2 import build_stage2_data
    from repro.world import TelecomWorld

    seed = config["seed"]
    size = _TRAIN_SIZES[config["size"]]
    world = TelecomWorld.generate(
        seed=seed, alarms_per_theme=size["alarms_per_theme"],
        kpis_per_theme=size["kpis_per_theme"],
        topology_nodes=size["topology_nodes"])
    corpus = build_tele_corpus(world, seed=seed)
    kg = build_tele_kg(world)
    episodes = world.simulate_episodes(size["episodes"])
    trainer = TeleBertTrainer(corpus.sentences, seed=seed,
                              d_model=size["d_model"],
                              num_layers=size["num_layers"],
                              num_heads=size["num_heads"], d_ff=size["d_ff"],
                              max_len=size["max_len"])
    trainer.train(steps=size["stage1_steps"])
    data = build_stage2_data(corpus, episodes, kg, seed=seed,
                             ke_negatives=size["ke_negatives"])
    model = KTeleBert.from_telebert(
        trainer,
        KTeleBertConfig(anenc_layers=1, anenc_meta=2, lora_rank=2,
                        ke_negatives=size["ke_negatives"]),
        tag_names=data.tag_names, normalizer=data.normalizer,
        extra_vocabulary=data.vocabulary(), seed=seed)
    strategy = build_strategy(config["strategy"], config["steps"])
    return KTeleBertRetrainer(model, data, strategy, seed=seed,
                              learning_rate=config["learning_rate"],
                              batch_size=config["batch_size"],
                              ke_batch_size=config["ke_batch_size"])


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.ioutil import atomic_write_bytes
    from repro.training.runtime import RuntimeConfig, TrainingRuntime

    run_dir = Path(args.run_dir)
    config = {"seed": args.seed, "size": args.size,
              "strategy": args.strategy, "steps": args.steps,
              "batch_size": args.batch_size,
              "ke_batch_size": args.ke_batch_size,
              "learning_rate": args.learning_rate}
    config_path = run_dir / "config.json"
    if config_path.exists():
        stored = json.loads(config_path.read_text(encoding="utf-8"))
        changed = [k for k in _TRAIN_IDENTITY if stored.get(k) != config[k]]
        if changed:
            print(f"note: reusing stored run config for {changed} "
                  f"(a run directory pins its build identity)",
                  file=sys.stderr)
        config = {k: stored[k] for k in _TRAIN_IDENTITY}
    else:
        run_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(config_path,
                           json.dumps(config, sort_keys=True).encode())

    print(f"building stage-2 pipeline (size={config['size']}, "
          f"seed={config['seed']}, strategy={config['strategy']}, "
          f"steps={config['steps']})", file=sys.stderr)
    retrainer = _build_train_retrainer(config)
    runtime = TrainingRuntime(retrainer, RuntimeConfig(
        run_dir=run_dir, workers=args.workers,
        checkpoint_every_steps=args.checkpoint_every,
        checkpoint_every_s=args.checkpoint_every_s,
        keep_last=args.keep_last,
        straggler_timeout_s=args.straggler_timeout,
        pool_retry_steps=args.pool_retry_steps,
        pool_max_failures=args.pool_max_failures))

    if runtime.journal.is_interrupted():
        print("journal shows an interrupted run; attempting resume",
              file=sys.stderr)
    resumed = runtime.resume_if_available()
    if resumed is not None:
        print(f"resumed from snapshot at step {resumed}", file=sys.stderr)

    log = runtime.run(max_steps=args.stop_after)
    step = retrainer.step_index
    total = retrainer.strategy.total_steps
    if runtime.interrupted:
        print(f"interrupted at step {step}/{total}; checkpoint written — "
              f"re-run the same command to resume", file=sys.stderr)
        return 130
    if step < total:
        # runtime.run() already checkpointed the max_steps exit.
        print(f"paused at step {step}/{total} (--stop-after); re-run to "
              f"resume", file=sys.stderr)
        return 0
    if args.export:
        from repro.models import save_ktelebert
        path = save_ktelebert(retrainer.model, args.export)
        print(f"exported KTeleBERT checkpoint to {path}", file=sys.stderr)
    final = log.total[-1] if log.total else float("nan")
    print(f"completed {step}/{total} steps; final loss {final:.4f}; "
          f"journal at {runtime.journal.path}", file=sys.stderr)
    return 0


def _add_serve_args(parser: argparse.ArgumentParser) -> None:
    """Service flags shared by ``serve`` (stdin) and ``serve-net`` (TCP)."""
    parser.add_argument("--checkpoint", default=None,
                        help="KTeleBERT checkpoint directory; omit for the "
                             "deterministic stub encoder")
    parser.add_argument("--dim", type=_positive_int, default=32,
                        help="embedding dim of the stub encoder")
    parser.add_argument("--store", default=None,
                        help="directory for the persistent embedding store")
    parser.add_argument("--index", default=None,
                        help="directory for the ANN vector index; enables "
                             "the knn/retrieve op (built or synced from "
                             "the store/provider, keyed by the checkpoint "
                             "fingerprint)")
    parser.add_argument("--max-batch-size", type=_positive_int, default=32)
    parser.add_argument("--max-wait-ms", type=_positive_float, default=5.0)
    parser.add_argument("--timeout", type=_positive_float, default=30.0,
                        help="per-attempt deadline in seconds (the total "
                             "request budget is timeout x (retries + 1) "
                             "plus backoff)")
    parser.add_argument("--retries", type=int, default=2)
    parser.add_argument("--backoff", type=_positive_float, default=0.05,
                        help="first-retry backoff in seconds; doubles per "
                             "attempt")
    parser.add_argument("--flush-timeout", type=_positive_float,
                        default=None,
                        help="watchdog bound on one encoder flush inside "
                             "the micro-batcher (seconds; defaults to "
                             "--timeout)")
    parser.add_argument("--close-timeout", type=_positive_float,
                        default=5.0,
                        help="upper bound on shutdown: a hung encoder "
                             "cannot hold process exit hostage longer "
                             "than this")
    parser.add_argument("--fallback", action="store_true",
                        help="degrade to a word-embedding provider when "
                             "the primary is exhausted")
    parser.add_argument("--stats", action="store_true",
                        help="dump the metrics registry to stderr at exit")


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Tele-Knowledge Pre-training for "
                    "Fault Analysis' (ICDE 2023)")
    sub = parser.add_subparsers(dest="command", required=True)

    reproduce = sub.add_parser("reproduce",
                               help="regenerate paper tables/figures")
    reproduce.add_argument("--table", default="all",
                           help="2,3,4,5,6,7,8, fig10, or all")
    reproduce.add_argument("--seeds", type=_parse_seeds, default=[0],
                           help="comma-separated seeds for result tables")
    reproduce.add_argument("--out", default=None,
                           help="directory to save rendered tables")
    reproduce.set_defaults(func=_cmd_reproduce)

    pretrain = sub.add_parser("pretrain",
                              help="run both stages, save a checkpoint")
    pretrain.add_argument("--out", required=True)
    pretrain.add_argument("--seed", type=int, default=0)
    pretrain.add_argument("--strategy", choices=("stl", "pmtl", "imtl"),
                          default="pmtl")
    pretrain.add_argument("--stage1-steps", type=int, default=300)
    pretrain.add_argument("--stage2-steps", type=int, default=300)
    pretrain.set_defaults(func=_cmd_pretrain)

    encode = sub.add_parser("encode",
                            help="service embeddings from a checkpoint")
    encode.add_argument("--checkpoint", required=True)
    encode.add_argument("--text", action="append",
                        help="repeatable; reads stdin when omitted")
    encode.set_defaults(func=_cmd_encode)

    simulate = sub.add_parser("simulate",
                              help="generate a world and print statistics")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--episodes", type=int, default=50)
    simulate.set_defaults(func=_cmd_simulate)

    serve = sub.add_parser("serve",
                           help="JSON-lines inference loop over stdin")
    _add_serve_args(serve)
    serve.set_defaults(func=_cmd_serve)

    serve_net = sub.add_parser(
        "serve-net",
        help="TCP socket frontend with tenant auth and admission control")
    _add_serve_args(serve_net)
    serve_net.add_argument("--host", default="127.0.0.1")
    serve_net.add_argument("--port", type=int, default=0,
                           help="0 binds an ephemeral port; the bound "
                                "address is printed to stderr as "
                                "'netserve listening on HOST:PORT'")
    serve_net.add_argument("--tenants", default=None,
                           help="JSON tenant config file "
                                "({'tenants': [...]}); omit for a single "
                                "tenant built from --api-key/--rate/"
                                "--burst/--max-concurrency")
    serve_net.add_argument("--api-key", default="dev-key",
                           help="single-tenant API key (without --tenants)")
    serve_net.add_argument("--rate", type=float, default=0.0,
                           help="single-tenant sustained requests/s "
                                "(0 = unlimited)")
    serve_net.add_argument("--burst", type=_positive_int, default=1,
                           help="single-tenant token-bucket burst size")
    serve_net.add_argument("--max-concurrency", type=int, default=0,
                           help="single-tenant concurrent-request quota "
                                "(0 = unlimited)")
    serve_net.add_argument("--max-inflight", type=_positive_int,
                           default=64,
                           help="admission: total requests executing at "
                                "once")
    serve_net.add_argument("--max-queue-depth", type=_positive_int,
                           default=256,
                           help="admission: reject when this many names "
                                "are queued behind the batcher")
    serve_net.add_argument("--min-headroom", type=float, default=0.01,
                           help="admission: reject requests with less "
                                "deadline headroom than this (seconds)")
    serve_net.add_argument("--retry-after", type=_positive_float,
                           default=0.1,
                           help="retry_after_s hint on non-rate-limit "
                                "rejections (seconds)")
    serve_net.add_argument("--default-deadline", type=_positive_float,
                           default=30.0,
                           help="budget for requests without deadline_ms "
                                "(seconds)")
    serve_net.add_argument("--adapters", action="store_true",
                           help="fit tiny-world rca/eap/fct adapters so "
                                "task ops answer without a checkpoint")
    serve_net.add_argument("--world-seed", type=int, default=11,
                           help="seed for --adapters (match loadgen's "
                                "--world-seed)")
    serve_net.set_defaults(func=_cmd_serve_net)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive open/closed-loop traffic at a netserve endpoint")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=_positive_int, required=True)
    loadgen.add_argument("--api-key", action="append", default=None,
                         help="repeatable; one tenant per key "
                              "(default dev-key)")
    loadgen.add_argument("--mode", choices=("open", "closed"),
                         default="open")
    loadgen.add_argument("--duration", type=_positive_float, default=5.0,
                         help="run window in seconds")
    loadgen.add_argument("--rate", type=_positive_float, default=50.0,
                         help="open-loop offered requests/s")
    loadgen.add_argument("--workers", type=_positive_int, default=4,
                         help="open-loop sender threads")
    loadgen.add_argument("--concurrency", type=_positive_int, default=4,
                         help="closed-loop concurrent workers")
    loadgen.add_argument("--mix", default="embed=1",
                         help="op mix, e.g. 'embed=8,fct=2' over "
                              "embed/rca/eap/fct")
    loadgen.add_argument("--bursty", action="store_true",
                         help="half-second on/off arrival windows")
    loadgen.add_argument("--burst-factor", type=_positive_float,
                         default=4.0,
                         help="on-window rate multiplier with --bursty")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--world-seed", type=int, default=11,
                         help="world seed for rca/eap/fct payloads "
                              "(match serve-net --world-seed)")
    loadgen.add_argument("--timeout", type=_positive_float, default=10.0,
                         help="client-side socket timeout per request")
    loadgen.add_argument("--deadline-ms", type=_positive_float,
                         default=None,
                         help="per-request deadline_ms sent to the server")
    loadgen.add_argument("--sweep", default=None,
                         help="comma-separated offered rates; prints the "
                              "latency-vs-load curve instead of one run")
    loadgen.set_defaults(func=_cmd_loadgen)

    train = sub.add_parser(
        "train",
        help="stage-2 re-training under the fault-tolerant runtime")
    train.add_argument("--run-dir", required=True,
                       help="directory for snapshots, journal, and config")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--size", choices=sorted(_TRAIN_SIZES),
                       default="small",
                       help="model/data geometry preset")
    train.add_argument("--strategy", choices=("stl", "pmtl", "imtl"),
                       default="pmtl")
    train.add_argument("--steps", type=int, default=60,
                       help="total stage-2 steps in the schedule")
    train.add_argument("--batch-size", type=int, default=8)
    train.add_argument("--ke-batch-size", type=int, default=4)
    train.add_argument("--learning-rate", type=float, default=1e-3)
    train.add_argument("--workers", type=int, default=1,
                       help="gradient worker processes (1 = serial)")
    train.add_argument("--checkpoint-every", type=int, default=25,
                       help="snapshot cadence in steps")
    train.add_argument("--checkpoint-every-s", type=float, default=None,
                       help="additional snapshot cadence in seconds")
    train.add_argument("--keep-last", type=int, default=3,
                       help="snapshots retained besides the best-loss one")
    train.add_argument("--straggler-timeout", type=float, default=120.0,
                       help="seconds to wait for a gradient worker")
    train.add_argument("--pool-retry-steps", type=int, default=50,
                       help="serial steps after a pool failure before "
                            "rebuilding the worker pool (0 = never retry)")
    train.add_argument("--pool-max-failures", type=int, default=3,
                       help="consecutive pool failures before parallelism "
                            "is disabled for the rest of the run")
    train.add_argument("--stop-after", type=int, default=None,
                       help="pause (with checkpoint) after N steps; used by "
                            "the train-smoke interrupt/resume cycle")
    train.add_argument("--export", default=None,
                       help="save a serving checkpoint here on completion")
    train.set_defaults(func=_cmd_train)

    lint = sub.add_parser(
        "lint",
        help="repo-aware static analysis over src/repro (repro.lint)")
    lint.add_argument("lint_args", nargs=argparse.REMAINDER,
                      help="forwarded to the lint driver — e.g. "
                           "--format json, --max-seconds 10, "
                           "--list-rules")

    bench = sub.add_parser(
        "bench",
        help="benchmark platform: regression gate, trend reports, "
             "baseline promotion (repro.bench)")
    bench.add_argument("bench_args", nargs=argparse.REMAINDER,
                       help="forwarded to the bench driver — "
                            "check | report | promote | list, e.g. "
                            "'check --names train_step'")

    index = sub.add_parser(
        "index",
        help="sharded mmap ANN retrieval tier: build | query | stats "
             "(repro.index)")
    index.add_argument("index_args", nargs=argparse.REMAINDER,
                       help="forwarded to the index driver — "
                            "build | query | stats, e.g. "
                            "'build --dir idx --synthetic 10000'")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Forwarded verbatim, before argparse: REMAINDER refuses option-like
    # leading arguments, and each sub-driver owns its own subcommands and
    # --help.  The subparsers in build_parser() only list these commands
    # in --help.  Only the driver that runs is imported: the stdlib-only
    # linter must not pull in the index's numpy.
    if argv[:1] == ["lint"]:
        from repro.lint import lint_main

        return lint_main(argv[1:])
    if argv[:1] == ["bench"]:
        from repro.bench import bench_main

        return bench_main(argv[1:])
    if argv[:1] == ["index"]:
        from repro.index import index_main

        return index_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

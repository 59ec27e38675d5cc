"""``python -m repro index`` — build, query, and inspect the ANN tier.

Same sub-driver pattern as ``repro lint`` / ``repro bench``: the top
level CLI forwards everything after ``index`` verbatim, and this module
owns its own subcommands and ``--help``.

Subcommands
-----------
``build``   build (or rebuild) an index directory, either from a
            persistent :class:`~repro.serving.store.EmbeddingStore`
            namespace or from a seeded synthetic entity world.
``query``   top-k neighbours for stored entity names (their stored
            vectors become the queries), printed as JSON lines.
``stats``   manifest geometry + counters as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.index.index import DEFAULT_NUM_SHARDS, VectorIndex
from repro.index.provider import build_from_store


def _cmd_build(args: argparse.Namespace) -> int:
    if bool(args.store) == bool(args.synthetic):
        print("index build: give exactly one of --store or --synthetic",
              file=sys.stderr)
        return 2
    index = VectorIndex(args.dir, fingerprint=args.fingerprint,
                        num_shards=args.num_shards, nlist=args.nlist,
                        nprobe=args.nprobe, seed=args.seed)
    if args.store:
        from repro.serving.store import EmbeddingStore

        store = EmbeddingStore(args.store, fingerprint=args.fingerprint,
                               label=args.label, mode=args.mode)
        if not len(store):
            print(f"index build: store at {args.store} holds no names in "
                  f"namespace ({args.fingerprint!r}, {args.label!r}, "
                  f"{args.mode!r})", file=sys.stderr)
            return 1
        count = build_from_store(index, store)
    else:
        from repro.index.synthetic import synthetic_world

        names, matrix = synthetic_world(args.synthetic, args.dim,
                                        seed=args.seed)
        count = index.build({name: matrix[i]
                             for i, name in enumerate(names)})
    stats = index.stats()
    print(json.dumps({"built": count, "dir": str(index.directory),
                      "generation": stats["generation"],
                      "shard_counts": stats["shard_counts"]}))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    index = VectorIndex(args.dir, fingerprint=args.fingerprint)
    if not args.name:
        print("index query: give at least one --name", file=sys.stderr)
        return 2
    exit_code = 0
    for name in args.name:
        vector = index.get(name)
        if vector is None:
            print(json.dumps({"query": name, "error": "unknown name"}))
            exit_code = 1
            continue
        [hits] = index.query(vector, k=args.k, nprobe=args.nprobe)
        print(json.dumps({"query": name,
                          "neighbours": [{"name": n, "score": round(s, 6)}
                                         for n, s in hits]}))
    return exit_code


def _cmd_stats(args: argparse.Namespace) -> int:
    index = VectorIndex(args.dir, fingerprint=args.fingerprint)
    print(json.dumps(index.stats(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``repro index`` subcommand family."""
    parser = argparse.ArgumentParser(
        prog="repro index",
        description="sharded mmap ANN retrieval tier (repro.index)")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build or rebuild an index")
    build.add_argument("--dir", required=True,
                       help="index directory (manifest + shard files)")
    build.add_argument("--store", default=None,
                       help="EmbeddingStore directory to ingest")
    build.add_argument("--synthetic", type=int, default=None,
                       help="build from N synthetic clustered entities "
                            "instead of a store")
    build.add_argument("--dim", type=int, default=32,
                       help="synthetic vector dim")
    build.add_argument("--fingerprint", default="unversioned",
                       help="checkpoint fingerprint namespace")
    build.add_argument("--label", default="provider",
                       help="store namespace: provider label")
    build.add_argument("--mode", default="name",
                       help="store namespace: encode mode")
    build.add_argument("--num-shards", type=int,
                       default=DEFAULT_NUM_SHARDS)
    build.add_argument("--nlist", type=int, default=None,
                       help="coarse clusters per shard "
                            "(default: sqrt rule)")
    build.add_argument("--nprobe", type=int, default=4,
                       help="default clusters probed per shard at query "
                            "time")
    build.add_argument("--seed", type=int, default=0)
    build.set_defaults(func=_cmd_build)

    query = sub.add_parser("query",
                           help="top-k neighbours of stored names")
    query.add_argument("--dir", required=True)
    query.add_argument("--fingerprint", default="unversioned")
    query.add_argument("--name", action="append",
                       help="repeatable; stored entity name to query by")
    query.add_argument("--k", type=int, default=10)
    query.add_argument("--nprobe", type=int, default=None,
                       help="override the index's default probe width")
    query.set_defaults(func=_cmd_query)

    stats = sub.add_parser("stats", help="manifest geometry + counters")
    stats.add_argument("--dir", required=True)
    stats.add_argument("--fingerprint", default="unversioned")
    stats.set_defaults(func=_cmd_stats)
    return parser


def index_main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro index``."""
    args = build_parser().parse_args(argv)
    return args.func(args)


__all__ = ["build_parser", "index_main"]

"""Sharded, memory-mapped ANN retrieval tier (ROADMAP item 2).

The paper's fault-analysis tasks (Sec. V) all reduce to "given an
embedded alarm/log/KPI, which known entities sit nearest?"  The
JSONL+LRU :class:`~repro.serving.store.EmbeddingStore` answers *point*
lookups by name; this package answers *neighbourhood* queries at KG
scale:

* :mod:`repro.index.ivf` — deterministic coarse k-means (the IVF
  cluster geometry);
* :mod:`repro.index.shards` — hash-sharded on-disk format: contiguous
  cluster-grouped float32 ``.npy`` (served via ``mmap``) + JSON name
  table sidecar, written through the repo's atomic temp+fsync+rename
  discipline;
* :mod:`repro.index.index` — :class:`VectorIndex`: generation-tagged
  crash-safe rebuilds, ``nprobe``-tunable top-k cosine queries, an
  incremental ``add()`` buffer folded in on ``flush()``, and
  :func:`build_from_store` bulk ingestion from an embedding store keyed
  by the same checkpoint fingerprint;
* :mod:`repro.index.synthetic` — seeded clustered entity worlds for
  benchmarks and smoke tests;
* :mod:`repro.index.cli` — ``python -m repro index build|query|stats``.
"""

from repro.index.index import (
    DEFAULT_NUM_SHARDS,
    FingerprintMismatch,
    IndexCorrupt,
    VectorIndex,
    build_from_store,
    default_nlist,
)
from repro.index.ivf import coarse_cluster
from repro.index.shards import shard_for_name
from repro.index.synthetic import (
    exact_topk,
    synthetic_queries,
    synthetic_world,
)
from repro.index.cli import index_main

__all__ = [
    "DEFAULT_NUM_SHARDS",
    "FingerprintMismatch",
    "IndexCorrupt",
    "VectorIndex",
    "build_from_store",
    "coarse_cluster",
    "default_nlist",
    "exact_topk",
    "index_main",
    "shard_for_name",
    "synthetic_queries",
    "synthetic_world",
]

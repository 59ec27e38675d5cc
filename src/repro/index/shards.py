"""On-disk shard format for the mmap ANN index.

One shard is two files, both written through :mod:`repro.ioutil`'s
temp+fsync+rename discipline so readers only ever see complete artifacts:

``shard-<generation>-<shard>.npy``
    Contiguous ``(n, dim)`` float32 matrix of L2-normalised vectors, rows
    grouped by coarse cluster (cluster *c* occupies the half-open row
    range ``[offsets[c], offsets[c + 1])``).  Loaded with
    ``np.load(..., mmap_mode="r")`` — queries touch only the probed
    clusters' pages, so a shard far larger than RAM still serves.

``shard-<generation>-<shard>.meta.json``
    Sidecar name table and cluster geometry: row-ordered ``names``,
    ``centroids`` (``(k, dim)`` list), and ``offsets`` (``k + 1`` row
    boundaries).

Files are generation-tagged: a rebuild writes a *new* generation's files
and only then swaps the manifest, so a crash mid-rebuild leaves the old
generation fully intact and referenced (see :mod:`repro.index.index`).
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.ioutil import atomic_write_bytes, atomic_write_text

from repro.index.ivf import coarse_cluster


def shard_for_name(name: str, num_shards: int) -> int:
    """Deterministic, process-stable shard assignment for ``name``.

    ``hash()`` is salted per interpreter (PYTHONHASHSEED), so shard
    routing uses a keyed-off blake2b digest instead — the same name maps
    to the same shard in every process that ever touches the index.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards


def shard_stem(generation: int, shard: int) -> str:
    """File stem for one shard of one generation."""
    return f"shard-{generation:06d}-{shard:04d}"


@dataclass
class ShardData:
    """One loaded shard: mmap vectors + names + cluster geometry."""

    vectors: np.ndarray                 # (n, dim) float32, mmap-backed
    names: list[str]                    # row-ordered
    centroids: np.ndarray               # (k, dim) float32
    offsets: np.ndarray                 # (k + 1,) int64 row boundaries
    stem: str = ""
    name_rows: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self.name_rows = {name: row for row, name in enumerate(self.names)}
        # Re-view the memmap as a plain ndarray sharing the same pages:
        # ndarray.__getitem__ on the subclass pays ~µs of bookkeeping per
        # slice, which dominates probe-sized reads on the query hot path.
        self.vectors = np.asarray(self.vectors)

    def __len__(self) -> int:
        return len(self.names)


def write_shard(directory: str | Path, stem: str, names: list[str],
                vectors: np.ndarray, nlist: int, seed: int = 0) -> ShardData:
    """Cluster, lay out, and durably write one shard; returns the
    :class:`ShardData` it wrote, as :func:`read_shard` would load it
    (vectors memory-mapped from the new ``.npy``), so a caller never
    re-reads the sidecar it just wrote.

    ``vectors`` must be L2-normalised float32 rows aligned with ``names``.
    Rows are regrouped cluster-contiguously before writing so a probed
    cluster is one contiguous (page-friendly) mmap slice.
    """
    directory = Path(directory)
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    if vectors.ndim != 2 or vectors.shape[0] != len(names):
        raise ValueError(f"shard {stem}: vectors must be one row per name "
                         f"(got {vectors.shape} for {len(names)} names)")
    centroids, assignments = coarse_cluster(vectors, nlist, seed=seed)
    order = np.argsort(assignments, kind="stable")
    vectors = vectors[order]
    names = [names[i] for i in order]
    counts = np.bincount(assignments, minlength=centroids.shape[0])
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)

    buffer = io.BytesIO()
    np.save(buffer, vectors)
    atomic_write_bytes(directory / f"{stem}.npy", buffer.getvalue())
    meta = {
        "names": names,
        "centroids": centroids.astype(np.float64).tolist(),
        "offsets": offsets.tolist(),
    }
    atomic_write_text(directory / f"{stem}.meta.json",
                      json.dumps(meta, ensure_ascii=False))
    return ShardData(vectors=np.load(directory / f"{stem}.npy",
                                     mmap_mode="r"),
                     names=names, centroids=centroids, offsets=offsets,
                     stem=stem)


def read_shard(directory: str | Path, stem: str) -> ShardData:
    """Load one shard, vectors memory-mapped read-only."""
    directory = Path(directory)
    vectors = np.load(directory / f"{stem}.npy", mmap_mode="r")
    meta = json.loads(
        (directory / f"{stem}.meta.json").read_text(encoding="utf-8"))
    centroids = np.asarray(meta["centroids"], dtype=np.float32)
    offsets = np.asarray(meta["offsets"], dtype=np.int64)
    names = list(meta["names"])
    if vectors.shape[0] != len(names):
        raise ValueError(f"shard {stem}: {vectors.shape[0]} vectors but "
                         f"{len(names)} names — corrupt sidecar")
    if centroids.size and int(offsets[-1]) != vectors.shape[0]:
        raise ValueError(f"shard {stem}: cluster offsets do not cover the "
                         f"vector rows")
    return ShardData(vectors=vectors, names=names, centroids=centroids,
                     offsets=offsets, stem=stem)


__all__ = ["ShardData", "read_shard", "shard_for_name", "shard_stem",
           "write_shard"]

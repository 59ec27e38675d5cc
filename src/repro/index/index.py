"""Sharded, memory-mapped ANN vector index (pure numpy).

The retrieval tier ROADMAP item 2 calls for: entity embeddings live in
hash-sharded, IVF-coarse-clustered, contiguous float32 ``.npy`` files
served through ``mmap`` (:mod:`repro.index.shards`), so a knowledge graph
of millions of entities answers top-k nearest-neighbour queries without
ever materialising the full matrix in RAM.

Geometry is cosine: every stored vector and every query is L2-normalised
and similarity is the dot product (higher = closer).  A query probes the
``nprobe`` coarse clusters per shard whose centroids score highest and
scans those rows *exactly*, so ``nprobe`` is the recall↔speed knob; when
the probed clusters hold fewer than ``k`` candidates the probe order is
extended automatically (small shards degrade to exact scan, never to an
empty answer).

Durability follows the repo's atomic-write discipline
(:mod:`repro.ioutil`): every build/flush writes a *new generation* of
shard files, fsyncs them, and only then atomically replaces
``manifest.json`` — the single commit point.  A process killed anywhere
mid-rebuild leaves the previous generation complete and referenced;
superseded generations are garbage-collected on the next successful
commit.

Incremental growth goes through :meth:`VectorIndex.add`, an in-memory
buffer that answers queries brute-force immediately and folds into the
affected shards' clustered files on :meth:`VectorIndex.flush`.  A fold
leaves its rows in the buffer until the commit that publishes them, so
no query, membership test or ``get`` misses a row mid-fold.
:func:`build_from_store` bulk-loads an index from an
:class:`~repro.serving.store.EmbeddingStore`.  Serving imports this
module, so it names the store only as an annotation (under
``TYPE_CHECKING``) and never imports :mod:`repro.serving` at run time.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.ioutil import atomic_write_text

from repro.index.shards import (
    ShardData,
    read_shard,
    shard_for_name,
    shard_stem,
    write_shard,
)

if TYPE_CHECKING:
    from repro.serving.store import EmbeddingStore

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1

#: Default shard fan-out.  Query cost grows with the shard count (each
#: shard is probed independently), so the default stays small; builds at
#: true million-entity scale raise it for rebuild granularity.
DEFAULT_NUM_SHARDS = 4
#: Upper bound on coarse clusters per shard.
MAX_NLIST = 1024
#: Store names read per ``get_many`` batch by :func:`build_from_store`.
INGEST_BATCH = 2048


def default_nlist(shard_count: int) -> int:
    """Default coarse cluster count for one shard of ``n`` rows.

    ``4 * sqrt(n)`` (capped at :data:`MAX_NLIST`): denser than the
    classic ``sqrt`` rule, because the probed-cell scan here is a single
    concatenated matvec whose cost tracks *rows gathered* — smaller
    cells cut gathered rows 4x while global-top-``nprobe`` selection
    keeps the cells that matter.
    """
    if shard_count <= 1:
        return 1
    return int(min(MAX_NLIST,
                   max(1, round(4.0 * float(shard_count) ** 0.5))))


def _normalise_rows(matrix: np.ndarray) -> np.ndarray:
    matrix = np.ascontiguousarray(matrix, dtype=np.float32)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norms, 1e-12)


class _ProbePlan:
    """Query-time view of the committed shards.

    All shards' coarse centroids concatenated into one matrix, each row
    mapped back to its owning shard and contiguous row range.  Built once
    per commit (shards are immutable between commits) so the per-query
    probe is a single matvec + a single argpartition across *all* shards
    instead of one pair per shard — at a handful of numpy calls per
    query, call count is what the hot path pays for.
    """

    __slots__ = ("shards", "centroids", "owner", "starts", "ends")

    def __init__(self, shards: list[ShardData]):
        self.shards = shards
        self.centroids = (np.concatenate([s.centroids for s in shards])
                          if len(shards) > 1 else shards[0].centroids)
        self.owner = np.concatenate(
            [np.full(s.centroids.shape[0], pos, dtype=np.int64)
             for pos, s in enumerate(shards)])
        self.starts = np.concatenate([s.offsets[:-1] for s in shards])
        self.ends = np.concatenate([s.offsets[1:] for s in shards])

    @property
    def ncells(self) -> int:
        return int(self.starts.shape[0])


class IndexCorrupt(RuntimeError):
    """The on-disk manifest/shard set failed validation on open."""


class FingerprintMismatch(RuntimeError):
    """The index was built under a different checkpoint fingerprint."""


class VectorIndex:
    """Sharded mmap IVF index over named embedding vectors.

    Parameters
    ----------
    directory:
        Home of ``manifest.json`` and the shard files.  An existing
        manifest is loaded eagerly; a missing one starts the index empty
        (the first :meth:`build`/:meth:`flush` creates it).
    fingerprint:
        Checkpoint namespace the vectors belong to (same role as
        :class:`~repro.serving.store.EmbeddingStore`'s).  Opening a
        directory built under a different fingerprint raises
        :class:`FingerprintMismatch` — stale geometry is never served.
    num_shards / nlist / nprobe:
        Build-time fan-out, coarse clusters per shard (``None`` =
        ``sqrt`` rule), and the default probe width for queries.
    """

    def __init__(self, directory: str | Path, *,
                 fingerprint: str = "unversioned",
                 num_shards: int = DEFAULT_NUM_SHARDS,
                 nlist: int | None = None, nprobe: int = 4,
                 seed: int = 0):
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        if nprobe < 1:
            raise ValueError("nprobe must be positive")
        if nlist is not None and nlist < 1:
            raise ValueError("nlist must be positive when given")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fingerprint = fingerprint
        self.num_shards = num_shards
        self.nlist = nlist
        self.nprobe = nprobe
        self.seed = seed
        self.dim: int | None = None
        self._lock = threading.RLock()
        self._rebuild_lock = threading.Lock()
        self._generation = 0
        self._shards: list[ShardData | None] = [None] * num_shards
        self._probe_plan: _ProbePlan | None = None
        self._pending: dict[str, np.ndarray] = {}
        # (names, stacked rows or None, name set) of ``_pending``: built
        # by the first query after a change, like ``_probe_plan``.
        self._pending_view: tuple[list[str], np.ndarray | None,
                                  set[str]] | None = None
        # Buffered rows the fold in flight carries (0 when none).
        self._folding = 0
        self._counters = {"queries": 0, "adds": 0, "flushes": 0,
                          "builds": 0, "rows_scanned": 0}
        self._load_manifest()

    # ------------------------------------------------------------------
    # Manifest / durability
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def _load_manifest(self) -> None:
        if not self.manifest_path.exists():
            return
        try:
            manifest = json.loads(
                self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise IndexCorrupt(f"unreadable manifest: {error}") from error
        if manifest.get("version") != MANIFEST_VERSION:
            raise IndexCorrupt(
                f"manifest version {manifest.get('version')!r} is not "
                f"{MANIFEST_VERSION}")
        stored = manifest.get("fingerprint", "unversioned")
        if stored != self.fingerprint:
            raise FingerprintMismatch(
                f"index at {self.directory} was built under fingerprint "
                f"{stored!r}, not {self.fingerprint!r} — rebuild it")
        self.num_shards = int(manifest["num_shards"])
        self.dim = int(manifest["dim"]) if manifest.get("dim") else None
        self._generation = int(manifest.get("generation", 0))
        shards: list[ShardData | None] = []
        try:
            for entry in manifest["shards"]:
                if entry and entry.get("stem"):
                    shards.append(read_shard(self.directory, entry["stem"]))
                else:
                    shards.append(None)
        except (OSError, ValueError, KeyError) as error:
            raise IndexCorrupt(
                f"shard files do not match the manifest: {error}"
            ) from error
        if len(shards) != self.num_shards:
            raise IndexCorrupt(
                f"manifest names {len(shards)} shards, expected "
                f"{self.num_shards}")
        self._shards = shards

    def _commit(self, shards: list[ShardData | None], generation: int,
                carried: dict[str, np.ndarray] | None) -> None:
        """Atomically publish ``shards`` as generation ``generation``.

        ``carried`` holds the buffered entries this generation folds in:
        in the same ``_lock`` acquisition that swaps the shards, each is
        dropped from the buffer unless re-added since (a re-add is a new
        array, which keeps shadowing the shard row).  ``None`` (a build)
        empties the buffer.  Until then queries, ``in`` and :meth:`get`
        answer the rows from the buffer.
        """
        manifest = {
            "version": MANIFEST_VERSION,
            "generation": generation,
            "fingerprint": self.fingerprint,
            "metric": "cosine",
            "dim": self.dim,
            "num_shards": self.num_shards,
            "count": sum(len(s) for s in shards if s is not None),
            "shards": [({"stem": s.stem, "count": len(s)}
                        if s is not None else {"stem": None, "count": 0})
                       for s in shards],
        }
        atomic_write_text(self.manifest_path,
                          json.dumps(manifest, ensure_ascii=False,
                                     indent=2) + "\n")
        with self._lock:
            self._shards = shards
            self._probe_plan = None
            self._generation = generation
            if carried is None:
                self._pending.clear()
            else:
                for name, vector in carried.items():
                    if self._pending.get(name) is vector:
                        del self._pending[name]
                self._folding = 0
            self._pending_view = None
        self._prune_generations({s.stem for s in shards if s is not None})

    def _prune_generations(self, live_stems: set[str]) -> None:
        """Best-effort GC of shard files no manifest references."""
        for path in self.directory.glob("shard-*"):
            stem = path.name
            for suffix in (".meta.json", ".npy"):
                if stem.endswith(suffix):
                    stem = stem[: -len(suffix)]
                    break
            if stem not in live_stems:
                try:
                    path.unlink()
                except OSError:
                    pass  # a concurrent reader may still hold it open

    # ------------------------------------------------------------------
    # Build / incremental growth
    # ------------------------------------------------------------------
    def _check_dim(self, matrix: np.ndarray, what: str) -> None:
        if matrix.ndim != 2:
            raise ValueError(f"{what} must be a 2-d matrix, got shape "
                             f"{matrix.shape}")
        if self.dim is None:
            self.dim = int(matrix.shape[1])
        elif matrix.shape[1] != self.dim:
            raise ValueError(f"{what} dim {matrix.shape[1]} does not match "
                             f"index dim {self.dim}")

    def _nlist_for(self, count: int) -> int:
        return self.nlist if self.nlist is not None else default_nlist(count)

    def build(self, vectors: dict[str, np.ndarray]) -> int:
        """Full (re)build from a name→vector mapping; returns the count.

        Replaces whatever the index held before, including the pending
        buffer.  Crash-safe: the new generation only becomes visible when
        its manifest lands, and the previous generation's files are kept
        until then.  The buffer is emptied in the same step that swaps in
        the new shards, so until then the old generation and the buffer
        keep answering.
        """
        names = list(vectors)
        with self._rebuild_lock:
            if names:
                matrix = _normalise_rows(
                    np.stack([np.asarray(vectors[n], dtype=np.float32)
                              for n in names]))
                self._check_dim(matrix, "build vectors")
            generation = self._generation + 1
            per_shard: list[list[int]] = [[] for _ in range(self.num_shards)]
            for row, name in enumerate(names):
                per_shard[shard_for_name(name, self.num_shards)].append(row)
            shards: list[ShardData | None] = []
            for shard_id, rows in enumerate(per_shard):
                if not rows:
                    shards.append(None)
                    continue
                shards.append(write_shard(
                    self.directory, shard_stem(generation, shard_id),
                    [names[r] for r in rows], matrix[rows],
                    self._nlist_for(len(rows)), seed=self.seed + shard_id))
            with self._lock:
                self._counters["builds"] += 1
            self._commit(shards, generation, None)
        return len(names)

    def add(self, vectors: dict[str, np.ndarray]) -> None:
        """Buffer vectors for the next :meth:`flush`.

        Buffered names answer queries immediately (brute-force tier) and
        shadow any same-name rows already in the shards; nothing touches
        disk until :meth:`flush`.
        """
        if not vectors:
            return
        matrix = _normalise_rows(
            np.stack([np.asarray(v, dtype=np.float32)
                      for v in vectors.values()]))
        with self._lock:
            self._check_dim(matrix, "added vectors")
            for row, name in enumerate(vectors):
                self._pending[name] = matrix[row]
            self._pending_view = None
            self._counters["adds"] += len(vectors)

    def flush(self) -> int:
        """Fold the pending buffer into its shards; returns rows folded.

        Only the shards a buffered name hashes into are rewritten (new
        generation files for those shards; untouched shards keep their
        current files).  The manifest swap is the commit point, exactly
        as in :meth:`build`.  The folded rows stay in the buffer, and so
        stay visible to :meth:`query`, ``in`` and :meth:`get`, until the
        commit swaps in the shards that hold them; ``stats()["folding"]``
        counts them meanwhile.
        """
        with self._rebuild_lock:
            with self._lock:
                pending = dict(self._pending)
                current = list(self._shards)
                self._folding = len(pending)
            if not pending:
                return 0
            generation = self._generation + 1
            try:
                shards = self._fold(pending, current, generation)
                with self._lock:
                    self._counters["flushes"] += 1
                self._commit(shards, generation, pending)
            finally:
                # The commit clears it with the swap; this covers a fold
                # that failed, whose rows stay buffered.
                with self._lock:
                    self._folding = 0
        return len(pending)

    def _fold(self, pending: dict[str, np.ndarray],
              current: list[ShardData | None],
              generation: int) -> list[ShardData | None]:
        """Write ``generation`` of the shards ``pending`` touches.

        Each touched shard's rows are taken as one block: a re-added
        name overwrites its row in place (newest write wins), and new
        names are appended in buffer order.
        """
        per_shard: dict[int, dict[str, np.ndarray]] = {}
        for name, vector in pending.items():
            shard_id = shard_for_name(name, self.num_shards)
            per_shard.setdefault(shard_id, {})[name] = vector
        shards: list[ShardData | None] = list(current)
        for shard_id, fresh in per_shard.items():
            existing = current[shard_id]
            if existing is None:
                names = list(fresh)
                matrix = np.stack(list(fresh.values()))
            else:
                names = list(existing.names)
                matrix = np.array(existing.vectors)
                appended = []
                for name, vector in fresh.items():
                    row = existing.name_rows.get(name)
                    if row is None:
                        names.append(name)
                        appended.append(vector)
                    else:
                        matrix[row] = vector
                if appended:
                    matrix = np.concatenate([matrix, np.stack(appended)])
            shards[shard_id] = write_shard(
                self.directory, shard_stem(generation, shard_id), names,
                matrix, self._nlist_for(len(names)),
                seed=self.seed + shard_id)
        return shards

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, queries: np.ndarray, k: int = 10,
              nprobe: int | None = None) -> list[list[tuple[str, float]]]:
        """Top-``k`` ``(name, cosine score)`` lists, one per query row.

        ``nprobe`` (default: the index's build-time setting) is the
        clusters probed per shard — exact within probed clusters, so
        raising it trades speed for recall.  Probing auto-extends while
        the candidate pool holds fewer than ``k`` rows.  Pending rows
        are scanned exactly, from one stacked view of the buffer that
        the first query after an :meth:`add`, :meth:`flush` or
        :meth:`build` makes and later queries reuse.
        """
        if k < 1:
            raise ValueError("k must be positive")
        probe = self.nprobe if nprobe is None else int(nprobe)
        if probe < 1:
            raise ValueError("nprobe must be positive")
        queries = np.asarray(queries, dtype=np.float32)
        single = queries.ndim == 1
        if single:
            queries = queries[None, :]
        if self.dim is not None and queries.shape[1] != self.dim:
            raise ValueError(f"query dim {queries.shape[1]} does not match "
                             f"index dim {self.dim}")
        queries = _normalise_rows(queries)
        with self._lock:
            live = [s for s in self._shards
                    if s is not None and len(s) and s.centroids.size]
            plan = self._probe_plan
            if plan is None and live:
                plan = self._probe_plan = _ProbePlan(live)
            view = self._pending_view
            if view is None:
                names = list(self._pending)
                view = self._pending_view = (
                    names,
                    np.stack([self._pending[n] for n in names])
                    if names else None,
                    set(names))
            pending_names, pending_matrix, pending_set = view
        # Stage 1 is batched across the whole query matrix: one matmul
        # against every coarse centroid and one axis-1 argpartition pick
        # each query's probe set.  ``nprobe`` is clusters *per shard*;
        # selection is global across the concatenated centroid pool,
        # which probes the same number of cells but always the closest.
        # Stage-1½, also batched: fancy-index every query's probed-cell
        # geometry (row starts/ends, owning shard, cumulative bounds) in
        # one numpy call per field and convert to Python lists once —
        # per-query fancy indexing and ``tolist`` would be pure call
        # overhead repeated ``Q`` times.
        geometry = None
        if plan is not None:
            sims_matrix = queries @ plan.centroids.T
            ncells = plan.ncells
            want_cells = min(probe * len(plan.shards), ncells)
            if want_cells < ncells:
                cells_matrix = np.argpartition(
                    -sims_matrix, want_cells - 1, axis=1)[:, :want_cells]
            else:
                cells_matrix = np.broadcast_to(
                    np.arange(ncells), (queries.shape[0], ncells))
            starts_all = plan.starts[cells_matrix]
            ends_all = plan.ends[cells_matrix]
            owner_all = plan.owner[cells_matrix]
            bounds_all = np.cumsum(ends_all - starts_all, axis=1)
            totals = bounds_all[:, -1].tolist()
            geometry = (starts_all.tolist(), ends_all.tolist(),
                        owner_all.tolist(), bounds_all, totals,
                        cells_matrix, sims_matrix)
        results = []
        scanned = 0
        for i, row in enumerate(queries):
            hits, rows = self._query_one(row, i, k, plan, geometry,
                                         pending_names, pending_matrix,
                                         pending_set)
            results.append(hits)
            scanned += rows
        with self._lock:
            self._counters["queries"] += queries.shape[0]
            self._counters["rows_scanned"] += scanned
        return results

    def _query_one(self, query: np.ndarray, i: int, k: int,
                   plan: _ProbePlan | None, geometry: tuple | None,
                   pending_names: list[str],
                   pending_matrix: np.ndarray | None, pending_set: set[str]
                   ) -> tuple[list[tuple[str, float]], int]:
        # Hot path: everything stays numpy until the final top-k rows are
        # mapped back to names, and the per-query numpy *call count* is
        # fixed (one concatenated candidate matvec plus the merge)
        # regardless of shard fan-out — per-shard or per-candidate call
        # overhead is what would make a probed scan slower than brute
        # force.  Probe selection and geometry lookup happened batched in
        # :meth:`query`.
        scores: list[np.ndarray] = []
        bounds = None
        total = 0
        if geometry is not None:
            (starts_a, ends_a, owner_a, bounds_all, totals,
             cells_matrix, sims_matrix) = geometry
            starts_l, ends_l, owner_l = starts_a[i], ends_a[i], owner_a[i]
            bounds = bounds_all[i]
            total = totals[i]
            if total < k and len(starts_l) < plan.ncells:
                # Probed cells too sparse for a full answer: extend down
                # the probe order until k candidates (or every cell).
                probed = set(cells_matrix[i].tolist())
                starts_l = list(starts_l)
                ends_l = list(ends_l)
                owner_l = list(owner_l)
                extended = total
                order = np.argsort(-sims_matrix[i], kind="stable")
                for cell in order.tolist():
                    if extended >= k:
                        break
                    if cell in probed:
                        continue
                    start = int(plan.starts[cell])
                    end = int(plan.ends[cell])
                    if end <= start:
                        continue
                    starts_l.append(start)
                    ends_l.append(end)
                    owner_l.append(int(plan.owner[cell]))
                    extended += end - start
                if extended != total:
                    sizes = [e - s for s, e in zip(starts_l, ends_l)]
                    bounds = np.cumsum(np.asarray(sizes, dtype=np.int64))
                    total = int(bounds[-1])
            if total:
                shards = plan.shards
                blocks = [shards[o].vectors[s:e]
                          for o, s, e in zip(owner_l, starts_l, ends_l)]
                stacked = (blocks[0] if len(blocks) == 1
                           else np.concatenate(blocks))
                scores.append(stacked @ query)
        if pending_matrix is not None:
            scores.append(pending_matrix @ query)
        if not scores:
            return [], 0
        merged = np.concatenate(scores) if len(scores) > 1 else scores[0]
        # Shard rows shadowed by a pending same-name add are dropped at
        # selection time, so over-select by the pending count.
        want = min(merged.shape[0], k + len(pending_set))
        if merged.shape[0] > want:
            part = np.argpartition(-merged, want - 1)[:want]
            chosen = merged[part]
            order = np.argsort(-chosen, kind="stable")
            top, top_scores = part[order], chosen[order]
        else:
            top = np.argsort(-merged, kind="stable")
            top_scores = merged[top]
        # Flat candidate layout: shard rows occupy [0, total), pending
        # rows [total, total + len(pending)); ``bounds`` (cumulative
        # block ends) maps a shard flat index back to its probed cell.
        # Everything the name-mapping loop touches is converted to plain
        # Python values up front — per-hit numpy scalar extraction would
        # cost more than the whole loop.
        if total:
            blocks_of = np.searchsorted(bounds, top, side="right").tolist()
            bounds_l = bounds.tolist()
            shards = plan.shards
        hits: list[tuple[str, float]] = []
        for pos, (flat, score) in enumerate(zip(top.tolist(),
                                                top_scores.tolist())):
            if flat >= total:
                name = pending_names[flat - total]
            else:
                block = blocks_of[pos]
                offset = flat - (bounds_l[block - 1] if block else 0)
                name = shards[owner_l[block]].names[starts_l[block] + offset]
                if name in pending_set:
                    continue  # shadowed by a newer buffered vector
            hits.append((name, float(score)))
            if len(hits) == k:
                break
        pending_rows = (pending_matrix.shape[0]
                        if pending_matrix is not None else 0)
        return hits, total + pending_rows

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            on_disk = {n for s in self._shards if s is not None
                       for n in s.names}
            return len(on_disk | set(self._pending))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            if name in self._pending:
                return True
            shard = self._shards[shard_for_name(name, self.num_shards)]
            return shard is not None and name in shard.name_rows

    def get(self, name: str) -> np.ndarray | None:
        """The stored (normalised) vector for ``name``, or ``None``."""
        with self._lock:
            vector = self._pending.get(name)
            if vector is not None:
                return np.array(vector)
            shard = self._shards[shard_for_name(name, self.num_shards)]
            if shard is None:
                return None
            row = shard.name_rows.get(name)
            return None if row is None else np.array(shard.vectors[row])

    def stats(self) -> dict:
        """Counts, geometry, and counters (feeds ``index stats`` / knn).

        ``pending`` counts the buffered names; ``folding`` how many of
        them the fold in flight carries (0 when none).
        """
        with self._lock:
            shard_counts = [len(s) if s is not None else 0
                            for s in self._shards]
            return {
                "directory": str(self.directory),
                "fingerprint": self.fingerprint,
                "dim": self.dim,
                "generation": self._generation,
                "num_shards": self.num_shards,
                "nprobe": self.nprobe,
                "count": sum(shard_counts),
                "pending": len(self._pending),
                "folding": self._folding,
                "shard_counts": shard_counts,
                "clusters": [int(s.centroids.shape[0]) if s is not None
                             else 0 for s in self._shards],
                "counters": dict(self._counters),
            }


def build_from_store(index: VectorIndex, store: EmbeddingStore) -> int:
    """Rebuild ``index`` from every name ``store`` holds; returns rows built.

    Reads the store through the batched ``get_many`` path, one lock
    acquisition and at most one file open per :data:`INGEST_BATCH` names.
    """
    names = store.names()
    vectors: dict[str, np.ndarray] = {}
    for start in range(0, len(names), INGEST_BATCH):
        vectors.update(store.get_many(names[start:start + INGEST_BATCH]))
    return index.build(vectors)


__all__ = [
    "DEFAULT_NUM_SHARDS",
    "FingerprintMismatch",
    "INGEST_BATCH",
    "IndexCorrupt",
    "MANIFEST_NAME",
    "VectorIndex",
    "build_from_store",
    "default_nlist",
]

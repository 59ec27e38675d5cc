"""Embedding store: in-memory LRU tier over an optional append-only disk log.

:class:`EmbeddingStore` is the one per-name embedding cache of the
serving stack.  With a directory, vectors live in an append-only
JSON-lines log on disk, keyed by ``(fingerprint, provider label, mode,
name)``, with a bounded LRU dict in front so hot names never touch the
disk twice; the cache then survives process restarts.  With
``directory=None`` the store is the LRU tier alone: nothing is written,
and vectors live as long as the process and the LRU bound allow.

*Versioned invalidation* falls out of the key: the fingerprint component
comes from :func:`repro.models.checkpoint.checkpoint_fingerprint` (or
:func:`~repro.models.checkpoint.model_fingerprint`), so re-training the
encoder changes the namespace and stale vectors are simply never matched
again.  ``compact()`` rewrites the log keeping only the live namespace.

Each log line is one JSON record: ``{"v": fingerprint, "p": label,
"m": mode, "n": name, "b": vector}``, where ``"b"`` is the base64 of the
vector's little-endian float64 bytes, so a vector read back from the log
equals the one written bit for bit.  Records of the earlier layout, which
carried the vector as a JSON float list under ``"e"``, match no namespace:
their names are encoded once more on first use, and ``compact()`` drops
them, as after a fingerprint change.

The log is one of the repo's append-only JSON-lines files
(:mod:`repro.ioutil`): a torn final line (killed process) is skipped by
the next open's scan and ended by the next append, which goes through
:func:`repro.ioutil.open_append` in the same open as its write.  Appends
are not fsynced: a record lost to a crash is encoded again on first use.

:class:`PersistentProvider` puts the store in front of an encoder and,
given a :class:`~repro.index.VectorIndex`, keeps that index in step with
every name it serves.
"""

from __future__ import annotations

import base64
import json
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.index.index import VectorIndex
from repro.ioutil import atomic_writer, open_append
from repro.service.providers import EmbeddingProvider

_LOG_NAME = "embeddings.jsonl"
#: Byte layout of a logged vector: little-endian float64.
_VECTOR_DTYPE = np.dtype("<f8")
#: Pending index rows at which :class:`PersistentProvider` folds the
#: index's ``add`` buffer into its shards.
INDEX_FLUSH_ROWS = 4096


class ProviderShapeError(ValueError):
    """An inner provider returned a matrix misaligned with its names.

    Raised by :meth:`PersistentProvider.encode_names` when the wrapped
    encoder yields a different number of rows than names requested.
    Persisting such a batch would zip names onto the wrong vectors and
    poison the store for every later process sharing the fingerprint, so
    the batch is rejected before anything is written.  A
    :class:`~repro.serving.batcher.MicroBatcher` flush whose provider
    result is not ``(len(names), dim)`` fails its batch with it too.
    """


class EmbeddingStore:
    """Two-tier (LRU memory / append-only disk) per-name embedding cache.

    One store instance binds one namespace — ``(fingerprint, label,
    mode)`` — and maps names to vectors within it.  Entries written under
    other namespaces coexist in the same log file but are invisible, which
    is what makes checkpoint-fingerprint invalidation free.

    ``directory=None`` makes a memory-only store: the LRU tier alone, with
    no log file, so ``compact()`` has nothing to rewrite.
    """

    def __init__(self, directory: str | Path | None,
                 fingerprint: str = "unversioned",
                 label: str = "provider", mode: str = "name",
                 lru_capacity: int = 4096):
        if lru_capacity < 1:
            raise ValueError("lru_capacity must be positive")
        self.directory = None if directory is None else Path(directory)
        self.path = None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self.path = self.directory / _LOG_NAME
        self.fingerprint = fingerprint
        self.label = label
        self.mode = mode
        # Every record of this store starts with its fixed namespace:
        # ``{"v": ..., "p": ..., "m": ..., "n": `` as json.dumps lays it out.
        namespace = json.dumps({"v": fingerprint, "p": label, "m": mode},
                               ensure_ascii=False)
        self._record_head = namespace[:-1] + ', "n": '
        self.lru_capacity = lru_capacity
        self._lock = threading.RLock()
        self._lru: OrderedDict[str, np.ndarray] = OrderedDict()
        # name -> byte offset of its newest record in the log (this
        # namespace only); vectors are re-read lazily on LRU miss.
        self._offsets: dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self._scan()

    # ------------------------------------------------------------------
    # Disk log
    # ------------------------------------------------------------------
    def _matches(self, record: dict) -> bool:
        """A record of this namespace in the current (``"b"``) layout."""
        return (record.get("v") == self.fingerprint
                and record.get("p") == self.label
                and record.get("m") == self.mode
                and "b" in record)

    def _record_line(self, name: str, vector: np.ndarray) -> bytes:
        """One newline-terminated log record for ``name``.

        Byte for byte ``json.dumps(record, ensure_ascii=False).encode()
        + b"\\n"`` of the five-key record, built from the store's encoded
        namespace head: per record only the name is JSON-encoded and only
        the vector packed and base64-encoded.
        """
        packed = np.asarray(vector, dtype=_VECTOR_DTYPE).tobytes()
        encoded = base64.b64encode(packed).decode("ascii")
        name_json = json.dumps(name, ensure_ascii=False)
        return f'{self._record_head}{name_json}, "b": "{encoded}"}}\n'.encode()

    def _scan(self) -> None:
        """Index the log: newest offset per name in this namespace."""
        if self.path is None or not self.path.exists():
            return
        with open(self.path, "rb") as handle:
            offset = 0
            for raw in handle:
                line = raw.decode("utf-8", errors="replace").strip()
                start, offset = offset, offset + len(raw)
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn trailing write from a killed process
                if self._matches(record):
                    self._offsets[record["n"]] = start

    @staticmethod
    def _decode_at(handle, offset: int) -> np.ndarray | None:
        """Decode one record from an already-open handle; ``None`` if torn."""
        try:
            handle.seek(offset)
            record = json.loads(handle.readline().decode("utf-8"))
            packed = base64.b64decode(record["b"], validate=True)
            return np.frombuffer(packed, dtype=_VECTOR_DTYPE).astype(
                np.float64)
        except (OSError, KeyError, TypeError, ValueError):
            return None

    # ------------------------------------------------------------------
    # LRU tier
    # ------------------------------------------------------------------
    def _lru_get(self, name: str) -> np.ndarray | None:
        vector = self._lru.get(name)
        if vector is not None:
            self._lru.move_to_end(name)
        return vector

    def _lru_put(self, name: str, vector: np.ndarray) -> None:
        self._lru[name] = vector
        self._lru.move_to_end(name)
        while len(self._lru) > self.lru_capacity:
            self._lru.popitem(last=False)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def get(self, name: str) -> np.ndarray | None:
        """The stored vector for ``name``, or ``None`` on a full miss."""
        return self.get_many([name]).get(name)

    def get_many(self, names: list[str]) -> dict[str, np.ndarray]:
        """Vectors for every known name (missing names are absent).

        One lock acquisition and at most one ``open()`` for the whole
        batch: LRU hits are collected first, then every missing-offset
        record is read through a single file handle.  This is the index
        build ingestion path, where per-name opens dominate wall time.
        """
        found: dict[str, np.ndarray] = {}
        with self._lock:
            to_read: dict[str, int] = {}
            for name in dict.fromkeys(names):
                vector = self._lru_get(name)
                if vector is not None:
                    found[name] = vector
                    self.hits += 1
                elif name in self._offsets:
                    to_read[name] = self._offsets[name]
                else:
                    self.misses += 1
            if to_read:
                try:
                    handle = open(self.path, "rb")
                except OSError:
                    handle = None
                try:
                    for name, offset in to_read.items():
                        vector = (self._decode_at(handle, offset)
                                  if handle is not None else None)
                        if vector is None:
                            # Torn/unreadable record: forget the offset so
                            # the miss is permanent rather than re-read on
                            # every call.
                            del self._offsets[name]
                            self.misses += 1
                        else:
                            self._lru_put(name, vector)
                            found[name] = vector
                            self.hits += 1
                finally:
                    if handle is not None:
                        handle.close()
        return found

    def put_many(self, vectors: dict[str, np.ndarray]) -> None:
        """Append vectors to the log (if any) and refresh both tiers.

        The records go out in one write; each is encoded by
        :meth:`_record_line` and packs its own vector, so one call may
        mix vector lengths and dtypes.
        """
        if not vectors:
            return
        with self._lock:
            if self.path is not None:
                lines = [self._record_line(name, vector)
                         for name, vector in vectors.items()]
                with open_append(self.path) as handle:
                    offset = handle.tell()
                    handle.write(b"".join(lines))
                for name, line in zip(vectors, lines):
                    self._offsets[name] = offset
                    offset += len(line)
            for name, vector in vectors.items():
                self._lru_put(name, np.asarray(vector, dtype=np.float64))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._lru or name in self._offsets

    def __len__(self) -> int:
        """Distinct live names across both tiers.

        A name can live in only one tier — LRU-only after a torn-record
        eviction dropped its offset, disk-only after an LRU eviction — so
        the count is the union, never the sum.
        """
        with self._lock:
            return len(set(self._offsets) | set(self._lru))

    def names(self) -> list[str]:
        """Sorted distinct live names (the index-build ingestion set)."""
        with self._lock:
            return sorted(set(self._offsets) | set(self._lru))

    def compact(self) -> int:
        """Rewrite the log keeping only this namespace; returns kept count.

        Garbage-collects entries from superseded fingerprints (and other
        providers/modes).  Safe to call while the store is live.  Records
        stream straight to the temp file — the rewritten log is never
        materialised in memory, so compacting a million-entity store costs
        one record of RAM, not gigabytes.  The temp+fsync+rename discipline
        (:func:`repro.ioutil.atomic_writer`) still guarantees a crash
        mid-compaction leaves the previous complete log, never a partial
        one.  Names alive only in the LRU (their disk record was torn and
        evicted) are re-persisted from memory rather than dropped.  A
        memory-only store has no log: it writes nothing and returns 0.
        """
        if self.path is None:
            return 0
        with self._lock:
            disk_only = {name: offset
                         for name, offset in self._offsets.items()
                         if name not in self._lru}
            offsets: dict[str, int] = {}
            read_handle = None
            if disk_only:
                try:
                    read_handle = open(self.path, "rb")
                except OSError:
                    read_handle = None
            try:
                with atomic_writer(self.path) as out:
                    position = 0

                    def emit(name: str, vector: np.ndarray) -> None:
                        nonlocal position
                        line = self._record_line(name, vector)
                        out.write(line)
                        offsets[name] = position
                        position += len(line)

                    for name, offset in disk_only.items():
                        vector = (self._decode_at(read_handle, offset)
                                  if read_handle is not None else None)
                        if vector is not None:  # torn records fall out
                            emit(name, vector)
                    for name, vector in self._lru.items():
                        emit(name, vector)
            finally:
                if read_handle is not None:
                    read_handle.close()
            self._offsets = offsets
            return len(offsets)

    def stats(self) -> dict:
        """Hit/miss counters and tier sizes (feeds the metrics registry).

        ``entries`` is the *distinct* live-name count (tier union);
        ``memory_entries``/``disk_entries`` are per-tier sizes whose sum
        double-counts names resident in both tiers — consumers wanting
        "how many names does this store hold" must use ``entries``.
        """
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "entries": len(set(self._offsets) | set(self._lru)),
                "memory_entries": len(self._lru),
                "disk_entries": len(self._offsets),
            }


class PersistentProvider(EmbeddingProvider):
    """Provider decorator backed by an :class:`EmbeddingStore`.

    Drop-in for any :class:`~repro.service.providers.EmbeddingProvider`:
    names found in the store (from this process or, with a disk log, from
    *any* earlier process with the same fingerprint) skip the inner
    encoder entirely; fresh names are encoded once, stored, and served
    from memory afterwards.

    :meth:`encode_stored` answers a request whose every name the store
    holds, and returns ``None`` for any other without touching the inner
    encoder, so a caller can answer stored names on its own thread and
    send the rest through :meth:`encode_names` (in the service, on the
    batcher's flush thread).

    With an ``index``, every name served that the index lacks is added to
    it, and its ``add`` buffer is folded into the shards once it holds
    :data:`INDEX_FLUSH_ROWS` rows that no fold in flight carries.  The
    index must carry the store's fingerprint, so a re-trained encoder
    never serves neighbours from a stale geometry.
    """

    def __init__(self, inner: EmbeddingProvider, store: EmbeddingStore,
                 index: VectorIndex | None = None):
        if index is not None and index.fingerprint != store.fingerprint:
            raise ValueError(
                f"store fingerprint {store.fingerprint!r} does not match "
                f"index fingerprint {index.fingerprint!r}")
        self.inner = inner
        self.store = store
        self.index = index
        self.label = inner.label
        self.dim = inner.dim
        self._lock = threading.Lock()

    def encode_names(self, names: list[str]) -> np.ndarray:
        # The lock guards only the store read and write — never the inner
        # encode.  A slow (or hung) encoder therefore cannot serialize
        # traffic that the disk/LRU tiers can already answer.  Two threads
        # racing on the same missing name may both encode it; the second
        # put_many wins and each caller returns a self-consistent matrix
        # (duplicate names within one request always share one vector,
        # drawn from this call's ``found`` map).
        with self._lock:
            found = self.store.get_many(names)
        missing = [n for n in dict.fromkeys(names) if n not in found]
        if missing:
            vectors = np.asarray(self.inner.encode_names(missing))
            if vectors.ndim != 2 or vectors.shape[0] != len(missing):
                # Zipping a misaligned matrix would persist wrong
                # name->vector pairs for every later process; refuse it.
                raise ProviderShapeError(
                    f"provider {self.label!r} returned shape "
                    f"{vectors.shape} for {len(missing)} names")
            fresh = {name: vector
                     for name, vector in zip(missing, vectors)}
            with self._lock:
                self.store.put_many(fresh)
            found.update(fresh)
        return self._serve(names, found)

    def encode_stored(self, names: list[str]) -> np.ndarray | None:
        """``names``' stored vectors, or ``None`` if the store lacks one.

        Never calls the inner encoder.  Membership is checked with the
        store's non-counting ``in`` first, so ``None`` counts nothing and
        the :meth:`encode_names` that follows counts each name once.  The
        exception is a log record found unreadable here: it gives
        ``None`` too, and the request's names are counted again when
        :meth:`encode_names` reads them.
        """
        with self._lock:
            if not all(name in self.store for name in names):
                return None
            found = self.store.get_many(names)
        if len(found) < len(set(names)):
            return None
        return self._serve(names, found)

    def _serve(self, names: list[str],
               found: dict[str, np.ndarray]) -> np.ndarray:
        """Sync the index with ``found``; the matrix aligned with names."""
        if not names:
            return np.zeros((0, self.dim))
        if self.index is not None:
            unindexed = {name: found[name] for name in names
                         if name not in self.index}
            if unindexed:
                self.index.add(unindexed)
                # Rows a fold in flight already carries stay pending (and
                # visible) until it commits; they must not start another.
                stats = self.index.stats()
                if stats["pending"] - stats["folding"] >= INDEX_FLUSH_ROWS:
                    self.index.flush()
        return np.stack([found[n] for n in names])

    def stats(self) -> dict:
        """The underlying store's counters."""
        return self.store.stats()

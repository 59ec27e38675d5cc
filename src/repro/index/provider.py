"""Bridge between the embedding providers and the ANN retrieval tier.

:class:`IndexedEmbeddingProvider` decorates any
:class:`~repro.service.providers.EmbeddingProvider` (typically the
:class:`~repro.serving.store.PersistentProvider` already wired into the
serving stack) and keeps a :class:`~repro.index.index.VectorIndex` in
sync with everything it encodes: bulk ingestion from an
:class:`~repro.serving.store.EmbeddingStore` via :func:`build_from_store`,
plus online capture of fresh encodes through the index's ``add`` buffer.
The index directory is keyed by the same checkpoint fingerprint as the
store, so a re-trained encoder can never serve neighbours from a stale
geometry — opening the mismatch raises instead.

Serving imports this module, so it names the store only as an annotation
(under ``TYPE_CHECKING``) and never imports :mod:`repro.serving` at run
time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.index.index import VectorIndex
from repro.service.providers import EmbeddingProvider

if TYPE_CHECKING:
    from repro.serving.store import EmbeddingStore

#: Pending ``add()`` rows that trigger an automatic fold into the shards.
DEFAULT_AUTO_FLUSH = 4096
#: Store names read per ``get_many`` batch during bulk ingestion.
INGEST_BATCH = 2048


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


class IndexedEmbeddingProvider(EmbeddingProvider):
    """Provider decorator that mirrors every encode into a vector index.

    Parameters
    ----------
    inner:
        The provider actually producing vectors.
    index:
        The retrieval tier to keep in sync.  Must carry the same
        fingerprint as ``store`` when one is given.
    store:
        Optional embedding store to bulk-ingest from
        (:meth:`ensure_indexed`).
    auto_flush:
        Fold the index's pending buffer into shards once it holds this
        many rows (``0`` disables; call :meth:`flush` manually).
    """

    def __init__(self, inner: EmbeddingProvider, index: VectorIndex, *,
                 store: EmbeddingStore | None = None,
                 auto_flush: int = DEFAULT_AUTO_FLUSH):
        if store is not None and store.fingerprint != index.fingerprint:
            raise ValueError(
                f"store fingerprint {store.fingerprint!r} does not match "
                f"index fingerprint {index.fingerprint!r}")
        self.inner = inner
        self.index = index
        self.store = store
        self.auto_flush = auto_flush
        self.label = inner.label
        self.dim = inner.dim

    # -- EmbeddingProvider interface -----------------------------------
    def encode_names(self, names: list[str]) -> np.ndarray:
        """Encode via the inner provider and capture the rows in the index."""
        vectors = np.asarray(self.inner.encode_names(names))
        fresh: dict[str, np.ndarray] = {}
        for row, name in enumerate(names):
            if name not in self.index:
                fresh[name] = vectors[row]
        if fresh:
            self.index.add(fresh)
            if (self.auto_flush
                    and self.index.stats()["pending"] >= self.auto_flush):
                self.index.flush()
        return vectors

    # -- Retrieval -----------------------------------------------------
    def retrieve(self, queries: np.ndarray, k: int = 10,
                 nprobe: int | None = None) -> list[list[tuple[str, float]]]:
        """Top-``k`` ``(name, score)`` neighbours for raw query vectors."""
        return self.index.query(queries, k=k, nprobe=nprobe)

    def retrieve_names(self, names: list[str], k: int = 10,
                       nprobe: int | None = None
                       ) -> list[list[tuple[str, float]]]:
        """Encode ``names`` then retrieve their nearest stored entities."""
        return self.retrieve(self.encode_names(names), k=k, nprobe=nprobe)

    # -- Bulk ingestion ------------------------------------------------
    def ensure_indexed(self) -> int:
        """Build from the store when the index is empty and the store is not.

        An empty store builds nothing, so a service that starts with no
        stored vectors commits no empty index generation.
        """
        if self.store is not None and len(self.index) == 0 and len(self.store):
            return build_from_store(self.index, self.store)
        return 0

    def flush(self) -> int:
        """Fold any pending buffered rows into the shards."""
        return self.index.flush()


__all__ = ["DEFAULT_AUTO_FLUSH", "INGEST_BATCH", "IndexedEmbeddingProvider",
           "build_from_store"]

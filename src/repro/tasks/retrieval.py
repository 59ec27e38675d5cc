"""Retrieval-backed candidate generation for the serve adapters.

Before the ANN tier (:mod:`repro.index`), the RCA/EAP/FCT serve adapters
had to be *handed* their candidate entities — the request carried every
node/pair/alarm to score.  With a retriever attached
(:class:`~repro.index.IndexedEmbeddingProvider`, wired by
:class:`~repro.serving.FaultAnalysisService` when it is built with an
index), an adapter can instead *generate* candidates: embed the query
surface, pull its nearest stored entities, and keep the ones inside the
adapter's own catalog.

The hook is strictly opt-in — an adapter without a retriever behaves
exactly as before (``candidate_events`` returns ``[]``, full-catalog
scans stay full), so checkpoint-free deployments and the experiment
harness are untouched.
"""

from __future__ import annotations

import numpy as np


class RetrievalCandidateMixin:
    """Mixin giving a serve adapter ANN-backed candidate generation.

    Host classes must expose ``event_names`` (their closed catalog) and
    pass the vectors they are fitted on to :meth:`_keep_fitted_vectors`.
    """

    _retriever = None
    #: catalog name -> the vector it was fitted on (replaced, not mutated)
    _fitted_vectors: dict[str, np.ndarray] = {}

    def attach_retriever(self, retriever) -> None:
        """Wire an object with ``retrieve(queries, k, nprobe)`` and
        ``encode_names(names)``."""
        self._retriever = retriever

    @property
    def retriever(self):
        """The attached retriever, or ``None``."""
        return self._retriever

    def candidate_events(self, name: str, k: int = 10,
                         nprobe: int | None = None) -> list[str]:
        """Catalog entities nearest ``name`` in embedding space.

        Returns up to ``k`` retrieved names filtered to this adapter's
        ``event_names`` (the index may hold far more entities than one
        adapter serves), nearest first, the query itself excluded.
        Without a retriever the answer is ``[]`` — callers fall back to
        their full-catalog behaviour.  The index is searched with the
        vector ``name`` was fitted on, so a fitted adapter never reaches
        the encoder for a catalog name; any other name is encoded
        through the retriever.
        """
        if self._retriever is None:
            return []
        query = self._fitted_vectors.get(name)
        if query is None:
            query = self._retriever.encode_names([name])[0]
        known = set(self.event_names)
        [hits] = self._retriever.retrieve(query[None, :], k=k, nprobe=nprobe)
        return [hit for hit, _ in hits if hit in known and hit != name]

    def knows(self, name: str) -> bool:
        """Whether ``name`` is a catalog name the adapter was fitted on."""
        return name in self._fitted_vectors

    def _keep_fitted_vectors(self, names: list[str],
                             vectors: np.ndarray) -> None:
        """Remember the vector each catalog name was fitted on."""
        self._fitted_vectors = dict(zip(names, vectors))


__all__ = ["RetrievalCandidateMixin"]

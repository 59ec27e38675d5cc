"""Embedding providers for every compared method.

Data-type modes for PLM providers follow Sec. V-A3:

* ``"name"`` — pure literal name ("only name");
* ``"entity"`` — the name mapped to a Tele-KG entity by surface and wrapped
  with the ``[ENT]`` template ("Entity mapping w/o Attr.");
* ``"entity_attr"`` — as above with the entity's KG attributes concatenated
  behind ("Entity mapping w/ Attr.").
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.models.ktelebert import KTeleBert, NumericRow, TextRow
from repro.models.telebert import TeleBertTrainer
from repro.prompts.templates import wrap_entity
from repro.tokenization.tokenizer import basic_tokenize

if TYPE_CHECKING:
    from repro.kg.graph import TeleKG

VALID_MODES = ("name", "entity", "entity_attr")


class EmbeddingProvider:
    """Interface: map target names to fixed service vectors."""

    #: embedding dimensionality
    dim: int
    #: human-readable method label (row name in the result tables)
    label: str = "provider"

    def encode_names(self, names: list[str]) -> np.ndarray:
        """(len(names), dim) matrix of service embeddings."""
        raise NotImplementedError


class RandomProvider(EmbeddingProvider):
    """The paper's "Random" baseline: uniform random vectors per name.

    Vectors are cached per name so repeated queries are consistent within a
    run (as they would be with a fixed random init).  The check-draw-store
    runs under a lock, so concurrent callers (the service's fallback runs
    on request threads) never give one name two vectors.
    """

    label = "Random"

    def __init__(self, dim: int, seed: int = 0):
        self.dim = dim
        self.rng = np.random.default_rng(seed)
        self._cache: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

    def encode_names(self, names: list[str]) -> np.ndarray:
        rows = []
        with self._lock:
            for name in names:
                if name not in self._cache:
                    self._cache[name] = self.rng.uniform(-1, 1, size=self.dim)
                rows.append(self._cache[name])
        return np.stack(rows)


class WordEmbeddingProvider(EmbeddingProvider):
    """The EAP "Word Embeddings" baseline: average of per-word random vectors.

    Word vectors are drawn once per word under a lock, like
    :class:`RandomProvider`'s per-name vectors.
    """

    label = "Word Embeddings"

    def __init__(self, dim: int, seed: int = 0):
        self.dim = dim
        self.rng = np.random.default_rng(seed)
        self._cache: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

    def _word_vector(self, word: str) -> np.ndarray:
        with self._lock:
            if word not in self._cache:
                self._cache[word] = self.rng.normal(0, 1, size=self.dim)
            return self._cache[word]

    def encode_names(self, names: list[str]) -> np.ndarray:
        rows = []
        for name in names:
            words = basic_tokenize(name) or [name]
            rows.append(np.mean([self._word_vector(w) for w in words], axis=0))
        return np.stack(rows)


class PlmProvider(EmbeddingProvider):
    """Service embeddings from a stage-1 PLM (MacBERT stand-in or TeleBERT)."""

    def __init__(self, trainer: TeleBertTrainer, label: str):
        self.trainer = trainer
        self.label = label
        self.dim = trainer.config.d_model

    def encode_names(self, names: list[str]) -> np.ndarray:
        return self.trainer.encode_sentences(names)


class KTeleBertProvider(EmbeddingProvider):
    """Service embeddings from KTeleBERT under one of the three data modes."""

    def __init__(self, model: KTeleBert, kg: TeleKG | None = None,
                 mode: str = "entity", label: str = "KTeleBERT",
                 max_attributes: int = 3):
        if mode not in VALID_MODES:
            raise ValueError(f"mode must be one of {VALID_MODES}")
        if mode != "name" and kg is None:
            raise ValueError("entity modes require the Tele-KG")
        self.model = model
        self.kg = kg
        self.mode = mode
        self.label = label
        self.max_attributes = max_attributes
        self.dim = model.bert_config.d_model

    def _row_for(self, name: str):
        if self.mode == "name":
            return TextRow(name)
        entity = self.kg.entity_by_surface(name)
        if entity is None:
            return TextRow(name)  # unmapped targets degrade to "only name"
        if self.mode == "entity":
            return TextRow(wrap_entity(entity.surface))
        attributes = {}
        numeric: tuple[str, float] | None = None
        for fact in self.kg.attributes_of(entity.uid)[: self.max_attributes]:
            attributes[fact.attribute] = fact.value
            if fact.is_numeric and numeric is None:
                numeric = (f"{fact.attribute} of {entity.surface}",
                           float(fact.value))
        text = wrap_entity(entity.surface, attributes)
        if numeric is not None:
            return NumericRow(text=text, tag=numeric[0], value=numeric[1])
        return TextRow(text)

    def encode_names(self, names: list[str]) -> np.ndarray:
        rows = [self._row_for(n) for n in names]
        return self.model.encode(rows)

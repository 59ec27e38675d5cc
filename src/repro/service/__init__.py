"""Service-delivery layer (Sec. V-A3).

Downstream task models consume *service embeddings* — fixed vectors for
target names.  Providers implement the same interface for every method the
paper compares, so the task harnesses can swap Random / Word-Embedding /
MacBERT / TeleBERT / KTeleBERT rows of Tables IV, VI, VIII by changing one
argument.
"""

from repro.service.providers import (
    EmbeddingProvider,
    KTeleBertProvider,
    PlmProvider,
    RandomProvider,
    WordEmbeddingProvider,
)

__all__ = [
    "EmbeddingProvider",
    "KTeleBertProvider",
    "PlmProvider",
    "RandomProvider",
    "WordEmbeddingProvider",
]

"""Training infrastructure: dynamic masking, batching, MTL strategies.

* :mod:`repro.training.masking` — RoBERTa-style dynamic masking with the
  40% rate and whole-word masking of Sec. IV-C.
* :mod:`repro.training.batching` — deterministic shuffled mini-batching.
* :mod:`repro.training.mtl` — the STL / PMTL / IMTL schedules of Table II.
* :mod:`repro.training.runtime` — fault-tolerant, data-parallel stage-2
  runtime: atomic checkpoint/resume, gradient worker pool, run journal.
"""

from repro.training.masking import DynamicMasker, MaskedBatch
from repro.training.batching import BatchIterator
from repro.training.mtl import (
    MtlStrategy,
    TrainingPhase,
    build_strategy,
    IMTL_SCHEDULE,
)

__all__ = [
    "BatchIterator",
    "DynamicMasker",
    "IMTL_SCHEDULE",
    "MaskedBatch",
    "MtlStrategy",
    "TrainingPhase",
    "build_strategy",
]

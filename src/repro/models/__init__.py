"""Model zoo: BERT backbone, ELECTRA pre-training, TeleBERT, KTeleBERT.

* :mod:`repro.models.bert` — transformer encoder with MLM head and support
  for injecting external embeddings at marked positions (the ``[NUM]`` slot).
* :mod:`repro.models.electra` — generator/discriminator replaced-token
  detection pre-training (Sec. III-B).
* :mod:`repro.models.ke` — the text-enhanced knowledge-embedding objective
  (KEPLER-style, Eqs. 10–11).
* :mod:`repro.models.telebert` — stage-1 pre-training driver (Tele-Corpus,
  WWM, ELECTRA, SimCSE).
* :mod:`repro.models.ktelebert` — the stage-2 model bundling the encoder with
  ANEnc/NDec/TGC, the MLM objective on prompt-wrapped corpora, and the KE
  objective; provides the service-embedding API used by the tasks.
"""

from repro.models.bert import BertConfig, BertEncoder, BertForMaskedLM, MlmHead
from repro.models.electra import ElectraPretrainer, ElectraStepOutput
from repro.models.ke import KnowledgeEmbeddingObjective
from repro.models.telebert import TeleBertTrainer, pretrain_telebert
from repro.models.checkpoint import (
    TrainState,
    checkpoint_fingerprint,
    load_ktelebert,
    load_train_state,
    model_fingerprint,
    save_ktelebert,
    save_train_state,
)
from repro.models.ktelebert import (
    KTeleBert,
    KTeleBertConfig,
    NumericRow,
    TextRow,
    TripleRow,
)

__all__ = [
    "BertConfig",
    "BertEncoder",
    "BertForMaskedLM",
    "ElectraPretrainer",
    "ElectraStepOutput",
    "KTeleBert",
    "KTeleBertConfig",
    "KnowledgeEmbeddingObjective",
    "MlmHead",
    "NumericRow",
    "TeleBertTrainer",
    "TextRow",
    "TrainState",
    "TripleRow",
    "checkpoint_fingerprint",
    "load_ktelebert",
    "load_train_state",
    "model_fingerprint",
    "pretrain_telebert",
    "save_ktelebert",
    "save_train_state",
]

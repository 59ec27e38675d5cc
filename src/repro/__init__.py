"""repro — reproduction of *Tele-Knowledge Pre-training for Fault Analysis*
(Chen, Zhang et al., ICDE 2023).

The paper pre-trains TeleBERT on telecom corpora (stage 1) and re-trains it
into KTeleBERT with prompt-unified modalities, an adaptive numeric encoder,
and a knowledge-embedding objective (stage 2), then applies the service
embeddings to root-cause analysis, event association prediction, and fault
chain tracing.  Everything — the autograd engine, transformer, tokenizer,
synthetic telecom world, Tele-KG, and the three task models — is implemented
from scratch in this package (see DESIGN.md for the substitution map).

Quick start::

    from repro.corpus import build_tele_corpus
    from repro.models import pretrain_telebert
    from repro.world import TelecomWorld

    world = TelecomWorld.generate(seed=0)
    corpus = build_tele_corpus(world)
    telebert = pretrain_telebert(corpus.sentences, steps=100)
    vectors = telebert.encode_sentences(["The NF destination service is "
                                         "unreachable"])

Subpackages: ``tensor`` (autograd), ``nn`` (layers/optim/losses),
``tokenization``, ``world`` (synthetic telecom universe), ``corpus``, ``kg``
(Tele-KG), ``prompts``, ``numeric`` (ANEnc), ``models`` (TeleBERT /
KTeleBERT), ``training``, ``kge``, ``service``, ``tasks`` (rca/eap/fct),
``evaluation``, ``experiments`` (table/figure harnesses), ``serving``
(online inference: micro-batching, persistent embedding store, metrics).
Each is imported from where it is defined; importing ``repro`` itself
loads none of them.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

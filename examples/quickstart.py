"""Quickstart: generate a telecom world, pre-train TeleBERT, get embeddings.

Runs in under a minute on a laptop CPU::

    python examples/quickstart.py
"""

import numpy as np

from repro.corpus import build_tele_corpus
from repro.models import pretrain_telebert
from repro.world import TelecomWorld


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))


def main() -> None:
    # 1. A synthetic telecom universe: NE topology, alarm/KPI catalogs, and a
    #    ground-truth causal graph (the stand-in for the proprietary data).
    world = TelecomWorld.generate(seed=0)
    print(f"world: {len(world.ontology.alarms)} alarms, "
          f"{len(world.ontology.kpis)} KPIs, "
          f"{world.topology.num_nodes} network elements, "
          f"{world.causal_graph.num_edges} causal edges")

    # 2. The Tele-Corpus: product documents + entity surfaces + augmentation.
    corpus = build_tele_corpus(world, seed=0)
    print(f"corpus: {len(corpus)} sentences; sample:")
    print("   ", corpus.sentences[0][:100])

    # 3. Stage-1 pre-training (ELECTRA + SimCSE + whole-word masking).
    telebert = pretrain_telebert(corpus.sentences, steps=120, seed=0,
                                 wwm_phrases=[e.name for e in
                                              world.ontology.events])
    print(f"TeleBERT: {telebert.pretrainer.num_parameters()} parameters, "
          f"final loss {telebert.log.total[-1]:.3f} "
          f"(from {telebert.log.total[0]:.3f})")

    # 4. Service embeddings: events in the same fault theme should be closer
    #    than events from unrelated themes.
    themes = {}
    for alarm in world.ontology.alarms:
        themes.setdefault(alarm.theme, []).append(alarm.name)
    theme_names = sorted(themes)
    same_a, same_b = themes[theme_names[0]][:2]
    other = themes[theme_names[1]][0]
    vectors = telebert.encode_sentences([same_a, same_b, other])
    print(f"\nsim('{same_a[:40]}...', same theme)  = "
          f"{cosine(vectors[0], vectors[1]):.3f}")
    print(f"sim('{same_a[:40]}...', other theme) = "
          f"{cosine(vectors[0], vectors[2]):.3f}")


if __name__ == "__main__":
    main()

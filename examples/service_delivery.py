"""Service-delivery data modes (Sec. V-A3) and embedding diagnostics.

Compares the three ways a downstream task can hand a target name to
KTeleBERT — "only name", "entity mapping w/o Attr.", "entity mapping
w/ Attr." — and inspects the embedding space with the analysis toolkit
(theme separation, anisotropy, nearest neighbours, ASCII projection).

    python examples/service_delivery.py     (~1-2 minutes on CPU)
"""

import numpy as np

from repro.analysis import (
    anisotropy,
    ascii_scatter,
    nearest_neighbors,
    theme_separation,
)
from repro.experiments import ExperimentPipeline, PipelineConfig
from repro.service import KTeleBertProvider


def main() -> None:
    config = PipelineConfig(seed=5, num_episodes=40, stage1_steps=120,
                            stage2_steps=80, generic_sentences=200)
    pipeline = ExperimentPipeline(config)
    model = pipeline.ktelebert_stl
    kg = pipeline.kg
    events = pipeline.world.ontology.events
    names = [e.name for e in events]
    themes = [e.theme for e in events]

    print("== three data modes for the same targets ==")
    for mode in ("name", "entity", "entity_attr"):
        provider = KTeleBertProvider(model, kg, mode=mode)
        vectors = provider.encode_names(names)
        print(f"  mode={mode:<12} theme separation="
              f"{theme_separation(vectors, themes):+.4f}  "
              f"anisotropy={anisotropy(vectors):.4f}")

    provider = KTeleBertProvider(model, kg, mode="entity")
    vectors = provider.encode_names(names)

    print("\n== nearest neighbours of one alarm ==")
    query = 0
    print(f"  query: {names[query]}  (theme: {themes[query]})")
    for name, similarity in nearest_neighbors(vectors, names, query, k=4):
        theme = themes[names.index(name)]
        print(f"    {similarity:.3f}  [{theme:<14}] {name[:55]}")

    print("\n== 2-D projection of the event embedding space ==")
    centred = vectors - vectors.mean(axis=0)
    _, _, vt = np.linalg.svd(centred, full_matrices=False)
    coords = centred @ vt[:2].T
    theme_names = sorted(set(themes))
    shade = np.array([theme_names.index(t) / (len(theme_names) - 1)
                      for t in themes])
    print(ascii_scatter(coords[:, 0], coords[:, 1], values=shade,
                        width=64, height=18,
                        title="events shaded by fault theme"))


if __name__ == "__main__":
    main()

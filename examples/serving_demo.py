"""FaultAnalysisService end to end: batching, persistence, degradation.

Builds a small KTeleBERT, wraps it in the online serving façade
(:mod:`repro.serving`), and walks the full request surface:

* ``embed`` through the micro-batcher and a persistent embedding store
  (run the script twice with ``REPRO_STORE_DIR`` set to see the warm-start
  skip every forward pass);
* ``rank_root_causes`` / ``propagate_alarms`` / ``classify_fault`` via the
  lazily-fitted task adapters;
* graceful degradation to a word-embedding fallback when the primary is
  given an impossible deadline;
* the metrics registry dump that ``python -m repro serve-net --stats``
  prints at exit.

    python examples/serving_demo.py     (~1-2 minutes on CPU)
"""

import os
import tempfile

from repro.experiments import ExperimentPipeline, PipelineConfig
from repro.models import model_fingerprint
from repro.service import KTeleBertProvider, WordEmbeddingProvider
from repro.serving import FaultAnalysisService, ServiceConfig
from repro.tasks.eap import EapAdapter, build_eap_dataset
from repro.tasks.fct import FctAdapter, build_fct_dataset
from repro.tasks.rca import RcaAdapter, build_rca_dataset


def main() -> None:
    config = PipelineConfig(seed=5, num_episodes=40, stage1_steps=120,
                            stage2_steps=80, generic_sentences=200)
    pipeline = ExperimentPipeline(config)
    model = pipeline.ktelebert_stl
    provider = KTeleBertProvider(model, pipeline.kg, mode="entity")
    fallback = WordEmbeddingProvider(dim=provider.dim, seed=0)
    store_dir = os.environ.get("REPRO_STORE_DIR") or tempfile.mkdtemp(
        prefix="repro-serving-")

    episodes = pipeline.episodes
    service = FaultAnalysisService(
        provider,
        fallback=fallback,
        config=ServiceConfig(max_batch_size=16, max_wait_ms=5,
                             timeout_s=120.0, max_retries=1),
        store_dir=store_dir,
        fingerprint=model_fingerprint(model),
        rca=RcaAdapter(build_rca_dataset(pipeline.world, episodes), epochs=4),
        eap=EapAdapter(build_eap_dataset(pipeline.world, episodes), epochs=4),
        fct=FctAdapter(build_fct_dataset(pipeline.world, episodes),
                       epochs=15))

    with service:
        print(f"== persistent store: {store_dir} ==")
        names = [e.name for e in pipeline.world.ontology.events[:8]]
        vectors = service.embed(names)
        print(f"embedded {vectors.shape[0]} names -> dim {vectors.shape[1]}")
        service.embed(names)  # warm: zero additional forward passes
        print(f"store after warm pass: {service.store.stats()}")

        print("\n== rank_root_causes (RCA) ==")
        state = service.rca.dataset.states[0]
        truth = state.node_names[state.root_index]
        for node, score in service.rank_root_causes(state, top_k=3):
            marker = "  <- ground truth" if node == truth else ""
            print(f"  {score:+.3f}  {node}{marker}")

        print("\n== propagate_alarms (EAP) ==")
        pairs = service.eap.dataset.pairs[:3]
        for pair, verdict in zip(pairs, service.propagate_alarms(pairs)):
            print(f"  p(trigger)={verdict['confidence']:.3f} "
                  f"(label={pair.label})  {pair.name_i[:28]!r} -> "
                  f"{pair.name_j[:28]!r}")

        print("\n== classify_fault (FCT) ==")
        alarm = service.fct.dataset.entity_names[0]
        print(f"  next hops after {alarm!r}:")
        for hop in service.classify_fault(alarm, top_k=3):
            print(f"    {hop['score']:+.3f}  [{hop['relation']}] "
                  f"{hop['alarm']}")

        print("\n== graceful degradation ==")
        service.config.timeout_s = 1e-4   # impossible deadline
        service.embed(["a name the cache has never seen"])
        service.config.timeout_s = 120.0
        fallbacks = service.metrics.counter("serving.fallbacks").value
        print(f"  primary timed out; fallback answered "
              f"(serving.fallbacks={fallbacks})")

        print("\n" + service.metrics.render())
        stats = service.stats()
        print(f"\nrequests={stats['requests']}  "
              f"cache hit rate={stats['cache']['hit_rate']:.2f}  "
              f"batcher={stats['batcher']}")


if __name__ == "__main__":
    main()

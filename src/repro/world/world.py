"""TelecomWorld: one-call construction of the full synthetic universe."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.world.causality import CausalGraph
from repro.world.episodes import EpisodeSimulator, FaultEpisode
from repro.world.ontology import TeleOntology
from repro.world.topology import NetworkInstance, generate_topology


@dataclass
class TelecomWorld:
    """Bundle of ontology, causal ground truth, and a deployed topology.

    Everything downstream — Tele-Corpus, Tele-KG, machine logs, and the three
    task datasets — is generated from one instance of this class so they stay
    mutually consistent.
    """

    ontology: TeleOntology
    causal_graph: CausalGraph
    topology: NetworkInstance
    seed: int

    @classmethod
    def generate(cls, seed: int = 0, alarms_per_theme: int = 4,
                 kpis_per_theme: int = 3, topology_nodes: int = 14,
                 cross_theme_edges: int = 6) -> "TelecomWorld":
        """Deterministically generate a world from ``seed``."""
        rng = np.random.default_rng(seed)
        ontology = TeleOntology.generate(rng, alarms_per_theme=alarms_per_theme,
                                         kpis_per_theme=kpis_per_theme)
        causal_graph = CausalGraph.generate(ontology, rng,
                                            cross_theme_edges=cross_theme_edges)
        topology = generate_topology(rng, num_nodes=topology_nodes)
        return cls(ontology=ontology, causal_graph=causal_graph,
                   topology=topology, seed=seed)

    def simulator(self, seed_offset: int = 1) -> EpisodeSimulator:
        """Create a fresh episode simulator (independent RNG stream)."""
        rng = np.random.default_rng(self.seed + 1000 + seed_offset)
        return EpisodeSimulator(self.ontology, self.causal_graph,
                                self.topology, rng)

    def simulate_episodes(self, count: int, seed_offset: int = 1,
                          background_kpi_count: int = 5) -> list[FaultEpisode]:
        """Convenience wrapper: simulate ``count`` fault episodes."""
        return self.simulator(seed_offset).simulate_many(
            count, background_kpi_count=background_kpi_count)


def serving_world(seed: int) -> tuple[TelecomWorld, list[FaultEpisode]]:
    """The tiny seeded world and 30 episodes behind checkpoint-free serving.

    ``serve``/``serve-net --adapters`` fit their rca/eap/fct heads on it,
    and :mod:`repro.loadgen` samples its task payloads from it, so a load
    generator and a server given the same ``seed`` agree on node and alarm
    names by construction.
    """
    world = TelecomWorld.generate(seed=seed, alarms_per_theme=2,
                                  kpis_per_theme=2, topology_nodes=6)
    return world, world.simulate_episodes(30)

"""EAP dataset: expert-validated trigger pairs with log/topology context.

Positive pairs come from trigger edges that actually fired in the simulated
episodes (the stand-in for expert-validated fault patterns); each positive is
matched by one negative pair obtained by replacing one side with a random
co-occurring event (Sec. V-C2).  Each pair carries its literal names, the NE
instances the events occurred on, and the occurrence-time difference drawn
from the episode's MDAF-package log records.  Table V's statistics come from
:meth:`EapDataset.describe`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.world.episodes import FaultEpisode
from repro.world.world import TelecomWorld


@dataclass(frozen=True)
class EventPair:
    """One labelled candidate pair."""

    event_i: str       # event uid
    event_j: str
    name_i: str        # literal names (inputs to the PLM)
    name_j: str
    node_i: str        # NE instances (topology feature)
    node_j: str
    time_i: float      # occurrence times (log feature)
    time_j: float
    label: int         # 1 = trigger relationship exists


@dataclass
class EapDataset:
    """Pairs plus the topology needed for the neighbourhood feature."""

    pairs: list[EventPair]
    node_names: list[str]
    neighbor_lists: dict[str, list[str]]
    num_events: int
    num_packages: int

    @property
    def event_names(self) -> list[str]:
        """Distinct literal names over all pairs, sorted."""
        return sorted({p.name_i for p in self.pairs} |
                      {p.name_j for p in self.pairs})

    def describe(self) -> dict[str, int]:
        """Table V row."""
        positives = sum(1 for p in self.pairs if p.label == 1)
        return {
            "events": self.num_events,
            "event_pairs_positive": positives,
            "event_pairs_negative": len(self.pairs) - positives,
            "mdaf_packages": self.num_packages,
            "network_elements": len(self.node_names),
        }


def build_eap_dataset(world: TelecomWorld, episodes: list[FaultEpisode],
                      seed: int = 0) -> EapDataset:
    """Extract positive fired-trigger pairs and sample matched negatives."""
    rng = np.random.default_rng(seed + 5)
    events = {e.uid: e for e in world.ontology.events}

    # Per-episode event observations: uid -> (node, time).
    positive_keys: set[tuple[str, str]] = set()
    pairs: list[EventPair] = []
    observed_events: set[str] = set()

    for episode in episodes:
        occurrences: dict[str, tuple[str, float]] = {}
        for record in episode.records:
            if record.event_uid not in occurrences:
                occurrences[record.event_uid] = (record.node, record.timestamp)
        for source, target in episode.fired_edges:
            if source not in occurrences or target not in occurrences:
                continue
            node_i, time_i = occurrences[source]
            node_j, time_j = occurrences[target]
            positive_keys.add((source, target))
            observed_events.update((source, target))
            pairs.append(EventPair(
                event_i=source, event_j=target,
                name_i=events[source].name, name_j=events[target].name,
                node_i=node_i, node_j=node_j,
                time_i=time_i, time_j=time_j, label=1))

    # One negative per positive: corrupt one side with another observed
    # event such that the corrupted pair is not a known positive.
    positives = [p for p in pairs if p.label == 1]
    all_observed = sorted(observed_events)
    for positive in positives:
        for _ in range(50):
            corrupt_left = rng.random() < 0.5
            replacement = all_observed[int(rng.integers(len(all_observed)))]
            if corrupt_left:
                candidate = (replacement, positive.event_j)
            else:
                candidate = (positive.event_i, replacement)
            if candidate in positive_keys or candidate[0] == candidate[1]:
                continue
            source, target = candidate
            pairs.append(EventPair(
                event_i=source, event_j=target,
                name_i=events[source].name, name_j=events[target].name,
                node_i=positive.node_i if not corrupt_left else positive.node_j,
                node_j=positive.node_j if corrupt_left else positive.node_i,
                time_i=positive.time_i, time_j=positive.time_j, label=0))
            break

    nodes = world.topology.nodes
    neighbor_lists = {n: world.topology.neighbors(n) + [n] for n in nodes}
    return EapDataset(pairs=pairs, node_names=nodes,
                      neighbor_lists=neighbor_lists,
                      num_events=len(observed_events),
                      num_packages=len(episodes))

"""Fault-episode simulator: the source of all machine log data.

Each episode injects one root-cause alarm on an NE instance and propagates it
through the ground-truth causal graph.  The emitted
:class:`LogRecord` stream is what the paper calls machine (log) data
(Sec. II-A1): abnormal events (alarms), disturbed KPI measurements, plus
cyclical *normal* KPI readings that dominate real logs.  Episodes also retain
their generation ground truth (root cause, fired trigger pairs, propagation
chain) so downstream task datasets (RCA, EAP, FCT) can be labelled without
expert annotation — the labels play the role of the paper's expert-validated
fault cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.world.causality import CausalGraph
from repro.world.ontology import Alarm, Kpi, TeleOntology
from repro.world.topology import NetworkInstance


@dataclass(frozen=True)
class LogRecord:
    """One machine log line."""

    timestamp: float
    kind: str          # "alarm" | "kpi"
    event_uid: str
    node: str          # NE instance the record was raised on
    tag: str           # event surface name (the "tag name" for numerics)
    value: float | None  # KPI value; None for alarms
    severity: str | None = None
    interface: str | None = None


@dataclass
class FaultEpisode:
    """A simulated fault with full ground truth."""

    episode_id: int
    root_uid: str
    root_node: str
    records: list[LogRecord]
    #: trigger pairs that actually fired: (source uid, target uid)
    fired_edges: list[tuple[str, str]]
    #: alarm propagation chain in firing order (uids), starting at the root
    chain: list[str]

    @property
    def alarm_records(self) -> list[LogRecord]:
        return [r for r in self.records if r.kind == "alarm"]

    @property
    def kpi_records(self) -> list[LogRecord]:
        return [r for r in self.records if r.kind == "kpi"]

    def occurrence_time(self, uid: str) -> float | None:
        """First time an event uid appears in this episode's records."""
        for record in self.records:
            if record.event_uid == uid:
                return record.timestamp
        return None


class EpisodeSimulator:
    """Generates fault episodes on a topology from the causal ground truth."""

    def __init__(self, ontology: TeleOntology, causal_graph: CausalGraph,
                 topology: NetworkInstance, rng: np.random.Generator):
        self.ontology = ontology
        self.causal_graph = causal_graph
        self.topology = topology
        self.rng = rng
        self._events = {e.uid: e for e in ontology.events}

    # ------------------------------------------------------------------
    def _place_event(self, event, parent_node: str | None) -> str:
        """Choose the NE instance an event occurs on.

        Prefers a neighbour of the parent's node with the right NE type, so
        fault propagation follows the topology (the basis of the EAP/RCA
        topological features).
        """
        candidates = self.topology.nodes_of_type(event.ne_type)
        if parent_node is not None:
            neighbours = set(self.topology.neighbors(parent_node)) | {parent_node}
            local = [n for n in candidates if n in neighbours]
            if local:
                return local[int(self.rng.integers(len(local)))]
        if candidates:
            return candidates[int(self.rng.integers(len(candidates)))]
        if parent_node is not None:
            return parent_node
        nodes = self.topology.nodes
        return nodes[int(self.rng.integers(len(nodes)))]

    def _kpi_value(self, kpi: Kpi, anomalous: bool) -> float:
        """Sample a KPI reading, outside the normal range when anomalous."""
        span = kpi.normal_high - kpi.normal_low
        if not anomalous:
            return float(self.rng.uniform(kpi.normal_low, kpi.normal_high))
        magnitude = float(self.rng.uniform(0.3, 1.5)) * span
        if kpi.anomaly_direction == "up":
            return kpi.normal_high + magnitude
        return max(kpi.normal_low - magnitude, 0.0)

    def _alarm_record(self, alarm: Alarm, node: str, timestamp: float) -> LogRecord:
        return LogRecord(timestamp=timestamp, kind="alarm", event_uid=alarm.uid,
                         node=node, tag=alarm.name, value=None,
                         severity=alarm.severity, interface=alarm.interface)

    def _kpi_record(self, kpi: Kpi, node: str, timestamp: float,
                    anomalous: bool) -> LogRecord:
        return LogRecord(timestamp=timestamp, kind="kpi", event_uid=kpi.uid,
                         node=node, tag=kpi.name,
                         value=self._kpi_value(kpi, anomalous))

    # ------------------------------------------------------------------
    def simulate(self, episode_id: int, root_uid: str | None = None,
                 start_time: float = 0.0,
                 background_kpi_count: int = 5) -> FaultEpisode:
        """Run one fault episode.

        ``root_uid`` picks the injected root alarm (random root of the causal
        DAG by default).  ``background_kpi_count`` normal KPI readings are
        interleaved to mimic the dominance of normal indicators in real logs.
        """
        # Any alarm with outgoing trigger edges can be injected as the root
        # cause — real fault episodes do not only start at the global sources
        # of the trigger knowledge.
        roots = sorted({e.source for e in self.causal_graph.edges
                        if self._events[e.source].kind == "alarm"})
        if not roots:
            raise RuntimeError("causal graph has no alarm roots")
        if root_uid is None:
            root_uid = roots[int(self.rng.integers(len(roots)))]
        root = self._events[root_uid]
        if root.kind != "alarm":
            raise ValueError(f"root {root_uid} is not an alarm")

        records: list[LogRecord] = []
        fired: list[tuple[str, str]] = []
        chain: list[str] = [root_uid]
        root_node = self._place_event(root, None)
        records.append(self._alarm_record(root, root_node, start_time))

        # BFS propagation with per-edge probability and exponential delays.
        frontier: list[tuple[str, str, float]] = [(root_uid, root_node, start_time)]
        activated: set[str] = {root_uid}
        while frontier:
            uid, node, t = frontier.pop(0)
            for edge in self.causal_graph.successors(uid):
                if edge.target in activated:
                    continue
                if self.rng.random() > edge.probability:
                    continue
                target = self._events[edge.target]
                delay = float(self.rng.exponential(edge.delay))
                t_target = t + max(delay, 0.5)
                target_node = self._place_event(target, node)
                fired.append((uid, edge.target))
                activated.add(edge.target)
                if target.kind == "alarm":
                    records.append(self._alarm_record(target, target_node, t_target))
                    chain.append(edge.target)
                    frontier.append((edge.target, target_node, t_target))
                else:
                    records.append(self._kpi_record(target, target_node,
                                                    t_target, anomalous=True))

        # Background normal KPI readings.
        kpis = self.ontology.kpis
        for _ in range(background_kpi_count):
            kpi = kpis[int(self.rng.integers(len(kpis)))]
            if kpi.uid in activated:
                continue
            node = self._place_event(kpi, None)
            timestamp = start_time + float(self.rng.uniform(0, 300))
            records.append(self._kpi_record(kpi, node, timestamp, anomalous=False))

        records.sort(key=lambda r: r.timestamp)
        return FaultEpisode(episode_id=episode_id, root_uid=root_uid,
                            root_node=root_node, records=records,
                            fired_edges=fired, chain=chain)

    def simulate_many(self, count: int,
                      background_kpi_count: int = 5) -> list[FaultEpisode]:
        """Simulate ``count`` episodes with staggered start times."""
        episodes = []
        for i in range(count):
            episodes.append(self.simulate(
                episode_id=i, start_time=i * 3600.0,
                background_kpi_count=background_kpi_count))
        return episodes

"""Synthetic telecom universe — the stand-in for Huawei's proprietary data.

The paper's corpus, Tele-KG, machine logs, and fault-case labels all come from
a production platform we cannot access (repro band 2).  This package builds a
*self-consistent* synthetic replacement:

* :mod:`repro.world.ontology` — network-element types, interfaces, vendors,
  and generated alarm/KPI catalogs whose surface names carry fault "themes".
* :mod:`repro.world.causality` — a ground-truth directed causal graph over
  events (alarm→alarm, alarm→KPI) organised around those themes.
* :mod:`repro.world.topology` — network instances (typed NE nodes + links).
* :mod:`repro.world.episodes` — a fault-episode simulator that injects a root
  cause and propagates it through the causal graph, emitting timestamped
  alarm/KPI log records (the machine log data of Sec. II-A1).

Because documents, KG triples, logs, and task labels are all derived from the
*same* causal ground truth, domain pre-training on the documents genuinely
helps the downstream tasks — which is the paper's central claim and the
behaviour the substitution must preserve.
"""

from repro.world.ontology import (
    Alarm,
    Kpi,
    NetworkElementType,
    TeleOntology,
    INTERFACES,
    NE_TYPES,
    THEMES,
)
from repro.world.causality import CausalGraph, CausalEdge
from repro.world.topology import NetworkInstance, generate_topology
from repro.world.episodes import EpisodeSimulator, FaultEpisode, LogRecord
from repro.world.signaling import (
    PROCEDURES,
    SignalingFlow,
    SignalingRecord,
    SignalingSimulator,
)
from repro.world.configuration import (
    PARAMETER_CATALOG,
    ConfigRecord,
    ConfigurationGenerator,
)
from repro.world.logio import export_episodes, import_episodes
from repro.world.timeseries import (
    KpiSeries,
    KpiSeriesGenerator,
    detect_anomalies,
    detection_f1,
    rolling_zscore,
)
from repro.world.world import TelecomWorld, serving_world

__all__ = [
    "Alarm",
    "CausalEdge",
    "CausalGraph",
    "ConfigRecord",
    "ConfigurationGenerator",
    "EpisodeSimulator",
    "FaultEpisode",
    "INTERFACES",
    "Kpi",
    "KpiSeries",
    "KpiSeriesGenerator",
    "LogRecord",
    "NE_TYPES",
    "NetworkElementType",
    "NetworkInstance",
    "PARAMETER_CATALOG",
    "PROCEDURES",
    "SignalingFlow",
    "SignalingRecord",
    "SignalingSimulator",
    "TeleOntology",
    "TelecomWorld",
    "THEMES",
    "detect_anomalies",
    "detection_f1",
    "export_episodes",
    "generate_topology",
    "import_episodes",
    "rolling_zscore",
    "serving_world",
]

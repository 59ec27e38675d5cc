"""Tests for the synthetic telecom world (ontology, causality, topology, episodes)."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.world import (
    NE_TYPES,
    TeleOntology,
    TelecomWorld,
    generate_topology,
    serving_world,
)


@pytest.fixture(scope="module")
def world():
    return TelecomWorld.generate(seed=42)


class TestOntology:
    def test_catalog_sizes(self):
        rng = np.random.default_rng(0)
        onto = TeleOntology.generate(rng, alarms_per_theme=4, kpis_per_theme=3)
        from repro.world.ontology import THEMES
        assert len(onto.alarms) == 4 * len(THEMES)
        assert len(onto.kpis) == 3 * len(THEMES)

    def test_uids_unique(self, world):
        uids = [e.uid for e in world.ontology.events]
        assert len(uids) == len(set(uids))

    def test_alarm_interface_belongs_to_ne(self, world):
        for alarm in world.ontology.alarms:
            assert alarm.interface in NE_TYPES[alarm.ne_type]

    def test_kpi_normal_range_valid(self, world):
        for kpi in world.ontology.kpis:
            assert kpi.normal_low < kpi.normal_high
            assert kpi.anomaly_direction in ("up", "down")

    def test_most_themes_share_characteristic_words(self, world):
        """Theme events should tend to overlap lexically — part of the
        pre-training signal (the rest comes from causal co-occurrence in the
        generated documents)."""
        from collections import Counter
        stop = {"the", "is", "of", "on", "a", "in"}
        themes = {}
        for event in world.ontology.events:
            themes.setdefault(event.theme, []).append(
                set(event.name.lower().split()))
        sharing = 0
        for word_sets in themes.values():
            all_words = Counter(w for s in word_sets for w in s)
            top = {w for w, c in all_words.items()
                   if c >= len(word_sets) // 2} - stop
            if top:
                sharing += 1
        assert sharing >= len(themes) * 0.6

    def test_event_by_uid(self, world):
        first = world.ontology.alarms[0]
        assert world.ontology.event_by_uid(first.uid) is first
        with pytest.raises(KeyError):
            world.ontology.event_by_uid("ALM-99999")

    def test_deterministic_generation(self):
        a = TeleOntology.generate(np.random.default_rng(5))
        b = TeleOntology.generate(np.random.default_rng(5))
        assert [x.name for x in a.events] == [x.name for x in b.events]


class TestCausalGraph:
    def test_acyclic(self, world):
        assert world.causal_graph.is_acyclic()

    def test_probabilities_in_range(self, world):
        for edge in world.causal_graph.edges:
            assert 0.0 < edge.probability <= 1.0
            assert edge.delay > 0

    def test_no_duplicate_edges(self, world):
        pairs = [(e.source, e.target) for e in world.causal_graph.edges]
        assert len(pairs) == len(set(pairs))

    def test_roots_are_sources_only(self, world):
        graph = world.causal_graph
        targets = {e.target for e in graph.edges}
        for root in graph.roots():
            assert root not in targets

    def test_kpis_never_trigger(self, world):
        kpi_uids = {k.uid for k in world.ontology.kpis}
        for edge in world.causal_graph.edges:
            assert edge.source not in kpi_uids

    def test_successors_lookup(self, world):
        graph = world.causal_graph
        edge = graph.edges[0]
        assert edge in graph.successors(edge.source)

    def test_mostly_intra_theme(self, world):
        events = {e.uid: e for e in world.ontology.events}
        intra = sum(1 for e in world.causal_graph.edges
                    if events[e.source].theme == events[e.target].theme)
        assert intra / world.causal_graph.num_edges > 0.7


#: sha256 (first 32 hex digits) of ``_layout`` for ``(seed, num_nodes)``,
#: recorded from the networkx-based generator: episodes, KGs and task
#: datasets follow node, link and neighbour order, so none may change.
LAYOUT_DIGESTS = {
    (0, 6): "cad5714fbf9b240cc044db3bfb201090",
    (0, 14): "7a1dcffc4b22e60706845dc3d881aa7d",
    (0, 20): "758040cfa24e45a2e08cd5b8c3a04027",
    (1, 6): "ae857db8c7f0043ce529f5f10ab1745a",
    (1, 14): "4852920265065cfaf9b35264c0d5ed79",
    (1, 20): "8f27b6d407724d5a6a4b8d4366845be3",
    (2, 6): "4c03a49c181ec164d802ecd6440663dd",
    (2, 14): "78ce9541ba0eaa1654d0dc7e7578266b",
    (2, 20): "ac17be966b8e0889fe5c4870a1623327",
}


def _layout(topo) -> str:
    return json.dumps([topo.nodes, [list(edge) for edge in topo.edges],
                       [topo.neighbors(node) for node in topo.nodes]])


class TestTopology:
    def test_connected(self):
        topo = generate_topology(np.random.default_rng(0), num_nodes=15)
        start = topo.nodes[0]
        reached, frontier = {start}, [start]
        while frontier:
            frontier = [nbr for node in frontier
                        for nbr in topo.neighbors(node) if nbr not in reached]
            reached.update(frontier)
        assert reached == set(topo.nodes)

    def test_node_count(self):
        topo = generate_topology(np.random.default_rng(1), num_nodes=8)
        assert topo.num_nodes == 8

    def test_node_attributes(self):
        topo = generate_topology(np.random.default_rng(2), num_nodes=6)
        for node in topo.nodes:
            assert topo.attributes[node]["ne_type"] in NE_TYPES
            assert "vendor" in topo.attributes[node]
            assert "location" in topo.attributes[node]

    def test_layout_matches_recorded_order(self):
        topo = generate_topology(np.random.default_rng(0), num_nodes=6)
        assert topo.nodes == ["eNodeB-01", "PCF-01", "SMF-01", "eNodeB-02",
                              "MME-01", "HSS-01"]
        assert topo.edges == [
            ("eNodeB-01", "eNodeB-02"), ("eNodeB-01", "PCF-01"),
            ("eNodeB-01", "MME-01"), ("SMF-01", "eNodeB-02"),
            ("SMF-01", "MME-01"), ("eNodeB-02", "HSS-01")]
        assert topo.neighbors("eNodeB-02") == ["SMF-01", "eNodeB-01",
                                               "HSS-01"]
        for (seed, num_nodes), digest in LAYOUT_DIGESTS.items():
            topo = generate_topology(np.random.default_rng(seed),
                                     num_nodes=num_nodes)
            assert hashlib.sha256(
                _layout(topo).encode()).hexdigest()[:32] == digest, (
                seed, num_nodes)

    def test_adjacency_matrix_symmetric(self):
        topo = generate_topology(np.random.default_rng(3), num_nodes=10)
        adj = topo.adjacency_matrix()
        assert np.array_equal(adj, adj.T)
        assert adj.sum() == 2 * topo.num_edges

    def test_too_few_nodes_raises(self):
        with pytest.raises(ValueError):
            generate_topology(np.random.default_rng(0), num_nodes=1)

    def test_nodes_of_type(self):
        topo = generate_topology(np.random.default_rng(4), num_nodes=20)
        for ne_type in {topo.ne_type(n) for n in topo.nodes}:
            for node in topo.nodes_of_type(ne_type):
                assert topo.ne_type(node) == ne_type


class TestEpisodes:
    def test_root_is_first_record(self, world):
        episode = world.simulator().simulate(0)
        alarms = episode.alarm_records
        assert alarms[0].event_uid == episode.root_uid

    def test_fired_edges_are_ground_truth_edges(self, world):
        sim = world.simulator()
        for i in range(5):
            episode = sim.simulate(i)
            for pair in episode.fired_edges:
                assert world.causal_graph.has_edge(*pair)

    def test_chain_starts_at_root(self, world):
        episode = world.simulator().simulate(0)
        assert episode.chain[0] == episode.root_uid

    def test_timestamps_sorted(self, world):
        episode = world.simulator().simulate(0)
        times = [r.timestamp for r in episode.records]
        assert times == sorted(times)

    def test_kpi_records_have_values(self, world):
        episode = world.simulator().simulate(0, background_kpi_count=10)
        for record in episode.kpi_records:
            assert record.value is not None and record.value >= 0

    def test_anomalous_kpi_outside_normal_range(self, world):
        sim = world.simulator()
        events = {e.uid: e for e in world.ontology.events}
        found_anomaly = False
        for i in range(10):
            episode = sim.simulate(i, background_kpi_count=0)
            for record in episode.kpi_records:
                kpi = events[record.event_uid]
                outside = (record.value < kpi.normal_low or
                           record.value > kpi.normal_high)
                assert outside  # with background 0, every KPI record is anomalous
                found_anomaly = True
        assert found_anomaly

    def test_explicit_root(self, world):
        roots = [u for u in world.causal_graph.roots()
                 if u.startswith("ALM")]
        episode = world.simulator().simulate(0, root_uid=roots[0])
        assert episode.root_uid == roots[0]

    def test_non_alarm_root_raises(self, world):
        kpi_uid = world.ontology.kpis[0].uid
        with pytest.raises(ValueError):
            world.simulator().simulate(0, root_uid=kpi_uid)

    def test_simulate_many_staggers_time(self, world):
        episodes = world.simulator().simulate_many(3)
        starts = [min(r.timestamp for r in e.records) for e in episodes]
        assert starts[0] < starts[1] < starts[2]

    def test_occurrence_time(self, world):
        episode = world.simulator().simulate(0)
        t = episode.occurrence_time(episode.root_uid)
        assert t == min(r.timestamp for r in episode.records
                        if r.event_uid == episode.root_uid)
        assert episode.occurrence_time("ALM-00000") is None


class TestWorld:
    def test_deterministic(self):
        a = TelecomWorld.generate(seed=9)
        b = TelecomWorld.generate(seed=9)
        assert a.causal_graph.edge_set() == b.causal_graph.edge_set()
        assert a.topology.nodes == b.topology.nodes

    def test_different_seeds_differ(self):
        a = TelecomWorld.generate(seed=1)
        b = TelecomWorld.generate(seed=2)
        assert a.causal_graph.edge_set() != b.causal_graph.edge_set()

    def test_simulate_episodes_wrapper(self, world):
        episodes = world.simulate_episodes(2)
        assert len(episodes) == 2

    @pytest.mark.parametrize("seed", [0, 11])
    def test_serving_world_is_the_tiny_world(self, seed):
        # serve-net --adapters fits on it and loadgen samples payloads
        # from it; perfbench/bench_serve.py keeps its own literal copy.
        world, episodes = serving_world(seed)
        literal = TelecomWorld.generate(seed=seed, alarms_per_theme=2,
                                        kpis_per_theme=2, topology_nodes=6)
        assert world == literal
        assert episodes == literal.simulate_episodes(30)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_causal_graph_always_acyclic(seed):
    world = TelecomWorld.generate(seed=seed, alarms_per_theme=3,
                                  kpis_per_theme=2, topology_nodes=6)
    assert world.causal_graph.is_acyclic()


class TestLogIo:
    def test_roundtrip_preserves_everything(self, world, tmp_path):
        from repro.world import export_episodes, import_episodes
        episodes = world.simulate_episodes(3)
        path = export_episodes(episodes, tmp_path / "episodes.jsonl")
        restored = import_episodes(path)
        assert len(restored) == len(episodes)
        for a, b in zip(episodes, restored):
            assert a.root_uid == b.root_uid
            assert a.chain == b.chain
            assert a.fired_edges == b.fired_edges
            assert len(a.records) == len(b.records)
            assert a.records[0] == b.records[0]

    def test_line_separators_in_a_record_round_trip(self, world, tmp_path):
        import dataclasses

        from repro.world import export_episodes, import_episodes
        episodes = world.simulate_episodes(2)
        first = episodes[0].records[0]
        episodes[0].records[0] = dataclasses.replace(
            first, tag=first.tag + "\u2028\u2029\u0085")
        path = export_episodes(episodes, tmp_path / "episodes.jsonl")
        restored = import_episodes(path)
        assert [e.records for e in restored] == [e.records for e in episodes]

    def test_unparsable_episode_line_raises(self, world, tmp_path):
        from repro.world import export_episodes, import_episodes
        path = export_episodes(world.simulate_episodes(2),
                               tmp_path / "episodes.jsonl")
        with open(path, "ab") as handle:
            handle.write(b'{"episode_id": \n')
        with pytest.raises(json.JSONDecodeError):
            import_episodes(path)

    def test_bad_format_rejected(self, tmp_path):
        from repro.world import import_episodes
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            import_episodes(path)

    def test_empty_file_rejected(self, tmp_path):
        from repro.world import import_episodes
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            import_episodes(path)

    def test_restored_episodes_usable_by_tasks(self, world, tmp_path):
        from repro.tasks.rca import build_rca_dataset
        from repro.world import export_episodes, import_episodes
        episodes = world.simulate_episodes(5)
        path = export_episodes(episodes, tmp_path / "episodes.jsonl")
        restored = import_episodes(path)
        a = build_rca_dataset(world, episodes)
        b = build_rca_dataset(world, restored)
        assert len(a.states) == len(b.states)
        for sa, sb in zip(a.states, b.states):
            assert np.array_equal(sa.features, sb.features)

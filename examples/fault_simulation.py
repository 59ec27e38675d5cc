"""Fault-episode simulation and machine-log inspection.

Generates fault episodes on a synthetic network, prints the propagation
chain, the machine log stream (as KTeleBERT sees it through the prompt
templates), and verifies the episode against the causal ground truth.

    python examples/fault_simulation.py
"""

from repro.prompts import wrap_log_record
from repro.world import TelecomWorld


def main() -> None:
    world = TelecomWorld.generate(seed=12)
    events = {e.uid: e for e in world.ontology.events}

    simulator = world.simulator()
    episode = simulator.simulate(0, background_kpi_count=4)

    root = events[episode.root_uid]
    print(f"injected root cause: {episode.root_uid} on {episode.root_node}")
    print(f"  '{root.name}' (theme: {root.theme})")

    print(f"\npropagation chain ({len(episode.chain)} alarms):")
    for uid in episode.chain:
        print(f"  {uid}: {events[uid].name[:60]}")

    print(f"\nmachine log stream ({len(episode.records)} records), "
          "prompt-wrapped:")
    for record in episode.records[:8]:
        print(f"  t={record.timestamp:7.1f}s  {wrap_log_record(record)[:95]}")

    # Every fired hop is a ground-truth causal edge.
    assert all(world.causal_graph.has_edge(*pair)
               for pair in episode.fired_edges)
    print(f"\nall {len(episode.fired_edges)} fired trigger pairs verified "
          "against the causal ground truth")

    # Downstream views of the same episode batch.
    episodes = simulator.simulate_many(20)
    themes = {}
    for ep in episodes:
        theme = events[ep.root_uid].theme
        themes[theme] = themes.get(theme, 0) + 1
    print(f"\nroot-cause theme distribution over {len(episodes)} episodes:")
    for theme, count in sorted(themes.items(), key=lambda kv: -kv[1]):
        print(f"  {theme:<16} {'#' * count}")


if __name__ == "__main__":
    main()

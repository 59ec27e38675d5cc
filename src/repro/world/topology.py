"""Network topology instances: typed NE nodes with connections."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.world.ontology import LOCATIONS, NE_TYPES, VENDORS


@dataclass
class NetworkInstance:
    """One deployed network: NE instances and the links between them.

    ``attributes`` maps each node, in insertion order, to its ``ne_type``,
    ``vendor`` and ``location``.  ``adjacency`` maps each node to its
    neighbours in the order their links were added; links are undirected,
    so each one appears in both endpoints' lists.
    """

    attributes: dict[str, dict[str, str]]
    adjacency: dict[str, list[str]]
    name: str = "network"

    @property
    def nodes(self) -> list[str]:
        return list(self.attributes)

    @property
    def num_nodes(self) -> int:
        return len(self.attributes)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency.values()) // 2

    @property
    def edges(self) -> list[tuple[str, str]]:
        """Each link once: nodes in insertion order, then each node's
        neighbours in link order, skipping neighbours already visited."""
        seen: set[str] = set()
        edges = []
        for node, nbrs in self.adjacency.items():
            edges.extend((node, nbr) for nbr in nbrs if nbr not in seen)
            seen.add(node)
        return edges

    def ne_type(self, node: str) -> str:
        return self.attributes[node]["ne_type"]

    def nodes_of_type(self, ne_type: str) -> list[str]:
        return [n for n, attrs in self.attributes.items()
                if attrs["ne_type"] == ne_type]

    def neighbors(self, node: str) -> list[str]:
        return list(self.adjacency[node])

    def adjacency_matrix(self, order: list[str] | None = None) -> np.ndarray:
        """Dense symmetric adjacency over ``order`` (defaults to node order)."""
        order = order or self.nodes
        index = {n: i for i, n in enumerate(order)}
        mat = np.zeros((len(order), len(order)))
        for u, v in self.edges:
            if u in index and v in index:
                mat[index[u], index[v]] = 1.0
                mat[index[v], index[u]] = 1.0
        return mat


def _shared_interface(type_a: str, type_b: str) -> str | None:
    shared = set(NE_TYPES[type_a]) & set(NE_TYPES[type_b])
    return sorted(shared)[0] if shared else None


def generate_topology(rng: np.random.Generator, num_nodes: int = 12,
                      extra_link_probability: float = 0.25,
                      name: str = "network") -> NetworkInstance:
    """Generate a connected NE topology.

    NE instances get types sampled from the catalog; a random spanning tree
    guarantees connectivity, then extra links are added preferentially between
    NE types that share an interface (as real networks do).
    """
    if num_nodes < 2:
        raise ValueError("topology needs at least 2 nodes")
    type_names = list(NE_TYPES)
    attributes: dict[str, dict[str, str]] = {}
    adjacency: dict[str, list[str]] = {}
    counters: dict[str, int] = {}
    for _ in range(num_nodes):
        ne_type = type_names[int(rng.integers(len(type_names)))]
        counters[ne_type] = counters.get(ne_type, 0) + 1
        node = f"{ne_type}-{counters[ne_type]:02d}"
        attributes[node] = {
            "ne_type": ne_type,
            "vendor": VENDORS[int(rng.integers(len(VENDORS)))],
            "location": LOCATIONS[int(rng.integers(len(LOCATIONS)))],
        }
        adjacency[node] = []

    def link(u: str, v: str) -> None:
        adjacency[u].append(v)
        adjacency[v].append(u)

    # Random spanning tree for connectivity.
    nodes = list(attributes)
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    for i in range(1, len(shuffled)):
        link(shuffled[i], shuffled[int(rng.integers(i))])

    # Extra links, biased towards interface-compatible pairs.
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if v in adjacency[u]:
                continue
            shared = _shared_interface(attributes[u]["ne_type"],
                                       attributes[v]["ne_type"])
            p = extra_link_probability if shared else extra_link_probability / 4
            if rng.random() < p:
                link(u, v)

    return NetworkInstance(attributes=attributes, adjacency=adjacency,
                           name=name)

"""Overlay-quality diagnostics for Peer Sampling Services.

Section II of the paper rests on the PSS views being "a uniformly random
sample of nodes". These helpers quantify how close a running overlay is
to that ideal: in-degree distribution, clustering coefficient, and
connectivity — the standard metrics from the gossip-based peer sampling
literature (Jelasity et al., TOCS 2007).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Type

import networkx as nx

from repro.pss.base import PeerSamplingService
from repro.sim.metrics import mean, stdev
from repro.sim.node import Node

__all__ = [
    "overlay_graph",
    "indegree_stats",
    "clustering_coefficient",
    "is_connected",
    "overlay_report",
]


def overlay_graph(
    nodes: Sequence[Node],
    service_cls: Type[PeerSamplingService] = PeerSamplingService,
) -> "nx.DiGraph":
    """The directed graph induced by current PSS views (alive nodes only)."""
    graph = nx.DiGraph()
    alive = [n for n in nodes if n.alive]
    for node in alive:
        graph.add_node(node.id)
    alive_ids = set(graph.nodes)
    for node in alive:
        service = node.get_service(service_cls)
        if service is None:
            continue
        for peer in service.peers():
            if peer in alive_ids:
                graph.add_edge(node.id, peer)
    return graph


def indegree_stats(graph: "nx.DiGraph") -> Dict[str, float]:
    """Mean/stdev/max of in-degree; a random overlay has low stdev."""
    degrees: List[int] = [d for _, d in graph.in_degree()]
    if not degrees:
        return {"mean": 0.0, "stdev": 0.0, "max": 0.0}
    return {"mean": mean(degrees), "stdev": stdev(degrees), "max": float(max(degrees))}


def clustering_coefficient(graph: "nx.DiGraph") -> float:
    """Average clustering of the undirected projection.

    For a random graph this approaches ``view_size / N``; high values mean
    the overlay has collapsed into cliques (bad for epidemic spread).
    """
    if graph.number_of_nodes() == 0:
        return 0.0
    return nx.average_clustering(graph.to_undirected())


def is_connected(graph: "nx.DiGraph") -> bool:
    """Weak connectivity — a disconnected overlay cannot disseminate."""
    if graph.number_of_nodes() == 0:
        return False
    return nx.is_weakly_connected(graph)


def overlay_report(
    nodes: Sequence[Node],
    service_cls: Type[PeerSamplingService] = PeerSamplingService,
) -> Dict[str, float]:
    """One-call summary used by tests and bench A6."""
    graph = overlay_graph(nodes, service_cls)
    stats = indegree_stats(graph)
    return {
        "nodes": float(graph.number_of_nodes()),
        "edges": float(graph.number_of_edges()),
        "indegree_mean": stats["mean"],
        "indegree_stdev": stats["stdev"],
        "indegree_max": stats["max"],
        "clustering": clustering_coefficient(graph),
        "connected": 1.0 if is_connected(graph) else 0.0,
    }

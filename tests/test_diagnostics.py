"""Tests for overlay diagnostics."""

import networkx as nx

from repro.pss.diagnostics import (
    clustering_coefficient,
    indegree_stats,
    is_connected,
    overlay_graph,
    overlay_report,
)
from repro.sim.node import Node
from repro.sim.simulator import Simulation

from tests.conftest import build_overlay


def test_overlay_graph_counts_alive_only():
    sim, nodes = build_overlay(n=20, rounds=10)
    nodes[0].crash()
    graph = overlay_graph(nodes)
    assert graph.number_of_nodes() == 19
    assert nodes[0].id not in graph


def test_indegree_stats_of_empty_graph():
    assert indegree_stats(nx.DiGraph()) == {"mean": 0.0, "stdev": 0.0, "max": 0.0}


def test_mean_indegree_equals_mean_outdegree():
    _, nodes = build_overlay(n=30, rounds=15)
    graph = overlay_graph(nodes)
    stats = indegree_stats(graph)
    out_mean = sum(d for _, d in graph.out_degree()) / graph.number_of_nodes()
    assert abs(stats["mean"] - out_mean) < 1e-9


def test_clustering_of_empty_graph():
    assert clustering_coefficient(nx.DiGraph()) == 0.0


def test_connectivity_detects_disconnection():
    graph = nx.DiGraph()
    graph.add_edge(1, 2)
    graph.add_node(3)
    assert not is_connected(graph)
    graph.add_edge(2, 3)
    assert is_connected(graph)
    assert not is_connected(nx.DiGraph())


def test_overlay_report_keys():
    _, nodes = build_overlay(n=25, rounds=10)
    report = overlay_report(nodes)
    assert set(report) == {
        "nodes",
        "edges",
        "indegree_mean",
        "indegree_stdev",
        "indegree_max",
        "clustering",
        "connected",
    }
    assert report["nodes"] == 25
    assert report["connected"] == 1.0


def test_nodes_without_pss_contribute_no_edges():
    sim = Simulation(seed=1)
    plain = sim.add_nodes(Node, 3)
    sim.start_all()
    graph = overlay_graph(plain)
    assert graph.number_of_nodes() == 3
    assert graph.number_of_edges() == 0

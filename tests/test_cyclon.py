"""Tests for the Cyclon Peer Sampling Service."""

import pytest

from repro.errors import ConfigurationError
from repro.pss.cyclon import CyclonService
from repro.pss.diagnostics import overlay_graph, is_connected
from repro.sim.node import Node
from repro.sim.simulator import Simulation

from tests.conftest import build_overlay


def test_shuffle_length_validated():
    with pytest.raises(ConfigurationError):
        CyclonService(view_size=5, shuffle_length=6)
    with pytest.raises(ConfigurationError):
        CyclonService(view_size=5, shuffle_length=0)


def test_views_fill_to_capacity():
    _, nodes = build_overlay(n=50, rounds=20)
    sizes = [len(n.get_service(CyclonService).view) for n in nodes]
    assert min(sizes) >= 8  # view_size=10 in the fixture overlay


def test_view_never_contains_self():
    _, nodes = build_overlay(n=30, rounds=15)
    for node in nodes:
        assert node.id not in node.get_service(CyclonService).peers()


def test_overlay_stays_connected():
    _, nodes = build_overlay(n=60, rounds=25)
    assert is_connected(overlay_graph(nodes))


def test_views_change_over_time():
    sim, nodes = build_overlay(n=40, rounds=10)
    before = {n.id: set(n.get_service(CyclonService).peers()) for n in nodes}
    sim.run_for(10)
    after = {n.id: set(n.get_service(CyclonService).peers()) for n in nodes}
    changed = sum(1 for i in before if before[i] != after[i])
    assert changed > len(nodes) // 2  # continuous mixing


def test_dead_nodes_age_out_of_views():
    sim, nodes = build_overlay(n=40, rounds=20)
    victims = {n.id for n in nodes[:10]}
    for node in nodes[:10]:
        node.crash()
    sim.run_for(40)  # several shuffle periods
    survivors = nodes[10:]
    references = sum(
        1
        for node in survivors
        for peer in node.get_service(CyclonService).peers()
        if peer in victims
    )
    total = sum(len(node.get_service(CyclonService).peers()) for node in survivors)
    assert references / total < 0.05  # dead entries almost fully purged


def test_random_peer_and_sample():
    _, nodes = build_overlay(n=20, rounds=10)
    pss = nodes[0].get_service(CyclonService)
    peer = pss.random_peer()
    assert peer in pss.peers()
    sample = pss.sample(5)
    assert len(sample) == len(set(sample)) == 5


def test_bootstrap_excludes_self():
    sim = Simulation(seed=1)

    def factory(node_id, ctx):
        node = Node(node_id, ctx)
        node.add_service(CyclonService(view_size=5, shuffle_length=3))
        return node

    node = sim.add_node(factory)
    pss = node.get_service(CyclonService)
    pss.bootstrap([node.id, node.id + 1])
    assert pss.peers() == [node.id + 1]


def test_isolated_node_rejoins_via_single_contact():
    sim, nodes = build_overlay(n=30, rounds=10)

    def factory(node_id, ctx):
        node = Node(node_id, ctx)
        node.add_service(CyclonService(view_size=10, shuffle_length=5))
        return node

    joiner = sim.add_node(factory)
    joiner.start()
    joiner.get_service(CyclonService).bootstrap([nodes[0].id])
    sim.run_for(15)
    assert len(joiner.get_service(CyclonService).peers()) >= 5
    graph = overlay_graph(list(nodes) + [joiner])
    assert graph.in_degree(joiner.id) > 0  # others learnt about the joiner


def test_message_budget_is_constant_per_round():
    # Two shuffle messages per node per round (request + reply), roughly.
    sim, nodes = build_overlay(n=40, rounds=30)
    per_node = sim.metrics.message_load(population=[n.id for n in nodes])
    assert per_node["sent"] <= 3 * 30  # well-bounded gossip cost

"""Tests for the Newscast Peer Sampling Service."""

from repro.pss.bootstrap import bootstrap_random_views
from repro.pss.diagnostics import is_connected, overlay_graph
from repro.pss.newscast import NewscastService
from repro.sim.node import Node
from repro.sim.simulator import Simulation


def build_newscast(n=40, rounds=20.0, seed=2):
    sim = Simulation(seed=seed)

    def factory(node_id, ctx):
        node = Node(node_id, ctx)
        node.add_service(NewscastService(view_size=10, period=1.0))
        return node

    nodes = sim.add_nodes(factory, n)
    bootstrap_random_views(nodes, degree=4, rng=sim.rng_registry.stream("boot"))
    sim.start_all()
    sim.run_for(rounds)
    return sim, nodes


def test_views_fill():
    _, nodes = build_newscast()
    assert all(len(n.get_service(NewscastService).view) >= 8 for n in nodes)


def test_view_never_contains_self():
    _, nodes = build_newscast()
    for node in nodes:
        assert node.id not in node.get_service(NewscastService).peers()


def test_view_respects_capacity():
    _, nodes = build_newscast()
    assert all(len(n.get_service(NewscastService).view) <= 10 for n in nodes)


def test_overlay_connected():
    _, nodes = build_newscast(n=60)
    assert is_connected(overlay_graph(nodes))


def test_fresh_entries_dominate():
    # Newscast keeps the freshest union: after mixing, view entries
    # should be young relative to the number of elapsed rounds.
    _, nodes = build_newscast(rounds=30)
    ages = [
        d.age
        for node in nodes
        for d in node.get_service(NewscastService).view.descriptors()
    ]
    assert sum(ages) / len(ages) < 10


def test_dead_nodes_purged_by_freshness():
    sim, nodes = build_newscast(n=40, rounds=15)
    victims = {n.id for n in nodes[:8]}
    for node in nodes[:8]:
        node.crash()
    sim.run_for(40)
    survivors = nodes[8:]
    refs = sum(
        1
        for node in survivors
        for peer in node.get_service(NewscastService).peers()
        if peer in victims
    )
    total = sum(len(n.get_service(NewscastService).peers()) for n in survivors)
    assert refs / total < 0.1


def test_every_exchange_is_answered():
    # On a lossless network with every node up, each NewsExchange that
    # arrives is answered with exactly one NewsReply.
    sim, _ = build_newscast(rounds=5)
    received = sim.metrics.total("msg.received.NewsExchange")
    assert received > 0
    assert sim.metrics.total("msg.sent.NewsReply") == received

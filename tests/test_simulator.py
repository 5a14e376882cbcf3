"""Unit tests for the Simulation orchestrator."""

import pytest

from repro.errors import SimulationError, UnknownNodeError
from repro.sim.node import Node
from repro.sim.simulator import Simulation, relaxed_gc


def test_add_nodes_assigns_unique_ids():
    sim = Simulation()
    nodes = sim.add_nodes(Node, 5)
    assert len({n.id for n in nodes}) == 5


def test_explicit_node_id():
    sim = Simulation()
    node = sim.add_node(Node, node_id=42)
    assert node.id == 42
    # Subsequent auto ids must not collide with the explicit one.
    other = sim.add_node(Node)
    assert other.id > 42


def test_duplicate_node_id_rejected():
    sim = Simulation()
    sim.add_node(Node, node_id=1)
    with pytest.raises(SimulationError):
        sim.add_node(Node, node_id=1)


def test_start_and_stop_all():
    sim = Simulation()
    sim.add_nodes(Node, 3)
    sim.start_all()
    assert len(sim.alive_ids()) == 3
    for node in sim.alive_nodes():
        node.stop()
    assert sim.alive_ids() == []


def test_node_lookup():
    sim = Simulation()
    node = sim.add_node(Node)
    assert sim.node(node.id) is node
    with pytest.raises(UnknownNodeError):
        sim.node(999)


def test_run_for_advances_time():
    sim = Simulation()
    sim.run_for(3.5)
    assert sim.now == 3.5
    sim.run_for(1.5)
    assert sim.now == 5.0


def test_run_until_condition_true_immediately():
    sim = Simulation()
    assert sim.run_until_condition(lambda: True, timeout=10) is True
    assert sim.now == 0.0


def test_run_until_condition_becomes_true():
    sim = Simulation()
    node = sim.add_node(Node)
    node.start()
    flag = []
    sim.scheduler.schedule(2.0, flag.append, 1)
    assert sim.run_until_condition(lambda: bool(flag), timeout=10) is True
    assert sim.now <= 2.5  # found shortly after the event


def test_run_until_condition_times_out():
    sim = Simulation()
    assert sim.run_until_condition(lambda: False, timeout=3.0) is False
    assert sim.now == pytest.approx(3.0)


def test_determinism_same_seed_same_message_counts():
    def run(seed):
        from repro.pss.bootstrap import bootstrap_random_views
        from repro.pss.cyclon import CyclonService

        sim = Simulation(seed=seed)

        def factory(node_id, ctx):
            node = Node(node_id, ctx)
            node.add_service(CyclonService(view_size=8, shuffle_length=4))
            return node

        nodes = sim.add_nodes(factory, 20)
        bootstrap_random_views(nodes, degree=3, rng=sim.rng_registry.stream("b"))
        sim.start_all()
        sim.run_for(10)
        return sim.metrics.total("msg.sent"), sorted(
            (n.id, sorted(n.get_service(CyclonService).peers())) for n in nodes
        )

    assert run(123) == run(123)
    assert run(123) != run(124)


def test_relaxed_gc_sets_and_restores_thresholds():
    import gc

    before = gc.get_threshold()
    with relaxed_gc(12345):
        raised = gc.get_threshold()
        assert raised[0] == 12345
        assert raised[1:] == before[1:]
    assert gc.get_threshold() == before


def test_relaxed_gc_restores_on_error():
    import gc

    before = gc.get_threshold()
    with pytest.raises(RuntimeError):
        with relaxed_gc():
            raise RuntimeError("boom")
    assert gc.get_threshold() == before


def test_message_load_covers_all_nodes():
    sim = Simulation()
    nodes = sim.add_nodes(Node, 4)
    sim.start_all()
    nodes[0].send(nodes[1].id, object())
    sim.run_for(1)
    load = sim.message_load()
    assert load["sent"] == pytest.approx(0.25)
    assert load["received"] == pytest.approx(0.25)

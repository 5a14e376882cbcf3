"""Tests for the intra-slice membership view."""

from repro.core.node import DataFlasksNode
from repro.pss.bootstrap import bootstrap_random_views
from repro.pss.view import NodeDescriptor
from repro.sim.node import SimContext
from repro.sim.simulator import Simulation
from repro.slicing.base import SlicingService

from tests.conftest import small_config


def build_core_nodes(n=40, seed=9, **overrides):
    sim = Simulation(seed=seed)
    config = small_config(**overrides)

    def factory(node_id, ctx: SimContext):
        return DataFlasksNode(node_id, ctx, config=config)

    nodes = [sim.add_node(factory) for _ in range(n)]
    bootstrap_random_views(nodes, degree=5, rng=sim.rng_registry.stream("b"))
    for node in nodes:
        node.start()
    return sim, nodes


def test_slice_view_populates_with_slice_mates():
    # Gossip views are eventually consistent: entries for nodes that
    # *recently* migrated slice linger until they age out, so we assert a
    # high fraction of correct entries rather than perfection.
    sim, nodes = build_core_nodes(n=40)
    sim.run_for(60)
    populated = 0
    correct = total = 0
    for node in nodes:
        my_slice = node.my_slice()
        peers = node.slice_view.slice_peers()
        if my_slice is None or not peers:
            continue
        populated += 1
        for peer_id in peers:
            peer = sim.node(peer_id)
            assert isinstance(peer, DataFlasksNode)
            total += 1
            correct += peer.my_slice() == my_slice
    assert populated > len(nodes) * 0.8
    assert correct / total > 0.85


def test_slice_view_never_contains_self():
    sim, nodes = build_core_nodes(n=30)
    sim.run_for(30)
    for node in nodes:
        assert node.id not in node.slice_view.slice_peers()


def test_slice_view_resets_on_slice_change():
    sim, nodes = build_core_nodes(n=20)
    sim.run_for(30)
    node = next(n for n in nodes if n.slice_view.slice_peers())
    slicing = node.get_service(SlicingService)
    old_slice = slicing.my_slice()
    new_slice = (old_slice + 1) % slicing.num_slices
    slicing._set_slice(new_slice)
    assert node.slice_view.slice_peers() == []


def test_old_entries_age_out():
    sim, nodes = build_core_nodes(n=30)
    sim.run_for(30)
    node = next(n for n in nodes if len(n.slice_view.slice_peers()) >= 2)
    mates = [sim.node(i) for i in node.slice_view.slice_peers()]
    for mate in mates:
        mate.crash()
    # max_age=10 rounds of 1s in the test config; give it time to purge.
    sim.run_for(20)
    leftovers = set(node.slice_view.slice_peers()) & {m.id for m in mates}
    assert not leftovers


def test_sample_bounded_and_distinct():
    sim, nodes = build_core_nodes(n=40)
    sim.run_for(40)
    node = max(nodes, key=lambda n: len(n.slice_view.slice_peers()))
    sample = node.slice_view.sample(3)
    assert len(sample) == len(set(sample)) <= 3


def test_slice_change_leaves_no_stale_sampling_cache():
    sim, nodes = build_core_nodes(n=20)
    sim.run_for(30)
    node = next(n for n in nodes if n.slice_view.slice_peers())
    assert node.slice_view.sample(3)  # the old view's sorted ids are cached now
    slicing = node.get_service(SlicingService)
    slicing._set_slice((slicing.my_slice() + 1) % slicing.num_slices)
    assert node.slice_view.sample(3) == []
    assert node.slice_view.random_peer() is None
    node.slice_view.view.add(NodeDescriptor(12345, 0))
    assert node.slice_view.sample(3) == [12345]

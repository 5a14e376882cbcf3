"""Unit tests for slicing-quality metrics (pure measurement code)."""

from repro.sim.node import Node
from repro.sim.simulator import Simulation
from repro.slicing import (
    StaticSlicing,
    assignment_accuracy,
    ideal_assignments,
    slice_assignments,
    slice_histogram,
    slice_imbalance,
    unassigned_fraction,
)


def make_pinned(assignments, k=4, attributes=None):
    """Nodes with slices pinned directly, bypassing any protocol."""
    sim = Simulation(seed=1)
    nodes = []
    for i, slice_id in enumerate(assignments):
        node = sim.add_node(Node)
        attr = attributes[i] if attributes else float(i)
        service = StaticSlicing(num_slices=k, attribute=attr)
        node.add_service(service)
        node.start()
        if slice_id is not None:
            service._set_slice(slice_id)
        else:
            service._slice = None
        nodes.append(node)
    return nodes


def test_slice_assignments_maps_ids():
    nodes = make_pinned([0, 1, 2])
    got = slice_assignments(nodes)
    assert got == {nodes[0].id: 0, nodes[1].id: 1, nodes[2].id: 2}


def test_dead_nodes_excluded():
    nodes = make_pinned([0, 1])
    nodes[0].stop()
    assert list(slice_assignments(nodes)) == [nodes[1].id]


def test_ideal_assignments_sorts_by_attribute():
    # attributes 0..7 over k=4 -> ranks map two nodes per slice in order.
    nodes = make_pinned([0] * 8, k=4)
    ideal = ideal_assignments(nodes)
    expected = {nodes[i].id: i * 4 // 8 for i in range(8)}
    assert ideal == expected


def test_assignment_accuracy_perfect_and_zero():
    perfect = make_pinned([0, 0, 1, 1], k=2)
    assert assignment_accuracy(perfect) == 1.0
    inverted = make_pinned([1, 1, 0, 0], k=2)
    assert assignment_accuracy(inverted) == 0.0


def test_accuracy_empty_population():
    assert assignment_accuracy([]) == 0.0


def test_slice_histogram_skips_unassigned():
    nodes = make_pinned([0, 0, None, 3])
    hist = slice_histogram(nodes)
    assert hist == {0: 2, 3: 1}


def test_unassigned_fraction():
    nodes = make_pinned([0, None, None, 1])
    assert unassigned_fraction(nodes) == 0.5
    assert unassigned_fraction([]) == 1.0


def test_imbalance_perfectly_balanced():
    nodes = make_pinned([0, 1, 2, 3], k=4)
    assert slice_imbalance(nodes) == 1.0


def test_imbalance_counts_empty_slices():
    # All nodes in one slice of four: max/mean = 4 / (4/4)... max=4, mean=1.
    nodes = make_pinned([0, 0, 0, 0], k=4)
    assert slice_imbalance(nodes) == 4.0


def test_imbalance_empty_population():
    assert slice_imbalance([]) == 0.0

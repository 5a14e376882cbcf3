"""Tests for Chord ring arithmetic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.node import ChordNode
from repro.dht.ring import (
    RING_SIZE,
    finger_target,
    in_interval,
    key_position,
    node_position,
    ring_distance,
)
from repro.sim.simulator import Simulation

pos_st = st.integers(min_value=0, max_value=RING_SIZE - 1)


class TestInInterval:
    def test_simple_interval(self):
        assert in_interval(5, 1, 10)
        assert not in_interval(0, 1, 10)
        assert not in_interval(1, 1, 10)  # open start
        assert not in_interval(10, 1, 10)  # open end by default

    def test_inclusive_end(self):
        assert in_interval(10, 1, 10, inclusive_end=True)

    def test_wrapping_interval(self):
        high = RING_SIZE - 5
        assert in_interval(2, high, 10)
        assert in_interval(RING_SIZE - 1, high, 10)
        assert not in_interval(50, high, 10)

    def test_empty_interval_is_full_ring(self):
        # Chord convention: (a, a] covers the whole ring.
        assert in_interval(123, 7, 7, inclusive_end=True)
        assert in_interval(7, 7, 7, inclusive_end=True)
        assert not in_interval(7, 7, 7)  # x == a stays excluded when open

    @given(pos_st, pos_st, pos_st)
    def test_exactly_one_of_interval_or_complement(self, x, a, b):
        if a == b or x == a or x == b:
            return  # boundary conventions tested separately
        first = in_interval(x, a, b)
        second = in_interval(x, b, a)
        assert first != second  # x is in (a,b) xor (b,a)


class TestPositions:
    def test_node_position_stable(self):
        assert node_position(1) == node_position(1)
        assert node_position(1) != node_position(2)

    def test_key_position_matches_keyspace_hash(self):
        from repro.core.keyspace import key_hash

        assert key_position("abc") == key_hash("abc")

    @given(st.integers(min_value=0, max_value=10_000))
    def test_positions_in_ring(self, node_id):
        assert 0 <= node_position(node_id) < RING_SIZE


class TestDistanceAndFingers:
    def test_ring_distance_basic(self):
        assert ring_distance(10, 15) == 5
        assert ring_distance(15, 10) == RING_SIZE - 5
        assert ring_distance(7, 7) == 0

    @given(pos_st, pos_st)
    def test_distance_antisymmetry(self, a, b):
        if a != b:
            assert ring_distance(a, b) + ring_distance(b, a) == RING_SIZE

    def test_finger_targets_double(self):
        assert finger_target(0, 0) == 1
        assert finger_target(0, 10) == 1024
        assert finger_target(RING_SIZE - 1, 0) == 0  # wraps


def closest_preceding_by_interval(node, target):
    """The two-``in_interval``-per-candidate scan ``_closest_preceding``
    replaced, kept as the reference."""
    best = None
    for ref in list(node.fingers.values()) + node.successors:
        pos = ref[0]
        if in_interval(pos, node.pos, target):
            if best is None or in_interval(pos, best[0], target):
                best = tuple(ref)
    return best if best is not None else node.successor


@st.composite
def routing_tables(draw):
    """A node position, a target and finger / successor refs biased to
    the edges that matter: the node itself, the target, their
    neighbours, both ends of the ring, and duplicates."""
    own = draw(pos_st)
    target = draw(st.one_of(st.just(own), pos_st))
    edges = [own, target, own + 1, own - 1, target + 1, target - 1, 0, RING_SIZE - 1]
    position = st.one_of(pos_st, st.sampled_from([p % RING_SIZE for p in edges]))
    ref = st.tuples(position, st.integers(min_value=0, max_value=5))
    fingers = draw(st.dictionaries(st.integers(min_value=0, max_value=63), ref, max_size=8))
    successors = draw(st.lists(ref, max_size=6))
    return own, target, fingers, successors


class TestClosestPreceding:
    @settings(max_examples=500)
    @given(routing_tables())
    def test_offset_scan_equals_interval_scan(self, table):
        own, target, fingers, successors = table
        node = ChordNode(0, Simulation(seed=0).ctx)
        node.pos, node.fingers, node.successors = own, fingers, successors
        assert node._closest_preceding(target) == closest_preceding_by_interval(node, target)

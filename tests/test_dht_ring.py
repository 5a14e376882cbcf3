"""Tests for Chord ring arithmetic and a node's routing decisions."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dht.node import NEXT, OWNER, ChordNode
from repro.dht.ring import (
    RING_BITS,
    RING_SIZE,
    finger_target,
    in_interval,
    key_position,
    node_position,
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
    def test_finger_targets_double(self):
        assert finger_target(0, 0) == 1
        assert finger_target(0, 10) == 1024
        assert finger_target(RING_SIZE - 1, 0) == 0  # wraps


def known_refs(node):
    """Every ref the node routes by: its fingers, then its successors."""
    return [ref for ref in node.fingers if ref is not None] + node.successors


def closest_preceding_by_interval(node, target):
    """The two-``in_interval``-per-candidate scan ``_closest_preceding``
    replaced, kept as the reference."""
    best = None
    for ref in known_refs(node):
        pos = ref[0]
        if in_interval(pos, node.pos, target):
            if best is None or in_interval(pos, best[0], target):
                best = tuple(ref)
    return best if best is not None else node.successor


@st.composite
def routing_tables(draw):
    """A node position, a target, finger / successor refs and a
    predecessor, biased to the edges that matter: the node itself, the
    target, their neighbours, both ends of the ring, and duplicates. The
    predecessor is ``None``, the node itself or any such position."""
    own = draw(pos_st)
    target = draw(st.one_of(st.just(own), pos_st))
    edges = [own, target, own + 1, own - 1, target + 1, target - 1, 0, RING_SIZE - 1]
    position = st.one_of(pos_st, st.sampled_from([p % RING_SIZE for p in edges]))
    ref = st.tuples(position, st.integers(min_value=0, max_value=5))
    fingers = draw(st.dictionaries(st.integers(min_value=0, max_value=63), ref, max_size=8))
    successors = draw(st.lists(ref, max_size=6))
    predecessor = draw(st.one_of(st.none(), st.just((own, 0)), ref))
    return own, target, fingers, successors, predecessor


def table_node(own, fingers, successors, predecessor=None):
    """A node with ``fingers`` (finger number -> ref) in its finger list."""
    node = ChordNode(0, Simulation(seed=0).ctx)
    node.pos, node.successors = own, successors
    node.fingers = [fingers.get(index) for index in range(RING_BITS)]
    node.predecessor = predecessor
    return node


def route_step_by_interval(node, target):
    """``_rpc_route_step`` as three :func:`in_interval` tests over
    absolute positions, the formulation the offset version replaced,
    kept as the reference."""
    if target == node.pos:
        return (OWNER, node.ref())
    if node.predecessor is not None and in_interval(
        target, node.predecessor[0], node.pos, inclusive_end=True
    ):
        return (OWNER, node.ref())
    succ = node.successor
    if succ[1] == node.id:
        return (OWNER, node.ref())
    if in_interval(target, node.pos, succ[0], inclusive_end=True):
        return (OWNER, succ)
    nxt = closest_preceding_by_interval(node, target)
    if nxt[1] == node.id:
        return (OWNER, node.ref())
    return (NEXT, nxt)


class TestClosestPreceding:
    @settings(max_examples=500)
    @given(routing_tables())
    def test_offset_scan_equals_interval_scan(self, table):
        own, target, fingers, successors, _ = table
        node = table_node(own, fingers, successors)
        assert node._closest_preceding(target) == closest_preceding_by_interval(node, target)

    @settings(max_examples=200)
    @given(routing_tables(), st.data())
    def test_table_follows_every_change(self, table, data):
        # The table is built lazily and kept until something it was built
        # from changes; after every step of a random history each query
        # must still see the current fingers, successors and position.
        own, target, fingers, successors, _ = table
        node = table_node(own, fingers, successors)
        ref = st.tuples(
            st.one_of(pos_st, st.sampled_from([own, target, (own + 1) % RING_SIZE])),
            st.integers(min_value=0, max_value=5),
        )
        kinds = ["finger", "own finger", "stabilise", "failover", "provision", "fingers", "pos"]
        past = {own, target}  # just past every ref the table has held
        for _ in range(data.draw(st.integers(1, 12))):
            past.update((r[0] + 1) % RING_SIZE for r in known_refs(node))
            known = [i for i, finger in enumerate(node.fingers) if finger is not None]
            index = data.draw(st.sampled_from(known) if known else st.integers(0, 63))
            kind = data.draw(st.sampled_from(kinds))
            if kind == "finger":
                node._set_finger(index, data.draw(st.one_of(st.none(), ref)))
            elif kind == "own finger":
                node._set_finger(index, node.ref())
            elif kind == "stabilise":  # _on_neighbors' replacement list
                chain = [node.successor] + data.draw(st.lists(ref, max_size=6))
                node.successors = node._alive_filter(chain)[: node.successor_list_len] or [node.ref()]
            elif kind == "failover":
                node.successors = node.successors[1:] if len(node.successors) > 1 else [node.ref()]
            elif kind == "provision":
                node.successors = data.draw(st.lists(ref, max_size=8)) or [node.ref()]
            elif kind == "fingers":  # a whole finger cycle's answers at once
                for i, owner in data.draw(st.dictionaries(st.integers(0, 63), ref, max_size=8)).items():
                    node._set_finger(i, owner)
            else:
                node.pos = data.draw(st.one_of(pos_st, st.just(target)))
            # Just past a ref that is, or was, in the table is where a stale
            # entry would be the answer.
            for query in [target] + data.draw(st.lists(st.sampled_from(sorted(past)), max_size=3)):
                assert node._closest_preceding(query) == closest_preceding_by_interval(node, query)


class TestRouteStep:
    @settings(max_examples=500)
    @given(routing_tables())
    # The ends of both intervals, each a rare draw: a successor at this
    # node's position (the full ring), the target on the successor, and a
    # predecessor at this node's position.
    @example(table=(100, 50, {}, [(100, 3)], None))
    @example(table=(100, 200, {}, [(200, 3)], None))
    @example(table=(100, 50, {}, [(200, 3)], (100, 4)))
    def test_offsets_equal_interval_tests(self, table):
        own, target, fingers, successors, predecessor = table
        node = table_node(own, fingers, successors, predecessor)
        assert node._rpc_route_step((target,), 1) == route_step_by_interval(node, target)

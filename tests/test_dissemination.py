"""Tests for epidemic dissemination and the ln(N)+c fanout maths."""

import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.gossip.dissemination import (
    DisseminationService,
    ReplayWindow,
    atomic_infection_probability,
    recommended_fanout,
)
from repro.pss.bootstrap import bootstrap_random_views
from repro.pss.cyclon import CyclonService
from repro.sim.node import Node
from repro.sim.simulator import Simulation


class TestFanoutMaths:
    def test_recommended_fanout_formula(self):
        assert recommended_fanout(1000, c=2.0) == math.ceil(math.log(1000) + 2)
        assert recommended_fanout(1000, 4.0) == 11

    def test_recommended_fanout_small_systems(self):
        assert recommended_fanout(1) == 1
        assert recommended_fanout(2, c=0.0) >= 1

    def test_atomic_infection_probability_known_values(self):
        # e^{-e^{-c}}: c=0 -> 1/e, large c -> 1.
        assert atomic_infection_probability(0.0) == pytest.approx(math.exp(-1))
        assert atomic_infection_probability(10.0) == pytest.approx(1.0, abs=1e-4)

    def test_probability_monotone_in_c(self):
        values = [atomic_infection_probability(c) for c in (-1, 0, 1, 2, 4)]
        assert values == sorted(values)

    @given(st.integers(min_value=2, max_value=100_000))
    def test_fanout_scales_logarithmically(self, n):
        assert recommended_fanout(n) <= math.log(n) + 3.01


class TestReplayWindow:
    def test_first_sighting_false_then_true(self):
        window = ReplayWindow(capacity=10)
        assert window.seen("a", 0) is False
        assert window.seen("a", 0) is True

    def test_attempts_of_one_sequence_number_are_told_apart(self):
        window = ReplayWindow(capacity=10)
        answers = [window.seen(1, 4, attempt) for attempt in (2, 1, 2, 1, 7, 0)]
        assert answers == [False, False, True, True, False, False]
        assert window.seen(2, 4, 1) is False  # another origin, same numbers

    def test_capacity_slides_the_oldest_out_as_seen(self):
        window = ReplayWindow(capacity=2)
        window.seen("a", 0)
        window.seen("a", 1)
        window.seen("a", 2)  # slides 0 out
        assert window.seen("a", 0) is True  # too old to tell: never again
        assert window.seen("a", 0, attempt=3) is True
        assert window.seen("a", 1) is True and window.seen("a", 2) is True
        assert window.seen("b", 0) is False  # windows are per origin

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            ReplayWindow(capacity=0)

    @given(st.integers(1, 40), st.lists(st.integers(0, 400), max_size=60))
    def test_len_never_exceeds_capacity(self, capacity, seqs):
        window = ReplayWindow(capacity)
        for seq in seqs:
            window.seen(0, seq)
            assert len(window[0]) <= capacity

    def test_a_jump_ahead_allocates_no_gap_and_forgets_nothing_inside(self):
        window = ReplayWindow(capacity=100)
        for seq in (3, 50):
            window.seen(0, seq)
        window.seen(0, 10**12)
        assert len(window[0]) <= 100 and sys.getsizeof(window[0]) < 300
        window.seen(0, 10**12 - 99)  # the oldest number still inside
        assert window.seen(0, 10**12 - 99) is True
        assert window.seen(0, 10**12 - 100) is True  # just below: reads as seen
        assert window.seen(0, 50) is True
        # A jump that stays inside capacity keeps everything before it.
        window = ReplayWindow(capacity=100)
        window.seen(0, 3)
        window.seen(0, 99)
        assert window.seen(0, 3) is True and window.seen(0, 4) is False

    @given(
        st.sampled_from([1, 5, 16, 64]),
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 60), st.integers(0, 7)),
            max_size=120,
        ),
    )
    def test_equals_a_set_of_ids_within_capacity(self, capacity, ids):
        # Whatever the interleaving of origins, numbers and attempts: an
        # id within ``capacity`` of its origin's highest number so far is
        # answered as a plain set would (at capacity 64 that is every id
        # drawn), an older one as seen.
        window, reference, highest = ReplayWindow(capacity), set(), {}
        for id_ in ids:
            origin, seq, _ = id_
            top = highest.get(origin, -1)
            assert window.seen(*id_) == (seq <= top - capacity or id_ in reference)
            reference.add(id_)
            highest[origin] = max(top, seq)

    @pytest.mark.parametrize(
        "seq, attempt, named",
        [(-1, 0, "-1"), (1.0, 0, "1.0"), ("7", 0, "'7'"), (0, 8, "8"), (0, -1, "-1"), (0, 0.5, "0.5")],
    )
    def test_malformed_ids_are_rejected_by_name(self, seq, attempt, named):
        window = ReplayWindow(capacity=10)
        window.seen(0, 5)
        with pytest.raises(SimulationError, match=named):
            window.seen(0, seq, attempt)
        assert window.seen(0, 5) is True and len(window[0]) == 8  # untouched

    def test_an_origin_seen_once_stays_small(self):
        # At 1k+ nodes every server originates a few re-homing floods, so
        # every node holds ~N such windows.
        window = ReplayWindow(capacity=100_000)
        window.seen(17, 0, 1)
        assert sys.getsizeof(window[17]) <= 96


def build_broadcast_overlay(n=60, fanout=None, seed=4, rounds=15.0):
    sim = Simulation(seed=seed)

    def factory(node_id, ctx):
        node = Node(node_id, ctx)
        node.add_service(CyclonService(view_size=12, shuffle_length=6))
        node.add_service(
            DisseminationService(fanout=fanout, expected_n=n if fanout is None else None)
        )
        return node

    nodes = sim.add_nodes(factory, n)
    bootstrap_random_views(nodes, degree=5, rng=sim.rng_registry.stream("b"))
    sim.start_all()
    sim.run_for(rounds)
    return sim, nodes


class TestDisseminationService:
    def test_config_requires_fanout_or_n(self):
        with pytest.raises(ConfigurationError):
            DisseminationService()

    def test_broadcast_reaches_everyone_with_recommended_fanout(self):
        sim, nodes = build_broadcast_overlay(n=60)
        received = set()
        for node in nodes:
            node.get_service(DisseminationService).subscribe(
                lambda payload, msg_id, hops, i=node.id: received.add(i)
            )
        nodes[0].get_service(DisseminationService).broadcast("hello")
        sim.run_for(5)
        assert len(received) == 60

    def test_each_node_delivers_exactly_once(self):
        sim, nodes = build_broadcast_overlay(n=40)
        deliveries = []
        for node in nodes:
            node.get_service(DisseminationService).subscribe(
                lambda payload, msg_id, hops, i=node.id: deliveries.append(i)
            )
        nodes[0].get_service(DisseminationService).broadcast("x")
        sim.run_for(5)
        assert len(deliveries) == len(set(deliveries))

    def test_originator_delivers_synchronously(self):
        sim, nodes = build_broadcast_overlay(n=20)
        got = []
        service = nodes[0].get_service(DisseminationService)
        service.subscribe(lambda payload, msg_id, hops: got.append(payload))
        msg_id = service.broadcast("local")
        assert got == ["local"]
        assert msg_id[0] == nodes[0].id

    def test_message_ids_unique_per_origin(self):
        sim, nodes = build_broadcast_overlay(n=20)
        service = nodes[0].get_service(DisseminationService)
        ids = {service.broadcast(i) for i in range(5)}
        assert len(ids) == 5

    def test_fanout_one_reaches_few(self):
        sim, nodes = build_broadcast_overlay(n=60, fanout=1)
        received = set()
        for node in nodes:
            node.get_service(DisseminationService).subscribe(
                lambda payload, msg_id, hops, i=node.id: received.add(i)
            )
        nodes[0].get_service(DisseminationService).broadcast("weak")
        sim.run_for(10)
        assert len(received) < 60  # a single infect-and-die walk dies out

    def test_hops_grow_with_distance(self):
        sim, nodes = build_broadcast_overlay(n=60)
        hops_seen = []
        for node in nodes[1:]:
            node.get_service(DisseminationService).subscribe(
                lambda payload, msg_id, hops: hops_seen.append(hops)
            )
        nodes[0].get_service(DisseminationService).broadcast("x")
        sim.run_for(5)
        assert max(hops_seen) >= 2  # multi-hop epidemic, not a star
        assert max(hops_seen) <= 32  # bounded by ttl

    def test_delivery_ratio_improves_with_fanout(self):
        ratios = []
        for fanout in (1, 3, 6):
            sim, nodes = build_broadcast_overlay(n=50, fanout=fanout, seed=9)
            received = set()
            for node in nodes:
                node.get_service(DisseminationService).subscribe(
                    lambda payload, msg_id, hops, i=node.id: received.add(i)
                )
            for origin in nodes[:5]:
                origin.get_service(DisseminationService).broadcast("probe")
            sim.run_for(5)
            ratios.append(len(received) / 50)
        assert ratios[0] <= ratios[1] <= ratios[2]
        assert ratios[2] == 1.0

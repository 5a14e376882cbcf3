"""Tests for the four slicing protocols and their shared contract."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.pss.bootstrap import bootstrap_random_views
from repro.pss.cyclon import CyclonService
from repro.sim.node import Node
from repro.sim.simulator import Simulation
from repro.slicing import (
    DSleadSlicing,
    OrderedSlicing,
    SliverSlicing,
    StaticSlicing,
    assignment_accuracy,
    hash_slice,
    slice_histogram,
    unassigned_fraction,
)
from repro.slicing.base import SlicingService
from repro.slicing.dslead import RankSample

ADAPTIVE_PROTOCOLS = [
    ("dslead", DSleadSlicing),
    ("ordered", OrderedSlicing),
    ("sliver", SliverSlicing),
]


def build_sliced(cls, n=80, k=4, rounds=60.0, seed=3, **kwargs):
    sim = Simulation(seed=seed)

    def factory(node_id, ctx):
        node = Node(node_id, ctx)
        node.add_service(CyclonService(view_size=12, shuffle_length=6))
        # Attribute: a permutation-ish spread so ranks are unambiguous.
        node.add_service(cls(num_slices=k, attribute=float((node_id * 13) % 101), **kwargs))
        return node

    nodes = sim.add_nodes(factory, n)
    bootstrap_random_views(nodes, degree=5, rng=sim.rng_registry.stream("b"))
    sim.start_all()
    sim.run_for(rounds)
    return sim, nodes


@lru_cache(maxsize=None)
def converged(cls, rounds=60.0):
    """The default population after ``rounds``, shared by the tests that
    only read it."""
    return build_sliced(cls, rounds=rounds)[1]


class TestContract:
    def test_num_slices_validated(self):
        with pytest.raises(ConfigurationError):
            StaticSlicing(num_slices=0, attribute=1.0)

    def test_set_num_slices_validated(self):
        service = StaticSlicing(num_slices=4, attribute=1.0)
        with pytest.raises(ConfigurationError):
            service.set_num_slices(-1)

    def test_slice_none_before_start(self):
        assert DSleadSlicing(num_slices=4, attribute=1.0).my_slice() is None

    def test_callbacks_fire_on_change(self):
        sim = Simulation(seed=1)
        node = sim.add_node(Node)
        service = StaticSlicing(num_slices=4, attribute=1.0)
        node.add_service(service)
        changes = []
        service.on_slice_change(lambda old, new: changes.append((old, new)))
        node.start()
        assert len(changes) == 1
        assert changes[0][0] == -1  # first assignment reported as old=-1


class TestStaticSlicing:
    def test_hash_slice_in_range(self):
        for node_id in range(200):
            assert 0 <= hash_slice(node_id, 7) < 7

    def test_hash_slice_roughly_uniform(self):
        counts = {}
        for node_id in range(1000):
            s = hash_slice(node_id, 5)
            counts[s] = counts.get(s, 0) + 1
        assert min(counts.values()) > 120  # expected 200 each

    def test_assignment_fixed_at_start(self):
        sim = Simulation(seed=1)
        node = sim.add_node(Node)
        service = StaticSlicing(num_slices=4, attribute=123.0)
        node.add_service(service)
        node.start()
        assert service.my_slice() == hash_slice(node.id, 4)

    def test_never_adapts_to_correlated_failure(self):
        # The Section IV-A argument: hash slicing cannot rebalance.
        sim = Simulation(seed=2)
        nodes = []
        for _ in range(40):
            node = sim.add_node(Node)
            node.add_service(StaticSlicing(num_slices=4, attribute=1.0))
            nodes.append(node)
        sim.start_all()
        before = slice_histogram(nodes)
        victims = [n for n in nodes if n.get_service(SlicingService).my_slice() == 0]
        for v in victims:
            v.crash()
        sim.run_for(30)
        after = slice_histogram([n for n in nodes if n.alive])
        assert after.get(0, 0) == 0  # the hole is never refilled

    def test_recompute_on_reconfigure(self):
        sim = Simulation(seed=3)
        node = sim.add_node(Node)
        service = StaticSlicing(num_slices=4, attribute=1.0)
        node.add_service(service)
        node.start()
        service.set_num_slices(2)
        assert service.my_slice() == hash_slice(node.id, 2)


@pytest.mark.parametrize("name,cls", ADAPTIVE_PROTOCOLS)
class TestAdaptiveProtocols:
    def test_everyone_gets_assigned(self, name, cls):
        assert unassigned_fraction(converged(cls)) == 0.0

    def test_assignments_in_range(self, name, cls):
        for node in converged(cls):
            assert 0 <= node.get_service(SlicingService).my_slice() < 4

    def test_converges_towards_ideal_partition(self, name, cls):
        assert assignment_accuracy(converged(cls, 80)) > 0.55

    def test_every_slice_populated(self, name, cls):
        nodes = converged(cls, 80)
        hist = slice_histogram(nodes)
        assert all(hist.get(i, 0) > 0 for i in range(4))

    def test_rebalances_after_correlated_failure(self, name, cls):
        if cls is OrderedSlicing:
            pytest.skip(
                "JK ordered slicing keeps a fixed multiset of random values, "
                "so an emptied slice is never refilled — the known limitation "
                "rank-estimation protocols (Sliver, DSlead) fix; asserted in "
                "TestOrderedSlicingInvariant::test_cannot_refill_emptied_slice"
            )
        sim, nodes = build_sliced(cls, n=80, k=4, rounds=80)
        victims = [
            n for n in nodes if n.get_service(SlicingService).my_slice() == 0
        ]
        assert victims  # sanity
        for v in victims:
            v.crash()
        sim.run_for(120)
        survivors = [n for n in nodes if n.alive]
        hist = slice_histogram(survivors)
        # Adaptive slicing refills the dead slice from the survivors.
        assert hist.get(0, 0) > 0


class TestOrderedSlicingInvariant:
    def test_x_multiset_preserved(self):
        # Swaps must permute, never duplicate, the random values.
        sim, nodes = build_sliced(OrderedSlicing, n=40, rounds=50)
        xs = sorted(n.get_service(OrderedSlicing).x for n in nodes)
        assert len(set(f"{x:.12f}" for x in xs)) == len(xs)

    def test_cannot_refill_emptied_slice(self):
        # Documented limitation: x values are a fixed multiset, so killing
        # every node of the lowest slice removes its x range for good.
        sim, nodes = build_sliced(OrderedSlicing, n=80, k=4, rounds=80)
        victims = [n for n in nodes if n.get_service(SlicingService).my_slice() == 0]
        for v in victims:
            v.crash()
        sim.run_for(120)
        hist = slice_histogram([n for n in nodes if n.alive])
        assert hist.get(0, 0) == 0

    def test_sorted_by_attribute_after_convergence(self):
        _, nodes = build_sliced(OrderedSlicing, n=40, k=2, rounds=100)
        pairs = sorted(
            (n.get_service(OrderedSlicing).attribute, n.get_service(OrderedSlicing).x)
            for n in nodes
        )
        xs = [x for _, x in pairs]
        # Count adjacent inversions; convergence makes them rare.
        inversions = sum(1 for a, b in zip(xs, xs[1:]) if a > b)
        assert inversions < len(xs) * 0.25


class TestSliverDetails:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            SliverSlicing(num_slices=4, attribute=1.0, sample_size=0)
        with pytest.raises(ConfigurationError):
            SliverSlicing(num_slices=4, attribute=1.0, table_size=0)

    def test_rank_fraction_empty(self):
        assert SliverSlicing(num_slices=4, attribute=1.0).rank_fraction() == 0.0

    def test_observation_table_bounded(self):
        service = SliverSlicing(num_slices=4, attribute=50.0, table_size=5)
        for i in range(20):
            service.observe(i, (float(i), i))
        assert service.observations == 5

    def test_unobserved_entries_age_out(self):
        service = SliverSlicing(num_slices=4, attribute=50.0, sample_size=4, table_size=8)
        service.observe(1, (10.0, 1))
        service.observe(2, (20.0, 2))
        service._age()
        service._age()
        service.observe(1, (10.0, 1))  # re-observed: its age starts over
        assert service.observations == 2
        service._age()  # 2 was last seen more than 8 // 4 rounds ago
        assert list(service._observed) == [1]
        service._age()
        service._age()
        assert service.observations == 0

    def test_crashed_peers_leave_every_table_below_its_size(self):
        # 80 nodes never fill a 128-entry table, so only aging can
        # forget the dead; the survivors then refill their slice.
        sim, nodes = build_sliced(SliverSlicing, n=80, k=4, rounds=80)
        victims = {n.id for n in nodes if n.get_service(SlicingService).my_slice() == 0}
        for node in nodes:
            if node.id in victims:
                node.crash()
        sim.run_for(120)
        survivors = [n for n in nodes if n.alive]
        tables = [set(n.get_service(SliverSlicing)._observed) for n in survivors]
        assert all(table and not table & victims for table in tables)
        assert slice_histogram(survivors).get(0, 0) >= len(survivors) // 8

    def test_rank_fraction_computation(self):
        service = SliverSlicing(num_slices=4, attribute=50.0)
        service.node = type("N", (), {"id": 999})()
        for i, attr in enumerate([10.0, 20.0, 60.0, 70.0]):
            service.observe(i, (attr, i))
        assert service.rank_fraction() == 0.5


class TestDSleadDetails:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            DSleadSlicing(num_slices=4, attribute=1.0, reservoir_size=0)
        with pytest.raises(ConfigurationError):
            DSleadSlicing(num_slices=4, attribute=1.0, boundary_margin_fraction=0.7)
        with pytest.raises(ConfigurationError):
            DSleadSlicing(num_slices=4, attribute=1.0, stability_rounds=0)

    def test_reservoir_bounded(self):
        service = DSleadSlicing(num_slices=4, attribute=1.0, reservoir_size=8)
        for i in range(50):
            service._on_sample(RankSample(0, float(i), i), i)
        assert service.observations == 8
        # A FIFO: the ring holds exactly the last eight observations.
        assert sorted(zip(service._attributes, service._ids)) == [(float(i), i) for i in range(42, 50)]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 8),
        st.lists(
            st.one_of(
                st.tuples(st.just("sample"), st.integers(0, 3), st.integers(4, 6)),
                st.tuples(st.just("estimate")),
                st.tuples(st.just("attribute"), st.integers(0, 3)),
                st.tuples(st.just("set_num_slices"), st.integers(1, 5)),
            ),
            max_size=60,
        ),
    )
    def test_running_count_equals_a_recount(self, reservoir_size, steps):
        service = DSleadSlicing(num_slices=4, attribute=2.0, reservoir_size=reservoir_size)
        service.node = type("N", (), {"id": 5})()  # ties on attribute break by id

        def recount(mine):
            return sum(1 for key in zip(service._attributes, service._ids) if key < mine)

        for op, *args in steps + [("estimate",)]:
            if op == "sample":
                service._on_sample(RankSample(0, float(args[0]), args[1]), args[1])
            elif op == "estimate":
                # Samples since the last estimate, and an attribute change,
                # were counted against the key cached then.
                expected = recount(service.sort_key())
                estimate = service.estimate
                if service.observations:
                    assert estimate == expected / service.observations
                else:
                    assert estimate is None
            elif op == "attribute":
                service.attribute = float(args[0])
            else:
                service.set_num_slices(args[0])
            if service._below_key is not None:
                assert service._below == recount(service._below_key)

    def test_estimate_none_when_empty(self):
        assert DSleadSlicing(num_slices=4, attribute=1.0).estimate is None

    def test_hysteresis_limits_flapping(self):
        # Count slice changes per node; the steady protocol should change
        # slice only a handful of times over a long run.
        sim, nodes = build_sliced(DSleadSlicing, n=60, rounds=100)
        changes = {n.id: 0 for n in nodes}
        for node in nodes:
            node.get_service(SlicingService).on_slice_change(
                lambda old, new, i=node.id: changes.__setitem__(i, changes[i] + 1)
            )
        sim.run_for(100)
        flappers = sum(1 for c in changes.values() if c > 5)
        assert flappers <= len(nodes) * 0.1

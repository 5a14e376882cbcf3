"""Tests for the min-sketch size estimator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.gossip.aggregation import SystemSizeEstimator
from repro.pss.bootstrap import bootstrap_random_views
from repro.pss.cyclon import CyclonService
from repro.sim.node import Node
from repro.sim.simulator import Simulation


def build_aggregating(n=100, seed=4, rounds=40.0, sketch_size=64):
    sim = Simulation(seed=seed)

    def factory(node_id, ctx):
        node = Node(node_id, ctx)
        node.add_service(CyclonService(view_size=12, shuffle_length=6))
        node.add_service(SystemSizeEstimator(sketch_size=sketch_size))
        return node

    nodes = sim.add_nodes(factory, n)
    bootstrap_random_views(nodes, degree=5, rng=sim.rng_registry.stream("b"))
    sim.start_all()
    sim.run_for(rounds)
    return sim, nodes


class TestSizeEstimator:
    def test_parameters_validated(self):
        with pytest.raises(ConfigurationError):
            SystemSizeEstimator(sketch_size=2)
        with pytest.raises(ConfigurationError):
            SystemSizeEstimator(epoch_rounds=0)
        with pytest.raises(ConfigurationError):
            SystemSizeEstimator(smoothing=0)

    def test_estimates_within_sketch_error(self):
        _, nodes = build_aggregating(n=150, rounds=50)
        for node in nodes:
            size = node.get_service(SystemSizeEstimator).size()
            assert size is not None
            # Relative error ~ 1/sqrt(62) ≈ 13%; allow 3 sigma.
            assert 150 * 0.6 <= size <= 150 * 1.5

    def test_all_nodes_agree_after_convergence(self):
        _, nodes = build_aggregating(n=100, rounds=50)
        sizes = {round(n.get_service(SystemSizeEstimator).size()) for n in nodes}
        assert len(sizes) <= 3  # min-gossip drives everyone to the same sketch

    def test_tracks_population_shrink(self):
        sim, nodes = build_aggregating(n=120, rounds=45)
        before = nodes[-1].get_service(SystemSizeEstimator).size()
        for node in nodes[:60]:
            node.crash()
        sim.run_for(90)  # several epochs
        survivors = [n for n in nodes if n.alive]
        after = survivors[0].get_service(SystemSizeEstimator).size()
        assert after < before * 0.75  # clearly noticed half the system left

    def test_instant_size_positive(self):
        _, nodes = build_aggregating(n=40, rounds=10)
        assert nodes[0].get_service(SystemSizeEstimator).instant_size() >= 1.0


class TestQuantizer:
    def test_quantize_powers_of_two(self):
        from repro.core.autoslice import quantize_slices

        assert quantize_slices(1.0) == 1
        assert quantize_slices(3.0) == 4
        assert quantize_slices(6.0) == 8

    def test_quantize_rounds_log2(self):
        from repro.core.autoslice import quantize_slices

        # log2(12) = 3.585 -> round() = 4 -> 16
        assert quantize_slices(12.0) == 16
        # log2(11) = 3.46 -> 3 -> 8
        assert quantize_slices(11.0) == 8

    def test_quantize_clamps(self):
        from repro.core.autoslice import quantize_slices

        assert quantize_slices(10_000_000.0, max_slices=64) == 64
        assert quantize_slices(0.01, min_slices=2) == 2

    @given(st.floats(min_value=0.1, max_value=1e6))
    @settings(max_examples=100)
    def test_quantize_always_power_of_two_in_range(self, ideal):
        from repro.core.autoslice import quantize_slices

        k = quantize_slices(ideal)
        assert 1 <= k <= 4096
        assert k & (k - 1) == 0  # power of two

"""Tests for autonomous replication management (Section IV-C)."""

import pytest

from repro.core.autoslice import ReplicationManager
from repro.core.cluster import DataFlasksCluster
from repro.core.config import DataFlasksConfig
from repro.errors import ConfigurationError


class TestUnit:
    def test_parameters_validated(self):
        config = DataFlasksConfig()
        with pytest.raises(ConfigurationError):
            ReplicationManager(config, target_replication=0)
        with pytest.raises(ConfigurationError):
            ReplicationManager(config, boundary_margin=0.7)
        with pytest.raises(ConfigurationError):
            ReplicationManager(config, stability_checks=0)

    def test_desired_slices_tracks_size(self):
        manager = ReplicationManager(DataFlasksConfig(), target_replication=10)
        assert manager.desired_slices(100) == 8  # 100/10 -> nearest pow2
        assert manager.desired_slices(700) == 64
        assert manager.desired_slices(5) == 1

    def test_margin_blocks_boundary_hover(self):
        config = DataFlasksConfig(num_slices=8)
        manager = ReplicationManager(config, target_replication=10)
        # ideal k exactly at the 8->16 octave boundary (log2 = 3.5):
        size = 10 * (2 ** 3.5)
        assert manager.desired_slices(size) in (8, 16)
        assert not manager._clears_margin(size, 16)
        # Deep inside the 16 octave, the margin clears.
        assert manager._clears_margin(10 * 16, 16)


class TestIntegration:
    def build(self, n, target, seed=77):
        config = DataFlasksConfig(
            num_slices=4,
            auto_replication_target=target,
            auto_replication_period=5.0,
            view_size=12,
        )
        cluster = DataFlasksCluster(n=n, config=config, seed=seed)
        cluster.warm_up(10)
        return cluster

    def test_nodes_own_config_copies(self):
        cluster = self.build(n=20, target=10)
        a, b = cluster.servers[0], cluster.servers[1]
        assert a.config is not b.config
        a.config.num_slices = 99
        assert b.config.num_slices != 99

    def test_reconfigures_towards_target(self):
        # 60 nodes, target replication 10 -> ideal k = 6 -> quantised 8,
        # starting from a deliberately wrong k = 4... wait, 4 -> 8 is one
        # octave; the estimator noise matters, so assert the outcome set.
        cluster = self.build(n=60, target=10)
        cluster.sim.run_for(120)  # epochs + controller periods
        ks = {s.config.num_slices for s in cluster.alive_servers()}
        # Every node must have landed on a power of two near 6.
        assert ks <= {4, 8}
        reconfigured = sum(
            1
            for s in cluster.alive_servers()
            if s.replication_manager is not None
            and s.replication_manager.reconfigurations > 0
        )
        assert reconfigured > 0  # the controller actually acted

    def test_k_agreement_across_nodes(self):
        cluster = self.build(n=60, target=10)
        cluster.sim.run_for(160)
        ks = [s.config.num_slices for s in cluster.alive_servers()]
        most_common = max(set(ks), key=ks.count)
        agreement = ks.count(most_common) / len(ks)
        assert agreement >= 0.9  # octave quantisation keeps nodes aligned

    def test_data_survives_reconfiguration(self):
        cluster = self.build(n=60, target=10)
        client = cluster.new_client(timeout=4.0, retries=3)
        keys = [f"resize:{i}" for i in range(6)]
        for key in keys:
            op = client.put(key, b"v", 1)
            cluster.sim.run_until_condition(lambda: op.done, timeout=60)
            assert op.succeeded
        cluster.sim.run_for(150)  # reconfiguration + re-homing
        ok = 0
        for key in keys:
            op = client.get(key)
            cluster.sim.run_until_condition(lambda: op.done, timeout=60)
            ok += op.succeeded
        assert ok == len(keys)

    def test_disabled_by_default(self):
        cluster = DataFlasksCluster(n=10, config=DataFlasksConfig(), seed=1)
        assert all(s.replication_manager is None for s in cluster.servers)

"""Fault-injection tests: message loss and network partitions.

Epidemic protocols' redundancy is supposed to absorb lossy links, and a
healed partition must reconcile via anti-entropy — both claims are
exercised here end to end.
"""

from repro.core.cluster import DataFlasksCluster
from repro.sim.simulator import Simulation

from tests.conftest import small_config


def build_lossy_cluster(loss_rate: float, n: int = 40, seed: int = 55):
    sim = Simulation(seed=seed, loss_rate=loss_rate)
    cluster = DataFlasksCluster(n=n, config=small_config(), sim=sim)
    cluster.warm_up(15)
    assert cluster.wait_for_slices(timeout=150)
    return cluster


def cut_between(network, a, b):
    """A symmetric partition between node sets ``a`` and ``b``: one
    directed cut each way. Returns the rule ids."""
    return [network.block(a, b), network.block(b, a)]


class TestMessageLoss:
    def test_operations_succeed_at_five_percent_loss(self):
        cluster = build_lossy_cluster(0.05)
        client = cluster.new_client(timeout=4.0, retries=3)
        ok = 0
        for i in range(10):
            op = client.put(f"lossy:{i}", b"v", 1)
            cluster.sim.run_until_condition(lambda: op.done, timeout=60)
            ok += op.succeeded
        assert ok == 10

    def test_reads_succeed_at_ten_percent_loss(self):
        cluster = build_lossy_cluster(0.10, seed=56)
        client = cluster.new_client(timeout=4.0, retries=3)
        for i in range(5):
            op = client.put(f"lossy:{i}", b"v", 1)
            cluster.sim.run_until_condition(lambda: op.done, timeout=60)
        cluster.sim.run_for(20)
        ok = 0
        for i in range(5):
            op = client.get(f"lossy:{i}")
            cluster.sim.run_until_condition(lambda: op.done, timeout=60)
            ok += op.succeeded
        assert ok >= 4

    def test_loss_is_counted(self):
        cluster = build_lossy_cluster(0.05, seed=57)
        assert cluster.sim.metrics.total("msg.dropped.loss") > 0


class TestPartition:
    def test_majority_side_keeps_serving(self):
        cluster = build_lossy_cluster(0.0, n=40, seed=58)
        client = cluster.new_client(timeout=4.0, retries=3)
        # Replicate a key set before the split.
        for i in range(5):
            op = client.put(f"split:{i}", b"v", 1)
            cluster.sim.run_until_condition(lambda: op.done, timeout=60)
        cluster.sim.run_for(20)

        servers = [s.id for s in cluster.alive_servers()]
        minority = servers[: len(servers) // 4]
        majority = [i for i in servers if i not in minority] + [client.id]
        cuts = cut_between(cluster.sim.network, minority, majority)

        ok = 0
        for i in range(5):
            op = client.get(f"split:{i}")
            cluster.sim.run_until_condition(lambda: op.done, timeout=60)
            ok += op.succeeded
        # Slice-wide replication: at least most keys still have a replica
        # on the majority side.
        assert ok >= 4
        for rule in cuts:
            cluster.sim.network.unblock(rule)

    def test_heal_reconciles_partitioned_writes(self):
        cluster = build_lossy_cluster(0.0, n=40, seed=59)
        client = cluster.new_client(timeout=4.0, retries=4)
        servers = [s.id for s in cluster.alive_servers()]
        minority = servers[: len(servers) // 4]
        majority = [i for i in servers if i not in minority] + [client.id]
        cuts = cut_between(cluster.sim.network, minority, majority)

        op = client.put("healed:key", b"written-during-split", 1)
        cluster.sim.run_until_condition(lambda: op.done, timeout=90)
        assert op.succeeded  # majority side accepted the write
        level_during = cluster.replication_level("healed:key")

        for rule in cuts:
            cluster.sim.network.unblock(rule)
        cluster.sim.run_for(60)  # anti-entropy crosses the healed boundary
        level_after = cluster.replication_level("healed:key")
        assert level_after >= level_during
        result = client.get("healed:key")
        cluster.sim.run_until_condition(lambda: result.done, timeout=60)
        assert result.succeeded
        assert result.value == b"written-during-split"

"""End-to-end tests of the DATAFLASKS core: put/get, replication,
versioning, churn recovery and the paper's key dependability claims."""

import pytest

from repro.churn import ChurnSpec
from repro.core.client import FAILED, SUCCEEDED
from repro.core.cluster import DataFlasksCluster
from repro.errors import ConfigurationError

from tests.conftest import build_cluster, small_config


class TestBasicOperations:
    def test_put_succeeds(self, converged_cluster):
        client = converged_cluster.new_client()
        op = converged_cluster.put_sync(client, "basic:1", b"v", 1)
        assert op.status == SUCCEEDED
        assert op.latency is not None and op.latency > 0

    def test_get_returns_stored_value(self, converged_cluster):
        client = converged_cluster.new_client()
        converged_cluster.put_sync(client, "basic:2", b"value-2", 1)
        result = converged_cluster.get_sync(client, "basic:2")
        assert result.succeeded
        assert result.value == b"value-2"
        assert result.result_version == 1

    def test_get_missing_key_fails_after_retries(self):
        cluster = build_cluster(n=30, seed=21)
        client = cluster.new_client(timeout=2.0, retries=1)
        op = client.get("never-written")
        cluster.sim.run_until_condition(lambda: op.done, timeout=30)
        assert op.status == FAILED

    def test_versioned_reads(self, converged_cluster):
        client = converged_cluster.new_client()
        converged_cluster.put_sync(client, "versioned", b"v1", 1)
        converged_cluster.put_sync(client, "versioned", b"v2", 2)
        exact = converged_cluster.get_sync(client, "versioned", version=1)
        assert exact.value == b"v1"
        latest = converged_cluster.get_sync(client, "versioned")
        assert latest.value == b"v2"
        assert latest.result_version == 2

    def test_client_requires_start(self, converged_cluster):
        from repro.core.client import DataFlasksClient
        from repro.core.loadbalancer import RandomLoadBalancer
        from repro.errors import ClientError

        lb = RandomLoadBalancer(converged_cluster.directory,
                                converged_cluster.sim.rng_registry.stream("t"))
        client = DataFlasksClient(99_999, converged_cluster.sim.ctx, lb)
        with pytest.raises(ClientError):
            client.put("x", b"", 1)

    def test_unknown_lb_strategy_rejected(self, converged_cluster):
        with pytest.raises(ConfigurationError):
            converged_cluster.new_client(lb_strategy="nope")


class TestReplication:
    def test_object_replicated_within_slice(self):
        cluster = build_cluster(n=40, seed=23)
        client = cluster.new_client()
        cluster.put_sync(client, "replicated", b"x", 1)
        cluster.sim.run_for(20)  # anti-entropy rounds
        target = cluster.target_slice("replicated")
        slice_size = cluster.slice_population()[target]
        level = cluster.replication_level("replicated")
        assert level >= slice_size * 0.7  # near-full slice replication

    def test_only_target_slice_stores(self):
        # gc_foreign_data makes nodes that migrated slice after storing an
        # object drop it once the GC grace period passes, so eventually
        # only current members of the target slice hold the key.
        cluster = build_cluster(n=40, seed=24, gc_foreign_data=True)
        client = cluster.new_client()
        cluster.put_sync(client, "localized", b"x", 1)
        cluster.sim.run_for(30)
        target = cluster.target_slice("localized")
        for server in cluster.alive_servers():
            if server.holds("localized"):
                assert server.my_slice() == target

    def test_acks_required_quorum(self):
        cluster = build_cluster(n=40, seed=25)
        client = cluster.new_client()
        op = cluster.put_sync(client, "quorum", b"x", 1, acks_required=2, timeout=60)
        assert op.succeeded
        assert len(op.acks) >= 2

    def test_multiple_replies_deduplicated(self):
        cluster = build_cluster(n=40, seed=26)
        client = cluster.new_client()
        cluster.put_sync(client, "dup", b"x", 1)
        cluster.sim.run_for(15)
        result = cluster.get_sync(client, "dup")
        assert result.succeeded
        # Epidemic dissemination may produce several replies; the op must
        # complete exactly once regardless.
        assert result.status == SUCCEEDED
        cluster.sim.run_for(10)  # late replies arrive after completion
        assert result.status == SUCCEEDED


class TestDependability:
    def test_reads_survive_heavy_node_failure(self):
        cluster = build_cluster(n=50, seed=27)
        client = cluster.new_client(timeout=4.0, retries=3)
        keys = [f"survive:{i}" for i in range(8)]
        for i, key in enumerate(keys):
            cluster.put_sync(client, key, f"v{i}".encode(), 1)
        cluster.sim.run_for(25)  # let anti-entropy replicate fully

        controller = cluster.churn_controller()
        controller.kill_fraction(0.3)
        cluster.sim.run_for(10)

        ok = 0
        for key in keys:
            op = client.get(key)
            cluster.sim.run_until_condition(lambda: op.done, timeout=60)
            ok += op.succeeded
        assert ok == len(keys)

    def test_antientropy_restores_replication_level(self):
        # Three members of the object's slice are down while it is
        # written and come back once every other holder but one member
        # has died: the slice keeps four live members, one replica, and
        # anti-entropy must copy it to the rest. Killing holders alone
        # can empty the slice, and the outcome then depends on where the
        # lone survivor happens to sit.
        cluster = build_cluster(n=40, seed=28)
        target = cluster.target_slice("heal")
        away = [s for s in cluster.alive_servers() if s.my_slice() == target][:3]
        for member in away:
            member.crash()
        client = cluster.new_client()
        cluster.put_sync(client, "heal", b"x", 1)
        cluster.sim.run_for(20)
        assert cluster.replication_level("heal") >= 3

        holders = [s for s in cluster.alive_servers() if s.holds("heal")]
        survivor = next(s for s in holders if s.my_slice() == target)
        for victim in holders:
            if victim is not survivor:
                victim.crash()
        controller = cluster.churn_controller()
        for member in away:
            controller.recover(member.id)
        members = [s for s in cluster.alive_servers() if s.my_slice() == target]
        assert survivor in members and len(members) >= 4
        assert cluster.replication_level("heal") == 1

        cluster.sim.run_for(40)
        healed = cluster.replication_level("heal")
        assert healed >= 3  # replicas regrown inside the slice

    def test_new_node_acquires_slice_state(self):
        cluster = build_cluster(n=40, seed=29)
        client = cluster.new_client()
        keys = [f"transfer:{i}" for i in range(6)]
        for key in keys:
            cluster.put_sync(client, key, b"x", 1)
        cluster.sim.run_for(20)

        controller = cluster.churn_controller()
        joiner = controller.join()
        cluster.sim.run_for(60)  # slice assignment + anti-entropy transfer
        assert joiner.my_slice() is not None
        owned = [k for k in keys if cluster.target_slice(k) == joiner.my_slice()]
        for key in owned:
            assert joiner.holds(key)

    def test_writes_succeed_during_continuous_churn(self):
        cluster = build_cluster(n=40, seed=30)
        client = cluster.new_client(timeout=4.0, retries=3)
        controller = cluster.churn_controller()
        controller.apply(ChurnSpec(kind="session", mean_session=400, duration=60), population=40)

        ok = 0
        for i in range(10):
            op = client.put(f"churnwrite:{i}", b"x", 1)
            cluster.sim.run_until_condition(lambda: op.done, timeout=60)
            ok += op.succeeded
        assert ok >= 9


class TestMessageAccounting:
    def test_server_load_excludes_clients(self):
        cluster = build_cluster(n=30, seed=31)
        client = cluster.new_client()
        cluster.put_sync(client, "acct", b"x", 1)
        load = cluster.server_message_load()
        assert load["handled"] > 0
        client_sent = cluster.sim.metrics.get("msg.sent", node=client.id)
        assert client_sent >= 1  # the client did send...
        server_ids = [s.id for s in cluster.servers]
        assert client.id not in server_ids  # ...but is not averaged in

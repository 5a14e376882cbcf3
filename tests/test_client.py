"""Focused tests for the client library: retries, timeouts, dedup."""

import pytest

from repro.core.client import FAILED, SUCCEEDED, DataFlasksClient, PendingOp
from repro.core.config import DataFlasksConfig
from repro.core.loadbalancer import RandomLoadBalancer
from repro.errors import ConfigurationError, OperationTimeoutError
from repro.sim.simulator import Simulation

from tests.conftest import build_cluster


def make_lone_client(directory=lambda: [], timeout=1.0, retries=1):
    """A client wired to an arbitrary directory, with no servers."""
    sim = Simulation(seed=3)
    lb = RandomLoadBalancer(directory, sim.rng_registry.stream("lb"))

    def factory(node_id, ctx):
        return DataFlasksClient(
            node_id, ctx, lb, config=DataFlasksConfig(), timeout=timeout, retries=retries
        )

    client = sim.add_node(factory)
    client.start()
    return sim, client


class TestPendingOp:
    def test_initial_state(self):
        op = PendingOp("put", "k", 1, (1, 0), acks_required=1, started_at=0.0)
        assert not op.done
        assert op.latency is None
        assert op.attempts == 1

    def test_complete_fires_callbacks_once(self):
        op = PendingOp("put", "k", 1, (1, 0), 1, 0.0)
        calls = []
        op.on_complete(calls.append)
        op._complete(SUCCEEDED, now=2.5)
        op._complete(FAILED, now=3.0)  # ignored: already done
        assert op.status == SUCCEEDED
        assert op.latency == 2.5
        assert calls == [op]

    def test_on_complete_after_done_fires_immediately(self):
        op = PendingOp("get", "k", None, (1, 0), 1, 0.0)
        op._complete(SUCCEEDED, now=1.0)
        calls = []
        op.on_complete(calls.append)
        assert calls == [op]


class TestClientFailureModes:
    def test_no_contact_node_fails_immediately(self):
        sim, client = make_lone_client(directory=lambda: [])
        op = client.put("k", b"v", 1)
        assert op.status == FAILED
        assert "no contact" in op.error

    def test_timeout_then_final_failure(self):
        # Directory points at a node id that does not exist: requests are
        # dropped by the network, so every attempt times out.
        sim, client = make_lone_client(directory=lambda: [99_999], timeout=1.0, retries=2)
        op = client.get("k")
        sim.run_for(10)
        assert op.status == FAILED
        assert op.attempts == 3  # original + 2 retries
        assert "timed out" in op.error

    def test_failed_contact_reported_to_lb(self):
        failures = []
        sim, client = make_lone_client(directory=lambda: [99_999], retries=0)
        client.load_balancer.note_failure = failures.append
        op = client.put("k", b"v", 1)
        sim.run_for(5)
        assert op.status == FAILED
        assert failures == [99_999]

    def test_pending_ops_bookkeeping(self):
        sim, client = make_lone_client(directory=lambda: [99_999], retries=0)
        op = client.get("k")
        assert client.pending_ops == 1
        sim.run_for(5)
        assert op.done
        assert client.pending_ops == 0

    def test_nothing_is_kept_per_finished_operation(self):
        # Completed, retried-then-completed, timed-out and never-sent
        # operations all leave the per-operation tables empty.
        cluster = build_cluster(n=30, seed=35)
        client = cluster.new_client(timeout=2.0, retries=1)
        dead = cluster.servers[0]
        dead.crash()
        scripted = [dead.id]  # first pick only: that put succeeds on its retry
        stock_pick = client.load_balancer.pick
        client.load_balancer.pick = lambda key, k: scripted.pop() if scripted else stock_pick(key, k)
        ops = [client.put("a", b"v", 1), client.put("b", b"v", 1), client.get("b"), client.get("nowhere")]
        cluster.sim.run_for(10)
        client.load_balancer.pick = lambda key, k: None
        ops.append(client.put("c", b"v", 1))
        assert [op.status for op in ops] == [SUCCEEDED, SUCCEEDED, SUCCEEDED, FAILED, FAILED]
        assert ops[0].attempts == 2 and "timed out" in ops[3].error and "no contact" in ops[4].error
        assert len(client._deadlines) == client.pending_ops == 0

    @pytest.mark.parametrize(
        "bad, named",
        [(dict(retries=-1), "-1"), (dict(retries=7), "7"), (dict(timeout=0.0), "0.0"), (dict(timeout=-2.0), "-2.0")],
    )
    def test_retries_and_timeout_are_validated(self, bad, named):
        # Servers tell the attempts of a request apart as the bits of one
        # byte, and attempts count from 1: seven at most.
        with pytest.raises(ConfigurationError, match=named):
            make_lone_client(**bad)

    def test_the_whole_retry_range_is_accepted(self):
        for retries in (0, 6):
            assert make_lone_client(retries=retries)[1].retries == retries


class TestClientRetrySucceeds:
    def test_retry_reaches_living_server(self):
        # First contact is dead; the retry's fresh pick must succeed.
        cluster = build_cluster(n=30, seed=33)
        dead = cluster.servers[0]
        dead.crash()
        always_dead_then_alive = [dead.id]

        client = cluster.new_client(timeout=2.0, retries=2)
        original_pick = client.load_balancer.pick

        def biased_pick(key, num_slices):
            if always_dead_then_alive:
                return always_dead_then_alive.pop()
            return original_pick(key, num_slices)

        client.load_balancer.pick = biased_pick
        op = client.put("retry-key", b"v", 1)
        cluster.sim.run_until_condition(lambda: op.done, timeout=30)
        assert op.status == SUCCEEDED
        assert op.attempts == 2


class TestRunOpTimeout:
    def test_run_op_raises_on_timeout(self):
        cluster = build_cluster(n=20, seed=34)
        client = cluster.new_client(timeout=50.0, retries=0)  # never expires
        op = client.get("missing-key")
        with pytest.raises(OperationTimeoutError):
            cluster.run_op(op, timeout=2.0)

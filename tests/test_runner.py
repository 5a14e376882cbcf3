"""Tests for the closed-loop workload runner."""

from dataclasses import replace

import pytest

from repro.workload.openloop import OpenLoopRunner
from repro.workload.runner import RunStats, WorkloadRunner
from repro.workload.ycsb import (
    INSERT,
    RMW,
    SCAN,
    CoreWorkload,
    Operation,
    WORKLOAD_A,
    WORKLOAD_E,
    WORKLOAD_F,
    WRITE_ONLY,
)

from tests.conftest import build_cluster


@pytest.fixture(scope="module")
def loaded_cluster():
    """A cluster with a small write-only load already applied."""
    cluster = build_cluster(n=30, seed=41)
    workload = WRITE_ONLY.scaled(20)
    runner = WorkloadRunner(cluster, workload, seed=1)
    stats = runner.run_load_phase()
    assert stats.success_rate == 1.0
    cluster.sim.run_for(15)  # replicate
    return cluster, workload, runner


class TestRunStats:
    def test_empty_stats(self):
        stats = RunStats()
        assert stats.success_rate == 0.0
        assert stats.throughput == 0.0

    def test_record_accumulates(self):
        stats = RunStats()
        stats.record("read", True, 0.5)
        stats.record("read", False, None)
        assert stats.issued == 2
        assert stats.succeeded == 1
        assert stats.failed == 1
        assert stats.by_kind == {"read": 2}
        assert stats.latency_summary("read")["count"] == 1

    def test_latency_summary_missing_kind(self):
        assert RunStats().latency_summary("scan")["count"] == 0


class TestLoadPhase:
    def test_load_phase_inserts_all(self, loaded_cluster):
        cluster, workload, _ = loaded_cluster
        for i in range(workload.record_count):
            assert cluster.replication_level(workload.key_for(i)) >= 1

    def test_messages_per_node_positive(self, loaded_cluster):
        _, _, runner = loaded_cluster
        extra = runner.run_transactions(0)
        assert extra.issued == 0  # sanity: empty run records nothing


class TestTransactionPhase:
    def test_mixed_workload_succeeds(self, loaded_cluster):
        cluster, _, _ = loaded_cluster
        workload = WORKLOAD_A.scaled(20)
        runner = WorkloadRunner(cluster, workload, seed=2)
        stats = runner.run_transactions(20)
        assert stats.issued == 20
        assert stats.success_rate > 0.9

    def test_version_oracle_monotonic(self, loaded_cluster):
        cluster, _, _ = loaded_cluster
        workload = CoreWorkload(
            record_count=5,
            read_proportion=0.0,
            update_proportion=1.0,
            request_distribution="uniform",
            key_prefix="vv",
        )
        runner = WorkloadRunner(cluster, workload, seed=3)
        runner.run_load_phase()
        stats = runner.run_transactions(10)
        assert stats.success_rate == 1.0
        # Updates bumped versions past the insert's version 1.
        assert max(runner.observer.versions.values()) > 1

    def test_rmw_counts_as_single_op(self, loaded_cluster):
        cluster, _, _ = loaded_cluster
        workload = WORKLOAD_F.scaled(20)
        runner = WorkloadRunner(cluster, workload, seed=4)
        runner.observer.seed_versions({workload.key_for(i): 1 for i in range(20)})
        stats = runner.run_transactions(10)
        assert stats.issued == 10
        assert stats.success_rate > 0.8

    def test_throughput_positive(self, loaded_cluster):
        cluster, _, _ = loaded_cluster
        runner = WorkloadRunner(cluster, WORKLOAD_A.scaled(20), seed=5)
        stats = runner.run_transactions(10)
        assert stats.throughput > 0
        assert stats.duration > 0
        assert stats.messages_per_node > 0

    def test_messages_per_node_divided_by_alive_servers(self, loaded_cluster):
        """Regression: the field used to store the raw handled-messages
        delta; it must be the delta divided by the alive-server count,
        as its name (and the paper's metric) promises."""
        cluster, _, _ = loaded_cluster
        runner = WorkloadRunner(cluster, WORKLOAD_A.scaled(20), seed=6)
        before = cluster.server_message_load()["handled"] * len(cluster.servers)
        stats = runner.run_transactions(10)
        after = cluster.server_message_load()["handled"] * len(cluster.servers)
        alive = sum(1 for s in cluster.servers if s.alive)
        assert stats.messages_per_node == pytest.approx((after - before) / alive)


class _Logged(WorkloadRunner):
    """Logs the instant each operation is issued and closed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.issued_at, self.closed_at = [], []

    def _issue(self, flight, client, op):
        self.issued_at.append(self.cluster.sim.now)
        super()._issue(flight, client, op)

    def _closed(self, flight, ok, latency):
        self.closed_at.append(self.cluster.sim.now)
        super()._closed(flight, ok, latency)


def run_ops(cluster, workload, *ops, **runner_args):
    """Drive exactly ``ops`` through the runner's public transaction path."""
    scripted = replace(workload)
    scripted.operations = lambda count, rng: iter(ops)
    runner = _Logged(cluster, scripted, **runner_args)
    return runner, runner.run_transactions(len(ops))


class TestScanEdgeCases:
    """Regression: a scan with no keys in range used to record a
    ~0-latency success, dragging p50 toward zero."""

    def test_scan_past_record_count_not_issued(self, loaded_cluster):
        cluster, workload, _ = loaded_cluster
        beyond = workload.key_for(workload.record_count + 5)
        _, stats = run_ops(cluster, workload, Operation(SCAN, beyond, scan_length=3), seed=7)
        assert stats.not_issued == 1
        assert stats.not_issued_by_kind == {SCAN: 1}
        assert stats.issued == 0
        assert stats.succeeded == 0
        assert stats.latencies == {}
        assert stats.offered == 1

    def test_zero_length_scan_not_issued(self, loaded_cluster):
        cluster, workload, _ = loaded_cluster
        scan = Operation(SCAN, workload.key_for(0), scan_length=0)
        _, stats = run_ops(cluster, workload, scan, seed=8)
        assert stats.not_issued == 1
        assert stats.issued == 0

    def test_in_range_scan_still_succeeds(self, loaded_cluster):
        cluster, workload, _ = loaded_cluster
        scan = Operation(SCAN, workload.key_for(0), scan_length=3)
        _, stats = run_ops(cluster, workload, scan, seed=9)
        assert stats.issued == 1
        assert stats.succeeded == 1
        # A real scan takes real time: at least one network round trip.
        assert stats.latencies[SCAN][0] > 0

    def test_scan_gets_go_out_together(self, loaded_cluster):
        """A 3-key scan sends its gets together: one round trip, not one per get."""
        cluster, workload, _ = loaded_cluster
        scan = Operation(SCAN, workload.key_for(0), scan_length=3)
        _, stats = run_ops(cluster, workload, scan, seed=11)
        assert stats.succeeded == 1
        assert stats.latencies[SCAN][0] < 0.2

    def test_workload_e_mix_runs_clean(self, loaded_cluster):
        cluster, _, _ = loaded_cluster
        workload = WORKLOAD_E.scaled(20)
        runner = WorkloadRunner(cluster, workload, seed=10)
        stats = runner.run_transactions(15)
        # Every op is accounted exactly once, issued or shed.
        assert stats.offered == 15
        assert stats.issued + stats.not_issued == 15


class TestIssueOnClose:
    """The closed loop issues each operation at the instant the one
    before it closes, not at a poll."""

    def test_next_op_is_issued_the_instant_the_last_closes(self, loaded_cluster):
        cluster, _, _ = loaded_cluster
        runner = _Logged(cluster, WORKLOAD_A.scaled(20), seed=13)
        stats = runner.run_transactions(20)
        assert stats.issued == 20
        assert runner.issued_at[1:] == runner.closed_at[:-1]
        assert all(issued < closed for issued, closed in zip(runner.issued_at, runner.closed_at))
        # The phase ends at the first 0.1 s poll after the last close.
        assert 0 <= cluster.sim.now - runner.closed_at[-1] <= 0.1 + 1e-9

    def test_ops_that_fail_as_issued_loop_without_nesting(self, loaded_cluster):
        """A client with no contact fails each op inside its issue step;
        thousands in a row must neither recurse nor advance time."""
        cluster, workload, _ = loaded_cluster
        client = cluster.new_client()
        client.load_balancer.pick = lambda key, num_slices: None
        start = cluster.sim.now
        runner = WorkloadRunner(cluster, workload, client=client, seed=16)
        stats = runner.run_transactions(3_000)
        assert stats.failed == stats.issued == 3_000
        assert cluster.sim.now == start

    def test_rmw_latency_matches_the_open_loop(self, loaded_cluster):
        """A read-modify-write measures its two round trips in both
        loops (it used to measure two 0.1 s polls in the closed one)."""
        cluster, _, _ = loaded_cluster
        workload = WORKLOAD_F.scaled(20)
        closed = WorkloadRunner(cluster, workload, seed=14)
        closed.observer.seed_versions({workload.key_for(i): 1 for i in range(20)})
        closed_p50 = closed.run_transactions(40).latency_summary(RMW)["p50"]
        open_loop = OpenLoopRunner(
            cluster, workload, clients=1, rate=5.0, seed=15, observer=closed.observer
        )
        open_p50 = open_loop.run_transactions(40).latency_summary(RMW)["p50"]
        assert 0 < open_p50 < 0.1
        assert abs(closed_p50 - open_p50) <= 0.25 * open_p50


class TestTimeout:
    def test_late_ack_reaches_the_audit(self, loaded_cluster):
        """An op given up on at ``op_timeout`` closes as failed at that
        instant, the next op is issued then, and the ack that lands
        later still counts as acknowledged."""
        cluster, workload, _ = loaded_cluster
        keys = [workload.key_for(workload.record_count + 50 + i) for i in range(2)]
        runner, stats = run_ops(
            cluster, workload, *(Operation(INSERT, key, b"v") for key in keys),
            seed=12, op_timeout=0.001,
        )
        assert stats.failed == 2
        assert runner.closed_at == [issued + 0.001 for issued in runner.issued_at]
        assert runner.issued_at[1] == runner.closed_at[0]
        assert not set(keys) & set(runner.observer.acked_versions)
        cluster.sim.run_for(5)
        assert all(runner.observer.acked_versions[key] == 1 for key in keys)

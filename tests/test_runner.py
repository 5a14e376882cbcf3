"""Tests for the closed-loop workload runner."""

from dataclasses import replace

import pytest

from repro.workload.runner import RunStats, WorkloadRunner
from repro.workload.ycsb import (
    INSERT,
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


def run_ops(cluster, workload, *ops, **runner_args):
    """Drive exactly ``ops`` through the runner's public transaction path."""
    scripted = replace(workload)
    scripted.operations = lambda count, rng: iter(ops)
    runner = WorkloadRunner(cluster, scripted, **runner_args)
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
        """A 3-key scan waits for one poll, not one poll per get."""
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


class TestTimeout:
    def test_late_ack_reaches_the_audit(self, loaded_cluster):
        """An op given up on at ``op_timeout`` fails, but the ack that
        lands later still counts as acknowledged."""
        cluster, workload, _ = loaded_cluster
        key = workload.key_for(workload.record_count + 50)
        runner, stats = run_ops(
            cluster, workload, Operation(INSERT, key, b"v"), seed=12, op_timeout=0.001
        )
        assert stats.failed == 1
        assert key not in runner.observer.acked_versions
        cluster.sim.run_for(5)
        assert runner.observer.acked_versions[key] == 1

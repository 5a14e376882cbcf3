"""Tests for the concurrent open-loop workload engine.

Covers the engine mechanics (arrivals, in-flight window, warmup and
measurement windows, composite ops), the scenario-level wiring
(``[workload] mode/clients/rate/...`` validation, the bundled
``open-loop`` spec), and the two reproducibility contracts this PR
adds: same-seed byte-identical replay of a concurrent run, and
``mode="closed", clients=1`` being exactly today's closed-loop
behavior.
"""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios.registry import load_bundled
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import WorkloadSpec, spec_from_dict
from repro.workload.openloop import OpenLoopRunner
from repro.workload.runner import ConsistencyObserver, WorkloadRunner
from repro.workload.ycsb import (
    CoreWorkload,
    WORKLOAD_A,
    WORKLOAD_E,
    WORKLOAD_F,
    WRITE_ONLY,
)

from tests.conftest import build_cluster


@pytest.fixture(scope="module")
def loaded_cluster():
    """A converged cluster with a small write-only load applied."""
    cluster = build_cluster(n=25, seed=17)
    workload = WRITE_ONLY.scaled(20)
    runner = WorkloadRunner(cluster, workload, seed=1)
    stats = runner.run_load_phase()
    assert stats.success_rate == 1.0
    cluster.sim.run_for(15)  # replicate
    return cluster, runner.observer


class TestEngineMechanics:
    def test_open_loop_run_accounts_every_arrival(self, loaded_cluster):
        cluster, observer = loaded_cluster
        engine = OpenLoopRunner(
            cluster,
            WORKLOAD_A.scaled(20),
            clients=4,
            rate=100.0,
            seed=2,
            observer=observer,
        )
        stats = engine.run_transactions(60)
        assert stats.warmup_ops == 0  # no warmup configured
        assert stats.offered == 60
        assert stats.issued + stats.not_issued == 60
        assert stats.success_rate > 0.9
        assert stats.clients == 4
        # Windowed accounting covers exactly the offered operations.
        assert sum(w.offered for w in stats.windows) == 60
        assert sum(w.issued for w in stats.windows) == stats.issued
        assert engine.max_observed_in_flight <= engine.max_in_flight
        # Open loop actually overlaps requests.
        assert engine.max_observed_in_flight > 1
        assert stats.duration > 0
        assert stats.throughput > 0
        assert stats.messages_per_node > 0

    def test_constant_arrivals_match_rate(self, loaded_cluster):
        cluster, _ = loaded_cluster
        engine = OpenLoopRunner(
            cluster, WORKLOAD_A.scaled(20), clients=2, rate=50.0,
            arrival="constant", seed=3,
        )
        stats = engine.run_transactions(100)
        # 100 arrivals spaced 0.02s apart -> ~2s of issue time plus a
        # short drain; the measured arrival rate must track the offer.
        assert stats.offered_rate == pytest.approx(50.0, rel=0.25)

    def test_in_flight_window_sheds_excess_load(self, loaded_cluster):
        cluster, _ = loaded_cluster
        engine = OpenLoopRunner(
            cluster, WORKLOAD_A.scaled(20), clients=1, rate=2000.0,
            max_in_flight=2, seed=4,
        )
        stats = engine.run_transactions(80)
        assert engine.max_observed_in_flight <= 2
        assert stats.not_issued > 0
        assert stats.offered == 80
        # Shed ops are not fake successes: success rate counts issued only.
        assert stats.succeeded <= stats.issued

    def test_warmup_ops_excluded_from_stats(self, loaded_cluster):
        cluster, _ = loaded_cluster
        engine = OpenLoopRunner(
            cluster, WORKLOAD_A.scaled(20), clients=2, rate=100.0,
            arrival="constant", warmup=0.3, seed=5,
        )
        stats = engine.run_transactions(60)
        assert stats.warmup_ops > 0
        assert stats.warmup_ops + stats.offered == 60
        # Windows start at the measurement boundary, not at run start.
        assert stats.windows[0].start == pytest.approx(stats.measure_start)

    def test_rmw_and_scan_composites(self, loaded_cluster):
        cluster, _ = loaded_cluster
        observer = ConsistencyObserver()
        observer.seed_versions({f"user{i}": 1 for i in range(20)})
        rmw = OpenLoopRunner(
            cluster, WORKLOAD_F.scaled(20), clients=2, rate=40.0, seed=6,
            observer=observer,
        )
        stats = rmw.run_transactions(20)
        assert stats.offered == 20
        assert stats.success_rate > 0.8
        # RMW latency spans read + write: at least two network RTTs.
        for latency in stats.latencies.get("read-modify-write", []):
            assert latency > 0.02
        scan = OpenLoopRunner(
            cluster, WORKLOAD_E.scaled(20), clients=2, rate=40.0, seed=7,
        )
        scan_stats = scan.run_transactions(20)
        assert scan_stats.offered == 20
        assert scan_stats.succeeded > 0

    def test_same_seed_engine_runs_identical(self):
        """Two fresh clusters, same seeds -> identical engine outcomes."""
        outcomes = []
        for _ in range(2):
            cluster = build_cluster(n=20, seed=23)
            workload = WORKLOAD_A.scaled(15)
            loader = WorkloadRunner(cluster, workload, seed=1)
            loader.run_load_phase()
            engine = OpenLoopRunner(
                cluster, workload, clients=4, rate=80.0, seed=9,
                observer=loader.observer,
            )
            stats = engine.run_transactions(50)
            outcomes.append(
                (
                    stats.issued,
                    stats.not_issued,
                    stats.succeeded,
                    stats.stale_reads,
                    stats.duration,
                    stats.latencies,
                    [(w.offered, w.succeeded) for w in stats.windows],
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_engine_validation(self, loaded_cluster):
        cluster, _ = loaded_cluster
        workload = WORKLOAD_A.scaled(20)
        with pytest.raises(ConfigurationError):
            OpenLoopRunner(cluster, workload, rate=0.0)
        with pytest.raises(ConfigurationError):
            OpenLoopRunner(cluster, workload, arrival="bursty")
        with pytest.raises(ConfigurationError):
            OpenLoopRunner(cluster, workload, clients=0)


class TestConsistencyObserverSnapshots:
    def test_issue_time_snapshot_prevents_retroactive_staleness(self):
        """A write acked while a read is in flight must not make the
        read stale — even for a key with nothing acked at issue time
        (expected=None is a real snapshot, not 'no snapshot')."""
        obs = ConsistencyObserver()
        snapshot = obs.expected_version("k")
        assert snapshot is None
        version = obs.next_version("k")
        obs.write_completed("k", version, succeeded=True)  # ack lands mid-read
        assert obs.read_completed("k", 1.0, True, None, expected=snapshot) is False

    def test_snapshot_still_detects_genuinely_stale_reads(self):
        obs = ConsistencyObserver()
        obs.write_completed("k", obs.next_version("k"), succeeded=True)
        snapshot = obs.expected_version("k")  # 1, acked before issue
        assert obs.read_completed("k", 1.0, True, None, expected=snapshot) is True
        assert obs.read_completed("k", 2.0, True, 1, expected=snapshot) is False


class TestWorkloadSpecValidation:
    def test_open_mode_needs_rate(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(mode="open", clients=4, rate=0.0)

    def test_closed_mode_is_single_client(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(mode="closed", clients=4)

    @pytest.mark.parametrize(
        "field, value",
        [("rate", 500.0), ("arrival", "constant"), ("warmup", 3.0),
         ("window", 2.0), ("max_in_flight", 2)],
    )
    def test_closed_mode_rejects_open_only_fields(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            WorkloadSpec(mode="closed", **{field: value})
        WorkloadSpec(mode="open", **dict({"rate": 10.0}, **{field: value}))

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_op_timeout_must_be_finite_and_positive(self, value):
        with pytest.raises(ConfigurationError, match="op_timeout"):
            WorkloadSpec(op_timeout=value)

    def test_acks_required_at_least_one(self):
        with pytest.raises(ConfigurationError, match="acks_required"):
            WorkloadSpec(acks_required=0)
        WorkloadSpec(acks_required=1)

    def test_unknown_mode_and_arrival(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(mode="half-open")
        with pytest.raises(ConfigurationError):
            WorkloadSpec(mode="open", rate=10.0, arrival="bursty")

    def test_open_spec_round_trips(self):
        spec = load_bundled("open-loop")
        assert spec.workload.mode == "open"
        assert spec.workload.clients == 4
        clone = spec_from_dict(spec.to_dict())
        assert clone.workload == spec.workload


class TestScenarioIntegration:
    def test_open_loop_scenario_same_seed_byte_identical(self):
        spec = load_bundled("open-loop").scaled(
            nodes=20, record_count=10, operation_count=80
        )
        r1 = run_scenario(spec, seed=5)
        r2 = run_scenario(spec, seed=5)
        assert r1.summary_json() == r2.summary_json()
        assert r1.metrics["txn_offered"] >= r1.metrics["txn_ops"]
        assert r1.metrics["txn_offered_rate"] > 0
        assert r1.metrics["txn_throughput"] > 0

    def test_closed_defaults_reproduce_legacy_runner(self):
        """A spec written before the open-loop fields existed must run
        byte-identically to one spelling the closed-loop defaults out —
        the bundled specs' replay contract."""
        base = load_bundled("baseline").scaled(
            nodes=20, record_count=8, operation_count=20
        )
        data = base.to_dict()
        # Strip the new fields entirely: this is the pre-PR file format.
        for field in ("mode", "clients", "rate", "arrival", "warmup",
                      "max_in_flight", "window"):
            del data["workload"][field]
        legacy = spec_from_dict(data)
        explicit = spec_from_dict(
            dict(base.to_dict(), workload=dict(data["workload"], mode="closed", clients=1))
        )
        assert run_scenario(legacy, seed=3).summary_json() == \
            run_scenario(explicit, seed=3).summary_json()

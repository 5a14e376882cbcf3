"""Tests for the fault-injection (nemesis) subsystem: spec validation,
deterministic victim selection, what each kind does to the network and
the servers, crash-recover semantics, and the end-to-end fault
scenarios."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultSpec, Nemesis
from repro.scenarios import load_bundled, run_scenario

from tests.conftest import build_cluster


def build_nemesis(n: int = 30, seed: int = 21):
    cluster = build_cluster(n=n, seed=seed)
    controller = cluster.churn_controller()
    nemesis = Nemesis(cluster, controller)
    return cluster, controller, nemesis


def crashed(cluster):
    return sorted(s.id for s in cluster.servers if not s.alive)


# ------------------------------------------------------------- fault specs


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="meteor")

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="partition", start=-1.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="partition", duration=0.0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="partition", fraction=1.5)

    def test_degrade_needs_a_degradation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="degrade", loss=0.0, extra_latency=0.0)

    def test_degrade_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="degrade", fraction=0.0, loss=0.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="degrade", fraction=1.5, loss=0.5)

    def test_burst_loss_needs_loss(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="burst_loss", loss=0.0)

    def test_explicit_nodes_skip_fraction_check(self):
        spec = FaultSpec(kind="crash_recover", fraction=0.0, nodes=[1, 2])
        assert spec.nodes == [1, 2]

    def test_partition_rejects_node_in_multiple_groups(self):
        # A node on both sides of a cut is a contradiction.
        with pytest.raises(ConfigurationError, match=r"\[2\].*disjoint"):
            FaultSpec(kind="partition", groups=[[1, 2], [2, 3]])
        # Duplicates within one group are harmless.
        assert FaultSpec(kind="partition", groups=[[1, 1, 2], [3]]).groups == [[1, 1, 2], [3]]


class TestFieldsTheKindDoesNotRead:
    """A field the kind never reads must keep its default: a partition
    given ``nodes`` would otherwise cut a random quarter instead."""

    def test_partition(self):
        with pytest.raises(
            ConfigurationError, match="partition fault does not read 'nodes'.*fraction, groups, symmetric"
        ):
            FaultSpec(kind="partition", nodes=[1, 2, 3])
        with pytest.raises(ConfigurationError, match="'loss'"):
            FaultSpec(kind="partition", loss=0.5)

    def test_degrade(self):
        with pytest.raises(
            ConfigurationError,
            match="degrade fault does not read 'groups'.*fraction, nodes, loss, extra_latency",
        ):
            FaultSpec(kind="degrade", loss=0.2, groups=[[1], [2]])
        with pytest.raises(ConfigurationError, match="'symmetric'"):
            FaultSpec(kind="degrade", loss=0.2, symmetric=False)

    def test_burst_loss(self):
        with pytest.raises(ConfigurationError, match="burst_loss fault does not read 'fraction'.*reads loss$"):
            FaultSpec(kind="burst_loss", loss=0.5, fraction=0.4)
        with pytest.raises(ConfigurationError, match="'extra_latency'"):
            FaultSpec(kind="burst_loss", loss=0.5, extra_latency=0.1)
        with pytest.raises(ConfigurationError, match="'nodes'"):
            FaultSpec(kind="burst_loss", loss=0.5, nodes=[1])

    def test_crash_recover(self):
        with pytest.raises(
            ConfigurationError, match="crash_recover fault does not read 'loss'.*fraction, nodes$"
        ):
            FaultSpec(kind="crash_recover", loss=0.3)
        with pytest.raises(ConfigurationError, match="'groups'"):
            FaultSpec(kind="crash_recover", groups=[[1]])

    def test_defaults_written_out_are_accepted(self):
        # Exported reproducers spell every field out at its default.
        spelled = dict(fraction=0.25, symmetric=True, loss=0.0, extra_latency=0.0, nodes=[], groups=[])
        for kind, reads in (
            ("partition", {}),
            ("degrade", {"loss": 0.2}),
            ("burst_loss", {"loss": 0.5}),
            ("crash_recover", {}),
        ):
            FaultSpec(kind=kind, **dict(spelled, **reads))


# -------------------------------------------------------- victim selection


class TestFaultContext:
    """What every fault acts on: the alive servers, drawn from the
    nemesis's own ``faults`` stream."""

    def test_population_is_sorted_alive_servers(self):
        cluster = build_cluster(n=20, seed=22)
        cluster.new_client()  # clients must never be fault victims
        cluster.servers[3].crash()
        nemesis = Nemesis(cluster, cluster.churn_controller())
        population = nemesis._population()
        assert population == sorted(population)
        assert cluster.servers[3].id not in population
        assert population == sorted(s.id for s in cluster.servers if s.alive)

    def test_pick_is_deterministic_per_seed(self):
        picks = []
        for _ in range(2):
            cluster, _, nemesis = build_nemesis(n=20, seed=23)
            nemesis.schedule([FaultSpec(kind="crash_recover", start=0.0, duration=2.0)])
            cluster.sim.run_for(1.0)
            picks.append(crashed(cluster))
        assert picks[0] == picks[1]
        assert len(picks[0]) == 5

    def test_pick_explicit_wins(self):
        cluster, _, nemesis = build_nemesis(n=20, seed=23)
        nemesis.schedule(
            [FaultSpec(kind="crash_recover", start=0.0, duration=2.0, fraction=0.5, nodes=[1, 2, 3])]
        )
        cluster.sim.run_for(1.0)
        assert crashed(cluster) == [1, 2, 3]


# -------------------------------------------------------------- fault kinds


class TestPartitionFault:
    def test_symmetric_partition_blocks_both_ways_until_heal(self):
        cluster, _, nemesis = build_nemesis(seed=24)
        ids = sorted(s.id for s in cluster.alive_servers())
        a, b = ids[: len(ids) // 2], ids[len(ids) // 2 :]
        nemesis.schedule([FaultSpec(kind="partition", start=1.0, duration=5.0, groups=[a, b])])
        cluster.sim.run_for(2.0)  # inside the window
        net = cluster.sim.network
        assert net.send(a[0], b[0], object()) is False
        assert net.send(b[0], a[0], object()) is False
        before = cluster.sim.metrics.total("msg.dropped.partition")
        assert before >= 2
        cluster.sim.run_for(5.0)  # past the heal
        assert net.send(a[0], b[0], object()) is True
        assert net.send(b[0], a[0], object()) is True

    def test_asymmetric_partition_is_one_way(self):
        cluster, _, nemesis = build_nemesis(seed=25)
        ids = sorted(s.id for s in cluster.alive_servers())
        isolated, rest = ids[:5], ids[5:]
        nemesis.schedule(
            [
                FaultSpec(
                    kind="partition", start=0.5, duration=5.0, groups=[isolated, rest], symmetric=False
                )
            ]
        )
        cluster.sim.run_for(1.0)
        net = cluster.sim.network
        assert net.send(isolated[0], rest[0], object()) is False  # cannot speak
        assert net.send(rest[0], isolated[0], object()) is True  # still hears

    def test_single_explicit_group_is_isolated_from_rest(self):
        cluster, _, nemesis = build_nemesis(seed=35)
        ids = sorted(s.id for s in cluster.alive_servers())
        nemesis.schedule([FaultSpec(kind="partition", start=0.5, duration=4.0, groups=[ids[:3]])])
        cluster.sim.run_for(1.0)
        net = cluster.sim.network
        assert net.send(ids[0], ids[-1], object()) is False
        assert net.send(ids[-1], ids[0], object()) is False
        assert net.send(ids[0], ids[1], object()) is True  # same group

    def test_random_fraction_isolates_some_servers(self):
        cluster, _, nemesis = build_nemesis(seed=26)
        nemesis.schedule([FaultSpec(kind="partition", start=0.0, duration=3.0, fraction=0.3)])
        cluster.sim.run_for(1.0)
        assert nemesis.injected == 1
        # Some cross-cut traffic must have been dropped by protocol gossip.
        cluster.sim.run_for(1.0)
        assert cluster.sim.metrics.total("msg.dropped.partition") > 0


class TestDegradeAndBurstLoss:
    def test_degrade_applies_and_clears_node_conditions(self):
        cluster, _, nemesis = build_nemesis(seed=27)
        nemesis.schedule(
            [FaultSpec(kind="degrade", start=0.0, duration=4.0, loss=0.3, extra_latency=0.05)]
        )
        cluster.sim.run_for(1.0)
        net = cluster.sim.network
        [(victims, _, _)] = net._layers.values()
        assert len(victims) == 7  # a quarter of the 30 servers
        victim = min(victims)
        clean = next(s.id for s in cluster.alive_servers() if s.id not in victims)
        assert net._loss_for(victim, clean) > 0.0
        assert net._extra_latency_for(victim, clean) == 0.05
        cluster.sim.run_for(4.0)
        assert net._loss_for(victim, clean) == 0.0
        assert net._extra_latency_for(victim, clean) == 0.0

    def test_burst_loss_window_drops_and_heals(self):
        cluster, _, nemesis = build_nemesis(seed=28)
        nemesis.schedule([FaultSpec(kind="burst_loss", start=0.0, duration=3.0, loss=0.9)])
        cluster.sim.run_for(1.5)
        dropped_during = cluster.sim.metrics.total("msg.dropped.loss")
        assert dropped_during > 0
        cluster.sim.run_for(2.0)  # healed at t=3
        assert cluster.sim.network._layers == {}

    def test_overlapping_bursts_do_not_cancel_each_other(self):
        cluster, _, nemesis = build_nemesis(seed=32)
        nemesis.schedule(
            [
                FaultSpec(kind="burst_loss", start=0.0, duration=4.0, loss=0.3),
                FaultSpec(kind="burst_loss", start=2.0, duration=6.0, loss=0.6),
            ]
        )
        cluster.sim.run_for(5.0)  # first healed at t=4, second still open
        net = cluster.sim.network
        assert net._loss_for(1, 2) == pytest.approx(0.6)
        cluster.sim.run_for(4.0)  # second healed at t=8
        assert net._loss_for(1, 2) == 0.0

    def test_overlapping_degrades_keep_shared_victims(self):
        cluster, _, nemesis = build_nemesis(seed=33)
        ids = sorted(s.id for s in cluster.alive_servers())
        shared = ids[0]
        nemesis.schedule(
            [
                FaultSpec(kind="degrade", start=0.0, duration=4.0, nodes=[shared], loss=0.2),
                FaultSpec(kind="degrade", start=2.0, duration=6.0, nodes=[shared], loss=0.5),
            ]
        )
        cluster.sim.run_for(3.0)  # both active
        net = cluster.sim.network
        assert net._loss_for(shared, ids[-1]) == pytest.approx(1 - 0.8 * 0.5)
        cluster.sim.run_for(2.0)  # first healed at t=4
        assert net._loss_for(shared, ids[-1]) == pytest.approx(0.5)
        cluster.sim.run_for(4.0)  # second healed at t=8
        assert net._loss_for(shared, ids[-1]) == 0.0


class TestCrashRecover:
    def test_node_recovers_with_retained_store(self):
        cluster = build_cluster(n=30, seed=29)
        client = cluster.new_client(timeout=4.0, retries=3)
        op = client.put("retained:key", b"survives", 1)
        cluster.sim.run_until_condition(lambda: op.done, timeout=60)
        assert op.succeeded
        cluster.sim.run_for(10)  # let replication spread
        holders = [s for s in cluster.alive_servers() if s.holds("retained:key")]
        assert holders
        victim = holders[0]

        controller = cluster.churn_controller()
        nemesis = Nemesis(cluster, controller)
        nemesis.schedule(
            [FaultSpec(kind="crash_recover", start=1.0, duration=5.0, nodes=[victim.id])]
        )
        cluster.sim.run_for(2.0)
        assert not victim.alive
        cluster.sim.run_for(5.0)  # recovery fired at t=6
        assert victim.alive
        assert victim.holds("retained:key")  # store retained, not fresh
        assert controller.leaves == 1
        assert controller.recoveries == 1
        assert controller.joins == 0  # recover is not a fresh join

    def test_recover_unknown_or_alive_node_is_noop(self):
        cluster = build_cluster(n=10, seed=30)
        controller = cluster.churn_controller()
        assert controller.recover(99999) is None
        assert controller.recover(cluster.servers[0].id) is None
        assert controller.recoveries == 0


# ---------------------------------------------------------------- nemesis


class TestNemesis:
    def test_schedule_tracks_horizon_and_counts(self):
        cluster, _, nemesis = build_nemesis(n=10, seed=2)
        sim = cluster.sim
        base = sim.now
        count = nemesis.schedule(
            [
                FaultSpec(kind="burst_loss", start=1.0, duration=2.0, loss=0.5),
                FaultSpec(kind="burst_loss", start=5.0, duration=4.0, loss=0.5),
            ]
        )
        assert count == 2
        assert nemesis.end_time == base + 9.0
        sim.run_until(base + 9.0)
        assert nemesis.injected == 2
        assert nemesis.healed == 2
        assert nemesis.last_heal_time == base + 9.0
        assert sim.metrics.total("fault.injected.burst_loss") == 2
        assert sim.metrics.total("fault.healed.burst_loss") == 2

    def test_needs_a_backend_and_a_controller(self):
        cluster = build_cluster(n=10, seed=3)
        with pytest.raises(TypeError):
            Nemesis(cluster)


# ---------------------------------------------------- end-to-end scenarios

FAULT_SCENARIOS = (
    "asymmetric-partition",
    "slow-quartile",
    "crash-recover-wave",
    "burst-loss",
)

SMALL = dict(
    nodes=25,
    num_slices=3,
    warmup=8.0,
    settle=6.0,
    record_count=6,
    operation_count=12,
)


@pytest.mark.parametrize("name", FAULT_SCENARIOS)
def test_fault_scenarios_are_byte_identical_per_seed(name):
    spec = load_bundled(name).scaled(**SMALL)
    first = run_scenario(spec, seed=5)
    second = run_scenario(spec, seed=5)
    assert first.summary_json() == second.summary_json()


def test_fault_scenario_reports_consistency_metrics():
    spec = load_bundled("crash-recover-wave").scaled(**SMALL)
    metrics = run_scenario(spec, seed=3).metrics
    for name in (
        "stale_reads",
        "lost_updates",
        "lost_objects",
        "unavail_keys",
        "unavail_windows",
        "unavail_window_mean",
        "unavail_window_max",
        "heal_time",
        "heal_converged",
        "faults_injected",
        "faults_healed",
        "churn_recoveries",
    ):
        assert name in metrics, name
    assert metrics["faults_injected"] == 1.0
    assert metrics["faults_healed"] == 1.0
    assert metrics["churn_recoveries"] > 0
    # Everyone recovered: the full population is back up.
    assert metrics["population_alive"] == metrics["population_total"]


def test_crash_recover_keeps_acked_data():
    spec = load_bundled("crash-recover-wave").scaled(**SMALL)
    metrics = run_scenario(spec, seed=4).metrics
    assert metrics["lost_objects"] == 0.0


def test_heal_time_not_inflated_by_workload_runtime():
    # The burst-loss fault never breaks slice assignment, so the overlay
    # is whole the moment the burst heals: heal_time must be ~0 even
    # though the transaction phase keeps running long past the heal.
    spec = load_bundled("burst-loss").scaled(**dict(SMALL, operation_count=40))
    metrics = run_scenario(spec, seed=6).metrics
    assert metrics["heal_converged"] == 1.0
    assert metrics["heal_time"] <= 1.0

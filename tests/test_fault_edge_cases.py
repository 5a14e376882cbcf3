"""Fault edge cases: overlapping windows, heal/inject ordering at
coincident instants, one spec scheduled for several windows, recovery of
nodes that are already alive (or already dead), and a property that any
overlapping schedule unwinds completely.

These pin down the composition semantics the adversarial hunter
(:mod:`repro.search`) relies on: overlapping schedules must compose and
unwind without one fault reverting — or leaking — another's state.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.faults import FAULT_KINDS, FaultSpec, Nemesis

from tests.conftest import build_cluster


def build_nemesis(n: int = 24, seed: int = 91):
    cluster = build_cluster(n=n, seed=seed)
    controller = cluster.churn_controller()
    nemesis = Nemesis(cluster, controller)
    return cluster, controller, nemesis


def fault_free(sim) -> bool:
    return sim.network._fault_free


# ------------------------------------------------- overlapping partitions


class TestOverlappingPartitions:
    def test_same_links_compose_and_unwind_in_order(self):
        """Two partitions cutting the *same* links on staggered windows:
        the first heal must not reconnect links the second still cuts."""
        cluster, _, nemesis = build_nemesis()
        ids = sorted(s.id for s in cluster.servers)
        group = ids[:6]
        first = FaultSpec(kind="partition", start=0.0, duration=6.0, groups=[group])
        second = FaultSpec(kind="partition", start=3.0, duration=6.0, groups=[group])
        nemesis.schedule([first, second])
        sim = cluster.sim

        sim.run_for(4.0)  # both active
        assert sim.network._crosses_partition(group[0], ids[-1])
        sim.run_for(3.0)  # t=7: first healed, second still active
        assert nemesis.healed == 1
        assert sim.network._crosses_partition(group[0], ids[-1])
        sim.run_for(3.0)  # t=10: both healed
        assert nemesis.healed == 2
        assert not sim.network._crosses_partition(group[0], ids[-1])
        assert fault_free(sim)

    def test_reused_injector_instance_keeps_windows_separate(self):
        """One spec scheduled for two windows (the nemesis composes
        schedules): the first window's heal must revert only the first
        window's cuts."""
        cluster, _, nemesis = build_nemesis(seed=92)
        ids = sorted(s.id for s in cluster.servers)
        fault = FaultSpec(kind="partition", start=0.0, duration=5.0, groups=[ids[:5]])
        nemesis.schedule([fault])
        nemesis.schedule([fault], base=cluster.sim.now + 2.0)  # window [2, 7)
        sim = cluster.sim

        sim.run_for(6.0)  # t=6: first window healed, second still open
        assert nemesis.injected == 2 and nemesis.healed == 1
        assert sim.network._crosses_partition(ids[0], ids[-1])
        sim.run_for(2.0)  # t=8: both healed
        assert nemesis.healed == 2
        assert not sim.network._crosses_partition(ids[0], ids[-1])
        assert fault_free(sim)


# ------------------------------------------- heal/inject at one instant


class TestHealInjectOrdering:
    def test_back_to_back_windows_on_same_links(self):
        """Fault B starts exactly when fault A heals. Scheduler ties break
        by scheduling order (A's heal was scheduled before B's inject), so
        the cut is continuous across the boundary and fully reverts at
        B's end."""
        cluster, _, nemesis = build_nemesis(seed=93)
        ids = sorted(s.id for s in cluster.servers)
        a = FaultSpec(kind="partition", start=0.0, duration=4.0, groups=[ids[:4]])
        b = FaultSpec(kind="partition", start=4.0, duration=4.0, groups=[ids[:4]])
        nemesis.schedule([a, b])
        sim = cluster.sim

        sim.run_for(5.0)  # past the boundary
        assert nemesis.injected == 2 and nemesis.healed == 1
        assert sim.network._crosses_partition(ids[0], ids[-1])
        sim.run_for(4.0)
        assert nemesis.healed == 2
        assert fault_free(sim)

    def test_spec_order_decides_ties_deterministically(self):
        """B listed *before* A but starting at A's end: B's inject is
        scheduled first, so at the shared instant B injects before A
        heals. Either order must leave a consistent final state."""
        cluster, _, nemesis = build_nemesis(seed=94)
        ids = sorted(s.id for s in cluster.servers)
        b = FaultSpec(kind="partition", start=4.0, duration=4.0, groups=[ids[:4]])
        a = FaultSpec(kind="partition", start=0.0, duration=4.0, groups=[ids[:4]])
        nemesis.schedule([b, a])
        sim = cluster.sim
        sim.run_for(9.0)
        assert nemesis.injected == 2 and nemesis.healed == 2
        assert fault_free(sim)


# -------------------------------------------------- crash-recover edges


class TestCrashRecoverEdges:
    def test_recover_of_already_alive_node_is_a_noop(self):
        cluster, controller, _ = build_nemesis(seed=95)
        alive_id = next(s.id for s in cluster.servers if s.alive)
        assert controller.recover(alive_id) is None
        assert controller.recoveries == 0

    def test_manual_recovery_before_heal_does_not_double_recover(self):
        """A victim revived out of band (operator intervention) before the
        fault's heal: heal must not crash, double-count, or re-bootstrap
        the node a second time."""
        cluster, controller, nemesis = build_nemesis(seed=96)
        victim_id = sorted(s.id for s in cluster.servers)[0]
        fault = FaultSpec(kind="crash_recover", start=0.0, duration=6.0, nodes=[victim_id])
        nemesis.schedule([fault])
        sim = cluster.sim

        sim.run_for(2.0)
        victim = sim.nodes[victim_id]
        assert not victim.alive
        assert controller.recover(victim_id) is victim  # manual revival
        assert victim.alive and controller.recoveries == 1
        sim.run_for(6.0)  # heal fires at t=6 against an alive node
        assert nemesis.healed == 1
        assert victim.alive
        assert controller.recoveries == 1  # heal's recover was a no-op

    def test_already_dead_node_is_not_claimed_as_victim(self):
        """An explicit victim that is already crashed belongs to whoever
        crashed it: the fault must not adopt it, and must not revive it
        at heal time."""
        cluster, controller, nemesis = build_nemesis(seed=97)
        victim_id = sorted(s.id for s in cluster.servers)[0]
        controller.kill(victim_id)
        fault = FaultSpec(kind="crash_recover", start=0.0, duration=4.0, nodes=[victim_id])
        nemesis.schedule([fault])
        sim = cluster.sim

        sim.run_for(5.0)  # inject and heal both fired
        assert nemesis.injected == 1 and nemesis.healed == 1
        assert not sim.nodes[victim_id].alive  # still owned by the killer
        assert controller.leaves == 1 and controller.recoveries == 0

    def test_overlapping_explicit_windows_share_no_victims(self):
        """Two crash-recover faults naming the same node on overlapping
        windows: the second finds it already dead, so only the first
        window's heal revives it — once."""
        cluster, controller, nemesis = build_nemesis(seed=98)
        victim_id = sorted(s.id for s in cluster.servers)[0]
        first = FaultSpec(kind="crash_recover", start=0.0, duration=6.0, nodes=[victim_id])
        second = FaultSpec(kind="crash_recover", start=2.0, duration=6.0, nodes=[victim_id])
        nemesis.schedule([first, second])
        sim = cluster.sim

        sim.run_for(7.0)  # first healed at t=6
        assert sim.nodes[victim_id].alive
        assert controller.leaves == 1 and controller.recoveries == 1
        sim.run_for(2.0)  # second heals at t=8: nothing left to revive
        assert nemesis.healed == 2
        assert controller.recoveries == 1


# ------------------------------------------------ degradation and bursts


class TestDegradeAndBurstEdges:
    def test_reused_degrade_injector_unwinds_fifo(self):
        cluster, _, nemesis = build_nemesis(seed=99)
        fault = FaultSpec(kind="degrade", start=0.0, duration=5.0, fraction=0.2, loss=0.4)
        nemesis.schedule([fault])
        nemesis.schedule([fault], base=cluster.sim.now + 2.0)
        sim = cluster.sim

        sim.run_for(6.0)  # first window healed, second still degrading
        assert len(sim.network._layers) == 1
        sim.run_for(2.0)
        assert sim.network._layers == {}
        assert fault_free(sim)

    def test_reused_burst_injector_unwinds_fifo(self):
        cluster, _, nemesis = build_nemesis(seed=100)
        fault = FaultSpec(kind="burst_loss", start=0.0, duration=4.0, loss=0.5)
        nemesis.schedule([fault])
        nemesis.schedule([fault], base=cluster.sim.now + 2.0)
        sim = cluster.sim

        sim.run_for(5.0)  # t=5: first window closed, second open
        assert len(sim.network._layers) == 1
        sim.run_for(2.0)
        assert sim.network._layers == {}
        assert fault_free(sim)


# ------------------------------------------------------- spec validation


class TestFaultSpecTargets:
    def test_empty_target_group_rejected(self):
        with pytest.raises(ConfigurationError, match="must not be empty"):
            FaultSpec(kind="partition", groups=[[1, 2], []])

    def test_single_empty_group_rejected(self):
        with pytest.raises(ConfigurationError, match="must not be empty"):
            FaultSpec(kind="partition", groups=[[]])


# ------------------------------------------------------ unwind property

SERVERS = 20


@st.composite
def fault_windows(draw):
    """A spec of any kind on an early, likely overlapping window, with
    either a random fraction or explicit targets among the servers."""
    kind = draw(st.sampled_from(FAULT_KINDS))
    window = dict(
        start=draw(st.floats(0.0, 4.0)),
        duration=draw(st.floats(0.5, 5.0)),
    )
    explicit = draw(st.booleans())
    ids = st.lists(st.integers(0, SERVERS - 1), min_size=1, max_size=6, unique=True)
    if kind == "burst_loss":
        return FaultSpec(kind=kind, loss=draw(st.floats(0.01, 1.0)), **window)
    targets = {} if not explicit else {"nodes": draw(ids)}
    if kind == "partition":
        if explicit:
            members = draw(ids)
            cut = draw(st.integers(0, len(members) - 1))
            groups = [members[: cut + 1], members[cut + 1 :]]
            targets = {"groups": [g for g in groups if g]}
        return FaultSpec(kind=kind, symmetric=draw(st.booleans()), **targets, **window)
    if kind == "degrade":
        loss = draw(st.sampled_from([0.0, 0.2, 0.7]))
        extra = 0.05 if loss == 0.0 else draw(st.sampled_from([0.0, 0.05]))
        return FaultSpec(kind=kind, loss=loss, extra_latency=extra, **targets, **window)
    return FaultSpec(kind=kind, **targets, **window)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(fault_windows(), min_size=1, max_size=6),
    st.lists(st.sampled_from([None, 0.5, 1.5, 3.0]), min_size=6, max_size=6),
)
def test_any_overlapping_schedule_unwinds_completely(faults, rescheduled):
    cluster, controller, nemesis = build_nemesis(n=SERVERS, seed=102)
    sim = cluster.sim
    windows = nemesis.schedule(faults)
    for fault, offset in zip(faults, rescheduled):
        if offset is not None:
            windows += nemesis.schedule([fault], base=sim.now + offset)
    sim.run_until(nemesis.end_time)

    network = sim.network
    assert network._fault_free
    assert network._cuts == {} and network._layers == {}
    assert all(server.alive for server in cluster.servers)
    assert controller.leaves == controller.recoveries
    assert nemesis.injected == nemesis.healed == windows

"""Tests for churn specs and the churn controller."""

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn import ChurnController, ChurnSpec
from repro.errors import ConfigurationError
from repro.pss.bootstrap import bootstrap_random_views
from repro.pss.cyclon import CyclonService
from repro.sim.node import Node
from repro.sim.simulator import Simulation

from tests.test_spec_roundtrip import churn_specs


def recorded(churn, population=30, rng=None, now=0.0):
    """Apply ``churn`` to a bare simulation; return the ``(time, action)``
    calls it scheduled, the end time it returned and its controller."""
    sim = Simulation(seed=0)
    sim.add_nodes(Node, population)
    sim.start_all()
    sim.run_for(now)
    controller = ChurnController(sim, Node, rng=rng or random.Random(0))
    calls = []
    sim.scheduler.schedule_at = lambda time, fn, *args: calls.append((time, fn.__name__))
    end = controller.apply(churn, population)
    return calls, end, controller


class TestModels:
    def test_poisson_rates_validated(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            ChurnSpec(kind="poisson", join_rate=-1)

    def test_poisson_event_counts_near_expectation(self):
        spec = ChurnSpec(kind="poisson", join_rate=2.0, leave_rate=1.0, duration=100)
        calls, _, _ = recorded(spec, rng=random.Random(1))
        joins = sum(1 for _, action in calls if action == "join")
        leaves = sum(1 for _, action in calls if action == "kill")
        assert 150 <= joins <= 260
        assert 60 <= leaves <= 145

    def test_poisson_events_sorted(self):
        spec = ChurnSpec(kind="poisson", join_rate=1.0, leave_rate=1.0, duration=50)
        calls, _, _ = recorded(spec, rng=random.Random(2))
        times = [t for t, _ in calls]
        assert times == sorted(times)

    def test_poisson_zero_rates_yield_nothing(self):
        calls, end, _ = recorded(ChurnSpec(kind="poisson", duration=100))
        assert calls == [] and end == 100

    def test_session_churn_pairs_leave_with_join(self):
        spec = ChurnSpec(kind="session", mean_session=100, duration=60)
        calls, _, _ = recorded(spec, population=50, rng=random.Random(3))
        assert calls and len(calls) % 2 == 0
        for (leave_t, leave), (join_t, join) in zip(calls[::2], calls[1::2]):
            assert (leave, join) == ("kill", "join")
            assert leave_t == join_t

    def test_session_churn_validated(self):
        with pytest.raises(ConfigurationError, match="mean_session"):
            ChurnSpec(kind="session", mean_session=0)
        with pytest.raises(ConfigurationError, match="population"):
            recorded(ChurnSpec(kind="session"), population=0)

    def test_trace_churn_replays_sorted_and_bounded(self):
        spec = ChurnSpec(kind="trace", events=[[5.0, "leave"], [1.0, "join"], [9.0, "leave"]])
        calls, end, _ = recorded(spec, now=2.0)
        assert calls == [(3.0, "join"), (7.0, "kill"), (11.0, "kill")]
        assert end == 11.0  # the schedule ends with its last event

    def test_flash_crowd_joins_evenly(self):
        calls, end, _ = recorded(ChurnSpec(kind="flash_crowd", joins=4, over=2.0))
        assert calls == [(0.0, "join"), (0.5, "join"), (1.0, "join"), (1.5, "join")]
        assert end == 2.0

    def test_correlated_kills_fraction_at_once(self):
        calls, end, controller = recorded(
            ChurnSpec(kind="correlated", fraction=0.25), population=40, now=4.0
        )
        assert calls == [] and end == 4.0
        assert controller.leaves == 10
        assert len(controller.sim.alive_ids()) == 30


def test_a_churn_has_one_type_from_spec_to_scheduler():
    import repro.churn
    import repro.scenarios.spec

    assert repro.churn.__all__ == ["CHURN_KINDS", "ChurnController", "ChurnSpec"]
    assert repro.scenarios.spec.ChurnSpec is ChurnSpec
    assert not hasattr(ChurnSpec, "build") and not hasattr(ChurnSpec, "horizon")


class TestSpecValidation:
    @pytest.mark.parametrize(
        "fields, named",
        [
            (dict(fraction=0.3), "fraction"),  # no kind: a poisson churn
            (dict(kind="session", join_rate=1.0), "join_rate"),
            (dict(kind="correlated", fraction=0.3, duration=5.0), "duration"),
            (dict(kind="flash_crowd", joins=3, mean_session=5.0), "mean_session"),
            (dict(kind="trace", over=2.0), "over"),
            (dict(kind="poisson", events=[[1.0, "join"]]), "events"),
        ],
    )
    def test_field_the_kind_does_not_read_rejected(self, fields, named):
        with pytest.raises(ConfigurationError, match=f"does not read '{named}'; it reads"):
            ChurnSpec(**fields)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(kind="poisson", leave_rate=-0.5),
            dict(kind="poisson", join_rate=float("nan")),
            dict(kind="session", mean_session=-1.0),
            dict(kind="flash_crowd", joins=0),
            dict(kind="flash_crowd", joins=-3, over=-1.0),
            dict(kind="flash_crowd", joins=3, over=0.0),
            dict(kind="trace", events=[[-1.0, "join"]]),
            dict(kind="trace", events=[["soon", "join"]]),
            dict(kind="trace", events=[[float("inf"), "leave"]]),
            dict(kind="trace", events=[[True, "join"]]),
        ],
    )
    def test_out_of_range_value_rejected(self, fields):
        with pytest.raises(ConfigurationError):
            ChurnSpec(**fields)


# ------------------------------------------------ reference: the old models
#
# The model classes churn specs used to be mapped onto, and the mapping
# and scheduling loop that drove them, as they were before ``apply``
# read the spec itself. ``apply`` must schedule the same ``(time,
# action)`` sequence and leave the churn stream in the same state.


@dataclass(frozen=True)
class ChurnEvent:
    time: float
    kind: str
    node_id: Optional[int] = None


class ChurnModel:
    def events(self, rng: random.Random, horizon: float) -> Iterator[ChurnEvent]:
        raise NotImplementedError


class PoissonChurn(ChurnModel):
    def __init__(self, join_rate: float, leave_rate: float) -> None:
        self.join_rate = join_rate
        self.leave_rate = leave_rate

    def events(self, rng, horizon):
        pending: List[ChurnEvent] = []
        for rate, kind in ((self.join_rate, "join"), (self.leave_rate, "leave")):
            if rate <= 0:
                continue
            t = rng.expovariate(rate)
            while t <= horizon:
                pending.append(ChurnEvent(t, kind))
                t += rng.expovariate(rate)
        return iter(sorted(pending, key=lambda e: e.time))


class SessionChurn(ChurnModel):
    def __init__(self, population: int, mean_session: float) -> None:
        self.population = population
        self.mean_session = mean_session

    def events(self, rng, horizon):
        rate = self.population / self.mean_session
        pending: List[ChurnEvent] = []
        t = rng.expovariate(rate)
        while t <= horizon:
            pending.append(ChurnEvent(t, "leave"))
            pending.append(ChurnEvent(t, "join"))
            t += rng.expovariate(rate)
        return iter(pending)


class TraceChurn(ChurnModel):
    def __init__(self, events: Iterable[ChurnEvent]) -> None:
        self._events = sorted(events, key=lambda e: e.time)

    def events(self, rng, horizon):
        return iter([e for e in self._events if e.time <= horizon])


def reference_build(spec: ChurnSpec, population: int) -> Optional[ChurnModel]:
    if spec.kind == "poisson":
        return PoissonChurn(spec.join_rate, spec.leave_rate)
    if spec.kind == "session":
        return SessionChurn(population, spec.mean_session)
    if spec.kind == "flash_crowd":
        step = spec.over / max(1, spec.joins)
        return TraceChurn(ChurnEvent(i * step, "join") for i in range(spec.joins))
    if spec.kind == "trace":
        return TraceChurn(ChurnEvent(t, kind) for t, kind in spec.events)
    return None


def reference_horizon(spec: ChurnSpec) -> float:
    if spec.kind == "correlated":
        return 0.0
    if spec.kind == "flash_crowd":
        return spec.over
    if spec.kind == "trace":
        return max((e[0] for e in spec.events), default=0.0)
    return spec.duration


class TestAgainstTheOldModels:
    @settings(max_examples=150, deadline=None)
    @given(
        spec=churn_specs(),
        population=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_apply_schedules_what_the_models_did(self, spec, population, seed):
        calls, end, controller = recorded(
            spec, population=population, rng=random.Random(seed), now=spec.start
        )

        sim = Simulation(seed=0)
        sim.add_nodes(Node, population)
        sim.start_all()
        sim.run_for(spec.start)
        reference = ChurnController(sim, Node, rng=random.Random(seed))
        expected = []
        model = reference_build(spec, population)
        if model is None:
            reference.kill_fraction(spec.fraction)
        else:
            start = sim.now
            for event in model.events(reference.rng, reference_horizon(spec)):
                action = "kill" if event.kind == "leave" else "join"
                expected.append((start + event.time, action))

        assert calls == expected
        assert end == sim.now + reference_horizon(spec)
        assert controller.rng.getstate() == reference.rng.getstate()
        assert controller.sim.alive_ids() == sim.alive_ids()


def overlay_sim(n=30, seed=5):
    sim = Simulation(seed=seed)

    def factory(node_id, ctx):
        node = Node(node_id, ctx)
        node.add_service(CyclonService(view_size=8, shuffle_length=4))
        return node

    nodes = sim.add_nodes(factory, n)
    bootstrap_random_views(nodes, degree=4, rng=sim.rng_registry.stream("b"))
    sim.start_all()
    return sim, factory


class TestController:
    def test_kill_random_reduces_population(self):
        sim, factory = overlay_sim()
        controller = ChurnController(sim, factory)
        victim = controller.kill()
        assert victim is not None and not victim.alive
        assert len(sim.alive_ids()) == 29
        assert controller.leaves == 1

    def test_kill_named_node(self):
        sim, factory = overlay_sim()
        controller = ChurnController(sim, factory)
        target = sim.alive_ids()[0]
        controller.kill(target)
        assert not sim.node(target).alive

    def test_kill_dead_node_is_noop(self):
        sim, factory = overlay_sim()
        controller = ChurnController(sim, factory)
        target = sim.alive_ids()[0]
        controller.kill(target)
        assert controller.kill(target) is None
        assert controller.leaves == 1

    def test_kill_fraction(self):
        sim, factory = overlay_sim(n=40)
        controller = ChurnController(sim, factory)
        victims = controller.kill_fraction(0.25)
        assert len(victims) == 10
        assert len(sim.alive_ids()) == 30

    def test_join_bootstraps_new_node(self):
        sim, factory = overlay_sim()
        controller = ChurnController(sim, factory, bootstrap_degree=3)
        joiner = controller.join()
        assert joiner.alive
        pss = joiner.get_service(CyclonService)
        assert 1 <= len(pss.peers()) <= 3
        sim.run_for(10)
        assert len(pss.peers()) > 3  # integrated into the overlay

    def test_recover_bootstraps_from_the_others(self):
        sim, factory = overlay_sim()
        controller = ChurnController(sim, factory, bootstrap_degree=3)
        target = sim.alive_ids()[0]
        controller.kill(target)
        node = controller.recover(target)
        assert node.alive and controller.recoveries == 1
        assert node.get_service(CyclonService).peers()
        assert controller.recover(target) is None  # already up

    def test_join_callback_invoked(self):
        sim, factory = overlay_sim()
        seen = []
        controller = ChurnController(sim, factory, on_join=seen.append)
        joiner = controller.join()
        assert seen == [joiner]

    def test_apply_schedules_model_events(self):
        sim, factory = overlay_sim(n=30)
        controller = ChurnController(sim, factory)
        spec = ChurnSpec(kind="poisson", join_rate=0.5, leave_rate=0.5, duration=30)
        before = sim.scheduler.pending
        end = controller.apply(spec, population=30)
        count = sim.scheduler.pending - before
        assert count > 0 and end == 30.0
        sim.run_for(31)
        assert controller.joins + controller.leaves == count

    def test_population_roughly_stable_under_session_churn(self):
        sim, factory = overlay_sim(n=30)
        controller = ChurnController(sim, factory)
        controller.apply(ChurnSpec(kind="session", mean_session=60, duration=60), population=30)
        sim.run_for(61)
        assert 25 <= len(sim.alive_ids()) <= 35

    def test_kill_everything_then_join_restarts(self):
        sim, factory = overlay_sim(n=5)
        controller = ChurnController(sim, factory)
        controller.kill_fraction(1.0)
        assert sim.alive_ids() == []
        assert controller.kill() is None  # nothing left to kill
        joiner = controller.join()
        assert joiner.alive  # joins even into an empty system

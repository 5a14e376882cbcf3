"""The request-relay fast lane is a pure speed-up: every replaced piece
is pinned here against the reference it replaced.

* ``UniformLatency.sample`` vs ``random.Random.uniform`` (values and RNG
  state);
* ``PartialView``'s cached sorted-id list vs a freshly built view (the
  view against its former self and against ``random.Random``'s own
  draws: ``tests/test_view.py``);
* ``Scheduler.schedule``'s one-comparison validation;
* the tight ``Scheduler.run`` loop vs the general one, with handle-free
  ``post_many`` entries beside ``schedule``d ones;
* ``Network.multicast`` vs the loop of ``send`` it stands for, in every
  network state, and each condition that sends it down the per-message
  lane;
* the hooks other layers hang on the message path — the network's
  taps, an instance-level ``send`` wrapper like the ledger's, and
  ``Scheduler.profiler`` — still see every message.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import DataFlasksCluster
from repro.errors import SimulationError
from repro.lint import IsolationTap
from repro.obs.trace import OpTracer
from repro.pss.view import NodeDescriptor, PartialView
from repro.sim.network import LatencyModel, Network, Tap, UniformLatency
from repro.sim.node import Node
from repro.sim.scheduler import Scheduler
from repro.sim.simulator import Simulation

from tests.conftest import small_config

# ---------------------------------------------------------------- latency


def test_uniform_latency_is_rng_uniform_bit_for_bit():
    model = UniformLatency(0.005, 0.015)
    ours, reference = random.Random(42), random.Random(42)
    for _ in range(10_000):
        assert model.sample(ours, 1, 2) == reference.uniform(0.005, 0.015)
    assert ours.getstate() == reference.getstate()


# ------------------------------------------------------------ partial view

_descriptor = st.builds(NodeDescriptor, st.integers(0, 30), st.integers(0, 12))
_operation = st.one_of(
    st.tuples(st.just("add"), _descriptor),
    st.tuples(st.just("remove"), st.integers(0, 30)),
    st.tuples(st.just("merge"), st.lists(_descriptor, max_size=6), st.lists(_descriptor, max_size=3)),
    st.tuples(st.just("increase_ages"), st.integers(1, 3)),
    # Draws in between, so a stale cached list would be caught mid-sequence.
    st.tuples(st.just("sample"), st.integers(0, 12)),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.lists(_operation, max_size=25), st.integers(0, 12), st.integers())
def test_view_draws_equal_a_freshly_built_view(capacity, operations, count, seed):
    view = PartialView(capacity)
    mutation_rng = random.Random(seed)
    for op, *args in operations:
        if op == "merge":
            view.merge(args[0], self_id=0, sent=args[1], rng=mutation_rng)
        elif op == "sample":
            view.sample_ids(random.Random(seed), args[0])
        else:
            getattr(view, op)(*args)
        fresh = PartialView(capacity, view.descriptors())
        ours, reference = random.Random(seed), random.Random(seed)
        assert view.sample_ids(ours, count) == fresh.sample_ids(reference, count)
        assert view.random_id(ours) == fresh.random_id(reference)
        assert ours.getstate() == reference.getstate()


def test_sample_ids_hands_out_a_private_list():
    view = PartialView(4, [NodeDescriptor(i) for i in (3, 1, 2)])
    everything = view.sample_ids(random.Random(1), 10)
    everything.append(99)  # callers own the result
    assert sorted(view.sample_ids(random.Random(1), 10)) == [1, 2, 3]


# --------------------------------------------------------------- scheduler


@pytest.mark.parametrize("delay", [-1e-9, -1.0, float("nan"), float("inf"), float("-inf")])
def test_schedule_rejects_unschedulable_delays(delay):
    sched = Scheduler()
    with pytest.raises(SimulationError):
        sched.schedule(delay, lambda: None)
    assert sched.pending == 0


def test_schedule_accepts_zero_and_integer_delays():
    sched = Scheduler()
    fired = []
    sched.schedule(0, fired.append, "zero")
    sched.schedule(2, fired.append, "int")
    sched.run()
    assert fired == ["zero", "int"] and sched.now == 2


class _RecordingProfiler:
    def __init__(self):
        self.records = []

    def record(self, fn, args, elapsed):
        assert elapsed >= 0.0
        self.records.append((fn, args))


_HANDLE, _CANCELLED, _FREE = range(3)


def _push(sched, fire, events, first_tag=0):
    """``schedule`` the handle / cancelled entries one by one and every
    run of consecutive handle-free ones as one ``post_many``."""
    batch = []
    for tag, (delay, kind) in enumerate(events, first_tag):
        if kind == _FREE:
            batch.append((delay, (tag,)))
            continue
        sched.post_many(fire, batch)
        batch = []
        event = sched.schedule(delay, fire, tag)
        if kind == _CANCELLED:
            event.cancel()
    sched.post_many(fire, batch)


_events = st.lists(st.tuples(st.integers(0, 8), st.sampled_from([_HANDLE, _CANCELLED, _FREE])), max_size=20)


@settings(max_examples=150, deadline=None)
@given(_events, st.lists(st.integers(0, 10), min_size=1, max_size=4))
def test_tight_run_loop_equals_the_general_one(events, horizons):
    """Same firing order, clock, ``events_processed`` and ``pending``
    after every ``run(until=...)``, cancelled events included and
    handle-free entries mixed in; callbacks schedule follow-ups so the
    heap changes under the loop. The profiler is told ``(fn, args)`` of
    exactly what fired."""

    def drive(profiler):
        sched = Scheduler()
        sched.profiler = profiler  # not None -> the general loop
        log = []

        def fire(tag):
            log.append((tag, sched.now, sched.events_processed))
            if tag < 100:
                _push(sched, fire, [(tag % 3, tag % 2 * _FREE)], tag + 100)

        _push(sched, fire, events)
        for until in horizons:
            if until >= sched.now:
                sched.run(until=until)
            log.append(("ran", sched.now, sched.events_processed, sched.pending))
        sched.run()
        log.append(("drained", sched.now, sched.events_processed, sched.pending))
        return log, fire

    profiler = _RecordingProfiler()
    (tight, _), (general, fire) = drive(None), drive(profiler)
    assert tight == general
    fired = [entry[0] for entry in general if isinstance(entry[0], int)]
    assert profiler.records == [(fire, (tag,)) for tag in fired]


@settings(max_examples=150, deadline=None)
@given(_events)
def test_entries_fire_in_time_then_push_order_with_or_without_a_handle(events):
    expected = [
        tag
        for _, tag in sorted(
            (delay, tag) for tag, (delay, kind) in enumerate(events) if kind != _CANCELLED
        )
    ]
    for stepwise in (False, True):
        sched, fired = Scheduler(), []
        _push(sched, fired.append, events)
        assert sched.pending == len(events)
        if stepwise:
            while sched.step():
                pass
        else:
            assert sched.run_until_idle() == len(expected)
        assert fired == expected and sched.pending == 0


@pytest.mark.parametrize("delay", [-1e-9, float("nan"), float("inf")])
def test_post_many_validates_like_schedule(delay):
    sched = Scheduler()
    with pytest.raises(SimulationError) as batch:
        sched.post_many(print, [(1.0, ()), (delay, ())])
    with pytest.raises(SimulationError) as single:
        sched.schedule(delay, print)
    assert str(batch.value) == str(single.value)
    assert sched.pending == 1  # what preceded the bad delay stays, as in a loop


def test_handle_free_entries_consume_one_seq_each_and_cannot_pin_the_clock():
    sched = Scheduler()
    fired = []
    sched.schedule(1.0, fired.append, "cancelled").cancel()
    sched.post_many(fired.append, [(3.0, ("free",)), (3.0, ("free-2",))])
    assert sched.schedule(3.0, fired.append, "handle").seq == 3
    sched.post_many(fired.append, [])
    assert sched.schedule(9.0, fired.append, "late").seq == 4
    sched.run(until=2.0)
    assert sched.now == 2.0 and sched.pending == 4  # cancelled prefix dropped
    sched.run(until=10.0, max_events=0)
    assert sched.now == 3.0  # never past work that has not run
    sched.run(until=5.0)
    assert fired == ["free", "free-2", "handle"] and sched.now == 5.0


def test_run_until_idle_is_one_run_with_the_same_overrun_error():
    sched = Scheduler()
    fired = []
    sched.post_many(fired.append, [(float(i), (i,)) for i in range(6)])
    with pytest.raises(SimulationError, match="exceeded 5 events"):
        sched.run_until_idle(max_events=5)
    assert fired == list(range(5))
    assert sched.run_until_idle(max_events=5) == 1


# --------------------------------------------------------------- multicast


@dataclass(frozen=True)
class _Ping:
    body: int


@dataclass(frozen=True)
class _Pong:
    body: int


def _cuts(*pairs):
    """Arm directed cuts; the armer returns how to revert them."""
    return lambda net: [(net.unblock, net.block(src, dst)) for src, dst in pairs]


def _layer(members, **conditions):
    """Arm one degradation layer; the armer returns how to revert it."""
    return lambda net: [(net.remove_conditions, net.add_conditions(members, **conditions))]


_ARMED = {
    "partition": _cuts(([0, 1, 2], [3, 4, 5]), ([3, 4, 5], [0, 1, 2])),
    "block": _cuts(([0], [3])),
    "node-condition": _layer([2], loss=0.3, extra_latency=0.01),
    # A blackhole on every link touching 0 or 1, the link 0-1 among them.
    "link-condition": _layer([0, 1], loss=1.0),
    "condition-layer": _layer([4], extra_latency=0.02),
    "zero-impact-layer": _layer([4]),
    "burst": _layer(None, loss=0.4),
}


def _network(seed, loss_rate=0.0, armed=()):
    """Six live nodes (ids 0-5), one stopped (6); id 7 never existed."""
    sim = Simulation(seed=seed, latency_model=UniformLatency(0.005, 0.015), loss_rate=loss_rate)
    sim.add_nodes(Node, 7)
    sim.start_all()
    sim.nodes[6].stop()
    for name in armed:
        _ARMED[name](sim.network)
    return sim


def _state(sim):
    """Everything a send may touch: heap entries, the network's RNG and
    the metrics registry with its row order."""
    heap = sorted(
        (time, seq, fn.__func__, args) for time, seq, fn, args, _ in sim.scheduler._heap
    )
    rows = [(name, list(slots.items())) for name, slots in sim.metrics._counters.items()]
    return heap, sim.network.rng.getstate(), rows


_fanouts = st.lists(
    st.tuples(
        st.integers(0, 6),  # src (6 is down: Node.multicast sends nothing)
        st.lists(st.integers(0, 7), max_size=8),  # dsts, repeats and dead ids allowed
        st.sampled_from([_Ping(1), _Pong(2)]),
        st.booleans(),  # through the node or straight on the network
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from([0.0, 0.0, 0.25]),
    st.sets(st.sampled_from(sorted(_ARMED))),
    st.booleans(),
    _fanouts,
)
def test_multicast_is_the_loop_of_sends(seed, loss_rate, armed, traced, fanouts):
    batched, looped = (_network(seed, loss_rate, sorted(armed)) for _ in range(2))
    tracers = [OpTracer(sample_every=1) for _ in range(2)] if traced else []
    for sim, tracer in zip((batched, looped), tracers):
        sim.network.add_tap(tracer)
        tracer.active = tracer.sample_op("put", "k", 0, 0.0)
    for src, dsts, msg, via_node in fanouts:
        if via_node:
            batched.nodes[src].multicast(dsts, msg)
            for dst in dsts:
                looped.nodes[src].send(dst, msg)
        else:
            batched.network.multicast(src, dsts, msg)
            for dst in dsts:
                looped.network.send(src, dst, msg)
        assert _state(batched) == _state(looped)
    for sim in (batched, looped):
        sim.scheduler.run()
    assert _state(batched) == _state(looped)
    if traced:
        assert tracers[0]._events == tracers[1]._events


def test_fault_free_multicast_allocates_no_event_and_delivers_through_deliver():
    sim = _network(1)
    msg = _Ping(7)
    sim.nodes[0].multicast([1, 2, 3], msg)
    entries = sim.scheduler._heap
    assert len(entries) == 3 and all(handle is None for *_, handle in entries)
    # What obs/profile.py and the ledger's layer table classify by.
    assert all(fn.__func__ is Network._deliver and args[2] is msg for _, _, fn, args, _ in entries)
    assert sim.metrics.get("msg.sent", 0) == sim.metrics.total("msg.sent._Ping") == 3.0


def _per_message_lane(sim):
    """True if every in-flight delivery came through ``schedule``."""
    return all(handle is not None for *_, handle in sim.scheduler._heap)


@pytest.mark.parametrize("trigger", sorted(_ARMED))
def test_armed_fault_machinery_takes_the_per_message_lane(trigger):
    sim = _network(3)
    armed = _ARMED[trigger](sim.network)
    sim.network.multicast(5, [1, 2, 4], _Ping(1))
    dropped = sim.metrics.total("msg.dropped.partition") + sim.metrics.total("msg.dropped.loss")
    assert 0 < sim.scheduler.pending == 3 - dropped and _per_message_lane(sim)
    for revert, rule in armed:
        revert(rule)
    sim.network.multicast(5, [1, 2, 4], _Ping(1))
    assert not _per_message_lane(sim)  # the lane follows the network's state


def test_loss_takes_the_per_message_lane():
    sim = _network(3, loss_rate=0.5)
    sim.network.multicast(0, [1, 2, 3, 4, 5] * 4, _Ping(1))
    dropped = sim.metrics.total("msg.dropped.loss")
    assert 0 < dropped < 20 and sim.scheduler.pending == 20 - dropped
    assert _per_message_lane(sim)


def test_taps_see_every_message_of_a_multicast():
    sim = _network(3)
    sim.network.multicast(0, [1, 2, 3], _Ping(1))
    assert not _per_message_lane(sim)  # untapped: batched
    tracer = OpTracer(sample_every=1)
    sim.network.add_tap(tracer)
    sim.network.multicast(0, [1, 2, 3], _Ping(1))  # tapped, no operation active
    tracer.active = tracer.sample_op("put", "k", 0, 0.0)
    sim.network.multicast(0, [1, 2, 3], _Ping(1))
    tracer.active = None
    lanes = sorted((fn.__func__.__name__, handle is None) for _, _, fn, _, handle in sim.scheduler._heap)
    assert lanes == [("_deliver", True)] * 3 + [("_deliver_traced", False)] * 6
    sim.scheduler.run()
    assert tracer.hops == 3


@pytest.mark.parametrize("where", ["instance", "class", "subclass"])
def test_wrappers_on_send_see_every_message_of_a_multicast(where, monkeypatch):
    sim = _network(3)
    seen = []
    stock = Network.send

    def spy(self, src, dst, msg):
        seen.append(dst)
        return stock(self, src, dst, msg)

    if where == "instance":  # as the ledger's LayerTracer shadows it
        sim.network.send = lambda src, dst, msg: spy(sim.network, src, dst, msg)
    elif where == "class":
        monkeypatch.setattr(Network, "send", spy)
    else:
        sim.network.__class__ = type("Spied", (Network,), {"send": spy})
    sim.nodes[0].multicast([1, 2, 3], _Ping(1))
    assert seen == [1, 2, 3] and sim.scheduler.pending == 3 and _per_message_lane(sim)


def test_empty_and_dead_multicasts_leave_no_trace():
    sim = _network(3)
    before = _state(sim)
    sim.network.multicast(0, [], _Ping(1))
    sim.nodes[0].multicast((), _Ping(1))
    sim.nodes[6].multicast([1, 2], _Ping(1))  # node 6 is down
    assert _state(sim) == before
    assert "msg.sent._Ping" not in sim.metrics._counters  # slot rows are created lazily
    assert sim.scheduler.schedule(0.0, print).seq == 0  # no seq consumed


class _BrokenLatency(LatencyModel):
    def __init__(self, value):
        self.value = value

    def sample(self, rng, src, dst):
        return self.value


@pytest.mark.parametrize("latency", [-0.001, float("nan"), float("inf")])
def test_multicast_rejects_an_unschedulable_latency_like_send(latency):
    sim = _network(3)
    sim.network.latency_model = _BrokenLatency(latency)
    with pytest.raises(SimulationError) as batch:
        sim.network.multicast(0, [1, 2], _Ping(1))
    with pytest.raises(SimulationError) as single:
        sim.network.send(0, 1, _Ping(1))
    assert str(batch.value) == str(single.value)
    assert sim.scheduler.pending == 0


# ---------------------------------------------- hooks on the message path


class _CountingProfiler:
    def __init__(self):
        self.deliveries = 0

    def record(self, fn, args, elapsed):
        if getattr(fn, "__func__", None) in (Network._deliver, Network._deliver_traced):
            self.deliveries += 1


class _CountingTap(Tap):
    def __init__(self):
        self.sent = self.delivered = self.registered = 0

    def on_send(self, network, src, dst, msg):
        self.sent += 1

    def on_deliver(self, network, src, dst, msg, token, sent_at):
        self.delivered += 1
        self.registered += network.is_registered(dst)


def test_taps_wrappers_and_profiler_see_every_message():
    wrapped = []
    profiler = _CountingProfiler()
    counting = _CountingTap()
    # Construction sends nothing; everything below is hooked before the
    # first event runs.
    cluster = DataFlasksCluster(n=24, config=small_config(num_slices=3), seed=5)
    sim = cluster.sim
    for tap in (IsolationTap(), counting):
        sim.network.add_tap(tap)
    original_send = sim.network.send

    def send(src, dst, msg):  # instance-level, as the ledger's tracer installs it
        wrapped.append(type(msg).__name__)
        return original_send(src, dst, msg)

    sim.network.send = send
    sim.scheduler.profiler = profiler
    cluster.warm_up(10)
    assert cluster.wait_for_slices(timeout=120)
    client = cluster.new_client()
    assert cluster.put_sync(client, "k", b"v", 1).succeeded
    assert cluster.get_sync(client, "k").succeeded
    totals = sim.metrics.snapshot()
    assert "PutRequest" in wrapped and "GetRequest" in wrapped
    # No loss, no partition: every send is on the wire.
    assert len(wrapped) == counting.sent == totals["msg.sent"] > 500
    assert counting.registered == totals["msg.received"]
    assert (
        profiler.deliveries
        == counting.delivered
        == totals["msg.received"] + totals.get("msg.dropped.dead", 0.0)
    )

"""The request-relay fast lane is a pure speed-up: every replaced piece
is pinned here against the reference it replaced.

* ``UniformLatency.sample`` vs ``random.Random.uniform`` (values and RNG
  state);
* ``PartialView``'s cached sorted-id list vs a freshly built view;
* ``DedupCache`` vs the ``OrderedDict`` FIFO it used to be;
* ``Scheduler.schedule``'s one-comparison validation;
* the tight ``Scheduler.run`` loop vs the general one;
* the hooks other layers hang on the message path — the class-level
  guards, an instance-level ``send`` wrapper like the ledger's, and
  ``Scheduler.profiler`` — still see every message.
"""

from __future__ import annotations

import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import DataFlasksCluster
from repro.errors import SimulationError
from repro.gossip.dissemination import DedupCache
from repro.lint import isolation_guard
from repro.lint.coverage import coverage_snapshot, protocol_coverage
from repro.pss.view import NodeDescriptor, PartialView
from repro.sim.network import Network, UniformLatency
from repro.sim.scheduler import Scheduler

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
        fresh = PartialView(capacity)
        fresh._entries = dict(view._entries)
        ours, reference = random.Random(seed), random.Random(seed)
        assert view.sample_ids(ours, count) == fresh.sample_ids(reference, count)
        assert view.random_id(ours) == fresh.random_id(reference)
        assert ours.getstate() == reference.getstate()


def test_sample_ids_hands_out_a_private_list():
    view = PartialView(4, [NodeDescriptor(i) for i in (3, 1, 2)])
    everything = view.sample_ids(random.Random(1), 10)
    everything.append(99)  # callers own the result
    assert sorted(view.sample_ids(random.Random(1), 10)) == [1, 2, 3]


# ------------------------------------------------------------- dedup cache


class _OrderedDictDedup:
    """The cache as it was before: the reference for eviction order."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._seen = OrderedDict()

    def seen(self, key):
        if key in self._seen:
            return True
        self._seen[key] = None
        while len(self._seen) > self.capacity:
            self._seen.popitem(last=False)
        return False


@given(st.integers(1, 6), st.lists(st.integers(0, 12), max_size=80))
def test_dedup_cache_fifo_eviction_matches_the_ordered_dict(capacity, keys):
    ours, reference = DedupCache(capacity), _OrderedDictDedup(capacity)
    for key in keys:
        assert ours.seen(key) == reference.seen(key)
        assert len(ours) == len(reference._seen) <= capacity
        assert all((k in ours) == (k in reference._seen) for k in range(13))


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


class _NullProfiler:
    def record(self, fn, args, elapsed):
        pass


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 8), st.booleans()), max_size=20),
    st.lists(st.integers(0, 10), min_size=1, max_size=4),
)
def test_tight_run_loop_equals_the_general_one(events, horizons):
    """Same firing order, clock, ``events_processed`` and ``pending``
    after every ``run(until=...)``, cancelled events included; callbacks
    schedule follow-ups so the heap changes under the loop."""

    def drive(profiler):
        sched = Scheduler()
        sched.profiler = profiler  # not None -> the general loop
        log = []

        def fire(tag):
            log.append((tag, sched.now, sched.events_processed))
            if tag < 100:
                sched.schedule(tag % 3, fire, tag + 100)

        for tag, (delay, cancelled) in enumerate(events):
            event = sched.schedule(delay, fire, tag)
            if cancelled:
                event.cancel()
        for until in horizons:
            if until >= sched.now:
                sched.run(until=until)
            log.append(("ran", sched.now, sched.events_processed, sched.pending))
        sched.run()
        log.append(("drained", sched.now, sched.events_processed, sched.pending))
        return log

    assert drive(None) == drive(_NullProfiler())


# ---------------------------------------------- hooks on the message path


class _CountingProfiler:
    def __init__(self):
        self.deliveries = 0

    def record(self, fn, args, elapsed):
        if getattr(fn, "__func__", None) is Network._deliver:
            self.deliveries += 1


def test_guards_wrappers_and_profiler_see_every_message():
    wrapped = []
    profiler = _CountingProfiler()
    with isolation_guard(), protocol_coverage():
        # Construction sends nothing; everything below is hooked before
        # the first event runs.
        cluster = DataFlasksCluster(n=24, config=small_config(num_slices=3), seed=5)
        sim = cluster.sim
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
        covered = sum(coverage_snapshot()["delivered"].values())
    totals = sim.metrics.snapshot()
    assert "PutRequest" in wrapped and "GetRequest" in wrapped
    assert len(wrapped) == totals["msg.sent"] > 500
    assert covered == totals["msg.received"]
    assert profiler.deliveries == totals["msg.received"] + totals.get("msg.dropped.dead", 0.0)

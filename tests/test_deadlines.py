"""The one-timer deadline queue against a timer per entry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.errors import ConfigurationError
from repro.sim.deadlines import DeadlineQueue
from repro.sim.node import Node
from repro.sim.simulator import Simulation


class Owner(Node):
    """A node that times entries out through one queue and records, per
    key, when the queue expired it and when a timer of its own fired."""

    def __init__(self, node_id, ctx, timeout):
        super().__init__(node_id, ctx)
        self.queue = DeadlineQueue(timeout)
        self.expired = {}
        self.reference = {}
        self.armed_peak = 0

    def push(self, key):
        self.queue.push(self, key, None, self._fire)
        self.after(self.queue.timeout, self._reference_fired, key)

    def _reference_fired(self, key):
        self.reference[key] = self.now

    def _fire(self):
        self.queue.expire(self, self._fire, self._on_due)

    def _on_due(self, key, _value):
        self.expired[key] = self.now

    def armed(self):
        """Live scheduler entries that would fire the queue's timer."""
        return sum(
            1
            for _time, _seq, fn, _args, handle in self.scheduler._heap
            if not (handle is not None and handle.cancelled)
            and any(cell.cell_contents == self._fire for cell in fn.__closure__ or ())
        )


@settings(max_examples=200, deadline=None)
@given(
    timeout=st.floats(min_value=1e-3, max_value=50.0),
    start=st.floats(min_value=0.0, max_value=1e6),
    steps=st.lists(
        st.tuples(
            # Gap before the push, in timeouts; 0 makes deadlines tie.
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
            st.booleans(),  # answered (popped) before its deadline
        ),
        max_size=40,
    ),
)
def test_every_deadline_fires_exactly_when_its_own_timer_would(timeout, start, steps):
    sim = Simulation(seed=1)
    owner = sim.add_node(lambda node_id, ctx: Owner(node_id, ctx, timeout))
    owner.start()
    sim.run_for(start)
    answered = set()
    for key, (gap, answer) in enumerate(steps):
        sim.run_for(gap * timeout)
        owner.push(key)
        owner.armed_peak = max(owner.armed_peak, owner.armed())
        if answer:
            answered.add(key)
            owner.queue.pop(key)
    while sim.scheduler.step():
        owner.armed_peak = max(owner.armed_peak, owner.armed())
    assert owner.armed_peak <= 1
    assert len(owner.queue) == 0
    assert set(owner.expired) == set(range(len(steps))) - answered
    for key, when in owner.expired.items():
        assert when == owner.reference[key]  # bit for bit, not approximately


def test_expired_in_push_order_and_popped_entries_never_fire():
    sim = Simulation(seed=1)
    owner = sim.add_node(lambda node_id, ctx: Owner(node_id, ctx, 1.0))
    owner.start()
    for key in "abc":
        owner.push(key)
        sim.run_for(0.25)
    owner.queue.pop("b")
    sim.run_for(5)
    assert list(owner.expired) == ["a", "c"]
    assert owner.expired == {"a": 1.0, "c": 1.5}


def test_clear_cancels_the_timer():
    sim = Simulation(seed=1)
    owner = sim.add_node(lambda node_id, ctx: Owner(node_id, ctx, 1.0))
    owner.start()
    owner.push("a")
    owner.queue.clear()
    assert owner.armed() == 0 and len(owner.queue) == 0
    owner.push("b")  # arms afresh
    sim.run_for(5)
    assert owner.expired == {"b": 1.0}


@pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan")])
def test_timeout_must_be_positive(timeout):
    with pytest.raises(ConfigurationError, match="timeout must be positive"):
        DeadlineQueue(timeout)


@pytest.mark.parametrize("stack", ["core", "dht"])
def test_an_infinite_timeout_is_refused_at_construction(stack):
    # Accepted, it failed at the first op, inside the scheduler, with a
    # message that did not name the timeout.
    backend = get_backend(stack)(4, seed=1)
    with pytest.raises(ConfigurationError, match="timeout must be positive and finite, got inf"):
        backend.new_client(timeout=float("inf"))

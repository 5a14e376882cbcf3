"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.errors import SimulationError
from repro.sim.scheduler import Scheduler


def test_starts_at_time_zero():
    assert Scheduler().now == 0.0


def test_events_fire_in_time_order():
    sched = Scheduler()
    fired = []
    sched.schedule(3.0, fired.append, "c")
    sched.schedule(1.0, fired.append, "a")
    sched.schedule(2.0, fired.append, "b")
    sched.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_scheduling_order():
    sched = Scheduler()
    fired = []
    for label in "abcde":
        sched.schedule(1.0, fired.append, label)
    sched.run()
    assert fired == list("abcde")


def test_now_advances_to_event_time():
    sched = Scheduler()
    times = []
    sched.schedule(2.5, lambda: times.append(sched.now))
    sched.run()
    assert times == [2.5]
    assert sched.now == 2.5


def test_run_until_stops_before_later_events():
    sched = Scheduler()
    fired = []
    sched.schedule(1.0, fired.append, "early")
    sched.schedule(5.0, fired.append, "late")
    sched.run(until=2.0)
    assert fired == ["early"]
    assert sched.now == 2.0  # time advances exactly to the horizon
    sched.run(until=10.0)
    assert fired == ["early", "late"]


def test_run_until_nan_is_rejected():
    # No event is ever past a NaN horizon: the run would never end.
    sched = Scheduler()
    sched.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError, match="nan"):
        sched.run(until=float("nan"))


def test_run_until_is_composable():
    sched = Scheduler()
    fired = []
    sched.schedule(4.0, fired.append, "x")
    sched.run(until=1.0)
    sched.run(until=2.0)
    assert sched.now == 2.0
    sched.run(until=4.0)
    assert fired == ["x"]


def test_cancelled_event_does_not_fire():
    sched = Scheduler()
    fired = []
    event = sched.schedule(1.0, fired.append, "x")
    sched.cancel(event)
    sched.run()
    assert fired == []


def test_cancel_is_idempotent():
    sched = Scheduler()
    event = sched.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sched.run()
    assert sched.events_processed == 0


def test_cannot_schedule_in_the_past():
    sched = Scheduler()
    with pytest.raises(SimulationError):
        sched.schedule(-1.0, lambda: None)
    sched.schedule(5.0, lambda: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.schedule_at(1.0, lambda: None)


def test_non_finite_times_rejected():
    # NaN fails every comparison, so the old `delay < 0` guard let it
    # through and silently corrupted heap ordering; inf parked events
    # unreachably. Both must fail loudly, and the heap must stay usable.
    sched = Scheduler()
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(SimulationError):
            sched.schedule(bad, lambda: None)
        with pytest.raises(SimulationError):
            sched.schedule_at(bad, lambda: None)
    fired = []
    sched.schedule(1.0, fired.append, "ok")
    sched.run()
    assert fired == ["ok"]
    assert sched.now == 1.0


def test_events_scheduled_during_run_fire_in_same_run():
    sched = Scheduler()
    fired = []

    def chain(depth: int) -> None:
        fired.append(depth)
        if depth < 3:
            sched.schedule(1.0, chain, depth + 1)

    sched.schedule(0.0, chain, 0)
    sched.run()
    assert fired == [0, 1, 2, 3]
    assert sched.now == 3.0


def test_step_returns_false_when_empty():
    sched = Scheduler()
    assert sched.step() is False
    sched.schedule(1.0, lambda: None)
    assert sched.step() is True
    assert sched.step() is False


def test_max_events_bounds_run():
    sched = Scheduler()
    fired = []
    for i in range(10):
        sched.schedule(float(i), fired.append, i)
    sched.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_run_until_with_max_events_still_advances_time():
    # Regression: hitting max_events used to return without the promised
    # advance to `until`, so composed run(until=...) callers lost time.
    sched = Scheduler()
    fired = []
    sched.schedule(1.0, fired.append, "a")
    sched.schedule(2.0, fired.append, "b")
    sched.schedule(20.0, fired.append, "late")
    sched.run(until=10.0, max_events=2)
    assert fired == ["a", "b"]
    assert sched.now == 10.0  # nothing pending before the horizon
    sched.run(until=30.0)
    assert fired == ["a", "b", "late"]


def test_run_until_with_max_events_never_skips_pending_work():
    # When max_events truncates the run with events still pending before
    # `until`, time only advances to the next pending instant — virtual
    # time must never jump past (and later rewind for) unfired events.
    sched = Scheduler()
    fired = []
    sched.schedule(1.0, fired.append, "a")
    sched.schedule(3.0, fired.append, "b")
    sched.run(until=10.0, max_events=1)
    assert fired == ["a"]
    assert sched.now == 3.0
    sched.run(until=10.0)
    assert fired == ["a", "b"]
    assert sched.now == 10.0


def test_run_until_with_max_events_ignores_cancelled_prefix():
    sched = Scheduler()
    fired = []
    sched.schedule(1.0, fired.append, "a")
    sched.schedule(3.0, fired.append, "skipped").cancel()
    sched.run(until=10.0, max_events=1)
    assert fired == ["a"]
    assert sched.now == 10.0  # the cancelled event cannot pin the clock


def test_run_until_idle_guards_against_runaway():
    sched = Scheduler()

    def rearm() -> None:
        sched.schedule(1.0, rearm)

    sched.schedule(1.0, rearm)
    with pytest.raises(SimulationError):
        sched.run_until_idle(max_events=100)


@pytest.mark.parametrize("cancelled_tail", [0, 2])
def test_run_until_idle_that_drains_on_its_last_event_does_not_raise(cancelled_tail):
    # Only a live event left behind is an overrun; a cancelled one never fires.
    sched = Scheduler()
    fired = []
    for i in range(3):
        sched.schedule(float(i), fired.append, i)
    for i in range(cancelled_tail):
        sched.schedule(5.0 + i, fired.append, "cancelled").cancel()
    assert sched.run_until_idle(max_events=3) == 3
    assert fired == [0, 1, 2]


def test_events_processed_counter():
    sched = Scheduler()
    for i in range(5):
        sched.schedule(float(i), lambda: None)
    sched.run()
    assert sched.events_processed == 5


def test_pending_counts_heap_entries():
    sched = Scheduler()
    events = [sched.schedule(1.0, lambda: None) for _ in range(3)]
    assert sched.pending == 3
    events[0].cancel()
    assert sched.pending == 3  # cancelled events stay until popped
    sched.run()
    assert sched.pending == 0

"""Deterministic discrete-event scheduler.

This is the beating heart of the simulation substrate: a binary-heap event
queue with a monotonically increasing sequence number used as a tie breaker,
which makes runs fully deterministic for a given seed — two events scheduled
for the same instant always fire in scheduling order.

The paper evaluated DATAFLASKS inside Minha, an event-driven JVM simulator.
This module plays Minha's role for the Python reproduction (see DESIGN.md,
"substitutions").

Hot-path note: the heap stores ``(time, seq, fn, args, handle)`` tuples
rather than :class:`Event` objects, so every sift comparison is a C-level
tuple comparison instead of a Python-level ``Event.__lt__`` call — at
paper scale the scheduler performs tens of comparisons per event, making
this the single largest per-event cost (see DESIGN.md, "Performance").
``seq`` is unique, so a comparison never reaches ``fn``. The run loops
dispatch straight from the entry; ``handle`` is the :class:`Event` of an
entry whose caller holds one (:meth:`Scheduler.schedule`,
:meth:`Scheduler.schedule_at`) and ``None`` for the handle-free entries
of :meth:`Scheduler.post_many`, which nobody can cancel.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from math import inf, isfinite, isnan
from time import perf_counter
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["Event", "Scheduler"]


class Event:
    """A scheduled callback.

    Events are created through :meth:`Scheduler.schedule` /
    :meth:`Scheduler.schedule_at` and can be cancelled with
    :meth:`Scheduler.cancel` (or :meth:`cancel` directly). A cancelled event
    stays in the heap but is skipped when popped.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so it will not fire."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state}, fn={getattr(self.fn, '__name__', self.fn)!r})"


class Scheduler:
    """A deterministic event heap with virtual time.

    >>> sched = Scheduler()
    >>> fired = []
    >>> _ = sched.schedule(1.5, fired.append, "a")
    >>> _ = sched.schedule(0.5, fired.append, "b")
    >>> sched.run()
    >>> fired
    ['b', 'a']
    >>> sched.now
    1.5
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[Tuple[float, int, Callable[..., Any], tuple, Optional[Event]]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        # Opt-in wall-clock hotspot hook (repro.obs.profile): when set,
        # every fired callback is bracketed with perf_counter and
        # reported via profiler.record(fn, args, elapsed). When None
        # (the default) the run loop pays one local None-check per event.
        self.profiler = None

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events that have fired so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    # ------------------------------------------------------------- scheduling

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not 0 <= delay < inf:
            # Rejects negatives, +inf (the event would park unreachably)
            # and NaN (fails every comparison; would corrupt heap order).
            raise SimulationError(f"cannot schedule an event with delay {delay}s")
        time = self._now + delay
        seq = next(self._seq)
        event = Event(time, seq, fn, args)
        heappush(self._heap, (time, seq, fn, args, event))
        return event

    def post_many(
        self, fn: Callable[..., Any], items: Iterable[Tuple[float, tuple]]
    ) -> None:
        """``schedule(delay, fn, *args)`` for every ``(delay, args)`` of
        ``items``, in order, without the handles: same delay validation,
        one ``seq`` per entry, no :class:`Event` allocated. For fan-outs
        whose caller never cancels (:meth:`Network.multicast`)."""
        now = self._now
        heap = self._heap
        seq = self._seq
        for delay, args in items:
            if not 0 <= delay < inf:
                raise SimulationError(f"cannot schedule an event with delay {delay}s")
            heappush(heap, (now + delay, next(seq), fn, args, None))

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute virtual time ``time``."""
        if time < self._now or not isfinite(time):
            raise SimulationError(
                f"cannot schedule an event at t={time} "
                f"(current time t={self._now}; time must be finite and not in the past)"
            )
        event = Event(time, next(self._seq), fn, args)
        heappush(self._heap, (time, event.seq, fn, args, event))
        return event

    @staticmethod
    def cancel(event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        event.cancel()

    # -------------------------------------------------------------- execution

    def step(self) -> bool:
        """Fire the next non-cancelled event.

        Returns ``True`` if an event fired, ``False`` if the heap is empty.
        """
        fired = self._events_processed
        self.run(max_events=1)
        return self._events_processed != fired

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have fired.

        When ``until`` is given, virtual time is advanced to exactly
        ``until`` even if the last event fired earlier, so repeated
        ``run(until=...)`` calls compose predictably. The one exception:
        if ``max_events`` stopped the run while events are still pending
        at or before ``until``, time only advances to the next pending
        event's instant — virtual time never jumps past work that has not
        run (and therefore never rewinds when that work later fires).
        A NaN ``until`` is a :class:`SimulationError`: no event is ever
        past it, so the run would never end.
        """
        if until is not None and isnan(until):
            raise SimulationError("run(until=nan): the horizon must be a number")
        heap = self._heap
        profiler = self.profiler
        if max_events is None and profiler is None:
            # The common case, with nothing optional in the loop. Popping
            # before the horizon test and pushing the one event past it
            # back fires what the general loop fires, in the same order:
            # (time, seq) is a total order.
            limit = inf if until is None else until
            while heap:
                entry = heappop(heap)
                time, _seq, fn, args, handle = entry
                if handle is not None and handle.cancelled:
                    continue
                if time > limit:
                    heappush(heap, entry)
                    break
                self._now = time
                self._events_processed += 1
                fn(*args)
        else:
            fired = 0
            while heap:
                if max_events is not None and fired >= max_events:
                    break
                time, _seq, fn, args, handle = heap[0]
                if handle is not None and handle.cancelled:
                    heappop(heap)
                    continue
                if until is not None and time > until:
                    break
                heappop(heap)
                self._now = time
                self._events_processed += 1
                if profiler is None:
                    fn(*args)
                else:
                    t0 = perf_counter()
                    fn(*args)
                    profiler.record(fn, args, perf_counter() - t0)
                fired += 1
        if until is not None and until > self._now:
            horizon = until
            # Drop any cancelled prefix so it cannot pin the horizon.
            while heap and heap[0][4] is not None and heap[0][4].cancelled:
                heappop(heap)
            if heap and heap[0][0] < horizon:
                horizon = heap[0][0]
            if horizon > self._now:
                self._now = horizon

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Drain the heap completely; returns the number of events fired.

        ``max_events`` guards against runaway periodic timers: firing
        that many raises only if a live event is still pending.
        """
        before = self._events_processed
        self.run(max_events=max_events)
        fired = self._events_processed - before
        if fired >= max_events and any(
            handle is None or not handle.cancelled for *_, handle in self._heap
        ):
            raise SimulationError(
                f"run_until_idle exceeded {max_events} events; "
                "likely an unbounded periodic timer"
            )
        return fired

"""Call-ordered deadlines behind one timer (RFC 6298, section 5: one
retransmission timer per connection, not one per segment)."""

from __future__ import annotations

from math import inf
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.scheduler import Event

__all__ = ["DeadlineQueue"]


class DeadlineQueue:
    """Entries that each wait ``timeout`` seconds, expired by one timer.

    Every entry waits the same ``timeout``, so deadlines ascend in push
    order and the table (``key -> (deadline, value)``, in push order) has
    the earliest one at its head. At most one timer is armed, never later
    than the head's deadline; it expires every due entry in push order and
    re-arms at the new head's deadline. Removing an entry leaves the timer
    alone, which may then fire with nothing due. The timer callback is the
    owner's ``fire`` method (which calls :meth:`expire`), so profilers see
    the owner's timeouts under the owner's module.

    Every entry expires at exactly ``push_time + timeout``, the instant a
    timer per entry would have used, bit for bit. A push that arms the
    timer passes ``timeout`` itself. Re-arming happens only inside the
    timer, at ``now`` = an earlier deadline, so ``now >= timeout``; the
    new head's deadline ``d`` is a later push's, so ``now < d <= now +
    timeout <= 2 * now``. Sterbenz's lemma makes ``d - now`` exact there,
    and ``now + (d - now)`` is ``d`` again.
    """

    __slots__ = ("timeout", "_due", "_timer")

    def __init__(self, timeout: float) -> None:
        if not 0 < timeout < inf:
            # An infinite wait would surface later, as a timer the
            # scheduler refuses, and without the field's name.
            raise ConfigurationError(f"timeout must be positive and finite, got {timeout!r}")
        self.timeout = timeout
        self._due: Dict[Hashable, Tuple[float, Any]] = {}
        self._timer: Optional[Event] = None

    def __len__(self) -> int:
        return len(self._due)

    def push(self, node: Any, key: Hashable, value: Any, fire: Callable[[], None]) -> None:
        """Queue ``key`` (not already queued) until ``timeout`` from now,
        arming ``node.after(timeout, fire)`` if no timer is armed."""
        self._due[key] = (node.now + self.timeout, value)
        if self._timer is None:
            self._timer = node.after(self.timeout, fire)

    def pop(self, key: Hashable) -> Any:
        """Remove ``key``; its value, or ``None`` if it was not queued."""
        entry = self._due.pop(key, None)
        return None if entry is None else entry[1]

    def clear(self) -> None:
        """Forget every entry and cancel the timer: the owner stopped, and
        ``Node.after`` would swallow the timer while it is down."""
        self._due.clear()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def expire(self, node: Any, fire: Callable[[], None],
               on_due: Callable[[Hashable, Any], None]) -> None:
        """The body of the armed timer ``fire``: ``on_due(key, value)``
        for every due entry, in push order, then re-arm."""
        timer = self._timer
        now = node.now
        due = self._due
        try:
            while due:
                key = next(iter(due))
                deadline, value = due[key]
                if deadline > now:
                    break
                del due[key]
                on_due(key, value)
        finally:
            # A callback that stopped the node (or stopped and restarted
            # it, arming afresh) has already settled the timer.
            if self._timer is timer:
                self._timer = None
                if due:
                    self._timer = node.after(due[next(iter(due))][0] - now, fire)

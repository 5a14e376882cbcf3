"""The churn vocabulary: :class:`ChurnSpec`, a scenario's ``[churn]`` block.

It is the only churn type there is: the kind of membership change, when
it starts (seconds after the cluster is loaded and settled) and the
fields the kind reads.
:meth:`~repro.churn.controller.ChurnController.apply` draws and
schedules it. Kinds (paper Section I: "faults and churn become the rule
instead of the exception"):

* ``poisson`` — independent join/leave arrivals (``join_rate``,
  ``leave_rate``, per second) for ``duration`` seconds,
* ``session`` — constant-population turnover with ``mean_session``
  expected lifetime for ``duration`` seconds (each leave is paired with
  a join; the rate scales with the population),
* ``correlated`` — kill ``fraction`` of the alive servers at one
  instant (the paper's catastrophic rack/switch failure),
* ``flash_crowd`` — ``joins`` new nodes arriving evenly over ``over``
  seconds,
* ``trace`` — replay explicit ``events`` of ``[time, "join"|"leave"]``
  pairs (times relative to ``start``).

A spec is validated in full on construction, and a field its kind never
reads must keep its default instead of being silently ignored.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from math import inf
from typing import Any, List

from repro.errors import ConfigurationError

__all__ = ["CHURN_KINDS", "ChurnSpec"]

CHURN_KINDS = ("poisson", "session", "correlated", "flash_crowd", "trace")

# What each kind reads besides its start.
_READS = {
    "poisson": ("join_rate", "leave_rate", "duration"),
    "session": ("mean_session", "duration"),
    "correlated": ("fraction",),
    "flash_crowd": ("joins", "over"),
    "trace": ("events",),
}


@dataclass
class ChurnSpec:
    """Membership-change schedule applied during the measurement phase."""

    kind: str = "poisson"
    start: float = 0.0
    duration: float = 30.0
    join_rate: float = 0.0
    leave_rate: float = 0.0
    mean_session: float = 120.0
    fraction: float = 0.0
    joins: int = 0
    over: float = 1.0
    events: List[List[Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.kind not in CHURN_KINDS:
            raise ConfigurationError(
                f"unknown churn kind {self.kind!r}; choose from {CHURN_KINDS}"
            )
        if not self.start >= 0 or not self.duration >= 0:
            raise ConfigurationError("churn start/duration must be non-negative")
        reads = _READS[self.kind]
        for name, default in _DEFAULTS.items():
            if name not in reads and getattr(self, name) != default:
                raise ConfigurationError(
                    f"a {self.kind} churn does not read {name!r}; "
                    f"it reads {', '.join(reads)}"
                )
        if not (self.join_rate >= 0 and self.leave_rate >= 0):
            raise ConfigurationError("churn join_rate/leave_rate must be non-negative")
        if not self.mean_session > 0:
            raise ConfigurationError("churn mean_session must be positive")
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigurationError("churn fraction must be in [0, 1]")
        if self.kind == "flash_crowd" and (self.joins < 1 or not self.over > 0):
            raise ConfigurationError("flash_crowd churn needs joins >= 1 and over > 0")
        for event in self.events:
            time = event[0] if len(event) == 2 and event[1] in ("join", "leave") else None
            if type(time) not in (int, float) or not 0 <= time < inf:
                raise ConfigurationError(
                    f"malformed trace event {event!r}; events are "
                    '[time, "join"|"leave"] with a finite time >= 0'
                )


# The default of every field some kind reads, in declaration order.
_DEFAULTS = {
    f.name: f.default_factory() if f.default is MISSING else f.default
    for f in fields(ChurnSpec)
    if f.name not in ("kind", "start")
}

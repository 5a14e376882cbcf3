"""The fault vocabulary: one :class:`FaultSpec` per scheduled fault.

A :class:`FaultSpec` is one entry of a scenario's ``[[faults]]`` array
and the only fault type there is: what kind of fault, when it starts
(seconds after the fault phase begins, i.e. after load + settle), how
long it lasts (``duration``, or equivalently an absolute ``end`` instant
in spec files — rejected when it does not lie after ``start``), and who
it hits. The :class:`~repro.faults.nemesis.Nemesis` applies and reverts
it by kind; parsing/serialisation follows the same dataclass round-trip
conventions as the rest of :mod:`repro.scenarios.spec`.

Kinds (paper Section I: "faults and churn become the rule instead of
the exception"):

* ``partition`` — isolate ``fraction`` of the servers (or explicit,
  disjoint ``groups``) for ``duration`` seconds; ``symmetric = false``
  makes the cut one-way (the isolated side cannot send out but still
  hears the rest — the classic half-broken link),
* ``degrade`` — give ``fraction`` of the servers (or explicit ``nodes``)
  lossy/slow links: extra drop chance ``loss`` and/or ``extra_latency``
  seconds per message,
* ``burst_loss`` — raise global message loss by ``loss`` for the window,
* ``crash_recover`` — crash ``fraction`` of the servers (or explicit
  ``nodes``) at ``start``; they restart in place, stores retained, at
  ``start + duration``.

Every kind is validated in full on construction, so ``repro scenarios
validate`` needs nothing but parsing, and a field the kind never reads
must keep its default instead of being silently ignored.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import List

from repro.errors import ConfigurationError

__all__ = ["FAULT_KINDS", "FaultSpec"]

FAULT_KINDS = ("partition", "degrade", "burst_loss", "crash_recover")

# What each kind reads besides its window.
_READS = {
    "partition": ("fraction", "groups", "symmetric"),
    "degrade": ("fraction", "nodes", "loss", "extra_latency"),
    "burst_loss": ("loss",),
    "crash_recover": ("fraction", "nodes"),
}


@dataclass
class FaultSpec:
    """One scheduled fault in a scenario's ``[[faults]]`` schedule."""

    kind: str
    start: float = 0.0
    duration: float = 10.0
    fraction: float = 0.25
    symmetric: bool = True
    loss: float = 0.0
    extra_latency: float = 0.0
    nodes: List[int] = field(default_factory=list)
    groups: List[List[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.start < 0:
            raise ConfigurationError("fault start must be non-negative")
        if self.duration <= 0:
            raise ConfigurationError("fault duration must be positive")
        reads = _READS[self.kind]
        for name, default in _TARGET_DEFAULTS.items():
            if name not in reads and getattr(self, name) != default:
                raise ConfigurationError(
                    f"a {self.kind} fault does not read {name!r}; "
                    f"it reads {', '.join(reads)}"
                )
        seen = set()
        for group in self.groups:
            if not group:
                raise ConfigurationError(
                    "fault target groups must not be empty; drop the entry instead"
                )
            if seen.intersection(group):
                raise ConfigurationError(
                    f"nodes {sorted(seen.intersection(group))} appear in more than "
                    "one partition group; groups must be disjoint"
                )
            seen.update(group)
        if "fraction" in reads and not (self.nodes or self.groups):
            if not 0.0 < self.fraction < 1.0:
                raise ConfigurationError(f"{self.kind} fraction must be in (0, 1)")
        if self.kind == "degrade":
            if not 0.0 <= self.loss <= 1.0:
                raise ConfigurationError("degrade loss must be in [0, 1]")
            if self.extra_latency < 0:
                raise ConfigurationError("extra latency must be non-negative")
            if self.loss == 0.0 and self.extra_latency == 0.0:
                raise ConfigurationError("degrade fault needs loss and/or extra_latency")
        if self.kind == "burst_loss" and not 0.0 < self.loss <= 1.0:
            raise ConfigurationError("burst loss must be in (0, 1]")

    @property
    def end(self) -> float:
        return self.start + self.duration


# The default of every field some kind reads, in declaration order.
_TARGET_DEFAULTS = {
    f.name: f.default_factory() if f.default is MISSING else f.default
    for f in fields(FaultSpec)
    if f.name not in ("kind", "start", "duration")
}

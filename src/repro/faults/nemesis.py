"""The nemesis engine: clock-scheduled fault orchestration.

A :class:`Nemesis` takes a list of
:class:`~repro.faults.injectors.FaultInjector` and schedules every
inject/heal action on the simulation scheduler, relative to one base
instant (by default the moment :meth:`Nemesis.schedule` is called — the
scenario runner calls it right after the settle phase). It keeps the
accounting the consistency/availability metrics need: how many faults
fired, how many healed, and when the *last* heal happened (the anchor
for time-to-heal convergence measurements).

Every fault firing is also counted in the metrics registry
(``fault.injected.<kind>`` / ``fault.healed.<kind>``), so fault activity
shows up next to message accounting in ``MetricsRegistry.snapshot()``.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.faults.injectors import FaultContext, FaultInjector

__all__ = ["Nemesis"]


class Nemesis:
    """Drives a fault schedule against one simulation.

    :param sim: the simulation under attack.
    :param cluster: optional deployed
        :class:`~repro.backends.base.StoreBackend`; scopes victims to
        its servers (clients are never fault victims).
    :param controller: optional shared
        :class:`~repro.churn.controller.ChurnController` so crash-recover
        and churn injectors land in the same join/leave accounting as
        spec-level churn.
    """

    def __init__(self, sim, cluster=None, controller=None) -> None:
        self.sim = sim
        self.ctx = FaultContext(sim, cluster=cluster, controller=controller)
        self.injected = 0
        self.healed = 0
        self.last_heal_time: Optional[float] = None
        # Invoked (no args) right after every heal — the runner hangs its
        # time-to-heal convergence probe here.
        self.on_heal: Optional[Callable[[], None]] = None
        self._end_time = sim.now
        self._scheduled: List[FaultInjector] = []

    # ----------------------------------------------------------- schedule

    def schedule(self, injectors: Iterable[FaultInjector], base: Optional[float] = None) -> int:
        """Schedule all ``injectors`` relative to ``base`` (now by
        default); returns how many were scheduled. May be called more
        than once — schedules compose."""
        base = self.sim.now if base is None else base
        count = 0
        for injector in injectors:
            self.sim.scheduler.schedule_at(base + injector.start, self._inject, injector)
            if injector.needs_heal:
                self.sim.scheduler.schedule_at(base + injector.end, self._heal, injector)
            self._end_time = max(self._end_time, base + injector.end)
            self._scheduled.append(injector)
            count += 1
        return count

    @property
    def end_time(self) -> float:
        """Absolute virtual time at which the last scheduled fault ends."""
        return self._end_time

    @property
    def scheduled(self) -> List[FaultInjector]:
        return list(self._scheduled)

    # ------------------------------------------------------------- firing

    def _inject(self, injector: FaultInjector) -> None:
        injector.inject(self.ctx)
        self.injected += 1
        self.ctx.metrics.inc(f"fault.injected.{injector.kind}")

    def _heal(self, injector: FaultInjector) -> None:
        injector.heal(self.ctx)
        self.healed += 1
        self.last_heal_time = self.sim.now
        self.ctx.metrics.inc(f"fault.healed.{injector.kind}")
        if self.on_heal is not None:
            self.on_heal()

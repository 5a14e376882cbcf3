"""The nemesis engine: clock-scheduled fault orchestration.

A :class:`Nemesis` takes a list of :class:`~repro.faults.spec.FaultSpec`
and schedules every apply/revert pair on the simulation scheduler,
relative to one base instant (by default the moment
:meth:`Nemesis.schedule` is called — the scenario runner calls it right
after the settle phase), so faults interleave with protocol traffic
exactly like real outages would. It keeps the accounting the
consistency/availability metrics need: how many faults fired, how many
healed, and when the *last* heal happened (the anchor for time-to-heal
convergence measurements).

Each scheduled window owns one ``applied`` list, created at schedule
time and handed to both its events: applying a fault records there how
to undo each piece of it (a cut, a layer, a crashed server), and the
heal undoes exactly those pieces. So reused and overlapping windows
never revert — or leak — each other's state.

Determinism: victims are drawn from the dedicated ``faults`` RNG stream
over the *sorted* alive servers at injection time, never from global
:mod:`random` state — same spec + seed therefore picks the same victims
no matter what else runs in the simulation. Clients are never victims:
they model the measurement harness, not member machines.

Every fault firing is also counted in the metrics registry
(``fault.injected.<kind>`` / ``fault.healed.<kind>``), so fault activity
shows up next to message accounting in ``MetricsRegistry.snapshot()``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.faults.spec import FaultSpec

__all__ = ["Nemesis"]

# One undo step of an applied fault: a callable and its one argument.
_Undo = Tuple[Callable[[Any], Any], Any]


class Nemesis:
    """Drives a fault schedule against one deployed
    :class:`~repro.backends.base.StoreBackend`.

    :param backend: the deployment under attack; victims are drawn from
        its servers.
    :param controller: the shared
        :class:`~repro.churn.controller.ChurnController`, so crashes and
        recoveries land in the same join/leave accounting as spec-level
        churn.
    """

    def __init__(self, backend, controller) -> None:
        self.backend = backend
        self.controller = controller
        self.sim = backend.sim
        self.rng = self.sim.rng_registry.stream("faults")
        self.injected = 0
        self.healed = 0
        self.last_heal_time: Optional[float] = None
        # Invoked (no args) right after every heal — the runner hangs its
        # time-to-heal convergence probe here.
        self.on_heal: Optional[Callable[[], None]] = None
        self._end_time = self.sim.now

    # ----------------------------------------------------------- schedule

    def schedule(self, faults: Iterable[FaultSpec], base: Optional[float] = None) -> int:
        """Schedule all ``faults`` relative to ``base`` (now by default);
        returns how many were scheduled. May be called more than once —
        schedules compose, and one spec may be scheduled again."""
        base = self.sim.now if base is None else base
        count = 0
        for fault in faults:
            applied: List[_Undo] = []
            self.sim.scheduler.schedule_at(base + fault.start, self._inject, fault, applied)
            self.sim.scheduler.schedule_at(base + fault.end, self._heal, fault, applied)
            self._end_time = max(self._end_time, base + fault.end)
            count += 1
        return count

    @property
    def end_time(self) -> float:
        """Absolute virtual time at which the last scheduled fault ends."""
        return self._end_time

    # ------------------------------------------------------------- firing

    def _inject(self, fault: FaultSpec, applied: List[_Undo]) -> None:
        net = self.sim.network
        if fault.kind == "partition":
            self._partition(fault, applied)
        elif fault.kind == "degrade":
            token = net.add_conditions(
                self._pick(fault), loss=fault.loss, extra_latency=fault.extra_latency
            )
            applied.append((net.remove_conditions, token))
        elif fault.kind == "burst_loss":
            applied.append((net.remove_conditions, net.add_conditions(None, loss=fault.loss)))
        else:
            # A server already down belongs to whoever crashed it: it is
            # not claimed, so this window's heal does not revive it.
            for node_id in self._pick(fault):
                if self.controller.kill(node_id) is not None:
                    applied.append((self.controller.recover, node_id))
        self.injected += 1
        self.sim.metrics.inc(f"fault.injected.{fault.kind}")

    def _heal(self, fault: FaultSpec, applied: List[_Undo]) -> None:
        for undo, arg in applied:
            undo(arg)
        self.healed += 1
        self.last_heal_time = self.sim.now
        self.sim.metrics.inc(f"fault.healed.{fault.kind}")
        if self.on_heal is not None:
            self.on_heal()

    def _partition(self, fault: FaultSpec, applied: List[_Undo]) -> None:
        """Explicit ``groups`` are cut pairwise when symmetric; when
        asymmetric, the first group cannot send to the others. A single
        group (explicit or a ``fraction`` pick) is cut from the rest of
        the servers; with two or more groups, unmentioned nodes stay
        connected to everyone."""
        groups = fault.groups or [self._pick(fault)]
        if len(groups) == 1:
            chosen = set(groups[0])
            rest = [i for i in self._population() if i not in chosen]
            groups = [g for g in (groups[0], rest) if g]
        if len(groups) < 2:
            return
        net = self.sim.network
        if fault.symmetric:
            for i in range(len(groups)):
                for j in range(i + 1, len(groups)):
                    applied.append((net.unblock, net.block(groups[i], groups[j])))
                    applied.append((net.unblock, net.block(groups[j], groups[i])))
        else:
            others = [i for group in groups[1:] for i in group]
            applied.append((net.unblock, net.block(groups[0], others)))

    # ------------------------------------------------------------ victims

    def _population(self) -> List[int]:
        """Sorted ids of the alive servers."""
        return sorted(s.id for s in self.backend.servers if s.alive)

    def _pick(self, fault: FaultSpec) -> List[int]:
        """The victim set: the explicit ``nodes`` if given, else a random
        ``fraction`` of the alive servers (at least one)."""
        if fault.nodes:
            return list(fault.nodes)
        population = self._population()
        if not population:
            return []
        count = min(len(population), max(1, int(len(population) * fault.fraction)))
        return self.rng.sample(population, count)

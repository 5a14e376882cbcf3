"""Composable fault injectors — the nemesis vocabulary.

Each injector is a scheduled pair of actions against a running
simulation: :meth:`~FaultInjector.inject` applies the fault at
``start`` and :meth:`~FaultInjector.heal` reverts it at
``start + duration``. The :class:`~repro.faults.nemesis.Nemesis` engine
drives both off the simulation scheduler, so faults interleave with
protocol traffic exactly like real outages would.

Determinism: victims are drawn from the dedicated ``faults`` RNG stream
over the *sorted* alive population at injection time, never from global
:mod:`random` state — same spec + seed therefore picks the same victims
no matter what else runs in the simulation.

The vocabulary (paper Section I: "faults and churn become the rule
instead of the exception"):

* :class:`PartitionFault` — partial partitions with scheduled healing,
  symmetric or asymmetric (the isolated group cannot *send* across the
  cut but still hears the other side),
* :class:`DegradeFault` — per-link degradation: slow nodes (extra
  latency) and lossy links for a subset of the population,
* :class:`BurstLossFault` — a window of heavy global message loss,
* :class:`CrashRecoverFault` — nodes crash and later restart in place
  with their retained store (:meth:`ChurnController.recover`), instead
  of joining fresh,
* :class:`ChurnFault` — any :class:`~repro.churn.models.ChurnModel`
  wrapped as an injector, unifying classic churn with the nemesis
  schedule.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.churn.models import ChurnModel
from repro.errors import ConfigurationError, SimulationError

__all__ = [
    "FaultContext",
    "FaultInjector",
    "PartitionFault",
    "DegradeFault",
    "BurstLossFault",
    "CrashRecoverFault",
    "ChurnFault",
]


class FaultContext:
    """What injectors act on: the simulation, its network, and — when the
    nemesis drives a deployed :class:`~repro.backends.base.StoreBackend`
    — that cluster and a shared
    :class:`~repro.churn.controller.ChurnController`.

    Scoping mirrors churn: with a cluster, faults hit *servers* only
    (co-simulated clients model the measurement harness, never fault
    victims).
    """

    def __init__(self, sim, cluster=None, controller=None, rng: Optional[random.Random] = None) -> None:
        self.sim = sim
        self.cluster = cluster
        self.controller = controller
        self.rng = rng if rng is not None else sim.rng_registry.stream("faults")

    @property
    def network(self):
        return self.sim.network

    @property
    def metrics(self):
        return self.sim.metrics

    def population(self) -> List[int]:
        """Sorted ids of the alive fault-eligible nodes."""
        if self.cluster is not None:
            nodes = [s for s in self.cluster.servers if s.alive]
        else:
            nodes = self.sim.alive_nodes()
        return sorted(node.id for node in nodes)

    def pick(self, fraction: float, explicit: Sequence[int]) -> List[int]:
        """The victim set: ``explicit`` ids if given, else a random
        ``fraction`` of the population (at least one node)."""
        if explicit:
            return list(explicit)
        population = self.population()
        if not population:
            return []
        count = min(len(population), max(1, int(len(population) * fraction)))
        return self.rng.sample(population, count)


class FaultInjector:
    """Base class: a fault active on ``[start, start + duration)``.

    ``start`` is relative to when the schedule is handed to the nemesis
    (the runner hands it over right after the settle phase, alongside
    churn injection).

    Stateful injectors keep their revert state (block rules, condition
    tokens, victim sets) in a FIFO of *activations*: one entry pushed per
    :meth:`inject`, the oldest popped per :meth:`heal`. A single injector
    instance may therefore be scheduled for several windows (the nemesis
    composes schedules) without one window's heal reverting — or leaking
    — another's state; inject/heal pairs match FIFO because every window
    of one injector has the same duration.
    """

    kind = "fault"
    needs_heal = True

    def __init__(self, start: float = 0.0, duration: float = 10.0) -> None:
        if start < 0:
            raise ConfigurationError("fault start must be non-negative")
        if duration <= 0:
            raise ConfigurationError("fault duration must be positive")
        self.start = start
        self.duration = duration

    @property
    def end(self) -> float:
        return self.start + self.duration

    def inject(self, ctx: FaultContext) -> None:
        raise NotImplementedError

    def heal(self, ctx: FaultContext) -> None:
        """Revert the fault; default is nothing to revert."""


class PartitionFault(FaultInjector):
    """A partial network partition with scheduled healing.

    Without explicit ``groups``, a random ``fraction`` of the population
    is isolated from the rest. ``symmetric=False`` makes the cut
    one-way: the isolated group's outbound messages are dropped while
    inbound traffic still arrives (a node that hears acks and gossip but
    whose own replies vanish — the classic half-broken link).

    Explicit ``groups`` are cut pairwise when symmetric; when
    asymmetric, the first group is the isolated one. A *single* explicit
    group is isolated from the rest of the population (mirroring the
    fraction path); with two or more groups, unmentioned nodes stay
    connected to everyone.
    """

    kind = "partition"

    def __init__(
        self,
        start: float = 0.0,
        duration: float = 10.0,
        fraction: float = 0.25,
        groups: Optional[Sequence[Sequence[int]]] = None,
        symmetric: bool = True,
    ) -> None:
        super().__init__(start, duration)
        if not 0.0 < fraction < 1.0 and not groups:
            raise ConfigurationError("partition fraction must be in (0, 1)")
        self.fraction = fraction
        self.groups = [list(g) for g in groups] if groups else []
        self.symmetric = symmetric
        # FIFO of activations: one list of block-rule ids per inject.
        self._rules: List[List[int]] = []

    def inject(self, ctx: FaultContext) -> None:
        if self.groups:
            groups = [list(g) for g in self.groups if g]
        else:
            groups = [ctx.pick(self.fraction, ())]
        if len(groups) == 1:
            # One group (explicit or fraction-picked): isolate it from
            # the rest of the population.
            chosen = set(groups[0])
            rest = [i for i in ctx.population() if i not in chosen]
            groups = [g for g in (groups[0], rest) if g]
        rules: List[int] = []
        self._rules.append(rules)
        if len(groups) < 2:
            return
        net = ctx.network
        if self.symmetric:
            for i in range(len(groups)):
                for j in range(i + 1, len(groups)):
                    rules.append(net.block(groups[i], groups[j]))
                    rules.append(net.block(groups[j], groups[i]))
        else:
            others = [i for group in groups[1:] for i in group]
            rules.append(net.block(groups[0], others))

    def heal(self, ctx: FaultContext) -> None:
        for rule in self._rules.pop(0) if self._rules else ():
            ctx.network.unblock(rule)


class DegradeFault(FaultInjector):
    """Per-link degradation for a subset of nodes: extra one-way latency
    (slow nodes / latency spikes) and/or an extra independent drop chance
    (lossy links) on every link touching a victim.

    Applied as a condition *layer* (:meth:`Network.add_conditions`), so
    overlapping degrade faults whose victim sets intersect compose
    instead of clobbering each other.
    """

    kind = "degrade"

    def __init__(
        self,
        start: float = 0.0,
        duration: float = 10.0,
        fraction: float = 0.25,
        nodes: Optional[Sequence[int]] = None,
        loss: float = 0.0,
        extra_latency: float = 0.0,
    ) -> None:
        super().__init__(start, duration)
        if not 0.0 < fraction < 1.0 and not nodes:
            raise ConfigurationError("degrade fraction must be in (0, 1)")
        if not 0.0 <= loss <= 1.0:
            raise ConfigurationError("degrade loss must be in [0, 1]")
        if extra_latency < 0:
            raise ConfigurationError("extra latency must be non-negative")
        if loss == 0.0 and extra_latency == 0.0:
            raise ConfigurationError("degrade fault needs loss and/or extra_latency")
        self.fraction = fraction
        self.nodes = list(nodes) if nodes else []
        self.loss = loss
        self.extra_latency = extra_latency
        # FIFO of activations: one condition-layer token (and its victim
        # set, for observability) per inject.
        self._tokens: List[int] = []
        self._victims: List[List[int]] = []

    def inject(self, ctx: FaultContext) -> None:
        victims = ctx.pick(self.fraction, self.nodes)
        self._victims.append(victims)
        self._tokens.append(
            ctx.network.add_conditions(
                victims, loss=self.loss, extra_latency=self.extra_latency
            )
        )

    def heal(self, ctx: FaultContext) -> None:
        if self._tokens:
            ctx.network.remove_conditions(self._tokens.pop(0))
            self._victims.pop(0)


class BurstLossFault(FaultInjector):
    """A burst-loss window: global message loss jumps by ``loss`` for the
    fault's duration (combined independently with the baseline rate and
    with any other open window — concurrent bursts stack)."""

    kind = "burst_loss"

    def __init__(self, start: float = 0.0, duration: float = 10.0, loss: float = 0.5) -> None:
        super().__init__(start, duration)
        if not 0.0 < loss <= 1.0:
            raise ConfigurationError("burst loss must be in (0, 1]")
        self.loss = loss
        # FIFO of activations: one burst-window token per inject.
        self._tokens: List[int] = []

    def inject(self, ctx: FaultContext) -> None:
        self._tokens.append(ctx.network.add_burst_loss(self.loss))

    def heal(self, ctx: FaultContext) -> None:
        if self._tokens:
            ctx.network.remove_burst_loss(self._tokens.pop(0))


class CrashRecoverFault(FaultInjector):
    """Crash a set of nodes, then restart them in place at heal time.

    Recovery goes through :meth:`ChurnController.recover` when the
    context carries a controller (so recoveries appear in the churn
    accounting); the recovered node keeps its Data Store — the
    difference from a correlated failure followed by fresh joins, and
    the reason time-to-heal is about *reconciliation*, not re-replication
    from scratch.
    """

    kind = "crash_recover"

    def __init__(
        self,
        start: float = 0.0,
        duration: float = 10.0,
        fraction: float = 0.25,
        nodes: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(start, duration)
        if not 0.0 < fraction < 1.0 and not nodes:
            raise ConfigurationError("crash_recover fraction must be in (0, 1)")
        self.fraction = fraction
        self.nodes = list(nodes) if nodes else []
        # FIFO of activations: one victim set per inject. A node that is
        # already dead at inject time is never claimed, so an overlapping
        # fault's victims stay owned by (and healed with) that fault.
        self._victims: List[List[int]] = []

    def inject(self, ctx: FaultContext) -> None:
        victims: List[int] = []
        self._victims.append(victims)
        for node_id in ctx.pick(self.fraction, self.nodes):
            if ctx.controller is not None:
                node = ctx.controller.kill(node_id)
            else:
                node = ctx.sim.nodes.get(node_id)
                if node is not None and node.alive:
                    node.crash()
                else:
                    node = None
            if node is not None:
                victims.append(node_id)

    def heal(self, ctx: FaultContext) -> None:
        for node_id in self._victims.pop(0) if self._victims else ():
            if ctx.controller is not None:
                ctx.controller.recover(node_id)
            else:
                self._recover_bare(ctx, node_id)

    @staticmethod
    def _recover_bare(ctx: FaultContext, node_id: int) -> None:
        node = ctx.sim.nodes.get(node_id)
        if node is None or node.alive:
            return
        node.start()


class ChurnFault(FaultInjector):
    """Classic churn as just another injector: schedules a
    :class:`~repro.churn.models.ChurnModel`'s events over the fault's
    duration through the context's controller. Nothing to heal — the
    events themselves are the fault."""

    kind = "churn"
    needs_heal = False

    def __init__(self, model: ChurnModel, start: float = 0.0, duration: float = 10.0) -> None:
        super().__init__(start, duration)
        self.model = model

    def inject(self, ctx: FaultContext) -> None:
        if ctx.controller is None:
            raise SimulationError("ChurnFault needs a context with a ChurnController")
        ctx.controller.apply(self.model, horizon=self.duration)

"""Applying churn to a running simulation.

The :class:`ChurnController` draws a :class:`~repro.churn.spec.ChurnSpec`'s
event times and schedules them on the simulation clock. Leaves crash a
random alive node; joins build a fresh node with the deployment's node
factory and bootstrap its Peer Sampling Service from a few random alive
contacts — exactly how a real node would join via a tracker.
:meth:`ChurnController.recover` implements crash-*recover* churn: the
crashed node restarts in place with its retained Data Store and protocol
state, rather than joining fresh — the path the fault-injection
subsystem (:mod:`repro.faults`) drives.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import Callable, List, Optional

from repro.churn.spec import ChurnSpec
from repro.errors import ConfigurationError
from repro.pss.base import PeerSamplingService
from repro.sim.node import Node
from repro.sim.simulator import NodeFactory, Simulation

__all__ = ["ChurnController"]


class ChurnController:
    """Drives membership change in a :class:`~repro.sim.simulator.Simulation`.

    :param node_factory: how to build a joining node.
    :param on_join: optional callback invoked with each new node (e.g. to
        register it with a cluster object).
    :param bootstrap_degree: number of alive contacts handed to a joiner.
    :param eligible: which nodes churn may touch; defaults to every alive
        node in the simulation. Deployments with co-simulated clients
        MUST scope this to their servers — churn models machines leaving,
        not the benchmark harness killing its own measurement probe.
    """

    def __init__(
        self,
        sim: Simulation,
        node_factory: NodeFactory,
        on_join: Optional[Callable[[Node], None]] = None,
        bootstrap_degree: int = 5,
        rng: Optional[random.Random] = None,
        eligible: Optional[Callable[[], List[Node]]] = None,
    ) -> None:
        self.sim = sim
        self.node_factory = node_factory
        self.on_join = on_join
        self.bootstrap_degree = bootstrap_degree
        self.rng = rng or sim.rng_registry.stream("churn")
        self.eligible = eligible if eligible is not None else sim.alive_nodes
        self.joins = 0
        self.leaves = 0
        self.recoveries = 0

    def _population(self) -> List[Node]:
        return sorted((n for n in self.eligible() if n.alive), key=lambda n: n.id)

    # ------------------------------------------------------------ actions

    def kill(self, node_id: Optional[int] = None) -> Optional[Node]:
        """Crash a node (random alive one when ``node_id`` is ``None``)."""
        if node_id is None:
            alive = self._population()
            if not alive:
                return None
            node = self.rng.choice(alive)
        else:
            node = self.sim.nodes.get(node_id)
            if node is None or not node.alive:
                return None
        node.crash()
        self.leaves += 1
        return node

    def kill_fraction(self, fraction: float) -> List[Node]:
        """Crash a uniformly random fraction of the eligible population."""
        alive = self._population()
        count = int(len(alive) * fraction)
        victims = self.rng.sample(alive, count) if count else []
        for node in victims:
            node.crash()
            self.leaves += 1
        return victims

    def join(self) -> Optional[Node]:
        """Add and start a new node, bootstrapped from alive contacts."""
        node = self.sim.add_node(self.node_factory)
        self._start(node)
        self.joins += 1
        if self.on_join is not None:
            self.on_join(node)
        return node

    def recover(self, node_id: int) -> Optional[Node]:
        """Restart a crashed node in place — crash-*recover* churn.

        Unlike :meth:`join`, the node rejoins with its retained Data
        Store and protocol state (its store survived the crash; only
        volatile timers and network registration are rebuilt). The PSS
        is re-bootstrapped from a few alive contacts, modelling the
        tracker-assisted reconnect of a rebooting machine whose cached
        view may be entirely stale.

        Returns the node, or ``None`` if it is unknown or already alive.
        """
        node = self.sim.nodes.get(node_id)
        if node is None or node.alive:
            return None
        self._start(node)
        self.recoveries += 1
        return node

    def _start(self, node: Node) -> None:
        """Start a down node and bootstrap its PSS from up to
        ``bootstrap_degree`` random members of the population it joins."""
        alive = self._population()
        node.start()
        if alive:
            contacts = self.rng.sample(alive, min(self.bootstrap_degree, len(alive)))
            pss = node.get_service(PeerSamplingService)
            if pss is not None:
                pss.bootstrap([c.id for c in contacts])

    # ----------------------------------------------------------- schedule

    def apply(self, churn: ChurnSpec, population: int) -> float:
        """Draw ``churn``'s events and schedule them from now.

        ``population`` is the deployment's server count, which sets the
        ``session`` leave rate. A ``correlated`` failure kills its
        fraction at once. Returns the virtual time the schedule ends at.
        """
        now = self.sim.now
        if churn.kind == "correlated":
            self.kill_fraction(churn.fraction)
            return now
        rng = self.rng
        events = []
        if churn.kind == "poisson":
            horizon = churn.duration
            for rate, action in ((churn.join_rate, self.join), (churn.leave_rate, self.kill)):
                if rate > 0:
                    t = rng.expovariate(rate)
                    while t <= horizon:
                        events.append((t, action))
                        t += rng.expovariate(rate)
            events.sort(key=itemgetter(0))
        elif churn.kind == "session":
            if population <= 0:
                raise ConfigurationError("session churn needs a positive population")
            horizon = churn.duration
            rate = population / churn.mean_session
            t = rng.expovariate(rate)
            while t <= horizon:
                events += ((t, self.kill), (t, self.join))
                t += rng.expovariate(rate)
        elif churn.kind == "flash_crowd":
            horizon = churn.over
            step = churn.over / churn.joins
            events = [(i * step, self.join) for i in range(churn.joins)]
        else:  # trace
            actions = {"join": self.join, "leave": self.kill}
            events = sorted(((t, actions[kind]) for t, kind in churn.events), key=itemgetter(0))
            horizon = max((t for t, _ in events), default=0.0)
        for t, action in events:
            self.sim.scheduler.schedule_at(now + t, action)
        return now + horizon

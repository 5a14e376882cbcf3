"""Simulation orchestration.

:class:`Simulation` wires a scheduler, network, metrics registry and RNG
registry into one :class:`~repro.sim.node.SimContext`, owns the node
population, and offers the run-loop helpers the rest of the library (and
the benches) build on. :func:`relaxed_gc` is the companion for long
runs: per-event garbage is acyclic (freed by refcounting), so Python's
cyclic collector contributes nothing on the hot path except repeated
scans of the large live object graph — at 1,000+ nodes those scans can
triple wall-clock time (see DESIGN.md, "Performance").
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import SimulationError, UnknownNodeError
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import LatencyModel, Network
from repro.sim.node import Node, SimContext
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler

__all__ = ["Simulation", "relaxed_gc"]


@contextmanager
def relaxed_gc(gen0_threshold: int = 100_000) -> Iterator[None]:
    """Raise the cyclic-GC allocation trigger for the duration of a run.

    Simulation hot-path garbage — heap entries, events, messages — is
    acyclic and reclaimed immediately by reference counting; the cyclic
    collector only pays to rescan the (large, mostly permanent) live
    graph of nodes, stores and views, and with the default ``gen0=700``
    threshold it does so thousands of times per simulated run. Raising
    the threshold recovers up to ~3x wall-clock at 1,000+ nodes while
    still catching genuine cycles (dead node/service pairs) eventually.

    Thresholds are process-global, so they are restored on exit and a
    full collection sweeps up any cycles that accumulated meanwhile.
    Nesting is harmless (the inner context restores the outer's values).

    The acyclic premise is tested: ``tests/test_acyclic_garbage.py`` runs
    one spec per backend, with a fault and churn, and CI runs the same
    census over every bundled spec but ``scale-*``. With the collector
    off, ``gc.collect()`` must find nothing at the start of the collect
    phase. The Chord lookup broke the premise until its three mutually
    calling closures became one object's methods: ``dht-baseline`` left
    36,908 unreachable objects behind.
    """
    old = gc.get_threshold()
    gc.set_threshold(gen0_threshold, old[1], old[2])
    try:
        yield
    finally:
        gc.set_threshold(*old)
        gc.collect()

NodeFactory = Callable[[int, SimContext], Node]


class Simulation:
    """A complete simulated deployment.

    >>> sim = Simulation(seed=7)
    >>> nodes = sim.add_nodes(Node, 3)
    >>> sim.start_all()
    >>> sorted(sim.alive_ids()) == [n.id for n in nodes]
    True
    """

    def __init__(
        self,
        seed: int = 0,
        latency_model: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
    ) -> None:
        self.seed = seed
        self.scheduler = Scheduler()
        self.metrics = MetricsRegistry()
        self.rng_registry = RngRegistry(seed)
        self.network = Network(
            self.scheduler,
            self.rng_registry.stream("network"),
            self.metrics,
            latency_model=latency_model,
            loss_rate=loss_rate,
        )
        self.ctx = SimContext(self.scheduler, self.network, self.metrics, self.rng_registry)
        self.nodes: Dict[int, Node] = {}
        self._next_id = 0

    # ----------------------------------------------------------- population

    def allocate_id(self) -> int:
        """Reserve a fresh node id (monotonically increasing)."""
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def add_node(self, factory: NodeFactory, node_id: Optional[int] = None) -> Node:
        """Create a node via ``factory(node_id, ctx)`` and track it.

        The node is *not* started; call :meth:`Node.start` or
        :meth:`start_all`.
        """
        if node_id is None:
            node_id = self.allocate_id()
        elif node_id in self.nodes:
            raise SimulationError(f"node id {node_id} already exists")
        else:
            self._next_id = max(self._next_id, node_id + 1)
        node = factory(node_id, self.ctx)
        self.nodes[node_id] = node
        return node

    def add_nodes(self, factory: NodeFactory, count: int) -> List[Node]:
        """Create ``count`` nodes in one call."""
        return [self.add_node(factory) for _ in range(count)]

    def remove_node(self, node_id: int) -> None:
        """Stop and forget a node entirely."""
        node = self.nodes.pop(node_id, None)
        if node is None:
            raise UnknownNodeError(node_id)
        node.stop()

    def node(self, node_id: int) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def start_all(self) -> None:
        for node in self.nodes.values():
            node.start()

    def stop_all(self) -> None:
        for node in self.nodes.values():
            node.stop()

    def alive_nodes(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.alive]

    def alive_ids(self) -> List[int]:
        return [n.id for n in self.nodes.values() if n.alive]

    # ------------------------------------------------------------- running

    @property
    def now(self) -> float:
        return self.scheduler.now

    def run_until(self, time: float, max_events: Optional[int] = None) -> None:
        """Advance virtual time to ``time`` (absolute)."""
        self.scheduler.run(until=time, max_events=max_events)

    def run_for(self, duration: float) -> None:
        """Advance virtual time by ``duration`` seconds."""
        self.run_until(self.scheduler.now + duration)

    def run_until_condition(
        self,
        predicate: Callable[[], bool],
        timeout: float,
        check_interval: float = 0.5,
    ) -> bool:
        """Run until ``predicate()`` is true or ``timeout`` seconds elapse.

        Returns whether the predicate became true. The predicate is polled
        every ``check_interval`` of virtual time, which keeps the check off
        the hot event path.
        """
        deadline = self.scheduler.now + timeout
        while self.scheduler.now < deadline:
            if predicate():
                return True
            self.run_until(min(self.scheduler.now + check_interval, deadline))
        return predicate()

    # -------------------------------------------------------------- metrics

    def message_load(self) -> Dict[str, float]:
        """Per-node message load over *all* nodes ever created.

        This mirrors the paper's figures, which average over the whole
        population of the run.
        """
        return self.metrics.message_load(population=list(self.nodes))

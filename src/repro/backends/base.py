"""The storage-stack base class: one deployment, one driving surface.

A :class:`StoreBackend` *is* a deployed storage stack — its simulation,
its server and client nodes, and everything the experiment pipeline (the
scenario runner, the workload runners, the nemesis heal probe, the
benches) needs to drive and observe it. The base class owns what every
stack shares, each defined once:

* **state** — :attr:`sim`, :attr:`servers`, :attr:`clients`,
* **membership** — :meth:`directory`, :meth:`alive_servers`,
  :meth:`churn_controller`, so churn and faults work on any stack,
* **driving** — :meth:`run_op`, :meth:`put_sync`, :meth:`get_sync`
  (clients speak the :class:`~repro.core.client.PendingOp` protocol),
* **observation** — :meth:`replication_level`,
  :meth:`server_message_load`, :meth:`collect_replication`.

A stack is one subclass supplying the rest: a node factory
(:meth:`_make_server`), :meth:`new_client`, :meth:`deploy`,
:meth:`converge`, :meth:`converged` and, optionally, a
:meth:`collect_metrics` override for stack-specific metric blocks (slice
health for DATAFLASKS, ring health for the DHT) and a :meth:`check_spec`
override for spec fields only the stack can judge, so neither the runner
nor the spec validator special-cases stacks. Subclasses register under
their ``spec.stack`` name with
:func:`~repro.backends.registry.register_backend`. This module
and the registry import nothing from a stack; see DESIGN.md ("Backend
architecture") for how to add one.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Set

from repro.churn.controller import ChurnController
from repro.errors import ConfigurationError, OperationTimeoutError
from repro.sim.metrics import mean
from repro.sim.node import Node, SimContext
from repro.sim.simulator import NodeFactory, Simulation

__all__ = ["StoreBackend", "REPLICATION_SAMPLE", "round_metric"]

# How many of the loaded keys the replication metric samples; sweeping
# every key on a 5k-node run would dominate the collection cost.
REPLICATION_SAMPLE = 25


def round_metric(value: float) -> float:
    """Round for stable, readable summaries (determinism does not depend
    on this, but 17-digit floats make tables unreadable)."""
    return round(float(value), 6)


class StoreBackend(abc.ABC):
    """A deployed storage stack behind the experiment pipeline.

    :param n: number of server nodes.
    :param sim: the simulation to deploy into (created from ``seed`` if
        omitted).
    :cvar name: the registry key ``spec.stack`` resolves
        (set by :func:`~repro.backends.registry.register_backend`).
    :cvar description: one line for ``repro backends list``.
    :ivar servers: all server nodes ever deployed (alive and crashed);
        fault injectors and churn scope their victims to these.
    """

    name: str = ""
    description: str = ""

    def __init__(self, n: int, sim: Optional[Simulation] = None, seed: int = 0) -> None:
        if n <= 0:
            raise ConfigurationError("cluster size must be positive")
        self.sim = sim if sim is not None else Simulation(seed=seed)
        self.servers: List[Any] = []
        self.clients: List[Any] = []

    # --------------------------------------------------------- provisioning

    @classmethod
    def check_spec(cls, spec: Any) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` when this stack
        cannot deploy ``spec`` as written; called when a spec is built,
        so ``repro scenarios validate`` catches it. Accepts by default."""

    @classmethod
    @abc.abstractmethod
    def deploy(cls, spec: Any, sim: Simulation) -> "StoreBackend":
        """Build the stack described by ``spec`` inside ``sim``."""

    @abc.abstractmethod
    def _make_server(self, node_id: int, ctx: SimContext) -> Node:
        """The stack's one node factory: founders and churn joiners are
        both built here, so they can never be configured differently."""

    def _admit(self, node_id: int, ctx: SimContext) -> Node:
        """Build a server and track it (a ``sim.add_node`` factory)."""
        node = self._make_server(node_id, ctx)
        self.servers.append(node)
        return node

    def _found(self, n: int) -> None:
        """Add the ``n`` founding servers (not started)."""
        for _ in range(n):
            self.sim.add_node(self._admit)

    # ---------------------------------------------------------- convergence

    @abc.abstractmethod
    def converge(self, spec: Any) -> bool:
        """Run the stack's warm-up/stabilisation routine; ``True`` when
        the deployment reached its ready state within the spec's
        ``warmup``/``convergence_timeout`` budget."""

    @abc.abstractmethod
    def converged(self) -> bool:
        """Cheap instantaneous predicate: does the overlay look whole
        right now? Polled by the nemesis heal probe after every heal."""

    # ----------------------------------------------------------- membership

    def alive_servers(self) -> List[Any]:
        """The servers currently up — the population churn may touch."""
        return [s for s in self.servers if s.alive]

    def directory(self) -> List[int]:
        """Alive server ids — what a load-balancer/tracker would expose."""
        return [s.id for s in self.servers if s.alive]

    def server_factory(self) -> NodeFactory:
        """A node factory for churn joins; joiners are tracked. Stacks
        with a join protocol extend it (the DHT joins through a member)."""
        return self._admit

    def churn_controller(self, **kwargs: Any) -> ChurnController:
        """A :class:`~repro.churn.controller.ChurnController` scoped to
        this stack's *servers*.

        Clients co-simulated in the same network are never churn victims;
        they model the measurement harness, not member machines.
        """
        return ChurnController(
            self.sim, self.server_factory(), eligible=self.alive_servers, **kwargs
        )

    # ------------------------------------------------------------- clients

    @abc.abstractmethod
    def new_client(self, **kwargs: Any):
        """Create and start a client node speaking ``PendingOp``."""

    def _enroll_client(self, factory: NodeFactory):
        """The tail of every :meth:`new_client`: add, start, track."""
        client = self.sim.add_node(factory)
        client.start()
        self.clients.append(client)
        return client

    def run_op(self, op, timeout: float = 30.0):
        """Advance virtual time until ``op`` completes."""
        self.sim.run_until_condition(lambda: op.done, timeout, check_interval=0.1)
        if not op.done:
            raise OperationTimeoutError(op.kind, op.key, timeout)
        return op

    def put_sync(
        self,
        client,
        key: str,
        value: Any,
        version: int,
        acks_required: int = 1,
        timeout: float = 30.0,
    ):
        return self.run_op(client.put(key, value, version, acks_required), timeout)

    def get_sync(self, client, key: str, version: Optional[int] = None, timeout: float = 30.0):
        return self.run_op(client.get(key, version), timeout)

    # ---------------------------------------------------------- observation

    def replication_level(self, key: str, version: Optional[int] = None) -> int:
        """How many alive servers hold the object right now."""
        return sum(1 for s in self.servers if s.alive and s.holds(key, version))

    def server_message_load(self) -> Dict[str, float]:
        """Mean messages sent/received per *server* node — the paper's
        Figures 3/4 metric (clients excluded)."""
        return self.sim.metrics.message_load(population=[s.id for s in self.servers])

    def collect_metrics(self, groups: Set[str], workload: Any, metrics: Dict[str, float]) -> None:
        """Contribute stack-specific metric blocks to a scenario result.

        ``groups`` is the spec's requested metric-group set; ``workload``
        is the built :class:`~repro.workload.ycsb.CoreWorkload` (its
        ``key_for``/``record_count`` drive key sampling). Implementations
        add ``name -> float`` entries to ``metrics``; groups a stack has
        no equivalent for are skipped silently. The default contributes
        the cross-stack ``replication`` block.
        """
        self.collect_replication(groups, workload, metrics)

    def collect_replication(
        self, groups: Set[str], workload: Any, metrics: Dict[str, float]
    ) -> None:
        """The ``replication`` metric block, shared by every stack."""
        if "replication" not in groups:
            return
        sample = [
            workload.key_for(i)
            for i in range(min(workload.record_count, REPLICATION_SAMPLE))
        ]
        levels = [self.replication_level(key) for key in sample]
        metrics["replication_mean"] = round_metric(mean(levels))
        metrics["replication_min"] = float(min(levels)) if levels else 0.0
        metrics["replication_lost"] = float(sum(1 for l in levels if l == 0))

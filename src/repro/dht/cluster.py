"""The ``dht`` stack: a provisioned Chord ring plus its clients."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.backends.base import StoreBackend
from repro.backends.registry import register_backend
from repro.dht.client import DhtClient
from repro.dht.node import ChordNode, check_ring_shape
from repro.sim.node import Node, SimContext
from repro.sim.simulator import NodeFactory, Simulation

__all__ = ["DhtCluster"]

SUCCESSOR_LIST_LEN = 8  # successors a ring member keeps unless told otherwise


@register_backend("dht")
class DhtCluster(StoreBackend):
    """Chord-style DHT with successor-list replication — the paper's
    structured-overlay control group, behind the same
    :class:`~repro.backends.base.StoreBackend` surface as
    :class:`~repro.core.cluster.DataFlasksCluster` so benches can swap
    the two systems behind one workload loop."""

    description = "Chord-style DHT with R-successor replication (baseline)"

    servers: List[ChordNode]
    clients: List[DhtClient]

    def __init__(
        self,
        n: int,
        replication: int = 3,
        sim: Optional[Simulation] = None,
        seed: int = 0,
        successor_list_len: int = SUCCESSOR_LIST_LEN,
    ) -> None:
        super().__init__(n, sim, seed)
        self.replication = replication
        self.successor_list_len = successor_list_len
        self._found(n)
        for node in self.servers:
            node.start()
        self._provision_ring()

    @classmethod
    def check_spec(cls, spec: Any) -> None:
        check_ring_shape(spec.replication, SUCCESSOR_LIST_LEN)

    @classmethod
    def deploy(cls, spec: Any, sim: Simulation) -> "DhtCluster":
        return cls(n=spec.nodes, replication=spec.replication, sim=sim)

    def _make_server(self, node_id: int, ctx: SimContext) -> Node:
        return ChordNode(
            node_id,
            ctx,
            replication=self.replication,
            successor_list_len=self.successor_list_len,
        )

    def _provision_ring(self) -> None:
        """Initial ring pointers from the deployment manifest.

        A provisioned DHT starts from correct successor/predecessor
        pointers (operators boot it from a known member list); dynamic
        :meth:`ChordNode.join` is reserved for churn-time joiners. This
        also puts the baseline at its best — the paper's argument is that
        structured overlays degrade *under churn*, not at boot.
        """
        ring = sorted(self.servers, key=lambda s: s.pos)
        refs = [node.ref() for node in ring]  # one tuple per node, shared
        n = len(ring)
        for index, node in enumerate(ring):
            # Only the successor_list_len peers a node keeps: O(N * L).
            node.successors = [
                refs[(index + j) % n] for j in range(1, min(n, node.successor_list_len + 1))
            ] or [refs[index]]
            node.predecessor = refs[(index - 1) % n]

    # -------------------------------------------------------------- helpers

    def server_factory(self) -> NodeFactory:
        """Factory for churn joins: the node joins through a live member."""

        def factory(node_id: int, ctx: SimContext) -> Node:
            node = self._admit(node_id, ctx)
            alive = [s for s in self.servers if s.alive and s.id != node_id]
            if alive:
                node.after(0.1, node.join, alive[0].id)
            return node

        return factory

    def new_client(self, timeout: float = 5.0, retries: int = 2) -> DhtClient:
        def factory(node_id: int, ctx: SimContext) -> Node:
            return DhtClient(node_id, ctx, self.directory, timeout=timeout, retries=retries)

        return self._enroll_client(factory)

    def stabilize(self, duration: float = 20.0) -> None:
        """Let stabilisation and finger repair settle the ring."""
        self.sim.run_for(duration)

    def ring_is_consistent(self) -> bool:
        """Do successor pointers form one cycle over all alive nodes?"""
        alive = {s.id: s for s in self.servers if s.alive}
        if not alive:
            return False
        start = min(alive)
        seen = set()
        current = start
        while current not in seen:
            seen.add(current)
            node = alive.get(current)
            if node is None:
                return False
            current = node.successor[1]
        return current == start and seen == set(alive)

    def converge(self, spec: Any) -> bool:
        self.stabilize(spec.warmup)
        return self.converged()

    def converged(self) -> bool:
        """Successor pointers form one cycle over all alive nodes."""
        return self.ring_is_consistent()

    def collect_metrics(self, groups: Set[str], workload: Any, metrics: Dict[str, float]) -> None:
        if "population" in groups:
            # Ring health: the structured-overlay analogue of slice health.
            metrics["ring_consistent"] = float(self.ring_is_consistent())
        self.collect_replication(groups, workload, metrics)

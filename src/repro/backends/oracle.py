"""The ``oracle`` stack: an idealized centralized replicated store.

The registry's proof of extensibility, and — more usefully — a
**ground-truth consistency baseline** for the fault scenarios. The
oracle models a store with magic replication: every server is a front
end to one shared :class:`~repro.core.store.VersionedStore`, so a write
acknowledged by *any* server is instantly visible at *every* server, a
crashed server "retains" the full dataset by construction, and a joiner
is up to date the moment it boots. What stays real is the network:
clients reach servers over the same simulated links as every other
stack, so partitions, loss windows, latency spikes and crashes still
cost *availability* (requests time out and retry), but can never cost
*consistency*.

That split is the point. Run the same workload and fault schedule
against ``core``/``dht`` and against ``oracle``: stale reads and lost
updates on the oracle arm are zero by construction, so anything the real
stacks report in the PR-2 consistency metrics is protocol-induced, while
the oracle's failed-request/unavailability numbers isolate the share of
damage any store must pay just for living on a wounded network
(the "vs-ideal" scenario family; see ``oracle-baseline`` /
``oracle-fault-wave`` and ``benchmarks/bench_backend_comparison.py``).

Deliberate idealisations, for honest reading of results:

* replication is free and instantaneous (shared state, no replica
  traffic, no anti-entropy) — per-node message loads are *not*
  comparable with real stacks, only client-observed metrics are;
* ``acks_required`` is satisfied by one ack: a single server ack already
  means full replication;
* ``replication_level`` equals the alive-server count for any stored
  key — the ideal every real stack's replication is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.backends.base import StoreBackend
from repro.backends.registry import register_backend
from repro.core.client import PUT, Client, PendingOp
from repro.core.store import MemoryStore, VersionedStore
from repro.sim.node import Node, SimContext
from repro.sim.simulator import Simulation

__all__ = ["OracleNode", "OracleClient", "OracleCluster"]

ReqId = tuple


# ------------------------------------------------------------------ messages


@dataclass(frozen=True)
class OraclePut:
    key: str
    version: int
    value: Any
    req_id: ReqId


@dataclass(frozen=True)
class OraclePutAck:
    req_id: ReqId
    ok: bool


@dataclass(frozen=True)
class OracleGet:
    key: str
    version: Optional[int]
    req_id: ReqId


@dataclass(frozen=True)
class OracleGetReply:
    req_id: ReqId
    found: bool
    value: Any
    version: Optional[int]


# ------------------------------------------------------------------- servers


class OracleNode(Node):
    """A front end to the shared store: serves puts/gets over the
    simulated network, holds no private state worth losing."""

    def __init__(self, node_id: int, ctx: SimContext, store: VersionedStore) -> None:
        super().__init__(node_id, ctx)
        self.store = store
        self.register_handler(OraclePut, self._on_put)
        self.register_handler(OracleGet, self._on_get)

    def holds(self, key: str, version: Optional[int] = None) -> bool:
        return self.alive and self.store.get(key, version) is not None

    def _on_put(self, msg: OraclePut, src: int) -> None:
        self.store.put(msg.key, msg.version, msg.value)
        self.metrics.inc("oracle.server.put")
        self.send(src, OraclePutAck(req_id=msg.req_id, ok=True))

    def _on_get(self, msg: OracleGet, src: int) -> None:
        obj = self.store.get(msg.key, msg.version)
        self.metrics.inc("oracle.server.get")
        self.send(
            src,
            OracleGetReply(
                req_id=msg.req_id,
                found=obj is not None,
                value=obj.value if obj is not None else None,
                version=obj.version if obj is not None else None,
            ),
        )


# ------------------------------------------------------------------- clients


class OracleClient(Client):
    """put/get against any alive oracle server, with the same
    :class:`~repro.core.client.Client` ops, timeouts and retries as the
    DATAFLASKS and DHT clients."""

    metric_prefix = "oracle.client"

    def __init__(
        self,
        node_id: int,
        ctx: SimContext,
        directory: Callable[[], List[int]],
        timeout: float = 5.0,
        retries: int = 2,
    ) -> None:
        super().__init__(node_id, ctx, timeout, retries, directory)
        self.register_handler(OraclePutAck, self._on_put_ack)
        self.register_handler(OracleGetReply, self._on_get_reply)

    def put(self, key: str, value: Any, version: int, acks_required: int = 1) -> PendingOp:
        """Store through any server; one ack is full replication, so
        ``acks_required`` is accepted for API parity and satisfied by 1."""
        return super().put(key, value, version, 1)

    def _issue(self, op: PendingOp, contact: int) -> None:
        if op.kind == PUT:
            assert op.version is not None
            self.send(contact, OraclePut(op.key, op.version, op.value_to_put, op.req_id))
        else:
            self.send(contact, OracleGet(op.key, op.version, op.req_id))
        self._await_reply(op, contact)

    def _on_put_ack(self, msg: OraclePutAck, src: int) -> None:
        op = self._live_op(msg.req_id)
        if op is not None:
            op.replies += 1
            op.acks.add(src)
            self._succeed(op)

    def _on_get_reply(self, msg: OracleGetReply, src: int) -> None:
        op = self._live_op(msg.req_id)
        if op is None:
            return
        op.replies += 1
        if not msg.found:
            # The shared store is the ground truth: a miss is a real miss,
            # not a replica that has yet to catch up. Fail fast so reads
            # of never-written keys do not burn the retry budget.
            self._fail(op, "key not found")
            return
        op.value = msg.value
        op.result_version = msg.version
        self._succeed(op)


# ------------------------------------------------------------------- cluster


@register_backend("oracle")
class OracleCluster(StoreBackend):
    """Idealized centralized replicated store — the vs-ideal baseline.

    :param n: number of server front ends.
    :param sim: the simulation to deploy into (created if omitted).
    :param store: the shared store (a fresh unbounded
        :class:`~repro.core.store.MemoryStore` by default).
    """

    description = "idealized centralized replicated store (ground-truth baseline)"

    servers: List[OracleNode]
    clients: List[OracleClient]

    def __init__(
        self,
        n: int,
        sim: Optional[Simulation] = None,
        seed: int = 0,
        store: Optional[VersionedStore] = None,
    ) -> None:
        super().__init__(n, sim, seed)
        self.store = store if store is not None else MemoryStore()
        self._found(n)
        for server in self.servers:
            server.start()

    @classmethod
    def deploy(cls, spec: Any, sim: Simulation) -> "OracleCluster":
        return cls(n=spec.nodes, sim=sim)

    def _make_server(self, node_id: int, ctx: SimContext) -> Node:
        # Every server, joiners included, fronts the one shared store, so
        # a joiner is fully caught up the moment it starts (ideal state
        # transfer).
        return OracleNode(node_id, ctx, store=self.store)

    def new_client(self, timeout: float = 5.0, retries: int = 2) -> OracleClient:
        def factory(node_id: int, ctx: SimContext) -> Node:
            return OracleClient(node_id, ctx, self.directory, timeout=timeout, retries=retries)

        return self._enroll_client(factory)

    def converge(self, spec: Any) -> bool:
        # Nothing to stabilise; burn the same warm-up budget as the real
        # stacks so phase timelines stay comparable across backends.
        self.sim.run_for(spec.warmup)
        return self.converged()

    def converged(self) -> bool:
        """The oracle is whole as soon as any server is reachable-alive:
        there is no overlay to reconverge, which is exactly what makes
        its time-to-heal the floor every real stack is measured against."""
        return bool(self.directory())

    def replication_level(self, key: str, version: Optional[int] = None) -> int:
        # One lookup suffices: every alive server fronts the same store.
        if self.store.get(key, version) is None:
            return 0
        return len(self.directory())

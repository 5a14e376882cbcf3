"""Client for the Chord DHT baseline.

Mirrors the DATAFLASKS client API (:class:`~repro.core.client.PendingOp`
results, timeouts, retries) so the churn-resilience bench can drive both
systems with identical workload code. The client performs the iterative
lookup itself, then talks to the key's owner (falling back to the
replica list a fetch miss returns).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.core.client import PUT, Client, PendingOp
from repro.dht.node import RingRef, iterative_lookup
from repro.dht.ring import key_position
from repro.dht.rpc import RpcService
from repro.sim.node import SimContext

__all__ = ["DhtClient"]


class DhtClient(Client):
    """put/get against a Chord ring through any contact node.

    An op has no deadline of its own: every RPC of its lookup-then-fetch
    chain times out in :class:`~repro.dht.rpc.RpcService`, and a failed
    chain retries the op through a fresh contact.
    """

    metric_prefix = "dht.client"
    give_up = "failed"

    def __init__(
        self,
        node_id: int,
        ctx: SimContext,
        directory: Callable[[], List[int]],
        timeout: float = 5.0,
        retries: int = 2,
    ) -> None:
        super().__init__(node_id, ctx, timeout, retries, directory)
        self.rpc = RpcService(timeout=timeout)
        self.add_service(self.rpc)

    def _issue(self, op: PendingOp, contact: int) -> None:
        """Look up the key's owner through ``contact``, then store at it
        (put) or fetch along its replica chain (get)."""

        def resolved(owner: Optional[RingRef]) -> None:
            if op.done:
                return
            if owner is None:
                self._retry(op, "lookup failed")
            elif op.kind == PUT:
                self._send_store(op, owner)
            else:
                self._fetch_chain(op, [owner[1]], set())

        iterative_lookup(self, self.rpc, contact, key_position(op.key), resolved)

    # ----------------------------------------------------------------- put

    def _send_store(self, op: PendingOp, owner: RingRef) -> None:
        def stored(ok: bool, result: Any) -> None:
            if op.done:
                return
            if ok and result:
                op.acks.add(owner[1])
                self._succeed(op)
            else:
                self._retry(op, "store rejected or timed out")

        self.rpc.call(
            owner[1],
            "store_replicated",
            (op.key, op.version, op.value_to_put),
            on_reply=stored,
        )

    # ----------------------------------------------------------------- get

    def _fetch_chain(self, op: PendingOp, candidates: List[int], tried: set) -> None:
        if op.done:
            return
        while candidates and candidates[0] in tried:
            candidates.pop(0)
        if not candidates:
            self._retry(op, "object not found on any replica")
            return
        target = candidates.pop(0)
        tried.add(target)

        def fetched(ok: bool, result: Any) -> None:
            if op.done:
                return
            if ok and result is not None and result[0]:
                _found, version, value, _replicas = result
                op.value = value
                op.result_version = version
                op.replies += 1
                self._succeed(op)
                return
            more: List[int] = list(candidates)
            if ok and result is not None:
                replicas = result[3]
                more.extend(ref[1] for ref in replicas if ref[1] not in tried)
            self._fetch_chain(op, more, tried)

        self.rpc.call(target, "fetch", (op.key, op.version), on_reply=fetched)

"""Chord-style DHT key-value node — the structured baseline.

The paper's introduction argues that DHT-based tuple-stores "assume
moderately stable environments" and degrade when "faults and churn
become the rule". This module implements that comparator: a Chord ring
(Stoica et al.) with successor lists, finger tables, periodic
stabilisation, and successor-list replication, carrying the same
versioned put/get API as DATAFLASKS so bench A4 can compare them under
identical churn.

Routing is *iterative*: the querier repeatedly asks ``route_step`` until
an owner is found (handlers stay synchronous); a ring member answers its
own first step in-process, so a finger fix that step settles needs no
lookup at all. Replication: the key's owner stores and pushes copies to
its ``replication - 1`` successors; a periodic repair round re-pushes
owned keys so replicas follow ring membership.

Known, documented simplification: no key handoff on *join* (a joiner
acquires data through the owners' repair rounds rather than an explicit
transfer), which matches the repair-based recovery DATAFLASKS uses and
keeps the comparison symmetric.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Any, Callable, List, Optional, Tuple

from repro.core.store import MemoryStore, VersionedStore
from repro.dht.ring import (
    RING_BITS,
    RING_SIZE,
    finger_target,
    in_interval,
    node_position,
    key_position,
)
from repro.dht.rpc import RpcService
from repro.errors import ConfigurationError
from repro.sim.node import Node, SimContext

__all__ = ["ChordNode", "check_ring_shape", "iterative_lookup", "RingRef"]

RingRef = Tuple[int, int]  # (position, node id)

# route_step outcomes
OWNER = "owner"
NEXT = "next"


def iterative_lookup(
    node: Node,
    rpc: RpcService,
    start: int,
    target: int,
    callback: Callable[[Optional[RingRef]], None],
    max_hops: int = 3 * RING_BITS,
    hop_counter: Optional[List[int]] = None,
    hops: int = 0,
) -> None:
    """Drive an iterative Chord lookup from any node (server or client).

    Asks ``start`` for a route step and follows ``next`` referrals until
    an ``owner`` is returned. When ``hop_counter`` is given the number of
    route steps taken is appended to it (used by tests and the hop-count
    diagnostics).

    ``callback(None)`` reports a failed lookup: a step that timed out, a
    ``route_step`` that raised, or hop exhaustion. Nothing detects a
    routing loop; a loop runs until hop exhaustion, which gives up rather
    than ask another step once more than ``max_hops`` steps have been
    taken. ``hop_counter`` gets the steps that answered: a failed step is
    not counted.

    A step at ``node`` itself — the first one of every lookup a ring
    member starts — runs ``route_step`` in-process through
    :meth:`RpcService.invoke`, as Chord's ``find_successor`` does, and
    counts as a hop like any other: no node ever sends itself a message.
    ``hops`` is the number of steps already taken before ``start`` (a
    caller that stepped in-process and follows the referral passes 1).
    """
    _Lookup(node, rpc, target, callback, max_hops, hop_counter, hops).step(start)


class _Lookup:
    """One lookup's state, whose methods take its steps.

    A remote step's ``on_reply`` is the bound :meth:`advance`. It refers
    to the lookup, and nothing the lookup holds refers back, so a lookup
    is no reference cycle: reference counting frees it once it finishes
    (see :func:`repro.sim.simulator.relaxed_gc`). Steps written as
    closures that call one another would leave a cycle per lookup.
    """

    __slots__ = ("node", "rpc", "target", "callback", "max_hops", "hop_counter", "hops")

    def __init__(self, node: Node, rpc: RpcService, target: int,
                 callback: Callable[[Optional[RingRef]], None], max_hops: int,
                 hop_counter: Optional[List[int]], hops: int) -> None:
        self.node = node
        self.rpc = rpc
        self.target = target
        self.callback = callback
        self.max_hops = max_hops
        self.hop_counter = hop_counter
        self.hops = hops  # steps taken so far

    def step(self, current: int) -> None:
        """Ask ``current`` for the next route step."""
        if self.hops > self.max_hops:
            self.finish(None)
        elif current == self.node.id:
            ok, result = self.rpc.invoke("route_step", (self.target,), current)
            self.advance(ok, result)
        else:
            self.rpc.call(current, "route_step", (self.target,), on_reply=self.advance)

    def advance(self, ok: bool, result: Any) -> None:
        """Take a step's answer: finish at an owner, or follow the referral."""
        if not ok or result is None:
            self.finish(None)
            return
        kind, ref = result
        self.hops += 1
        if kind == OWNER:
            self.finish(tuple(ref))
        else:
            self.step(ref[1])

    def finish(self, owner: Optional[RingRef]) -> None:
        if self.hop_counter is not None:
            self.hop_counter.append(self.hops)
        self.callback(owner)


def check_ring_shape(replication: int, successor_list_len: int, fingers_per_round: int = 1) -> None:
    """Reject a ring shape that cannot hold its own replicas: the owner
    keeps one copy and pushes the others to its successor list, so
    ``replication`` must lie in ``1 .. successor_list_len + 1``."""
    if successor_list_len < 1:
        raise ConfigurationError(f"successor_list_len must be at least 1, got {successor_list_len}")
    if fingers_per_round < 1:
        raise ConfigurationError(f"fingers_per_round must be at least 1, got {fingers_per_round}")
    if not 1 <= replication <= successor_list_len + 1:
        raise ConfigurationError(
            f"replication must be in 1..{successor_list_len + 1} (the owner plus its "
            f"successor_list_len = {successor_list_len} successors), got {replication}"
        )


class ChordNode(Node):
    """One ring member with a versioned local store."""

    def __init__(
        self,
        node_id: int,
        ctx: SimContext,
        replication: int = 3,
        successor_list_len: int = 4,
        stabilize_period: float = 1.0,
        repair_period: float = 4.0,
        fingers_per_round: int = 4,
        store: Optional[VersionedStore] = None,
    ) -> None:
        check_ring_shape(replication, successor_list_len, fingers_per_round)
        super().__init__(node_id, ctx)
        self.pos = node_position(node_id)
        self.replication = replication
        self.successor_list_len = successor_list_len
        self.stabilize_period = stabilize_period
        self.repair_period = repair_period
        self.fingers_per_round = fingers_per_round
        self.store = store if store is not None else MemoryStore()
        self.successors: List[RingRef] = [(self.pos, self.id)]  # [0] = successor
        self.predecessor: Optional[RingRef] = None
        # fingers[i] is the owner of pos + 2^i, or None while unknown.
        self.fingers: List[Optional[RingRef]] = [None] * RING_BITS
        self._next_finger = 0
        # The routing table _closest_preceding bisects: (successors, pos,
        # offsets, refs) -- the distinct clockwise offsets from ``pos``,
        # ascending, and the ref at each, for the ``successors`` list and
        # ``pos`` it was built from. _set_finger drops it on a change.
        self._table: Optional[Tuple[List[RingRef], int, List[int], List[RingRef]]] = None
        self.rpc = RpcService()
        self.add_service(self.rpc)
        for method, handler in (
            ("route_step", self._rpc_route_step),
            ("get_neighbors", self._rpc_get_neighbors),
            ("notify", self._rpc_notify),
            ("ping", self._rpc_ping),
            ("store", self._rpc_store),
            ("store_replicated", self._rpc_store_replicated),
            ("fetch", self._rpc_fetch),
        ):
            self.rpc.register(method, handler)

    # ----------------------------------------------------------- lifecycle

    def on_start(self) -> None:
        self.every(self.stabilize_period, self._stabilize)
        self.every(self.stabilize_period, self._check_predecessor)
        self.every(self.stabilize_period, self._fix_fingers)
        self.every(self.repair_period, self._repair)

    def join(self, contact: int) -> None:
        """Join the ring known to ``contact``."""
        iterative_lookup(self, self.rpc, contact, self.pos, self._joined)

    def _joined(self, owner: Optional[RingRef]) -> None:
        if owner is not None and owner[1] != self.id:
            self.successors = [owner]

    # --------------------------------------------------------------- refs

    def ref(self) -> RingRef:
        return (self.pos, self.id)

    def holds(self, key: str, version: Optional[int] = None) -> bool:
        """Whether the local store has the object — the facade's way to
        count replicas without reaching into another node's store."""
        return self.store.get(key, version) is not None

    @property
    def successor(self) -> RingRef:
        return self.successors[0] if self.successors else self.ref()

    def _alive_filter(self, refs: List[RingRef]) -> List[RingRef]:
        seen = set()
        out = []
        for ref in refs:
            if ref[1] != self.id and ref[1] not in seen:
                seen.add(ref[1])
                out.append(tuple(ref))
        return out

    # ------------------------------------------------------------- routing

    def _closest_preceding(self, target: int) -> RingRef:
        """The known peer closest before ``target``, clockwise from here.

        A candidate qualifies when its clockwise offset from this node
        lies in ``(0, span)``, with a ``span`` of 0 meaning the full ring
        (:func:`in_interval`'s convention); the first candidate with the
        largest offset wins. One bisect over the routing table.
        """
        table = self._table
        if table is None or table[0] is not self.successors or table[1] != self.pos:
            table = self._build_table()
        index = bisect_left(table[2], (target - self.pos) % RING_SIZE or RING_SIZE)
        return table[3][index - 1] if index else self.successor

    def _build_table(self) -> tuple:
        """Sort the distinct nonzero offsets of the fingers then
        ``successors``, keeping the first ref seen at each. A ref's offset
        never changes, and successor lists are replaced, never mutated,
        so the table stands until a finger changes or the list or ``pos``
        is replaced."""
        origin = self.pos
        first: dict = {}
        for ref in itertools.chain(self.fingers, self.successors):
            if ref is not None:
                offset = (ref[0] - origin) % RING_SIZE
                if offset and offset not in first:
                    first[offset] = tuple(ref)
        offsets = sorted(first)
        self._table = (self.successors, origin, offsets, [first[offset] for offset in offsets])
        return self._table

    def _rpc_route_step(self, args: tuple, src: int):
        """Answer ``OWNER`` or refer to the ``NEXT`` peer, comparing
        clockwise offsets from this node: the target is ours when it lies
        in ``(predecessor, self]``, the successor's in ``(self,
        successor]``, and an end at offset 0 makes that the full ring."""
        (target,) = args
        pos = self.pos
        offset = (target - pos) % RING_SIZE
        if not offset:
            return (OWNER, self.ref())
        pred = self.predecessor
        if pred is not None and offset > (pred[0] - pos) % RING_SIZE:
            return (OWNER, self.ref())
        succ = self.successor
        if succ[1] == self.id:
            return (OWNER, self.ref())  # single-node ring
        succ_offset = (succ[0] - pos) % RING_SIZE
        if offset <= succ_offset or not succ_offset:
            return (OWNER, succ)
        nxt = self._closest_preceding(target)
        if nxt[1] == self.id:
            return (OWNER, self.ref())
        return (NEXT, nxt)

    # -------------------------------------------------------- stabilization

    def _stabilize(self) -> None:
        succ = self.successor
        if succ[1] == self.id:
            return
        self.rpc.call(succ[1], "get_neighbors", (), on_reply=self._on_neighbors)

    def _on_neighbors(self, ok: bool, result: Any) -> None:
        if not ok:
            # Successor unresponsive: promote the next live candidate.
            self.metrics.inc("dht.successor_failover", node=self.id)
            if len(self.successors) > 1:
                self.successors = self.successors[1:]
            else:
                self.successors = [self.ref()]
            return
        pred, succ_list = result
        succ = self.successor
        if pred is not None and in_interval(pred[0], self.pos, succ[0]):
            succ = tuple(pred)
        chain = [succ] + [tuple(r) for r in succ_list]
        successors = self._alive_filter(chain)[: self.successor_list_len] or [self.ref()]
        if successors != self.successors:  # an equal list keeps the routing table
            self.successors = successors
        self.rpc.call(self.successor[1], "notify", (self.ref(),))

    def _rpc_get_neighbors(self, args: tuple, src: int):
        # A snapshot: the reply must not share this node's live list.
        return (self.predecessor, tuple(self.successors))

    def _rpc_notify(self, args: tuple, src: int):
        (candidate,) = args
        candidate = tuple(candidate)
        if candidate[1] == self.id:
            return False
        if self.predecessor is None or in_interval(
            candidate[0], self.predecessor[0], self.pos
        ):
            self.predecessor = candidate
        return True

    def _rpc_ping(self, args: tuple, src: int):
        return "pong"

    def _check_predecessor(self) -> None:
        """Clear a dead predecessor so stabilisation stops re-adopting it."""
        if self.predecessor is None:
            return
        pred = self.predecessor

        def answered(ok: bool, result) -> None:
            if not ok and self.predecessor == pred:
                self.predecessor = None
                self.metrics.inc("dht.predecessor_cleared", node=self.id)

        self.rpc.call(pred[1], "ping", (), on_reply=answered)

    def _fix_fingers(self) -> None:
        """Refresh the next ``fingers_per_round`` fingers. Each target's
        first route step runs here, in-process, exactly as
        :func:`iterative_lookup` would run it; only a ``NEXT`` referral
        starts a network lookup, from the referral at hop 1."""
        for _ in range(self.fingers_per_round):
            index = self._next_finger
            self._next_finger = (index + 1) % RING_BITS
            target = finger_target(self.pos, index)
            ok, result = self.rpc.invoke("route_step", (target,), self.id)
            if not ok:  # the handler raised: as a failed lookup
                self._set_finger(index, None)
            elif result[0] == OWNER:
                self._set_finger(index, tuple(result[1]))
            else:
                iterative_lookup(
                    self,
                    self.rpc,
                    result[1][1],
                    target,
                    lambda owner, i=index: self._set_finger(i, owner),
                    hops=1,
                )

    def _set_finger(self, index: int, owner: Optional[RingRef]) -> None:
        if owner is not None and owner[1] == self.id:
            return
        if self.fingers[index] != owner:
            self.fingers[index] = owner
            self._table = None

    # ------------------------------------------------------------- storage

    def _owns(self, position: int) -> bool:
        if self.predecessor is None:
            return True  # best effort before the ring settles
        return in_interval(position, self.predecessor[0], self.pos, inclusive_end=True)

    def _rpc_store(self, args: tuple, src: int):
        key, version, value = args
        return self.store.put(key, version, value)

    def _rpc_store_replicated(self, args: tuple, src: int):
        key, version, value = args
        self.store.put(key, version, value)
        for ref in self.successors[: self.replication - 1]:
            if ref[1] != self.id:
                self.rpc.call(ref[1], "store", (key, version, value))
        return True

    def _rpc_fetch(self, args: tuple, src: int):
        key, version = args
        obj = self.store.get(key, version)
        replicas = tuple(self.successors[: self.replication - 1])
        if obj is None:
            return (False, None, None, replicas)
        return (True, obj.version, obj.value, replicas)

    def _repair(self) -> None:
        """Re-push owned keys to the current successor set."""
        for key in self.store.keys():
            if not self._owns(key_position(key)):
                continue
            for version in self.store.versions(key):
                obj = self.store.get(key, version)
                if obj is None:
                    continue
                for ref in self.successors[: self.replication - 1]:
                    if ref[1] != self.id:
                        self.rpc.call(ref[1], "store", (obj.key, obj.version, obj.value))

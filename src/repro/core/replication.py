"""Anti-entropy replication maintenance (Section VII, implemented).

The paper lists "maintaining replication level in face of churn or
faults" and "efficient state transfer when a node joins a slice" as open
challenges. This service addresses both with the standard epidemic
answer — push-pull anti-entropy inside the slice:

* Periodically pick a random slice-mate (from the intra-slice view) and
  send it our store digest, filtered to keys owned by the current slice.
* The peer answers with the objects we miss (*push*) and the digest
  entries it misses (*pull*); a final message carries the pulled items.
* A node that just joined a slice starts with an empty relevant digest,
  so the very same exchange doubles as **state transfer**.
* Objects whose key maps to a *different* slice (because this node
  migrated after storing them) are **re-homed**: handed as a put request
  to the owning slice's contact (a member the slice view last heard
  from), which stores it and spreads it inside its slice. With no contact
  known, or when the handoff is still unacked at the next round, the put
  is flooded through the whole system instead. Without re-homing such
  objects would be stranded — invisible to the slice's anti-entropy and
  lost if their lone holder dies.
* Optionally (``gc_foreign_data``), a re-homed object is deleted once a
  member of the owning slice acknowledges it (a safe handoff), and any
  remaining foreign objects are garbage-collected after a grace period —
  the capacity/slack trade-off Section VII discusses.

Convergence: with slice size ``s``, every object reaches all replicas in
``O(log s)`` expected rounds — the classic push-pull epidemic bound.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from repro.core.config import DataFlasksConfig
from repro.core.keyspace import slice_for_key
from repro.core.messages import PutAck, PutRequest, SyncDigest, SyncItems, SyncResponse
from repro.core.sliceview import SliceViewService
from repro.core.store import VersionedStore
from repro.errors import CapacityExceededError
from repro.gossip.antientropy import missing_from
from repro.pss.base import PeerSamplingService
from repro.sim.node import Service
from repro.slicing.base import SlicingService

__all__ = ["AntiEntropyService"]


class AntiEntropyService(Service):
    """Intra-slice push-pull reconciliation."""

    name = "anti-entropy"

    REHOME_BATCH = 4  # foreign objects re-injected per anti-entropy round

    def __init__(self, store: VersionedStore, config: DataFlasksConfig) -> None:
        super().__init__()
        self.store = store
        self.config = config
        self.rounds = 0
        self._gc_pending_since: Optional[float] = None
        self._rehome_seq = itertools.count()
        # (key, version) -> req_id of the in-flight re-home put, and the
        # reverse index its acks are looked up in (one flood is acked by
        # every member of the owning slice).
        self._rehoming: Dict[Tuple[str, int], Tuple[int, int]] = {}
        self._rehoming_by_req: Dict[Tuple[int, int], Tuple[str, int]] = {}
        # req_id -> (slice, contact, request) of each targeted handoff
        # not acked yet; the next round floods whatever is still here.
        self._handoffs: Dict[Tuple[int, int], Tuple[int, int, PutRequest]] = {}
        # Handoffs already acknowledged; never re-injected again (unless
        # gc deleted the local copy, in which case the entry is moot).
        self._rehomed_done: set = set()

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        node = self.node
        assert node is not None
        node.register_handler(SyncDigest, self._on_digest)
        node.register_handler(SyncResponse, self._on_response)
        node.register_handler(SyncItems, self._on_items)
        node.register_handler(PutAck, self._on_rehome_ack)
        node.every(self.config.antientropy_period, self._round)
        slicing = node.get_service(SlicingService)
        if slicing is not None:
            slicing.on_slice_change(self._on_slice_change)

    def stop(self) -> None:
        node = self.node
        assert node is not None
        node.unregister_handler(SyncDigest)
        node.unregister_handler(SyncResponse)
        node.unregister_handler(SyncItems)
        node.unregister_handler(PutAck)

    # ------------------------------------------------------------- helpers

    def _my_slice(self) -> Optional[int]:
        node = self.node
        assert node is not None
        slicing = node.get_service(SlicingService)
        if slicing is None:
            return None
        return slicing.my_slice()

    def _owned_digest(self, my_slice: int) -> frozenset:
        """Digest restricted to keys my current slice is responsible for."""
        return frozenset(
            (key, version)
            for key, version in self.store.digest()
            if slice_for_key(key, self.config.num_slices) == my_slice
        )

    def _store_items(self, items: Tuple[Tuple[str, int, object], ...]) -> int:
        node = self.node
        assert node is not None
        stored = 0
        for key, version, value in items:
            try:
                if self.store.put(key, version, value):
                    stored += 1
            except CapacityExceededError:
                node.metrics.inc("df.ae.rejected", node=node.id)
                break
        if stored:
            node.metrics.inc("df.ae.repaired", node=node.id, by=stored)
        return stored

    # --------------------------------------------------------------- rounds

    def _round(self) -> None:
        node = self.node
        assert node is not None
        my_slice = self._my_slice()
        if my_slice is None:
            return
        self._rehome_foreign(my_slice)
        self._maybe_gc(my_slice)
        slice_view = node.get_service(SliceViewService)
        if slice_view is None:
            return
        peer = slice_view.random_peer()
        if peer is None:
            return
        self.rounds += 1
        node.send(peer, SyncDigest(my_slice, self._owned_digest(my_slice)))

    def _on_digest(self, msg: SyncDigest, src: int) -> None:
        node = self.node
        assert node is not None
        my_slice = self._my_slice()
        if my_slice is None or my_slice != msg.slice_id:
            return  # sliced apart since the sender learnt about us
        mine = self._owned_digest(my_slice)
        they_miss = missing_from(msg.digest, mine)
        i_miss = missing_from(mine, msg.digest)
        push = tuple(
            (obj.key, obj.version, obj.value)
            for key, version in sorted(they_miss)
            for obj in (self.store.get(key, version),)
            if obj is not None
        )
        node.send(src, SyncResponse(my_slice, push=push, pull=tuple(sorted(i_miss))))

    def _on_response(self, msg: SyncResponse, src: int) -> None:
        node = self.node
        assert node is not None
        my_slice = self._my_slice()
        if my_slice is None or my_slice != msg.slice_id:
            return
        self._store_items(msg.push)
        if msg.pull:
            items = tuple(
                (obj.key, obj.version, obj.value)
                for key, version in msg.pull
                for obj in (self.store.get(key, version),)
                if obj is not None
            )
            if items:
                node.send(src, SyncItems(my_slice, items))

    def _on_items(self, msg: SyncItems, src: int) -> None:
        if self._my_slice() == msg.slice_id:
            self._store_items(msg.items)

    # ------------------------------------------------------------- re-home

    def _rehome_foreign(self, my_slice: int) -> None:
        """Hand stranded foreign objects to the slices that own them.

        An object whose key maps to another slice (we migrated since
        storing it) goes out as a put request with this node as the
        "client": to the owning slice's contact when the slice view knows
        one, as a system-wide flood otherwise. Members of the owning slice
        store it, ack and spread it inside the slice; the first ack
        completes the handoff. A handoff still unacked one round later
        went to a stale contact (or was lost): the contact is forgotten
        and the same request is flooded as attempt 2.
        """
        node = self.node
        assert node is not None
        pss = node.get_service(PeerSamplingService)
        slice_view = node.get_service(SliceViewService)
        if pss is None or slice_view is None:
            return
        first_hop = min(3, self.config.effective_fanout)
        for target, contact, sent in self._handoffs.values():
            slice_view.forget_contact(target, contact)
            retry = PutRequest(
                sent.key, sent.version, sent.value, sent.req_id, 2, node.id, sent.ttl
            )
            node.multicast(pss.sample(first_hop), retry)
        self._handoffs.clear()
        started = 0
        for key, version in sorted(self.store.digest()):
            if started >= self.REHOME_BATCH:
                break
            target = slice_for_key(key, self.config.num_slices)
            if target == my_slice:
                continue
            if (key, version) in self._rehoming or (key, version) in self._rehomed_done:
                continue
            obj = self.store.get(key, version)
            if obj is None:
                continue
            req_id = (node.id, next(self._rehome_seq))
            self._rehoming[(key, version)] = req_id
            self._rehoming_by_req[req_id] = (key, version)
            contact = slice_view.contact(target)
            request = PutRequest(
                key=key,
                version=version,
                value=obj.value,
                req_id=req_id,
                attempt=1,
                client_id=node.id,
                ttl=self.config.ttl,
                handoff=contact is not None,
            )
            if contact is None:
                node.multicast(pss.sample(first_hop), request)
            else:
                node.send(contact, request)
                self._handoffs[req_id] = (target, contact, request)
            started += 1
            node.metrics.inc("df.ae.rehomed", node=node.id)

    def reset_rehoming(self) -> None:
        """Forget handoff history — call after ``num_slices`` changes.

        A reconfiguration remaps every key, so objects previously handed
        off may need re-homing again under the new mapping, and every
        contact was learnt under the old one.
        """
        self._rehoming.clear()
        self._rehoming_by_req.clear()
        self._handoffs.clear()
        self._rehomed_done.clear()
        node = self.node
        assert node is not None
        slice_view = node.get_service(SliceViewService)
        if slice_view is not None:
            slice_view.clear_contacts()

    def _on_rehome_ack(self, msg: PutAck, src: int) -> None:
        """A member of the owning slice confirmed a re-homed object."""
        node = self.node
        assert node is not None
        slice_view = node.get_service(SliceViewService)
        if slice_view is not None and msg.responder_slice is not None:
            slice_view.note_contact(msg.responder_slice, src)
        entry = self._rehoming_by_req.pop(msg.req_id, None)
        if entry is None:
            return  # stale ack for a handoff already settled
        self._handoffs.pop(msg.req_id, None)
        del self._rehoming[entry]
        self._rehomed_done.add(entry)
        if self.config.gc_foreign_data:
            # Safe handoff: the owning slice has the object, drop our copy.
            key, version = entry
            if self.store.delete(key, version):
                node = self.node
                assert node is not None
                node.metrics.inc("df.ae.gc", node=node.id)

    # ------------------------------------------------------------------ gc

    def _on_slice_change(self, old: int, new: int) -> None:
        """Remember when we changed slice; GC of foreign data waits a grace
        period of a few anti-entropy rounds so slack replicas survive brief
        slice flapping."""
        node = self.node
        assert node is not None
        self._gc_pending_since = node.now

    def _maybe_gc(self, my_slice: int) -> None:
        if not self.config.gc_foreign_data or self._gc_pending_since is None:
            return
        node = self.node
        assert node is not None
        grace = 3 * self.config.antientropy_period
        if node.now - self._gc_pending_since < grace:
            return
        self._gc_pending_since = None
        removed = 0
        for key in self.store.keys():
            if slice_for_key(key, self.config.num_slices) != my_slice:
                removed += self.store.delete(key)
        if removed:
            node.metrics.inc("df.ae.gc", node=node.id, by=removed)

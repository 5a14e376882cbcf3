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
  migrated after storing them) are **re-homed** by the same exchange
  run across slices: each round the node *offers* the owning slice's
  contact (a member the slice view last heard from) the digest of those
  objects; the contact answers with the entries its slice lacks, and
  only those objects are sent. Entries the contact already held are
  *confirmed* and never offered again. With no contact known the node
  waits a round; an offer still unanswered at the next round went to a
  stale contact, which is forgotten. Without re-homing such objects
  would be stranded — invisible to the slice's anti-entropy and lost if
  their lone holder dies.
* Optionally (``gc_foreign_data``), a confirmed object is deleted (the
  owning slice holds it), and any remaining foreign objects are
  garbage-collected after a grace period — the capacity/slack trade-off
  Section VII discusses.

Metrics written (per node): ``df.ae.repaired`` (objects stored from an
exchange), ``df.ae.rejected``, ``df.ae.rehomed`` (objects sent to an
owning slice that lacked them) and ``df.ae.gc``.

Convergence: with slice size ``s``, every object reaches all replicas in
``O(log s)`` expected rounds — the classic push-pull epidemic bound.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.core.config import DataFlasksConfig
from repro.core.keyspace import slice_for_key
from repro.core.messages import SyncDigest, SyncItems, SyncResponse
from repro.core.sliceview import SliceViewService
from repro.core.store import VersionedStore
from repro.errors import CapacityExceededError
from repro.sim.node import Service
from repro.slicing.base import SlicingService

__all__ = ["AntiEntropyService"]


class AntiEntropyService(Service):
    """Intra-slice push-pull reconciliation."""

    name = "anti-entropy"

    def __init__(self, store: VersionedStore, config: DataFlasksConfig) -> None:
        super().__init__()
        self.store = store
        self.config = config
        self.rounds = 0
        self._gc_pending_since: Optional[float] = None
        # slice -> (contact, offered entries) of this round's offers; an
        # answer removes its slice, the next round forgets the contacts
        # of whatever is left.
        self._offers: Dict[int, Tuple[int, frozenset]] = {}
        # Stranded entries the owning slice is known to hold, never
        # offered again. With ``gc_foreign_data`` they are deleted instead.
        self._confirmed: Set[Tuple[str, int]] = set()

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        node = self.node
        assert node is not None
        node.register_handler(SyncDigest, self._on_digest)
        node.register_handler(SyncResponse, self._on_response)
        node.register_handler(SyncItems, self._on_items)
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
        slice_view = node.get_service(SliceViewService)
        if slice_view is None:
            return
        self._offer_foreign(my_slice, slice_view)
        self._maybe_gc(my_slice)
        peer = slice_view.random_peer()
        if peer is None:
            return
        self.rounds += 1
        node.send(peer, SyncDigest(my_slice, self._owned_digest(my_slice)))

    def _on_digest(self, msg: SyncDigest, src: int) -> None:
        """Answer a slice-mate's opener, or a re-homing server's offer:
        an offer gets the entries this slice lacks and nothing pushed."""
        node = self.node
        assert node is not None
        my_slice = self._my_slice()
        if my_slice is None or my_slice != msg.slice_id:
            return  # sliced apart since the sender learnt about us
        mine = self._owned_digest(my_slice)
        push = () if msg.offer else tuple(
            (obj.key, obj.version, obj.value)
            for key, version in sorted(mine - msg.digest)
            for obj in (self.store.get(key, version),)
            if obj is not None
        )
        node.send(src, SyncResponse(my_slice, push=push, pull=tuple(sorted(msg.digest - mine))))

    def _on_response(self, msg: SyncResponse, src: int) -> None:
        node = self.node
        assert node is not None
        my_slice = self._my_slice()
        if my_slice is None:
            return
        if my_slice == msg.slice_id:
            self._store_items(msg.push)
        elif not self._answered(msg, src):
            return
        if msg.pull:
            items = tuple(
                (obj.key, obj.version, obj.value)
                for key, version in msg.pull
                for obj in (self.store.get(key, version),)
                if obj is not None
            )
            if items:
                node.send(src, SyncItems(msg.slice_id, items))
                if my_slice != msg.slice_id:
                    node.metrics.inc("df.ae.rehomed", node=node.id, by=len(items))

    def _on_items(self, msg: SyncItems, src: int) -> None:
        if self._my_slice() == msg.slice_id:
            self._store_items(msg.items)

    # ------------------------------------------------------------- re-home

    def _offer_foreign(self, my_slice: int, slice_view: SliceViewService) -> None:
        """Offer each owning slice the digest of the objects stranded here.

        Stranded: the key maps to another slice (we migrated since
        storing it) and the owning slice is not known to hold it. One
        offer per slice goes to its contact; a slice without one waits a
        round. An offer of the previous round still unanswered went to a
        stale contact (or was lost): that contact is forgotten first.
        """
        node = self.node
        assert node is not None
        for target, (contact, _) in self._offers.items():
            slice_view.forget_contact(target, contact)
        self._offers.clear()
        stranded: Dict[int, Set[Tuple[str, int]]] = {}
        for key in self.store.keys():
            target = slice_for_key(key, self.config.num_slices)
            if target == my_slice:
                continue
            entries = {(key, version) for version in self.store.versions(key)}
            entries -= self._confirmed
            if entries:
                stranded.setdefault(target, set()).update(entries)
        for target in sorted(stranded):
            contact = slice_view.contact(target)
            if contact is not None:
                offered = frozenset(stranded[target])
                self._offers[target] = (contact, offered)
                node.send(contact, SyncDigest(target, offered, offer=True))

    def _answered(self, msg: SyncResponse, src: int) -> bool:
        """Settle this round's offer to ``msg.slice_id`` if ``src`` is the
        contact it went to: what the contact did not pull, its slice
        holds. False for a response that answers no pending offer."""
        offer = self._offers.get(msg.slice_id)
        if offer is None or offer[0] != src:
            return False  # late, or not an answer to an offer at all
        del self._offers[msg.slice_id]
        node = self.node
        assert node is not None
        slice_view = node.get_service(SliceViewService)
        if slice_view is not None:
            slice_view.note_contact(msg.slice_id, src)
        held = offer[1].difference(msg.pull)
        if not self.config.gc_foreign_data:
            self._confirmed |= held
            return True
        # The owning slice holds them: our copies are slack.
        removed = sum(self.store.delete(key, version) for key, version in held)
        if removed:
            node.metrics.inc("df.ae.gc", node=node.id, by=removed)
        return True

    def reset_rehoming(self) -> None:
        """Forget re-homing history — call after ``num_slices`` changes.

        A reconfiguration remaps every key, so objects previously
        confirmed may need re-homing again under the new mapping, and
        every contact was learnt under the old one.
        """
        self._offers.clear()
        self._confirmed.clear()
        node = self.node
        assert node is not None
        slice_view = node.get_service(SliceViewService)
        if slice_view is not None:
            slice_view.clear_contacts()

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

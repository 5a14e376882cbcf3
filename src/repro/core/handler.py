"""The Request Handler service (paper Section V).

"The request Handler is responsible for dealing with requests made to the
node. It knows to which slice the node belongs to from the Slice Manager
and stores and retrieves correspondent data to and from the Data Store."

Routing logic (Section IV-B, including its optimisation):

* Every request carries a dissemination id; a node processes each id once
  (infect-and-die flooding with deduplication).
* A node **outside** the target slice merely relays: forward to
  ``fanout`` random global-PSS peers, TTL permitting.
* A node **inside** the target slice acts — stores the object / serves
  the read, replies to the client — and keeps disseminating **only
  intra-slice**, through the slice view, so the object reaches every
  replica without re-flooding the whole system.

Metrics written (per node): ``df.put.stored``, ``df.put.duplicate``,
``df.put.rejected``, ``df.get.hit``, ``df.get.miss``, ``df.fwd.global``,
``df.fwd.slice``, ``df.dedup.dropped``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.core.config import DataFlasksConfig
from repro.core.keyspace import slice_for_key
from repro.core.messages import GetReply, GetRequest, PutAck, PutRequest
from repro.core.sliceview import SliceViewService
from repro.core.store import VersionedStore
from repro.errors import CapacityExceededError
from repro.gossip.dissemination import ReplayWindow
from repro.pss.base import PeerSamplingService
from repro.sim.node import Service
from repro.slicing.base import SlicingService

__all__ = ["RequestHandler", "INTRA_SLICE_FANOUT"]

# Relay fanout once a request is inside its target slice: slice views are
# small, so a smaller fanout floods a slice reliably.
INTRA_SLICE_FANOUT = 3


def _once_per_id(handle: Callable[["RequestHandler", Any, int], None]):
    """Run a request handler once per dissemination id ``(origin, seq,
    attempt)``; count and drop every other copy."""

    def on_request(self: "RequestHandler", msg: Any, src: int) -> None:
        # Five deliveries in six are copies of an attempt this node has
        # already relayed: they are decided here, on the window's own
        # bytes, without a Python call or an allocation. Whatever this
        # read cannot decide — a first sighting, a new origin, an id
        # below the window, a malformed one — is ``ReplayWindow.seen``'s.
        origin, seq = msg.req_id
        attempt = msg.attempt
        seen = self._seen
        try:
            window = seen[origin]
            i = seq - window.base
            duplicate = i >= 0 and window[i] >> attempt & 1
        except (LookupError, TypeError, ValueError):
            duplicate = False
        if duplicate or seen.seen(origin, seq, attempt):
            slots = self._dropped
            if slots is None:
                slots = self._dropped_slots()
            slots[None] = slots.get(None, 0.0) + 1.0
        else:
            handle(self, msg, src)

    return on_request


class RequestHandler(Service):
    """Epidemic request processing for one DATAFLASKS node."""

    name = "request-handler"

    def __init__(self, store: VersionedStore, config: DataFlasksConfig) -> None:
        super().__init__()
        self.store = store
        self.config = config
        self._seen = ReplayWindow()
        # The live ``df.dedup.dropped`` slots, fetched by the first
        # duplicate (as ``inc`` would create them), so a run without
        # duplicates reports no such counter.
        self._dropped: Optional[Dict[Optional[int], float]] = None

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        node = self.node
        assert node is not None
        node.register_handler(PutRequest, self._on_put)
        node.register_handler(GetRequest, self._on_get)

    def stop(self) -> None:
        node = self.node
        assert node is not None
        node.unregister_handler(PutRequest)
        node.unregister_handler(GetRequest)

    # ------------------------------------------------------------- helpers

    def _dropped_slots(self) -> Dict[Optional[int], float]:
        assert self.node is not None
        slots = self._dropped = self.node.metrics.counter("df.dedup.dropped")
        return slots

    def _my_slice(self) -> Optional[int]:
        node = self.node
        assert node is not None
        slicing = node.get_service(SlicingService)
        assert slicing is not None, "RequestHandler requires a SlicingService"
        return slicing.my_slice()

    def _forward(self, msg, *, intra_slice: bool) -> None:
        """Relay a request with a decremented TTL."""
        node = self.node
        assert node is not None
        if msg.ttl <= 0:
            node.metrics.inc("df.ttl.expired")
            return
        relay = _with_ttl(msg, msg.ttl - 1)
        if intra_slice:
            slice_view = node.get_service(SliceViewService)
            if slice_view is None:
                return
            targets = slice_view.sample(INTRA_SLICE_FANOUT)
            counter = "df.fwd.slice"
        else:
            pss = node.get_service(PeerSamplingService)
            assert pss is not None, "RequestHandler requires a PeerSamplingService"
            targets = pss.sample(self.config.effective_fanout)
            counter = "df.fwd.global"
        if not targets:
            return
        node.multicast(targets, relay)
        node.metrics.inc(counter, node=node.id, by=len(targets))

    # ----------------------------------------------------------------- put

    @_once_per_id
    def _on_put(self, msg: PutRequest, src: int) -> None:
        node = self.node
        assert node is not None
        my_slice = self._my_slice()
        target_slice = slice_for_key(msg.key, self.config.num_slices)
        if my_slice is None or my_slice != target_slice:
            # Not ours (or slice unknown yet): keep the epidemic going.
            self._forward(msg, intra_slice=False)
            return
        # Local decision: this node is responsible for the object.
        stored = self._store_object(msg)
        if stored is not None:
            node.send(
                msg.client_id,
                PutAck(msg.key, msg.version, msg.req_id, responder_slice=my_slice),
            )
        # Spread to the rest of the slice (replication), never re-flood
        # globally from inside the slice.
        self._forward(msg, intra_slice=True)

    def _store_object(self, msg: PutRequest) -> Optional[bool]:
        """Store; returns True/False for new/duplicate, None if rejected."""
        node = self.node
        assert node is not None
        try:
            fresh = self.store.put(msg.key, msg.version, msg.value)
        except CapacityExceededError:
            node.metrics.inc("df.put.rejected", node=node.id)
            return None
        counter = "df.put.stored" if fresh else "df.put.duplicate"
        node.metrics.inc(counter, node=node.id)
        return fresh

    # ----------------------------------------------------------------- get

    @_once_per_id
    def _on_get(self, msg: GetRequest, src: int) -> None:
        node = self.node
        assert node is not None
        # The paper's requirement is that "a read request must reach at
        # least one node holding the target item" — ANY holder answers,
        # even one that migrated out of the object's slice since storing
        # it (its copy is valid until re-homing hands it over).
        obj = self.store.get(msg.key, msg.version)
        my_slice = self._my_slice()
        target_slice = slice_for_key(msg.key, self.config.num_slices)
        if obj is not None:
            node.metrics.inc("df.get.hit", node=node.id)
            node.send(
                msg.client_id,
                GetReply(
                    key=obj.key,
                    version=obj.version,
                    value=obj.value,
                    found=True,
                    req_id=msg.req_id,
                    # Only advertise slice membership the client's load
                    # balancer can rely on: a holder outside the target
                    # slice must not be cached as a slice member.
                    responder_slice=my_slice if my_slice == target_slice else None,
                ),
            )
            # Found: no need to keep disseminating on this branch.
            return
        if my_slice is None or my_slice != target_slice:
            self._forward(msg, intra_slice=False)
            return
        # In the right slice but this replica lacks the object (capacity,
        # anti-entropy lag, or a read racing its write): try slice-mates.
        node.metrics.inc("df.get.miss", node=node.id)
        self._forward(msg, intra_slice=True)


def _with_ttl(msg, ttl: int):
    """A copy of a request dataclass with a new TTL (frozen dataclasses)."""
    if isinstance(msg, PutRequest):
        return PutRequest(
            msg.key, msg.version, msg.value, msg.req_id, msg.attempt, msg.client_id, ttl
        )
    if isinstance(msg, GetRequest):
        return GetRequest(
            msg.key, msg.version, msg.req_id, msg.attempt, msg.client_id, ttl
        )
    raise TypeError(f"not a relayable request: {type(msg).__name__}")

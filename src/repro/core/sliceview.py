"""Intra-slice peer sampling.

Section IV-B: "Following the ideas described in [17], we consider a Peer
Sampling Service intra-slice. Once a request reaches a node in its target
slice, dissemination is done only to nodes of that slice."

The :class:`SliceViewService` maintains that intra-slice view: each round
a node advertises ``(my slice, me + sample of my slice view)`` to a few
random *global* PSS peers and to a couple of known slice-mates. Receivers
that believe they are in the advertised slice merge the entries. Ages
bound how long departed or re-sliced nodes linger; changing slice resets
the view.

Adverts of *other* slices are not wasted: the sender of the latest one
becomes that slice's **contact**, the member a re-homing server offers
its stranded objects to (one entry per slice, so the table is bounded by
``num_slices``, not by the system size). A contact that answers an offer
is noted again; one that leaves an offer unanswered is forgotten.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.messages import SliceAdvert
from repro.pss.base import PeerSamplingService
from repro.pss.view import PartialView
from repro.sim.node import Service
from repro.slicing.base import SlicingService

__all__ = ["SliceViewService"]


class SliceViewService(Service):
    """Continuously discovered membership of the node's own slice."""

    name = "slice-view"

    def __init__(
        self,
        view_size: int = 16,
        period: float = 1.0,
        advert_fanout: int = 3,
        max_age: int = 10,
    ) -> None:
        super().__init__()
        self.view = PartialView(view_size)
        self.period = period
        self.advert_fanout = advert_fanout
        self.max_age = max_age
        # slice -> a node last seen claiming membership of it.
        self._contacts: Dict[int, int] = {}

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        node = self.node
        assert node is not None
        node.register_handler(SliceAdvert, self._on_advert)
        node.every(self.period, self._round)
        slicing = node.get_service(SlicingService)
        if slicing is not None:
            slicing.on_slice_change(self._on_slice_change)

    def stop(self) -> None:
        node = self.node
        assert node is not None
        node.unregister_handler(SliceAdvert)

    # -------------------------------------------------------------- queries

    def _my_slice(self) -> Optional[int]:
        node = self.node
        assert node is not None
        slicing = node.get_service(SlicingService)
        if slicing is None:
            return None
        return slicing.my_slice()

    def slice_peers(self) -> List[int]:
        """Known alive-ish members of my slice (never includes self)."""
        return self.view.ids()

    def sample(self, count: int) -> List[int]:
        node = self.node
        assert node is not None
        return self.view.sample_ids(node.rng, count)

    def random_peer(self) -> Optional[int]:
        node = self.node
        assert node is not None
        return self.view.random_id(node.rng)

    # ------------------------------------------------------------- contacts

    def contact(self, slice_id: int) -> Optional[int]:
        """The known member of ``slice_id``, if any."""
        return self._contacts.get(slice_id)

    def note_contact(self, slice_id: int, node_id: int) -> None:
        """Remember ``node_id`` as a member of ``slice_id``."""
        node = self.node
        assert node is not None
        slicing = node.get_service(SlicingService)
        if slicing is not None and 0 <= slice_id < slicing.num_slices:
            self._contacts[slice_id] = node_id

    def forget_contact(self, slice_id: int, node_id: int) -> None:
        """Drop ``node_id`` as ``slice_id``'s contact (if it still is)."""
        if self._contacts.get(slice_id) == node_id:
            del self._contacts[slice_id]

    def clear_contacts(self) -> None:
        self._contacts.clear()

    # --------------------------------------------------------------- rounds

    def _round(self) -> None:
        node = self.node
        assert node is not None
        my_slice = self._my_slice()
        if my_slice is None:
            return
        self.view.increase_ages()
        self.view.drop_older_than(self.max_age)
        members: Tuple[Tuple[int, int], ...] = tuple(
            [(node.id, 0)]
            + [(d.node_id, d.age) for d in self.view.sample_descriptors(node.rng, 3)]
        )
        advert = SliceAdvert(my_slice, members)
        pss = node.get_service(PeerSamplingService)
        targets: List[int] = []
        if pss is not None:
            targets.extend(pss.sample(self.advert_fanout))
        # Also gossip directly with slice-mates so the slice's membership
        # knowledge mixes transitively.
        targets.extend(self.sample(2))
        node.multicast(dict.fromkeys(targets), advert)  # dedupe, keep order

    def _on_advert(self, msg: SliceAdvert, src: int) -> None:
        node = self.node
        assert node is not None
        if msg.slice_id != self._my_slice():
            self.note_contact(msg.slice_id, src)
            return
        for node_id, age in msg.members:
            if node_id != node.id:
                self.view.add_entry(node_id, age)

    def _on_slice_change(self, old: int, new: int) -> None:
        """Joining a new slice: stale intra-slice contacts are useless."""
        self.view = PartialView(self.view.capacity)

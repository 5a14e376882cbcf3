"""Ordered slicing (Jelasity & Kermarrec, P2P 2006) — paper reference [13].

Every node draws a uniform random value ``x ∈ [0, 1)``. Periodically a
node gossips with a random PSS peer; if their (attribute, random-value)
pairs are *disordered* — the node with the smaller attribute holds the
larger ``x`` — they swap the ``x`` values. Pairwise swaps progressively
sort the random values by attribute, so each node's ``x`` converges to
its normalised rank and ``slice = floor(x * k)``.

The swap is a two-message exchange guarded against concurrent proposals:
a node that has a proposal in flight rejects incoming ones for that round
(rejection is just a reply carrying no swap), which keeps the multiset of
``x`` values a permutation — the protocol's key invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pss.base import PeerSamplingService
from repro.slicing.base import SlicingService

__all__ = ["OrderedSlicing", "SwapProposal", "SwapReply"]


@dataclass(frozen=True)
class SwapProposal:
    """Initiator's (attribute, node_id, x) triple."""

    attribute: float
    node_id: int
    x: float


@dataclass(frozen=True)
class SwapReply:
    """Responder's answer; ``swapped`` tells the initiator to adopt ``x``."""

    swapped: bool
    x: float


def _disordered(attr_a: tuple, x_a: float, attr_b: tuple, x_b: float) -> bool:
    """True when the pair violates the target order (needs a swap)."""
    if attr_a == attr_b:
        return False
    if attr_a < attr_b:
        return x_a > x_b
    return x_a < x_b


class OrderedSlicing(SlicingService):
    """Jelasity–Kermarrec ordered slicing as a node service.

    :param period: seconds between swap attempts.
    """

    name = "ordered-slicing"

    def __init__(self, num_slices: int, attribute: float, period: float = 1.0) -> None:
        super().__init__(num_slices, attribute)
        self.period = period
        self.x: float = 0.0
        self._awaiting_reply = False
        self.swaps = 0

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        node = self.node
        assert node is not None
        self.x = node.rng.random()
        node.register_handler(SwapProposal, self._on_proposal)
        node.register_handler(SwapReply, self._on_reply)
        node.every(self.period, self._round)
        self._set_slice(self._slice_from_fraction(self.x))

    def stop(self) -> None:
        node = self.node
        assert node is not None
        node.unregister_handler(SwapProposal)
        node.unregister_handler(SwapReply)

    # -------------------------------------------------------------- rounds

    def _pss(self) -> PeerSamplingService:
        node = self.node
        assert node is not None
        pss = node.get_service(PeerSamplingService)
        assert pss is not None, "OrderedSlicing requires a PeerSamplingService"
        return pss

    def _round(self) -> None:
        node = self.node
        assert node is not None
        self._awaiting_reply = False  # clear a lost-reply lock each round
        peer = self._pss().random_peer()
        if peer is None:
            return
        self._awaiting_reply = True
        node.send(peer, SwapProposal(self.attribute, node.id, self.x))

    def _on_proposal(self, msg: SwapProposal, src: int) -> None:
        node = self.node
        assert node is not None
        if self._awaiting_reply:
            # A swap of ours is in flight; refuse to avoid duplicating x's.
            node.send(src, SwapReply(swapped=False, x=0.0))
            return
        their_key = (msg.attribute, msg.node_id)
        if _disordered(self.sort_key(), self.x, their_key, msg.x):
            my_old_x = self.x
            self._adopt(msg.x)
            node.send(src, SwapReply(swapped=True, x=my_old_x))
        else:
            node.send(src, SwapReply(swapped=False, x=0.0))

    def _on_reply(self, msg: SwapReply, src: int) -> None:
        self._awaiting_reply = False
        if msg.swapped:
            self._adopt(msg.x)

    # ------------------------------------------------------------- updates

    def _adopt(self, x: float) -> None:
        self.x = x
        self.swaps += 1
        self._set_slice(self._slice_from_fraction(self.x))

    def _recompute(self) -> None:
        self._set_slice(self._slice_from_fraction(self.x))

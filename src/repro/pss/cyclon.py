"""Cyclon: inexpensive membership management for unstructured overlays.

Implements the enhanced shuffle of Voulgaris, Gavidia & van Steen (JNSM
2005), the Peer Sampling Service the paper cites as reference [9]:

1. Each period, increase the age of all neighbours and pick the *oldest*
   neighbour ``Q``.
2. Select ``shuffle_length - 1`` other random neighbours, add a fresh
   descriptor of ourselves, and send the batch to ``Q``.
3. ``Q`` replies with a random batch of its own neighbours and merges our
   batch, preferring received entries over the ones it sent.
4. On receiving the reply, merge symmetrically; the entry for ``Q`` was
   discarded in step 2 (it is being refreshed by the exchange itself).

Shuffling with the oldest neighbour bounds how long a dead node can linger
in views, which is what gives Cyclon its churn resilience.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError
from repro.pss.base import PeerSamplingService
from repro.pss.view import NodeDescriptor

__all__ = ["CyclonService", "ShuffleRequest", "ShuffleReply"]


@dataclass(frozen=True)
class ShuffleRequest:
    """A shuffle offer: a batch of descriptors including the sender's own."""

    descriptors: Tuple[NodeDescriptor, ...]


@dataclass(frozen=True)
class ShuffleReply:
    """The symmetric answer to a :class:`ShuffleRequest`."""

    descriptors: Tuple[NodeDescriptor, ...]
    in_response_to: Tuple[NodeDescriptor, ...]


class CyclonService(PeerSamplingService):
    """Cyclon PSS as a node service.

    :param view_size: partial view capacity (paper-typical: 20–50).
    :param shuffle_length: descriptors exchanged per shuffle (≤ view_size).
    :param period: seconds between shuffles.
    """

    name = "cyclon"

    def __init__(self, view_size: int = 20, shuffle_length: int = 8, period: float = 1.0) -> None:
        super().__init__(view_size, period)
        if shuffle_length <= 0 or shuffle_length > view_size:
            raise ConfigurationError("require 0 < shuffle_length <= view_size")
        self.shuffle_length = shuffle_length
        self._pending_sent: dict = {}

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        node = self.node
        assert node is not None
        node.register_handler(ShuffleRequest, self._on_request)
        node.register_handler(ShuffleReply, self._on_reply)
        self._timer = node.every(self.period, self._shuffle)

    def stop(self) -> None:
        node = self.node
        assert node is not None
        node.unregister_handler(ShuffleRequest)
        node.unregister_handler(ShuffleReply)

    # -------------------------------------------------------------- rounds

    def _shuffle(self) -> None:
        """Run one active shuffle round (steps 1–2 of the protocol)."""
        node = self.node
        assert node is not None
        self.rounds += 1
        self.view.increase_ages()
        oldest = self.view.oldest(rng=node.rng)
        if oldest is None:
            return
        target = oldest.node_id
        self.view.remove(target)
        batch = self.view.sample_descriptors(node.rng, self.shuffle_length - 1)
        batch = [NodeDescriptor(node.id, 0)] + batch
        self._pending_sent[target] = tuple(batch)
        node.send(target, ShuffleRequest(tuple(batch)))

    def _on_request(self, msg: ShuffleRequest, src: int) -> None:
        """Passive side: reply with a random batch, then merge (step 3)."""
        node = self.node
        assert node is not None
        reply_batch = tuple(self.view.sample_descriptors(node.rng, self.shuffle_length))
        node.send(src, ShuffleReply(reply_batch, in_response_to=msg.descriptors))
        self.view.merge(msg.descriptors, self_id=node.id, sent=reply_batch, rng=node.rng)

    def _on_reply(self, msg: ShuffleReply, src: int) -> None:
        """Active side completion: merge the reply (step 4)."""
        node = self.node
        assert node is not None
        sent = self._pending_sent.pop(src, msg.in_response_to)
        self.view.merge(msg.descriptors, self_id=node.id, sent=sent, rng=node.rng)

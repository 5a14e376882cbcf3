"""Epidemic dissemination (paper Section II).

Implements the random-graph result the paper builds on: "taking N as the
number of nodes, each node must relay ln(N) + c messages to have a
probability of atomic infection of e^{-e^{-c}}" (Erdős–Rényi). The
:class:`DisseminationService` is an infect-and-die probabilistic
broadcast over the Peer Sampling Service with per-message deduplication —
the mechanism DATAFLASKS uses for request routing, packaged here
standalone so its delivery guarantees can be measured in isolation
(bench A2) and reused by other protocols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.pss.base import PeerSamplingService
from repro.sim.node import Service

__all__ = [
    "GossipMessage",
    "ReplayWindow",
    "DisseminationService",
    "recommended_fanout",
    "atomic_infection_probability",
]


@lru_cache(maxsize=1024)
def recommended_fanout(n: int, c: float = 2.0) -> int:
    """``ceil(ln N + c)`` — the per-node relay count for atomic infection.

    With this fanout the probability that *every* node is infected
    approaches :func:`atomic_infection_probability` (c=2 gives ~87%,
    c=4 gives ~98%). Memoised: every relayed request asks for it through
    ``DataFlasksConfig.effective_fanout``.
    """
    if n <= 1:
        return 1
    return max(1, math.ceil(math.log(n) + c))


def atomic_infection_probability(c: float) -> float:
    """``e^{-e^{-c}}`` — P(atomic infection) for fanout ``ln N + c``."""
    return math.exp(-math.exp(-c))


@dataclass(frozen=True)
class GossipMessage:
    """A broadcast payload in flight.

    ``msg_id`` deduplicates; ``hops`` counts forwarding steps so delivery
    latency (in hops) can be studied.
    """

    msg_id: Tuple[int, int]  # (origin node id, origin-local sequence)
    payload: Any
    ttl: int
    hops: int = 0


class _Seqs(bytearray):
    """One origin's window: byte ``i`` is the bitmask of attempts seen of
    sequence number ``base + i``."""

    __slots__ = ("base",)


class ReplayWindow(dict):
    """Which dissemination ids ``(origin, seq, attempt)`` were seen: a
    sliding anti-replay window per origin (RFC 4303 section 3.4.3).

    Every origin — a client, or a server re-homing objects — numbers its
    ids from one counter, so a node remembers them in one byte per
    sequence number (a bit per attempt, 0..7) instead of one hashed tuple
    per id. The dict itself maps origin to that origin's bytes, which
    start at 8 and double as sequence numbers arrive: an origin seen
    once costs ~100 B, a busy one a byte or two per id.

    ``capacity`` is how many sequence numbers are remembered *per
    origin*, counted back from the highest one seen. Inside that window
    the answers are exactly a ``set``'s, in any arrival order. An id
    below it reads as already seen: a copy that old is dropped, never
    re-processed — the same as losing the message, which the epidemic
    and the client's retry already tolerate. (A FIFO of ids re-processed
    an evicted id instead, re-igniting its flood.)

    Insert through :meth:`seen` only. ``RequestHandler`` reads the bytes
    directly for the duplicates that are most of its deliveries.
    """

    __slots__ = ("capacity",)

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ConfigurationError("dedup capacity must be positive")
        super().__init__()
        self.capacity = capacity

    def seen(self, origin: Any, seq: int, attempt: int = 0) -> bool:
        """Record the id; returns True if it was already present, or is
        older than the origin's window."""
        if not isinstance(seq, int) or seq < 0:
            raise SimulationError(
                f"sequence number of a dissemination id must be an int >= 0, got {seq!r}"
            )
        if not isinstance(attempt, int) or not 0 <= attempt <= 7:
            raise SimulationError(
                f"attempt of a dissemination id must be an int in 0..7, got {attempt!r}"
            )
        bit = 1 << attempt
        window = self.get(origin)
        if window is None:
            window = self[origin] = _Seqs()
            window.base = 0
        # ``i < 0`` is decided before indexing: a negative index would
        # wrap around to the newest bytes.
        i = seq - window.base
        if i < 0:
            return True
        if i < len(window):
            if window[i] & bit:
                return True
            window[i] |= bit
            return False
        capacity = self.capacity
        if i >= capacity:
            # Slide so that ``seq`` is the last of ``capacity`` numbers.
            slid = i + 1 - capacity
            del window[:slid]
            window.base += slid
            i -= slid
        grown = min(capacity, max(i + 1, 2 * len(window), 8))
        window.extend(bytes(grown - len(window)))
        window[i] = bit
        return False


class DisseminationService(Service):
    """Infect-and-die probabilistic broadcast over a PSS.

    Every node forwards a *new* message to ``fanout`` random peers and
    never again (duplicates are absorbed by a :class:`ReplayWindow`).
    Subscribers receive each payload exactly once per node.

    :param fanout: peers to forward to; with ``None``,
        :func:`recommended_fanout` of ``expected_n``.
    """

    name = "dissemination"

    def __init__(
        self,
        fanout: Optional[int] = None,
        ttl: int = 32,
        expected_n: Optional[int] = None,
    ) -> None:
        super().__init__()
        if fanout is None:
            if expected_n is None:
                raise ConfigurationError("give either fanout or expected_n")
            fanout = recommended_fanout(expected_n)
        if fanout <= 0 or ttl <= 0:
            raise ConfigurationError("fanout and ttl must be positive")
        self.fanout = fanout
        self.ttl = ttl
        self._dedup = ReplayWindow()
        self._subscribers: List[Callable[[Any, Tuple[int, int], int], None]] = []
        self._next_seq = 0
        self.delivered = 0
        self.forwarded = 0

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        node = self.node
        assert node is not None
        node.register_handler(GossipMessage, self._on_gossip)

    def stop(self) -> None:
        node = self.node
        assert node is not None
        node.unregister_handler(GossipMessage)

    # ----------------------------------------------------------------- API

    def subscribe(self, callback: Callable[[Any, Tuple[int, int], int], None]) -> None:
        """Register ``callback(payload, msg_id, hops)`` for new messages."""
        self._subscribers.append(callback)

    def broadcast(self, payload: Any) -> Tuple[int, int]:
        """Originate a broadcast; returns its message id.

        The originator counts as infected and does not deliver to itself
        via the network (subscribers fire synchronously here).
        """
        node = self.node
        assert node is not None
        msg_id = (node.id, self._next_seq)
        self._next_seq += 1
        self._dedup.seen(*msg_id)
        self._notify(payload, msg_id, hops=0)
        self._forward(GossipMessage(msg_id, payload, self.ttl, hops=0))
        return msg_id

    # ------------------------------------------------------------ internals

    def _pss(self) -> PeerSamplingService:
        node = self.node
        assert node is not None
        pss = node.get_service(PeerSamplingService)
        assert pss is not None, "DisseminationService requires a PeerSamplingService"
        return pss

    def _notify(self, payload: Any, msg_id: Tuple[int, int], hops: int) -> None:
        self.delivered += 1
        for callback in self._subscribers:
            callback(payload, msg_id, hops)

    def _forward(self, msg: GossipMessage) -> None:
        node = self.node
        assert node is not None
        if msg.ttl <= 0:
            return
        targets = self._pss().sample(self.fanout)
        node.multicast(
            targets, GossipMessage(msg.msg_id, msg.payload, msg.ttl - 1, msg.hops + 1)
        )
        self.forwarded += len(targets)

    def _on_gossip(self, msg: GossipMessage, src: int) -> None:
        if self._dedup.seen(*msg.msg_id):
            return
        self._notify(msg.payload, msg.msg_id, msg.hops)
        self._forward(msg)

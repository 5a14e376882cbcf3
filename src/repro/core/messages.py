"""Wire messages of the DATAFLASKS protocol.

All messages are immutable dataclasses. Identifiers:

* ``req_id = (client_id, seq)`` — the *logical* operation id; the client
  library deduplicates the multiple replies epidemic dissemination
  produces by this id (paper Section V: "read requests carry a request
  identifier in order to distinguish multiple read requests").
* ``msg_id = (client_id, seq, attempt)`` — the *dissemination* id; server
  nodes deduplicate forwarded copies by it, so a client retry (new
  attempt) is re-disseminated while duplicates of one attempt die out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

__all__ = [
    "ReqId",
    "MsgId",
    "PutRequest",
    "PutAck",
    "GetRequest",
    "GetReply",
    "SliceAdvert",
    "SyncDigest",
    "SyncResponse",
    "SyncItems",
]

ReqId = Tuple[int, int]
MsgId = Tuple[int, int, int]


@dataclass(frozen=True)
class PutRequest:
    """Store ``value`` under ``(key, version)``; epidemic-routed.

    ``client_id`` is the node id the ack must go to; ``ttl`` bounds
    forwarding hops. Only clients originate puts.
    """

    key: str
    version: int
    value: Any
    req_id: ReqId
    attempt: int
    client_id: int
    ttl: int

    @property
    def msg_id(self) -> MsgId:
        return (self.req_id[0], self.req_id[1], self.attempt)


@dataclass(frozen=True)
class PutAck:
    """A target-slice node confirms it stored (or already had) the object.

    ``responder_slice`` feeds the client's slice-aware load balancer
    (the Section VII optimisation).
    """

    key: str
    version: int
    req_id: ReqId
    responder_slice: Optional[int]


@dataclass(frozen=True)
class GetRequest:
    """Fetch ``key`` at ``version`` (``None`` = latest); epidemic-routed."""

    key: str
    version: Optional[int]
    req_id: ReqId
    attempt: int
    client_id: int
    ttl: int

    @property
    def msg_id(self) -> MsgId:
        return (self.req_id[0], self.req_id[1], self.attempt)


@dataclass(frozen=True)
class GetReply:
    """Answer to a :class:`GetRequest` from a node holding the object."""

    key: str
    version: Optional[int]
    value: Any
    found: bool
    req_id: ReqId
    responder_slice: Optional[int]


@dataclass(frozen=True)
class SliceAdvert:
    """Intra-slice membership gossip.

    A node advertises that the listed node ids believe they are in
    ``slice_id`` (itself plus a sample of its slice view); receivers in
    the same slice merge the entries into their slice view.
    """

    slice_id: int
    members: Tuple[Tuple[int, int], ...]  # (node_id, age) pairs


@dataclass(frozen=True)
class SyncDigest:
    """Anti-entropy round opener: the initiator's (key, version) digest.

    With ``offer`` set it is a re-homing offer instead: objects of
    ``slice_id`` stranded at the sender, sent to a member of that slice,
    which answers with the entries it lacks and pushes nothing back.
    """

    slice_id: int
    digest: frozenset  # frozenset[(key, version)]
    offer: bool = False


@dataclass(frozen=True)
class SyncResponse:
    """Responder's answer: items the initiator misses + entries it wants."""

    slice_id: int
    push: Tuple[Tuple[str, int, Any], ...]  # items the initiator lacks
    pull: Tuple[Tuple[str, int], ...]  # entries the responder lacks


@dataclass(frozen=True)
class SyncItems:
    """Final anti-entropy leg: the items the responder asked to pull."""

    slice_id: int
    items: Tuple[Tuple[str, int, Any], ...]

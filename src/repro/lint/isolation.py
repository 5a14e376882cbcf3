"""The runtime half of the isolation contract.

The static I-rules prove no *source line* retains-and-mutates a sent
payload or reaches through a node boundary; :class:`IsolationTap`
proves no *code path* does at run time. Attached to a network
(:meth:`Network.add_tap <repro.sim.network.Network.add_tap>`), it
fingerprints every payload put on the wire with a deterministic
structural digest and re-verifies the digest the moment the message
arrives (also when the destination has died meanwhile). Any difference
means some code kept a reference to the object after sending it and
mutated it while it was in flight — :class:`~repro.errors.IsolationError`
is raised naming sender, receiver, message type, and both simulated
times.

Design constraints, in order:

* **Trajectory-neutral.** The digest is pure SHA-256 over the payload's
  structure — no ``hash()`` (salted per process), no wall clock, no RNG
  — and the tap adds no events and changes no return values, so a
  checked run byte-compares against a plain run. The determinism CI
  matrix enforces exactly that.
* **Stateless.** The send-time digest travels in the delivery event as
  the tap's token, so every copy is checked against its own send:
  protocols legitimately send *one* immutable message object to several
  peers (replication re-home, advert fan-out), and an object mutated
  between two sends trips the wire when the earlier copy arrives.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Set

from repro.errors import IsolationError
from repro.sim.network import Tap

__all__ = ["IsolationTap", "payload_digest"]


# ------------------------------------------------------------------ digest


def payload_digest(obj: Any) -> str:
    """Deterministic structural SHA-256 of an arbitrary payload.

    Equal-by-structure objects digest equally across processes and runs:
    sequences feed elements in order, sets and dicts feed elements by
    their *own* sub-digests in sorted order (no reliance on element
    comparability or hash order), dataclasses feed fields in declaration
    order, and plain objects feed ``__dict__`` in sorted key order.
    Cycles are cut by identity, opaque leaves fall back to the type name.
    """
    hasher = hashlib.sha256()
    _feed(hasher, obj, set())
    return hasher.hexdigest()


def _sub_digest(obj: Any, stack: Set[int]) -> bytes:
    hasher = hashlib.sha256()
    _feed(hasher, obj, stack)
    return hasher.digest()


def _feed(hasher, obj: Any, stack: Set[int]) -> None:
    if obj is None or obj is True or obj is False:
        hasher.update(repr(obj).encode("ascii"))
        return
    if isinstance(obj, (int, float, complex)):
        hasher.update(b"n")
        hasher.update(repr(obj).encode("ascii"))
        hasher.update(b"\x00")
        return
    if isinstance(obj, str):
        hasher.update(b"s")
        hasher.update(obj.encode("utf-8", "surrogatepass"))
        hasher.update(b"\x00")
        return
    if isinstance(obj, (bytes, bytearray, memoryview)):
        hasher.update(b"b")
        hasher.update(bytes(obj))
        hasher.update(b"\x00")
        return
    oid = id(obj)
    if oid in stack:
        hasher.update(b"cycle")
        return
    stack.add(oid)
    try:
        if isinstance(obj, (list, tuple)):
            hasher.update(b"l" if isinstance(obj, list) else b"t")
            for item in obj:
                _feed(hasher, item, stack)
            hasher.update(b"\x00")
        elif isinstance(obj, (set, frozenset)):
            hasher.update(b"S")
            for encoded in sorted(_sub_digest(item, stack) for item in obj):
                hasher.update(encoded)
            hasher.update(b"\x00")
        elif isinstance(obj, dict):
            hasher.update(b"d")
            entries = [
                _sub_digest(key, stack) + _sub_digest(value, stack)
                for key, value in obj.items()
            ]
            for encoded in sorted(entries):
                hasher.update(encoded)
            hasher.update(b"\x00")
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            hasher.update(b"D")
            hasher.update(type(obj).__name__.encode("utf-8"))
            hasher.update(b"\x00")
            for field in dataclasses.fields(obj):
                _feed(hasher, getattr(obj, field.name), stack)
            hasher.update(b"\x00")
        elif hasattr(obj, "__dict__"):
            hasher.update(b"o")
            hasher.update(type(obj).__name__.encode("utf-8"))
            hasher.update(b"\x00")
            attrs = vars(obj)
            for key in sorted(attrs):
                hasher.update(key.encode("utf-8"))
                hasher.update(b"\x00")
                _feed(hasher, attrs[key], stack)
            hasher.update(b"\x00")
        else:
            # Opaque leaf (a __slots__ object, a function …): the type
            # name is all the structure we can see.
            hasher.update(b"x")
            hasher.update(type(obj).__name__.encode("utf-8"))
            hasher.update(b"\x00")
    finally:
        stack.discard(oid)


# --------------------------------------------------------------------- tap


class IsolationTap(Tap):
    """The copy-on-send payload checker (``--isolation-check``)."""

    def on_send(self, network, src: int, dst: int, msg: Any) -> str:
        return payload_digest(msg)

    def on_deliver(self, network, src: int, dst: int, msg: Any, token: str, sent_at: float) -> None:
        if payload_digest(msg) != token:
            raise IsolationError(
                src, dst, type(msg).__name__, sent_at, network.scheduler.now
            )

"""Ring arithmetic for the Chord-style DHT baseline.

Identifier space: 64-bit, positions derived with the same stable BLAKE2b
hash the DATAFLASKS keyspace uses. Pure functions only — routing state
machines live in :mod:`repro.dht.node`.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.keyspace import key_hash

__all__ = [
    "RING_BITS",
    "RING_SIZE",
    "node_position",
    "key_position",
    "in_interval",
    "finger_target",
]

RING_BITS = 64
RING_SIZE = 1 << RING_BITS

# (position, node_id) pairs are how the DHT refers to peers.
RingRef = Tuple[int, int]


def node_position(node_id: int) -> int:
    """A node's ring position (hash of its identity)."""
    return key_hash(f"chord-node:{node_id}")


def key_position(key: str) -> int:
    """A key's ring position."""
    return key_hash(key)


def in_interval(x: int, a: int, b: int, inclusive_end: bool = False) -> bool:
    """Is ``x`` in the clockwise interval (a, b) — or (a, b] — mod 2^64?

    An empty interval (``a == b``) denotes the *full* ring, matching
    Chord's convention (a node that is its own successor owns everything).
    """
    x, a, b = x % RING_SIZE, a % RING_SIZE, b % RING_SIZE
    if a == b:
        return inclusive_end or x != a
    if a < b:
        return a < x < b or (inclusive_end and x == b)
    return x > a or x < b or (inclusive_end and x == b)


def finger_target(position: int, index: int) -> int:
    """Start of the ``index``-th finger interval: ``position + 2^index``."""
    return (position + (1 << index)) % RING_SIZE

"""Chord-style DHT key-value baseline (the structured comparator).

* :class:`~repro.dht.node.ChordNode` — ring member with stabilisation,
  finger tables, successor-list replication and repair rounds
* :class:`~repro.dht.client.DhtClient` — iterative-lookup client
* :class:`~repro.dht.cluster.DhtCluster` — the ``dht`` stack's
  :class:`~repro.backends.base.StoreBackend`
* :mod:`repro.dht.ring` — 64-bit ring arithmetic
* :mod:`repro.dht.rpc` — request/reply RPC with timeouts
"""

from repro.dht.client import DhtClient
from repro.dht.cluster import DhtCluster
from repro.dht.node import ChordNode, iterative_lookup
from repro.dht.ring import (
    RING_BITS,
    RING_SIZE,
    finger_target,
    in_interval,
    key_position,
    node_position,
)
from repro.dht.rpc import RpcReply, RpcRequest, RpcService

__all__ = [
    "ChordNode",
    "DhtClient",
    "DhtCluster",
    "RING_BITS",
    "RING_SIZE",
    "RpcReply",
    "RpcRequest",
    "RpcService",
    "finger_target",
    "in_interval",
    "iterative_lookup",
    "key_position",
    "node_position",
]

"""DATAFLASKS core — the paper's contribution.

The node (Figure 2's four services), the versioned Data Store, the
client library with reply deduplication, load-balancer strategies, and
:class:`~repro.core.cluster.DataFlasksCluster`, the ``core`` stack's
:class:`~repro.backends.base.StoreBackend`.
"""

from repro.core.autoslice import ReplicationManager, quantize_slices
from repro.core.client import DataFlasksClient, PendingOp
from repro.core.cluster import DataFlasksCluster
from repro.core.config import DataFlasksConfig
from repro.core.filestore import FileStore
from repro.core.handler import RequestHandler
from repro.core.keyspace import key_hash, slice_for_key
from repro.core.loadbalancer import (
    LoadBalancer,
    RandomLoadBalancer,
    RoundRobinLoadBalancer,
    SliceAwareLoadBalancer,
)
from repro.core.messages import (
    GetReply,
    GetRequest,
    PutAck,
    PutRequest,
    SliceAdvert,
    SyncDigest,
    SyncItems,
    SyncResponse,
)
from repro.core.node import DataFlasksNode, make_slicing_service
from repro.core.replication import AntiEntropyService
from repro.core.sliceview import SliceViewService
from repro.core.store import MemoryStore, StoredObject, VersionedStore

__all__ = [
    "AntiEntropyService",
    "ReplicationManager",
    "quantize_slices",
    "DataFlasksClient",
    "DataFlasksCluster",
    "DataFlasksConfig",
    "DataFlasksNode",
    "FileStore",
    "GetReply",
    "GetRequest",
    "LoadBalancer",
    "MemoryStore",
    "PendingOp",
    "PutAck",
    "PutRequest",
    "RandomLoadBalancer",
    "RequestHandler",
    "RoundRobinLoadBalancer",
    "SliceAdvert",
    "SliceAwareLoadBalancer",
    "SliceViewService",
    "StoredObject",
    "SyncDigest",
    "SyncItems",
    "SyncResponse",
    "VersionedStore",
    "key_hash",
    "make_slicing_service",
    "slice_for_key",
]

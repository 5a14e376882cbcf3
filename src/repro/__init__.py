"""DATAFLASKS reproduction: an epidemic dependable key-value substrate.

Full Python reproduction of Maia et al., "DATAFLASKS: an epidemic
dependable key-value substrate" (DSN 2013), including every substrate the
paper depends on: a deterministic discrete-event simulator, Peer Sampling
Services (Cyclon/Newscast), distributed slicing protocols, epidemic
dissemination, a YCSB-style workload generator, churn injection, and a
Chord-style DHT baseline.

Quickstart::

    from repro import DataFlasksCluster

    cluster = DataFlasksCluster(n=100, seed=42)
    cluster.warm_up(10)
    cluster.wait_for_slices(timeout=60)
    client = cluster.new_client()
    cluster.put_sync(client, "user:1", b"alice", version=1)
    result = cluster.get_sync(client, "user:1")
    assert result.value == b"alice"

Storage stacks are pluggable: every experiment surface (scenario specs,
workload runner, nemesis, benches, CLI) drives a
:class:`~repro.backends.base.StoreBackend` resolved from
:func:`get_backend`; ``core`` (the ``DataFlasksCluster`` above), ``dht``
(Chord) and ``oracle`` (idealized ground-truth store) ship registered. See
DESIGN.md ("Backend architecture") for the paper-vs-reproduction
mapping and how to add a stack, and benchmarks/README.md for the
reproduced figures.
"""

from repro.backends import (
    BackendRegistry,
    StoreBackend,
    get_backend,
    list_backends,
    register_backend,
)
from repro.core import (
    DataFlasksClient,
    DataFlasksCluster,
    DataFlasksConfig,
    DataFlasksNode,
    FileStore,
    MemoryStore,
    PendingOp,
    VersionedStore,
    slice_for_key,
)
from repro.droplets import DropletsSession
from repro.sim import Simulation

__version__ = "1.8.0"

__all__ = [
    "BackendRegistry",
    "DataFlasksClient",
    "DropletsSession",
    "DataFlasksCluster",
    "DataFlasksConfig",
    "DataFlasksNode",
    "FileStore",
    "MemoryStore",
    "PendingOp",
    "Simulation",
    "StoreBackend",
    "VersionedStore",
    "get_backend",
    "list_backends",
    "register_backend",
    "slice_for_key",
    "__version__",
]

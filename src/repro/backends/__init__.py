"""Pluggable storage stacks — the stack-neutral experiment surface.

* :mod:`repro.backends.base` — :class:`StoreBackend`, the base class
  that owns what every deployed stack shares (simulation, servers,
  clients, churn, synchronous put/get, replication and message-load
  metrics); a stack is one subclass
* :mod:`repro.backends.registry` — :class:`BackendRegistry`,
  :func:`register_backend`, :func:`get_backend`, :func:`list_backends`
* ``stack = "core"`` — :class:`repro.core.cluster.DataFlasksCluster`
  (DATAFLASKS)
* ``stack = "dht"`` — :class:`repro.dht.cluster.DhtCluster` (the Chord
  baseline)
* ``stack = "oracle"`` — :class:`repro.backends.oracle.OracleCluster`,
  an idealized centralized replicated store, the ground-truth
  consistency baseline

Quickstart::

    from repro.backends import get_backend
    from repro.scenarios import load_bundled
    from repro.sim import Simulation

    spec = load_bundled("baseline").scaled(nodes=40)
    backend = get_backend(spec.stack).deploy(spec, Simulation(seed=7))
    backend.converge(spec)
    client = backend.new_client()
    backend.put_sync(client, "user:1", b"alice", version=1)

``get_backend("core")`` *is* ``DataFlasksCluster``: what ``deploy``
returns is the same object ``DataFlasksCluster(n=40, seed=7)`` builds
directly. Importing this package registers the three built-in stacks;
third parties register theirs with :func:`register_backend` (see
DESIGN.md, "Backend architecture").
"""

from repro.backends.base import REPLICATION_SAMPLE, StoreBackend, round_metric
from repro.backends.registry import (
    REGISTRY,
    BackendRegistry,
    get_backend,
    list_backends,
    register_backend,
)

# Importing a stack's module registers it. Plain `import` (not `from`)
# for core: when `repro.core` is what led here, its cluster module is
# still initialising and has no class to hand over yet.
import repro.core.cluster  # noqa: F401
import repro.dht.cluster  # noqa: F401
from repro.backends.oracle import OracleClient, OracleCluster, OracleNode

__all__ = [
    "REGISTRY",
    "REPLICATION_SAMPLE",
    "BackendRegistry",
    "OracleClient",
    "OracleCluster",
    "OracleNode",
    "StoreBackend",
    "get_backend",
    "list_backends",
    "register_backend",
    "round_metric",
]

"""DATADROPLETS-lite: the soft-state layer above DATAFLASKS.

STRATUS (paper Section III) stacks a soft-state layer over the
persistent substrate: "DATADROPLETS [...] provides 1) client interface,
2) caching, 3) concurrency control, and 4) high level processing", and
crucially it "is responsible for correctly ordering requests, which is
done by attaching version stamps to every object". DATAFLASKS assumes
those stamps exist; this module supplies a working miniature of the
layer so the whole stratified design runs end to end:

* **client interface** — ``put(key, value)`` / ``get(key)`` with no
  version bookkeeping exposed to the caller;
* **concurrency control** — a per-key monotonic version counter; the
  session discovers the current version of unknown keys from the
  substrate before writing (so sessions can hand keys over);
* **caching** — a bounded write-through LRU serving read-your-writes
  without touching the network;
* **soft state** — :meth:`rebuild` reconstructs counters and cache from
  the persistent layer after a crash, the recoverability property the
  paper demands ("it should be possible to reconstruct it completely
  from the persistent-state layer").

Scope note: the full DATADROPLETS is itself a distributed layer with a
DHT among a moderate number of stateful brokers; a single-session
miniature preserves the *contract* the bottom layer depends on (ordered
version stamps) without reproducing that second paper.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional

from repro.backends.base import StoreBackend
from repro.errors import ClientError, ConfigurationError

__all__ = ["DropletsSession"]


class _LruCache:
    """Bounded LRU of key -> (version, value)."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigurationError("cache capacity must be positive")
        self.capacity = capacity
        self._data: "OrderedDict[str, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Optional[tuple]:
        entry = self._data.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, version: int, value: Any) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = (version, value)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def invalidate(self, key: str) -> None:
        self._data.pop(key, None)

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data


class DropletsSession:
    """A client session with versioning, ordering and caching.

    :param cluster: the deployed stack to talk to — any
        :class:`~repro.backends.base.StoreBackend`.
    :param client: optional existing substrate client (one is created
        otherwise).
    :param acks_required: substrate ack quorum per write.
    :param cache_capacity: entries kept in the read cache.

    Ordering contract: within a session, writes to a key receive strictly
    increasing versions, and a read after a write observes that write
    (read-your-writes) — the exact guarantees the substrate expects from
    the layer above. Two *concurrent* sessions writing the same key must
    coordinate externally, as in the paper (DATADROPLETS serialises
    writes per key before they reach DATAFLASKS).
    """

    def __init__(
        self,
        cluster: StoreBackend,
        client: Optional[Any] = None,
        acks_required: int = 1,
        cache_capacity: int = 1024,
        op_timeout: float = 30.0,
    ) -> None:
        self.cluster = cluster
        self.client = client if client is not None else cluster.new_client()
        self.acks_required = acks_required
        self.op_timeout = op_timeout
        self._versions: Dict[str, int] = {}
        self._cache = _LruCache(cache_capacity)

    # ----------------------------------------------------------------- API

    def put(self, key: str, value: Any) -> int:
        """Write ``value`` under the next version of ``key``.

        Returns the version stamp assigned. Raises
        :class:`~repro.errors.ClientError` when the substrate write fails.
        """
        version = self._next_version(key)
        op = self.cluster.put_sync(
            self.client, key, value, version, self.acks_required, timeout=self.op_timeout
        )
        if not op.succeeded:
            # Roll the counter back so a retry does not skip a version.
            self._versions[key] = version - 1
            raise ClientError(f"substrate rejected put({key!r} v{version}): {op.error}")
        self._versions[key] = version
        self._cache.put(key, version, value)
        return version

    def get(self, key: str) -> Optional[Any]:
        """Read the latest value of ``key`` (cache first), None if absent."""
        cached = self._cache.get(key)
        if cached is not None:
            return cached[1]
        op = self.cluster.get_sync(self.client, key, timeout=self.op_timeout)
        if not op.succeeded:
            return None
        assert op.result_version is not None
        self._cache.put(key, op.result_version, op.value)
        # A read also teaches us the key's current version.
        self._versions[key] = max(self._versions.get(key, 0), op.result_version)
        return op.value

    def get_version(self, key: str, version: int) -> Optional[Any]:
        """Read one exact historical version (bypasses the cache)."""
        op = self.cluster.get_sync(self.client, key, version=version, timeout=self.op_timeout)
        return op.value if op.succeeded else None

    def current_version(self, key: str) -> Optional[int]:
        """The session's view of the key's version (None if never seen)."""
        return self._versions.get(key)

    # ------------------------------------------------------------ soft state

    def rebuild(self, keys: Iterable[str]) -> int:
        """Reconstruct soft state from the persistent layer.

        Models DATADROPLETS recovering after a catastrophic failure: the
        cache is dropped and per-key version counters are re-learnt from
        the substrate. Returns how many keys were recovered.
        """
        self._cache.clear()
        self._versions.clear()
        recovered = 0
        for key in keys:
            op = self.cluster.get_sync(self.client, key, timeout=self.op_timeout)
            if op.succeeded and op.result_version is not None:
                self._versions[key] = op.result_version
                self._cache.put(key, op.result_version, op.value)
                recovered += 1
        return recovered

    # ------------------------------------------------------------- internals

    def _next_version(self, key: str) -> int:
        known = self._versions.get(key)
        if known is None:
            # Key handover: learn the substrate's current version first.
            op = self.cluster.get_sync(self.client, key, timeout=self.op_timeout)
            known = op.result_version if op.succeeded and op.result_version else 0
        version = known + 1
        self._versions[key] = version
        return version

    # -------------------------------------------------------------- metrics

    @property
    def cache_hits(self) -> int:
        return self._cache.hits

    @property
    def cache_misses(self) -> int:
        return self._cache.misses

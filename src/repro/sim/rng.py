"""Seeded random-number streams.

Every stochastic component of the simulation (network latency, each
protocol instance, the workload generator, churn) draws from its *own*
named stream derived from the master seed. This keeps runs reproducible
even when components are added or reordered: adding a new protocol does
not perturb the random choices of existing ones.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RngRegistry", "derive_seed"]


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name.

    Uses BLAKE2b so the mapping is stable across Python versions and
    processes (unlike ``hash()``, which is salted).
    """
    digest = hashlib.blake2b(
        f"{master_seed}:{name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class RngRegistry:
    """A factory of named, independently seeded ``random.Random`` streams.

    >>> reg = RngRegistry(seed=42)
    >>> a = reg.stream("net")
    >>> b = reg.stream("net")
    >>> a is b
    True
    >>> reg.stream("node.1") is reg.stream("node.2")
    False
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.seed, name))
            self._streams[name] = rng
        return rng

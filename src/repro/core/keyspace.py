"""Key-to-slice mapping.

DATAFLASKS partitions data by key range across slices (Section IV-A):
"Each set will be responsible for storing a subset of the data according
to its key range". We realise the key-range mapping with a stable uniform
hash: slice ``blake2b(key) mod k`` owns the key. Every node evaluates the
same pure function locally — the essence of the paper's "nodes locally
decide if they need to store that individual item".
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from repro.errors import ConfigurationError

__all__ = ["slice_for_key", "key_hash"]


def key_hash(key: str) -> int:
    """Stable 64-bit hash of a key (BLAKE2b, independent of PYTHONHASHSEED)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@lru_cache(maxsize=1 << 16)
def slice_for_key(key: str, num_slices: int) -> int:
    """The slice index responsible for ``key`` in a ``num_slices`` system.

    Memoised (bounded): every node maps the key of every request it
    relays. ``num_slices`` is part of the memo key, so a node that
    retunes it is never answered from the old mapping.
    """
    if num_slices <= 0:
        raise ConfigurationError("num_slices must be positive")
    return key_hash(key) % num_slices

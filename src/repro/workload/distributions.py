"""Key-choice distributions, YCSB-compatible.

The paper drives DATAFLASKS with the YCSB cloud-serving benchmark [26].
YCSB's request distributions are reimplemented here from the original
Cooper et al. description (and the Gray et al. zipfian sampling
algorithm): uniform, zipfian, scrambled zipfian and latest.

All choosers return an *item index* in ``[0, item_count)``; the workload
layer maps indexes to keys.
"""

from __future__ import annotations

import random

from repro.errors import ConfigurationError

__all__ = [
    "KeyChooser",
    "UniformChooser",
    "ZipfianChooser",
    "ScrambledZipfianChooser",
    "LatestChooser",
    "fnv64",
]

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def fnv64(value: int) -> int:
    """FNV-1a over the 8 little-endian bytes of ``value`` (YCSB's hash)."""
    digest = FNV_OFFSET
    for _ in range(8):
        octet = value & 0xFF
        digest ^= octet
        digest = (digest * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
        value >>= 8
    return digest


class KeyChooser:
    """Strategy returning a random item index per request."""

    def __init__(self, item_count: int) -> None:
        if item_count <= 0:
            raise ConfigurationError("item_count must be positive")
        self.item_count = item_count

    def next(self, rng: random.Random) -> int:
        raise NotImplementedError


class UniformChooser(KeyChooser):
    """Every item equally likely."""

    def next(self, rng: random.Random) -> int:
        return rng.randrange(self.item_count)


class ZipfianChooser(KeyChooser):
    """Zipfian popularity: item 0 hottest (Gray et al. algorithm).

    :param theta: skew (YCSB default 0.99; higher = more skew).
    """

    def __init__(self, item_count: int, theta: float = 0.99) -> None:
        super().__init__(item_count)
        if not 0 < theta < 1:
            raise ConfigurationError("theta must be in (0, 1)")
        self.theta = theta
        self._zeta_n = self._zeta(item_count, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1 - (2.0 / item_count) ** (1 - theta)) / (
            1 - self._zeta2 / self._zeta_n
        )

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next(self, rng: random.Random) -> int:
        u = rng.random()
        uz = u * self._zeta_n
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.item_count * (self._eta * u - self._eta + 1) ** self._alpha)


class ScrambledZipfianChooser(KeyChooser):
    """Zipfian popularity *profile* spread uniformly over the key space.

    The hot items are scattered by FNV hashing, so popularity skew does
    not correlate with key locality — YCSB's default request chooser.
    """

    def __init__(self, item_count: int, theta: float = 0.99) -> None:
        super().__init__(item_count)
        self._zipf = ZipfianChooser(item_count, theta)

    def next(self, rng: random.Random) -> int:
        return fnv64(self._zipf.next(rng)) % self.item_count


class LatestChooser(KeyChooser):
    """Recently inserted items are hottest (YCSB workload D).

    ``item_count`` tracks the insertion frontier: call :meth:`grow` when
    an insert lands so new items immediately become the hot set.
    """

    def __init__(self, item_count: int, theta: float = 0.99) -> None:
        super().__init__(item_count)
        self.theta = theta
        self._zipf = ZipfianChooser(item_count, theta)

    def grow(self) -> None:
        """Record one insert: the newest item joins at rank 0."""
        self.item_count += 1
        self._zipf = ZipfianChooser(self.item_count, self.theta)

    def next(self, rng: random.Random) -> int:
        # Rank r over the zipfian maps to the r-th *newest* item.
        rank = self._zipf.next(rng)
        return max(0, self.item_count - 1 - rank)

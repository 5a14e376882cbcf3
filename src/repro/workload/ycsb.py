"""YCSB-style core workload generator.

Reimplements the request-stream shapes of the YCSB benchmark the paper
uses as its client (reference [26]): a *load phase* inserting
``record_count`` items and a *transaction phase* mixing reads, updates,
inserts and read-modify-writes according to per-workload proportions.

Presets match the published YCSB core workloads A–F plus the paper's
evaluation workload (``WRITE_ONLY``, Section VI: "YCSB configured for a
write only workload"). YCSB's scan operation has no equivalent in a
flat key-value API; following the substitution rule it is modelled as a
bounded multi-get over consecutively numbered keys (workload E), which
preserves its load shape (one op touching several records).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.workload.distributions import (
    KeyChooser,
    LatestChooser,
    ScrambledZipfianChooser,
    UniformChooser,
)

__all__ = [
    "Operation",
    "CoreWorkload",
    "READ",
    "UPDATE",
    "INSERT",
    "RMW",
    "SCAN",
    "WORKLOAD_A",
    "WORKLOAD_B",
    "WORKLOAD_C",
    "WORKLOAD_D",
    "WORKLOAD_E",
    "WORKLOAD_F",
    "WRITE_ONLY",
]

READ = "read"
UPDATE = "update"
INSERT = "insert"
RMW = "read-modify-write"
SCAN = "scan"


@dataclass(frozen=True)
class Operation:
    """One generated request.

    ``scan_length`` is only set for scans (number of consecutive keys).
    """

    kind: str
    key: str
    value: Optional[bytes] = None
    scan_length: int = 0


@dataclass
class CoreWorkload:
    """A parameterised YCSB-like workload.

    :param record_count: items inserted by the load phase.
    :param read/update/insert/rmw/scan_proportion: op mix (must sum to 1).
    :param request_distribution: ``uniform``, ``zipfian`` or ``latest``.
    :param value_size: payload bytes per record.
    :param key_prefix: keys are ``f"{key_prefix}{index}"``.
    """

    record_count: int = 1000
    read_proportion: float = 0.5
    update_proportion: float = 0.5
    insert_proportion: float = 0.0
    rmw_proportion: float = 0.0
    scan_proportion: float = 0.0
    max_scan_length: int = 10
    request_distribution: str = "zipfian"
    value_size: int = 100
    key_prefix: str = "user"
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.record_count <= 0:
            raise ConfigurationError("record_count must be positive")
        total = (
            self.read_proportion
            + self.update_proportion
            + self.insert_proportion
            + self.rmw_proportion
            + self.scan_proportion
        )
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"op proportions sum to {total}, expected 1.0")
        if self.request_distribution not in ("uniform", "zipfian", "latest"):
            raise ConfigurationError(
                f"unknown request distribution {self.request_distribution!r}"
            )
        if self.value_size <= 0 or self.max_scan_length <= 0:
            raise ConfigurationError("value_size and max_scan_length must be positive")

    # -------------------------------------------------------------- helpers

    def key_for(self, index: int) -> str:
        return f"{self.key_prefix}{index}"

    def _value(self, rng: random.Random) -> bytes:
        return bytes(rng.getrandbits(8) for _ in range(self.value_size))

    def _chooser(self) -> KeyChooser:
        if self.request_distribution == "uniform":
            return UniformChooser(self.record_count)
        if self.request_distribution == "latest":
            return LatestChooser(self.record_count)
        return ScrambledZipfianChooser(self.record_count)

    def scaled(self, record_count: int) -> "CoreWorkload":
        """The same mix over a different record count."""
        return replace(self, record_count=record_count)

    # ------------------------------------------------------------ load phase

    def load_items(self, rng: random.Random) -> Iterator[Operation]:
        """The insert stream that populates the store."""
        for index in range(self.record_count):
            yield Operation(INSERT, self.key_for(index), self._value(rng))

    # ----------------------------------------------------- transaction phase

    def operations(self, count: int, rng: random.Random) -> Iterator[Operation]:
        """``count`` requests drawn from the configured mix."""
        chooser = self._chooser()
        insert_frontier = self.record_count
        thresholds = self._thresholds()
        for _ in range(count):
            roll = rng.random()
            kind = _pick(thresholds, roll)
            if kind == INSERT:
                key = self.key_for(insert_frontier)
                insert_frontier += 1
                if isinstance(chooser, LatestChooser):
                    chooser.grow()
                yield Operation(INSERT, key, self._value(rng))
            elif kind == READ:
                yield Operation(READ, self.key_for(chooser.next(rng)))
            elif kind == UPDATE:
                yield Operation(UPDATE, self.key_for(chooser.next(rng)), self._value(rng))
            elif kind == RMW:
                yield Operation(RMW, self.key_for(chooser.next(rng)), self._value(rng))
            else:  # SCAN
                start = chooser.next(rng)
                length = rng.randint(1, self.max_scan_length)
                yield Operation(SCAN, self.key_for(start), scan_length=length)

    def _thresholds(self) -> List[tuple]:
        thresholds = []
        cumulative = 0.0
        for kind, proportion in (
            (READ, self.read_proportion),
            (UPDATE, self.update_proportion),
            (INSERT, self.insert_proportion),
            (RMW, self.rmw_proportion),
            (SCAN, self.scan_proportion),
        ):
            if proportion > 0:
                cumulative += proportion
                thresholds.append((cumulative, kind))
        return thresholds


def _pick(thresholds: List[tuple], roll: float) -> str:
    for threshold, kind in thresholds:
        if roll <= threshold:
            return kind
    return thresholds[-1][1]


WORKLOAD_A = CoreWorkload(
    read_proportion=0.5, update_proportion=0.5, name="ycsb-a"
)
WORKLOAD_B = CoreWorkload(
    read_proportion=0.95, update_proportion=0.05, name="ycsb-b"
)
WORKLOAD_C = CoreWorkload(
    read_proportion=1.0, update_proportion=0.0, name="ycsb-c"
)
WORKLOAD_D = CoreWorkload(
    read_proportion=0.95,
    update_proportion=0.0,
    insert_proportion=0.05,
    request_distribution="latest",
    name="ycsb-d",
)
WORKLOAD_E = CoreWorkload(
    read_proportion=0.0,
    update_proportion=0.0,
    insert_proportion=0.05,
    scan_proportion=0.95,
    request_distribution="zipfian",
    name="ycsb-e",
)
WORKLOAD_F = CoreWorkload(
    read_proportion=0.5,
    update_proportion=0.0,
    rmw_proportion=0.5,
    name="ycsb-f",
)
WRITE_ONLY = CoreWorkload(
    read_proportion=0.0,
    update_proportion=0.0,
    insert_proportion=1.0,
    request_distribution="uniform",
    name="write-only",
)

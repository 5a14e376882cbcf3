"""Cluster health and consistency reporting.

Operational tooling a downstream user needs before trusting an epidemic
store: per-key replication levels, under-replicated objects, placement
correctness (is the data where the key mapping says it should be), and
slice-coverage holes. Works on a live
:class:`~repro.core.cluster.DataFlasksCluster`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from repro.core.cluster import DataFlasksCluster
from repro.core.keyspace import slice_for_key

__all__ = ["ConsistencyReport", "check_cluster"]


@dataclass
class ConsistencyReport:
    """Outcome of a full-cluster consistency sweep."""

    total_objects: int = 0
    replication: Dict[Tuple[str, int], int] = field(default_factory=dict)
    under_replicated: List[Tuple[str, int]] = field(default_factory=list)
    lost: List[Tuple[str, int]] = field(default_factory=list)
    misplaced_copies: int = 0
    empty_slices: List[int] = field(default_factory=list)
    slice_population: Dict[int, int] = field(default_factory=dict)

    @property
    def healthy(self) -> bool:
        """No lost objects, no under-replication, no empty slices."""
        return not self.lost and not self.under_replicated and not self.empty_slices

    def mean_replication(self) -> float:
        if not self.replication:
            return 0.0
        return sum(self.replication.values()) / len(self.replication)

    def summary(self) -> str:
        """Human-readable one-paragraph report."""
        lines = [
            f"objects: {self.total_objects}",
            f"mean replication: {self.mean_replication():.2f}",
            f"under-replicated: {len(self.under_replicated)}",
            f"lost: {len(self.lost)}",
            f"misplaced copies: {self.misplaced_copies}",
            f"empty slices: {self.empty_slices or 'none'}",
        ]
        return "\n".join(lines)


def check_cluster(
    cluster: DataFlasksCluster,
    written: Iterable[Tuple[str, int]],
    min_replicas: int = 2,
) -> ConsistencyReport:
    """Sweep every alive server's store and grade the cluster.

    ``written`` is the inventory of acknowledged ``(key, version)``
    writes: an entry no alive server holds is *lost*. Within one sweep
    an object with zero alive holders simply does not appear, so loss
    can only be judged against it. ``min_replicas`` is the threshold
    below which an object counts as under-replicated (1 copy is one
    crash away from loss — the paper's persistence discussion in
    Section VII).
    """
    report = ConsistencyReport()
    num_slices = cluster.config.num_slices
    holders: Dict[Tuple[str, int], int] = {}
    seen: Set[Tuple[str, int]] = set()
    for server in cluster.alive_servers():
        my_slice = server.my_slice()
        for obj in server.store.items():
            entry = (obj.key, obj.version)
            seen.add(entry)
            holders[entry] = holders.get(entry, 0) + 1
            if my_slice is not None and my_slice != slice_for_key(obj.key, num_slices):
                report.misplaced_copies += 1

    report.total_objects = len(seen)
    report.replication = holders
    report.under_replicated = sorted(
        entry for entry, count in holders.items() if count < min_replicas
    )
    report.lost = sorted(set(written) - seen)
    report.slice_population = cluster.slice_population()
    report.empty_slices = [
        i for i in range(num_slices) if report.slice_population.get(i, 0) == 0
    ]
    return report


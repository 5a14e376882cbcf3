"""Metrics collection for simulations.

The paper's evaluation metric is *the average number of messages each node
had to send/receive* (Figures 3 and 4), so message accounting is a
first-class citizen here: the network layer increments per-node counters
for every send and delivery, and :class:`MetricsRegistry` offers the
aggregations the benches need (totals, per-node means, percentiles).

Counters are organised as ``name -> node_id -> value``; node-independent
counters use ``node_id = None``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "AvailabilityTracker",
    "MetricsRegistry",
    "Histogram",
    "percentile",
    "mean",
    "stdev",
]


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty iterable."""
    vals = list(values)
    if not vals:
        return 0.0
    return sum(vals) / len(vals)


def stdev(values: Iterable[float]) -> float:
    """Population standard deviation; 0.0 for fewer than two samples."""
    vals = list(values)
    if len(vals) < 2:
        return 0.0
    mu = mean(vals)
    return math.sqrt(sum((v - mu) ** 2 for v in vals) / len(vals))


def percentile(values: Iterable[float], p: float) -> float:
    """Linear-interpolation percentile, ``p`` in [0, 100]."""
    vals = sorted(values)
    if not vals:
        return 0.0
    if len(vals) == 1:
        return vals[0]
    rank = (p / 100.0) * (len(vals) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return vals[lo]
    frac = rank - lo
    # lo + frac*(hi-lo) rather than the symmetric blend: it is exact for
    # equal endpoints (the blend underflows to 0.0 on denormal values).
    return vals[lo] + frac * (vals[hi] - vals[lo])


class Histogram:
    """A simple reservoir of float samples with summary statistics."""

    def __init__(self) -> None:
        self._samples: List[float] = []

    def observe(self, value: float) -> None:
        """Record one sample."""
        self._samples.append(value)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        """The raw samples (not a copy; do not mutate)."""
        return self._samples

    def mean(self) -> float:
        return mean(self._samples)

    def stdev(self) -> float:
        return stdev(self._samples)

    def percentile(self, p: float) -> float:
        return percentile(self._samples, p)

    def summary(self) -> Dict[str, float]:
        """Mean/min/max and common percentiles as a dict."""
        if not self._samples:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "p50": 0.0, "p99": 0.0}
        return {
            "count": len(self._samples),
            "mean": self.mean(),
            "min": min(self._samples),
            "max": max(self._samples),
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }


class AvailabilityTracker:
    """Per-key unavailability windows, the availability metric the fault
    scenarios report.

    Feed every read probe outcome through :meth:`record`. A key's
    unavailability window opens at its first failed read and closes at
    the next successful one; :meth:`summary` treats still-open windows as
    extending to ``now`` without mutating state, so it can be called at
    any point (and repeatedly) during a run.
    """

    def __init__(self) -> None:
        self._open: Dict[str, float] = {}
        self._closed: List[Tuple[str, float, float]] = []

    def record(self, key: str, time: float, ok: bool) -> None:
        """Account one read of ``key`` at virtual ``time``."""
        if ok:
            start = self._open.pop(key, None)
            if start is not None:
                self._closed.append((key, start, time))
        elif key not in self._open:
            self._open[key] = time

    @property
    def closed_windows(self) -> List[Tuple[str, float, float]]:
        """``(key, start, end)`` windows that have already healed."""
        return list(self._closed)

    @property
    def closed_count(self) -> int:
        """Number of healed windows (cheap; no copy)."""
        return len(self._closed)

    @property
    def open_count(self) -> int:
        """Number of keys currently inside an unavailability window."""
        return len(self._open)

    def summary(self, now: float) -> Dict[str, float]:
        """Window count, distinct keys affected, and duration stats.

        Open windows are counted as lasting until ``now``. A window that
        opened exactly at ``now`` (the run-end boundary tie: the last
        probe fails at the same instant the summary is taken) counts as
        a zero-duration window, and an open window's contribution is
        clamped at zero — a caller passing a ``now`` earlier than the
        last recorded probe must never produce a negative duration.
        """
        windows = self._closed + [
            (key, start, max(start, now)) for key, start in self._open.items()
        ]
        durations = [end - start for _, start, end in windows]
        return {
            "windows": float(len(windows)),
            "keys": float(len({key for key, _, _ in windows})),
            "total": sum(durations),
            "mean": mean(durations),
            "max": max(durations) if durations else 0.0,
        }


class MetricsRegistry:
    """Per-node counters and named histograms for one simulation run.

    ``inc`` sits on the simulation's hottest path (every message send and
    delivery hits it at least twice), so counters are plain nested dicts —
    no ``defaultdict`` factory machinery — and heavy callers can grab the
    live inner dict once via :meth:`counter` and update it directly.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Dict[Optional[int], float]] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ----------------------------------------------------------- counters

    def inc(self, name: str, node: Optional[int] = None, by: float = 1.0) -> None:
        """Increment counter ``name`` for ``node`` (or the global slot)."""
        counters = self._counters
        slots = counters.get(name)
        if slots is None:
            slots = counters[name] = {}
        slots[node] = slots.get(node, 0.0) + by

    def counter(self, name: str) -> Dict[Optional[int], float]:
        """The live inner dict for counter ``name`` (created if missing).

        Hot paths cache this and update slots in place
        (``slots[node] = slots.get(node, 0.0) + 1.0``), skipping the
        per-call name lookup :meth:`inc` pays. The mapping is
        ``node_id -> value`` with ``None`` as the global slot, exactly
        what :meth:`get`/:meth:`total`/:meth:`per_node` read.
        """
        slots = self._counters.get(name)
        if slots is None:
            slots = self._counters[name] = {}
        return slots

    def get(self, name: str, node: Optional[int] = None) -> float:
        """Current value of counter ``name`` for ``node`` (0.0 if unset)."""
        return self._counters.get(name, {}).get(node, 0.0)

    def total(self, name: str) -> float:
        """Sum of counter ``name`` over every node (and the global slot)."""
        return sum(self._counters.get(name, {}).values())

    def per_node(self, name: str) -> Dict[int, float]:
        """Mapping of node id to counter value (global slot excluded)."""
        return {
            node: value
            for node, value in self._counters.get(name, {}).items()
            if node is not None
        }

    def mean_per_node(self, name: str, population: Optional[Iterable[int]] = None) -> float:
        """Mean of counter ``name`` across nodes.

        When ``population`` is given, nodes without a recorded value count
        as zero — this matches the paper's "average per node" metric, where
        a node that handled no messages still contributes to the mean.
        """
        values = self.per_node(name)
        if population is not None:
            ids = list(population)
            if not ids:
                return 0.0
            return sum(values.get(i, 0.0) for i in ids) / len(ids)
        return mean(values.values())

    def counter_names(self) -> List[str]:
        """All counter names with at least one recorded slot, sorted.

        Names whose inner dict is still empty are excluded: hot paths
        pre-create inner dicts via :meth:`counter` before any increment
        happens, and a counter that never fired should stay invisible to
        the reporting surface (as it was before :meth:`counter` existed).
        """
        return sorted(name for name, slots in self._counters.items() if slots)

    # --------------------------------------------------------- histograms

    def histogram(self, name: str) -> Histogram:
        """Return (creating if needed) the histogram called ``name``."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram()
            self._histograms[name] = hist
        return hist

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` in histogram ``name``."""
        self.histogram(name).observe(value)

    def histogram_names(self) -> List[str]:
        return sorted(self._histograms)

    # ------------------------------------------------------------ reports

    def message_load(self, population: Optional[Iterable[int]] = None) -> Dict[str, float]:
        """The paper's headline metric: per-node message load.

        Returns mean messages sent, received, and their sum ("handled") per
        node. The network layer maintains the ``msg.sent`` / ``msg.received``
        counters this reads.
        """
        pop = list(population) if population is not None else None
        sent = self.mean_per_node("msg.sent", pop)
        received = self.mean_per_node("msg.received", pop)
        return {"sent": sent, "received": received, "handled": sent + received}

    def snapshot(self) -> Dict[str, float]:
        """Totals of every counter — handy for quick debugging/tests."""
        return {name: self.total(name) for name in self.counter_names()}

    def totals(self) -> Dict[str, float]:
        """Like :meth:`snapshot` but unsorted and skipping empty slots —
        the timeline probe calls this every window, so it avoids the
        per-call sort (the consumer serialises with sorted keys anyway).
        """
        return {
            name: sum(slots.values())
            for name, slots in self._counters.items()
            if slots
        }

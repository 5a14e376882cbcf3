"""Windowed metric timelines sampled on a periodic sim-clock probe.

:class:`TimelineRecorder` snapshots the
:class:`~repro.sim.metrics.MetricsRegistry` counter totals (and, when an
observer is attached, the staleness / availability state) every
``window`` simulated seconds and emits one row of *deltas* per window:
message rates by type, drops per fault cause, stale reads,
unavailability windows opened and still open. The final partial window
is flushed at :meth:`stop`.

Determinism contract: the probe reads counters and schedules its own
next firing — it draws no RNG and mutates no protocol state, so the
simulation trajectory is unchanged. The probe events it adds to the
scheduler are counted in :attr:`probe_events` so the scenario runner can
subtract them from the reported ``events_processed`` (the one core
metric a probe would otherwise perturb). Two same-seed runs therefore
produce byte-identical :meth:`to_json` output, and a run with the
recorder attached produces byte-identical core metrics to one without.

The readers below take the dict form (:meth:`TimelineRecorder.to_dict`
or a loaded ``timeline.json``), so they serve live and archived runs.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "TimelineRecorder",
    "format_timeline",
    "timeline_rates",
    "top_counters",
]

TIMELINE_SCHEMA = 1

# Counter-name prefix shared by every drop cause the network accounts.
_DROP_PREFIX = "msg.dropped."


class TimelineRecorder:
    """Collects per-window counter deltas from a running simulation.

    Usage: :meth:`attach` once the :class:`~repro.sim.simulator.Simulation`
    exists (the first probe fires one window later), optionally
    :meth:`attach_observer` when the workload's
    :class:`~repro.workload.runner.ConsistencyObserver` is created, and
    :meth:`stop` at the end of the run to flush the last partial window
    and cancel the pending probe.
    """

    def __init__(self, window: float = 5.0) -> None:
        if window <= 0:
            raise ConfigurationError(f"timeline window must be positive, got {window}")
        self.window = float(window)
        self.rows: List[Dict[str, Any]] = []
        self.probe_events = 0
        self._sim = None
        self._observer = None
        self._pending = None
        self._last_time = 0.0
        self._last_snapshot: Dict[str, float] = {}
        self._last_stale = 0
        self._last_closed = 0
        self._stopped = False

    # ------------------------------------------------------------- wiring

    def attach(self, sim) -> None:
        """Baseline the counters at ``sim.now`` and start probing."""
        self._sim = sim
        self._last_time = sim.now
        self._last_snapshot = sim.metrics.totals()
        self._pending = sim.scheduler.schedule(self.window, self._probe)

    def attach_observer(self, observer) -> None:
        """Add staleness/availability columns sourced from ``observer``."""
        self._observer = observer

    # ------------------------------------------------------------ probing

    def _probe(self) -> None:
        self.probe_events += 1
        self._emit(self._sim.now)
        self._pending = self._sim.scheduler.schedule(self.window, self._probe)

    def _emit(self, now: float) -> None:
        metrics = self._sim.metrics
        snapshot = metrics.totals()
        previous = self._last_snapshot
        counters = {}
        for name, value in snapshot.items():
            delta = value - previous.get(name, 0.0)
            if delta:
                counters[name] = delta
        row: Dict[str, Any] = {
            "start": self._last_time,
            "end": now,
            "counters": counters,
        }
        observer = self._observer
        if observer is not None:
            stale = observer.stale_reads
            row["stale_reads"] = stale - self._last_stale
            self._last_stale = stale
            availability = observer.availability
            closed = availability.closed_count
            row["unavail_closed"] = closed - self._last_closed
            row["unavail_open"] = availability.open_count
            self._last_closed = closed
        self.rows.append(row)
        self._last_snapshot = snapshot
        self._last_time = now

    def stop(self, now: float) -> None:
        """Flush the final partial window and stop probing (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        if self._sim is not None and now > self._last_time:
            self._emit(now)

    # ------------------------------------------------------------ reports

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": TIMELINE_SCHEMA,
            "window": self.window,
            "windows": self.rows,
        }

    def to_json(self) -> str:
        """Canonical serialisation — byte-identical per spec + seed."""
        return json.dumps(self.to_dict(), sort_keys=True)

    def damage_rows(self) -> List[Dict[str, float]]:
        """A compact per-window damage view (for hunt logs and reports):
        stale reads, message drops of any cause, and open unavailability
        windows at the window boundary."""
        rows = []
        for row in self.rows:
            drops = sum(
                value
                for name, value in row["counters"].items()
                # Only the per-cause aggregates; the ".<cause>.<Type>"
                # breakdowns would double-count.
                if name.startswith(_DROP_PREFIX) and "." not in name[len(_DROP_PREFIX):]
            )
            rows.append(
                {
                    "t": row["start"],
                    "end": row["end"],
                    "stale": float(row.get("stale_reads", 0)),
                    "drops": drops,
                    "unavail_open": float(row.get("unavail_open", 0)),
                }
            )
        return rows


def top_counters(timeline: Dict[str, Any], limit: int = 6) -> List[str]:
    """The ``limit`` counters with the largest whole-run totals —
    the default column set when the caller names none. Per-type message
    breakdowns are skipped in favour of their aggregates."""
    totals: Dict[str, float] = {}
    for row in timeline["windows"]:
        for name, value in row["counters"].items():
            totals[name] = totals.get(name, 0.0) + value
    keep = {
        name: total
        for name, total in totals.items()
        if name in ("msg.sent", "msg.received")
        or (not name.startswith("msg.sent.") and not name.startswith("msg.received."))
    }
    ranked = sorted(keep.items(), key=lambda item: (-item[1], item[0]))
    return [name for name, _ in ranked[:limit]]


def timeline_rates(
    timeline: Dict[str, Any], counters: Optional[Sequence[str]] = None
) -> List[Dict[str, float]]:
    """One row per window with per-second rates for ``counters``
    (defaults to :func:`top_counters`), plus any staleness /
    availability columns the recorder captured."""
    if counters is None:
        counters = top_counters(timeline)
    rows = []
    for window in timeline["windows"]:
        span = window["end"] - window["start"]
        row: Dict[str, float] = {"t": window["start"], "span": span}
        for name in counters:
            delta = window["counters"].get(name, 0.0)
            row[name] = delta / span if span > 0 else 0.0
        for extra in ("stale_reads", "unavail_closed", "unavail_open"):
            if extra in window:
                row[extra] = float(window[extra])
        rows.append(row)
    return rows


def format_timeline(
    timeline: Dict[str, Any], counters: Optional[Sequence[str]] = None
) -> str:
    """ASCII table of per-window rates (counters are per-second)."""
    from repro.analysis.tables import rows_to_table  # late: obs stays light

    rows = timeline_rates(timeline, counters)
    if not rows:
        return "(empty timeline)"
    return rows_to_table(rows, list(rows[0].keys()))

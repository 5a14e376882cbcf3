"""Wall-clock hotspot attribution for the scheduler's event loop.

:class:`HotspotProfiler` hangs off :attr:`Scheduler.profiler
<repro.sim.scheduler.Scheduler.profiler>`: when set, the scheduler
brackets every event callback with ``perf_counter`` and reports the
elapsed wall time here, keyed by the handler's qualified name. Network
deliveries are specialised per message type
(``Network._deliver[CyclonRequest]``), because "delivery" at paper scale
is most of the run and the per-type split is what directs optimisation
work (see ROADMAP, the 1k-node wall). Periodic tasks are split the same
way, by the callback each one wraps
(``PeriodicTask._fire[CyclonService._shuffle]``): every protocol's rounds
run through that one method, so an unsplit row would lump them all.

This is the one pillar whose *output* is not deterministic — wall time
never is — but its presence still cannot change a run's trajectory: the
instrumentation only reads the clock around callbacks that would have
fired anyway. It is opt-in because two extra ``perf_counter`` calls per
event cost real throughput at engine-bench scale.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["HotspotProfiler", "format_hotspots"]

# Delivery handlers worth splitting per message type.
_DELIVER_LABELS = ("Network._deliver", "Network._deliver_traced")


class HotspotProfiler:
    """Accumulates per-handler event counts and wall seconds."""

    __slots__ = ("_stats",)

    def __init__(self) -> None:
        # label -> [event count, total wall seconds]
        self._stats: Dict[str, List[float]] = {}

    def record(self, fn: Any, args: tuple, elapsed: float) -> None:
        """Account one fired event (called by the scheduler hot loop)."""
        label = getattr(fn, "__qualname__", None)
        if label is None:
            label = type(fn).__name__
        elif label in _DELIVER_LABELS and len(args) > 2:
            # args = (src, dst, msg, ...): split delivery cost per type.
            label = f"Network._deliver[{type(args[2]).__name__}]"
        elif label == "PeriodicTask._fire":
            wrapped = fn.__self__._fn
            name = getattr(wrapped, "__qualname__", None) or type(wrapped).__name__
            label = f"PeriodicTask._fire[{name}]"
        entry = self._stats.get(label)
        if entry is None:
            self._stats[label] = [1, elapsed]
        else:
            entry[0] += 1
            entry[1] += elapsed

    # ------------------------------------------------------------- reports

    @property
    def total_events(self) -> int:
        return int(sum(entry[0] for entry in self._stats.values()))

    @property
    def total_wall(self) -> float:
        return sum(entry[1] for entry in self._stats.values())

    def rows(self) -> List[Dict[str, Any]]:
        """One row per handler, heaviest wall share first."""
        total = self.total_wall
        rows = []
        for label, (count, wall) in sorted(
            self._stats.items(), key=lambda item: (-item[1][1], item[0])
        ):
            rows.append(
                {
                    "handler": label,
                    "events": int(count),
                    "wall_s": round(wall, 6),
                    "share": round(wall / total, 4) if total > 0 else 0.0,
                    "us_per_event": round(wall / count * 1e6, 3) if count else 0.0,
                }
            )
        return rows

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": 1,
            "total_events": self.total_events,
            "total_wall_s": round(self.total_wall, 6),
            "hotspots": self.rows(),
        }

    def table(self, top: int = 15) -> str:
        """A fixed-width hotspot table for terminal output."""
        return format_hotspots(self.rows(), top)


def format_hotspots(rows: List[Dict[str, Any]], top: int = 15) -> str:
    """Fixed-width table of the first ``top`` hotspot rows — the shape
    :meth:`HotspotProfiler.rows` returns and ``hotspots.json`` stores."""
    rows = rows[:top]
    if not rows:
        return "(no events profiled)"
    width = max(len("handler"), max(len(r["handler"]) for r in rows))
    lines = [
        f"{'handler':<{width}}  {'events':>9}  {'wall_s':>9}  "
        f"{'share':>6}  {'us/event':>9}"
    ]
    for r in rows:
        lines.append(
            f"{r['handler']:<{width}}  {r['events']:>9}  {r['wall_s']:>9.3f}  "
            f"{r['share']:>6.1%}  {r['us_per_event']:>9.2f}"
        )
    return "\n".join(lines)

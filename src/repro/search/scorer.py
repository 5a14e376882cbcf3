"""Damage scoring: a schedule's consistency cost, relative to the oracle.

A schedule is only interesting if it makes the *store under test*
misbehave in a way the idealized ``oracle`` backend — run on the
**identical** schedule, load and seed — does not. Crashed servers and
lost messages cost *any* store availability; that is the network's
fault, not the protocol's. The oracle, which cannot lose consistency by
construction, is therefore the zero line: whatever damage remains after
subtracting its run is damage the protocol itself caused.

:func:`score_scenario` runs the spec twice (target stack, then the
oracle on ``spec.scaled(stack="oracle")``) and distils a
:class:`DamageScore`:

* ``stale_reads`` / ``lost_updates`` / ``lost_objects`` — consistency
  damage, the violation signal (the oracle's are zero by construction,
  so these are the target's raw counters),
* ``unavail_excess`` — per-key unavailable seconds *beyond* what the
  oracle paid on the same schedule (protocol-induced unavailability),
* ``total`` — the scalar the hunter ranks by, a weighted sum.

Both runs are deterministic, so a score replays byte-identically for a
given spec — the regression exporter records its components as exact
expected bounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.backends.base import round_metric
from repro.faults.spec import FaultSpec
from repro.obs.recorder import FlightRecorder, ObservabilitySpec
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec

__all__ = ["DamageScore", "Weights", "score_scenario", "attach_faults"]


@dataclass(frozen=True)
class Weights:
    """How the scalar ranking weighs each damage component. Lost objects
    are worse than lost updates (the whole key vanished), which are worse
    than stale reads; excess unavailability is a tiebreaker."""

    lost_object: float = 20.0
    lost_update: float = 10.0
    stale_read: float = 1.0
    unavail_second: float = 0.2


@dataclass
class DamageScore:
    """One schedule's damage, relative to the oracle baseline.

    ``timeline`` (present only when the caller asked for one via
    ``score_scenario(..., timeline_window=...)``) is the *target* run's
    per-window damage series — when the staleness/drop damage happened,
    not just how much. It is deliberately excluded from
    :meth:`components` so regression bounds and default hunt logs are
    unchanged by its existence.
    """

    stale_reads: float
    lost_updates: float
    lost_objects: float
    unavail_excess: float
    total: float
    target_metrics: Dict[str, float]
    oracle_metrics: Dict[str, float]
    timeline: Optional[List[Dict[str, float]]] = None

    @property
    def violation(self) -> bool:
        """A consistency violation: any acked state was served stale or
        lost. Pure availability damage is not a violation — the oracle
        pays it too."""
        return (self.stale_reads + self.lost_updates + self.lost_objects) > 0

    def components(self) -> Dict[str, float]:
        """The damage components as a flat, JSON-ready mapping."""
        return {
            "stale_reads": self.stale_reads,
            "lost_updates": self.lost_updates,
            "lost_objects": self.lost_objects,
            "unavail_excess": self.unavail_excess,
            "total": self.total,
            "violation": float(self.violation),
        }

    def summary_json(self) -> str:
        """Canonical serialisation (sorted keys) — byte-identical across
        replays of the same spec."""
        return json.dumps(self.components(), sort_keys=True)


def attach_faults(spec: ScenarioSpec, faults: List[FaultSpec]) -> ScenarioSpec:
    """An independent copy of ``spec`` carrying ``faults`` as its nemesis
    schedule (the hunter's way of welding a sampled schedule onto the
    base experiment)."""
    return spec.scaled(faults=list(faults))


def score_scenario(
    spec: ScenarioSpec,
    weights: Optional[Weights] = None,
    oracle_stack: str = "oracle",
    timeline_window: float = 0.0,
) -> DamageScore:
    """Run ``spec`` against its own stack and against ``oracle_stack`` on
    the identical schedule/load/seed; return the relative damage.

    ``spec.metrics`` must include the ``consistency`` group (the hunter's
    base scenarios always do). A positive ``timeline_window`` attaches a
    flight-recorder timeline to the *target* run and returns its
    per-window damage rows on the score; the recorder's probes are
    trajectory-neutral, so the score itself is unchanged.
    """
    weights = weights or Weights()
    recorder = FlightRecorder(
        ObservabilitySpec(timeline=True, window=timeline_window)
        if timeline_window > 0
        else ObservabilitySpec()
    )
    target = run_scenario(spec, recorder=recorder).metrics
    oracle_spec = spec.scaled(stack=oracle_stack, name=f"{spec.name}@{oracle_stack}")
    oracle = run_scenario(oracle_spec).metrics

    stale = _excess(target, oracle, "stale_reads")
    lost_updates = _excess(target, oracle, "lost_updates")
    lost_objects = _excess(target, oracle, "lost_objects")
    unavail_excess = round_metric(
        max(0.0, _unavail_seconds(target) - _unavail_seconds(oracle))
    )
    total = round_metric(
        weights.lost_object * lost_objects
        + weights.lost_update * lost_updates
        + weights.stale_read * stale
        + weights.unavail_second * unavail_excess
    )
    return DamageScore(
        stale_reads=stale,
        lost_updates=lost_updates,
        lost_objects=lost_objects,
        unavail_excess=unavail_excess,
        total=total,
        target_metrics=target,
        oracle_metrics=oracle,
        timeline=recorder.timeline.damage_rows() if recorder.timeline is not None else None,
    )


def _excess(target: Dict[str, float], oracle: Dict[str, float], key: str) -> float:
    """Target minus oracle, floored at zero (the oracle's consistency
    counters are zero by construction, but subtract anyway so a future
    non-ideal baseline still yields a *relative* score)."""
    return max(0.0, target.get(key, 0.0) - oracle.get(key, 0.0))


def _unavail_seconds(metrics: Dict[str, float]) -> float:
    """Total per-key unavailable seconds: window count times mean width."""
    return metrics.get("unavail_windows", 0.0) * metrics.get("unavail_window_mean", 0.0)

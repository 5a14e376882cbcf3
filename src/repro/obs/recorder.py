"""The flight-recorder coordinator.

:class:`FlightRecorder` bundles the enabled pillars (timeline, tracer,
profiler), owns wall-clock phase timing for the run manifest, and knows
how to write the artifact directory. The scenario runner only ever talks
to this class: ``attach(sim)`` after the simulation exists,
``attach_observer`` / wiring ``tracer`` once the workload runner is
built, ``begin_phase`` at phase boundaries, ``finish(sim)`` at the end,
and ``write_artifacts`` to persist everything plus the manifest.

A recorder is single-use: one recorder per scenario run.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import manifest as manifest_mod
from repro.obs.profile import HotspotProfiler
from repro.obs.timeline import TimelineRecorder
from repro.obs.trace import OpTracer

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Coordinates the enabled observability pillars for one run."""

    def __init__(
        self,
        *,
        timeline: bool = False,
        window: float = 5.0,
        trace: bool = False,
        trace_sample: int = 10,
        trace_max_ops: int = 1000,
        profile: bool = False,
    ) -> None:
        self.timeline: Optional[TimelineRecorder] = (
            TimelineRecorder(window) if timeline else None
        )
        self.tracer: Optional[OpTracer] = (
            OpTracer(trace_sample, trace_max_ops) if trace else None
        )
        self.profiler: Optional[HotspotProfiler] = (
            HotspotProfiler() if profile else None
        )
        self._phases: List[Tuple[str, float]] = []
        self._phase: Optional[str] = None
        self._phase_t0 = 0.0
        self._wall0 = perf_counter()
        self.total_wall = 0.0
        self._finished = False

    @classmethod
    def from_spec(
        cls,
        obs,
        *,
        timeline: Optional[bool] = None,
        trace: Optional[bool] = None,
        profile: Optional[bool] = None,
    ) -> "FlightRecorder":
        """Build from an :class:`~repro.scenarios.spec.ObservabilitySpec`,
        with per-pillar overrides (``None`` inherits the spec value)."""
        return cls(
            timeline=obs.timeline if timeline is None else timeline,
            window=obs.window,
            trace=obs.trace if trace is None else trace,
            trace_sample=obs.trace_sample,
            trace_max_ops=obs.trace_max_ops,
            profile=obs.profile if profile is None else profile,
        )

    @property
    def enabled(self) -> bool:
        return (
            self.timeline is not None
            or self.tracer is not None
            or self.profiler is not None
        )

    @property
    def overhead_events(self) -> int:
        """Scheduler events the recorder itself fired (timeline probes);
        the runner subtracts these from the reported ``events_processed``
        so obs-on and obs-off runs emit identical core metrics."""
        return self.timeline.probe_events if self.timeline is not None else 0

    # -------------------------------------------------------------- wiring

    def attach(self, sim) -> None:
        """Hook the enabled pillars into a freshly built simulation."""
        if self.profiler is not None:
            sim.scheduler.profiler = self.profiler
        if self.tracer is not None:
            sim.network.add_tap(self.tracer)
        if self.timeline is not None:
            self.timeline.attach(sim)

    def attach_observer(self, observer) -> None:
        if self.timeline is not None:
            self.timeline.attach_observer(observer)

    # ------------------------------------------------------- phase timing

    def begin_phase(self, name: str) -> None:
        """Close the previous wall-clock phase and open ``name``."""
        now = perf_counter()
        if self._phase is not None:
            self._phases.append((self._phase, now - self._phase_t0))
        self._phase = name
        self._phase_t0 = now

    def finish(self, sim) -> None:
        """Close the last phase and flush the timeline (idempotent)."""
        if self._finished:
            return
        self._finished = True
        now = perf_counter()
        if self._phase is not None:
            self._phases.append((self._phase, now - self._phase_t0))
            self._phase = None
        self.total_wall = now - self._wall0
        if self.timeline is not None:
            self.timeline.stop(sim.now)

    def phase_wall(self) -> Dict[str, float]:
        """Phase name -> wall seconds, in execution order (repeated
        phase names accumulate)."""
        phases: Dict[str, float] = {}
        for name, wall in self._phases:
            phases[name] = phases.get(name, 0.0) + wall
        return {name: round(wall, 6) for name, wall in phases.items()}

    # ----------------------------------------------------------- artifacts

    def obs_summary(self) -> Dict[str, Any]:
        """The manifest's ``observability`` block."""
        summary: Dict[str, Any] = {
            "timeline": self.timeline is not None,
            "trace": self.tracer is not None,
            "profile": self.profiler is not None,
        }
        if self.timeline is not None:
            summary["window"] = self.timeline.window
            summary["windows"] = len(self.timeline.rows)
            summary["probe_events"] = self.timeline.probe_events
        if self.tracer is not None:
            summary["trace_sample"] = self.tracer.sample_every
            summary.update(self.tracer.summary())
        if self.profiler is not None:
            summary["profiled_events"] = self.profiler.total_events
        return summary

    def write_artifacts(self, directory: str, spec, result) -> str:
        """Write every enabled pillar's artifact plus ``manifest.json``
        into ``directory`` (created if needed); returns the manifest
        path. ``result`` is the run's
        :class:`~repro.scenarios.runner.ScenarioResult`."""
        os.makedirs(directory, exist_ok=True)
        names: List[str] = []
        if self.timeline is not None:
            _write(directory, "timeline.json", self.timeline.to_json())
            names.append("timeline.json")
        if self.tracer is not None:
            _write(directory, "trace.json", self.tracer.to_chrome_json())
            names.append("trace.json")
        if self.profiler is not None:
            import json as _json

            _write(
                directory,
                "hotspots.json",
                _json.dumps(self.profiler.to_dict(), indent=2, sort_keys=True),
            )
            names.append("hotspots.json")
        summary = result.summary_json()
        _write(directory, "metrics.json", summary)
        names.append("metrics.json")
        manifest = {
            "schema": manifest_mod.MANIFEST_SCHEMA,
            "kind": "scenario-run",
            "scenario": result.scenario,
            "stack": spec.stack,
            "nodes": spec.nodes,
            "seed": result.seed,
            "spec_sha256": manifest_mod.spec_sha256(spec),
            "metrics_sha256": manifest_mod.sha256_bytes(summary.encode("utf-8")),
            "environment": manifest_mod.build_environment(),
            "created_at": manifest_mod.created_at(),
            "wall": {
                "total_s": round(self.total_wall, 6),
                "phases": self.phase_wall(),
            },
            "observability": self.obs_summary(),
            "artifacts": list(manifest_mod.artifact_entries(directory, names)),
        }
        return manifest_mod.write_manifest(directory, manifest)


def _write(directory: str, name: str, content: str) -> None:
    with open(os.path.join(directory, name), "w", encoding="utf-8") as f:
        f.write(content)
        if not content.endswith("\n"):
            f.write("\n")

"""The flight recorder: its configuration, its coordinator, its report.

:class:`ObservabilitySpec` (a scenario's ``[observability]`` block) is
the one configuration type. :class:`FlightRecorder` takes it whole,
bundles the pillars it enables, times the runner's wall phases and
writes the artifact directory; :func:`render_report` reads it back.

The scenario runner always holds a recorder (a pillar-less one when the
caller passes none) and calls it once each, in this order, which
subclasses such as the performance ledger's rely on:
``begin_phase("deploy")``, ``attach(sim)``, ``begin_phase("converge")``,
``attach_observer(observer)``, ``begin_phase`` for ``load``, ``settle``,
``transactions``, ``heal`` and ``collect``, ``finish(sim)``, then
``overhead_events``. A recorder is single-use: one per scenario run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from math import inf
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs import manifest as manifest_mod
from repro.obs.profile import HotspotProfiler, format_hotspots
from repro.obs.timeline import TimelineRecorder, format_timeline
from repro.obs.trace import OpTracer

__all__ = ["FlightRecorder", "ObservabilitySpec", "render_report"]


@dataclass
class ObservabilitySpec:
    """Flight-recorder configuration (the ``[observability]`` block).

    Everything defaults to off; a spec without the block behaves exactly
    as before the recorder existed. The CLI's per-run pillar flags
    (``--timeline`` / ``--trace`` / ``--profile`` / ``--no-obs``) are one
    :func:`dataclasses.replace` of it.

    * ``timeline`` — per-``window``-second counter/damage deltas
      (:class:`~repro.obs.timeline.TimelineRecorder`).
    * ``trace`` — head-sample every ``trace_sample``-th client op (up to
      the tracer's ``max_ops`` sampled ops) into a Perfetto-loadable
      Chrome trace (:class:`~repro.obs.trace.OpTracer`).
    * ``profile`` — wall-clock hotspot attribution per handler type
      (:class:`~repro.obs.profile.HotspotProfiler`).
    """

    timeline: bool = False
    window: float = 5.0
    trace: bool = False
    trace_sample: int = 10
    profile: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.window < inf:
            raise ConfigurationError(
                f"observability window must be positive and finite, got {self.window!r}"
            )
        if self.trace_sample < 1:
            raise ConfigurationError("trace_sample must be >= 1")

    @property
    def enabled(self) -> bool:
        return self.timeline or self.trace or self.profile


class FlightRecorder:
    """Coordinates the pillars ``obs`` enables for one run."""

    def __init__(self, obs: ObservabilitySpec = ObservabilitySpec()) -> None:
        self.timeline: Optional[TimelineRecorder] = (
            TimelineRecorder(obs.window) if obs.timeline else None
        )
        self.tracer: Optional[OpTracer] = (
            OpTracer(obs.trace_sample) if obs.trace else None
        )
        self.profiler: Optional[HotspotProfiler] = (
            HotspotProfiler() if obs.profile else None
        )
        self._phases: List[Tuple[str, float]] = []
        self._phase: Optional[str] = None
        self._phase_t0 = 0.0
        self._wall0 = perf_counter()
        self.total_wall = 0.0
        self._finished = False

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

    def phase_wall(self) -> List[List[Any]]:
        """``[name, wall seconds]`` per phase, in execution order."""
        return [[name, round(wall, 6)] for name, wall in self._phases]

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
            _write(
                directory,
                "hotspots.json",
                json.dumps(self.profiler.to_dict(), indent=2, sort_keys=True),
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


def render_report(path: str, top: int = 12) -> str:
    """Render an artifact directory :meth:`FlightRecorder.write_artifacts`
    wrote (``path`` is the directory or its manifest): provenance, the
    wall phases in execution order, the timeline as per-second rates, the
    trace summary and the ``top`` hotspot rows. An unreadable file raises
    :class:`OSError`; a manifest of another schema raises
    :class:`~repro.errors.ConfigurationError`."""
    manifest = manifest_mod.load_manifest(path)
    schema = manifest.get("schema")
    if schema != manifest_mod.MANIFEST_SCHEMA:
        raise ConfigurationError(
            f"manifest schema {schema!r} is not {manifest_mod.MANIFEST_SCHEMA}; "
            "re-record the run with this version"
        )
    directory = os.path.dirname(path) if os.path.isfile(path) else path
    env = manifest["environment"]
    wall = manifest["wall"]
    lines = [
        f"run: {manifest['scenario']} ({manifest['stack']}, "
        f"{manifest['nodes']} nodes, seed {manifest['seed']})",
        f"  repro {env['package_version']} on python {env['python']}; "
        f"wall {wall['total_s']:g}s",
        f"  spec sha256: {manifest['spec_sha256'][:16]}…",
    ]
    if wall["phases"]:
        lines.append(
            "  phases: "
            + ", ".join(f"{name} {secs:g}s" for name, secs in wall["phases"])
        )
    obs = manifest["observability"]
    artifacts = {entry["name"] for entry in manifest["artifacts"]}
    if "timeline.json" in artifacts:
        timeline = _read_json(directory, "timeline.json")
        lines += [
            "",
            f"timeline ({len(timeline['windows'])} windows, rates are per second):",
            format_timeline(timeline),
        ]
    if "trace.json" in artifacts:
        lines += [
            "",
            f"trace: {obs['sampled_ops']}/{obs['total_ops']} ops sampled, "
            f"{obs['hops']} hops, {obs['drops']} drops",
            f"  load {os.path.join(directory, 'trace.json')} in Perfetto "
            "(ui.perfetto.dev) or chrome://tracing",
        ]
    if "hotspots.json" in artifacts:
        prof = _read_json(directory, "hotspots.json")
        lines += [
            "",
            f"hotspots ({prof['total_events']} events, "
            f"{prof['total_wall_s']:g}s in handlers):",
            format_hotspots(prof["hotspots"], top),
        ]
    return "\n".join(lines)


def _write(directory: str, name: str, content: str) -> None:
    with open(os.path.join(directory, name), "w", encoding="utf-8") as f:
        f.write(content)
        if not content.endswith("\n"):
            f.write("\n")


def _read_json(directory: str, name: str) -> Any:
    with open(os.path.join(directory, name), "r", encoding="utf-8") as f:
        return json.load(f)

"""Deterministic flight recorder: timelines, op traces, hotspots, manifests.

Every metric the platform reports elsewhere is an end-of-run aggregate;
this package adds the *time-resolved* layer — when staleness spikes
after a partition, which network hop makes a tail read slow, where the
wall-clock goes at 1k nodes — without ever changing what a run computes.

Four pillars, all optional and independently switchable:

* :class:`~repro.obs.timeline.TimelineRecorder` — per-window deltas of
  every registry counter plus staleness/availability state, sampled on
  a periodic sim-clock probe.
* :class:`~repro.obs.trace.OpTracer` — deterministic head-sampling of
  client operations (every Nth op, no RNG draws) threaded through
  issue → network hops → delivery → ack, exported as Chrome
  trace-event JSON (loadable in Perfetto / ``chrome://tracing``).
* :class:`~repro.obs.profile.HotspotProfiler` — opt-in wall-clock
  attribution per event-handler type on the scheduler loop.
* :mod:`repro.obs.manifest` — run provenance: spec hash, seed, package
  version, wall-phase timings, artifact checksums.

:func:`~repro.obs.recorder.render_report` (``repro report DIR``) is the
one reader of the artifacts; no other package parses them.

The determinism contract (asserted in CI): probes draw **no** RNG and
mutate **no** protocol state; timeline probes do add scheduler events,
so the runner subtracts their count from the reported
``events_processed`` — a run with observability on emits *byte-identical*
core metrics to the same run with it off, and two same-seed runs emit
byte-identical timeline/trace artifacts. See DESIGN.md,
"Observability".
"""

from repro.obs.manifest import (
    build_environment,
    load_manifest,
    sha256_bytes,
    sha256_file,
    spec_sha256,
    write_manifest,
)
from repro.obs.profile import HotspotProfiler
from repro.obs.recorder import FlightRecorder, ObservabilitySpec, render_report
from repro.obs.timeline import TimelineRecorder
from repro.obs.trace import OpTracer

__all__ = [
    "FlightRecorder",
    "HotspotProfiler",
    "ObservabilitySpec",
    "OpTracer",
    "TimelineRecorder",
    "build_environment",
    "load_manifest",
    "render_report",
    "sha256_bytes",
    "sha256_file",
    "spec_sha256",
    "write_manifest",
]

"""Simulation substrate: deterministic discrete-event engine.

Public surface:

* :class:`~repro.sim.scheduler.Scheduler` — event heap with virtual time
* :class:`~repro.sim.network.Network`, latency models and the
  :class:`~repro.sim.network.Tap` observer hook
* :class:`~repro.sim.node.Node` / :class:`~repro.sim.node.Service`
* :class:`~repro.sim.simulator.Simulation` — a whole deployment
* :class:`~repro.sim.metrics.MetricsRegistry` — message accounting
* :class:`~repro.sim.rng.RngRegistry` — named seeded RNG streams
"""

from repro.sim.metrics import (
    AvailabilityTracker,
    Histogram,
    MetricsRegistry,
    mean,
    percentile,
    stdev,
)
from repro.sim.network import (
    FixedLatency,
    LatencyModel,
    LogNormalLatency,
    Network,
    Tap,
    UniformLatency,
)
from repro.sim.node import Node, PeriodicTask, Service, SimContext
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.scheduler import Event, Scheduler
from repro.sim.simulator import Simulation, relaxed_gc

__all__ = [
    "AvailabilityTracker",
    "Event",
    "FixedLatency",
    "Histogram",
    "LatencyModel",
    "LogNormalLatency",
    "mean",
    "MetricsRegistry",
    "Network",
    "Node",
    "percentile",
    "PeriodicTask",
    "RngRegistry",
    "Scheduler",
    "Service",
    "SimContext",
    "Simulation",
    "relaxed_gc",
    "stdev",
    "Tap",
    "UniformLatency",
    "derive_seed",
]

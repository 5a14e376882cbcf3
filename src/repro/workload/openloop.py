"""Concurrent open-loop workload engine (paper Section VI).

The paper's evaluation drives DATAFLASKS with many concurrent YCSB
clients, so latency is a function of *offered load*. The closed-loop
:class:`~repro.workload.runner.WorkloadRunner` holds at most one
request in flight, so it cannot produce the paper's latency-vs-offered-
load curves. :class:`OpenLoopRunner` decouples issue from completion:

* operation **arrivals** are events inside the simulator, spaced by a
  Poisson or constant-rate process whose draws come from a dedicated
  named RNG stream (``workload.arrivals`` via
  :func:`~repro.sim.rng.derive_seed`) — arrival times never perturb,
  and are never perturbed by, any other random choice in the run;
* each arrival is fanned over a pool of ``clients`` client nodes
  (round-robin), bounded by an **in-flight window**: when
  ``max_in_flight`` operations are already outstanding, the arrival is
  shed and recorded as *not issued* (an open-loop client has finite
  request slots; shedding is what makes saturation visible as the gap
  between offered and delivered throughput);
* an issued operation runs its op script from
  :class:`~repro.workload.runner.OpEngine`, resumed from its pendings'
  :meth:`~repro.core.client.PendingOp.on_complete` callbacks, under a
  per-operation watchdog, so the issue loop never blocks — a timed-out
  operation is recorded as failed without stalling later arrivals, and
  a write acked after its watchdog fired still counts as acknowledged.

Statistics are windowed: the first ``warmup`` seconds of the run are
excluded from :class:`OpenLoopStats` (ramp-up must not pollute
steady-state percentiles), and measured operations are bucketed by
arrival time into fixed-length :class:`Window` s so
:mod:`repro.analysis.loadcurve` can report offered-vs-delivered
throughput and per-kind latency percentiles per measurement window.
Warmup operations still feed the consistency observer — staleness and
availability are properties of the whole run, not of the measurement
window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.sim.rng import derive_seed
from repro.workload.runner import (
    ConsistencyObserver,
    OpEngine,
    RunStats,
    _Flight,
    messages_per_alive_node,
    server_message_total,
)
from repro.workload.ycsb import CoreWorkload

__all__ = ["ARRIVAL_PROCESSES", "OpenLoopRunner", "OpenLoopStats", "Window"]

ARRIVAL_PROCESSES = ("poisson", "constant")

# The dedicated stream arrival times are drawn from; see module docstring.
ARRIVAL_STREAM = "workload.arrivals"


@dataclass
class Window:
    """One fixed-length measurement window, bucketed by arrival time.

    ``offered`` counts arrivals, ``issued`` the subset that reached the
    store, ``not_issued`` the subset shed at a full in-flight window.
    Completions (``succeeded``/``failed``/``latencies``) are credited to
    the window the operation *arrived* in, so offered and delivered
    rates compare the same operation population.
    """

    start: float
    end: float
    offered: int = 0
    issued: int = 0
    not_issued: int = 0
    succeeded: int = 0
    failed: int = 0
    latencies: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def span(self) -> float:
        return self.end - self.start

    @property
    def offered_rate(self) -> float:
        return self.offered / self.span if self.span > 0 else 0.0

    @property
    def delivered_rate(self) -> float:
        return self.succeeded / self.span if self.span > 0 else 0.0


@dataclass
class OpenLoopStats(RunStats):
    """Outcome of one open-loop run (measurement window only).

    Inherited counters cover operations whose *arrival* fell inside the
    measurement window; ``warmup_ops`` arrivals came earlier and are
    excluded everywhere except the shared consistency accounting.
    ``duration`` spans from the end of warmup to the drain of the last
    in-flight operation.
    """

    timed_out: int = 0
    warmup_ops: int = 0
    rate: float = 0.0  # configured offered rate, ops/s
    clients: int = 1
    measure_start: float = 0.0
    windows: List[Window] = field(default_factory=list)

    @property
    def offered_rate(self) -> float:
        """Measured arrival rate inside the measurement window."""
        if self.duration <= 0:
            return 0.0
        return self.offered / self.duration


class OpenLoopRunner(OpEngine):
    """Schedules an open-loop request stream inside the simulator.

    The operation *mix* comes from the workload generator seeded with
    ``seed``, as in the closed loop, while arrival *times* come from the
    dedicated ``workload.arrivals`` stream, so the engine is
    deterministic per ``(cluster seed, engine seed)`` and the two
    concerns never share RNG state.

    :param clients: size of the client pool arrivals fan over
        (round-robin). Pass ``client_pool`` to reuse existing clients
        instead of creating new ones.
    :param rate: offered load in operations per simulated second.
    :param arrival: ``poisson`` (exponential interarrivals) or
        ``constant`` (``1/rate`` spacing).
    :param warmup: seconds of ramp-up excluded from the returned stats.
    :param window: measurement-window length in seconds.
    :param max_in_flight: in-flight window bound; ``0`` means
        ``4 * clients``.
    """

    def __init__(
        self,
        cluster,
        workload: CoreWorkload,
        *,
        clients: int = 4,
        rate: float = 50.0,
        arrival: str = "poisson",
        warmup: float = 0.0,
        window: float = 5.0,
        max_in_flight: int = 0,
        seed: int = 0,
        op_timeout: float = 30.0,
        acks_required: int = 1,
        observer: Optional[ConsistencyObserver] = None,
        client_pool: Optional[list] = None,
    ) -> None:
        if arrival not in ARRIVAL_PROCESSES:
            raise ConfigurationError(
                f"unknown arrival process {arrival!r}; choose from {ARRIVAL_PROCESSES}"
            )
        if rate <= 0:
            raise ConfigurationError(f"open-loop rate must be positive, got {rate}")
        if clients < 1:
            raise ConfigurationError(f"clients must be >= 1, got {clients}")
        if warmup < 0 or window <= 0:
            raise ConfigurationError("warmup must be >= 0 and window > 0")
        if max_in_flight < 0:
            raise ConfigurationError(f"max_in_flight must be >= 0, got {max_in_flight}")
        super().__init__(cluster, workload, seed, op_timeout, acks_required, observer)
        self.rate = float(rate)
        self.arrival = arrival
        self.warmup = warmup
        self.window = window
        self.max_in_flight = max_in_flight if max_in_flight > 0 else 4 * clients
        self.arrival_rng = random.Random(derive_seed(seed, ARRIVAL_STREAM))
        self.clients = list(client_pool or (cluster.new_client() for _ in range(clients)))
        self._next_client = 0
        self._outstanding = 0
        self.max_observed_in_flight = 0
        # Per-run state, reset by run_transactions.
        self._stats: OpenLoopStats = OpenLoopStats()
        self._ops = iter(())
        self._remaining = 0
        self._done_issuing = True
        self._measure_start = 0.0
        self._measure_msgs: Optional[float] = None

    # --------------------------------------------------------------- driving

    def run_transactions(self, count: int) -> OpenLoopStats:
        """Offer ``count`` operations at the configured rate, then drain.

        Advances virtual time until every arrival has fired and every
        issued operation completed (or its watchdog gave up on it).
        """
        sim = self.cluster.sim
        stats = OpenLoopStats(rate=self.rate, clients=len(self.clients))
        self._stats = stats
        self._ops = self.workload.operations(count, self.rng)
        self._remaining = count
        self._done_issuing = count == 0
        self._measure_start = sim.now + self.warmup
        self._measure_msgs = None
        stats.measure_start = self._measure_start
        sim.scheduler.schedule(self.warmup, self._begin_measurement)
        if count:
            sim.scheduler.schedule(self._interarrival(), self._on_arrival)
        # Expected issue span plus one full timeout of drain headroom.
        # Progress is guaranteed — every arrival schedules the next, and
        # each flight's watchdog fires within op_timeout — but a Poisson
        # stream can legitimately overrun the expected span, so keep
        # draining until genuinely done: returning early would hand back
        # a stats object that in-flight callbacks still mutate.
        budget = self.warmup + count / self.rate + self.op_timeout + 30.0
        while not sim.run_until_condition(
            lambda: self._done_issuing and self._outstanding == 0,
            timeout=budget,
            check_interval=0.1,
        ):
            pass
        stats.duration = max(0.0, sim.now - self._measure_start)
        if self._measure_msgs is not None:
            stats.messages_per_node = messages_per_alive_node(
                self.cluster, self._measure_msgs
            )
        return stats

    # ------------------------------------------------------------ issue loop

    def _interarrival(self) -> float:
        if self.arrival == "constant":
            return 1.0 / self.rate
        return self.arrival_rng.expovariate(self.rate)

    def _begin_measurement(self) -> None:
        # Message baseline snapshots at the warmup boundary so the
        # per-node figure covers the measurement window only.
        self._measure_msgs = server_message_total(self.cluster)

    def _on_arrival(self) -> None:
        sim = self.cluster.sim
        op = next(self._ops)
        self._remaining -= 1
        if self._remaining > 0:
            sim.scheduler.schedule(self._interarrival(), self._on_arrival)
        else:
            self._done_issuing = True
        window = self._window_for(sim.now) if sim.now >= self._measure_start else None
        if window is not None:
            window.offered += 1
        else:
            self._stats.warmup_ops += 1
        if self._outstanding >= self.max_in_flight or not self._issuable(op):
            # Open loop: arrivals are never queued behind completions.
            if window is not None:
                self._stats.record_not_issued(op.kind)
                window.not_issued += 1
            return
        self._outstanding += 1
        if self._outstanding > self.max_observed_in_flight:
            self.max_observed_in_flight = self._outstanding
        if window is not None:
            window.issued += 1
        flight = _Flight(op.kind, sim.now, window, measured=window is not None)
        client = self.clients[self._next_client]
        self._next_client = (self._next_client + 1) % len(self.clients)
        self._issue(flight, client, op)

    def _window_for(self, now: float) -> Window:
        index = int((now - self._measure_start) / self.window)
        windows = self._stats.windows
        while len(windows) <= index:
            start = self._measure_start + len(windows) * self.window
            windows.append(Window(start=start, end=start + self.window))
        return windows[index]

    # ---------------------------------------------------------- completions

    def _on_watchdog(self, flight: _Flight) -> None:
        if flight.measured:
            self._stats.timed_out += 1
        super()._on_watchdog(flight)

    def _closed(self, flight: _Flight, ok: bool, latency: Optional[float]) -> None:
        self._outstanding -= 1
        window = flight.window
        if window is None:
            return
        if ok:
            window.succeeded += 1
            if latency is not None:
                window.latencies.setdefault(flight.kind, []).append(latency)
        else:
            window.failed += 1

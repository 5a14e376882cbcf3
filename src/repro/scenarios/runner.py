"""Deterministic scenario execution.

:func:`run_scenario` turns a :class:`~repro.scenarios.spec.ScenarioSpec`
into one simulated experiment and returns a :class:`ScenarioResult`
whose metrics are a flat, sorted ``name -> float`` mapping. Everything
random flows from the simulation's seeded RNG registry plus the workload
runner's derived seed — including the nemesis fault schedule, whose
victims come from the dedicated ``faults`` stream — so two runs of the
same spec and seed produce *byte-identical* summaries
(:meth:`ScenarioResult.summary_json`), the reproducibility contract the
CLI and tests assert.

The runner is stack-neutral: ``spec.stack`` resolves through the backend
registry (:mod:`repro.backends`) to a
:class:`~repro.backends.base.StoreBackend` subclass — the stack's one
deployment class — which owns deployment, convergence, the heal-probe
predicate and the stack-specific metric blocks. Adding a stack never
touches this module.

Timeline: deploy -> warmup/convergence -> load -> settle -> arm the
nemesis schedule and churn -> transaction phase (kept running until the
last fault heals) -> time-to-heal measurement -> cooldown -> collect.

The transaction phase is driven closed-loop
(:class:`~repro.workload.runner.WorkloadRunner`, the default) or
open-loop (:class:`~repro.workload.openloop.OpenLoopRunner`, when
``spec.workload.mode == "open"``) — both share one consistency
observer, and the open engine's arrival times come from a dedicated
derived RNG stream, so either mode keeps the byte-identical replay
contract.

:func:`run_sweep` repeats a spec over several seeds and aggregates the
per-seed metrics through :func:`repro.analysis.aggregate.aggregate_rows`.
Pass ``jobs > 1`` to fan the seeds out over worker processes
(:class:`~concurrent.futures.ProcessPoolExecutor`): each seed is an
independent deterministic run, specs and results are plain picklable
dataclasses, and results are reassembled in seed order, so the sweep's
aggregate is byte-identical to the serial path.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.aggregate import aggregate_rows
from repro.analysis.consistency import count_write_losses
from repro.backends import StoreBackend, get_backend
from repro.backends.base import round_metric as _r
from repro.errors import ConfigurationError
from repro.churn.controller import ChurnController
from repro.faults.nemesis import Nemesis
from repro.obs.recorder import FlightRecorder
from repro.scenarios.spec import ScenarioSpec
from repro.sim.rng import derive_seed
from repro.sim.simulator import Simulation, relaxed_gc
from repro.workload.openloop import OpenLoopRunner, OpenLoopStats
from repro.workload.runner import RunStats, WorkloadRunner

__all__ = ["RunOptions", "ScenarioResult", "SweepResult", "run_scenario", "run_sweep"]

# Key-sample cap for the acked-vs-retained write-loss audit.
CONSISTENCY_SAMPLE = 200


@dataclass(frozen=True)
class RunOptions:
    """The run-time checks of one scenario run, all off by default. Each
    is trajectory-neutral — a run that completes returns byte-identical
    summaries with or without it, which the determinism CI matrix proves
    by byte-comparing them. Frozen and picklable: ``run_sweep`` hands
    the same object to every worker process.

    ``sanitize`` arms :func:`repro.lint.sanitizer.determinism_guard`
    for the duration of the run: any ambient ``random.*`` call or
    ``time.time`` read on the sim path raises
    :class:`~repro.errors.DeterminismError` instead of silently
    perturbing the trajectory. It patches :mod:`random` and :mod:`time`,
    so it is the one check that is process-wide.

    ``isolation_check`` attaches a
    :class:`repro.lint.isolation.IsolationTap` to the run's network:
    every payload is fingerprinted (pure SHA-256 — no clock, no RNG) at
    ``Network.send`` and re-verified at delivery, and any in-flight
    mutation raises :class:`~repro.errors.IsolationError` naming sender,
    receiver, message type and sim time.
    """

    sanitize: bool = False
    isolation_check: bool = False

    def guard(self):
        """Context manager for the process-wide part of the options."""
        if not self.sanitize:
            return nullcontext()
        from repro.lint.sanitizer import determinism_guard

        return determinism_guard()

    def attach(self, sim: Simulation) -> None:
        """Tap a freshly built simulation's network with the checker the
        options ask for."""
        if self.isolation_check:
            from repro.lint.isolation import IsolationTap

            sim.network.add_tap(IsolationTap())


@dataclass
class ScenarioResult:
    """Outcome of one scenario run at one seed."""

    scenario: str
    seed: int
    metrics: Dict[str, float]

    def summary_json(self) -> str:
        """Canonical serialisation: sorted keys, fixed float formatting.

        Two runs of the same spec+seed must produce byte-identical output;
        the determinism tests and the CLI ``--summary`` flag rely on it.
        """
        return json.dumps(
            {"scenario": self.scenario, "seed": self.seed, "metrics": self.metrics},
            sort_keys=True,
        )


@dataclass
class SweepResult:
    """Per-seed results plus cross-seed aggregates for one spec."""

    scenario: str
    seeds: List[int]
    results: List[ScenarioResult]
    aggregate: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def rows(self) -> List[Dict[str, float]]:
        """One row per seed — ready for ``rows_to_table``."""
        return [dict(r.metrics, seed=r.seed) for r in self.results]

    def summary_json(self) -> str:
        """Canonical serialisation of the cross-seed aggregate.

        Sorted keys, default float repr — byte-identical for the same
        spec + seeds regardless of ``jobs`` (the parallel-vs-serial
        determinism check in CI compares these bytes directly).
        """
        return json.dumps(
            {
                "scenario": self.scenario,
                "seeds": self.seeds,
                "aggregate": self.aggregate,
            },
            sort_keys=True,
        )


def run_scenario(
    spec: ScenarioSpec,
    seed: Optional[int] = None,
    recorder: Optional[FlightRecorder] = None,
    options: RunOptions = RunOptions(),
) -> ScenarioResult:
    """Execute ``spec`` once; ``seed`` overrides the spec's default.

    ``recorder`` is the run's
    :class:`~repro.obs.recorder.FlightRecorder`, which the caller owns
    (the CLI builds one from ``spec.observability`` plus its flags, then
    writes the artifact directory after the run); ``None`` runs with a
    pillar-less one. The runner drives every recorder through the same
    call order (see :mod:`repro.obs.recorder`). The recorder's probes
    are RNG-free and event-order-neutral, and its timeline probe events
    are subtracted from ``events_processed``, so a recorded run returns
    byte-identical metrics to an unrecorded one — the obs determinism
    contract CI byte-compares.

    ``options`` switches the run-time checks on (:class:`RunOptions`).

    Runs under :func:`~repro.sim.simulator.relaxed_gc`: simulation
    garbage is acyclic, and default cyclic-GC thresholds cost up to ~3x
    wall-clock at 1,000+ nodes for nothing. GC settings do not affect
    the trajectory, so summaries stay byte-identical either way.
    """
    seed = spec.seed if seed is None else seed
    if recorder is None:
        recorder = FlightRecorder()
    with options.guard(), relaxed_gc():
        return _run_scenario_inner(spec, seed, recorder, options)


def _run_scenario_inner(
    spec: ScenarioSpec, seed: int, recorder: FlightRecorder, options: RunOptions
) -> ScenarioResult:
    recorder.begin_phase("deploy")
    sim = Simulation(seed=seed, latency_model=spec.latency.build(), loss_rate=spec.loss_rate)
    recorder.attach(sim)
    options.attach(sim)
    backend = get_backend(spec.stack).deploy(spec, sim)
    metrics: Dict[str, float] = {}

    cluster_size_before = len(backend.servers)
    recorder.begin_phase("converge")
    metrics["converged"] = float(backend.converge(spec))

    workload = spec.workload.build()
    runner = WorkloadRunner(
        backend,
        workload,
        seed=seed,
        op_timeout=spec.workload.op_timeout,
        acks_required=spec.workload.acks_required,
    )
    recorder.attach_observer(runner.observer)
    runner.tracer = recorder.tracer
    recorder.begin_phase("load")
    load_stats = runner.run_load_phase()
    recorder.begin_phase("settle")
    sim.run_for(spec.settle)

    controller, nemesis, probe, churn_end = _inject_faults_and_churn(spec, backend)

    txn_stats: Optional[RunStats] = None
    recorder.begin_phase("transactions")
    if spec.workload.operation_count > 0:
        if spec.workload.mode == "open":
            # The concurrent engine shares the load phase's consistency
            # observer, so acked versions / staleness / availability span
            # the whole run. Its op stream gets a derived seed: the load
            # phase already consumed part of the `seed` stream, and the
            # engine must not replay it.
            engine = OpenLoopRunner(
                backend,
                workload,
                clients=spec.workload.clients,
                rate=spec.workload.rate,
                arrival=spec.workload.arrival,
                warmup=spec.workload.warmup,
                window=spec.workload.window,
                max_in_flight=spec.workload.max_in_flight,
                seed=derive_seed(seed, "workload.open"),
                op_timeout=spec.workload.op_timeout,
                acks_required=spec.workload.acks_required,
                observer=runner.observer,
            )
            engine.tracer = recorder.tracer
            txn_stats = engine.run_transactions(spec.workload.operation_count)
        else:
            txn_stats = runner.run_transactions(spec.workload.operation_count)
    elif churn_end is not None:
        # No transaction phase: still play the churn schedule out so its
        # effects are visible in the population/replication metrics.
        sim.run_until(churn_end)
    recorder.begin_phase("heal")
    if nemesis is not None and sim.now < nemesis.end_time:
        # The transaction phase ended before the fault schedule did:
        # keep running so every scheduled heal fires.
        sim.run_until(nemesis.end_time)
    _measure_heal(spec, backend, probe, metrics)
    sim.run_for(spec.cooldown)

    recorder.begin_phase("collect")
    _collect(spec, backend, controller, nemesis, runner, load_stats, txn_stats, workload, metrics)
    metrics["population_before_churn"] = float(cluster_size_before)
    metrics["sim_time"] = _r(sim.now)
    events = sim.scheduler.events_processed
    recorder.finish(sim)
    # Timeline probes are the one place observability adds scheduler
    # events; subtract them so obs-on metrics equal obs-off byte-for-byte.
    metrics["events_processed"] = float(events - recorder.overhead_events)
    return ScenarioResult(spec.name, seed, dict(sorted(metrics.items())))


def _run_scenario_job(args: Tuple[ScenarioSpec, int, RunOptions]) -> ScenarioResult:
    """Module-level shim so worker processes can unpickle the call."""
    spec, seed, options = args
    return run_scenario(spec, seed, options=options)


def run_sweep(
    spec: ScenarioSpec,
    seeds: Sequence[int],
    jobs: int = 1,
    options: RunOptions = RunOptions(),
) -> SweepResult:
    """Run ``spec`` once per seed and aggregate the metrics.

    ``jobs`` is the number of worker processes; 1 (the default) runs the
    seeds serially in this process. Every seed is an independent
    deterministic simulation and results are collected in seed order, so
    the returned :class:`SweepResult` — :meth:`SweepResult.summary_json`
    included — is byte-identical whatever the job count. ``options`` (:class:`RunOptions`) applies to
    every seed's run, in worker processes too.

    Caveat for custom backends: workers import only :mod:`repro`
    modules, so a backend registered at runtime (``@register_backend``
    in your own script) is visible to workers only under the ``fork``
    start method (Linux default). Under ``spawn``/``forkserver``
    (macOS/Windows), keep ``jobs=1`` or put the registration in an
    importable module that registers on import in the worker.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    seeds = list(seeds)
    if jobs > 1 and len(seeds) > 1:
        # Imported here: the pool drags in multiprocessing, socket and
        # logging — 2.7 MiB of resident memory no serial run uses.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(seeds))) as pool:
            # pool.map preserves input order: results arrive seed-ordered
            # no matter which worker finishes first.
            results = list(
                pool.map(_run_scenario_job, [(spec, s, options) for s in seeds])
            )
    else:
        results = [run_scenario(spec, seed, options=options) for seed in seeds]
    return SweepResult(
        scenario=spec.name,
        seeds=seeds,
        results=results,
        aggregate=aggregate_rows([r.metrics for r in results]),
    )


# ---------------------------------------------------------------- internals


class _HealProbe:
    """Measures time-to-heal convergence *as it happens*: armed by the
    nemesis at every heal, it polls the backend's ``converged`` predicate
    on the scheduler, so the measurement runs concurrently with the
    transaction phase instead of starting after the workload ends (which
    would inflate heal_time by the remaining workload runtime)."""

    def __init__(self, backend: StoreBackend, interval: float = 0.5) -> None:
        self.sim = backend.sim
        self.predicate = backend.converged
        self.interval = interval
        self.anchor: Optional[float] = None
        self.heal_time: Optional[float] = None
        self._polling = False

    def arm(self) -> None:
        """Restart the measurement from now (a later heal supersedes)."""
        self.anchor = self.sim.now
        self.heal_time = None
        if not self._polling:
            self._polling = True
            self.sim.scheduler.schedule(0.0, self._check)

    def _check(self) -> None:
        if self.predicate():
            self.heal_time = self.sim.now - self.anchor
            self._polling = False
        else:
            self.sim.scheduler.schedule(self.interval, self._check)


def _inject_faults_and_churn(
    spec: ScenarioSpec, backend: StoreBackend
) -> Tuple[
    Optional[ChurnController], Optional[Nemesis], Optional[_HealProbe], Optional[float]
]:
    """Arm the fault phase: one shared controller feeds both the nemesis
    schedule and spec-level churn, so fault-driven crashes/recoveries and
    churn land in the same join/leave accounting. The last element is
    the virtual time the churn schedule ends at."""
    if spec.churn is None and not spec.faults:
        return None, None, None, None
    controller = backend.churn_controller()
    nemesis: Optional[Nemesis] = None
    probe: Optional[_HealProbe] = None
    if spec.faults:
        nemesis = Nemesis(backend, controller)
        if "consistency" in spec.metrics:
            probe = _HealProbe(backend)
            nemesis.on_heal = probe.arm
        nemesis.schedule(spec.faults)
    churn_end: Optional[float] = None
    if spec.churn is not None:
        backend.sim.run_for(spec.churn.start)
        churn_end = controller.apply(spec.churn, population=spec.nodes)
    return controller, nemesis, probe, churn_end


def _measure_heal(
    spec: ScenarioSpec,
    backend: StoreBackend,
    probe: Optional[_HealProbe],
    metrics: Dict[str, float],
) -> None:
    """Report the probe's time-to-heal, running on past the workload if
    the overlay has not reconverged by the time the schedule ends."""
    if probe is None or probe.anchor is None:
        return
    sim = backend.sim
    if probe.heal_time is None:
        sim.run_until_condition(
            lambda: probe.heal_time is not None, timeout=spec.convergence_timeout
        )
    converged = probe.heal_time is not None
    metrics["heal_converged"] = float(converged)
    metrics["heal_time"] = _r(
        probe.heal_time if converged else sim.now - probe.anchor
    )


def _collect(
    spec: ScenarioSpec,
    backend: StoreBackend,
    controller: Optional[ChurnController],
    nemesis: Optional[Nemesis],
    runner: WorkloadRunner,
    load_stats: RunStats,
    txn_stats: Optional[RunStats],
    workload,
    metrics: Dict[str, float],
) -> None:
    groups = set(spec.metrics)
    if "workload" in groups:
        metrics["load_ops"] = float(load_stats.issued)
        metrics["load_success_rate"] = _r(load_stats.success_rate)
        if txn_stats is not None:
            metrics["txn_ops"] = float(txn_stats.issued)
            metrics["txn_not_issued"] = float(txn_stats.not_issued)
            metrics["txn_success_rate"] = _r(txn_stats.success_rate)
            metrics["txn_throughput"] = _r(txn_stats.throughput)
            for kind in sorted(txn_stats.latencies):
                summary = txn_stats.latency_summary(kind)
                metrics[f"latency_{kind}_p50"] = _r(summary["p50"])
                metrics[f"latency_{kind}_p99"] = _r(summary["p99"])
            metrics["txn_messages_per_node"] = _r(txn_stats.messages_per_node)
            if isinstance(txn_stats, OpenLoopStats):
                # Open loop only: offered vs delivered is the knee curve.
                metrics["txn_offered"] = float(txn_stats.offered)
                metrics["txn_offered_rate"] = _r(txn_stats.offered_rate)
                metrics["txn_timed_out"] = float(txn_stats.timed_out)
    if "messages" in groups:
        load = backend.server_message_load()
        metrics["messages_sent_per_node"] = _r(load["sent"])
        metrics["messages_received_per_node"] = _r(load["received"])
        metrics["messages_per_node"] = _r(load["handled"])
    if "population" in groups:
        metrics["population_alive"] = float(sum(1 for s in backend.servers if s.alive))
        metrics["population_total"] = float(len(backend.servers))
        metrics["churn_joins"] = float(controller.joins if controller else 0)
        metrics["churn_leaves"] = float(controller.leaves if controller else 0)
        metrics["churn_recoveries"] = float(controller.recoveries if controller else 0)
    if "consistency" in groups:
        stale = load_stats.stale_reads + (txn_stats.stale_reads if txn_stats else 0)
        metrics["stale_reads"] = float(stale)
        avail = runner.observer.availability.summary(now=backend.sim.now)
        metrics["unavail_keys"] = avail["keys"]
        metrics["unavail_windows"] = avail["windows"]
        metrics["unavail_window_mean"] = _r(avail["mean"])
        metrics["unavail_window_max"] = _r(avail["max"])
        losses = count_write_losses(
            backend, runner.observer.acked_versions, sample=CONSISTENCY_SAMPLE
        )
        metrics["lost_updates"] = losses["lost_updates"]
        metrics["lost_objects"] = losses["lost_objects"]
        metrics["faults_injected"] = float(nemesis.injected if nemesis else 0)
        metrics["faults_healed"] = float(nemesis.healed if nemesis else 0)
    # Stack-specific blocks (slice health, ring health, replication) come
    # from the backend, never from stack checks here.
    backend.collect_metrics(groups, workload, metrics)

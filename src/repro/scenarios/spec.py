"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a complete, serialisable description of one
experiment: which storage stack to deploy (any backend registered with
:mod:`repro.backends` — DATAFLASKS, the Chord baseline, the oracle),
how big, over what network, under what churn (``[churn]`` — see
:mod:`repro.churn.spec`) and fault schedule (``[[faults]]`` — see
:mod:`repro.faults.spec`), driven by which workload, which metric
groups to collect, and what the flight recorder captures
(``[observability]`` — see :mod:`repro.obs.recorder`). Specs
round-trip through plain dicts, JSON and TOML, so experiments live in
version-controlled files instead of ad-hoc benchmark wiring (the bundled
ones are the ``*.toml`` files next to this module; see
:mod:`repro.scenarios.registry`).

The spec layer only *describes*; :mod:`repro.scenarios.runner` executes.
The latency and workload sub-specs build the runtime object they
describe; churn, faults and observability need no runtime twin — the
:class:`~repro.churn.controller.ChurnController`, the
:class:`~repro.faults.nemesis.Nemesis` and the
:class:`~repro.obs.recorder.FlightRecorder` apply the spec itself. Every
sub-spec is checked in full when it is built.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from math import inf
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.churn.spec import ChurnSpec
from repro.errors import ConfigurationError
from repro.faults.spec import FaultSpec
from repro.obs.recorder import ObservabilitySpec
from repro.sim.network import (
    FixedLatency,
    LatencyModel,
    LogNormalLatency,
    UniformLatency,
)
from repro.workload.ycsb import (
    WORKLOAD_A,
    WORKLOAD_B,
    WORKLOAD_C,
    WORKLOAD_D,
    WORKLOAD_E,
    WORKLOAD_F,
    WRITE_ONLY,
    CoreWorkload,
)

__all__ = [
    "LatencySpec",
    "ChurnSpec",
    "FaultSpec",
    "WorkloadSpec",
    "ObservabilitySpec",
    "ScenarioSpec",
    "WORKLOAD_PRESETS",
    "load_spec",
    "spec_from_dict",
]

WORKLOAD_PRESETS: Dict[str, CoreWorkload] = {
    w.name: w
    for w in (
        WORKLOAD_A,
        WORKLOAD_B,
        WORKLOAD_C,
        WORKLOAD_D,
        WORKLOAD_E,
        WORKLOAD_F,
        WRITE_ONLY,
    )
}

METRIC_GROUPS = (
    "workload",
    "messages",
    "population",
    "slices",
    "replication",
    "consistency",
)


@dataclass
class LatencySpec:
    """Network latency distribution.

    ``kind`` selects the model: ``fixed`` (uses ``latency``), ``uniform``
    (``low``/``high``) or ``lognormal`` (``median``/``sigma``/``cap``).
    """

    kind: str = "fixed"
    latency: float = 0.01
    low: float = 0.005
    high: float = 0.05
    median: float = 0.02
    sigma: float = 0.5
    cap: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "uniform", "lognormal"):
            raise ConfigurationError(f"unknown latency kind {self.kind!r}")

    def build(self) -> LatencyModel:
        if self.kind == "uniform":
            return UniformLatency(self.low, self.high)
        if self.kind == "lognormal":
            return LogNormalLatency(self.median, self.sigma, self.cap)
        return FixedLatency(self.latency)


@dataclass
class WorkloadSpec:
    """YCSB-style workload: a preset mix, sizing, and the drive mode.

    ``preset`` names one of the core workloads (``ycsb-a`` … ``ycsb-f``,
    ``write-only``). The load phase inserts ``record_count`` items; the
    transaction phase then issues ``operation_count`` requests from the
    preset's mix (0 skips the phase, matching the paper's load-only
    evaluation).

    ``mode`` selects how the transaction phase is driven; both modes
    run the same op scripts (:class:`~repro.workload.runner.OpEngine`):

    * ``closed`` (default) — the single-client closed loop
      (:class:`~repro.workload.runner.WorkloadRunner`): one operation in
      flight at a time, resumed at a 0.1 s poll. It reads none of the
      open-only fields below, so each must keep its default.
    * ``open`` — the concurrent engine
      (:class:`~repro.workload.openloop.OpenLoopRunner`): operations
      arrive at ``rate`` ops/s (``arrival`` = ``poisson`` or
      ``constant``), fanned over ``clients`` client nodes, bounded by
      ``max_in_flight`` outstanding operations (0 = ``4 * clients``).
      The first ``warmup`` seconds are excluded from the reported
      statistics, and measured operations are bucketed into
      ``window``-second measurement windows.

    Either loop gives up on an operation after ``op_timeout`` seconds
    (finite, > 0) and records it as failed; a write it gave up on still
    counts as acknowledged if its acks arrive later. A put succeeds on
    ``acks_required`` (>= 1) acknowledgements.
    """

    preset: str = "write-only"
    record_count: int = 100
    operation_count: int = 0
    request_distribution: Optional[str] = None
    value_size: Optional[int] = None
    acks_required: int = 1
    op_timeout: float = 30.0
    mode: str = "closed"
    clients: int = 1
    rate: float = 0.0
    arrival: str = "poisson"
    warmup: float = 0.0
    max_in_flight: int = 0
    window: float = 5.0

    def __post_init__(self) -> None:
        if self.preset not in WORKLOAD_PRESETS:
            raise ConfigurationError(
                f"unknown workload preset {self.preset!r}; "
                f"choose from {sorted(WORKLOAD_PRESETS)}"
            )
        if self.record_count <= 0 or self.operation_count < 0:
            raise ConfigurationError("record_count must be positive, operation_count >= 0")
        if self.mode not in ("closed", "open"):
            raise ConfigurationError(
                f"unknown workload mode {self.mode!r}; choose 'closed' or 'open'"
            )
        if not 0 < self.op_timeout < inf:
            raise ConfigurationError(
                f"op_timeout must be finite and > 0, got {self.op_timeout!r}"
            )
        if self.acks_required < 1:
            raise ConfigurationError(
                f"acks_required must be >= 1, got {self.acks_required!r}"
            )
        if self.clients < 1:
            raise ConfigurationError("clients must be >= 1")
        if self.mode == "closed":
            for name, default in _OPEN_ONLY.items():
                if getattr(self, name) != default:
                    raise ConfigurationError(
                        f"a closed-loop workload does not read {name!r}; "
                        "set mode = 'open' to use it"
                    )
        if self.mode == "open" and self.rate <= 0:
            raise ConfigurationError("open-loop mode needs a positive rate (ops/s)")
        if self.arrival not in ("poisson", "constant"):
            raise ConfigurationError(
                f"unknown arrival process {self.arrival!r}; "
                "choose 'poisson' or 'constant'"
            )
        if self.warmup < 0 or self.window <= 0 or self.max_in_flight < 0:
            raise ConfigurationError(
                "warmup and max_in_flight must be >= 0, window > 0"
            )

    def build(self) -> CoreWorkload:
        workload = WORKLOAD_PRESETS[self.preset].scaled(self.record_count)
        overrides: Dict[str, Any] = {}
        if self.request_distribution is not None:
            overrides["request_distribution"] = self.request_distribution
        if self.value_size is not None:
            overrides["value_size"] = self.value_size
        return replace(workload, **overrides) if overrides else workload


# The defaults of the fields only the open loop reads.
_OPEN_ONLY = {
    f.name: f.default
    for f in fields(WorkloadSpec)
    if f.name in ("clients", "rate", "arrival", "warmup", "max_in_flight", "window")
}


@dataclass
class ScenarioSpec:
    """One complete experiment description.

    Timeline executed by the runner::

        deploy -> warmup -> convergence -> load phase -> settle
               -> [advance churn.start; inject churn]
               -> transaction phase -> cooldown -> collect metrics

    :param stack: name of a registered storage backend — ``core``
        (DATAFLASKS), ``dht`` (Chord baseline), ``oracle`` (idealized
        ground-truth store), or anything registered via
        :func:`repro.backends.register_backend`. Unknown names raise a
        :class:`~repro.errors.ConfigurationError` listing the registry.
    :param nodes: server population at deployment.
    :param num_slices: DATAFLASKS slice count ``k`` (core-only).
    :param replication: Chord replica count (dht-only): the owner plus
        its successors, so at most the successor list's length + 1 (9);
        the stack's ``check_spec`` rejects more.
    :param config: extra :class:`~repro.core.config.DataFlasksConfig`
        field overrides, applied on top of the size-scaled defaults.
    :param faults: the ``[[faults]]`` nemesis schedule; each entry's
        ``start`` is relative to the beginning of the fault phase (right
        after load + settle, the same instant churn injection anchors
        to). The runner keeps the simulation running until the last
        fault has healed, even when the transaction phase ends earlier.
    :param metrics: metric groups to collect; subset of
        ``workload, messages, population, slices, replication,
        consistency``. Stack-specific groups a backend has no equivalent
        for are skipped silently (``slices`` is core-only; ``replication``
        works on every backend; consistency adds the stale-read /
        lost-update / unavailability-window / time-to-heal accounting).
    """

    name: str
    description: str = ""
    stack: str = "core"
    nodes: int = 50
    num_slices: int = 5
    replication: int = 3
    seed: int = 0
    loss_rate: float = 0.0
    warmup: float = 10.0
    convergence_timeout: float = 90.0
    settle: float = 20.0
    cooldown: float = 0.0
    latency: LatencySpec = field(default_factory=LatencySpec)
    churn: Optional[ChurnSpec] = None
    faults: List[FaultSpec] = field(default_factory=list)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    config: Dict[str, Any] = field(default_factory=dict)
    metrics: Tuple[str, ...] = ("workload", "messages", "population", "slices")
    observability: ObservabilitySpec = field(default_factory=ObservabilitySpec)

    def __post_init__(self) -> None:
        # Resolve the stack against the backend registry so an unknown
        # value fails loudly at spec-construction time with the list of
        # registered backends (lazy import: backends pull in the stack
        # classes, which this description-only module must not).
        from repro.backends import get_backend
        from repro.core.config import DataFlasksConfig

        backend = get_backend(self.stack)
        if self.nodes <= 0:
            raise ConfigurationError("nodes must be positive")
        if self.num_slices <= 0 or self.replication <= 0:
            raise ConfigurationError("num_slices and replication must be positive")
        backend.check_spec(self)
        # [config] is checked on every stack, not just core: a core spec
        # re-stacked onto the oracle (search/scorer.py) keeps its block,
        # and a misspelt key is a mistake wherever it is written.
        valid = sorted(f.name for f in fields(DataFlasksConfig) if f.name != "num_slices")
        unknown = sorted(set(self.config) - set(valid))
        if unknown:
            raise ConfigurationError(
                f"unknown [config] keys {unknown}; valid keys: {valid} "
                "(num_slices is a top-level spec field)"
            )
        try:
            DataFlasksConfig(num_slices=self.num_slices, **self.config)
        except (ConfigurationError, TypeError) as exc:
            raise ConfigurationError(f"invalid [config] {self.config}: {exc}") from None
        for fault in self.faults:
            named = fault.nodes + [i for group in fault.groups for i in group]
            stray = [i for i in named if not (isinstance(i, int) and 0 <= i < self.nodes)]
            if stray:
                raise ConfigurationError(
                    f"a {fault.kind} fault names {stray}, which are not servers: "
                    f"server ids are 0..{self.nodes - 1} (clients take the ids after them)"
                )
        self.metrics = tuple(self.metrics)
        for group in self.metrics:
            if group not in METRIC_GROUPS:
                raise ConfigurationError(
                    f"unknown metric group {group!r}; choose from {METRIC_GROUPS}"
                )

    # -------------------------------------------------------------- scaling

    def scaled(self, **overrides: Any) -> "ScenarioSpec":
        """An independent copy with top-level fields replaced — e.g. a
        smoke-test-sized variant of a 5,000-node spec
        (``spec.scaled(nodes=50)``). Sub-specs are copied too, so
        mutating the result never touches the original (bundled specs
        stay pristine across derived runs).

        ``record_count`` / ``operation_count`` are routed to the workload
        sub-spec for convenience.
        """
        workload_fields = {
            k: overrides.pop(k)
            for k in ("record_count", "operation_count")
            if k in overrides
        }
        copies: Dict[str, Any] = {
            "latency": replace(self.latency),
            "workload": replace(self.workload, **workload_fields),
            "observability": replace(self.observability),
            "config": dict(self.config),
            "faults": [
                replace(f, nodes=list(f.nodes), groups=[list(g) for g in f.groups])
                for f in self.faults
            ],
        }
        if self.churn is not None:
            copies["churn"] = replace(
                self.churn, events=[list(e) for e in self.churn.events]
            )
        copies.update(overrides)
        return replace(self, **copies)

    # -------------------------------------------------------- serialisation

    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict form that :func:`spec_from_dict` inverts exactly."""
        data = asdict(self)
        data["metrics"] = list(self.metrics)
        if self.churn is None:
            del data["churn"]
        if not self.faults:
            del data["faults"]
        if self.observability == ObservabilitySpec():
            # Mirror the churn/faults rule: an all-default block is
            # omitted so pre-observability spec files round-trip
            # unchanged (and regression-corpus TOMLs stay byte-stable).
            del data["observability"]
        return data

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _filter_kwargs(cls: type, data: Dict[str, Any], context: str) -> Dict[str, Any]:
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown {context} fields: {sorted(unknown)}")
    return data


def spec_from_dict(data: Dict[str, Any]) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from its dict form (inverse of
    :meth:`ScenarioSpec.to_dict`); unknown keys raise
    :class:`~repro.errors.ConfigurationError` rather than being ignored."""
    data = dict(data)
    latency = data.pop("latency", None)
    churn = data.pop("churn", None)
    faults = data.pop("faults", None)
    workload = data.pop("workload", None)
    observability = data.pop("observability", None)
    kwargs = _filter_kwargs(ScenarioSpec, data, "scenario")
    # Sub-specs go to the constructor, so its cross-checks see them.
    if observability is not None:
        kwargs["observability"] = ObservabilitySpec(
            **_filter_kwargs(
                ObservabilitySpec, dict(observability), "observability"
            )
        )
    if latency is not None:
        kwargs["latency"] = LatencySpec(**_filter_kwargs(LatencySpec, dict(latency), "latency"))
    if churn is not None:
        churn = dict(churn)
        if "events" in churn:
            churn["events"] = [list(e) for e in churn["events"]]
        kwargs["churn"] = ChurnSpec(**_filter_kwargs(ChurnSpec, churn, "churn"))
    if faults is not None:
        kwargs["faults"] = []
        for entry in faults:
            entry = dict(entry)
            if "nodes" in entry:
                entry["nodes"] = list(entry["nodes"])
            if "groups" in entry:
                entry["groups"] = [list(g) for g in entry["groups"]]
            if "end" in entry:
                # Sugar: an absolute end instant instead of a duration.
                if "duration" in entry:
                    raise ConfigurationError(
                        "fault entry takes either duration or end, not both"
                    )
                end = entry.pop("end")
                start = entry.get("start", 0.0)
                if end <= start:
                    raise ConfigurationError(
                        f"fault end ({end}) must be after start ({start})"
                    )
                entry["duration"] = end - start
            kwargs["faults"].append(FaultSpec(**_filter_kwargs(FaultSpec, entry, "fault")))
    if workload is not None:
        kwargs["workload"] = WorkloadSpec(
            **_filter_kwargs(WorkloadSpec, dict(workload), "workload")
        )
    return ScenarioSpec(**kwargs)


def load_spec(path: str) -> ScenarioSpec:
    """Load a spec from a ``.toml`` or ``.json`` file."""
    if path.endswith(".toml"):
        import tomllib

        with open(path, "rb") as f:
            return spec_from_dict(tomllib.load(f))
    if path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as f:
            return spec_from_dict(json.load(f))
    raise ConfigurationError(f"unsupported spec format: {path!r} (use .toml or .json)")

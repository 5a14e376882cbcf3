"""The ledger's four named workloads.

Names are permanent. Each workload is one scenario spec (the *unit*)
that a run executes at several seeds derived from ``--seed``: a run is
``units`` independent simulations, and the run's timings are medians
over its units. That is what keeps the ledger steady across seeds — one
``core`` unit's event count swings ±15 % with the number of anti-entropy
re-homing floods its trajectory happens to contain — and it is why the
units are smaller than the paper's 500-node minimum: at a fixed time
budget, many small units give a tighter median than two large ones.

Every workload draws per-message latency uniformly from 5–15 ms (mean
10 ms): with a fixed 10 ms the simulated median latency is the same
multiple of 10 ms at every seed, and a time that never varies cannot be
told from one that is not measured.

``unit_cost_s`` is the wall time of one untraced unit on the reference
machine (2 cores, CPython 3.11); ``--seconds`` divided by it gives the
number of units, so a run measures for about ``--seconds`` seconds and
the same ``--seconds`` always means the same simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.scenarios.spec import METRIC_GROUPS, ScenarioSpec, spec_from_dict

__all__ = ["WORKLOADS", "Workload", "build_spec", "check_unit", "plan_units", "unit_seeds"]

LATENCY = {"kind": "uniform", "low": 0.005, "high": 0.015}
QUICK_DIVISOR = 5
MIN_UNITS = 3
# A traced unit runs twice (untraced twin + traced, ~1.7x), so a traced
# run fits the same time with a third of the units.
TRACED_UNIT_SHARE = 3


@dataclass(frozen=True)
class Workload:
    why: str
    unit_cost_s: float
    spec: Dict[str, Any]

    @property
    def faults(self) -> bool:
        return bool(self.spec.get("faults"))


WORKLOADS: Dict[str, Workload] = {
    "core_write": Workload(
        why=(
            "core stack, write-only closed loop, no faults: the paper's Section VI "
            "shape; PutRequest relays and periodic gossip do nearly all the work"
        ),
        unit_cost_s=1.1,
        spec=dict(
            stack="core", nodes=100, num_slices=5, warmup=15.0, settle=15.0,
            config={"view_size": 25}, latency=LATENCY,
            workload=dict(preset="write-only", record_count=50),
        ),
    ),
    "core_mixed_open": Workload(
        why=(
            "core stack, YCSB-A open loop, 4 clients at 160 ops/s (below the knee): "
            "reads beside writes, the only load on openloop, observer and the get path"
        ),
        unit_cost_s=5.0,
        spec=dict(
            stack="core", nodes=100, num_slices=10, settle=5.0, latency=LATENCY,
            metrics=["workload", "messages", "population", "consistency"],
            workload=dict(
                preset="ycsb-a", record_count=100, operation_count=1120,
                mode="open", clients=4, rate=160.0, arrival="poisson", warmup=1.0,
                # Wide enough that a Poisson burst is never shed: the
                # ledger's workloads are ones on which no operation fails.
                max_in_flight=64,
            ),
        ),
    ),
    "dht_write": Workload(
        why=(
            "Chord stack, write-only closed loop: the control that runs no epidemic "
            "code, so scheduler, network and node take their largest share"
        ),
        unit_cost_s=4.6,
        spec=dict(
            # 25 s of stabilisation builds the finger tables; with the
            # default 10 s a few per cent of the look-ups still walk the
            # ring successor by successor and the p99 is a ~1 s tail
            # that swings 15 % from seed to seed.
            stack="dht", nodes=500, replication=3, warmup=25.0, settle=5.0,
            latency=LATENCY,
            workload=dict(preset="write-only", record_count=100),
        ),
    ),
    "core_faults": Workload(
        why=(
            "core stack, YCSB-A closed loop under partition, lossy links and "
            "crash-recover: the network slow path, repair, retries and the consistency audit"
        ),
        unit_cost_s=3.4,
        spec=dict(
            stack="core", nodes=60, num_slices=6, settle=10.0, cooldown=10.0,
            latency=LATENCY, metrics=list(METRIC_GROUPS),
            # The client gives up after three attempts 5 s apart. Every
            # window is shorter than 10 s and followed by more than 5 s
            # of healthy network, so one of any three attempts lands
            # outside a fault and no operation fails for good. Half the
            # servers degrade with little loss, so ~4 % of the requests
            # are slow but answered and under 1 % are retried: the p99
            # sits inside the slow group at every seed, not on its edge.
            faults=[
                dict(kind="partition", symmetric=False, fraction=0.3, start=2.0, duration=6.0),
                dict(kind="degrade", fraction=0.5, loss=0.05, extra_latency=0.05,
                     start=15.0, duration=9.0),
                dict(kind="crash_recover", fraction=0.3, start=31.0, duration=8.0),
            ],
            workload=dict(preset="ycsb-a", record_count=120, operation_count=480),
        ),
    ),
}


def build_spec(name: str, quick: bool = False) -> ScenarioSpec:
    """The unit spec of workload ``name``; ``quick`` divides every size
    by five (a smoke test, never comparable with a full result)."""
    data = dict(WORKLOADS[name].spec, name=name)
    data["workload"] = dict(data["workload"])
    if quick:
        for key in ("nodes", "num_slices"):
            if key in data:
                data[key] = max(1, data[key] // QUICK_DIVISOR)
        for key in ("record_count", "operation_count"):
            if key in data["workload"]:
                data["workload"][key] = max(1, data["workload"][key] // QUICK_DIVISOR)
    return spec_from_dict(data)


def plan_units(name: str, seconds: float, traced: bool, quick: bool = False) -> int:
    """How many units a run of ``seconds`` seconds executes."""
    if quick:
        return 1
    units = max(MIN_UNITS, round(seconds / WORKLOADS[name].unit_cost_s))
    return max(1, units // TRACED_UNIT_SHARE) if traced else units


def unit_seeds(seed: int, units: int) -> List[int]:
    """Scenario seeds of one run; disjoint between different ``--seed``s
    so two runs never share a trajectory."""
    return [seed * 1000 + index for index in range(units)]


def check_unit(name: str, metrics: Dict[str, float], failed_ops: int) -> List[str]:
    """Correctness gates on one unit's ``ScenarioResult.metrics``;
    returns the violated ones (empty = correct)."""
    problems = []

    def require(metric: str, expected: float) -> None:
        if metrics.get(metric) != expected:
            problems.append(f"{metric} = {metrics.get(metric)}, expected {expected}")

    require("converged", 1.0)
    require("load_success_rate", 1.0)
    if WORKLOADS[name].faults:
        require("lost_objects", 0.0)
        require("lost_updates", 0.0)
        scheduled = float(len(WORKLOADS[name].spec["faults"]))
        require("faults_injected", scheduled)
        require("faults_healed", scheduled)
    elif failed_ops:
        problems.append(f"{failed_ops} client operations failed on a fault-free workload")
    return problems

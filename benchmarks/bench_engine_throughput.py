"""Engine throughput benchmark — the tracked events/sec baseline.

Measures raw simulation throughput (events/sec and wall-time) for every
registered storage backend at paper scale and beyond, and writes the
numbers to a machine-readable ``BENCH_engine.json`` artifact so future
engine changes are measured against a recorded baseline instead of
folklore. The workload is the paper's Section VI configuration
(write-only YCSB load, fixed latency, no faults), which keeps the
simulation on the network/scheduler/metrics hot path the overhaul
targets.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py              # full: 1k/5k/20k
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --smoke      # CI-sized
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        --sizes 1000 --backends core --out BENCH_engine.json

Events/sec is ``events_processed / wall`` for the whole scenario
(deploy + convergence + load + settle), the same ratio the scale-5k
yardstick quotes. The event count is deterministic per (backend, size,
seed); only the wall-clock varies between machines, so artifact diffs
that change ``events`` indicate a behavioural change, not just a faster
host.

Artifact format (``BENCH_engine.json``)::

    {
      "bench": "engine_throughput",
      "mode": "full" | "smoke" | "partial",   # partial = custom --sizes
      "seed": 3,
      "sizes": [1000, 5000, 20000],
      "results": [
        {"backend": "core", "nodes": 1000, "events": 16936044.0,
         "sim_time": 53.2, "wall_s": 123.4, "events_per_s": 137245.0},
        ...
      ],
      "obs_overhead": {                        # flight-recorder cost
        "backend": "core", "nodes": 1000, "repeats": 3,
        "base_wall_s": 10.0, "obs_wall_s": 10.2, "overhead_pct": 2.0,
        "events_match": true                   # corrected events == base
      }
    }

The ``obs_overhead`` block measures the flight recorder's timeline probe
(1s windows — the densest probing a spec would realistically ask for) at
the largest measured size: best-of-N walls with and without the recorder
attached, plus the determinism cross-check that the recorder-corrected
``events_processed`` equals the base run's. ``--smoke`` fails if the
overhead exceeds ``OBS_OVERHEAD_LIMIT_PCT`` (escape hatch:
``--no-overhead-check`` for known-noisy hosts).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List

from repro.backends import list_backends
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec

DEFAULT_SIZES = [1000, 5000, 20000]
SMOKE_SIZES = [100, 200]
SEED = 3
OBS_OVERHEAD_LIMIT_PCT = 5.0
DEFAULT_OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_engine.json")


def throughput_spec(stack: str, nodes: int) -> ScenarioSpec:
    """A write-only load scenario sized like the scale-5k yardstick:
    ~100-node slices (core), proportional records, no faults/churn —
    pure hot-path traffic."""
    return ScenarioSpec(
        name=f"engine-throughput-{stack}-{nodes}",
        stack=stack,
        nodes=nodes,
        num_slices=max(2, nodes // 100),
        replication=3,
        warmup=15.0,
        convergence_timeout=240.0,
        settle=15.0,
        workload=WorkloadSpec(preset="write-only", record_count=max(20, nodes // 10)),
        config={"view_size": 25} if stack == "core" else {},
        metrics=("messages", "population"),
    )


def run_cell(stack: str, nodes: int, seed: int) -> Dict[str, float]:
    spec = throughput_spec(stack, nodes)
    start = time.perf_counter()
    result = run_scenario(spec, seed=seed)
    wall = time.perf_counter() - start
    events = result.metrics["events_processed"]
    return {
        "backend": stack,
        "nodes": nodes,
        "events": events,
        "sim_time": result.metrics["sim_time"],
        "wall_s": round(wall, 3),
        "events_per_s": round(events / wall, 1) if wall > 0 else 0.0,
    }


def measure_obs_overhead(
    stack: str, nodes: int, seed: int, repeats: int = 5
) -> Dict[str, object]:
    """Best-of-``repeats`` wall with and without the flight recorder's
    timeline probe (1s windows). The base/obs runs are *interleaved*
    (A B A B ...) so slow process drift — allocator state, frequency
    scaling — hits both sides equally; at smoke sizes that drift alone
    is several percent, far above the probe's real cost."""
    from repro.obs import FlightRecorder, ObservabilitySpec

    spec = throughput_spec(stack, nodes)
    best = {False: float("inf"), True: float("inf")}
    events = {False: 0.0, True: 0.0}
    for _ in range(repeats):
        for with_recorder in (False, True):
            recorder = (
                FlightRecorder(ObservabilitySpec(timeline=True, window=1.0))
                if with_recorder
                else None
            )
            start = time.perf_counter()
            result = run_scenario(spec, seed=seed, recorder=recorder)
            wall = time.perf_counter() - start
            best[with_recorder] = min(best[with_recorder], wall)
            events[with_recorder] = result.metrics["events_processed"]
    base_wall, base_events = best[False], events[False]
    obs_wall, obs_events = best[True], events[True]
    overhead_pct = (obs_wall - base_wall) / base_wall * 100.0 if base_wall > 0 else 0.0
    return {
        "backend": stack,
        "nodes": nodes,
        "repeats": repeats,
        "base_wall_s": round(base_wall, 3),
        "obs_wall_s": round(obs_wall, 3),
        "overhead_pct": round(overhead_pct, 2),
        # The recorder subtracts its own probe events, so the reported
        # count must equal the unobserved run's exactly.
        "events_match": obs_events == base_events,
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help=f"node counts to measure (default {DEFAULT_SIZES})",
    )
    parser.add_argument(
        "--backends", nargs="+", default=None,
        help="backends to measure (default: every registered backend)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"CI-sized run: sizes {SMOKE_SIZES} (unless --sizes is given)",
    )
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--no-overhead-check", action="store_true",
        help="measure obs overhead but do not fail --smoke on the "
        f"{OBS_OVERHEAD_LIMIT_PCT:g}%% limit (for known-noisy hosts)",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT,
        help="artifact path (default: BENCH_engine.json at the repo root)",
    )
    args = parser.parse_args(argv)

    sizes = args.sizes or (SMOKE_SIZES if args.smoke else DEFAULT_SIZES)
    backends = args.backends or list_backends()
    unknown = set(backends) - set(list_backends())
    if unknown:
        parser.error(f"unknown backends {sorted(unknown)}; registered: {list_backends()}")

    results = []
    for stack in backends:
        for nodes in sizes:
            print(f"measuring {stack} at {nodes} nodes ...", flush=True)
            cell = run_cell(stack, nodes, args.seed)
            print(
                f"  {cell['events']:.0f} events in {cell['wall_s']:.1f}s "
                f"-> {cell['events_per_s']:.0f} events/s "
                f"({cell['sim_time']:.1f} simulated seconds)",
                flush=True,
            )
            results.append(cell)

    # "full"/"smoke" only when the run actually covered those size sets;
    # a --sizes-restricted run is labelled "partial" so artifact readers
    # are never misled about coverage.
    if sizes == DEFAULT_SIZES:
        mode = "full"
    elif sizes == SMOKE_SIZES:
        mode = "smoke"
    else:
        mode = "partial"
    obs_stack = "core" if "core" in backends else backends[0]
    obs_nodes = max(sizes)
    print(f"measuring obs overhead: {obs_stack} at {obs_nodes} nodes ...", flush=True)
    overhead = measure_obs_overhead(obs_stack, obs_nodes, args.seed)
    print(
        f"  base {overhead['base_wall_s']}s vs obs {overhead['obs_wall_s']}s "
        f"-> {overhead['overhead_pct']:+.2f}% "
        f"(events match: {overhead['events_match']})",
        flush=True,
    )

    artifact = {
        "bench": "engine_throughput",
        "mode": mode,
        "seed": args.seed,
        "sizes": sizes,
        "results": results,
        "obs_overhead": overhead,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(artifact, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")

    if not overhead["events_match"]:
        print("FAIL: recorder-corrected events_processed diverged from base run")
        return 1
    if args.smoke and not args.no_overhead_check:
        if overhead["overhead_pct"] > OBS_OVERHEAD_LIMIT_PCT:
            print(
                f"FAIL: flight-recorder overhead {overhead['overhead_pct']:.2f}% "
                f"exceeds the {OBS_OVERHEAD_LIMIT_PCT:g}% limit"
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The performance ledger: four named workloads, end-to-end and per-layer.

Three ways in (see README.md next to this file):

``run.py``
    the whole ledger: every workload, one at a time, each run in its
    own fresh interpreter (clean ``peak_rss_mb``) — ``--repeats``
    untraced runs for the end-to-end metrics plus one traced run for the
    per-layer metrics; prints every metric by name with its unit, runs
    the ``--check`` gates and writes the result file ``compare`` reads.

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    one run, the form ``BENCHMARK.json``'s ``command`` is driven in. The
    last line of stdout is the contract's JSON object, the line before
    it the run's full record.

``run.py compare A.json B.json``
    verdict per (workload, end-to-end metric) between two result files.

The program under ``src/`` is only ever handed generated specs and a
seed; every number is taken from outside it (``layers.py``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if (ROOT / "src").is_dir() and str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

try:
    from repro.scenarios.runner import run_scenario
    from repro.sim.metrics import percentile
except ImportError as error:  # the checkout has no program to measure
    sys.exit(f"error: cannot import the program under {ROOT / 'src'}: {error}")

import compare
from layers import SETUP_PHASES, LedgerRecorder, layer_metrics, unmapped_message_types
from workloads import WORKLOADS, build_spec, check_unit, plan_units, unit_seeds

LEDGER_VERSION = 1
# Callback wall the layer table may leave unclassified before the run fails.
MAX_UNCLASSIFIED_SHARE = 0.01
DEFAULT_OUT = HERE / "results" / "ledger.json"


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names, units and bounds
    are fixed."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def latency_summary(samples_s: List[float]) -> Dict[str, float]:
    """Median and p99 in milliseconds of simulated client latencies,
    with the sample count both rest on."""
    return {
        "sim_op_p50_ms": percentile(samples_s, 50) * 1e3,
        "sim_op_p99_ms": percentile(samples_s, 99) * 1e3,
        "n": len(samples_s),
    }


# ------------------------------------------------------------------ one unit


def run_unit(name: str, spec, seed: int, trace: bool) -> Dict[str, Any]:
    """One simulation of workload ``name`` at scenario seed ``seed``."""
    recorder = LedgerRecorder(trace=trace)
    result = run_scenario(spec, seed, recorder=recorder)
    metrics = result.metrics
    registry = recorder.sim.metrics
    latencies = [
        sample
        for hist in registry.histogram_names()
        if hist.endswith(".latency")
        for sample in registry.histogram(hist).samples
    ]
    load_ops, txn_ops = metrics["load_ops"], metrics.get("txn_ops", 0.0)
    attempted = int(load_ops + txn_ops + metrics.get("txn_not_issued", 0.0))
    succeeded = round(
        load_ops * metrics["load_success_rate"]
        + txn_ops * metrics.get("txn_success_rate", 0.0)
    )
    phases = recorder.phase_seconds()
    setup_s = sum(phases[phase] for phase in SETUP_PHASES)
    failed = attempted - succeeded
    unit: Dict[str, Any] = {
        "setup_s": setup_s,
        "run_s": sum(phases.values()) - setup_s,
        "messages": recorder.run_phase_messages(),
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "summary": result.summary_json(),
        "problems": check_unit(name, metrics, failed),
    }
    if trace:
        unit["layers"] = layer_metrics(recorder, metrics, len(latencies))
        unit["layers_by_phase"] = recorder.layers.by_phase
        unmapped = unmapped_message_types(registry.totals())
        if unmapped:
            unit["problems"].append(f"message types outside the layer table: {unmapped}")
        share = unit["layers"]["unclassified_share"]
        if share > MAX_UNCLASSIFIED_SHARE:
            unit["problems"].append(
                f"{share:.2%} of callback wall is outside the layer table"
            )
    return unit


# ------------------------------------------------------------------- one run


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool = False
) -> Dict[str, Any]:
    """One run of one workload: ``plan_units`` simulations at seeds
    derived from ``seed``, reduced to the run's metrics.

    Untraced, the metrics are the end-to-end ones: timings are medians
    over the units, the modelled quantities pool every unit's samples.
    Traced, every unit runs twice — untraced, then traced at the same
    seed — so the trace's overhead is measured against its own twin and
    the two summaries can be byte-compared; the metrics are then the
    per-layer ones, each the median over the traced units.
    """
    spec = build_spec(name, quick)
    units = []
    problems: List[str] = []
    for unit_seed in unit_seeds(seed, plan_units(name, seconds, trace, quick)):
        unit = run_unit(name, spec, unit_seed, trace=False)
        if trace:
            twin, unit = unit, run_unit(name, spec, unit_seed, trace=True)
            unit["layers"]["trace_overhead_ratio"] = unit["run_s"] / twin["run_s"]
            if unit["summary"] != twin["summary"]:
                unit["problems"].append("traced summary differs from the untraced one")
        problems += [f"seed {unit_seed}: {problem}" for problem in unit["problems"]]
        units.append(unit)
        gc.collect()

    if trace:
        metrics = {
            key: statistics.median(unit["layers"][key] for unit in units)
            for key in units[0]["layers"]
        }
    else:
        latencies = [sample for unit in units for sample in unit["latencies"]]
        summary = latency_summary(latencies)
        metrics = {
            "setup_s": statistics.median(unit["setup_s"] for unit in units),
            "run_s": statistics.median(unit["run_s"] for unit in units),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "msgs_per_op": sum(unit["messages"] for unit in units) / len(latencies),
            "sim_op_p50_ms": summary["sim_op_p50_ms"],
            "sim_op_p99_ms": summary["sim_op_p99_ms"],
        }
    sha = hashlib.sha256("\n".join(unit["summary"] for unit in units).encode()).hexdigest()
    record: Dict[str, Any] = {
        "version": LEDGER_VERSION,
        "workload": name,
        "mode": "quick" if quick else "full",
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "units": len(units),
        "correct": not problems,
        "problems": problems,
        "attempted": sum(unit["attempted"] for unit in units),
        "failed": sum(unit["failed"] for unit in units),
        "latency_n": sum(len(unit["latencies"]) for unit in units),
        "trajectory_sha": sha,
        "metrics": metrics,
    }
    if trace:
        # Self seconds per (phase, metric), one table per traced unit.
        record["layers_by_phase"] = [unit["layers_by_phase"] for unit in units]
    return record


def contract_line(record: Dict[str, Any], contract: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON object ``BENCHMARK.json``'s driver reads: exactly the
    declared metrics of the run's kind, each with its declared unit."""
    declared = contract["per_layer" if record["trace"] else "end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric["name"]: {
                "value": record["metrics"][metric["name"]],
                "unit": metric["unit"],
            }
            for metric in declared
        },
    }


# ---------------------------------------------------------------- the ledger


def _child_run(name: str, seed: int, seconds: float, trace: int, quick: bool) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; returns its record."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--no-check",
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stdout}{done.stderr}")
    return json.loads(done.stdout.splitlines()[-2])


def run_ledger(
    seed: int, seconds: float, repeats: int, quick: bool, contract: Dict[str, Any]
) -> Dict[str, Any]:
    """Every workload, one at a time: ``repeats`` untraced runs and one
    traced run each, every run in its own single-threaded interpreter."""
    result: Dict[str, Any] = {
        "version": LEDGER_VERSION,
        "mode": "quick" if quick else "full",
        "seed": seed,
        "seconds": seconds,
        "repeats": repeats,
        "workloads": {},
    }
    for name in WORKLOADS:
        print(f"== {name}: {WORKLOADS[name].why}", flush=True)
        untraced = [_child_run(name, seed, seconds, 0, quick) for _ in range(repeats)]
        traced = _child_run(name, seed, seconds, 1, quick)
        first = untraced[0]
        end_to_end = {}
        for metric in contract["end_to_end"]:
            values = [run["metrics"][metric["name"]] for run in untraced]
            q1, median, q3 = compare.quartiles(values)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "values": values,
                "median": median, "q1": q1, "q3": q3, "n": len(values),
            }
        problems = [p for run in untraced + [traced] for p in run["problems"]]
        result["workloads"][name] = {
            "faults": WORKLOADS[name].faults,
            "units": first["units"],
            "traced_units": traced["units"],
            "end_to_end": end_to_end,
            "per_layer": {
                metric["name"]: {"unit": metric["unit"], "value": traced["metrics"][metric["name"]]}
                for metric in contract["per_layer"]
            },
            "ops_attempted": first["attempted"],
            "ops_failed": first["failed"],
            "ops_failed_ratio": first["failed"] / first["attempted"],
            "latency_n": first["latency_n"],
            "trajectory_sha": first["trajectory_sha"],
            "traced_trajectory_sha": traced["trajectory_sha"],
            "layers_by_phase": traced["layers_by_phase"],
            "correct": not problems,
            "problems": problems,
        }
        print(format_workload(result["workloads"][name]), flush=True)
    return result


def format_workload(entry: Dict[str, Any]) -> str:
    lines = [f"  end to end ({entry['units']} units per run, untraced):"]
    for name, m in entry["end_to_end"].items():
        lines.append(
            f"    {name:<24} {m['median']:>14.6g} {m['unit']:<6} "
            f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']}]"
        )
    lines.append(
        f"    {'ops_failed_ratio':<24} {entry['ops_failed_ratio']:>14.6g} {'ratio':<6} "
        f"[ops_attempted {entry['ops_attempted']}, ops_failed {entry['ops_failed']}, "
        f"latency samples {entry['latency_n']}]"
    )
    lines.append(f"    trajectory_sha           {entry['trajectory_sha']}")
    lines.append(f"  per layer (median of {entry['traced_units']} traced units):")
    for name, m in entry["per_layer"].items():
        lines.append(f"    {name:<24} {m['value']:>14.6g} {m['unit']}")
    verdict = "all gates passed" if entry["correct"] else "FAILED: " + "; ".join(entry["problems"])
    lines.append(f"  check: {verdict}")
    return "\n".join(lines)


# ----------------------------------------------------------------------- CLI


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    contract = load_contract()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json")
            return 2
        return compare.main(argv[1], argv[2], contract["end_to_end"])

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run this workload once (default: the whole ledger)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]), help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="with --workload: 1 = per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="sizes / 5, one unit: a smoke test, not comparable with full results")
    parser.add_argument("--check", action=argparse.BooleanOptionalAction, default=True, help="fail the run when a correctness gate does")
    parser.add_argument("--repeats", type=int, default=3, help="whole ledger: untraced runs per workload")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="whole ledger: result file")
    args = parser.parse_args(argv)

    if args.workload is not None:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
        for problem in record["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
        print(json.dumps(record))
        print(json.dumps(contract_line(record, contract)))
        return 1 if args.check and not record["correct"] else 0

    result = run_ledger(args.seed, args.seconds, args.repeats, args.quick, contract)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")
    correct = all(entry["correct"] for entry in result["workloads"].values())
    return 1 if args.check and not correct else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: run demos and experiments without writing code.

Usage (after ``pip install -e .``)::

    python -m repro demo                 # 60-node put/get walkthrough
    python -m repro fig3 --nodes 100 200 # Figure 3 sweep (paper-figures spec)
    python -m repro fig3 --nodes 500 1000 1500 2000 2500 3000  # paper sizes
    python -m repro fig4 --nodes 100 200 # Figure 4 sweep
    python -m repro check --nodes 50     # deploy, load, health report
    python -m repro backends list        # registered storage backends
    python -m repro scenarios list       # bundled scenario catalogue
    python -m repro scenarios run catastrophic-failure --seed 7
    python -m repro scenarios run flight-recorder --timeline --trace --profile
    python -m repro report obs/flight-recorder-s11   # inspect run artifacts
    python -m repro scenarios sweep baseline --seeds 0 1 2 --jobs 4
    python -m repro scenarios validate my-spec.toml  # check without running
    python -m repro hunt run --seed 7 --budget 8 --shrink --export specs/regressions
    python -m repro hunt shrink --seed 7 --candidate 0
    python -m repro hunt replay specs/regressions    # exit 1 if bounds break
    python -m repro lint src                         # determinism hazard scan
    python -m repro lint src --format json           # machine-readable report
    python -m repro lint src --select I2,D1          # scope to chosen families
    python -m repro scenarios run baseline --sanitize  # runtime tripwires armed
    python -m repro scenarios run baseline --isolation-check  # payload checker
    python -m repro protocol graph --format dot      # static message graph
    python -m repro scenarios run baseline --protocol-coverage  # edge accounting

Each subcommand prints the same tables the benches emit, so the CLI is
the quickest way to eyeball a result before running the full pytest
benches.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.aggregate import aggregate_table_rows
from repro.analysis.health import check_cluster
from repro.analysis.tables import format_series, format_table, rows_to_table
from repro.backends import REGISTRY, get_backend
from repro.core.cluster import DataFlasksCluster
from repro.core.config import DataFlasksConfig
from repro.errors import ConfigurationError, DeterminismError, IsolationError
from repro.obs.recorder import FlightRecorder, ObservabilitySpec, render_report
from repro.scenarios.registry import bundled_names, load_all_bundled, load_bundled
from repro.scenarios.registry import figure3_spec, figure4_spec, figure_rows
from repro.scenarios.runner import RunOptions, run_scenario, run_sweep
from repro.scenarios.spec import ScenarioSpec, load_spec

__all__ = ["main", "build_parser"]

FIG_COLUMNS = ["n", "num_slices", "ops", "messages_per_node", "success_rate"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DATAFLASKS reproduction — demos and paper experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="boot a cluster and run a put/get walkthrough")
    demo.add_argument("--nodes", type=int, default=60)
    demo.add_argument("--slices", type=int, default=5)
    demo.add_argument("--seed", type=int, default=42)

    fig3 = sub.add_parser("fig3", help="Figure 3 sweep: constant slices")
    fig3.add_argument("--nodes", type=int, nargs="+", default=[100, 200, 300])
    fig3.add_argument("--slices", type=int, default=10)
    fig3.add_argument("--records", type=int, default=200)
    fig3.add_argument("--seed", type=int, default=0)

    fig4 = sub.add_parser("fig4", help="Figure 4 sweep: slices proportional to nodes")
    fig4.add_argument("--nodes", type=int, nargs="+", default=[100, 200, 300])
    fig4.add_argument("--nodes-per-slice", type=int, default=10)
    fig4.add_argument("--records-per-slice", type=int, default=10)
    fig4.add_argument("--seed", type=int, default=0)

    check = sub.add_parser("check", help="deploy, load data, print a health report")
    check.add_argument("--nodes", type=int, default=50)
    check.add_argument("--slices", type=int, default=5)
    check.add_argument("--keys", type=int, default=10)
    check.add_argument("--seed", type=int, default=7)

    backends = sub.add_parser(
        "backends", help="pluggable storage backends (list)"
    )
    backends_action = backends.add_subparsers(dest="action", required=True)
    backends_action.add_parser("list", help="show registered backends")

    scenarios = sub.add_parser(
        "scenarios", help="declarative experiments (list, run, sweep)"
    )
    action = scenarios.add_subparsers(dest="action", required=True)

    action.add_parser("list", help="show the bundled scenario catalogue")

    run = action.add_parser("run", help="execute one scenario at one seed")
    _add_scenario_selection(run)
    run.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    run.add_argument(
        "--summary",
        action="store_true",
        help="print the canonical JSON summary instead of a table "
        "(byte-identical across runs of the same spec and seed)",
    )
    run.add_argument(
        "--brief",
        action="store_true",
        help="print a human top-line (ops, damage, availability) instead "
        "of the full metric table",
    )
    _add_guard_flags(run)
    obs_group = run.add_argument_group(
        "observability",
        "flight-recorder pillars; each flag forces its pillar on, the "
        "spec's [observability] section supplies the rest. Artifacts "
        "land in --obs-dir; run `repro report DIR` to inspect them.",
    )
    obs_group.add_argument(
        "--timeline",
        action="store_true",
        help="record a per-window counter/damage timeline (timeline.json)",
    )
    obs_group.add_argument(
        "--trace",
        action="store_true",
        help="trace sampled ops causally through the network "
        "(trace.json, Chrome/Perfetto trace-event format)",
    )
    obs_group.add_argument(
        "--profile",
        action="store_true",
        help="profile wall-clock hotspots on the event loop (hotspots.json)",
    )
    obs_group.add_argument(
        "--no-obs",
        action="store_true",
        help="ignore the spec's [observability] section (explicit "
        "--timeline/--trace/--profile flags still apply)",
    )
    obs_group.add_argument(
        "--obs-dir",
        metavar="DIR",
        help="artifact directory (default obs/<scenario>-s<seed>)",
    )

    sweep = action.add_parser("sweep", help="run a scenario over several seeds")
    _add_scenario_selection(sweep)
    sweep.add_argument(
        "--seeds", type=int, nargs="+", default=[0, 1, 2], help="seeds to run"
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes to spread the seeds over (default 1, serial; "
        "aggregates are byte-identical whatever the job count)",
    )
    sweep.add_argument(
        "--summary",
        action="store_true",
        help="print the canonical JSON aggregate instead of a table "
        "(byte-identical across runs and across --jobs values)",
    )
    _add_guard_flags(sweep)

    validate = action.add_parser(
        "validate",
        help="check a .toml/.json spec (its stack against the backend "
        "registry, and its [faults] schedule) without running it",
    )
    validate.add_argument(
        "spec",
        help="path to a spec file, or a bundled scenario name",
    )

    report = sub.add_parser(
        "report",
        help="render a flight-recorder artifact directory",
        description="Render the artifacts one `scenarios run "
        "--timeline/--trace/--profile` wrote: manifest provenance, the "
        "per-window timeline as rates, the hotspot table, and the trace "
        "summary. Point Perfetto (ui.perfetto.dev) at trace.json for the "
        "interactive view.",
    )
    report.add_argument(
        "directory",
        help="artifact directory containing manifest.json (or the "
        "manifest path itself)",
    )
    report.add_argument(
        "--top",
        type=int,
        default=12,
        help="rows to show in the hotspot table (default 12)",
    )

    hunt = sub.add_parser(
        "hunt",
        help="adversarial nemesis search (run, shrink, replay)",
        description="Jepsen-style consistency hunter: sample randomized "
        "fault schedules, score their damage against the oracle backend "
        "on identical inputs, shrink violations to minimal reproducers, "
        "and freeze them as regression specs.",
    )
    hunt_action = hunt.add_subparsers(dest="action", required=True)

    hunt_run = hunt_action.add_parser(
        "run", help="sample and score a budget of candidate schedules"
    )
    _add_hunt_options(hunt_run)
    hunt_run.add_argument(
        "--budget", type=int, default=8, help="candidate schedules to score"
    )
    hunt_run.add_argument(
        "--shrink",
        action="store_true",
        help="also shrink the best violation to a minimal reproducer",
    )
    hunt_run.add_argument(
        "--export",
        metavar="DIR",
        help="with --shrink: write the reproducer as a regression spec here",
    )
    hunt_run.add_argument(
        "--log",
        metavar="FILE",
        help="write the canonical JSON hunt log here (byte-identical "
        "across replays of the same seed/config — CI compares two directly)",
    )
    hunt_run.add_argument(
        "--summary",
        action="store_true",
        help="print the canonical JSON hunt log instead of tables",
    )
    hunt_run.add_argument(
        "--timeline-window",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="attach a per-candidate damage timeline with this window "
        "(0 = off, the default — hunt logs then match pre-obs hunts)",
    )

    hunt_shrink = hunt_action.add_parser(
        "shrink", help="shrink one candidate of a previous hunt by its index"
    )
    _add_hunt_options(hunt_shrink)
    hunt_shrink.add_argument(
        "--candidate", type=int, required=True, help="candidate index to shrink"
    )
    hunt_shrink.add_argument(
        "--shrink-budget",
        type=int,
        default=40,
        help="max score evaluations the shrinker may spend",
    )
    hunt_shrink.add_argument(
        "--export",
        metavar="DIR",
        help="write the minimal reproducer as a regression spec here",
    )

    hunt_replay = hunt_action.add_parser(
        "replay",
        help="replay regression specs and check their expected-damage bounds",
    )
    hunt_replay.add_argument(
        "specs",
        nargs="+",
        help="regression spec .toml files (or directories of them)",
    )
    hunt_replay.add_argument(
        "--summary",
        action="store_true",
        help="print each replayed score as canonical JSON",
    )

    lint = sub.add_parser(
        "lint",
        help="static determinism & isolation hazard scan (AST pass)",
        description="Walk the source tree and flag determinism hazards — "
        "ambient randomness (D1xx), wall-clock reads (D2xx), hash/"
        "filesystem order dependence (D3xx), __all__ drift (D4xx) — and "
        "isolation hazards: cross-node reach-through (I1xx), payload "
        "aliasing (I2xx), mutation-after-forward (I3xx), callback "
        "capture (I4xx) — and protocol-flow hazards judged against the "
        "whole-program message graph: dead letters (P1xx), payload "
        "schema drift (P2xx), request/reply discipline (P3xx), dead "
        "protocol code (P4xx). "
        "The only exemptions are the audited [[baseline]] budgets in the "
        "committed .repro-lint.toml policy. Exits non-zero on any "
        "un-baselined violation.",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to scan (default: src)",
    )
    lint.add_argument(
        "--config",
        metavar="FILE",
        help="policy file (default: ./.repro-lint.toml if present, else "
        "built-in defaults with an empty baseline)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (json is canonical: sorted keys, stable "
        "ordering — byte-identical across runs of the same tree)",
    )
    lint.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids/families to scope the run to "
        "(e.g. I2,D1); unknown selectors exit 2",
    )
    lint.add_argument(
        "--verbose",
        action="store_true",
        help="also list the findings the baseline absorbed",
    )
    lint.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write a policy file absorbing every current violation "
        "(each entry gets a TODO justification to fill in), then exit 0",
    )

    protocol = sub.add_parser(
        "protocol",
        help="whole-program message graph (static protocol artifact)",
        description="Extract the static protocol graph of the sim path — "
        "message dataclasses, send sites, handler registrations — and "
        "serialise it. Output is deterministic byte-for-byte: two "
        "invocations over the same tree emit identical artifacts (the "
        "CI gate byte-compares them).",
    )
    protocol_action = protocol.add_subparsers(dest="action", required=True)
    graph = protocol_action.add_parser(
        "graph", help="emit the message graph as JSON or Graphviz DOT"
    )
    graph.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to scan (default: the installed "
        "repro package)",
    )
    graph.add_argument(
        "--config",
        metavar="FILE",
        help="lint policy file (sim-path classification; default: "
        "./.repro-lint.toml if present, else built-in defaults)",
    )
    graph.add_argument(
        "--format",
        choices=["json", "dot"],
        default="json",
        help="artifact format (default json; both are byte-stable)",
    )

    return parser


def _add_hunt_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=0, help="search seed (derives every candidate)"
    )
    parser.add_argument(
        "--stack", default="core", help="backend under test (default core)"
    )
    parser.add_argument(
        "--nodes", type=int, default=20, help="base-experiment population"
    )
    parser.add_argument(
        "--records", type=int, default=8, help="records loaded before the fault phase"
    )
    parser.add_argument(
        "--ops", type=int, default=40, help="transaction-phase operation count"
    )


def _add_scenario_selection(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "scenario",
        nargs="?",
        help=f"bundled scenario name ({', '.join(bundled_names())})",
    )
    parser.add_argument(
        "--spec", help="path to a custom .toml/.json spec (instead of a bundled name)"
    )
    parser.add_argument(
        "--nodes", type=int, default=None, help="override the spec's population"
    )
    parser.add_argument(
        "--records", type=int, default=None, help="override the workload record count"
    )
    parser.add_argument(
        "--ops", type=int, default=None, help="override the transaction op count"
    )


def _add_guard_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "run-time checks",
        "each is trajectory-neutral (summaries match a plain run) and "
        "applies to every seed's run, worker processes included",
    )
    group.add_argument(
        "--sanitize",
        action="store_true",
        help="arm the runtime determinism guard: any ambient random.* "
        "call or time.time read during the run raises DeterminismError",
    )
    group.add_argument(
        "--isolation-check",
        action="store_true",
        help="arm the copy-on-send payload checker: every payload is "
        "digested at Network.send and re-verified at delivery; an "
        "in-flight mutation raises IsolationError",
    )
    group.add_argument(
        "--protocol-coverage",
        action="store_true",
        help="account every delivery per (node class, message type) edge "
        "and report, on stderr, which static protocol edges the run(s) "
        "never exercised",
    )


def _run_options(args: argparse.Namespace) -> RunOptions:
    return RunOptions(
        sanitize=args.sanitize,
        isolation_check=args.isolation_check,
        protocol_coverage=args.protocol_coverage,
    )


def _resolve_spec(args: argparse.Namespace) -> ScenarioSpec:
    if args.spec and args.scenario:
        raise SystemExit(
            f"give either a bundled scenario name ({args.scenario!r}) or "
            f"--spec {args.spec!r}, not both"
        )
    if args.spec:
        spec = _checked_spec(load_spec, args.spec)
    elif args.scenario:
        spec = _checked_spec(load_bundled, args.scenario)
    else:
        raise SystemExit("give a bundled scenario name or --spec FILE")
    overrides = {}
    if args.nodes is not None:
        overrides["nodes"] = args.nodes
    if args.records is not None:
        overrides["record_count"] = args.records
    if args.ops is not None:
        overrides["operation_count"] = args.ops
    return spec.scaled(**overrides) if overrides else spec


def _cmd_demo(args: argparse.Namespace) -> int:
    cluster = DataFlasksCluster(
        n=args.nodes, config=DataFlasksConfig(num_slices=args.slices), seed=args.seed
    )
    print(f"booting {args.nodes} nodes / {args.slices} slices ...")
    cluster.warm_up(10)
    converged = cluster.wait_for_slices(timeout=120)
    print(f"slicing converged: {converged}; populations {cluster.slice_population()}")
    client = cluster.new_client()
    cluster.put_sync(client, "demo:key", b"hello dataflasks", version=1)
    result = cluster.get_sync(client, "demo:key")
    print(f"get(demo:key) -> {result.value!r} (version {result.result_version})")
    cluster.sim.run_for(15)
    print(f"replication level: {cluster.replication_level('demo:key')}")
    print(f"per-node message load: {cluster.server_message_load()['handled']:.1f}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.command == "fig3":
        title = "Figure 3 (expected: roughly flat)"
        specs = [figure3_spec(n, args.slices, args.records) for n in args.nodes]
    else:
        title = "Figure 4 (expected: growing with system size)"
        specs = [
            figure4_spec(n, args.nodes_per_slice, args.records_per_slice)
            for n in args.nodes
        ]
    rows = figure_rows(specs, args.seed)
    print(rows_to_table(rows, FIG_COLUMNS))
    series = [(r["n"], r["messages_per_node"]) for r in rows]
    print(format_series(title, "nodes", "msgs/node", series))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    cluster = DataFlasksCluster(
        n=args.nodes, config=DataFlasksConfig(num_slices=args.slices), seed=args.seed
    )
    cluster.warm_up(10)
    cluster.wait_for_slices(timeout=120)
    client = cluster.new_client()
    for i in range(args.keys):
        cluster.put_sync(client, f"check:{i}", f"value-{i}".encode(), version=1)
    cluster.sim.run_for(20)
    report = check_cluster(cluster)
    print(report.summary())
    print(f"healthy: {report.healthy}")
    return 0 if report.healthy else 1


def _cmd_backends(args: argparse.Namespace) -> int:
    # Only `list` exists today; argparse enforces the action.
    rows = [
        {"name": name, "class": cls.__name__, "description": cls.description}
        for name, cls in REGISTRY.items()
    ]
    print(rows_to_table(rows, ["name", "class", "description"]))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    if args.action == "list":
        rows = [
            {
                "name": name,
                "stack": spec.stack,
                "nodes": spec.nodes,
                "churn": spec.churn.kind if spec.churn else "-",
                "faults": ",".join(f.kind for f in spec.faults) or "-",
                "workload": spec.workload.preset,
                "mode": spec.workload.mode,
                "description": spec.description,
            }
            for name, spec in load_all_bundled().items()
        ]
        print(
            rows_to_table(
                rows,
                ["name", "stack", "nodes", "churn", "faults", "workload", "mode",
                 "description"],
            )
        )
        return 0

    if args.action == "validate":
        return _validate_spec(args.spec)

    spec = _resolve_spec(args)
    if args.action == "run":
        obs = _observability(spec, args)
        recorder = FlightRecorder(obs)
        result = run_scenario(
            spec, seed=args.seed, recorder=recorder, options=_run_options(args)
        )
        if args.summary:
            print(result.summary_json())
        elif args.brief:
            for line in _brief_lines(spec, result):
                print(line)
        else:
            print(f"scenario: {result.scenario} (seed {result.seed})")
            print(
                format_table(
                    ["metric", "value"], sorted(result.metrics.items())
                )
            )
        if obs.enabled:
            obs_dir = args.obs_dir or os.path.join(
                "obs", f"{result.scenario}-s{result.seed}"
            )
            manifest_path = recorder.write_artifacts(obs_dir, spec, result)
            # Artifact chatter goes to stderr: --summary stdout is
            # byte-compared in CI and must stay pure.
            print(f"obs artifacts: {obs_dir} ({manifest_path})", file=sys.stderr)
            print(f"inspect with: repro report {obs_dir}", file=sys.stderr)
        if result.coverage is not None:
            _print_protocol_coverage(result.coverage)
        return 0

    # sweep
    result = run_sweep(
        spec, seeds=args.seeds, jobs=args.jobs, options=_run_options(args)
    )
    if result.coverage is not None:
        _print_protocol_coverage(result.coverage)
    if args.summary:
        print(result.summary_json())
        return 0
    print(f"scenario: {result.scenario} over seeds {result.seeds}")
    print(
        rows_to_table(
            aggregate_table_rows(result.aggregate),
            ["metric", "mean", "stdev", "min", "max", "n"],
        )
    )
    return 0


def _checked_spec(load: Callable[[str], ScenarioSpec], target: str) -> ScenarioSpec:
    """``load(target)`` checked in full: parsing resolves ``stack``
    against the backend registry and checks every sub-spec, then the
    workload is built. An unreadable or invalid spec is a
    ConfigurationError, which ``main`` prints as one ``error:`` line
    (exit 2)."""
    try:
        spec = load(target)
        spec.workload.build()
    except OSError as exc:
        raise ConfigurationError(f"cannot read spec: {exc}") from None
    except (ConfigurationError, ValueError) as exc:
        # ValueError covers TOML/JSON decode errors; ConfigurationError
        # covers every semantic check the sub-specs run on construction.
        raise ConfigurationError(f"invalid spec: {exc}") from None
    return spec


def _validate_spec(target: str) -> int:
    """Check a spec file (or bundled name) without running it."""
    load = load_spec if target.endswith((".toml", ".json")) else load_bundled
    spec = _checked_spec(load, target)
    backend = get_backend(spec.stack)  # registry-checked at spec build too
    print(f"spec OK: {spec.name} ({spec.stack}, {spec.nodes} nodes, seed {spec.seed})")
    print(f"  backend: {spec.stack} — {backend.description}")
    drive = spec.workload.mode
    if drive == "open":
        drive += (
            f", {spec.workload.clients} clients, "
            f"{spec.workload.rate:g} ops/s {spec.workload.arrival}"
        )
    print(
        f"  workload: {spec.workload.preset} "
        f"(load {spec.workload.record_count}, txn {spec.workload.operation_count}, "
        f"{drive})"
    )
    print(f"  churn: {spec.churn.kind if spec.churn else '-'}")
    print(f"  metrics: {', '.join(spec.metrics)}")
    if spec.faults:
        rows = [{"kind": f.kind, "start": f.start, "heals_at": f.end} for f in spec.faults]
        print("  faults:")
        print(rows_to_table(rows, ["kind", "start", "heals_at"]))
    else:
        print("  faults: none")
    return 0


def _observability(spec: ScenarioSpec, args: argparse.Namespace) -> ObservabilitySpec:
    """The run's flight-recorder configuration: ``spec.observability``
    with each pillar on when its CLI flag forces it, or when the spec
    enables it and ``--no-obs`` was not given. Spec-level tuning
    (window, sample rate) always comes from the spec."""
    obs = spec.observability
    keep = not args.no_obs
    return replace(
        obs,
        timeline=args.timeline or (keep and obs.timeline),
        trace=args.trace or (keep and obs.trace),
        profile=args.profile or (keep and obs.profile),
    )


def _brief_lines(spec: ScenarioSpec, result) -> List[str]:
    """The human top-line for one run: what happened, what it damaged."""
    m = result.metrics

    def count(key: str) -> int:
        return int(m.get(key, 0.0))

    lines = [
        f"{result.scenario}: {spec.stack} stack, {count('population_total') or spec.nodes} "
        f"nodes, seed {result.seed}"
    ]
    if "txn_ops" in m:
        ops = (
            f"  ops: {count('load_ops')} loaded, {count('txn_ops')} transactions "
            f"({m.get('txn_success_rate', 0.0):.1%} ok"
        )
        if "txn_offered" in m:
            ops += (
                f"; open loop: {count('txn_offered')} offered, "
                f"{count('txn_timed_out')} timed out"
            )
        lines.append(ops + ")")
        kinds = sorted(
            key[len("latency_"):-len("_p99")]
            for key in m
            if key.startswith("latency_") and key.endswith("_p99")
        )
        for kind in kinds:
            lines.append(
                f"  latency ({kind}): p50 {m.get(f'latency_{kind}_p50', 0.0):g}s "
                f"p99 {m.get(f'latency_{kind}_p99', 0.0):g}s"
            )
    if "stale_reads" in m:
        lines.append(
            f"  damage: {count('stale_reads')} stale reads, "
            f"{count('lost_updates')} lost updates, "
            f"{count('lost_objects')} lost objects"
        )
        lines.append(
            f"  availability: {count('unavail_windows')} windows over "
            f"{count('unavail_keys')} keys "
            f"(mean {m.get('unavail_window_mean', 0.0):g}s, "
            f"max {m.get('unavail_window_max', 0.0):g}s)"
        )
    if "faults_injected" in m:
        lines.append(
            f"  faults: {count('faults_injected')} injected, "
            f"{count('faults_healed')} healed"
        )
    lines.append(
        f"  sim: {m.get('sim_time', 0.0):g}s, "
        f"{count('events_processed')} events"
    )
    return lines


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        print(render_report(args.directory, top=args.top))
    except OSError as exc:
        print(f"error: cannot read artifacts: {exc}")
        return 2
    return 0


def _hunt_config(args: argparse.Namespace) -> "HuntConfig":
    from repro.search import HuntConfig

    return HuntConfig(
        search_seed=args.seed,
        budget=getattr(args, "budget", 1),
        stack=args.stack,
        nodes=args.nodes,
        records=args.records,
        operations=args.ops,
        timeline_window=getattr(args, "timeline_window", 0.0),
    )


def _print_schedule(faults) -> None:
    def targets(f) -> str:
        if f.kind == "burst_loss":
            return "all links"
        if f.nodes:
            return str(f.nodes)
        if f.groups:
            return str(f.groups)
        return f"{f.fraction:g} of cluster"

    rows = [
        {
            "kind": f.kind,
            "start": f.start,
            "duration": f.duration,
            "targets": targets(f),
            "loss": f.loss or "-",
        }
        for f in faults
    ]
    print(rows_to_table(rows, ["kind", "start", "duration", "targets", "loss"]))


def _cmd_hunt(args: argparse.Namespace) -> int:
    from repro.search import (
        check_bounds,
        export_candidate,
        list_regressions,
        load_regression,
        run_hunt,
        score_scenario,
        shrink_candidate,
    )
    from repro.search.scorer import ORACLE_STACK

    if args.action == "replay":
        paths: List[str] = []
        for target in args.specs:
            found = list_regressions(target)
            paths.extend(found if found else [target])
        failures = 0
        for path in paths:
            try:
                reg = load_regression(path)
            except OSError as exc:
                print(f"error: cannot read regression spec: {exc}")
                return 2
            score = score_scenario(reg.scenario)
            problems = check_bounds(reg, score)
            if args.summary:
                print(score.summary_json())
            status = "ok" if not problems else "FAIL"
            print(f"{status}: {reg.name} ({path})")
            for problem in problems:
                print(f"  {problem}")
                failures += 1
        return 1 if failures else 0

    config = _hunt_config(args)

    if args.action == "shrink":
        result = shrink_candidate(
            config, args.candidate, shrink_budget=args.shrink_budget
        )
        print(
            f"shrunk candidate {args.candidate} of seed {config.search_seed} "
            f"to {result.injectors} injector(s) in {result.evals} evaluations"
            + (" (budget exhausted)" if result.exhausted else "")
        )
        for step in result.steps:
            print(f"  {step}")
        _print_schedule(result.faults)
        print(f"damage: {result.score.summary_json()}")
        if args.export:
            path = export_candidate(args.export, config, args.candidate, result)
            print(f"exported regression spec: {path}")
        return 0

    # run
    def progress(candidate) -> None:
        if args.summary:
            return
        flag = "VIOLATION" if candidate.violation else "clean"
        kinds = ",".join(f.kind for f in candidate.faults)
        print(
            f"candidate {candidate.index}: {flag:9s} "
            f"total={candidate.score.total:g} [{kinds}]"
        )

    result = run_hunt(config, progress=progress)
    log = result.log_json()
    if args.log:
        with open(args.log, "w", encoding="utf-8") as f:
            f.write(log + "\n")
    if args.summary:
        print(log)
    else:
        print(
            f"hunt: {len(result.violations)}/{config.budget} candidates "
            f"violated consistency ({config.stack} vs {ORACLE_STACK}, "
            f"seed {config.search_seed})"
        )
    best = result.best
    if best is None:
        return 0
    if not args.summary:
        print(f"best: candidate {best.index} (damage {best.score.total:g})")
        _print_schedule(best.faults)
    if args.shrink:
        shrunk = shrink_candidate(config, best.index, faults=best.faults)
        if not args.summary:
            print(
                f"shrunk to {shrunk.injectors} injector(s) "
                f"in {shrunk.evals} evaluations"
            )
            _print_schedule(shrunk.faults)
        if args.export:
            path = export_candidate(args.export, config, best.index, shrunk)
            print(f"exported regression spec: {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        LintConfig,
        baseline_from_violations,
        format_json,
        format_text,
        lint_paths,
        render_policy_toml,
    )

    config = LintConfig.load(args.config)
    select = (
        [s.strip() for s in args.select.split(",") if s.strip()]
        if args.select
        else None
    )
    if args.write_baseline:
        # Regenerate against an empty baseline so existing budget entries
        # don't absorb the violations we are trying to record.
        result = lint_paths(args.paths, replace(config, baseline=[]), select=select)
        baseline = baseline_from_violations(result.violations)
        with open(args.write_baseline, "w", encoding="utf-8") as f:
            f.write(render_policy_toml(baseline))
        print(
            f"wrote {args.write_baseline}: {len(baseline)} baseline "
            f"entr{'y' if len(baseline) == 1 else 'ies'} absorbing "
            f"{len(result.violations)} violation(s) — fill in each "
            "justification before committing"
        )
        return 0
    result = lint_paths(args.paths, config, select=select)
    if args.format == "json":
        print(format_json(result))
    else:
        print(format_text(result, verbose=args.verbose))
    return result.exit_code


def _default_protocol_paths() -> list:
    """The installed ``repro`` package — the tree the runtime actually
    executes, so runtime coverage and the static graph always describe
    the same code."""
    import repro

    return [os.path.dirname(os.path.abspath(repro.__file__))]


def _cmd_protocol(args: argparse.Namespace) -> int:
    from repro.lint import LintConfig, build_protocol_graph

    config = LintConfig.load(args.config)
    paths = args.paths or _default_protocol_paths()
    graph = build_protocol_graph(paths, config)
    artifact = graph.to_dot() if args.format == "dot" else graph.to_json()
    sys.stdout.write(artifact)
    return 0


def _print_protocol_coverage(coverage: Dict[str, Dict[str, int]]) -> None:
    """After a ``--protocol-coverage`` run or sweep: diff the static
    handler edges against the handled counters. Chatter goes to stderr —
    ``--summary`` stdout is byte-compared in CI and must stay pure."""
    from repro.lint import LintConfig, build_protocol_graph, unexercised_edges

    graph = build_protocol_graph(_default_protocol_paths(), LintConfig.load(None))
    missing = unexercised_edges(graph, coverage)
    total = len(graph.handle_edges())
    handled = sum(coverage["handled"].values())
    print(
        f"protocol coverage: {total - len(missing)}/{total} static handler "
        f"edges exercised ({handled} handled deliveries)",
        file=sys.stderr,
    )
    for endpoint, message, handlers in missing:
        names = ", ".join(handlers) if handlers else "?"
        print(
            f"  unexercised: {message} -> {endpoint}.{names}",
            file=sys.stderr,
        )


_COMMANDS = {
    "demo": _cmd_demo,
    "fig3": _cmd_figure,
    "fig4": _cmd_figure,
    "check": _cmd_check,
    "backends": _cmd_backends,
    "scenarios": _cmd_scenarios,
    "report": _cmd_report,
    "hunt": _cmd_hunt,
    "lint": _cmd_lint,
    "protocol": _cmd_protocol,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"error: {exc}")
        return 2
    except DeterminismError as exc:
        # A sanitized run tripped a runtime guard: report the offender
        # the same way `repro lint` reports its static counterpart.
        print(f"determinism violation: {exc}")
        return 3
    except IsolationError as exc:
        # An --isolation-check run caught an in-flight payload mutation.
        print(f"isolation violation: {exc}")
        return 3

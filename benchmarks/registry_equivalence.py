"""Behaviour-equivalence gate over the bundled scenario registry.

``dump`` runs every bundled spec except the ``scale-*`` ones at each
given seed and writes ``{"<spec>@<seed>": result.metrics}`` as JSON.
``diff`` compares two dumps and prints every metric that differs; names
passed to ``--allow`` are tabulated but do not fail the gate. Exit 1 on
any other difference. ``report`` is the gate for a change that *means*
to move the trajectory: per spec, the mean ± stdev over seeds of the
dependability metrics, old vs new; exit 1 if ``lost_objects`` or
``lost_updates`` rises or ``load_success_rate`` falls on any spec. To
dump another commit, point ``PYTHONPATH`` at its ``src/``::

    PYTHONPATH=src python benchmarks/registry_equivalence.py dump --seeds 1 2 --out new.json
    python benchmarks/registry_equivalence.py diff old.json new.json --allow events_processed
    python benchmarks/registry_equivalence.py report old.json new.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

# metric -> the direction that is better; ``report`` prints these.
REPORT = {
    "lost_objects": "lower",
    "lost_updates": "lower",
    "stale_reads": "lower",
    "replication_min": "higher",
    "txn_success_rate": "higher",
    "unavail_window_mean": "lower",
    "messages_per_node": "lower",
    "load_success_rate": "higher",
}
# The metrics whose mean a change may not make worse at all.
GATE = {"lost_objects", "lost_updates", "load_success_rate"}


def dump(seeds, out):
    from repro.scenarios.registry import bundled_names, load_bundled
    from repro.scenarios.runner import run_scenario

    runs = {}
    for name in bundled_names():
        if not name.startswith("scale-"):
            for seed in seeds:
                runs[f"{name}@{seed}"] = run_scenario(load_bundled(name), seed).metrics
                print(f"{name}@{seed}", file=sys.stderr)
    with open(out, "w") as fh:
        json.dump(runs, fh, indent=1, sort_keys=True)
    return 0


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def diff(old_path, new_path, allow):
    old, new = _load(old_path), _load(new_path)
    failed = sorted(set(old) ^ set(new))
    print(f"{'run':32} {'metric':24} {'old':>14} {'new':>14} {'delta':>10}")
    for run in sorted(set(old) & set(new)):
        a, b = old[run], new[run]
        for metric in sorted(set(a) | set(b)):
            if a.get(metric) != b.get(metric):
                x, y = a.get(metric), b.get(metric)
                delta = y - x if isinstance(x, (int, float)) and isinstance(y, (int, float)) else ""
                print(f"{run:32} {metric:24} {x!s:>14} {y!s:>14} {delta!s:>10}")
                if metric not in allow:
                    failed.append(f"{run}:{metric}")
    print(f"{len(set(old) & set(new))} runs compared; "
          + (f"FAIL: {', '.join(failed)}" if failed else "equivalent"))
    return 1 if failed else 0


def _spread(values):
    mean = statistics.fmean(values)
    sd = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, sd


def report(old_path, new_path):
    old, new = _load(old_path), _load(new_path)
    runs_of = {}
    for run in sorted(set(old) & set(new)):
        runs_of.setdefault(run.rsplit("@", 1)[0], []).append(run)
    failed = []
    print(f"{'spec':24} {'metric':20} {'old mean ± sd':>22} {'new mean ± sd':>22} {'seeds':>5}")
    for spec, runs in sorted(runs_of.items()):
        for metric, better in REPORT.items():
            pairs = [
                (old[r][metric], new[r][metric])
                for r in runs
                if metric in old[r] and metric in new[r]
            ]
            if not pairs:
                continue
            (a, sa), (b, sb) = _spread([x for x, _ in pairs]), _spread([y for _, y in pairs])
            worse = b - a if better == "lower" else a - b
            note = ""
            if metric in GATE and worse > 0:
                note = "  FAIL"
                failed.append(f"{spec}:{metric}")
            elif worse > sa:
                note = "  worse by more than the old spread"
            print(f"{spec:24} {metric:20} {a:>12.4g} ± {sa:<7.3g} {b:>12.4g} ± {sb:<7.3g}"
                  f" {len(pairs):>5}{note}")
    verdict = f"FAIL: {', '.join(failed)}" if failed else "no loss, no load failures added"
    print(f"{len(runs_of)} specs compared; {verdict}")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump", help="run the registry and write its metrics")
    d.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    d.add_argument("--out", required=True)
    c = sub.add_parser("diff", help="compare two dumps")
    c.add_argument("old")
    c.add_argument("new")
    c.add_argument("--allow", nargs="*", default=[], help="metrics allowed to differ")
    r = sub.add_parser("report", help="dependability metrics, mean ± stdev over seeds")
    r.add_argument("old")
    r.add_argument("new")
    args = parser.parse_args(argv)
    if args.cmd == "dump":
        return dump(args.seeds, args.out)
    if args.cmd == "report":
        return report(args.old, args.new)
    return diff(args.old, args.new, set(args.allow))


if __name__ == "__main__":
    sys.exit(main())

"""Behaviour-equivalence gate over the bundled scenario registry.

``dump`` runs every bundled spec except the ``scale-*`` ones at each
given seed and writes ``{"<spec>@<seed>": result.metrics}`` as JSON.
``diff`` compares two dumps and prints every metric that differs; names
passed to ``--allow`` are tabulated but do not fail the gate. Exit 1 on
any other difference. To dump another commit, point ``PYTHONPATH`` at
its ``src/``::

    PYTHONPATH=src python benchmarks/registry_equivalence.py dump --seeds 1 2 --out new.json
    python benchmarks/registry_equivalence.py diff old.json new.json --allow events_processed
"""

from __future__ import annotations

import argparse
import json
import sys


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


def diff(old_path, new_path, allow):
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
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
    args = parser.parse_args(argv)
    if args.cmd == "dump":
        return dump(args.seeds, args.out)
    return diff(args.old, args.new, set(args.allow))


if __name__ == "__main__":
    sys.exit(main())

"""Compare two ledger result files, one row per (workload, metric).

A metric is ``regressed`` when B's median is worse than A's by more
than the bound ``BENCHMARK.json`` fixes for it, ``unresolved`` when
either side's own run-to-run spread (interquartile range over median)
exceeds that bound — a difference smaller than the noise is not a
finding either way — and ``ok`` otherwise. ``ops_failed_ratio`` is
compared absolutely: it may not rise at all on a fault-free workload
and by at most ``FAILED_RATIO_SLACK`` on a fault workload.

Only the standard library is used: result files compare on a machine
that cannot run the simulator.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Sequence, Tuple

__all__ = ["compare_results", "format_rows", "quartiles", "spread", "verdict"]

FAILED_RATIO_SLACK = 0.01
# Fields two result files must share to be comparable.
IDENTITY = ("version", "mode", "seed", "seconds")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """``(verdict, worsening)`` for one metric: ``worsening`` is the
    change of the median from A to B as a share of A's, positive when
    B is worse."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    change = (median_b - median_a) / abs(median_a) if median_a else 0.0
    worsening = change if better == "lower" else -change
    if max(spread(a), spread(b)) > bound:
        return "unresolved", worsening
    return ("regressed" if worsening > bound else "ok"), worsening


def compare_results(
    a: Dict[str, Any], b: Dict[str, Any], end_to_end: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Rows for every (workload, end-to-end metric) of two result
    files; raises ``ValueError`` when they are not comparable."""
    for key in IDENTITY:
        if a.get(key) != b.get(key):
            raise ValueError(
                f"results differ in {key!r} ({a.get(key)!r} vs {b.get(key)!r}); "
                "only runs of the same benchmark version, mode, seed and length compare"
            )
    if sorted(a["workloads"]) != sorted(b["workloads"]):
        raise ValueError("results cover different workloads")
    rows = []
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"][name]
        same_trajectory = wa["trajectory_sha"] == wb["trajectory_sha"]
        for metric in end_to_end:
            va = wa["end_to_end"][metric["name"]]["values"]
            vb = wb["end_to_end"][metric["name"]]["values"]
            outcome, worsening = verdict(va, vb, metric["better"], metric["bound"])
            rows.append(
                {
                    "workload": name,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": quartiles(va),
                    "b": quartiles(vb),
                    "worsening": worsening,
                    "bound": metric["bound"],
                    "verdict": outcome,
                    "same_trajectory": same_trajectory,
                }
            )
        ra, rb = wa["ops_failed_ratio"], wb["ops_failed_ratio"]
        slack = FAILED_RATIO_SLACK if wa["faults"] else 0.0
        rows.append(
            {
                "workload": name,
                "metric": "ops_failed_ratio",
                "unit": "ratio",
                "a": (ra, ra, ra),
                "b": (rb, rb, rb),
                "worsening": rb - ra,
                "bound": slack,
                "verdict": "regressed" if rb - ra > slack else "ok",
                "same_trajectory": same_trajectory,
            }
        )
    return rows


def format_rows(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<17} {'unit':<6} {'A median [q1, q3]':>34} "
        f"{'B median [q1, q3]':>34} {'worse by':>9} {'bound':>6}  verdict"
    ]
    for row in rows:
        cells = [
            f"{median:.6g} [{q1:.6g}, {q3:.6g}]" for q1, median, q3 in (row["a"], row["b"])
        ]
        absolute = row["metric"] == "ops_failed_ratio"
        worse = f"{row['worsening']:+.4f}" if absolute else f"{row['worsening']:+.2%}"
        bound = f"{row['bound']:.2f}" if absolute else f"{row['bound']:.0%}"
        note = "" if row["same_trajectory"] else "  (trajectory changed)"
        lines.append(
            f"{row['workload']:<16} {row['metric']:<17} {row['unit']:<6} {cells[0]:>34} "
            f"{cells[1]:>34} {worse:>9} {bound:>6}  {row['verdict']}{note}"
        )
    return "\n".join(lines)


def main(path_a: str, path_b: str, end_to_end: List[Dict[str, Any]]) -> int:
    """Print the comparison; exit status 1 on any ``regressed`` row, 2
    when the files do not compare."""
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    try:
        rows = compare_results(a, b, end_to_end)
    except ValueError as error:
        print(f"error: {error}")
        return 2
    print(format_rows(rows))
    counts = {v: sum(1 for r in rows if r["verdict"] == v) for v in ("ok", "unresolved", "regressed")}
    print(f"\n{counts['ok']} ok, {counts['unresolved']} unresolved, {counts['regressed']} regressed")
    return 1 if counts["regressed"] else 0

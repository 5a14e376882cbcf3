"""Offered-vs-delivered load-curve aggregation for the open-loop engine.

:func:`load_curve_row` extracts one knee-curve point from a scenario
result's flat metrics, and :func:`knee_point` finds the saturation knee
across a sweep of offered rates: the highest point where the backend
still delivers at least ``efficiency`` of what was offered
(``benchmarks/bench_latency_throughput.py`` is the driver).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

__all__ = ["load_curve_row", "knee_point"]


def load_curve_row(metrics: Dict[str, float]) -> Dict[str, float]:
    """One knee-curve point from a scenario result's flat metrics.

    ``metrics`` is :attr:`~repro.scenarios.runner.ScenarioResult.metrics`
    of an open-loop run: offered rate, delivered throughput, success
    rate, and every ``latency_*`` percentile the run produced.
    """
    row = {
        "offered_rate": metrics.get("txn_offered_rate", 0.0),
        "delivered_rate": metrics.get("txn_throughput", 0.0),
        "success_rate": metrics.get("txn_success_rate", 0.0),
        "not_issued": metrics.get("txn_not_issued", 0.0),
    }
    for name, value in metrics.items():
        if name.startswith("latency_"):
            row[name] = value
    return row


def knee_point(
    rows: Sequence[Dict[str, float]], efficiency: float = 0.9
) -> Optional[Dict[str, float]]:
    """The saturation knee of a load-curve sweep.

    ``rows`` are :func:`load_curve_row` points (any order). Returns the
    row with the highest offered rate whose delivered throughput is
    still at least ``efficiency`` of the offered rate — the last point
    before the latency/throughput curve bends — or ``None`` when every
    point is already past saturation.
    """
    sustained = [
        r
        for r in rows
        if r["offered_rate"] > 0
        and r["delivered_rate"] >= efficiency * r["offered_rate"]
    ]
    if not sustained:
        return None
    return max(sustained, key=lambda r: r["offered_rate"])

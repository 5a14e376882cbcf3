"""Reporting helpers.

* :mod:`repro.analysis.aggregate` — cross-seed aggregation for scenario
  sweeps
* :mod:`repro.analysis.consistency` — acked-vs-retained write-loss
  accounting for fault scenarios
* :mod:`repro.analysis.health` — per-key replication and placement
  health of a live cluster (``repro check``)
* :mod:`repro.analysis.loadcurve` — offered-vs-delivered knee curves
  for the open-loop engine
* :mod:`repro.analysis.tables` — ASCII tables/series for bench output
"""

from repro.analysis.aggregate import aggregate_rows, aggregate_table_rows
from repro.analysis.consistency import count_write_losses
from repro.analysis.health import ConsistencyReport, check_cluster
from repro.analysis.loadcurve import knee_point, load_curve_row
from repro.analysis.tables import format_series, format_table, rows_to_table

__all__ = [
    "ConsistencyReport",
    "aggregate_rows",
    "aggregate_table_rows",
    "check_cluster",
    "count_write_losses",
    "format_series",
    "format_table",
    "knee_point",
    "load_curve_row",
    "rows_to_table",
]

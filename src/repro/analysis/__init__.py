"""Experiment drivers and reporting helpers.

* :mod:`repro.analysis.experiments` — parameterised sweeps behind the
  Figure 3 / Figure 4 benches
* :mod:`repro.analysis.aggregate` — cross-seed aggregation for scenario
  sweeps
* :mod:`repro.analysis.consistency` — acked-vs-retained write-loss
  accounting for fault scenarios
* :mod:`repro.analysis.loadcurve` — offered-vs-delivered throughput and
  per-window latency percentiles for the open-loop engine
* :mod:`repro.analysis.tables` — ASCII tables/series for bench output
"""

from repro.analysis.aggregate import aggregate_rows, aggregate_table_rows
from repro.analysis.consistency import count_write_losses
from repro.analysis.health import ConsistencyReport, check_cluster, missing_objects
from repro.analysis.loadcurve import knee_point, load_curve_row, window_rows
from repro.analysis.experiments import (
    default_node_counts,
    full_scale,
    run_constant_slices,
    run_proportional_slices,
    run_write_workload_point,
)
from repro.analysis.tables import format_series, format_table, rows_to_table

__all__ = [
    "ConsistencyReport",
    "aggregate_rows",
    "aggregate_table_rows",
    "check_cluster",
    "count_write_losses",
    "missing_objects",
    "default_node_counts",
    "format_series",
    "format_table",
    "full_scale",
    "knee_point",
    "load_curve_row",
    "rows_to_table",
    "window_rows",
    "run_constant_slices",
    "run_proportional_slices",
    "run_write_workload_point",
]

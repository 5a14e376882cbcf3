#!/usr/bin/env python
"""Regenerate the paper's Figures 3 and 4 at example scale.

Runs the two evaluation sweeps (Section VI) on a reduced node range so
the example finishes in about ten seconds. Every point is the bundled
``paper-figures`` scenario, sized by ``figure3_spec`` / ``figure4_spec``
and run by the scenario runner. The benchmarks in benchmarks/ run the
5×-scaled sweep; ``repro fig3 --nodes 500 1000 1500 2000 2500 3000``
runs the paper's exact node counts.

Run:  python examples/scalability_sweep.py
"""

from repro.analysis.tables import format_series, rows_to_table
from repro.scenarios.registry import figure3_spec, figure4_spec, figure_rows

COLUMNS = ["n", "num_slices", "ops", "messages_per_node", "success_rate"]
NODE_COUNTS = [60, 120, 180, 240]


def main() -> None:
    print("Figure 3 (example scale) — constant slices, fixed workload")
    rows = figure_rows(figure3_spec(n, num_slices=6, writes=60) for n in NODE_COUNTS)
    print(rows_to_table(rows, COLUMNS))
    print(
        format_series(
            "expected shape: roughly flat",
            "nodes",
            "msgs/node",
            [(r["n"], r["messages_per_node"]) for r in rows],
        )
    )

    print("\nFigure 4 (example scale) — slices proportional to nodes")
    rows = figure_rows(
        figure4_spec(n, nodes_per_slice=10, records_per_slice=6) for n in NODE_COUNTS
    )
    print(rows_to_table(rows, COLUMNS))
    print(
        format_series(
            "expected shape: growing with system size",
            "nodes",
            "msgs/node",
            [(r["n"], r["messages_per_node"]) for r in rows],
        )
    )


if __name__ == "__main__":
    main()

"""Figure 4 — messages per node, slices proportional to system size.

Paper setup: the number of slices grows with the node count (constant
replication factor), so the extra nodes "enlarge the system capacity";
we realise that by loading proportionally more records (10 per slice).
Expected shape: per-node message load *grows* with system size and sits
well above the Figure 3 curve at the large end — the paper reports
~200 → ~1,400 messages per node over 500 → 3,000 nodes.

Each point is the bundled ``paper-figures`` spec sized by
``figure4_spec``, here at the 5×-scaled sizes (100–600 nodes, 10 nodes
per slice).
"""

import pytest

from repro.analysis.tables import format_series, rows_to_table
from repro.scenarios.registry import figure4_spec, figure_rows

from conftest import report

NODE_COUNTS = (100, 200, 300, 400, 500, 600)
COLUMNS = [
    "n",
    "num_slices",
    "ops",
    "messages_per_node",
    "success_rate",
    "txn_not_issued",
]


@pytest.mark.benchmark(group="fig4")
def test_fig4_proportional_slices(benchmark):
    specs = [
        figure4_spec(n, nodes_per_slice=10, records_per_slice=10) for n in NODE_COUNTS
    ]
    rows = benchmark.pedantic(figure_rows, args=(specs,), rounds=1, iterations=1)
    series = [(r["n"], r["messages_per_node"]) for r in rows]
    report(
        "Figure 4 — avg messages per node, slices proportional to nodes\n"
        + rows_to_table(rows, COLUMNS)
        + "\n"
        + format_series(
            "series (paper: growing, ~200 -> ~1400 over a 6x size increase)",
            "nodes",
            "msgs/node",
            series,
        )
    )
    assert all(r["success_rate"] >= 0.95 for r in rows)
    # Every write the figure counts was issued, none shed.
    assert all(r["txn_not_issued"] == 0 for r in rows)
    values = [r["messages_per_node"] for r in rows]
    # Shape: clear growth across the sweep (the capacity-scaling regime),
    # unlike Figure 3's flat curve.
    assert values[-1] > 2.0 * values[0]
    # And the curve is monotone-ish: each point at least 80% of its
    # predecessor (noise guard, growth overall).
    assert all(b > 0.8 * a for a, b in zip(values, values[1:]))

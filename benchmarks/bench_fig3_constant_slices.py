"""Figure 3 — messages per node, constant number of slices.

Paper setup: DATAFLASKS with 10 slices, 500–3,000 nodes, YCSB write-only
workload; metric = average messages each node sends/receives to perform
the requests. Expected shape: roughly flat — with k fixed, adding nodes
only grows the replication factor, not the per-node request load.

Each point is the bundled ``paper-figures`` spec sized by
``figure3_spec``. This bench runs the 5×-scaled sweep (100–600 nodes,
same 10 slices); ``repro fig3 --nodes 500 1000 1500 2000 2500 3000``
runs the paper's node counts.
"""

import pytest

from repro.analysis.tables import format_series, rows_to_table
from repro.scenarios.registry import figure3_spec, figure_rows

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


@pytest.mark.benchmark(group="fig3")
def test_fig3_constant_slices(benchmark):
    specs = [figure3_spec(n, num_slices=10, writes=200) for n in NODE_COUNTS]
    rows = benchmark.pedantic(figure_rows, args=(specs,), rounds=1, iterations=1)
    series = [(r["n"], r["messages_per_node"]) for r in rows]
    report(
        "Figure 3 — avg messages per node, constant slices (k=10, write-only)\n"
        + rows_to_table(rows, COLUMNS)
        + "\n"
        + format_series("series (paper: ~flat, 0-400 band)", "nodes", "msgs/node", series)
    )
    # Shape assertions: every point succeeded and the curve is "roughly
    # the same" across a 6x size increase (paper's wording) — we allow
    # 2x to absorb the ln(N) fanout growth and simulator noise.
    assert all(r["success_rate"] >= 0.95 for r in rows)
    # Every write the figure counts was issued, none shed.
    assert all(r["txn_not_issued"] == 0 for r in rows)
    values = [r["messages_per_node"] for r in rows]
    assert max(values) <= 2.0 * min(values)

"""Experiment drivers for the paper's evaluation (Section VI).

Both figures measure *the average number of messages each node had to
send/receive to perform the YCSB requests* on a write-only workload:

* **Figure 3** — 10 slices held constant while the system grows from 500
  to 3,000 nodes: per-node message load stays roughly flat (extra nodes
  buy replication factor).
* **Figure 4** — slices grow proportionally to the system (constant
  replication factor): the extra nodes enlarge *capacity*, which we
  realise by loading proportionally more records; per-node message load
  grows with system size.

Scaling: the paper simulated 500–3,000 JVM nodes; a pure-Python sweep at
that size takes hours, so the default node counts are scaled down by 5×
with identical slice ratios (see DESIGN.md). Set ``REPRO_FULL_SCALE=1``
to run the paper's exact sizes.

Each driver returns a list of row dicts (one per swept system size) that
the benches print and benchmarks/results.txt records.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from repro.core.cluster import DataFlasksCluster
from repro.core.config import DataFlasksConfig
from repro.workload.ycsb import WRITE_ONLY

__all__ = [
    "full_scale",
    "default_node_counts",
    "run_write_workload_point",
    "run_constant_slices",
    "run_proportional_slices",
]

# The paper's sweep and the 5x-scaled default (same ratios, tractable in CI).
PAPER_NODE_COUNTS = (500, 1000, 1500, 2000, 2500, 3000)
SCALED_NODE_COUNTS = (100, 200, 300, 400, 500, 600)
PAPER_SLICES_CONSTANT = 10
PAPER_NODES_PER_SLICE = 50  # 500 nodes / 10 slices at the first point
SCALED_NODES_PER_SLICE = 10


def full_scale() -> bool:
    """Whether the environment requests the paper's exact node counts."""
    return os.environ.get("REPRO_FULL_SCALE", "").strip() in ("1", "true", "yes")


def default_node_counts() -> Sequence[int]:
    return PAPER_NODE_COUNTS if full_scale() else SCALED_NODE_COUNTS


def default_nodes_per_slice() -> int:
    return PAPER_NODES_PER_SLICE if full_scale() else SCALED_NODES_PER_SLICE


def run_write_workload_point(
    n: int,
    num_slices: int,
    record_count: int,
    seed: int = 0,
    warmup: float = 10.0,
    convergence_timeout: float = 90.0,
    config: Optional[DataFlasksConfig] = None,
    window: int = 20,
) -> Dict[str, float]:
    """One figure point: write-only YCSB load against an ``n``-node cluster.

    Message load is measured as the *delta* over the workload phase, so
    warm-up gossip does not pollute the figure (the paper measures the
    messages needed "to perform the YCSB requests"). Writes are issued in
    pipelined windows of ``window`` concurrent requests — YCSB runs many
    client threads — which also keeps large sweeps tractable.
    """
    base = config or DataFlasksConfig()
    cfg = base.scaled_to(n, num_slices=num_slices)
    cluster = DataFlasksCluster(n=n, config=cfg, seed=seed)
    cluster.warm_up(warmup)
    cluster.wait_for_slices(timeout=convergence_timeout)

    workload = WRITE_ONLY.scaled(record_count)
    client = cluster.new_client(timeout=5.0, retries=2)
    rng = cluster.sim.rng_registry.stream("experiment.load")

    before = cluster.server_message_load()
    requests_before = _request_messages(cluster)
    started = cluster.sim.now

    operations = list(workload.load_items(rng))
    succeeded = 0
    for start in range(0, len(operations), window):
        batch = [
            client.put(op.key, op.value, version=1)
            for op in operations[start : start + window]
        ]
        cluster.sim.run_until_condition(
            lambda: all(op.done for op in batch), timeout=60, check_interval=0.1
        )
        succeeded += sum(op.succeeded for op in batch)

    after = cluster.server_message_load()
    requests_after = _request_messages(cluster)

    return {
        "n": n,
        "num_slices": num_slices,
        "ops": record_count,
        "messages_per_node": after["handled"] - before["handled"],
        "sent_per_node": after["sent"] - before["sent"],
        "request_messages_per_node": (requests_after - requests_before) / n,
        "success_rate": succeeded / record_count if record_count else 0.0,
        "duration": cluster.sim.now - started,
    }


def _request_messages(cluster: DataFlasksCluster) -> float:
    """Total put/get request deliveries so far (system-wide)."""
    metrics = cluster.sim.metrics
    return metrics.total("msg.received.PutRequest") + metrics.total(
        "msg.received.GetRequest"
    )


def run_constant_slices(
    node_counts: Optional[Sequence[int]] = None,
    num_slices: int = PAPER_SLICES_CONSTANT,
    record_count: int = 200,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Figure 3: constant slice count, growing system, fixed op count."""
    counts = list(node_counts) if node_counts is not None else list(default_node_counts())
    return [
        run_write_workload_point(n, num_slices, record_count, seed=seed + i)
        for i, n in enumerate(counts)
    ]


def run_proportional_slices(
    node_counts: Optional[Sequence[int]] = None,
    nodes_per_slice: Optional[int] = None,
    records_per_slice: int = 10,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Figure 4: slices ∝ nodes (constant replication factor).

    The paper says the added nodes "enlarge the system capacity"; the
    workload therefore loads ``records_per_slice`` items per slice, so
    the data set grows with the deployment exactly as capacity does.
    """
    counts = list(node_counts) if node_counts is not None else list(default_node_counts())
    per_slice = nodes_per_slice if nodes_per_slice is not None else default_nodes_per_slice()
    rows = []
    for i, n in enumerate(counts):
        num_slices = max(1, n // per_slice)
        record_count = records_per_slice * num_slices
        rows.append(
            run_write_workload_point(n, num_slices, record_count, seed=seed + i)
        )
    return rows

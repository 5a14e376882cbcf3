"""Bytes held per node, by owner — DESIGN.md "State per node".

Runs one ledger unit — ``core_mixed_open`` (YCSB-A, open loop, 1,120
operations) by default, or the Chord control ``dht_write`` — at each
given population under ``tracemalloc`` and, when the run has finished but
the simulation is still alive, groups every live allocation by the
source file that made it. A file is an owner: each per-node structure is
allocated by the module that defines it.

Usage::

    PYTHONPATH=src python benchmarks/state_per_node.py 100 400 1000
    PYTHONPATH=src python benchmarks/state_per_node.py --workload dht_write 500 2000

Each population runs in a freshly spawned interpreter, one at a time, so
a column does not depend on the sizes measured before it: the 500 column
of ``100 500`` equals the output of ``500`` alone. To measure another
commit, point ``PYTHONPATH`` at its ``src/``. Tracing every allocation
makes a run several times slower and larger than the ledger's; 1,000
nodes takes minutes. Byte counts repeat exactly.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import tracemalloc
from collections import Counter
from typing import Dict, List

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "ledger"))

from workloads import build_spec  # noqa: E402  (benchmarks/ledger/workloads.py)

from repro.obs.recorder import FlightRecorder  # noqa: E402
from repro.scenarios.runner import run_scenario  # noqa: E402

SEED = 3000

# Allocating file (suffix) -> owner; anything else is summed under "other".
OWNERS = {
    "repro/gossip/dissemination.py": "dedup (request handler)",
    "repro/core/handler.py": "dedup (request handler)",
    "repro/pss/view.py": "PSS view + slice view (PartialView)",
    "repro/slicing/dslead.py": "slicing reservoir",
    "repro/core/store.py": "store",
    "repro/sim/rng.py": "RNG streams",
    "random.py": "RNG streams",
    # One row: both files build 4-tuples, which CPython recycles through
    # a free list, so tracemalloc credits some heap entries to either.
    "repro/sim/scheduler.py": "pending timers and deliveries",
    "repro/sim/network.py": "pending timers and deliveries",
    "repro/sim/node.py": "node, handler table, periodic tasks",
    "repro/core/replication.py": "re-homing bookkeeping",
    "repro/core/sliceview.py": "slice contacts",
    "repro/core/client.py": "clients",
    "repro/workload/openloop.py": "workload engine",
    "repro/workload/ycsb.py": "workload engine",
    "repro/dht/node.py": "Chord fingers, routing table, successors",
    # The ring member objects are built here, and the provisioned
    # successor lists a node keeps until its chain changes.
    "repro/dht/cluster.py": "Chord nodes, provisioned successors",
    "repro/dht/rpc.py": "Chord RPC calls in flight",
    "repro/dht/client.py": "clients",
}
WORKLOADS = ("core_mixed_open", "dht_write")


class _Snapshot(FlightRecorder):
    """Every pillar off; ``finish`` is the runner's last call while the
    simulation it built is still referenced."""

    by_owner: Dict[str, int]

    def finish(self, sim) -> None:
        super().finish(sim)
        self.by_owner = Counter()
        for stat in tracemalloc.take_snapshot().statistics("filename"):
            filename = stat.traceback[0].filename
            owner = next((o for suffix, o in OWNERS.items() if filename.endswith(suffix)), "other")
            self.by_owner[owner] += stat.size


def measure(workload: str, nodes: int) -> Dict[str, int]:
    spec = build_spec(workload).scaled(nodes=nodes)
    recorder = _Snapshot()
    tracemalloc.start()
    try:
        run_scenario(spec, SEED, recorder=recorder)
    finally:
        tracemalloc.stop()
    return {owner: size // nodes for owner, size in recorder.by_owner.items()}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="Bytes held per node, by owner.")
    parser.add_argument("--workload", choices=WORKLOADS, default=WORKLOADS[0])
    parser.add_argument("sizes", nargs="*", type=int, default=[100], help="populations")
    args = parser.parse_args(argv)
    sizes = args.sizes
    spawn = multiprocessing.get_context("spawn")
    columns = []
    for nodes in sizes:
        with spawn.Pool(1) as pool:
            columns.append(pool.apply(measure, (args.workload, nodes)))
    owners = sorted(columns[-1], key=columns[-1].get, reverse=True)
    owners.sort(key="other".__eq__)
    print(f"{'bytes per node, by owner':<40}" + "".join(f"{n:>10,} n" for n in sizes))
    for owner in owners:
        print(f"{owner:<40}" + "".join(f"{column.get(owner, 0):>12,}" for column in columns))
    print(f"{'total':<40}" + "".join(f"{sum(column.values()):>12,}" for column in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

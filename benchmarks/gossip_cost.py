"""CPU per background-gossip event — DESIGN.md "The gossip layer".

Deploys a ``core`` cluster of each given size with the ledger's
``core_write`` configuration (5 slices, ``view_size`` 25, 5–15 ms
latency) and no client, then times its warm-up. With no load every event
is one of the background rounds every node runs all the time: a Cyclon
shuffle, a DSlead probe or sample, a slice-view advert or an
anti-entropy digest, or a reply to one. Prints, per size, the simulated
seconds, the events processed, the process CPU seconds of the run (not
of building the cluster) and CPU µs per event.

Usage::

    PYTHONPATH=src python benchmarks/gossip_cost.py 100 1000

A size of N runs ``max(10, 3000 / N)`` simulated seconds: 30 s at 100
nodes (≈ 55 k events), 10 s at 1,000 (≈ 170 k). Events are exact per
size; CPU time is whatever the machine gives, so compare two commits by
alternating runs on one machine. To measure another commit, point
``PYTHONPATH`` at its ``src/``.
"""

from __future__ import annotations

import sys
import time
from typing import List, Tuple

from repro.core.cluster import DataFlasksCluster
from repro.core.config import DataFlasksConfig
from repro.sim.network import UniformLatency
from repro.sim.simulator import Simulation, relaxed_gc

SEED = 3000


def measure(nodes: int) -> Tuple[float, int, float]:
    """(simulated seconds, events, CPU seconds) of one warm-up."""
    seconds = max(10.0, 3000 / nodes)
    sim = Simulation(seed=SEED, latency_model=UniformLatency(0.005, 0.015))
    DataFlasksCluster(nodes, DataFlasksConfig(num_slices=5, view_size=25), sim=sim)
    with relaxed_gc():
        start = time.process_time()
        sim.run_for(seconds)
        cpu = time.process_time() - start
    return seconds, sim.scheduler.events_processed, cpu


def main(argv: List[str]) -> int:
    sizes = [int(arg) for arg in argv] or [100]
    print(f"{'nodes':>7} {'sim s':>6} {'events':>10} {'cpu s':>8} {'us/event':>9}")
    for nodes in sizes:
        seconds, events, cpu = measure(nodes)
        print(f"{nodes:>7} {seconds:>6g} {events:>10,} {cpu:>8.3f} {cpu / events * 1e6:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python
"""Dependability under churn — the paper's motivating scenario.

"As the system size grows, the assumption of a moderately stable
environment becomes unrealistic [...] faults and churn become the rule
instead of the exception." (Section I)

This example loads a data set into DATAFLASKS, then subjects the cluster
to three escalating insults while continuously measuring read
availability and the replication level:

1. steady session churn (nodes constantly leaving, replaced by joiners),
2. a 30% instantaneous mass failure,
3. a correlated failure killing an *entire slice* — the worst case for
   any placement scheme; anti-entropy plus adaptive slicing must regrow
   the lost replicas from other slices' refugees.

Run:  python examples/churn_tolerance.py
"""

from repro import DataFlasksCluster, DataFlasksConfig
from repro.churn import ChurnSpec
from repro.slicing.base import SlicingService


def availability(cluster, client, keys) -> float:
    ok = 0
    for key in keys:
        op = client.get(key)
        cluster.sim.run_until_condition(lambda: op.done, timeout=40)
        ok += op.done and op.succeeded
    return ok / len(keys)


def mean_replication(cluster, keys) -> float:
    return sum(cluster.replication_level(k) for k in keys) / len(keys)


def main() -> None:
    config = DataFlasksConfig(num_slices=6)
    cluster = DataFlasksCluster(n=80, config=config, seed=7)
    cluster.warm_up(10)
    cluster.wait_for_slices(timeout=120)
    client = cluster.new_client(timeout=4.0, retries=3)
    controller = cluster.churn_controller()

    keys = [f"object:{i}" for i in range(12)]
    for key in keys:
        cluster.put_sync(client, key, b"precious payload", version=1)
    cluster.sim.run_for(25)
    print(f"loaded {len(keys)} objects")
    print(f"  availability={availability(cluster, client, keys):.0%}"
          f"  mean replicas={mean_replication(cluster, keys):.1f}")

    print("\nphase 1: steady session churn (mean session 200s, 60s)...")
    controller.apply(ChurnSpec(kind="session", mean_session=200, duration=60), population=80)
    cluster.sim.run_for(61)
    print(f"  joins={controller.joins} leaves={controller.leaves}")
    print(f"  availability={availability(cluster, client, keys):.0%}"
          f"  mean replicas={mean_replication(cluster, keys):.1f}")

    print("\nphase 2: 30% instantaneous mass failure...")
    controller.kill_fraction(0.3)
    print(f"  alive servers: {len(cluster.alive_servers())}")
    print(f"  availability (immediately)={availability(cluster, client, keys):.0%}")
    cluster.sim.run_for(40)
    print(f"  after 40s of anti-entropy: mean replicas="
          f"{mean_replication(cluster, keys):.1f}")

    print("\nphase 3: correlated failure — killing every node of one slice...")
    victim_slice = cluster.target_slice(keys[0])
    victims = [
        s for s in cluster.alive_servers()
        if s.get_service(SlicingService).my_slice() == victim_slice
    ]
    # Keep one survivor: the paper is explicit that persistence requires
    # "for each slice, there are always some correct number of nodes".
    for victim in victims[:-1]:
        victim.crash()
    print(f"  killed {len(victims) - 1} of {len(victims)} nodes in slice {victim_slice}")
    print(f"  replicas of {keys[0]!r} now: {cluster.replication_level(keys[0])}")

    cluster.sim.run_for(120)  # slicing rebalances + anti-entropy state transfer
    print(f"  after 120s: slice populations {cluster.slice_population()}")
    print(f"  replicas of {keys[0]!r}: {cluster.replication_level(keys[0])}")
    print(f"  availability={availability(cluster, client, keys):.0%}")


if __name__ == "__main__":
    main()

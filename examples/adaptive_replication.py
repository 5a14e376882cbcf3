#!/usr/bin/env python
"""Autonomous replication management (paper Section IV-C, future work).

"For the same system size, a smaller number of slices increases the
replication factor but lowers system capacity. [...] this opens
important research paths for future work."

This example enables the implemented version of that research path: every
node runs a decentralised system-size estimator (gossiped min-hash
sketch) and a replication manager that retunes the slice count ``k`` to
keep the replication factor near a target — with no coordinator. The
cluster then *grows by 3x* and the example shows the system noticing and
reconfiguring itself, re-homing data to its new slices.

Run:  python examples/adaptive_replication.py
"""

from collections import Counter

from repro import DataFlasksCluster, DataFlasksConfig


def describe(cluster, label):
    ks = Counter(s.config.num_slices for s in cluster.alive_servers())
    sizes = [
        s.size_estimator.size()
        for s in cluster.alive_servers()
        if s.size_estimator is not None and s.size_estimator.size() is not None
    ]
    mean_size = sum(sizes) / len(sizes) if sizes else float("nan")
    print(f"{label}:")
    print(f"  alive servers: {len(cluster.alive_servers())}")
    print(f"  mean size estimate: {mean_size:.0f}")
    print(f"  slice-count votes: {dict(ks)}")


def main() -> None:
    config = DataFlasksConfig(
        num_slices=4,
        auto_replication_target=10,
        auto_replication_period=5.0,
        # Reconfiguration remaps every key; let nodes hand off and then
        # drop copies they are no longer responsible for (Section VII's
        # capacity/slack trade-off) so the replication level tracks the
        # target instead of accumulating stale copies.
        gc_foreign_data=True,
    )
    cluster = DataFlasksCluster(n=40, config=config, seed=13)
    cluster.warm_up(10)
    cluster.wait_for_slices(timeout=90)

    client = cluster.new_client(timeout=4.0, retries=3)
    keys = [f"item:{i}" for i in range(8)]
    for key in keys:
        cluster.put_sync(client, key, b"payload", 1)

    cluster.sim.run_for(80)
    describe(cluster, "\nafter convergence at 40 nodes (target replication 10)")

    print("\ntripling the cluster to 120 nodes...")
    controller = cluster.churn_controller()
    for _ in range(80):
        controller.join()
    cluster.sim.run_for(200)  # estimator epochs + controller periods + re-homing
    describe(cluster, "after growth and autonomous reconfiguration")

    ok = 0
    for key in keys:
        op = client.get(key)
        cluster.sim.run_until_condition(lambda: op.done, timeout=60)
        ok += op.succeeded
    print(f"\nall pre-growth data still readable: {ok}/{len(keys)}")
    mean_replication = sum(cluster.replication_level(k) for k in keys) / len(keys)
    print(f"mean replication level: {mean_replication:.1f} (target 10)")


if __name__ == "__main__":
    main()

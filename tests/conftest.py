"""Shared fixtures for the test suite.

Clusters are expensive to converge, so the slow end-to-end fixtures are
module-scoped where tests only read from them; tests that mutate cluster
state build their own.
"""

from __future__ import annotations

import pytest

from repro.core.cluster import DataFlasksCluster
from repro.core.config import DataFlasksConfig
from repro.pss.bootstrap import bootstrap_random_views
from repro.pss.cyclon import CyclonService
from repro.sim.network import Tap
from repro.sim.node import Node
from repro.sim.simulator import Simulation


def small_config(**overrides) -> DataFlasksConfig:
    """A config tuned for small, fast test clusters."""
    defaults = dict(
        num_slices=4,
        view_size=12,
        shuffle_length=6,
        slice_view_size=10,
        ttl=10,
        antientropy_period=1.0,
    )
    defaults.update(overrides)
    return DataFlasksConfig(**defaults)


def build_cluster(n: int = 40, seed: int = 7, **config_overrides) -> DataFlasksCluster:
    """A converged small cluster ready for requests."""
    cluster = DataFlasksCluster(n=n, config=small_config(**config_overrides), seed=seed)
    cluster.warm_up(10)
    assert cluster.wait_for_slices(timeout=120), "slicing failed to converge"
    return cluster


def build_overlay(n: int = 50, seed: int = 3, rounds: float = 20.0) -> tuple:
    """(sim, nodes) with a converged Cyclon overlay and nothing else."""
    sim = Simulation(seed=seed)

    def factory(node_id, ctx):
        node = Node(node_id, ctx)
        node.add_service(CyclonService(view_size=10, shuffle_length=5, period=1.0))
        return node

    nodes = sim.add_nodes(factory, n)
    bootstrap_random_views(nodes, degree=4, rng=sim.rng_registry.stream("boot"))
    sim.start_all()
    sim.run_for(rounds)
    return sim, nodes


class Outbox(Tap):
    """Every message put on the wire, as ``(src, dst, msg)``."""

    def __init__(self) -> None:
        self.sent: list = []

    def on_send(self, network, src, dst, msg):
        self.sent.append((src, dst, msg))


def wire(sim: Simulation) -> list:
    """Watch ``sim``'s network from now on; returns the growing list of
    ``(src, dst, msg)`` sends."""
    outbox = Outbox()
    sim.network.add_tap(outbox)
    return outbox.sent


@pytest.fixture(scope="module")
def converged_cluster() -> DataFlasksCluster:
    """A shared read-mostly cluster for end-to-end tests."""
    return build_cluster(n=40, seed=11)

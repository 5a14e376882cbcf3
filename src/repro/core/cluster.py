"""The ``core`` stack: build and drive a whole DATAFLASKS cluster.

:class:`DataFlasksCluster` is the high-level entry point the examples,
tests and benches use, and the :class:`~repro.backends.base.StoreBackend`
registered as ``stack = "core"``: it creates ``n`` server nodes inside a
:class:`~repro.sim.simulator.Simulation`, bootstraps the overlay, waits
for slicing to converge and hands out clients wired to a chosen Load
Balancer strategy. The synchronous ``put``/``get`` helpers, churn and
the message-load metric come from the base class.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Set

from repro.backends.base import StoreBackend, round_metric
from repro.backends.registry import register_backend
from repro.core.client import DataFlasksClient
from repro.core.config import DataFlasksConfig
from repro.core.keyspace import slice_for_key
from repro.core.loadbalancer import (
    LoadBalancer,
    RandomLoadBalancer,
    RoundRobinLoadBalancer,
    SliceAwareLoadBalancer,
)
from repro.core.node import DataFlasksNode
from repro.core.store import VersionedStore
from repro.errors import ConfigurationError
from repro.pss.bootstrap import bootstrap_random_views
from repro.sim.node import Node, SimContext
from repro.sim.simulator import Simulation
from repro.slicing.metrics import slice_histogram, unassigned_fraction

__all__ = ["DataFlasksCluster"]

LB_STRATEGIES = {
    "random": RandomLoadBalancer,
    "round-robin": RoundRobinLoadBalancer,
    "slice-aware": SliceAwareLoadBalancer,
}

StoreFactory = Callable[[int], VersionedStore]
AttributeFn = Callable[[int, random.Random], float]


@register_backend("core")
class DataFlasksCluster(StoreBackend):
    """A DATAFLASKS deployment plus its clients.

    :param sim: the simulation to deploy into (created if omitted).
    :param n: number of server nodes.
    :param config: per-node configuration; ``expected_n`` is re-targeted
        to ``n`` automatically so the dissemination fanout is sized right.
    :param attribute_fn: per-node slicing attribute (storage capacity);
        defaults to a uniform random capacity in [100, 1000).
    :param store_factory: optional per-node Data Store constructor.
    """

    description = "DATAFLASKS epidemic slice-based store (the paper's system)"

    servers: List[DataFlasksNode]
    clients: List[DataFlasksClient]

    def __init__(
        self,
        n: int,
        config: Optional[DataFlasksConfig] = None,
        sim: Optional[Simulation] = None,
        seed: int = 0,
        attribute_fn: Optional[AttributeFn] = None,
        store_factory: Optional[StoreFactory] = None,
        bootstrap_degree: int = 8,
    ) -> None:
        super().__init__(n, sim, seed)
        base = config or DataFlasksConfig()
        self.config = base.scaled_to(n)
        self._attribute_fn = attribute_fn or (lambda nid, rng: rng.uniform(100.0, 1000.0))
        self._store_factory = store_factory
        self._attr_rng = self.sim.rng_registry.stream("cluster.attributes")
        self._found(n)
        bootstrap_random_views(
            self.servers,
            degree=min(bootstrap_degree, max(1, n - 1)),
            rng=self.sim.rng_registry.stream("cluster.bootstrap"),
        )
        for server in self.servers:
            server.start()

    @classmethod
    def check_spec(cls, spec: Any) -> None:
        if spec.num_slices > spec.nodes:
            raise ConfigurationError(
                f"num_slices ({spec.num_slices}) exceeds nodes ({spec.nodes}): "
                "a slice would have no server, so slicing could never converge"
            )

    @classmethod
    def deploy(cls, spec: Any, sim: Simulation) -> "DataFlasksCluster":
        config = DataFlasksConfig(num_slices=spec.num_slices, **spec.config)
        return cls(n=spec.nodes, config=config, sim=sim)

    # ------------------------------------------------------------- builders

    def _make_server(self, node_id: int, ctx: SimContext) -> Node:
        store = self._store_factory(node_id) if self._store_factory else None
        return DataFlasksNode(
            node_id,
            ctx,
            config=self.config,
            attribute=self._attribute_fn(node_id, self._attr_rng),
            store=store,
        )

    def new_client(
        self,
        lb_strategy: str = "random",
        timeout: float = 5.0,
        retries: int = 2,
    ) -> DataFlasksClient:
        """Create and start a client using the named Load Balancer."""
        try:
            lb_cls = LB_STRATEGIES[lb_strategy]
        except KeyError:
            raise ConfigurationError(
                f"unknown load balancer {lb_strategy!r}; "
                f"choose from {sorted(LB_STRATEGIES)}"
            ) from None
        lb: LoadBalancer = lb_cls(
            self.directory, self.sim.rng_registry.stream(f"lb.{len(self.clients)}")
        )

        def factory(node_id: int, ctx: SimContext) -> Node:
            return DataFlasksClient(
                node_id, ctx, lb, config=self.config, timeout=timeout, retries=retries
            )

        return self._enroll_client(factory)

    # ---------------------------------------------------------- convergence

    def warm_up(self, duration: float = 10.0) -> None:
        """Let the PSS mix before measuring anything."""
        self.sim.run_for(duration)

    def converged(self) -> bool:
        """Every alive server placed in a slice and no slice empty."""
        alive = self.alive_servers()
        if not alive or unassigned_fraction(alive) > 0:
            return False
        hist = slice_histogram(alive)
        return all(hist.get(i, 0) > 0 for i in range(self.config.num_slices))

    def wait_for_slices(self, timeout: float = 60.0) -> bool:
        """Run until :meth:`converged` holds."""
        return self.sim.run_until_condition(self.converged, timeout)

    def converge(self, spec: Any) -> bool:
        self.warm_up(spec.warmup)
        return self.wait_for_slices(timeout=spec.convergence_timeout)

    # --------------------------------------------------------------- health

    def slice_population(self) -> Dict[int, int]:
        """slice -> number of alive servers claiming it."""
        return slice_histogram(self.alive_servers())

    def target_slice(self, key: str) -> int:
        return slice_for_key(key, self.config.num_slices)

    def collect_metrics(self, groups: Set[str], workload: Any, metrics: Dict[str, float]) -> None:
        alive = self.alive_servers()
        if "slices" in groups and alive:
            hist = slice_histogram(alive)
            num_slices = self.config.num_slices
            populated = [hist.get(i, 0) for i in range(num_slices)]
            metrics["slices_total"] = float(num_slices)
            metrics["slices_empty"] = float(sum(1 for c in populated if c == 0))
            metrics["slice_population_min"] = float(min(populated))
            metrics["slice_population_max"] = float(max(populated))
            metrics["slice_unassigned_fraction"] = round_metric(unassigned_fraction(alive))
        self.collect_replication(groups, workload, metrics)

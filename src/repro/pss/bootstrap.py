"""Bootstrap helpers: seeding initial partial views.

A gossip overlay needs *some* initial connectivity. In deployments this
comes from a tracker or a list of well-known contacts; in the simulation
we seed each node's view with a few random other nodes, which is both
realistic (a tracker returns a random subset) and sufficient for the PSS
to converge to a random overlay within a few rounds.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Type

from repro.errors import ConfigurationError
from repro.pss.base import PeerSamplingService
from repro.sim.node import Node

__all__ = ["bootstrap_random_views"]


def bootstrap_random_views(
    nodes: Sequence[Node],
    degree: int = 5,
    rng: Optional[random.Random] = None,
    service_cls: Type[PeerSamplingService] = PeerSamplingService,
) -> None:
    """Give every node's PSS ``degree`` random initial contacts.

    ``service_cls`` selects which attached service to seed when a node runs
    several sampling services (e.g. a global and an intra-slice one).
    """
    if degree <= 0:
        raise ConfigurationError("bootstrap degree must be positive")
    rng = rng or random.Random(0)
    ids: List[int] = [n.id for n in nodes]
    if len(ids) < 2:
        return
    for node in nodes:
        service = node.get_service(service_cls)
        if service is None:
            continue
        others = [i for i in ids if i != node.id]
        count = min(degree, len(others))
        service.bootstrap(rng.sample(others, count))


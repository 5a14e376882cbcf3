"""Generic epidemic building blocks (paper Section II).

* :class:`~repro.gossip.dissemination.DisseminationService` — probabilistic
  broadcast with ``ln(N)+c`` fanout sizing
* :class:`~repro.gossip.aggregation.SystemSizeEstimator` — decentralised
  system-size estimation
"""

from repro.gossip.aggregation import MinSketchShare, SystemSizeEstimator
from repro.gossip.dissemination import (
    DisseminationService,
    GossipMessage,
    ReplayWindow,
    atomic_infection_probability,
    recommended_fanout,
)

__all__ = [
    "DisseminationService",
    "GossipMessage",
    "MinSketchShare",
    "ReplayWindow",
    "SystemSizeEstimator",
    "atomic_infection_probability",
    "recommended_fanout",
]

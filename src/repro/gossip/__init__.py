"""Generic epidemic building blocks (paper Section II).

* :class:`~repro.gossip.dissemination.DisseminationService` — probabilistic
  broadcast with ``ln(N)+c`` fanout sizing
* :mod:`repro.gossip.antientropy` — digest reconciliation primitives
"""

from repro.gossip.aggregation import (
    MinSketchShare,
    PushSumService,
    PushSumShare,
    SystemSizeEstimator,
)
from repro.gossip.antientropy import diff, make_digest, merge_digests, missing_from
from repro.gossip.dissemination import (
    DisseminationService,
    GossipMessage,
    ReplayWindow,
    atomic_infection_probability,
    fanout_for_probability,
    recommended_fanout,
)

__all__ = [
    "DisseminationService",
    "GossipMessage",
    "MinSketchShare",
    "PushSumService",
    "PushSumShare",
    "ReplayWindow",
    "SystemSizeEstimator",
    "atomic_infection_probability",
    "diff",
    "fanout_for_probability",
    "make_digest",
    "merge_digests",
    "missing_from",
    "recommended_fanout",
]

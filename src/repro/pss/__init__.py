"""Peer Sampling Service implementations (paper Section II).

* :class:`~repro.pss.cyclon.CyclonService` — the PSS DATAFLASKS uses
* :class:`~repro.pss.newscast.NewscastService` — alternative PSS
* :func:`~repro.pss.bootstrap.bootstrap_random_views` — initial contacts
* :mod:`repro.pss.diagnostics` — overlay randomness metrics
"""

from repro.pss.base import PeerSamplingService
from repro.pss.bootstrap import bootstrap_random_views
from repro.pss.cyclon import CyclonService, ShuffleReply, ShuffleRequest
from repro.pss.newscast import NewscastService
from repro.pss.view import NodeDescriptor, PartialView

__all__ = [
    "CyclonService",
    "NewscastService",
    "NodeDescriptor",
    "PartialView",
    "PeerSamplingService",
    "ShuffleReply",
    "ShuffleRequest",
    "bootstrap_random_views",
]

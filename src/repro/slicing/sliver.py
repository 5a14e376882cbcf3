"""Sliver-style slicing by rank sampling (Gramoli et al., PODC 2008) —
paper reference [12].

Instead of sorting random values, each node directly *estimates its rank*:
it remembers the attributes it has observed from peers and computes

    rank_fraction = |{observed attribute < mine}| / |observed|

then ``slice = floor(rank_fraction * k)``. Observations are gathered by
polling a few PSS peers each round. The estimate is unbiased as soon as
samples are roughly uniform (which the PSS guarantees) and reacts to
churn because the observation table is a sliding window, as in Sliver:
an entry not observed again within ``table_size // sample_size`` rounds
(the rounds it takes to poll ``table_size`` peers) is dropped, so
departed nodes stop weighing on the estimate however small the system.
The table is also bounded by ``table_size``, oldest entries first.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError
from repro.pss.base import PeerSamplingService
from repro.slicing.base import SlicingService

__all__ = ["SliverSlicing", "AttributeQuery", "AttributeReport"]


@dataclass(frozen=True)
class AttributeQuery:
    """Ask a peer for its (attribute, id) sort key."""


@dataclass(frozen=True)
class AttributeReport:
    """A peer's sort key, pushed back to the querier."""

    attribute: float
    node_id: int


class SliverSlicing(SlicingService):
    """Rank-estimation slicing with a sliding observation window.

    :param sample_size: peers polled per round.
    :param table_size: max observations kept; with ``sample_size`` it
        sets the window, ``table_size // sample_size`` rounds.
    """

    name = "sliver-slicing"

    def __init__(
        self,
        num_slices: int,
        attribute: float,
        period: float = 1.0,
        sample_size: int = 4,
        table_size: int = 128,
    ) -> None:
        super().__init__(num_slices, attribute)
        if sample_size <= 0 or table_size <= 0:
            raise ConfigurationError("sample_size and table_size must be positive")
        self.period = period
        self.sample_size = sample_size
        self.table_size = table_size
        self._rounds = 0
        # node_id -> (round last observed, sort key); insertion order is
        # observation order, so the stalest entry is always first.
        self._observed: "OrderedDict[int, Tuple[int, Tuple[float, int]]]" = OrderedDict()

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        node = self.node
        assert node is not None
        node.register_handler(AttributeQuery, self._on_query)
        node.register_handler(AttributeReport, self._on_report)
        node.every(self.period, self._round)

    def stop(self) -> None:
        node = self.node
        assert node is not None
        node.unregister_handler(AttributeQuery)
        node.unregister_handler(AttributeReport)

    # -------------------------------------------------------------- rounds

    def _round(self) -> None:
        node = self.node
        assert node is not None
        pss = node.get_service(PeerSamplingService)
        assert pss is not None, "SliverSlicing requires a PeerSamplingService"
        self._age()
        node.multicast(pss.sample(self.sample_size), AttributeQuery())

    def _age(self) -> None:
        """Start a round: drop every entry not observed again within the
        last ``table_size // sample_size`` rounds."""
        self._rounds += 1
        horizon = self._rounds - self.table_size // self.sample_size
        observed = self._observed
        while observed and next(iter(observed.values()))[0] < horizon:
            observed.popitem(last=False)

    def _on_query(self, msg: AttributeQuery, src: int) -> None:
        node = self.node
        assert node is not None
        node.send(src, AttributeReport(self.attribute, node.id))

    def _on_report(self, msg: AttributeReport, src: int) -> None:
        self.observe(msg.node_id, (msg.attribute, msg.node_id))
        self._recompute()

    # ------------------------------------------------------------ estimate

    def observe(self, node_id: int, key: Tuple[float, int]) -> None:
        """Record an observation; re-observation refreshes its age."""
        if node_id in self._observed:
            del self._observed[node_id]
        self._observed[node_id] = (self._rounds, key)
        while len(self._observed) > self.table_size:
            self._observed.popitem(last=False)

    def rank_fraction(self) -> float:
        """Estimated normalised rank in [0, 1); 0.0 before any observation."""
        if not self._observed:
            return 0.0
        mine = self.sort_key()
        below = sum(1 for _, key in self._observed.values() if key < mine)
        return below / len(self._observed)

    @property
    def observations(self) -> int:
        return len(self._observed)

    def _recompute(self) -> None:
        if self._observed:
            self._set_slice(self._slice_from_fraction(self.rank_fraction()))

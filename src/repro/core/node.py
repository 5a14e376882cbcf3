"""The DATAFLASKS node: four services on one process (Figure 2).

``DataFlasksNode`` wires together exactly the architecture the paper
draws: a Peer Sampling Service (Cyclon), a Slice Manager (DSlead by
default), the Request Handler in front of the Data Store, plus the
intra-slice view and anti-entropy replication the design relies on.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Optional

from repro.core.autoslice import ReplicationManager
from repro.core.config import DataFlasksConfig
from repro.core.handler import RequestHandler
from repro.core.replication import AntiEntropyService
from repro.core.sliceview import SliceViewService
from repro.core.store import MemoryStore, VersionedStore
from repro.errors import ConfigurationError
from repro.gossip.aggregation import SystemSizeEstimator
from repro.pss.cyclon import CyclonService
from repro.sim.node import Node, SimContext
from repro.slicing.base import SlicingService
from repro.slicing.dslead import DSleadSlicing
from repro.slicing.ordered import OrderedSlicing
from repro.slicing.sliver import SliverSlicing
from repro.slicing.static import StaticSlicing

__all__ = ["DataFlasksNode", "make_slicing_service"]


# Each Slice Manager at its own defaults, except that a node's Sliver
# polls four peers a round where the class default is three. At four, an
# 80-node system does not refill a slice emptied by a correlated failure:
# the observation table (128) never fills, so crashed peers are never
# evicted from it. tests/test_slicing.py exercises the class default.
_SLICE_MANAGERS = {
    "dslead": DSleadSlicing,
    "ordered": OrderedSlicing,
    "sliver": partial(SliverSlicing, sample_size=4),
    "static": StaticSlicing,
}


def make_slicing_service(config: DataFlasksConfig, attribute: float) -> SlicingService:
    """Build the Slice Manager named by ``config.slicing_protocol``."""
    manager = _SLICE_MANAGERS.get(config.slicing_protocol)
    if manager is None:
        raise ConfigurationError(f"unknown slicing protocol {config.slicing_protocol!r}")
    return manager(num_slices=config.num_slices, attribute=attribute)


class DataFlasksNode(Node):
    """One DATAFLASKS host.

    :param attribute: the locally measured slicing attribute — storage
        capacity in the paper's design. Defaults to the store capacity
        (or the node id as a stable tie-breaking stand-in when storage
        is unbounded).
    :param store: Data Store implementation; in-memory by default, any
        :class:`~repro.core.store.VersionedStore` (e.g.
        :class:`~repro.core.filestore.FileStore`) plugs in.
    """

    def __init__(
        self,
        node_id: int,
        ctx: SimContext,
        config: Optional[DataFlasksConfig] = None,
        attribute: Optional[float] = None,
        store: Optional[VersionedStore] = None,
    ) -> None:
        super().__init__(node_id, ctx)
        # Each node owns a *copy* of the config: autonomous reconfiguration
        # (ReplicationManager changing num_slices) is a node-local decision
        # that must not telepathically update other nodes.
        self.config = dataclasses.replace(config) if config is not None else DataFlasksConfig()
        if attribute is None:
            if self.config.store_capacity is not None:
                attribute = float(self.config.store_capacity)
            else:
                attribute = float(node_id)
        self.attribute = attribute
        self.store = store if store is not None else MemoryStore(self.config.store_capacity)

        self.pss = CyclonService(
            view_size=self.config.view_size, shuffle_length=self.config.shuffle_length
        )
        self.slicing = make_slicing_service(self.config, attribute)
        self.slice_view = SliceViewService(view_size=self.config.slice_view_size)
        self.handler = RequestHandler(self.store, self.config)
        self.antientropy = AntiEntropyService(self.store, self.config)

        self.add_service(self.pss)
        self.add_service(self.slicing)
        self.add_service(self.slice_view)
        self.add_service(self.handler)
        self.add_service(self.antientropy)

        if self.config.auto_replication_target is not None:
            self.size_estimator = SystemSizeEstimator()
            self.replication_manager = ReplicationManager(
                self.config,
                target_replication=self.config.auto_replication_target,
                period=self.config.auto_replication_period,
            )
            self.add_service(self.size_estimator)
            self.add_service(self.replication_manager)
        else:
            self.size_estimator = None
            self.replication_manager = None

    # -------------------------------------------------------------- queries

    def my_slice(self) -> Optional[int]:
        """The slice this node currently believes it belongs to."""
        return self.slicing.my_slice()

    def holds(self, key: str, version: Optional[int] = None) -> bool:
        """Whether the local Data Store has the object."""
        return self.store.get(key, version) is not None

    def on_stop(self) -> None:
        self.store.close()

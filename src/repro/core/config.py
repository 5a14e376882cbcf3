"""DATAFLASKS deployment configuration.

One frozen-ish dataclass gathers every tunable of a node so deployments,
benches and tests configure clusters uniformly. Defaults follow the
paper's setup where stated (ten slices, Cyclon PSS, DSlead slicing) and
the gossip literature elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigurationError
from repro.gossip.dissemination import recommended_fanout

__all__ = ["DataFlasksConfig"]


@dataclass
class DataFlasksConfig:
    """All tunables of a DATAFLASKS node.

    :param num_slices: ``k``, the number of slices (paper: 10).
    :param expected_n: rough system size used to size the dissemination
        fanout to ``ln N + c`` when ``fanout`` is not given explicitly.
    :param fanout: global dissemination fanout override.
    :param intra_slice_fanout: forwarding fanout once a request is inside
        its target slice (slice views are small, so a smaller fanout
        floods a slice reliably).
    :param ttl: dissemination hop budget for requests.
    :param dedup_capacity: sequence numbers a node remembers per request
        origin (client, or re-homing server); a request older than that
        is dropped as a duplicate.
    :param slicing_protocol: one of ``dslead``, ``ordered``, ``sliver``,
        ``static``.
    :param store_capacity: max objects a node stores (None = unlimited).
    :param gc_foreign_data: whether anti-entropy garbage-collects objects
        that no longer map to the node's slice (Section VII trade-off).
    """

    # --- slicing
    num_slices: int = 10
    slicing_protocol: str = "dslead"
    slicing_period: float = 1.0
    slicing_sample_size: int = 4
    slicing_reservoir_size: int = 256
    slicing_stability_rounds: int = 3

    # --- peer sampling
    view_size: int = 20
    shuffle_length: int = 8
    pss_period: float = 1.0

    # --- slice-local membership (intra-slice PSS)
    slice_view_size: int = 16
    slice_advert_period: float = 1.0
    slice_advert_fanout: int = 3
    slice_entry_max_age: int = 10

    # --- request dissemination
    expected_n: int = 1000
    fanout: Optional[int] = None
    fanout_c: float = 2.0
    intra_slice_fanout: int = 3
    ttl: int = 15
    dedup_capacity: int = 100_000

    # --- storage & replication
    store_capacity: Optional[int] = None
    antientropy_period: float = 2.0
    gc_foreign_data: bool = False

    # --- autonomous replication management (Section IV-C, optional)
    # When set, every node runs a decentralised size estimator and a
    # ReplicationManager that retunes num_slices to keep the slice size
    # (replication factor) near this target.
    auto_replication_target: Optional[int] = None
    auto_replication_period: float = 10.0

    def __post_init__(self) -> None:
        if self.num_slices <= 0:
            raise ConfigurationError("num_slices must be positive")
        if self.slicing_protocol not in ("dslead", "ordered", "sliver", "static"):
            raise ConfigurationError(
                f"unknown slicing protocol {self.slicing_protocol!r}"
            )
        if self.expected_n <= 0:
            raise ConfigurationError("expected_n must be positive")
        if self.fanout is not None and self.fanout <= 0:
            raise ConfigurationError("fanout must be positive")
        if self.ttl <= 0:
            raise ConfigurationError("ttl must be positive")
        if self.intra_slice_fanout <= 0:
            raise ConfigurationError("intra_slice_fanout must be positive")
        if self.store_capacity is not None and self.store_capacity <= 0:
            raise ConfigurationError("store_capacity must be positive or None")
        if self.auto_replication_target is not None and self.auto_replication_target <= 0:
            raise ConfigurationError("auto_replication_target must be positive or None")

    # ------------------------------------------------------------- helpers

    @property
    def effective_fanout(self) -> int:
        """The dissemination fanout actually used."""
        if self.fanout is not None:
            return self.fanout
        return recommended_fanout(self.expected_n, self.fanout_c)

    def scaled_to(self, n: int, **overrides) -> "DataFlasksConfig":
        """A copy re-targeted at a system of ``n`` nodes."""
        return replace(self, expected_n=n, **overrides)

"""DATAFLASKS deployment configuration.

One dataclass gathers the tunables of a node that a deployment sets, so
specs, benches and tests configure clusters uniformly. Defaults follow
the paper's setup where stated (ten slices, Cyclon PSS, DSlead slicing)
and the gossip literature elsewhere. A value no deployment varies (a
protocol period, a sample size, the dedup window) is a constant of the
service that reads it, not a field here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf
from typing import Optional

from repro.errors import ConfigurationError
from repro.gossip.dissemination import recommended_fanout

__all__ = ["DataFlasksConfig"]

# The fields __post_init__ checks by kind: sizes are positive integers
# (the optional ones may also be None), periods positive finite seconds.
_SIZES = ("num_slices", "view_size", "shuffle_length", "slice_view_size", "expected_n", "ttl")
_OPTIONAL_SIZES = ("fanout", "store_capacity", "auto_replication_target")
_PERIODS = ("antientropy_period", "auto_replication_period")


@dataclass
class DataFlasksConfig:
    """The settable tunables of a DATAFLASKS node.

    :param num_slices: ``k``, the number of slices (paper: 10).
    :param expected_n: rough system size used to size the dissemination
        fanout to ``ln N + c`` when ``fanout`` is not given explicitly.
    :param fanout: global dissemination fanout override.
    :param ttl: dissemination hop budget for requests.
    :param slicing_protocol: one of ``dslead``, ``ordered``, ``sliver``,
        ``static``.
    :param store_capacity: max objects a node stores (None = unlimited).
    :param gc_foreign_data: whether anti-entropy garbage-collects objects
        that no longer map to the node's slice (Section VII trade-off).
    """

    # --- slicing
    num_slices: int = 10
    slicing_protocol: str = "dslead"

    # --- peer sampling
    view_size: int = 20
    shuffle_length: int = 8

    # --- slice-local membership (intra-slice PSS)
    slice_view_size: int = 16

    # --- request dissemination
    expected_n: int = 1000
    fanout: Optional[int] = None
    ttl: int = 15

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
        protocols = ("dslead", "ordered", "sliver", "static")
        if self.slicing_protocol not in protocols:
            raise ConfigurationError(
                f"slicing_protocol must be one of {protocols}, "
                f"got {self.slicing_protocol!r}"
            )
        for name in _SIZES + _OPTIONAL_SIZES:
            value = getattr(self, name)
            if value is None and name in _OPTIONAL_SIZES:
                continue
            if type(value) is not int or value <= 0:
                raise ConfigurationError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        for name in _PERIODS:
            value = getattr(self, name)
            if type(value) not in (int, float) or not 0 < value < inf:
                raise ConfigurationError(
                    f"{name} must be positive and finite, got {value!r}"
                )
        if self.shuffle_length > self.view_size:
            raise ConfigurationError(
                f"shuffle_length ({self.shuffle_length}) exceeds view_size "
                f"({self.view_size})"
            )
        if type(self.gc_foreign_data) is not bool:
            raise ConfigurationError(
                f"gc_foreign_data must be true or false, got {self.gc_foreign_data!r}"
            )

    # ------------------------------------------------------------- helpers

    @property
    def effective_fanout(self) -> int:
        """The dissemination fanout actually used."""
        if self.fanout is not None:
            return self.fanout
        return recommended_fanout(self.expected_n)

    def scaled_to(self, n: int) -> "DataFlasksConfig":
        """A copy re-targeted at a system of ``n`` nodes."""
        return replace(self, expected_n=n)

"""DSlead-style slicing: low-memory, *steady* rank estimation.

The paper's Slice Manager is implemented by DSlead (reference [17],
"Slicing as a distributed systems primitive", building on Slead [16],
"low-memory steady distributed systems slicing"). Neither paper's text is
available to us, so this module implements a protocol with the two
properties their titles and the DATAFLASKS paper advertise — see
DESIGN.md, substitutions table:

* **low memory**: *bounded* state, independent of system size — a FIFO
  reservoir of the last ``reservoir_size`` attribute observations (a few
  hundred floats and ids in two flat arrays, 16 bytes an observation,
  versus Sliver's per-node table that grows with the number of distinct
  peers ever seen). The reservoir bounds rank precision to
  ``1/reservoir_size``, which comfortably supports the slice counts
  DATAFLASKS uses (tens of slices).
* **steady**: two-stage hysteresis — a node only migrates to a new slice
  when (a) its estimate has pointed at the same different slice for
  ``stability_rounds`` consecutive rounds *and* (b) the estimate sits a
  margin *inside* the proposed slice, so border nodes whose noisy
  estimate straddles a boundary do not flap. Flapping would trigger
  spurious state transfer in DATAFLASKS, the very problem Section VII
  worries about.

Each round the node polls a few PSS peers for their attributes and folds
the replies into the reservoir; churn is handled naturally because a
departed node's samples are pushed out by fresh observations.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.pss.base import PeerSamplingService
from repro.slicing.base import SlicingService

__all__ = ["DSleadSlicing", "RankProbe", "RankSample"]


@dataclass(frozen=True)
class RankProbe:
    """Ask a peer for its sort key (DSlead round probe)."""

    round_id: int


@dataclass(frozen=True)
class RankSample:
    """A peer's sort key, tagged with the probe round that asked."""

    round_id: int
    attribute: float
    node_id: int


class DSleadSlicing(SlicingService):
    """Steady low-memory slicing service.

    :param period: seconds between rounds.
    :param sample_size: peers polled per round.
    :param reservoir_size: bounded FIFO of observations the rank estimate
        is computed over; precision is ``1/reservoir_size``.
    :param stability_rounds: consecutive rounds a new slice must persist
        before the node migrates.
    :param boundary_margin_fraction: dead-band around slice boundaries,
        as a fraction of slice width (see class docstring).
    """

    name = "dslead-slicing"

    def __init__(
        self,
        num_slices: int,
        attribute: float,
        period: float = 1.0,
        sample_size: int = 4,
        reservoir_size: int = 256,
        stability_rounds: int = 3,
        boundary_margin_fraction: float = 0.25,
    ) -> None:
        super().__init__(num_slices, attribute)
        if sample_size <= 0 or stability_rounds <= 0 or reservoir_size <= 0:
            raise ConfigurationError(
                "sample_size, reservoir_size and stability_rounds must be positive"
            )
        if not 0 <= boundary_margin_fraction < 0.5:
            raise ConfigurationError("boundary_margin_fraction must be in [0, 0.5)")
        self.period = period
        self.sample_size = sample_size
        self.reservoir_size = reservoir_size
        self.stability_rounds = stability_rounds
        self.boundary_margin_fraction = boundary_margin_fraction
        # The reservoir: a ring of (attribute, node id) observations in two
        # flat arrays, filled by appending, then overwritten from ``_oldest``.
        self._attributes = array("d")
        self._ids = array("q")
        self._oldest = 0
        # How many reservoir entries sort below ``_below_key``, kept up to
        # date sample by sample; ``estimate`` recounts when ``sort_key()``
        # no longer equals the key (``attribute`` is a public field).
        self._below = 0
        self._below_key: Optional[tuple] = None
        self.round_id = 0
        self._candidate: Optional[int] = None
        self._candidate_streak = 0

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        node = self.node
        assert node is not None
        node.register_handler(RankProbe, self._on_probe)
        node.register_handler(RankSample, self._on_sample)
        node.every(self.period, self._round)

    def stop(self) -> None:
        node = self.node
        assert node is not None
        node.unregister_handler(RankProbe)
        node.unregister_handler(RankSample)

    # -------------------------------------------------------------- rounds

    def _round(self) -> None:
        node = self.node
        assert node is not None
        self.round_id += 1
        pss = node.get_service(PeerSamplingService)
        assert pss is not None, "DSleadSlicing requires a PeerSamplingService"
        node.multicast(pss.sample(self.sample_size), RankProbe(self.round_id))
        # Decide once per round, *before* this round's replies trickle in,
        # so every node follows the same cadence.
        self._consider()

    def _on_probe(self, msg: RankProbe, src: int) -> None:
        node = self.node
        assert node is not None
        node.send(src, RankSample(msg.round_id, self.attribute, node.id))

    def _on_sample(self, msg: RankSample, src: int) -> None:
        attribute, node_id = msg.attribute, msg.node_id
        attributes, ids = self._attributes, self._ids
        mine = self._below_key
        if len(ids) < self.reservoir_size:
            attributes.append(attribute)
            ids.append(node_id)
        else:
            oldest = self._oldest
            if mine is not None and (attributes[oldest], ids[oldest]) < mine:
                self._below -= 1  # evicted below
            attributes[oldest] = attribute
            ids[oldest] = node_id
            self._oldest = (oldest + 1) % self.reservoir_size
        if mine is not None and (attribute, node_id) < mine:
            self._below += 1

    # ------------------------------------------------------------ estimate

    @property
    def estimate(self) -> Optional[float]:
        """Current rank-fraction estimate in [0, 1), or None if empty."""
        if not self._ids:
            return None
        mine = self.sort_key()
        if mine != self._below_key:
            self._below_key = mine
            self._below = sum(1 for key in zip(self._attributes, self._ids) if key < mine)
        return self._below / len(self._ids)

    @property
    def observations(self) -> int:
        return len(self._ids)

    def _consider(self) -> None:
        """Apply the two-stage hysteresis to the current estimate."""
        estimate = self.estimate
        if estimate is None:
            return
        proposed = self._slice_from_fraction(estimate)
        if self._slice is None:
            self._set_slice(proposed)
            self._candidate = None
            self._candidate_streak = 0
            return
        if proposed == self._slice:
            self._candidate = None
            self._candidate_streak = 0
            return
        if not self._clears_boundary_margin(estimate, proposed):
            # Estimate hovers near the shared boundary: stay put.
            self._candidate = None
            self._candidate_streak = 0
            return
        if proposed == self._candidate:
            self._candidate_streak += 1
        else:
            self._candidate = proposed
            self._candidate_streak = 1
        if self._candidate_streak >= self.stability_rounds:
            self._set_slice(proposed)
            self._candidate = None
            self._candidate_streak = 0

    def _clears_boundary_margin(self, estimate: float, proposed: int) -> bool:
        """Is the estimate far enough inside ``proposed`` to migrate?

        The margin is measured against the boundary of the proposed slice
        that faces the current slice — the one a noisy border estimate
        would oscillate across.
        """
        assert self._slice is not None
        slice_width = 1.0 / self._num_slices
        margin = self.boundary_margin_fraction * slice_width
        if proposed > self._slice:
            facing_boundary = proposed * slice_width
            return estimate >= facing_boundary + margin
        facing_boundary = (proposed + 1) * slice_width
        return estimate <= facing_boundary - margin

    def _recompute(self) -> None:
        estimate = self.estimate
        if estimate is not None:
            # Reconfiguration is an explicit management action: apply the
            # new k immediately, bypassing hysteresis.
            self._set_slice(self._slice_from_fraction(estimate))

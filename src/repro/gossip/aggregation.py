"""Epidemic aggregation: system-size estimation.

Section III lists "data aggregation [24]" among the epidemic protocols
DATAFLASKS builds on, and two of the substrate's knobs secretly depend on
a quantity no node knows — the system size ``N``:

* the dissemination fanout must track ``ln N + c`` (Section II), and
* autonomous replication management (Section IV-C) needs ``N`` to choose
  the number of slices ``k ≈ N / r`` for a target replication factor.

:class:`SystemSizeEstimator` gossips a loss-tolerant aggregate, the
extreme-value **min-hash sketch** (see its docstring). Min-aggregation
converges monotonically, which makes it the right tool under churn.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.pss.base import PeerSamplingService
from repro.sim.node import Service

__all__ = ["SystemSizeEstimator", "MinSketchShare"]


@dataclass(frozen=True)
class MinSketchShare:
    """A node's current minima vector for one estimation epoch.

    ``is_reply`` marks the passive side's answer in the push-pull
    exchange; replies are never answered again (that would ping-pong
    forever).
    """

    epoch: int
    minima: Tuple[float, ...]
    is_reply: bool = False


class SystemSizeEstimator(Service):
    """Continuous decentralised estimation of the system size ``N``.

    Uses the extreme-value (min-hash) sketch: in epoch ``e`` every node
    derives ``m`` pseudo-uniform draws ``u_j = h(e, j, node_id)`` and the
    system gossips the element-wise **minimum** vector. Min-aggregation is
    monotone and idempotent, so it converges exactly and tolerates churn
    and message loss by construction (unlike mass-conserving push-sum).
    The minimum of ``N`` uniforms is ≈ exponentially distributed with
    rate ``N``; with ``m`` independent minima the standard estimator

        ``N̂ = (m - 1) / sum_j(min_j)``

    is unbiased with relative error ``1/sqrt(m - 2)``. Epochs restart the
    sketch so departed nodes stop counting; the reported size blends the
    latest epochs exponentially.

    The estimate feeds the two knobs the paper leaves implicit:
    ``ln(N)+c`` fanout sizing and ``k ≈ N/r`` replication management —
    see :class:`repro.core.autoslice.ReplicationManager`.
    """

    name = "size-estimator"

    def __init__(
        self,
        period: float = 1.0,
        epoch_rounds: int = 20,
        sketch_size: int = 32,
        smoothing: float = 0.5,
    ) -> None:
        super().__init__()
        if period <= 0 or epoch_rounds <= 0:
            raise ConfigurationError("period and epoch_rounds must be positive")
        if sketch_size < 4:
            raise ConfigurationError("sketch_size must be at least 4")
        if not 0 < smoothing <= 1:
            raise ConfigurationError("smoothing must be in (0, 1]")
        self.period = period
        self.epoch_rounds = epoch_rounds
        self.sketch_size = sketch_size
        self.smoothing = smoothing
        self.epoch = 0
        self.round_in_epoch = 0
        self._minima: List[float] = []
        self._smoothed_size: Optional[float] = None

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        node = self.node
        assert node is not None
        node.register_handler(MinSketchShare, self._on_share)
        node.every(self.period, self._round)
        self._enter_epoch(0)

    def stop(self) -> None:
        node = self.node
        assert node is not None
        node.unregister_handler(MinSketchShare)

    # --------------------------------------------------------------- epochs

    def _own_draws(self, epoch: int) -> List[float]:
        node = self.node
        assert node is not None
        draws = []
        for j in range(self.sketch_size):
            digest = hashlib.blake2b(
                f"size-sketch:{epoch}:{j}:{node.id}".encode(), digest_size=8
            ).digest()
            # Avoid exact zeros: they would break the sum estimator.
            draws.append((int.from_bytes(digest, "big") + 1) / 2 ** 64)
        return draws

    def _enter_epoch(self, epoch: int) -> None:
        self.epoch = epoch
        self.round_in_epoch = 0
        self._minima = self._own_draws(epoch)

    def _estimate_from(self, minima: List[float]) -> float:
        total = sum(minima)
        if total <= 0:
            return 1.0
        return max(1.0, (self.sketch_size - 1) / total)

    def _finish_epoch(self) -> None:
        estimate = self._estimate_from(self._minima)
        if self._smoothed_size is None:
            self._smoothed_size = estimate
        else:
            self._smoothed_size = (
                (1 - self.smoothing) * self._smoothed_size
                + self.smoothing * estimate
            )

    def _round(self) -> None:
        node = self.node
        assert node is not None
        self.round_in_epoch += 1
        if self.round_in_epoch > self.epoch_rounds:
            self._finish_epoch()
            self._enter_epoch(self.epoch + 1)
        pss = node.get_service(PeerSamplingService)
        assert pss is not None, "SystemSizeEstimator requires a PeerSamplingService"
        peer = pss.random_peer()
        if peer is None:
            return
        node.send(peer, MinSketchShare(self.epoch, tuple(self._minima)))

    def _on_share(self, msg: MinSketchShare, src: int) -> None:
        node = self.node
        assert node is not None
        if msg.epoch < self.epoch:
            return  # stale epoch: ignore
        if msg.epoch > self.epoch:
            # A peer is ahead (round timers have jitter): fold our own
            # draws for the new epoch in and jump forward.
            self._finish_epoch()
            self._enter_epoch(msg.epoch)
        self._minima = [min(a, b) for a, b in zip(self._minima, msg.minima)]
        if not msg.is_reply:
            # Push-pull: answering the initiator halves convergence time
            # for min-gossip at one extra message per round.
            node.send(
                src, MinSketchShare(self.epoch, tuple(self._minima), is_reply=True)
            )

    # -------------------------------------------------------------- output

    def size(self) -> Optional[float]:
        """Smoothed estimate of N (None until the first epoch completes)."""
        return self._smoothed_size

    def instant_size(self) -> float:
        """Estimate from the current (possibly unconverged) epoch sketch."""
        return self._estimate_from(self._minima)

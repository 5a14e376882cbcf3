"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the common cases.
"""

from __future__ import annotations

__all__ = [
    "CapacityExceededError",
    "ClientError",
    "ConfigurationError",
    "DeterminismError",
    "IsolationError",
    "NodeDownError",
    "OperationTimeoutError",
    "ReproError",
    "SimulationError",
    "StoreError",
    "UnknownNodeError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The simulation engine was driven into an invalid state."""


class NodeDownError(SimulationError):
    """An operation was attempted on a node that is not running."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"node {node_id} is not running")
        self.node_id = node_id


class UnknownNodeError(SimulationError):
    """A message was addressed to a node id the network has never seen."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"node id {node_id} is not registered with the network")
        self.node_id = node_id


class ConfigurationError(ReproError):
    """A protocol or cluster was configured with invalid parameters."""


class DeterminismError(SimulationError):
    """Sim-path code reached for ambient randomness or the wall clock.

    Raised by the runtime tripwires
    (:func:`repro.lint.sanitizer.determinism_guard`) when a sanitized
    run calls a module-level :mod:`random` function or ``time.time``.
    """


class IsolationError(SimulationError):
    """A message payload was mutated while in flight.

    Raised by the runtime payload checker
    (:class:`repro.lint.isolation.IsolationTap`) when a payload's
    structural digest at delivery differs from its digest at
    ``Network.send`` — some code kept a reference to the object after
    sending it and mutated it, violating the shared-nothing ownership
    contract.
    The message names sender, receiver, message type and simulated time.
    """

    def __init__(self, src: int, dst: int, kind: str, sent_at: float, now: float) -> None:
        super().__init__(
            f"message {kind} from node {src} to node {dst} was mutated in "
            f"flight (sent at t={sent_at:.6f}, detected at t={now:.6f})"
            " — payloads are owned by the network once sent; build a "
            "fresh message instead of retaining and mutating the object"
        )
        self.src = src
        self.dst = dst
        self.kind = kind
        self.sent_at = sent_at
        self.now = now

    def __reduce__(self):
        # Exception pickles as cls(*args) and args is the one formatted
        # message; a --jobs worker must be able to hand this to its parent.
        return (type(self), (self.src, self.dst, self.kind, self.sent_at, self.now))


class StoreError(ReproError):
    """The data store rejected an operation."""


class CapacityExceededError(StoreError):
    """A node-local store refused a write because it is full."""


class ClientError(ReproError):
    """A client-visible operation failed."""


class OperationTimeoutError(ClientError):
    """A client operation did not complete within its timeout."""

    def __init__(self, op: str, key: str, timeout: float) -> None:
        super().__init__(f"{op}({key!r}) timed out after {timeout:.3f}s of simulated time")
        self.op = op
        self.key = key
        self.timeout = timeout

    def __reduce__(self):
        return (type(self), (self.op, self.key, self.timeout))

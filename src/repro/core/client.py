"""The DATAFLASKS client library (paper Section V).

"The client library is divided into two subcomponents. One is responsible
for implementing the DATAFLASKS API and serves client requests by
contacting a DATAFLASKS node. The other is responsible for dealing with
reply messages [...] it must know how to handle multiple replies for the
same request."

Clients are simulated nodes. Operations are asynchronous: ``put``/``get``
return a :class:`PendingOp` which completes when enough acks / the first
reply arrive; duplicates — inherent to epidemic dissemination — are
counted and dropped by request id. :class:`Client` is the skeleton every
stack's client shares (ids, pending table, one timeout timer, retries,
bookkeeping); :class:`DataFlasksClient` adds the DATAFLASKS request,
Load Balancer contact and quorum reply rules.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.config import DataFlasksConfig
from repro.core.loadbalancer import LoadBalancer
from repro.core.messages import GetReply, GetRequest, PutAck, PutRequest, ReqId
from repro.errors import ClientError, ConfigurationError
from repro.sim.deadlines import DeadlineQueue
from repro.sim.node import Node, SimContext

__all__ = ["PendingOp", "Client", "DataFlasksClient", "PUT", "GET"]

PUT = "put"
GET = "get"

PENDING = "pending"
SUCCEEDED = "succeeded"
FAILED = "failed"


class PendingOp:
    """A client operation in flight.

    Completion: a put succeeds once ``acks_required`` distinct nodes have
    acknowledged; a get succeeds on the first positive reply. ``fail``
    fires after the final retry times out.
    """

    def __init__(
        self,
        kind: str,
        key: str,
        version: Optional[int],
        req_id: ReqId,
        acks_required: int,
        started_at: float,
    ) -> None:
        self.kind = kind
        self.key = key
        self.version = version
        self.req_id = req_id
        self.acks_required = acks_required
        self.started_at = started_at
        self.completed_at: Optional[float] = None
        self.status = PENDING
        self.value: Any = None
        self.value_to_put: Any = None  # payload of a put, kept for retries
        self.result_version: Optional[int] = None
        self.acks: set = set()
        self.replies = 0
        self.duplicate_replies = 0
        self.attempts = 1
        self.error: Optional[str] = None
        self._callbacks: List[Callable[["PendingOp"], None]] = []

    # -------------------------------------------------------------- status

    @property
    def done(self) -> bool:
        return self.status != PENDING

    @property
    def succeeded(self) -> bool:
        return self.status == SUCCEEDED

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    def on_complete(self, callback: Callable[["PendingOp"], None]) -> None:
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    # ------------------------------------------------------------ internal

    def _complete(self, status: str, now: float, error: Optional[str] = None) -> None:
        if self.done:
            return
        self.status = status
        self.completed_at = now
        self.error = error
        for callback in self._callbacks:
            callback(self)
        self._callbacks.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PendingOp {self.kind}({self.key!r}) {self.status}"
            f" acks={len(self.acks)} replies={self.replies}>"
        )


class Client(Node):
    """The client skeleton: request ids, the pending table, ``put``/``get``,
    retries and the ``<metric_prefix>.<kind>.*`` counters.

    A stack supplies :meth:`_issue` (send an op's request to a contact),
    its reply rule (ending ops with :meth:`_succeed` / :meth:`_fail`) and
    optionally :meth:`_contact` (default: a uniform pick from
    ``directory()``). An attempt issued with :meth:`_await_reply` waits
    ``timeout`` seconds in the client's one
    :class:`~repro.sim.deadlines.DeadlineQueue`; on expiry its contact goes
    to :meth:`_contact_failed` and the op is retried through a fresh
    contact, ``retries`` times, then failed.
    """

    metric_prefix = "client"
    give_up = "timeout"  # counter of an op whose retries are spent

    def __init__(
        self,
        node_id: int,
        ctx: SimContext,
        timeout: float,
        retries: int,
        directory: Optional[Callable[[], List[int]]] = None,
    ) -> None:
        super().__init__(node_id, ctx)
        if not retries >= 0:
            raise ConfigurationError(f"retries must be non-negative, got {retries!r}")
        self._deadlines = DeadlineQueue(timeout)  # req_id -> contact
        self.timeout = timeout
        self.retries = retries
        self._directory = directory
        self._next_seq = 0
        self._pending: Dict[ReqId, PendingOp] = {}

    def put(self, key: str, value: Any, version: int, acks_required: int = 1) -> PendingOp:
        """Store ``value`` under ``(key, version)``; versions come totally
        ordered from the caller (the DATADROPLETS contract)."""
        op = self._new_op(PUT, key, version, acks_required)
        op.value_to_put = value
        self._dispatch(op)
        return op

    def get(self, key: str, version: Optional[int] = None) -> PendingOp:
        """Fetch ``key`` at ``version`` (``None`` = latest available)."""
        op = self._new_op(GET, key, version, acks_required=1)
        self._dispatch(op)
        return op

    @property
    def pending_ops(self) -> int:
        return len(self._pending)

    def on_stop(self) -> None:
        self._deadlines.clear()

    # ------------------------------------------------------------ dispatch

    def _new_op(self, kind: str, key: str, version: Optional[int], acks_required: int) -> PendingOp:
        if not self.alive:
            raise ClientError("client is not started")
        req_id = (self.id, self._next_seq)
        self._next_seq += 1
        op = PendingOp(kind, key, version, req_id, acks_required, self.now)
        self._pending[req_id] = op
        return op

    def _contact(self, op: PendingOp) -> Optional[int]:
        nodes = sorted(self._directory())
        return self.rng.choice(nodes) if nodes else None

    def _dispatch(self, op: PendingOp) -> None:
        contact = self._contact(op)
        if contact is None:
            self.metrics.inc(f"{self.metric_prefix}.{op.kind}.no_contact")
            self._fail(op, "no contact node available")
        else:
            self._issue(op, contact)

    def _issue(self, op: PendingOp, contact: int) -> None:
        """Send the request for ``op`` (attempt ``op.attempts``) to ``contact``."""
        raise NotImplementedError

    def _await_reply(self, op: PendingOp, contact: int) -> None:
        self._deadlines.push(self, op.req_id, contact, self._on_timeout)

    def _on_timeout(self) -> None:
        """The armed timer: time out every due attempt, then re-arm."""
        self._deadlines.expire(self, self._on_timeout, self._time_out)

    def _time_out(self, req_id: ReqId, contact: int) -> None:
        op = self._pending[req_id]
        self._contact_failed(contact)
        self._retry(op, f"timed out after {op.attempts} attempts")

    def _contact_failed(self, contact: int) -> None:
        """An attempt sent to ``contact`` went unanswered."""

    def _retry(self, op: PendingOp, error: str) -> None:
        """Dispatch ``op`` again, or fail it once its retries are spent."""
        if op.attempts > self.retries:
            self.metrics.inc(f"{self.metric_prefix}.{op.kind}.{self.give_up}")
            self._fail(op, error)
            return
        op.attempts += 1
        self.metrics.inc(f"{self.metric_prefix}.{op.kind}.retry")
        self._dispatch(op)

    # ------------------------------------------------------------- outcome

    def _live_op(self, req_id: ReqId) -> Optional[PendingOp]:
        """The op a reply answers, or ``None`` (counted) if it has ended."""
        op = self._pending.get(req_id)
        if op is None or op.done:
            self.metrics.inc(f"{self.metric_prefix}.duplicate_reply")
            return None
        return op

    def _succeed(self, op: PendingOp) -> None:
        prefix = f"{self.metric_prefix}.{op.kind}"
        self.metrics.inc(f"{prefix}.ok")
        self.metrics.observe(f"{prefix}.latency", self.now - op.started_at)
        op._complete(SUCCEEDED, self.now)
        self._forget(op)

    def _fail(self, op: PendingOp, error: str) -> None:
        op._complete(FAILED, self.now, error=error)
        self._forget(op)

    def _forget(self, op: PendingOp) -> None:
        self._pending.pop(op.req_id, None)
        self._deadlines.pop(op.req_id)


class DataFlasksClient(Client):
    """Client node implementing the DATAFLASKS ``put``/``get`` API.

    :param load_balancer: strategy choosing a contact node per request.
    :param timeout: simulated seconds before a retry (or failure).
    :param retries: additional attempts after the first, 0 to 6 (servers
        remember the attempts of a request as the bits of one byte).
    """

    def __init__(
        self,
        node_id: int,
        ctx: SimContext,
        load_balancer: LoadBalancer,
        config: Optional[DataFlasksConfig] = None,
        timeout: float = 5.0,
        retries: int = 2,
    ) -> None:
        if not 0 <= retries <= 6:
            raise ConfigurationError(f"retries must be in 0..6, got {retries!r}")
        super().__init__(node_id, ctx, timeout, retries)
        self.load_balancer = load_balancer
        self.config = config or DataFlasksConfig()
        self.register_handler(PutAck, self._on_put_ack)
        self.register_handler(GetReply, self._on_get_reply)

    def _contact(self, op: PendingOp) -> Optional[int]:
        return self.load_balancer.pick(op.key, self.config.num_slices)

    def _contact_failed(self, contact: int) -> None:
        self.load_balancer.note_failure(contact)

    def _issue(self, op: PendingOp, contact: int) -> None:
        if op.kind == PUT:
            assert op.version is not None
            msg = PutRequest(
                key=op.key,
                version=op.version,
                value=op.value_to_put,
                req_id=op.req_id,
                attempt=op.attempts,
                client_id=self.id,
                ttl=self.config.ttl,
            )
        else:
            msg = GetRequest(
                key=op.key,
                version=op.version,
                req_id=op.req_id,
                attempt=op.attempts,
                client_id=self.id,
                ttl=self.config.ttl,
            )
        self.send(contact, msg)
        self._await_reply(op, contact)

    def _on_put_ack(self, msg: PutAck, src: int) -> None:
        self.load_balancer.note_responder(src, msg.responder_slice)
        op = self._live_op(msg.req_id)
        if op is None:
            return
        op.replies += 1
        if src in op.acks:
            op.duplicate_replies += 1
            return
        op.acks.add(src)
        if len(op.acks) >= op.acks_required:
            self._succeed(op)

    def _on_get_reply(self, msg: GetReply, src: int) -> None:
        self.load_balancer.note_responder(src, msg.responder_slice)
        op = self._live_op(msg.req_id)
        if op is None:
            return
        op.replies += 1
        if msg.found:
            op.value = msg.value
            op.result_version = msg.version
            self._succeed(op)

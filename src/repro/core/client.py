"""The DATAFLASKS client library (paper Section V).

"The client library is divided into two subcomponents. One is responsible
for implementing the DATAFLASKS API and serves client requests by
contacting a DATAFLASKS node. The other is responsible for dealing with
reply messages [...] it must know how to handle multiple replies for the
same request."

:class:`DataFlasksClient` is itself a simulated node (it sends and
receives network messages). Operations are asynchronous: ``put``/``get``
return a :class:`PendingOp` which completes when enough acks / the first
reply arrive; duplicates — inherent to epidemic dissemination — are
counted and dropped by request id. Timeouts trigger retries through a
fresh Load Balancer contact.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.config import DataFlasksConfig
from repro.core.loadbalancer import LoadBalancer
from repro.core.messages import GetReply, GetRequest, PutAck, PutRequest, ReqId
from repro.errors import ClientError, ConfigurationError
from repro.sim.node import Node, SimContext

__all__ = ["PendingOp", "DataFlasksClient", "PUT", "GET"]

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


class DataFlasksClient(Node):
    """Client node implementing the ``put``/``get`` API.

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
        super().__init__(node_id, ctx)
        if not 0 <= retries <= 6:
            raise ConfigurationError(f"retries must be in 0..6, got {retries!r}")
        if not timeout > 0:
            raise ConfigurationError(f"timeout must be positive, got {timeout!r}")
        self.load_balancer = load_balancer
        self.config = config or DataFlasksConfig()
        self.timeout = timeout
        self.retries = retries
        self._next_seq = 0
        self._pending: Dict[ReqId, PendingOp] = {}
        self._contact_of_attempt: Dict[ReqId, int] = {}
        self.register_handler(PutAck, self._on_put_ack)
        self.register_handler(GetReply, self._on_get_reply)

    # ----------------------------------------------------------------- API

    def put(self, key: str, value: Any, version: int, acks_required: int = 1) -> PendingOp:
        """Store ``value`` under ``(key, version)``.

        Completes once ``acks_required`` distinct target-slice nodes have
        acknowledged. Versions must come totally ordered from the caller
        (the DATADROPLETS contract).
        """
        if not self.alive:
            raise ClientError("client is not started")
        op = self._new_op(PUT, key, version, acks_required)
        op.value_to_put = value
        self._dispatch(op)
        return op

    def get(self, key: str, version: Optional[int] = None) -> PendingOp:
        """Fetch ``key`` at ``version`` (``None`` = latest available)."""
        if not self.alive:
            raise ClientError("client is not started")
        op = self._new_op(GET, key, version, acks_required=1)
        self._dispatch(op)
        return op

    @property
    def pending_ops(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------ dispatch

    def _new_op(self, kind: str, key: str, version: Optional[int], acks_required: int) -> PendingOp:
        req_id = (self.id, self._next_seq)
        self._next_seq += 1
        op = PendingOp(kind, key, version, req_id, acks_required, self.now)
        self._pending[req_id] = op
        return op

    def _forget(self, req_id: ReqId) -> None:
        """Drop what is kept per operation, once it has succeeded or failed."""
        self._pending.pop(req_id, None)
        self._contact_of_attempt.pop(req_id, None)

    def _request_message(self, op: PendingOp):
        if op.kind == PUT:
            assert op.version is not None
            return PutRequest(
                key=op.key,
                version=op.version,
                value=op.value_to_put,
                req_id=op.req_id,
                attempt=op.attempts,
                client_id=self.id,
                ttl=self.config.ttl,
            )
        return GetRequest(
            key=op.key,
            version=op.version,
            req_id=op.req_id,
            attempt=op.attempts,
            client_id=self.id,
            ttl=self.config.ttl,
        )

    def _dispatch(self, op: PendingOp) -> None:
        contact = self.load_balancer.pick(op.key, self.config.num_slices)
        if contact is None:
            self.metrics.inc(f"client.{op.kind}.no_contact")
            op._complete(FAILED, self.now, error="no contact node available")
            self._forget(op.req_id)
            return
        self._contact_of_attempt[op.req_id] = contact
        self.send(contact, self._request_message(op))
        self.after(self.timeout, self._on_timeout, op.req_id, op.attempts)

    def _on_timeout(self, req_id: ReqId, attempt: int) -> None:
        op = self._pending.get(req_id)
        if op is None or op.done or op.attempts != attempt:
            return
        contact = self._contact_of_attempt.get(req_id)
        if contact is not None:
            self.load_balancer.note_failure(contact)
        if op.attempts > self.retries:
            self.metrics.inc(f"client.{op.kind}.timeout")
            op._complete(FAILED, self.now, error=f"timed out after {op.attempts} attempts")
            self._forget(req_id)
            return
        op.attempts += 1
        self.metrics.inc(f"client.{op.kind}.retry")
        self._dispatch(op)

    # -------------------------------------------------------------- replies

    def _on_put_ack(self, msg: PutAck, src: int) -> None:
        op = self._pending.get(msg.req_id)
        self.load_balancer.note_responder(src, msg.responder_slice)
        if op is None or op.done:
            self.metrics.inc("client.duplicate_reply")
            return
        op.replies += 1
        if src in op.acks:
            op.duplicate_replies += 1
            return
        op.acks.add(src)
        if len(op.acks) >= op.acks_required:
            self.metrics.inc("client.put.ok")
            self.metrics.observe("client.put.latency", self.now - op.started_at)
            op._complete(SUCCEEDED, self.now)
            self._forget(msg.req_id)

    def _on_get_reply(self, msg: GetReply, src: int) -> None:
        op = self._pending.get(msg.req_id)
        self.load_balancer.note_responder(src, msg.responder_slice)
        if op is None or op.done:
            self.metrics.inc("client.duplicate_reply")
            return
        op.replies += 1
        if not msg.found:
            return
        op.value = msg.value
        op.result_version = msg.version
        self.metrics.inc("client.get.ok")
        self.metrics.observe("client.get.latency", self.now - op.started_at)
        op._complete(SUCCEEDED, self.now)
        self._forget(msg.req_id)

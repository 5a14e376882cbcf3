"""Minimal request/reply RPC layer for the DHT baseline.

Structured overlays are RPC-shaped (find_successor, notify, store…),
unlike gossip's fire-and-forget messages. This service gives the Chord
implementation named methods, reply correlation and timeouts on top of
the simulated network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.node import Service
from repro.sim.scheduler import Event

__all__ = ["RpcRequest", "RpcReply", "RpcService"]


@dataclass(frozen=True)
class RpcRequest:
    rpc_id: Tuple[int, int]  # (caller id, caller-local sequence)
    method: str
    args: tuple


@dataclass(frozen=True)
class RpcReply:
    rpc_id: Tuple[int, int]
    ok: bool
    result: Any


class RpcService(Service):
    """Named-method RPC with reply correlation and a timeout per call.

    Handlers are ``fn(args, src) -> result``; raising inside a handler
    produces a ``ok=False`` reply carrying the error string. Callers pass
    ``on_reply(ok, result)``; a call left unanswered for ``timeout``
    seconds fires it once with ``(False, 'timeout')``.

    All calls share one timer, as a TCP connection shares one
    retransmission timer (RFC 6298, section 5). Every call waits the same
    ``timeout``, so deadlines ascend in call order and the pending table
    (``rpc_id -> (deadline, on_reply)``, in call order) has the earliest
    one at its head. At most one timer is armed, never later than the
    head's deadline; it expires every due call in call order and re-arms
    at the new head's deadline. A reply removes its call and leaves the
    timer alone, which may then fire with nothing due.

    Every timeout fires at exactly ``call_time + timeout``, the instant a
    timer per call would have used, bit for bit. A call that arms the
    timer passes ``timeout`` itself. Re-arming happens only inside the
    timer, at ``now`` = an earlier deadline, so ``now >= timeout``; the
    new head's deadline ``d`` is a later call's, so ``now < d <= now +
    timeout <= 2 * now``. Sterbenz's lemma makes ``d - now`` exact there,
    and ``now + (d - now)`` is ``d`` again.
    """

    name = "rpc"

    def __init__(self, timeout: float = 2.0) -> None:
        super().__init__()
        if timeout <= 0:
            raise ConfigurationError("rpc timeout must be positive")
        self.timeout = timeout
        self._methods: Dict[str, Callable[[tuple, int], Any]] = {}
        # rpc_id -> (deadline, on_reply), in call order: deadlines ascend.
        self._pending: Dict[Tuple[int, int], Tuple[float, Callable[[bool, Any], None]]] = {}
        self._timer: Optional[Event] = None  # the one armed timeout
        self._next_seq = 0

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        node = self.node
        assert node is not None
        node.register_handler(RpcRequest, self._on_request)
        node.register_handler(RpcReply, self._on_reply)

    def stop(self) -> None:
        node = self.node
        assert node is not None
        node.unregister_handler(RpcRequest)
        node.unregister_handler(RpcReply)
        self._pending.clear()
        # Node.after would swallow the timer while the node is down, and
        # a restart in place must not find it still counted as armed.
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ----------------------------------------------------------------- API

    def register(self, method: str, handler: Callable[[tuple, int], Any]) -> None:
        if method in self._methods:
            raise ConfigurationError(f"rpc method {method!r} already registered")
        self._methods[method] = handler

    def call(
        self,
        dst: int,
        method: str,
        args: tuple = (),
        on_reply: Optional[Callable[[bool, Any], None]] = None,
    ) -> None:
        """Invoke ``method`` on node ``dst``."""
        node = self.node
        assert node is not None
        rpc_id = (node.id, self._next_seq)
        self._next_seq += 1
        if on_reply is not None:
            timeout = self.timeout
            self._pending[rpc_id] = (node.now + timeout, on_reply)
            if self._timer is None:
                self._timer = node.after(timeout, self._expire)
        node.send(dst, RpcRequest(rpc_id, method, args))

    def invoke(self, method: str, args: tuple, src: int) -> Tuple[bool, Any]:
        """Run ``method`` on this node, in-process: ``(ok, result)``
        exactly as a reply to ``src`` would carry it — an unknown method
        or a raising handler gives ``ok=False`` and the error string."""
        handler = self._methods.get(method)
        if handler is None:
            return False, f"no such method {method!r}"
        try:
            return True, handler(args, src)
        except Exception as exc:  # handler bug or rejected call
            return False, str(exc)

    # ------------------------------------------------------------ internals

    def _on_request(self, msg: RpcRequest, src: int) -> None:
        node = self.node
        assert node is not None
        ok, result = self.invoke(msg.method, msg.args, src)
        node.send(src, RpcReply(msg.rpc_id, ok, result))

    def _on_reply(self, msg: RpcReply, src: int) -> None:
        entry = self._pending.pop(msg.rpc_id, None)
        if entry is not None:
            entry[1](msg.ok, msg.result)

    def _expire(self) -> None:
        """The armed timer: time out every due call, then re-arm."""
        node = self.node
        assert node is not None
        timer = self._timer
        now = node.now
        pending = self._pending
        try:
            while pending:
                rpc_id = next(iter(pending))
                deadline, on_reply = pending[rpc_id]
                if deadline > now:
                    break
                del pending[rpc_id]
                on_reply(False, "timeout")
        finally:
            # A callback that stopped the node (or stopped and restarted
            # it, arming afresh) has already settled the timer.
            if self._timer is timer:
                self._timer = None
                if pending:
                    deadline = pending[next(iter(pending))][0]
                    self._timer = node.after(deadline - now, self._expire)

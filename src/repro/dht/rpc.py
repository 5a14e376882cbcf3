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
from repro.sim.deadlines import DeadlineQueue
from repro.sim.node import Service

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

    All calls share one timer through a
    :class:`~repro.sim.deadlines.DeadlineQueue` (``rpc_id -> on_reply``),
    so every timeout fires at exactly ``call_time + timeout``.
    """

    name = "rpc"

    def __init__(self, timeout: float = 2.0) -> None:
        super().__init__()
        self._calls = DeadlineQueue(timeout)  # rpc_id -> on_reply
        self._methods: Dict[str, Callable[[tuple, int], Any]] = {}
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
        self._calls.clear()

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
            self._calls.push(node, rpc_id, on_reply, self._expire)
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
        on_reply = self._calls.pop(msg.rpc_id)
        if on_reply is not None:
            on_reply(msg.ok, msg.result)

    def _expire(self) -> None:
        """The armed timer: time out every due call, then re-arm."""
        self._calls.expire(self.node, self._expire, _time_out)


def _time_out(rpc_id: Tuple[int, int], on_reply: Callable[[bool, Any], None]) -> None:
    on_reply(False, "timeout")

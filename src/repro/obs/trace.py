"""Causal operation traces in Chrome trace-event format.

:class:`OpTracer` head-samples client operations deterministically —
every ``sample_every``-th top-level op, counted at issue, **no RNG
draws** — and threads a trace id from issue through every network hop
the operation causes, to delivery and ack. The export is the Chrome
trace-event JSON array format, loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``: sampled ops appear as
async spans (``b``/``e``), network hops as complete slices (``X``) on
the sending node's track with their simulated latency as the duration,
and drops as instant events (``i``) naming the cause.

Causality is propagated *dynamically*: the tracer is a
:class:`~repro.sim.network.Tap` on the run's network. The issuing runner
activates it around the synchronous client call, :meth:`OpTracer.on_send`
hands the active trace id to the network as the delivery's token, and
:meth:`OpTracer.on_deliver` re-activates it around the receiving handler
— so cascaded sends (server fan-out, acks) inherit the id without any
message-class changes. Known limitation: messages
issued from *timer* events (client retries, periodic protocol ticks)
start outside any activation and are not attributed; the trace shows
first-attempt causality, which is what tail-latency debugging needs.

All timestamps come from the sim clock (microseconds, as the format
requires), so two same-seed runs export byte-identical traces.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.sim.network import Tap

__all__ = ["OpTracer"]

_PID = 1  # one simulated process; tracks (tids) are node ids


def _us(t: float) -> float:
    """Sim seconds -> trace microseconds (deterministic rounding)."""
    return round(t * 1e6, 3)


class OpTracer(Tap):
    """Deterministic head-sampling tracer for client operations."""

    def __init__(self, sample_every: int = 10, max_ops: int = 1000) -> None:
        if sample_every < 1:
            raise ConfigurationError(
                f"trace sample interval must be >= 1, got {sample_every}"
            )
        if max_ops < 1:
            raise ConfigurationError(f"trace max_ops must be >= 1, got {max_ops}")
        self.sample_every = sample_every
        self.max_ops = max_ops
        # The currently active trace id; every send is attributed to it.
        self.active: Optional[int] = None
        self.hops = 0
        self.drops = 0
        self._op_count = 0
        self._next_id = 0
        self._open: Dict[int, tuple] = {}  # trace id -> (name, tid)
        self._events: List[Dict[str, Any]] = []

    # ------------------------------------------------------------ op spans

    def sample_op(self, kind: str, key: str, client_id: int, now: float) -> Optional[int]:
        """Head-sample one top-level operation at issue time.

        Counts *every* call; returns a trace id for every
        ``sample_every``-th one (up to ``max_ops``), ``None`` otherwise.
        """
        index = self._op_count
        self._op_count += 1
        if index % self.sample_every or self._next_id >= self.max_ops:
            return None
        trace_id = self._next_id
        self._next_id += 1
        name = f"{kind} {key}"
        self._open[trace_id] = (name, client_id)
        self._events.append(
            {
                "ph": "b",
                "cat": "op",
                "id": trace_id,
                "name": name,
                "pid": _PID,
                "tid": client_id,
                "ts": _us(now),
                "args": {"op_index": index},
            }
        )
        return trace_id

    def op_end(self, trace_id: int, ok: bool, now: float) -> None:
        """Close a sampled operation's async span."""
        name, tid = self._open.pop(trace_id, (f"op {trace_id}", 0))
        self._events.append(
            {
                "ph": "e",
                "cat": "op",
                "id": trace_id,
                "name": name,
                "pid": _PID,
                "tid": tid,
                "ts": _us(now),
                "args": {"ok": bool(ok)},
            }
        )

    @contextmanager
    def activated(self, trace_id: int) -> Iterator[None]:
        """Attribute every :meth:`Network.send` inside the block to
        ``trace_id`` (nestable; restores the previous activation)."""
        previous = self.active
        self.active = trace_id
        try:
            yield
        finally:
            self.active = previous

    # ----------------------------------------------------------- the tap

    def on_send(self, network, src: int, dst: int, msg: Any) -> Optional[int]:
        return self.active

    def on_drop(self, network, src: int, dst: int, msg: Any, cause: str) -> None:
        """One dropped message (partition / loss) of the active trace."""
        if self.active is None:
            return
        self.drops += 1
        self._events.append(
            {
                "ph": "i",
                "cat": "net",
                "name": f"drop.{cause}",
                "pid": _PID,
                "tid": src,
                "ts": _us(network.scheduler.now),
                "s": "t",
                "args": {"trace": self.active, "kind": type(msg).__name__, "dst": dst},
            }
        )

    def on_deliver(
        self, network, src: int, dst: int, msg: Any, trace: Optional[int], sent_at: float
    ) -> Optional[Callable[[], None]]:
        """One delivered message attributed to ``trace``: record the hop
        and stay active until the receiving handler has returned."""
        if trace is None:
            return None
        self.hops += 1
        self._events.append(
            {
                "ph": "X",
                "cat": "net",
                "name": type(msg).__name__,
                "pid": _PID,
                "tid": src,
                "ts": _us(sent_at),
                "dur": _us(network.scheduler.now - sent_at),
                "args": {"trace": trace, "src": src, "dst": dst},
            }
        )
        previous, self.active = self.active, trace
        return partial(setattr, self, "active", previous)

    # ------------------------------------------------------------- reports

    @property
    def sampled_ops(self) -> int:
        return self._next_id

    @property
    def total_ops(self) -> int:
        return self._op_count

    def summary(self) -> Dict[str, int]:
        return {
            "total_ops": self._op_count,
            "sampled_ops": self._next_id,
            "hops": self.hops,
            "drops": self.drops,
            "events": len(self._events),
        }

    def to_chrome_dict(self) -> Dict[str, Any]:
        """The Chrome trace-event JSON object form (Perfetto-loadable)."""
        tids = sorted({event["tid"] for event in self._events})
        metadata: List[Dict[str, Any]] = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": _PID,
                "tid": 0,
                "ts": 0,
                "args": {"name": "repro simulation"},
            }
        ]
        for tid in tids:
            metadata.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": _PID,
                    "tid": tid,
                    "ts": 0,
                    "args": {"name": f"node-{tid}"},
                }
            )
        return {"traceEvents": metadata + self._events, "displayTimeUnit": "ms"}

    def to_chrome_json(self) -> str:
        """Canonical serialisation — byte-identical per spec + seed."""
        return json.dumps(self.to_chrome_dict(), sort_keys=True)

"""The layer table and the outside-in tracer of the performance ledger.

Nothing under ``src/`` knows about the ledger: every number is taken
through hooks the program already exposes. :class:`LedgerRecorder` is a
:class:`~repro.obs.recorder.FlightRecorder` with every pillar off, so an
untraced run pays only the runner's ``begin_phase`` calls. A traced run
additionally hangs a :class:`LayerTracer` on the public
``Scheduler.profiler`` hook and shadows ``sim.network.send`` and
``sim.scheduler.schedule`` with timing wrappers *on the instances* (the
classes stay untouched), which is what makes self time computable:

* a callback's **self time** is its span (measured by the scheduler's
  own profiler bracket) minus the child spans inside it — every
  ``Network.send`` it made and every ``schedule`` it called directly;
* ``net.send_s`` is the send spans minus the ``schedule`` calls nested
  in them, ``sched.push_s`` is every ``schedule`` span;
* ``sched.loop_s`` is the rest of the wall: heap pops, dispatch, the
  profiler bracket itself and the driver code between events.

So every traced second is attributed exactly once and the ``*_s``
metrics of one unit sum to its wall time.

Deliveries are attributed by message type, timers by the module that
owns the wrapped callable, other callbacks by their own module — all
through the explicit tables below. Anything the tables do not map lands
in ``other_s``; :func:`unmapped_message_types` and ``unclassified_share``
are what the run's classification guard checks, so a new protocol
cannot silently drop out of the ledger.
"""

from __future__ import annotations

from time import perf_counter
from types import CodeType
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.recorder import FlightRecorder
from repro.sim.network import Network
from repro.sim.node import Node, PeriodicTask

__all__ = [
    "MESSAGE_LAYERS",
    "PHASES",
    "SETUP_PHASES",
    "LayerTracer",
    "LedgerRecorder",
    "classify",
    "layer_metrics",
    "unmapped_message_types",
]

# The runner's phase boundaries, in execution order.
PHASES = ("deploy", "converge", "load", "settle", "transactions", "heal", "collect")
# Everything before the first client operation.
SETUP_PHASES = ("deploy", "converge")

OTHER = "other_s"

# message type name -> (net.sent.<family>, metric its deliveries are timed under)
MESSAGE_LAYERS: Dict[str, Tuple[str, str]] = {
    "PutRequest": ("request", "handler.put_s"),
    "GetRequest": ("request", "handler.get_s"),
    # PutAck also reaches servers (re-home handoff acks); by type it
    # stays with the reply path.
    "PutAck": ("reply", "client.reply_s"),
    "GetReply": ("reply", "client.reply_s"),
    "ShuffleRequest": ("pss", "pss.shuffle_s"),
    "ShuffleReply": ("pss", "pss.shuffle_s"),
    "NewsExchange": ("pss", "pss.shuffle_s"),
    "NewsReply": ("pss", "pss.shuffle_s"),
    "RankProbe": ("slicing", "slicing.deliver_s"),
    "RankSample": ("slicing", "slicing.deliver_s"),
    "SwapProposal": ("slicing", "slicing.deliver_s"),
    "SwapReply": ("slicing", "slicing.deliver_s"),
    "AttributeQuery": ("slicing", "slicing.deliver_s"),
    "AttributeReport": ("slicing", "slicing.deliver_s"),
    "SliceAdvert": ("slicing", "slicing.deliver_s"),
    "SyncDigest": ("sync", "repl.deliver_s"),
    "SyncResponse": ("sync", "repl.deliver_s"),
    "SyncItems": ("sync", "repl.deliver_s"),
    "RpcRequest": ("rpc", "dht.rpc_s"),
    "RpcReply": ("rpc", "dht.rpc_s"),
}
FAMILIES = ("request", "reply", "pss", "slicing", "sync", "rpc")

# Module prefix of the callable a PeriodicTask wraps -> metric.
TIMER_LAYERS = (
    ("repro.pss.", "pss.tick_s"),
    ("repro.slicing.", "slicing.tick_s"),
    ("repro.core.sliceview", "slicing.tick_s"),
    ("repro.core.replication", "repl.tick_s"),
    ("repro.dht.", "dht.tick_s"),
)
# Module prefix of the callable a one-shot Node.after timer wraps -> metric.
ONESHOT_LAYERS = (
    ("repro.core.client", "client.timer_s"),
    ("repro.dht.", "dht.timer_s"),
)
# Module prefix of any other scheduled callback -> metric.
CALLBACK_LAYERS = (
    ("repro.workload.", "workload.arrival_s"),
    ("repro.faults.", "faults.inject_s"),
    ("repro.churn.", "faults.inject_s"),
    ("repro.scenarios.runner", "faults.inject_s"),  # _HealProbe
)
TIME_METRICS = tuple(
    sorted(
        {metric for _, metric in MESSAGE_LAYERS.values()}
        | {metric for table in (TIMER_LAYERS, ONESHOT_LAYERS, CALLBACK_LAYERS) for _, metric in table}
    )
)

_DELIVER = (Network._deliver, Network._deliver_traced)
_FIRE = PeriodicTask._fire
# The closure Node.after schedules; found among the method's constants
# because a nested function has no importable name.
_GUARDED: CodeType = next(
    const for const in Node.after.__code__.co_consts if isinstance(const, CodeType)
)


def _by_module(fn: Any, table: Tuple[Tuple[str, str], ...]) -> str:
    module = getattr(fn, "__module__", None) or ""
    for prefix, metric in table:
        if module.startswith(prefix):
            return metric
    return OTHER


_TABLES = (None, TIMER_LAYERS, ONESHOT_LAYERS, CALLBACK_LAYERS)


def _subject(fn: Any, args: tuple) -> Tuple[Any, int]:
    """What decides a fired callback's layer, and the index in
    ``_TABLES`` of the table that maps it (0: the message table)."""
    func = getattr(fn, "__func__", fn)
    if func in _DELIVER:
        return type(args[2]), 0
    if func is _FIRE:
        return fn.__self__._fn, 1
    code = getattr(func, "__code__", None)
    if code is _GUARDED:
        return func.__closure__[code.co_freevars.index("fn")].cell_contents, 2
    return func, 3


def _layer_of(subject: Any, table: int) -> str:
    if table == 0:
        return MESSAGE_LAYERS.get(subject.__name__, ("", OTHER))[1]
    return _by_module(subject, _TABLES[table])


def classify(fn: Any, args: tuple) -> str:
    """The time metric one fired scheduler callback is accounted under."""
    return _layer_of(*_subject(fn, args))


def unmapped_message_types(totals: Dict[str, float]) -> List[str]:
    """``msg.sent.<Type>`` counters the message table does not map."""
    prefix = "msg.sent."
    return sorted(
        name[len(prefix):]
        for name in totals
        if name.startswith(prefix) and name[len(prefix):] not in MESSAGE_LAYERS
    )


class LayerTracer:
    """Self-time accounting per layer for one traced simulation.

    Installs itself as ``sim.scheduler.profiler`` and shadows
    ``sim.network.send`` / ``sim.scheduler.schedule`` on the instances.
    The wrappers only time the original call, so a traced run follows
    the untraced trajectory exactly (the run's ``--check`` proves it by
    byte-comparing both summaries).
    """

    def __init__(self, sim) -> None:
        self._scheduler = sim.scheduler
        self.seconds: Dict[str, float] = {}  # metric -> self seconds, current phase
        self.by_phase: Dict[str, Dict[str, float]] = {}
        self.callback_s = 0.0  # sum of callback spans
        self.send_calls = 0
        self.send_s = 0.0  # send spans minus the schedule calls inside them
        self.push_calls = 0
        self.push_s = 0.0
        self.driver_child_s = 0.0  # child spans made outside any callback
        self._labels: Dict[Any, str] = {}
        # Child spans accumulated since the event numbered `_window`
        # fired. `events_processed` increments right before a callback
        # runs, so spans seen under a stale number belong to driver code
        # between two events, not to the callback being recorded.
        self._child = 0.0
        self._window: Optional[int] = None
        self._in_send = False
        self._push_in_send = 0.0
        self._send = sim.network.send
        self._schedule = sim.scheduler.schedule
        sim.network.send = self.send
        sim.scheduler.schedule = self.schedule
        sim.scheduler.profiler = self

    # ------------------------------------------------------------ wrappers

    def send(self, src: int, dst: int, msg: Any) -> bool:
        self._in_send = True
        self._push_in_send = 0.0
        t0 = perf_counter()
        try:
            return self._send(src, dst, msg)
        finally:
            span = perf_counter() - t0
            self._in_send = False
            self.send_calls += 1
            self.send_s += span - self._push_in_send
            self._add_child(span)

    def schedule(self, delay: float, fn: Any, *args: Any):
        t0 = perf_counter()
        event = self._schedule(delay, fn, *args)
        span = perf_counter() - t0
        self.push_calls += 1
        self.push_s += span
        if self._in_send:
            self._push_in_send += span
        else:
            self._add_child(span)
        return event

    def _add_child(self, span: float) -> None:
        fired = self._scheduler.events_processed
        if fired != self._window:
            self.driver_child_s += self._child
            self._child = 0.0
            self._window = fired
        self._child += span

    # ------------------------------------------------- Scheduler.profiler

    def record(self, fn: Any, args: tuple, elapsed: float) -> None:
        """One fired callback: credit its self time to its layer."""
        if self._window == self._scheduler.events_processed:
            child = self._child
        else:
            child = 0.0
            self.driver_child_s += self._child
        self._child = 0.0
        self.callback_s += elapsed
        # Bound methods and closures are fresh objects per node / call;
        # their code object is what they share.
        subject, table = _subject(fn, args)
        shared = getattr(subject, "__func__", subject)
        key = (getattr(shared, "__code__", shared), table)
        label = self._labels.get(key)
        if label is None:
            label = self._labels[key] = _layer_of(subject, table)
        seconds = self.seconds
        seconds[label] = seconds.get(label, 0.0) + elapsed - child

    # --------------------------------------------------------------- phases

    def begin_phase(self, name: Optional[str]) -> None:
        """Phase boundaries are driver code: flush pending child spans
        to the driver and start a fresh per-phase table."""
        self.driver_child_s += self._child
        self._child = 0.0
        self._window = None
        if name is not None:
            self.seconds = self.by_phase.setdefault(name, {})

    def totals(self) -> Dict[str, float]:
        """metric -> callback self seconds over every phase."""
        out: Dict[str, float] = {}
        for seconds in self.by_phase.values():
            for metric, value in seconds.items():
                out[metric] = out.get(metric, 0.0) + value
        return out


class LedgerRecorder(FlightRecorder):
    """The benchmark-owned recorder handed to ``run_scenario``.

    Keeps the ``Simulation`` the runner attaches, stamps every phase
    boundary with the wall clock and the ``msg.sent`` total, and — with ``trace=True`` — owns the :class:`LayerTracer`.
    """

    def __init__(self, trace: bool = False) -> None:
        super().__init__()
        self.trace = trace
        self.sim = None
        self.layers: Optional[LayerTracer] = None
        # (phase, wall clock, msg.sent total) at each boundary
        self.marks: List[Tuple[str, float, float]] = []

    def attach(self, sim) -> None:
        super().attach(sim)
        self.sim = sim
        if self.trace:
            self.layers = LayerTracer(sim)
            self.layers.begin_phase(self.marks[-1][0])

    def _mark(self, name: str) -> None:
        sent = self.sim.metrics.total("msg.sent") if self.sim is not None else 0.0
        self.marks.append((name, perf_counter(), sent))

    def begin_phase(self, name: str) -> None:
        super().begin_phase(name)
        if self.layers is not None:
            self.layers.begin_phase(name)
        self._mark(name)

    def finish(self, sim) -> None:
        super().finish(sim)
        if self.layers is not None:
            self.layers.begin_phase(None)
        self._mark("end")

    # ------------------------------------------------------------- readouts

    def phase_seconds(self) -> Dict[str, float]:
        """phase -> wall seconds, unrounded."""
        marks = self.marks
        return {
            marks[i][0]: marks[i + 1][1] - marks[i][1] for i in range(len(marks) - 1)
        }

    def run_phase_messages(self) -> float:
        """Messages sent from the start of ``load`` to the end of the run."""
        start = next(mark for mark in self.marks if mark[0] == "load")
        return self.marks[-1][2] - start[2]


def layer_metrics(
    recorder: LedgerRecorder, result_metrics: Dict[str, float], ops_ok: int
) -> Dict[str, float]:
    """Every per-layer metric of one traced unit except the two ``obs``
    ratios that need the untraced twin."""
    sim = recorder.sim
    tracer = recorder.layers
    totals = sim.metrics.totals()

    def count(*names: str) -> float:
        return sum(totals.get(name, 0.0) for name in names)

    phases = recorder.phase_seconds()
    wall = sum(phases.values())
    seconds = tracer.totals()
    events = sim.scheduler.events_processed
    out: Dict[str, float] = {
        # sim.scheduler
        "sched.events": float(events),
        "sched.events_per_op": events / ops_ok if ops_ok else 0.0,
        "sched.loop_s": wall - tracer.callback_s - tracer.driver_child_s,
        "sched.push_calls": float(tracer.push_calls),
        "sched.push_s": tracer.push_s,
        "sched.sim_s": sim.now,
        # sim.network
        "net.send_calls": float(tracer.send_calls),
        "net.send_s": tracer.send_s,
        "net.dropped.partition": count("msg.dropped.partition"),
        "net.dropped.loss": count("msg.dropped.loss"),
        "net.dropped.dead": count("msg.dropped.dead"),
        # core.handler (+ gossip.dissemination)
        "handler.fwd_global": count("df.fwd.global"),
        "handler.fwd_slice": count("df.fwd.slice"),
        "handler.stored": count("df.put.stored"),
        "handler.duplicate": count("df.put.duplicate"),
        # core.replication
        "repl.rehomed": count("df.ae.rehomed"),
        "repl.repaired": count("df.ae.repaired"),
        "repl.gc": count("df.ae.gc"),
        # core.client (+ core.loadbalancer) and the dht client
        "client.retries": count(
            "client.put.retry", "client.get.retry",
            "dht.client.put.retry", "dht.client.get.retry",
        ),
        "client.timeouts": count(
            "client.put.timeout", "client.get.timeout",
            "dht.client.put.failed", "dht.client.get.failed",
        ),
        "client.duplicate_replies": count("client.duplicate_reply"),
        "dht.failovers": count("dht.successor_failover"),
        # workload
        "workload.stale_reads": result_metrics.get("stale_reads", 0.0),
        "workload.not_issued": result_metrics.get("txn_not_issued", 0.0),
        "workload.timed_out": result_metrics.get("txn_timed_out", 0.0),
        # faults (+ churn)
        "faults.injected": result_metrics.get("faults_injected", 0.0),
        "faults.healed": result_metrics.get("faults_healed", 0.0),
        "faults.crashed": result_metrics.get("churn_leaves", 0.0),
        "faults.recovered": result_metrics.get("churn_recoveries", 0.0),
    }
    family_sent = dict.fromkeys(FAMILIES, 0.0)
    for kind, (family, _) in MESSAGE_LAYERS.items():
        family_sent[family] += totals.get(f"msg.sent.{kind}", 0.0)
    for family, sent in family_sent.items():
        out[f"net.sent.{family}"] = sent
    out["pss.msgs"] = family_sent["pss"]
    out["slicing.msgs"] = family_sent["slicing"]
    out["dht.msgs"] = family_sent["rpc"]
    requests = count("msg.received.PutRequest", "msg.received.GetRequest")
    out["handler.dedup_ratio"] = count("df.dedup.dropped") / requests if requests else 0.0
    for metric in TIME_METRICS:
        out[metric] = seconds.get(metric, 0.0)
    for phase in PHASES:
        out[f"phase.{phase}_s"] = phases.get(phase, 0.0)
    callback_self = sum(seconds.values())
    out["unclassified_share"] = seconds.get(OTHER, 0.0) / callback_self if callback_self else 0.0
    return out

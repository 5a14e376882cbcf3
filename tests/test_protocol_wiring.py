"""Every message type is wired, immutable on the wire, and answered.

The dead-letter gate (``test_acyclic_garbage.py``) fails when a message
reaches a node with no handler for its type. This file checks the rest
of what wiring a protocol means, at run time, over one small clean run
of each stack and slicing protocol:

* every message type of the program is sent, received and handled, and
  every type a node registers a handler for is sent by something;
* every message on the wire is a frozen dataclass whose fields hold only
  immutable values (receivers share one instance per multicast);
* every request type is answered with its reply: once per request where
  the protocol always answers, at most once where it answers only when
  it has something to say.

``NewsExchange``/``NewsReply`` (Newscast, which no stack deploys) and
``GossipMessage`` (the stand-alone dissemination service) have their own
tests in ``test_newscast.py`` and ``test_dissemination.py``.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Any, Dict, Set

import pytest

from repro.obs.recorder import FlightRecorder
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import spec_from_dict
from repro.sim.network import Tap

# Long enough for anti-entropy to find a slice-mate missing an object
# and push it (``SyncItems``): a clean run needs about 400 closed-loop
# operations, 10 simulated seconds of them, before that happens.
_SMALL = dict(warmup=8.0, settle=3.0, cooldown=3.0,
              workload=dict(preset="ycsb-a", record_count=10, operation_count=400))
_CORE = dict(stack="core", nodes=30, num_slices=3)
RUNS = {
    "dslead": _CORE,
    "ordered": dict(_CORE, config=dict(slicing_protocol="ordered")),
    "sliver": dict(_CORE, config=dict(slicing_protocol="sliver")),
    "auto": dict(_CORE, config=dict(auto_replication_target=8, auto_replication_period=2.0)),
    "dht": dict(stack="dht", nodes=30, replication=3),
    "oracle": dict(stack="oracle", nodes=20, num_slices=2),
}

# Message type -> the run that exercises it.
MESSAGE_RUNS = {
    **dict.fromkeys(
        ("PutRequest", "PutAck", "GetRequest", "GetReply", "SliceAdvert", "SyncDigest",
         "SyncResponse", "SyncItems", "ShuffleRequest", "ShuffleReply", "RankProbe",
         "RankSample"),
        "dslead",
    ),
    "SwapProposal": "ordered",
    "SwapReply": "ordered",
    "AttributeQuery": "sliver",
    "AttributeReport": "sliver",
    "MinSketchShare": "auto",
    "RpcRequest": "dht",
    "RpcReply": "dht",
    **dict.fromkeys(("OraclePut", "OraclePutAck", "OracleGet", "OracleGetReply"), "oracle"),
}

# (request, reply, answered every time). Where the flag is False the
# responder answers only when it has something to say: a get or put
# only from the key's slice, a sync digest only with a difference.
REQUEST_REPLY = (
    ("AttributeQuery", "AttributeReport", True),
    ("GetRequest", "GetReply", False),
    ("OracleGet", "OracleGetReply", True),
    ("OraclePut", "OraclePutAck", True),
    ("PutRequest", "PutAck", False),
    ("RankProbe", "RankSample", True),
    ("RpcRequest", "RpcReply", True),
    ("ShuffleRequest", "ShuffleReply", True),
    ("SwapProposal", "SwapReply", True),
    ("SyncDigest", "SyncResponse", False),
)


def immutable(value: Any) -> bool:
    """Whether ``value`` is a scalar, or a tuple, frozenset or frozen
    dataclass of immutable values all the way down."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(immutable(item) for item in value)
    if dataclasses.is_dataclass(value) and type(value).__dataclass_params__.frozen:
        return all(immutable(getattr(value, f.name)) for f in dataclasses.fields(value))
    return False


class _MutableOnTheWire(Tap):
    """Type name -> the first message of that type put on the wire that
    :func:`immutable` rejects."""

    def __init__(self) -> None:
        self.found: Dict[str, Any] = {}

    def on_send(self, network, src, dst, msg):
        kind = type(msg).__name__
        if kind not in self.found and not immutable(msg):
            self.found[kind] = msg
        return None


class _Wiring(FlightRecorder):
    """Taps the wire and collects the handler types nodes register at
    each phase boundary after deployment."""

    sim = None

    def attach(self, sim) -> None:
        super().attach(sim)
        self.sim = sim
        self.mutable = _MutableOnTheWire()
        self.registered: Set[str] = set()
        sim.network.add_tap(self.mutable)

    def begin_phase(self, name: str) -> None:
        super().begin_phase(name)
        for node in self.sim.nodes.values() if self.sim else ():
            self.registered.update(kind.__name__ for kind in node._handlers)

    def finish(self, sim) -> None:
        super().finish(sim)
        self.totals = sim.metrics.totals()


@lru_cache(maxsize=None)
def wiring(run: str) -> _Wiring:
    """One small clean run of ``RUNS[run]``, shared by the tests."""
    recorder = _Wiring()
    run_scenario(spec_from_dict(dict(_SMALL, name=f"wiring-{run}", **RUNS[run])), 5,
                 recorder=recorder)
    return recorder


def count(run: str, counter: str) -> float:
    return wiring(run).totals.get(counter, 0.0)


def test_the_table_names_every_type_a_run_sends_or_registers():
    seen = set()
    for run in RUNS:
        recorder = wiring(run)
        seen |= recorder.registered
        seen |= {name[len("msg.sent."):] for name in recorder.totals
                 if name.startswith("msg.sent.") and recorder.totals[name]}
    assert seen == set(MESSAGE_RUNS), sorted(seen ^ set(MESSAGE_RUNS))


@pytest.mark.parametrize("kind", sorted(MESSAGE_RUNS))
def test_every_message_type_is_sent_and_handled(kind):
    run = MESSAGE_RUNS[kind]
    assert count(run, f"msg.sent.{kind}") > 0
    assert count(run, f"msg.received.{kind}") > 0
    assert kind in wiring(run).registered
    assert count(run, f"msg.unhandled.{kind}") == 0


@pytest.mark.parametrize("kind", sorted(MESSAGE_RUNS))
def test_a_message_on_the_wire_holds_only_immutable_values(kind):
    run = MESSAGE_RUNS[kind]
    assert count(run, f"msg.sent.{kind}") > 0
    assert wiring(run).mutable.found.get(kind) is None


@pytest.mark.parametrize(
    "request_kind, reply_kind, always",
    REQUEST_REPLY,
    ids=[f"{request}-{reply}" for request, reply, _ in REQUEST_REPLY],
)
def test_every_request_is_answered(request_kind, reply_kind, always):
    # A lossless run with every node up: no request is lost to a crash.
    run = MESSAGE_RUNS[request_kind]
    received = count(run, f"msg.received.{request_kind}")
    replies = count(run, f"msg.sent.{reply_kind}")
    assert received > 0
    if always:
        assert replies == received
    else:
        assert 0 < replies <= received


def test_immutable_rejects_what_a_receiver_could_change():
    @dataclasses.dataclass(frozen=True)
    class Frozen:
        items: Any

    @dataclasses.dataclass
    class Thawed:
        items: Any

    assert immutable(Frozen((1, "a", b"b", None, frozenset({2.0}), Frozen(()))))
    assert not immutable(Frozen([1]))
    assert not immutable(Frozen((1, {2: 3})))
    assert not immutable(Frozen(bytearray(b"x")))
    assert not immutable(Thawed(()))

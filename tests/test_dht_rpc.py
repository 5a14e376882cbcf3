"""Tests for the RPC layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.rpc import RpcService
from repro.errors import ConfigurationError
from repro.sim.node import Node
from repro.sim.simulator import Simulation


def make_rpc_pair():
    sim = Simulation(seed=1)
    nodes = []
    for _ in range(2):
        node = sim.add_node(Node)
        node.add_service(RpcService(timeout=1.0))
        nodes.append(node)
    sim.start_all()
    return sim, nodes[0], nodes[1]


def rpc_of(node) -> RpcService:
    return node.get_service(RpcService)


def test_call_and_reply():
    sim, a, b = make_rpc_pair()
    rpc_of(b).register("add", lambda args, src: args[0] + args[1])
    results = []
    rpc_of(a).call(b.id, "add", (2, 3), on_reply=lambda ok, r: results.append((ok, r)))
    sim.run_for(1)
    assert results == [(True, 5)]


def test_unknown_method_errors():
    sim, a, b = make_rpc_pair()
    results = []
    rpc_of(a).call(b.id, "nope", (), on_reply=lambda ok, r: results.append((ok, r)))
    sim.run_for(1)
    assert results[0][0] is False
    assert "nope" in results[0][1]


def test_handler_exception_becomes_error_reply():
    sim, a, b = make_rpc_pair()

    def boom(args, src):
        raise ValueError("kaput")

    rpc_of(b).register("boom", boom)
    results = []
    rpc_of(a).call(b.id, "boom", (), on_reply=lambda ok, r: results.append((ok, r)))
    sim.run_for(1)
    assert results == [(False, "kaput")]


def test_timeout_fires_once():
    sim, a, b = make_rpc_pair()
    b.stop()  # silent peer
    results = []
    rpc_of(a).call(b.id, "add", (1, 2), on_reply=lambda ok, r: results.append((ok, r)))
    sim.run_for(5)
    assert results == [(False, "timeout")]


def test_late_reply_after_timeout_is_ignored():
    sim, a, b = make_rpc_pair()
    # Handler that exists, but latency exceeds the 1.0s rpc timeout.
    sim.network.latency_model.latency = 2.0
    rpc_of(b).register("slow", lambda args, src: "done")
    results = []
    rpc_of(a).call(b.id, "slow", (), on_reply=lambda ok, r: results.append((ok, r)))
    sim.run_for(10)
    assert results == [(False, "timeout")]  # the real reply was dropped


def test_fire_and_forget_without_callback():
    sim, a, b = make_rpc_pair()
    got = []
    rpc_of(b).register("note", lambda args, src: got.append(args))
    rpc_of(a).call(b.id, "note", ("hi",))
    sim.run_for(1)
    assert got == [("hi",)]


def test_duplicate_method_registration_rejected():
    service = RpcService()
    service.register("x", lambda a, s: None)
    with pytest.raises(ConfigurationError):
        service.register("x", lambda a, s: None)


def test_invalid_timeout_rejected():
    with pytest.raises(ConfigurationError):
        RpcService(timeout=0)


def test_concurrent_calls_correlated_correctly():
    sim, a, b = make_rpc_pair()
    rpc_of(b).register("echo", lambda args, src: args[0])
    results = []
    for i in range(10):
        rpc_of(a).call(b.id, "echo", (i,), on_reply=lambda ok, r: results.append(r))
    sim.run_for(2)
    assert sorted(results) == list(range(10))


# --------------------------------------------------- one armed timer


def armed_timers(sim, service) -> int:
    """Live scheduler entries that would fire ``service``'s timeout timer."""
    count = 0
    for _time, _seq, fn, _args, handle in sim.scheduler._heap:
        if handle is not None and handle.cancelled:
            continue
        cells = getattr(fn, "__closure__", None) or ()
        if any(getattr(cell.cell_contents, "__self__", None) is service for cell in cells):
            count += 1
    return count


ACTIONS = ("answered", "silent", "answered-then-call", "silent-then-call", "restart")


@settings(max_examples=150, deadline=None)
@given(
    timeout=st.floats(min_value=0.05, max_value=3.0),
    steps=st.lists(
        st.tuples(
            st.sampled_from(ACTIONS),
            # Gap before the action, in timeouts; 0 makes deadlines tie.
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.5)),
        ),
        max_size=25,
    ),
)
def test_every_unanswered_call_times_out_once_at_its_deadline(timeout, steps):
    sim = Simulation(seed=1)  # fixed 10 ms links: a reply beats any timeout
    caller, peer, silent = (sim.add_node(Node) for _ in range(3))
    for node in (caller, peer, silent):
        node.add_service(RpcService(timeout=timeout))
    sim.start_all()
    silent.stop()
    rpc = rpc_of(caller)
    rpc_of(peer).register("echo", lambda args, src: args[0])
    calls = []  # per call: (call time, destination, [(time, ok, result)])
    waiting, dropped, timed_out = set(), set(), []
    peak = [0]

    def watch() -> None:
        peak[0] = max(peak[0], armed_timers(sim, rpc))

    def call(dst: int, then_call: bool) -> None:
        index = len(calls)
        outcomes = []
        calls.append((sim.now, dst, outcomes))
        waiting.add(index)

        def on_reply(ok, result) -> None:
            outcomes.append((sim.now, ok, result))
            waiting.discard(index)
            if result == "timeout":
                timed_out.append(index)
            if then_call:  # a call from inside a reply or timeout callback
                call(silent.id, False)
            watch()

        rpc.call(dst, "echo", (index,), on_reply=on_reply)
        watch()

    for action, gap in steps:
        sim.run_for(gap * timeout)
        watch()
        if action == "restart":
            caller.stop()
            dropped |= waiting
            waiting.clear()
            sim.run_for(gap * timeout)
            caller.start()
        else:
            target = peer.id if action.startswith("answered") else silent.id
            call(target, action.endswith("then-call"))
    sim.run_for(3 * timeout)

    assert peak[0] <= 1
    assert not waiting
    for index, (called_at, dst, outcomes) in enumerate(calls):
        if index in dropped:
            assert outcomes == []  # the caller's stop forgot the call
        elif dst == peer.id:
            assert [outcome[1:] for outcome in outcomes] == [(True, index)]
        else:
            assert outcomes == [(called_at + timeout, False, "timeout")]
    assert timed_out == sorted(timed_out)  # in call order


def test_invoke_runs_the_handler_in_process():
    service = RpcService()
    service.register("add", lambda args, src: args[0] + src)
    service.register("boom", lambda args, src: 1 / 0)
    assert service.invoke("add", (2,), 40) == (True, 42)
    assert service.invoke("boom", (), 0) == (False, "division by zero")
    assert service.invoke("nope", (), 0) == (False, "no such method 'nope'")


def test_timeout_callback_that_restarts_its_node_leaves_one_timer():
    sim, a, b = make_rpc_pair()
    b.stop()
    rpc = rpc_of(a)
    results = []

    def restart_and_call(ok, r):
        results.append(("first", sim.now, r))
        a.stop()  # forgets the second call, due at the same instant
        a.start()
        rpc.call(b.id, "x", on_reply=lambda ok, r: results.append(("third", sim.now, r)))
        assert armed_timers(sim, rpc) == 1

    rpc.call(b.id, "x", on_reply=restart_and_call)
    rpc.call(b.id, "x", on_reply=lambda ok, r: results.append(("second", sim.now, r)))
    sim.run_for(1.5)
    assert armed_timers(sim, rpc) == 1
    sim.run_for(5)
    assert results == [("first", 1.0, "timeout"), ("third", 2.0, "timeout")]

"""The runtime isolation checker: structural payload digests, the
copy-on-send tap (mutation-in-flight detection with full sender /
receiver / type / sim-time context), fan-out of one object, taps
belonging to one network, errors crossing the ``--jobs`` process
boundary, and the trajectory-neutrality contract — a checked scenario
run is byte-identical to a plain one."""

from __future__ import annotations

import multiprocessing
import pickle
from dataclasses import dataclass

import pytest

from repro.errors import IsolationError, OperationTimeoutError
from repro.lint import IsolationTap, payload_digest
from repro.obs import FlightRecorder
from repro.scenarios.registry import load_bundled
from repro.scenarios.runner import RunOptions, run_scenario, run_sweep
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.simulator import Simulation

CHECKED = RunOptions(isolation_check=True)

SMALL = dict(
    nodes=20,
    warmup=8.0,
    settle=6.0,
    cooldown=0.0,
    record_count=5,
    operation_count=8,
)


def small_spec(name: str = "baseline"):
    spec = load_bundled(name)
    overrides = dict(SMALL)
    if spec.stack == "core":
        overrides["num_slices"] = 3
    return spec.scaled(**overrides)


# ------------------------------------------------------------------ digest


@dataclass
class Record:
    key: str
    versions: list


class TestPayloadDigest:
    def test_equal_structure_equal_digest(self):
        assert payload_digest([1, "a", (2.5, None)]) == payload_digest(
            [1, "a", (2.5, None)]
        )

    def test_mutation_changes_digest(self):
        payload = [1, 2]
        before = payload_digest(payload)
        payload.append(3)
        assert payload_digest(payload) != before

    def test_dict_insertion_order_is_irrelevant(self):
        assert payload_digest({"a": 1, "b": 2}) == payload_digest(
            {"b": 2, "a": 1}
        )

    def test_set_digest_ignores_iteration_order(self):
        # Mixed-type sets have no stable sort; digests sort by sub-digest.
        assert payload_digest({1, "one", (2,)}) == payload_digest(
            {(2,), 1, "one"}
        )

    def test_container_kinds_are_distinguished(self):
        assert payload_digest([1, 2]) != payload_digest((1, 2))
        assert payload_digest("12") != payload_digest(b"12")

    def test_dataclass_fields_feed_in_declaration_order(self):
        a = Record("k", [1])
        b = Record("k", [1])
        assert payload_digest(a) == payload_digest(b)
        b.versions.append(2)
        assert payload_digest(a) != payload_digest(b)

    def test_cycles_terminate(self):
        payload = [1]
        payload.append(payload)
        assert isinstance(payload_digest(payload), str)

    def test_nested_structures(self):
        deep = {"rows": [{"k": {1, 2}}, (Record("x", []),)]}
        same = {"rows": [{"k": {2, 1}}, (Record("x", []),)]}
        assert payload_digest(deep) == payload_digest(same)


# ---------------------------------------------------------- guard fixtures


@dataclass
class Evil:
    payload: list


class Mutator(Node):
    """Sends a message, keeps the reference, mutates it in flight."""

    def on_start(self) -> None:
        self.after(0.1, self._fire)

    def _fire(self) -> None:
        m = Evil([1, 2])
        self.send(1, m)
        # Delivery latency is 0.01s; this lands while the copy is on
        # the wire — exactly the bug the guard exists to catch.
        self.after(0.005, m.payload.append, 99)


class Polite(Node):
    """Sends and lets go — the ownership contract, followed."""

    def on_start(self) -> None:
        self.after(0.1, self._fire)

    def _fire(self) -> None:
        m = Evil([1, 2])
        self.send(1, m)


class FanOut(Node):
    """One immutable message object, many receivers (replication style)."""

    def on_start(self) -> None:
        self.after(0.1, self._fire)

    def _fire(self) -> None:
        m = Evil([1, 2])
        for dst in (1, 2, 3):
            self.send(dst, m)


class Resender(Node):
    """Sends an object, mutates it, sends it again while the first copy
    is still on the wire."""

    def on_start(self) -> None:
        self.after(0.1, self._fire)

    def _fire(self) -> None:
        m = Evil([1, 2])
        self.send(1, m)
        m.payload.append(99)
        self.send(2, m)


class Sink(Node):
    pass


def _sim(sender, sinks: int, checked: bool = True) -> Simulation:
    sim = Simulation(seed=7)
    if checked:
        sim.network.add_tap(IsolationTap())
    nodes = [sim.add_node(sender, 0)]
    for node_id in range(1, sinks + 1):
        nodes.append(sim.add_node(Sink, node_id))
    for node in nodes:
        node.start()
    return sim


# --------------------------------------------------------------------- tap


class TestIsolationTap:
    def test_mutation_in_flight_raises_with_context(self):
        sim = _sim(Mutator, 1)
        with pytest.raises(IsolationError) as excinfo:
            sim.run_for(1.0)
        err = excinfo.value
        assert err.src == 0
        assert err.dst == 1
        assert err.kind == "Evil"
        assert err.sent_at == pytest.approx(0.1)
        assert err.now > err.sent_at
        message = str(err)
        assert "Evil" in message
        assert "node 0" in message and "node 1" in message
        assert "t=0.1" in message

    def test_unchecked_mutation_passes_silently(self):
        # The tap is opt-in: without it the buggy run completes (and
        # the receiver sees the mutated payload — the bug it would hide).
        _sim(Mutator, 1, checked=False).run_for(1.0)

    def test_clean_sender_passes(self):
        _sim(Polite, 1).run_for(1.0)

    def test_fan_out_of_one_object_passes(self):
        # Every copy carries its own send-time digest: the same unmutated
        # object may be in flight to several destinations at once.
        _sim(FanOut, 3).run_for(1.0)

    def test_resend_of_a_mutated_object_trips_on_the_earlier_copy(self):
        sim = _sim(Resender, 2)
        with pytest.raises(IsolationError) as excinfo:
            sim.run_for(1.0)
        assert (excinfo.value.src, excinfo.value.dst) == (0, 1)

    def test_send_to_dead_node_is_still_checked(self):
        sim = _sim(Mutator, 1)
        sim.nodes[1].stop()
        with pytest.raises(IsolationError):
            sim.run_for(1.0)
        assert sim.metrics.get("msg.received", 1) == 0.0

    def test_a_tap_sees_only_its_own_network(self):
        # Two simulations alive at once: the checker on one neither
        # checks nor is tripped by the other's traffic.
        checked, plain = _sim(Polite, 1), _sim(Mutator, 1, checked=False)
        plain.run_for(1.0)
        checked.run_for(1.0)
        assert plain.network.taps == ()
        assert plain.metrics.get("msg.received", 1) == checked.metrics.get("msg.received", 1) == 1.0


# -------------------------------------------------- across the process pool


@pytest.mark.parametrize(
    "error",
    [IsolationError(3, 4, "PutRequest", 1.5, 1.75), OperationTimeoutError("put", "k", 2.0)],
)
def test_errors_survive_pickling(error):
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is type(error)
    assert str(clone) == str(error) and vars(clone) == vars(error)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the buggy sender is patched in here and must be inherited by the workers",
)
def test_violation_in_a_worker_reaches_the_parent(monkeypatch):
    stock = Node.send

    def leaky_send(self, dst, msg):
        on_wire = stock(self, dst, msg)
        if type(msg).__name__ == "PutRequest":
            object.__setattr__(msg, "value", b"mutated after send")
        return on_wire

    monkeypatch.setattr(Node, "send", leaky_send)
    with pytest.raises(IsolationError) as excinfo:
        run_sweep(small_spec(), seeds=[0, 1], jobs=2, options=CHECKED)
    err = excinfo.value
    assert err.kind == "PutRequest" and err.src != err.dst
    assert err.now > err.sent_at > 0.0
    assert f"from node {err.src} to node {err.dst}" in str(err)


# ---------------------------------------------------- trajectory neutrality


class TestTrajectoryNeutrality:
    def test_checked_run_is_byte_identical(self):
        spec = small_spec()
        plain = run_scenario(spec, seed=11)
        checked = run_scenario(spec, seed=11, options=CHECKED)
        assert checked.summary_json() == plain.summary_json()

    def test_checked_fault_spec_is_byte_identical(self):
        spec = small_spec("asymmetric-partition")
        plain = run_scenario(spec, seed=3)
        checked = run_scenario(spec, seed=3, options=CHECKED)
        assert checked.summary_json() == plain.summary_json()

    def test_checked_sweep_is_byte_identical(self):
        spec = small_spec()
        plain = run_sweep(spec, seeds=[0, 1])
        checked = run_sweep(spec, seeds=[0, 1], options=CHECKED)
        assert checked.summary_json() == plain.summary_json()

    def test_stacks_with_sanitizer_and_checker(self):
        # scenarios run --sanitize --isolation-check: both checks on.
        spec = small_spec("dht-crash-recover")
        result = run_scenario(
            spec, seed=5, options=RunOptions(sanitize=True, isolation_check=True)
        )
        assert result.metrics["events_processed"] > 0

    def test_both_options_leave_the_network_class_alone(self):
        # scenarios run --sanitize --isolation-check: the checker rides
        # on the run's own network; at every phase boundary of the run
        # the class still holds the stock functions.
        def on_class():
            return Network.send, Network.multicast, Network._deliver, Network._deliver_traced

        seen = []

        class Watcher(FlightRecorder):
            def attach(self, sim):
                super().attach(sim)
                self.network = sim.network

            def begin_phase(self, name):
                super().begin_phase(name)
                if name != "deploy":
                    seen.append((on_class(), len(self.network.taps), vars(self.network).get("send")))

        stock = on_class()
        both = RunOptions(sanitize=True, isolation_check=True)
        spec = small_spec("dht-crash-recover")
        result = run_scenario(spec, seed=5, recorder=Watcher(), options=both)
        assert len(seen) >= 5 and set(seen) == {(stock, 1, None)}
        assert result.summary_json() == run_scenario(spec, seed=5).summary_json()

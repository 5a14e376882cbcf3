"""The runtime protocol-coverage accountant: per-(node class, message
type) delivered/handled edge counts that belong to one run, their sum
over a sweep whatever the job count, the static-vs-runtime edge diff,
and the trajectory-neutrality contract — a covered scenario run is
byte-identical to a plain one."""

from __future__ import annotations

import os
from dataclasses import dataclass

import repro
from repro.lint import (
    CoverageTap,
    build_protocol_graph,
    merge_coverage,
    unexercised_edges,
)
from repro.obs import FlightRecorder
from repro.scenarios.registry import load_bundled
from repro.scenarios.runner import RunOptions, run_scenario, run_sweep
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.simulator import Simulation

COVERED = RunOptions(protocol_coverage=True)
EMPTY = {"delivered": {}, "handled": {}}

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


# ----------------------------------------------------------- guard fixtures


@dataclass(frozen=True)
class Ping:
    body: str


@dataclass(frozen=True)
class Stray:
    body: str


class Chatty(Node):
    """Sends one handled type and one dead-letter type."""

    def on_start(self) -> None:
        self.after(0.1, self._fire)

    def _fire(self) -> None:
        self.send(1, Ping("hi"))
        self.send(1, Stray("lost"))


class Sink(Node):
    def on_start(self) -> None:
        self.register_handler(Ping, self._on_ping)

    def _on_ping(self, msg, src) -> None:
        self.last = msg.body


def _sim():
    sim = Simulation(seed=7)
    tap = CoverageTap()
    sim.network.add_tap(tap)
    sender = sim.add_node(Chatty, 0)
    sink = sim.add_node(Sink, 1)
    sender.start()
    sink.start()
    return sim, tap


def _static_graph():
    return build_protocol_graph([os.path.dirname(os.path.abspath(repro.__file__))])


# --------------------------------------------------------------------- tap


class TestCoverageTap:
    def test_delivered_and_handled_are_keyed_by_class_and_type(self):
        sim, tap = _sim()
        sim.run_for(1.0)
        snapshot = tap.snapshot()
        assert snapshot["delivered"] == {"Sink/Ping": 1, "Sink/Stray": 1}
        assert snapshot["handled"] == {"Sink/Ping": 1}

    def test_counters_belong_to_the_simulation_they_tap(self):
        # Two simulations alive at once: each tap counts its own
        # network's deliveries and none of the other's.
        (first, first_tap), (second, second_tap) = _sim(), _sim()
        first.run_for(1.0)
        assert second_tap.snapshot() == EMPTY
        second.run_for(1.0)
        assert first_tap.snapshot() == second_tap.snapshot() != EMPTY

    def test_dead_destination_is_not_counted(self):
        sim, tap = _sim()
        sim.nodes[1].stop()
        sim.run_for(1.0)
        # Unregistered destination: the network drops the message before
        # any node class can be attributed.
        assert tap.snapshot() == EMPTY

    def test_merge_sums_edge_by_edge_and_sorts(self):
        a = {"delivered": {"B/x": 1, "A/x": 2}, "handled": {"A/x": 2}}
        b = {"delivered": {"A/x": 5, "C/y": 1}, "handled": {}}
        merged = merge_coverage([a, b])
        assert merged == {"delivered": {"A/x": 7, "B/x": 1, "C/y": 1}, "handled": {"A/x": 2}}
        assert list(merged["delivered"]) == ["A/x", "B/x", "C/y"]
        assert merge_coverage([]) == EMPTY


# ------------------------------------------------- static-vs-runtime diff


class TestEdgeDiff:
    def test_scenario_exercises_core_edges(self):
        result = run_scenario(small_spec(), seed=11, options=COVERED)
        missing = unexercised_edges(_static_graph(), result.coverage)
        missing_keys = {(endpoint, message) for endpoint, message, _ in missing}
        # The baseline core stack drives the put/get protocol…
        assert ("RequestHandler", "PutRequest") not in missing_keys
        assert ("RequestHandler", "GetRequest") not in missing_keys
        # …and never touches the oracle stack's wiring.
        assert ("OracleNode", "OraclePut") in missing_keys

    def test_all_edges_missing_without_a_covered_run(self):
        graph = _static_graph()
        assert len(unexercised_edges(graph, EMPTY)) == len(graph.handle_edges())

    def test_counters_are_diagnostics_outside_the_summary(self):
        assert run_scenario(small_spec(), seed=11).coverage is None
        covered = run_scenario(small_spec(), seed=11, options=COVERED)
        assert "coverage" not in covered.summary_json() and covered.coverage["handled"]

    def test_sweep_sums_the_seeds_whatever_the_job_count(self):
        spec = small_spec()
        serial = run_sweep(spec, seeds=[0, 1, 2], options=COVERED)
        parallel = run_sweep(spec, seeds=[0, 1, 2], jobs=2, options=COVERED)
        assert serial.coverage == parallel.coverage
        assert serial.coverage == merge_coverage(r.coverage for r in serial.results)
        assert sum(serial.coverage["handled"].values()) > max(
            sum(r.coverage["handled"].values()) for r in serial.results
        )
        assert run_sweep(spec, seeds=[0]).coverage is None


# ---------------------------------------------------- trajectory neutrality


class TestTrajectoryNeutrality:
    def test_covered_run_is_byte_identical(self):
        spec = small_spec()
        plain = run_scenario(spec, seed=11)
        covered = run_scenario(spec, seed=11, options=COVERED)
        assert covered.summary_json() == plain.summary_json()

    def test_covered_fault_spec_is_byte_identical(self):
        spec = small_spec("asymmetric-partition")
        plain = run_scenario(spec, seed=3)
        covered = run_scenario(spec, seed=3, options=COVERED)
        assert covered.summary_json() == plain.summary_json()

    def test_covered_sweep_is_byte_identical(self):
        spec = small_spec()
        plain = run_sweep(spec, seeds=[0, 1])
        covered = run_sweep(spec, seeds=[0, 1], options=COVERED)
        assert covered.summary_json() == plain.summary_json()

    def test_all_three_options_leave_the_network_class_alone(self):
        # scenarios run --sanitize --isolation-check --protocol-coverage:
        # everything rides on the run's own network; at every phase
        # boundary of the run the class still holds the stock functions.
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
        everything = RunOptions(sanitize=True, isolation_check=True, protocol_coverage=True)
        spec = small_spec("dht-crash-recover")
        result = run_scenario(spec, seed=5, recorder=Watcher(), options=everything)
        assert len(seen) >= 5 and set(seen) == {(stock, 2, None)}
        assert result.coverage["handled"]
        assert result.summary_json() == run_scenario(spec, seed=5).summary_json()

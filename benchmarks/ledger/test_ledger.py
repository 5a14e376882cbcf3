"""Self-test of the performance ledger (tier-1, < 10 s, stdlib + pytest).

Covers what a wrong ledger would get wrong silently: the layer table,
the self-time subtraction, percentile / ``n`` reporting, every
``compare`` verdict, agreement between ``BENCHMARK.json`` and the
metrics the code computes, and — with one ``--quick`` pass run twice —
that every deterministic field repeats exactly.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, build_spec, check_unit, plan_units, unit_seeds  # noqa: E402

from repro.sim.simulator import Simulation  # noqa: E402
from repro.sim.node import Node  # noqa: E402

CONTRACT = run.load_contract()
END_TO_END = CONTRACT["end_to_end"]


# ---------------------------------------------------------------- layer table


def test_every_message_class_of_the_program_is_in_the_table():
    """The table names types by string; a renamed or new message class
    must not fall out of it unnoticed."""
    from repro.core import messages
    from repro.dht import rpc
    from repro.pss import cyclon, newscast
    from repro.slicing import dslead, ordered, sliver

    defined = {
        name
        for module in (messages, rpc, cyclon, newscast, dslead, ordered, sliver)
        for name, obj in vars(module).items()
        if isinstance(obj, type)
        and obj.__module__ == module.__name__
        and hasattr(obj, "__dataclass_fields__")
        and name not in ("NodeDescriptor",)
    }
    assert defined == set(layers.MESSAGE_LAYERS)
    assert {family for family, _ in layers.MESSAGE_LAYERS.values()} == set(layers.FAMILIES)


def test_callbacks_are_classified_by_type_and_owning_module():
    from repro.core.client import DataFlasksClient
    from repro.core.messages import PutRequest
    from repro.dht.node import ChordNode
    from repro.pss.cyclon import CyclonService
    from repro.workload.openloop import OpenLoopRunner

    sim = Simulation(seed=1)
    node = sim.add_node(Node)
    node.start()
    deliver = sim.network._deliver
    put = PutRequest(key="k", version=1, value=b"", req_id=(0, 0), attempt=0, client_id=0, ttl=1)
    assert layers.classify(deliver, (0, 1, put, {})) == "handler.put_s"
    assert layers.classify(deliver, (0, 1, object(), {})) == layers.OTHER

    timer = node.every(1.0, CyclonService._shuffle)
    assert layers.classify(timer._fire, ()) == "pss.tick_s"
    timer = node.every(1.0, ChordNode._stabilize)
    assert layers.classify(timer._fire, ()) == "dht.tick_s"
    timer = node.every(1.0, print)
    assert layers.classify(timer._fire, ()) == layers.OTHER

    event = node.after(1.0, DataFlasksClient._on_timeout)
    assert layers.classify(event.fn, ()) == "client.timer_s"
    assert layers.classify(OpenLoopRunner._on_arrival, ()) == "workload.arrival_s"
    assert layers.classify(print, ()) == layers.OTHER


def test_unmapped_message_types_are_reported():
    totals = {"msg.sent": 3.0, "msg.sent.PutRequest": 2.0, "msg.sent.Mystery": 1.0}
    assert layers.unmapped_message_types(totals) == ["Mystery"]


# ------------------------------------------------------------------ self time


def _bare_tracer():
    """A tracer whose event counter the test drives by hand."""
    tracer = layers.LayerTracer(Simulation(seed=1))
    tracer._scheduler = SimpleNamespace(events_processed=0)
    return tracer


def test_self_time_is_span_minus_children_of_the_same_callback():
    tracer = _bare_tracer()
    tracer.begin_phase("load")
    tracer._add_child(0.5)  # driver code sends before any event fires
    tracer._scheduler.events_processed = 1  # the scheduler pops event 1 ...
    tracer._add_child(0.25)  # ... whose callback sends twice
    tracer._add_child(0.25)
    tracer.record(print, (), 2.0)
    assert tracer.seconds[layers.OTHER] == pytest.approx(1.5)
    assert tracer.driver_child_s == pytest.approx(0.5)

    tracer._add_child(0.125)  # driver again, still "event 1" by the counter
    tracer._scheduler.events_processed = 2
    tracer.record(print, (), 1.0)  # a callback without children
    assert tracer.seconds[layers.OTHER] == pytest.approx(2.5)
    assert tracer.driver_child_s == pytest.approx(0.625)
    assert tracer.callback_s == pytest.approx(3.0)


def test_traced_seconds_add_up_to_the_wall():
    """Callback self time + send + push + loop = the unit's wall."""
    spec = build_spec("core_mixed_open", quick=True)
    recorder = layers.LedgerRecorder(trace=True)
    result = run.run_scenario(spec, 5, recorder=recorder)
    out = layers.layer_metrics(recorder, result.metrics, ops_ok=1)
    tracer = recorder.layers
    parts = sum(tracer.totals().values()) + out["net.send_s"] + out["sched.push_s"] + out["sched.loop_s"]
    assert parts == pytest.approx(sum(recorder.phase_seconds().values()), rel=1e-9)
    assert out["unclassified_share"] == 0.0
    assert out["sched.push_calls"] >= out["net.send_calls"] > 0
    assert set(recorder.phase_seconds()) == set(layers.PHASES)


# -------------------------------------------------------- percentiles and n


def test_latency_summary_reports_percentiles_in_ms_with_n():
    summary = run.latency_summary([i / 1000 for i in range(1, 102)])  # 1..101 ms
    assert summary["n"] == 101
    assert summary["sim_op_p50_ms"] == pytest.approx(51.0)
    assert summary["sim_op_p99_ms"] == pytest.approx(100.0)


def test_quartiles_follow_statistics_quantiles():
    assert compare.quartiles([7.0]) == (7.0, 7.0, 7.0)
    q1, median, q3 = compare.quartiles([1.0, 2.0, 3.0, 4.0])
    assert (q1, median, q3) == (1.25, 2.5, 3.75)
    assert compare.spread([1.0, 2.0, 3.0, 4.0]) == pytest.approx(1.0)


# ------------------------------------------------------------------- compare


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([10.0, 10.1, 9.9], [10.4, 10.5, 10.3], "lower", "ok"),  # +4 % < 10 %
        ([10.0, 10.1, 9.9], [11.5, 11.6, 11.4], "lower", "regressed"),
        ([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], "lower", "ok"),  # better is never a regression
        ([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], "higher", "regressed"),
        ([10.0, 13.0, 7.0], [11.5, 11.6, 11.4], "lower", "unresolved"),  # A's own spread > bound
    ],
)
def test_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, bound=0.10)[0] == expected


def _result(mode="full", seed=3, run_s=(1.0, 1.0, 1.0), failed_ratio=0.0, faults=False):
    entry = {
        "faults": faults,
        "trajectory_sha": "x",
        "ops_failed_ratio": failed_ratio,
        "end_to_end": {m["name"]: {"values": list(run_s)} for m in END_TO_END},
    }
    return {"version": 1, "mode": mode, "seed": seed, "seconds": 20.0, "workloads": {"w": entry}}


def test_compare_results_rows_and_refusals():
    rows = compare.compare_results(_result(), _result(run_s=(2.0, 2.0, 2.0)), END_TO_END)
    assert [row["metric"] for row in rows] == [m["name"] for m in END_TO_END] + ["ops_failed_ratio"]
    assert {row["verdict"] for row in rows[:-1]} == {"regressed"}
    assert rows[-1]["verdict"] == "ok"
    assert "regressed" in compare.format_rows(rows)
    with pytest.raises(ValueError, match="mode"):
        compare.compare_results(_result(), _result(mode="quick"), END_TO_END)
    with pytest.raises(ValueError, match="seed"):
        compare.compare_results(_result(), _result(seed=4), END_TO_END)


def test_failed_ratio_is_compared_absolutely():
    def last(a, b):
        return compare.compare_results(a, b, END_TO_END)[-1]["verdict"]

    assert last(_result(), _result(failed_ratio=0.001)) == "regressed"
    assert last(_result(faults=True), _result(faults=True, failed_ratio=0.009)) == "ok"
    assert last(_result(faults=True), _result(faults=True, failed_ratio=0.02)) == "regressed"


# ------------------------------------------------- workloads and the contract


def test_plan_and_seeds():
    assert plan_units("core_write", 20, traced=False) == 18
    assert plan_units("core_write", 20, traced=True) == 6
    assert plan_units("dht_write", 1, traced=False) == 3  # never fewer than MIN_UNITS
    assert plan_units("dht_write", 20, traced=False, quick=True) == 1
    assert not set(unit_seeds(3, 50)) & set(unit_seeds(4, 50))


def test_check_unit_gates():
    good = {"converged": 1.0, "load_success_rate": 1.0}
    assert check_unit("core_write", good, failed_ops=0) == []
    assert check_unit("core_write", good, failed_ops=2)
    assert check_unit("core_write", dict(good, converged=0.0), failed_ops=0)
    faulty = dict(good, lost_objects=0.0, lost_updates=0.0, faults_injected=3.0, faults_healed=3.0)
    assert check_unit("core_faults", faulty, failed_ops=2) == []  # retries may run out under faults
    assert check_unit("core_faults", dict(faulty, lost_updates=1.0), failed_ops=0)
    assert check_unit("core_faults", dict(faulty, faults_healed=2.0), failed_ops=0)


def test_benchmark_json_names_what_the_code_computes():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/ledger"]
    bounds = {m["name"]: m["bound"] for m in END_TO_END}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in END_TO_END + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))


# --------------------------------------------------------------- quick passes


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_pass_is_correct_and_repeats_exactly(name):
    first = run.run_workload(name, seed=3, seconds=20, trace=False, quick=True)
    again = run.run_workload(name, seed=3, seconds=20, trace=False, quick=True)
    traced = run.run_workload(name, seed=3, seconds=20, trace=True, quick=True)
    assert first["correct"] and traced["correct"], first["problems"] + traced["problems"]
    assert first["mode"] == "quick"
    assert first["trajectory_sha"] == again["trajectory_sha"] == traced["trajectory_sha"]
    for field in ("attempted", "failed", "latency_n", "units"):
        assert first[field] == again[field]
    for metric in ("msgs_per_op", "sim_op_p50_ms", "sim_op_p99_ms"):
        assert first["metrics"][metric] == again["metrics"][metric]

    # The contract line carries exactly the declared metrics, none zero
    # end to end.
    line = run.contract_line(first, CONTRACT)
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert list(line["metrics"]) == [m["name"] for m in END_TO_END]
    assert all(m["value"] > 0 for m in line["metrics"].values())
    traced_line = run.contract_line(traced, CONTRACT)
    assert list(traced_line["metrics"]) == [m["name"] for m in CONTRACT["per_layer"]]


def test_a_failed_gate_makes_the_run_incorrect(monkeypatch):
    monkeypatch.setattr(run, "check_unit", lambda name, metrics, failed: ["forced"])
    record = run.run_workload("core_write", seed=3, seconds=20, trace=False, quick=True)
    assert not record["correct"]
    assert record["problems"] == ["seed 3000: forced"]
    assert run.contract_line(record, CONTRACT)["correct"] is False

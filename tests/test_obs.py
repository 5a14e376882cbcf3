"""Tests for the flight recorder (:mod:`repro.obs`).

The load-bearing property throughout: observability must be *free* of
behavioural side effects. Core metrics with the recorder attached are
byte-identical to a run without it, and every artifact serialisation is
byte-identical across same-seed runs.
"""

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultSpec
from repro.obs import (
    FlightRecorder,
    HotspotProfiler,
    OpTracer,
    TimelineRecorder,
    load_manifest,
    render_report,
    sha256_file,
)
from repro.obs.profile import format_hotspots
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import (
    ObservabilitySpec,
    ScenarioSpec,
    WorkloadSpec,
    spec_from_dict,
)
from repro.sim.node import PeriodicTask
from repro.sim.simulator import Simulation


class TestTimelineRecorder:
    def test_rejects_nonpositive_window(self):
        with pytest.raises(ConfigurationError):
            TimelineRecorder(0.0)

    def test_windows_carry_counter_deltas(self):
        sim = Simulation(seed=1)
        recorder = TimelineRecorder(window=2.0)
        recorder.attach(sim)
        # 3 ticks in the first window, 1 in the second.
        for t in (0.5, 1.0, 1.5, 2.5):
            sim.scheduler.schedule(t, lambda: sim.metrics.inc("tick"))
        sim.run_for(4.0)
        recorder.stop(sim.now)
        assert [row["counters"].get("tick", 0.0) for row in recorder.rows] == [
            3.0,
            1.0,
        ]
        assert recorder.rows[0]["start"] == 0.0
        assert recorder.rows[0]["end"] == 2.0

    def test_stop_flushes_partial_window_and_is_idempotent(self):
        sim = Simulation(seed=1)
        recorder = TimelineRecorder(window=5.0)
        recorder.attach(sim)
        sim.scheduler.schedule(6.0, lambda: sim.metrics.inc("late"))
        sim.run_for(7.0)  # one full window + 2s of a partial one
        recorder.stop(sim.now)
        recorder.stop(sim.now)
        assert len(recorder.rows) == 2
        assert recorder.rows[1]["end"] == 7.0
        assert recorder.rows[1]["counters"]["late"] == 1.0

    def test_probe_events_are_counted(self):
        sim = Simulation(seed=1)
        recorder = TimelineRecorder(window=1.0)
        recorder.attach(sim)
        sim.run_for(3.5)
        recorder.stop(sim.now)
        assert recorder.probe_events == 3
        assert sim.scheduler.events_processed >= recorder.probe_events

    def test_damage_rows_aggregate_drop_causes_once(self):
        recorder = TimelineRecorder(window=1.0)
        recorder.rows = [
            {
                "start": 0.0,
                "end": 1.0,
                "counters": {
                    "msg.dropped.loss": 4.0,
                    # Per-type breakdown must not double-count.
                    "msg.dropped.loss.PutRequest": 4.0,
                    "msg.dropped.partition": 2.0,
                },
                "stale_reads": 1,
                "unavail_open": 2,
            }
        ]
        (row,) = recorder.damage_rows()
        assert row["drops"] == 6.0
        assert row["stale"] == 1.0
        assert row["unavail_open"] == 2.0


class TestOpTracer:
    def test_head_sampling_every_nth(self):
        tracer = OpTracer(sample_every=3, max_ops=100)
        ids = [tracer.sample_op("read", f"k{i}", 0, float(i)) for i in range(9)]
        sampled = [i for i in ids if i is not None]
        assert len(sampled) == 3
        assert tracer.total_ops == 9
        assert tracer.sampled_ops == 3

    def test_max_ops_caps_sampling(self):
        tracer = OpTracer(sample_every=1, max_ops=2)
        ids = [tracer.sample_op("read", "k", 0, 0.0) for _ in range(5)]
        assert sum(1 for i in ids if i is not None) == 2

    def test_span_events_balance(self):
        tracer = OpTracer(sample_every=1)
        trace = tracer.sample_op("update", "key", 7, 1.0)
        network = Simulation(seed=1).network
        tracer.on_deliver(network, 7, 3, "a message", trace, 0.0)()
        assert tracer.active is None  # the closer restored it
        with tracer.activated(trace):
            tracer.on_drop(network, 3, 5, "a message", "loss")
        tracer.on_drop(network, 3, 5, "a message", "loss")  # no active op: not traced
        tracer.op_end(trace, True, 1.5)
        kinds = [e["ph"] for e in tracer._events]
        assert kinds.count("b") == kinds.count("e") == 1
        assert kinds.count("X") == 1 and kinds.count("i") == 1

    def test_activated_restores_previous_context(self):
        tracer = OpTracer(sample_every=1)
        assert tracer.active is None
        with tracer.activated(42):
            assert tracer.active == 42
            with tracer.activated(None):
                assert tracer.active is None
            assert tracer.active == 42
        assert tracer.active is None

    def test_chrome_export_is_valid_json_with_metadata(self):
        tracer = OpTracer(sample_every=1)
        trace = tracer.sample_op("read", "k", 2, 0.5)
        tracer.op_end(trace, True, 0.9)
        doc = json.loads(tracer.to_chrome_json())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "M" in phases and "b" in phases and "e" in phases
        names = {e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
        assert "node-2" in names


class TestHotspotProfiler:
    def test_scheduler_hook_records_handlers(self):
        sim = Simulation(seed=1)
        profiler = HotspotProfiler()
        sim.scheduler.profiler = profiler

        def tick():
            sim.metrics.inc("tick")

        for t in (0.1, 0.2, 0.3):
            sim.scheduler.schedule(t, tick)
        sim.run_for(1.0)
        rows = profiler.rows()
        assert profiler.total_events == 3
        assert rows[0]["events"] == 3
        assert "tick" in rows[0]["handler"]
        assert abs(sum(r["share"] for r in rows) - 1.0) < 1e-6

    def test_table_renders(self):
        profiler = HotspotProfiler()
        assert profiler.table() == "(no events profiled)"
        profiler.record(TestHotspotProfiler.test_table_renders, (), 0.001)
        assert "handler" in profiler.table()

    def test_artifact_rows_render_like_the_live_profiler(self):
        profiler = HotspotProfiler()
        profiler.record(TestHotspotProfiler.test_table_renders, (), 0.003)
        profiler.record(_Gossip.round, (), 0.001)
        archived = json.loads(json.dumps(profiler.to_dict()))["hotspots"]
        assert format_hotspots(archived, top=1) == profiler.table(top=1)
        assert format_hotspots(archived) == profiler.table()

    def test_periodic_tasks_are_split_by_callback(self):
        sim = Simulation(seed=1)
        profiler = HotspotProfiler()
        sim.scheduler.profiler = profiler
        PeriodicTask(sim.scheduler, 1.0, _Gossip().round)
        PeriodicTask(sim.scheduler, 2.0, lambda: None)
        sim.run_for(4.5)
        events = {row["handler"]: row["events"] for row in profiler.rows()}
        assert events == {
            "PeriodicTask._fire[_Gossip.round]": 4,
            "PeriodicTask._fire[TestHotspotProfiler."
            "test_periodic_tasks_are_split_by_callback.<locals>.<lambda>]": 2,
        }

    def test_a_real_run_has_no_lumped_periodic_row(self):
        recorder = FlightRecorder(ObservabilitySpec(profile=True))
        run_scenario(_small_spec(), recorder=recorder)
        labels = {row["handler"] for row in recorder.profiler.rows()}
        assert "PeriodicTask._fire" not in labels
        periodic = {label for label in labels if label.startswith("PeriodicTask._fire[")}
        assert len(periodic) >= 3  # peer sampling, slicing, replication at least


class _Gossip:
    def round(self) -> None:
        pass


class TestObservabilitySpec:
    def test_defaults_are_off(self):
        obs = ObservabilitySpec()
        assert not obs.enabled
        recorder = FlightRecorder(obs)
        assert (recorder.timeline, recorder.tracer, recorder.profiler) == (None,) * 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ObservabilitySpec(window=0.0)
        with pytest.raises(ConfigurationError):
            ObservabilitySpec(trace_sample=0)
        with pytest.raises(ConfigurationError):
            ObservabilitySpec(trace_max_ops=0)

    def test_default_block_is_omitted_from_dict(self):
        spec = ScenarioSpec(name="plain")
        assert "observability" not in spec.to_dict()
        assert spec_from_dict(spec.to_dict()) == spec

    def test_round_trip_with_block_set(self):
        spec = ScenarioSpec(
            name="observed",
            observability=ObservabilitySpec(
                timeline=True, window=2.5, trace=True, trace_sample=4
            ),
        )
        data = spec.to_dict()
        assert data["observability"]["timeline"] is True
        assert spec_from_dict(data) == spec

    def test_toml_round_trip(self):
        import tomllib

        from repro.search import scenario_to_toml

        spec = ScenarioSpec(
            name="observed",
            observability=ObservabilitySpec(timeline=True, profile=True),
        )
        recovered = spec_from_dict(tomllib.loads(scenario_to_toml(spec)))
        assert recovered == spec

    def test_scaled_copies_observability(self):
        spec = ScenarioSpec(
            name="observed", observability=ObservabilitySpec(timeline=True)
        )
        copy = spec.scaled(nodes=10)
        assert copy.observability == spec.observability
        assert copy.observability is not spec.observability

    def test_recorder_honours_pillars(self):
        recorder = FlightRecorder(ObservabilitySpec(timeline=True, trace=True))
        assert recorder.timeline is not None
        assert recorder.tracer is not None
        assert recorder.profiler is None


# The runner's wall phases, in execution order.
RUNNER_PHASES = ("deploy", "converge", "load", "settle", "transactions", "heal", "collect")


def _small_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="obs-mini",
        stack="core",
        nodes=15,
        num_slices=3,
        seed=5,
        warmup=8.0,
        settle=5.0,
        workload=WorkloadSpec(record_count=5, operation_count=20),
        metrics=("workload", "consistency"),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _full_recorder() -> FlightRecorder:
    return FlightRecorder(
        ObservabilitySpec(
            timeline=True, window=5.0, trace=True, trace_sample=3, profile=True
        )
    )


def _open_spec() -> ScenarioSpec:
    return _small_spec(
        name="obs-open",
        workload=WorkloadSpec(
            record_count=5, operation_count=25, mode="open", clients=2, rate=4.0
        ),
    )


def _fault_spec() -> ScenarioSpec:
    return _small_spec(
        name="obs-faults",
        faults=[FaultSpec(kind="crash_recover", fraction=0.25, start=1.0, duration=6.0)],
    )


class _CallLog(FlightRecorder):
    """Logs every call the runner makes on its recorder."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = []

    def begin_phase(self, name):
        self.calls.append(("begin_phase", name))
        super().begin_phase(name)

    def attach(self, sim):
        self.calls.append(("attach",))
        super().attach(sim)

    def attach_observer(self, observer):
        self.calls.append(("attach_observer",))
        super().attach_observer(observer)

    def finish(self, sim):
        self.calls.append(("finish",))
        super().finish(sim)

    @property
    def overhead_events(self):
        self.calls.append(("overhead_events",))
        return super().overhead_events


class TestRecorderProtocol:
    """The call order subclasses (the performance ledger's among them)
    rely on: see :mod:`repro.obs.recorder`."""

    @pytest.mark.parametrize("build", [_small_spec, _open_spec, _fault_spec])
    def test_runner_call_order(self, build):
        spec = build()
        recorder = _CallLog()
        result = run_scenario(spec, recorder=recorder)
        assert recorder.calls == [
            ("begin_phase", "deploy"),
            ("attach",),
            ("begin_phase", "converge"),
            ("attach_observer",),
            ("begin_phase", "load"),
            ("begin_phase", "settle"),
            ("begin_phase", "transactions"),
            ("begin_phase", "heal"),
            ("begin_phase", "collect"),
            ("finish",),
            ("overhead_events",),
        ]
        assert result.summary_json() == run_scenario(spec).summary_json()

    def test_default_recorder_has_no_pillars(self):
        recorder = FlightRecorder()
        assert (recorder.timeline, recorder.tracer, recorder.profiler) == (None,) * 3
        assert recorder.overhead_events == 0
        # Names the ledger's recorder subclass sets for itself.
        names = set(vars(recorder)) | set(dir(FlightRecorder))
        assert not names & {"trace", "sim", "layers", "marks"}


class TestRecorderNeutrality:
    """The acceptance property: obs-on == obs-off, byte for byte."""

    def test_closed_loop_metrics_identical(self):
        spec = _small_spec()
        plain = run_scenario(spec)
        recorder = _full_recorder()
        observed = run_scenario(spec, recorder=recorder)
        assert observed.summary_json() == plain.summary_json()
        assert recorder.timeline.rows
        assert recorder.tracer.sampled_ops > 0

    def test_open_loop_metrics_identical(self):
        spec = _open_spec()
        plain = run_scenario(spec)
        recorder = _full_recorder()
        observed = run_scenario(spec, recorder=recorder)
        assert observed.summary_json() == plain.summary_json()
        assert recorder.tracer.sampled_ops > 0

    def test_same_seed_artifacts_byte_identical(self):
        spec = _small_spec()
        first = _full_recorder()
        run_scenario(spec, recorder=first)
        second = _full_recorder()
        run_scenario(spec, recorder=second)
        assert first.timeline.to_json() == second.timeline.to_json()
        assert first.tracer.to_chrome_json() == second.tracer.to_chrome_json()

    def test_phases_and_profile_recorded(self):
        recorder = _full_recorder()
        run_scenario(_small_spec(), recorder=recorder)
        phases = [name for name, _ in recorder.phase_wall()]
        assert phases == list(RUNNER_PHASES)
        assert recorder.total_wall > 0
        labels = {row["handler"] for row in recorder.profiler.rows()}
        assert any(label.startswith("Network._deliver[") for label in labels)

    def test_trace_spans_balance_in_real_run(self):
        recorder = _full_recorder()
        run_scenario(_small_spec(), recorder=recorder)
        events = recorder.tracer._events
        begins = sum(1 for e in events if e["ph"] == "b")
        ends = sum(1 for e in events if e["ph"] == "e")
        assert begins == ends == recorder.tracer.sampled_ops


class TestManifest:
    def test_write_artifacts_hashes_match_files(self, tmp_path):
        spec = _small_spec()
        recorder = _full_recorder()
        result = run_scenario(spec, recorder=recorder)
        path = recorder.write_artifacts(str(tmp_path), spec, result)
        manifest = load_manifest(path)
        assert manifest["scenario"] == "obs-mini"
        assert manifest["seed"] == 5
        names = {entry["name"] for entry in manifest["artifacts"]}
        assert names == {
            "timeline.json",
            "trace.json",
            "hotspots.json",
            "metrics.json",
        }
        for entry in manifest["artifacts"]:
            target = os.path.join(str(tmp_path), entry["name"])
            assert sha256_file(target) == entry["sha256"]
            assert os.path.getsize(target) == entry["bytes"]

    def test_phases_keep_execution_order(self, tmp_path):
        spec = _small_spec()
        recorder = _full_recorder()
        result = run_scenario(spec, recorder=recorder)
        manifest = load_manifest(recorder.write_artifacts(str(tmp_path), spec, result))
        assert manifest["schema"] == 2
        assert [name for name, _ in manifest["wall"]["phases"]] == list(RUNNER_PHASES)
        (line,) = [
            line
            for line in render_report(str(tmp_path)).splitlines()
            if line.startswith("  phases: ")
        ]
        shown = [part.split()[0] for part in line[len("  phases: "):].split(", ")]
        assert shown == list(RUNNER_PHASES)

    def test_report_renders_every_artifact(self, tmp_path):
        spec = _small_spec()
        recorder = _full_recorder()
        result = run_scenario(spec, recorder=recorder)
        path = recorder.write_artifacts(str(tmp_path), spec, result)
        report = render_report(path)  # the manifest path works too
        assert report.startswith("run: obs-mini (core, 15 nodes, seed 5)")
        assert "\ntimeline (" in report
        assert "\ntrace: " in report
        assert recorder.profiler.table(top=12) in report

    def test_report_refuses_another_schema(self, tmp_path):
        spec = _small_spec()
        recorder = FlightRecorder(ObservabilitySpec(timeline=True))
        result = run_scenario(spec, recorder=recorder)
        path = recorder.write_artifacts(str(tmp_path), spec, result)
        manifest = load_manifest(path)
        manifest["schema"] = 1
        with open(path, "w", encoding="utf-8") as f:
            json.dump(manifest, f)
        with pytest.raises(ConfigurationError, match="schema 1"):
            render_report(str(tmp_path))

    def test_load_manifest_accepts_directory(self, tmp_path):
        spec = _small_spec()
        recorder = FlightRecorder(ObservabilitySpec(timeline=True))
        result = run_scenario(spec, recorder=recorder)
        recorder.write_artifacts(str(tmp_path), spec, result)
        manifest = load_manifest(str(tmp_path))
        assert manifest["observability"]["timeline"] is True
        assert manifest["observability"]["trace"] is False


class TestHuntTimeline:
    def test_timeline_window_attaches_damage_rows(self):
        from repro.search import HuntConfig, run_hunt

        config = HuntConfig(
            search_seed=1,
            budget=1,
            nodes=12,
            records=4,
            operations=10,
            timeline_window=5.0,
        )
        result = run_hunt(config)
        (candidate,) = result.candidates
        assert candidate.score.timeline is not None
        assert all("drops" in row for row in candidate.score.timeline)
        assert "timeline" in json.loads(result.log_json())["candidates"][0]

    def test_timeline_window_leaves_the_score_unchanged(self):
        from repro.search import score_scenario

        spec = _fault_spec()
        plain = score_scenario(spec)
        timed = score_scenario(spec, timeline_window=5.0)
        assert plain.timeline is None and timed.timeline
        assert timed.components() == plain.components()
        assert timed.target_metrics == plain.target_metrics
        assert timed.oracle_metrics == plain.oracle_metrics

    def test_default_hunt_log_has_no_timeline_key(self):
        from repro.search import HuntConfig, run_hunt

        config = HuntConfig(
            search_seed=1, budget=1, nodes=12, records=4, operations=10
        )
        result = run_hunt(config)
        assert "timeline" not in json.loads(result.log_json())["candidates"][0]

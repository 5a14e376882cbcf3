"""Tests for the scenario engine: spec round-trips, deterministic
replay, sweep aggregation, and an end-to-end run of every bundled spec
at small scale."""

import json

import pytest

from repro.churn import ChurnController
from repro.errors import ConfigurationError
from repro.scenarios import (
    ChurnSpec,
    FaultSpec,
    LatencySpec,
    ScenarioSpec,
    WorkloadSpec,
    bundled_names,
    load_all_bundled,
    load_bundled,
    load_spec,
    run_scenario,
    run_sweep,
    spec_from_dict,
)
from repro.scenarios.registry import figure3_spec, figure4_spec, figure_rows
from repro.sim.network import FixedLatency, LogNormalLatency, UniformLatency
from repro.sim.node import Node
from repro.sim.simulator import Simulation

EXPECTED_BUNDLED = {
    "asymmetric-partition",
    "baseline",
    "burst-loss",
    "catastrophic-failure",
    "crash-recover-wave",
    "dht-baseline",
    "dht-crash-recover",
    "flash-crowd",
    "flight-recorder",
    "heterogeneous-latency",
    "open-loop",
    "oracle-baseline",
    "oracle-fault-wave",
    "paper-figures",
    "scale-20k",
    "scale-5k",
    "skewed-ycsb",
    "slow-quartile",
    "steady-churn",
}

# Overrides that make any bundled spec run in well under a second.
SMALL = dict(
    nodes=25,
    warmup=8.0,
    settle=6.0,
    cooldown=0.0,
    record_count=6,
    operation_count=10,
)


def small_spec(name: str, **extra) -> ScenarioSpec:
    spec = load_bundled(name)
    overrides = dict(SMALL, **extra)
    if spec.stack == "core":
        overrides.setdefault("num_slices", 3)
    spec = spec.scaled(**overrides)
    if spec.churn is not None and spec.churn.kind == "flash_crowd":
        spec.churn.joins = 8
        spec.churn.over = 2.0
    return spec


# ------------------------------------------------------------------ specs


class TestSpecValidation:
    def test_unknown_stack_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", stack="cloud")

    def test_unknown_latency_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencySpec(kind="quantum")

    def test_unknown_churn_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ChurnSpec(kind="meteor")

    def test_unknown_workload_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(preset="ycsb-z")

    def test_unknown_metric_group_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", metrics=("workload", "vibes"))

    def test_unknown_dict_key_rejected(self):
        with pytest.raises(ConfigurationError):
            spec_from_dict({"name": "x", "nodez": 10})

    def test_malformed_trace_event_rejected(self):
        with pytest.raises(ConfigurationError):
            ChurnSpec(kind="trace", events=[[1.0, "explode"]])

    def test_misspelt_config_key_rejected_naming_key_and_valid_ones(self):
        with pytest.raises(ConfigurationError, match=r"fanuot.*valid keys.*'fanout'"):
            spec_from_dict(dict(name="x", stack="core", nodes=20, config={"fanuot": 3}))

    @pytest.mark.parametrize("config", [{"ttl": 0}, {"fanout": -1}, {"ttl": "long"}])
    def test_out_of_range_config_value_rejected_naming_key(self, config):
        with pytest.raises(ConfigurationError, match=next(iter(config))):
            ScenarioSpec(name="x", config=config)

    def test_config_num_slices_rejected_in_favour_of_top_level_field(self):
        with pytest.raises(ConfigurationError, match="top-level"):
            ScenarioSpec(name="x", config={"num_slices": 4})

    def test_core_spec_with_more_slices_than_nodes_rejected(self):
        # It used to validate, wait out convergence_timeout with a slice
        # left empty and report converged 0 and half its loads lost.
        with pytest.raises(ConfigurationError, match=r"num_slices \(5\).*nodes \(4\)"):
            spec_from_dict(
                dict(name="x", stack="core", nodes=4, num_slices=5, settle=0.0,
                     workload=dict(record_count=2))
            )

    def test_valid_config_survives_restacking_onto_the_oracle(self):
        # search/scorer.py re-stacks a core spec; its [config] rides along.
        spec = ScenarioSpec(name="x", config={"view_size": 25})
        assert spec.scaled(stack="oracle").config == {"view_size": 25}


class TestSpecBuilders:
    def test_latency_builders(self):
        assert isinstance(LatencySpec(kind="fixed").build(), FixedLatency)
        assert isinstance(LatencySpec(kind="uniform").build(), UniformLatency)
        assert isinstance(LatencySpec(kind="lognormal").build(), LogNormalLatency)

    def test_flash_crowd_horizon_and_events(self):
        spec = ChurnSpec(kind="flash_crowd", joins=4, over=2.0)
        sim = Simulation(seed=0)
        controller = ChurnController(sim, Node)
        assert controller.apply(spec, population=10) == 2.0
        sim.run_for(2.0)
        assert controller.joins == 4 and controller.leaves == 0

    def test_workload_build_applies_overrides(self):
        workload = WorkloadSpec(
            preset="ycsb-b", record_count=33, request_distribution="uniform", value_size=8
        ).build()
        assert workload.record_count == 33
        assert workload.request_distribution == "uniform"
        assert workload.value_size == 8

    def test_scaled_routes_workload_fields(self):
        spec = ScenarioSpec(name="x").scaled(nodes=7, record_count=3, operation_count=4)
        assert spec.nodes == 7
        assert spec.workload.record_count == 3
        assert spec.workload.operation_count == 4

    def test_scaled_copies_are_independent(self):
        base = ScenarioSpec(
            name="x",
            churn=ChurnSpec(kind="correlated", fraction=0.3),
            faults=[FaultSpec(kind="partition", fraction=0.3, groups=[[1], [2]])],
            config={"view_size": 10},
        )
        derived = base.scaled(nodes=9)
        derived.churn.fraction = 0.9
        derived.workload.preset = "ycsb-c"
        derived.latency.latency = 0.5
        derived.config["view_size"] = 99
        derived.faults[0].fraction = 0.8
        derived.faults[0].groups[0].append(3)
        assert base.churn.fraction == 0.3
        assert base.workload.preset == "write-only"
        assert base.latency.latency == 0.01
        assert base.config["view_size"] == 10
        assert base.faults[0].fraction == 0.3
        assert base.faults[0].groups == [[1], [2]]


class TestSpecRoundTrip:
    def full_spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            name="round-trip",
            description="everything set",
            stack="core",
            nodes=40,
            num_slices=4,
            seed=9,
            loss_rate=0.01,
            latency=LatencySpec(kind="lognormal", median=0.05),
            churn=ChurnSpec(kind="trace", events=[[1.0, "join"], [2.0, "leave"]], start=3.0),
            faults=[
                FaultSpec(kind="partition", fraction=0.3, symmetric=False, start=1.0),
                FaultSpec(kind="degrade", loss=0.2, extra_latency=0.05, nodes=[1, 2]),
                FaultSpec(kind="crash_recover", fraction=0.2, duration=8.0),
            ],
            workload=WorkloadSpec(preset="ycsb-f", record_count=12, operation_count=5),
            config={"view_size": 15},
            metrics=("workload", "messages", "consistency"),
        )

    def test_dict_round_trip(self):
        spec = self.full_spec()
        assert spec_from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = self.full_spec()
        assert spec_from_dict(json.loads(spec.to_json())) == spec

    def test_json_file_round_trip(self, tmp_path):
        spec = self.full_spec()
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert load_spec(str(path)) == spec

    def test_toml_file_loads(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(
            "\n".join(
                [
                    'name = "from-toml"',
                    "nodes = 30",
                    "[churn]",
                    'kind = "correlated"',
                    "fraction = 0.5",
                    "[[faults]]",
                    'kind = "partition"',
                    "fraction = 0.25",
                    "symmetric = false",
                    "start = 2.0",
                    "duration = 9.0",
                    "[[faults]]",
                    'kind = "burst_loss"',
                    "loss = 0.4",
                    "[workload]",
                    'preset = "ycsb-c"',
                ]
            )
        )
        spec = load_spec(str(path))
        assert spec.name == "from-toml"
        assert spec.nodes == 30
        assert spec.churn.kind == "correlated"
        assert spec.workload.preset == "ycsb-c"
        assert [f.kind for f in spec.faults] == ["partition", "burst_loss"]
        assert spec.faults[0].symmetric is False
        assert spec.faults[0].end == 11.0

    def test_unknown_fault_key_rejected(self):
        with pytest.raises(ConfigurationError):
            spec_from_dict(
                {"name": "x", "faults": [{"kind": "partition", "blast_radius": 3}]}
            )

    def test_unknown_extension_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_spec(str(tmp_path / "spec.yaml"))


# --------------------------------------------------------------- registry


class TestRegistry:
    def test_bundled_catalogue(self):
        assert set(bundled_names()) == EXPECTED_BUNDLED

    def test_bundled_specs_parse_and_match_names(self):
        for name, spec in load_all_bundled().items():
            assert spec.name == name
            assert spec.description

    def test_unknown_bundled_name(self):
        with pytest.raises(ConfigurationError):
            load_bundled("no-such-scenario")


# ---------------------------------------------------------------- figures


class TestFigures:
    def test_figure3_fixes_slices_and_writes(self):
        specs = [figure3_spec(n, num_slices=2, writes=8) for n in (20, 40)]
        assert [s.nodes for s in specs] == [20, 40]
        assert [s.num_slices for s in specs] == [2, 2]
        assert [s.workload.operation_count for s in specs] == [8, 8]

    def test_figure4_scales_slices_and_writes_with_nodes(self):
        specs = [
            figure4_spec(n, nodes_per_slice=10, records_per_slice=4) for n in (20, 40)
        ]
        assert [s.num_slices for s in specs] == [2, 4]
        assert [s.workload.operation_count for s in specs] == [8, 16]

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(nodes_per_slice=0), "nodes_per_slice"),
            (dict(nodes_per_slice=-5), "nodes_per_slice"),
            (dict(records_per_slice=0), "records_per_slice"),
            (dict(nodes_per_slice=30), "nodes_per_slice"),
        ],
    )
    def test_figure4_rejects_bad_sizing(self, kwargs, field):
        with pytest.raises(ConfigurationError, match=field):
            figure4_spec(20, **kwargs)

    def test_row_shape(self):
        (row,) = figure_rows([figure3_spec(30, num_slices=3, writes=10)], seed=2)
        assert row["n"] == 30
        assert row["num_slices"] == 3
        assert row["ops"] == 10
        assert row["success_rate"] == 1.0
        assert row["txn_not_issued"] == 0
        assert row["messages_per_node"] > 0


# ----------------------------------------------------------------- runner


class TestRunner:
    def test_same_seed_byte_identical(self):
        spec = small_spec("baseline")
        first = run_scenario(spec, seed=5)
        second = run_scenario(spec, seed=5)
        assert first.summary_json() == second.summary_json()

    def test_different_seeds_differ(self):
        spec = small_spec("baseline")
        assert (
            run_scenario(spec, seed=1).metrics != run_scenario(spec, seed=2).metrics
        )

    def test_seed_defaults_to_spec(self):
        spec = small_spec("baseline", seed=11)
        assert run_scenario(spec).seed == 11

    def test_sweep_aggregates(self):
        spec = small_spec("baseline")
        sweep = run_sweep(spec, seeds=[0, 1, 2])
        assert sweep.seeds == [0, 1, 2]
        assert len(sweep.results) == 3
        stats = sweep.aggregate["load_success_rate"]
        assert stats["n"] == 3
        assert stats["min"] <= stats["mean"] <= stats["max"]
        # Deterministic per-seed metrics aggregate deterministically.
        again = run_sweep(spec, seeds=[0, 1, 2])
        assert again.aggregate == sweep.aggregate

    def test_sweep_rows_include_seed(self):
        spec = small_spec("baseline")
        rows = run_sweep(spec, seeds=[3, 4]).rows()
        assert [row["seed"] for row in rows] == [3, 4]

    def test_parallel_sweep_byte_identical_to_serial(self):
        # The core contract of the --jobs fan-out: worker processes change
        # wall-clock only. Per-seed results arrive in seed order and the
        # aggregate (and its canonical serialisation) matches the serial
        # path byte for byte.
        spec = small_spec("baseline")
        serial = run_sweep(spec, seeds=[0, 1, 2], jobs=1)
        parallel = run_sweep(spec, seeds=[0, 1, 2], jobs=2)
        assert [r.seed for r in parallel.results] == [0, 1, 2]
        assert parallel.summary_json() == serial.summary_json()
        assert [r.summary_json() for r in parallel.results] == [
            r.summary_json() for r in serial.results
        ]

    def test_parallel_sweep_with_faults_matches_serial(self):
        # Fault schedules exercise the nemesis + network condition layers
        # inside the workers; determinism must survive pickling the spec.
        spec = small_spec("asymmetric-partition")
        serial = run_sweep(spec, seeds=[1, 2], jobs=1)
        parallel = run_sweep(spec, seeds=[1, 2], jobs=2)
        assert parallel.summary_json() == serial.summary_json()

    def test_sweep_rejects_non_positive_jobs(self):
        spec = small_spec("baseline")
        with pytest.raises(ConfigurationError):
            run_sweep(spec, seeds=[0, 1], jobs=0)

    def test_correlated_failure_kills_fraction(self):
        spec = small_spec("catastrophic-failure")
        result = run_scenario(spec, seed=2)
        expected_alive = spec.nodes - int(spec.nodes * spec.churn.fraction)
        assert result.metrics["population_alive"] == expected_alive
        assert result.metrics["churn_leaves"] == spec.nodes - expected_alive

    def test_flash_crowd_grows_population(self):
        spec = small_spec("flash-crowd", cooldown=5.0)
        result = run_scenario(spec, seed=2)
        assert result.metrics["churn_joins"] == spec.churn.joins
        assert (
            result.metrics["population_total"]
            == spec.nodes + spec.churn.joins
        )


@pytest.mark.parametrize("name", sorted(EXPECTED_BUNDLED))
def test_every_bundled_spec_runs_small(name):
    spec = small_spec(name)
    if spec.workload.mode == "open":
        # Open loop offers ops at a fixed rate: keep enough of them to
        # outlast the measurement warmup, or nothing gets measured.
        spec = spec.scaled(
            operation_count=int(spec.workload.rate * (spec.workload.warmup + 1.5))
        )
    result = run_scenario(spec, seed=1)
    metrics = result.metrics
    assert result.scenario == name
    assert metrics["converged"] == 1.0
    assert metrics["load_success_rate"] == 1.0
    assert metrics["txn_success_rate"] >= 0.8
    if "population" in spec.metrics:
        # paper-figures collects only the two groups its figures read.
        assert metrics["population_alive"] > 0
    assert metrics["messages_per_node"] > 0

"""Property-based round-trip tests for scenario serialisation.

For randomized valid :class:`~repro.scenarios.spec.ScenarioSpec`s:
``spec -> scenario_to_toml -> tomllib -> spec_from_dict`` must be the
identity (dataclass equality, which compares every nested sub-spec and
float exactly). This is the contract the regression exporter rides on —
a reproducer written today must describe the identical experiment when
replayed years later.

Plus rejection tests: malformed ``[[faults]]`` entries (end before
start, unknown injector kinds, empty target groups, unknown keys, ids
that name no server) must fail loudly at parse time, never run
half-understood.
"""

import tomllib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn.spec import CHURN_KINDS
from repro.errors import ConfigurationError
from repro.faults.spec import FAULT_KINDS
from repro.scenarios.spec import (
    WORKLOAD_PRESETS,
    ChurnSpec,
    FaultSpec,
    LatencySpec,
    ScenarioSpec,
    WorkloadSpec,
    spec_from_dict,
)
from repro.search import dumps_toml, scenario_to_toml

# Text the TOML emitter escapes correctly (incl. quotes, backslashes,
# tabs and newlines — the characters most likely to break naive quoting).
SAFE_TEXT = st.text(
    alphabet='abcdefghij XYZ-_.:/\\"\n\t',
    min_size=1,
    max_size=30,
)

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def fault_specs(draw, nodes=100):
    kind = draw(st.sampled_from(FAULT_KINDS))
    entry = dict(
        kind=kind,
        start=draw(st.floats(min_value=0.0, max_value=50.0, **finite)),
        duration=draw(st.floats(min_value=0.1, max_value=60.0, **finite)),
    )
    server_ids = st.integers(0, nodes - 1)
    if kind != "burst_loss":  # the one kind without a victim set
        entry["fraction"] = draw(st.floats(min_value=0.01, max_value=0.99, **finite))
    if kind == "partition":
        entry["symmetric"] = draw(st.booleans())
        members = draw(st.lists(server_ids, max_size=6, unique=True))
        cut = draw(st.integers(0, len(members)))
        groups = [g for g in (members[:cut], members[cut:]) if g]
        if groups:
            entry["groups"] = groups
    if kind in ("degrade", "crash_recover"):
        nodes = draw(st.lists(server_ids, max_size=3, unique=True))
        if nodes:
            entry["nodes"] = nodes
    if kind == "degrade":
        entry["loss"] = draw(st.floats(min_value=0.01, max_value=1.0, **finite))
        entry["extra_latency"] = draw(st.floats(min_value=0.0, max_value=2.0, **finite))
    if kind == "burst_loss":
        entry["loss"] = draw(st.floats(min_value=0.01, max_value=1.0, **finite))
    return FaultSpec(**entry)


@st.composite
def churn_specs(draw):
    """A valid churn spec that sets only the fields its kind reads."""
    kind = draw(st.sampled_from(CHURN_KINDS))
    entry = dict(kind=kind, start=draw(st.floats(min_value=0.0, max_value=30.0, **finite)))
    if kind in ("poisson", "session"):
        entry["duration"] = draw(st.floats(min_value=0.0, max_value=60.0, **finite))
    if kind == "poisson":
        entry["join_rate"] = draw(st.floats(min_value=0.0, max_value=2.0, **finite))
        entry["leave_rate"] = draw(st.floats(min_value=0.0, max_value=2.0, **finite))
    if kind == "session":
        entry["mean_session"] = draw(st.floats(min_value=1.0, max_value=600.0, **finite))
    if kind == "correlated":
        entry["fraction"] = draw(st.floats(min_value=0.0, max_value=1.0, **finite))
    if kind == "flash_crowd":
        entry["joins"] = draw(st.integers(1, 60))
        entry["over"] = draw(st.floats(min_value=0.01, max_value=60.0, **finite))
    if kind == "trace":
        entry["events"] = draw(
            st.lists(
                st.tuples(
                    st.floats(min_value=0.0, max_value=60.0, **finite),
                    st.sampled_from(["join", "leave"]),
                ).map(list),
                max_size=4,
            )
        )
    return ChurnSpec(**entry)


@st.composite
def latency_specs(draw):
    kind = draw(st.sampled_from(["fixed", "uniform", "lognormal"]))
    return LatencySpec(
        kind=kind,
        latency=draw(st.floats(min_value=0.001, max_value=0.5, **finite)),
        low=draw(st.floats(min_value=0.001, max_value=0.01, **finite)),
        high=draw(st.floats(min_value=0.02, max_value=0.5, **finite)),
        median=draw(st.floats(min_value=0.005, max_value=0.1, **finite)),
        sigma=draw(st.floats(min_value=0.1, max_value=2.0, **finite)),
        cap=draw(st.floats(min_value=0.5, max_value=5.0, **finite)),
    )


@st.composite
def scenario_specs(draw):
    workload = WorkloadSpec(
        preset=draw(st.sampled_from(sorted(WORKLOAD_PRESETS))),
        record_count=draw(st.integers(1, 500)),
        operation_count=draw(st.integers(0, 500)),
        acks_required=draw(st.integers(1, 3)),
        op_timeout=draw(st.floats(min_value=1.0, max_value=60.0, **finite)),
    )
    nodes = draw(st.integers(1, 500))
    stack = draw(st.sampled_from(["core", "dht", "oracle"]))
    # A core deployment needs a server per slice (its check_spec).
    max_slices = min(10, nodes) if stack == "core" else 10
    return ScenarioSpec(
        name=draw(SAFE_TEXT),
        description=draw(SAFE_TEXT),
        stack=stack,
        nodes=nodes,
        num_slices=draw(st.integers(1, max_slices)),
        replication=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 2**64 - 1)),
        loss_rate=draw(st.floats(min_value=0.0, max_value=0.5, **finite)),
        warmup=draw(st.floats(min_value=0.0, max_value=30.0, **finite)),
        settle=draw(st.floats(min_value=0.0, max_value=30.0, **finite)),
        cooldown=draw(st.floats(min_value=0.0, max_value=10.0, **finite)),
        latency=draw(latency_specs()),
        churn=draw(st.none() | churn_specs()),
        faults=draw(st.lists(fault_specs(nodes), max_size=3)),
        workload=workload,
        metrics=tuple(
            draw(
                st.lists(
                    st.sampled_from(["workload", "population", "consistency"]),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
        ),
    )


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(spec=scenario_specs())
    def test_spec_toml_spec_is_identity(self, spec):
        text = scenario_to_toml(spec)
        recovered = spec_from_dict(tomllib.loads(text))
        assert recovered == spec

    @settings(max_examples=80, deadline=None)
    @given(spec=scenario_specs())
    def test_emitted_toml_is_stable(self, spec):
        """Emitting, parsing, and re-emitting yields the same bytes —
        the property the byte-identical re-export contract rests on."""
        first = scenario_to_toml(spec)
        second = scenario_to_toml(spec_from_dict(tomllib.loads(first)))
        assert first == second

    @settings(max_examples=40, deadline=None)
    @given(spec=scenario_specs())
    def test_dict_round_trip_matches_toml_round_trip(self, spec):
        assert spec_from_dict(spec.to_dict()) == spec


class TestEmitter:
    def test_rejects_non_finite_floats(self):
        with pytest.raises(ConfigurationError, match="non-finite"):
            dumps_toml({"x": float("nan")})

    def test_rejects_unserialisable_values(self):
        with pytest.raises(ConfigurationError, match="cannot serialise"):
            dumps_toml({"x": object()})

    def test_quotes_awkward_keys(self):
        text = dumps_toml({"a key": 1, "plain": 2})
        assert tomllib.loads(text) == {"a key": 1, "plain": 2}


class TestMalformedFaults:
    def base(self, **fault):
        return {"name": "x", "faults": [fault]}

    def test_end_before_start_rejected(self):
        with pytest.raises(ConfigurationError, match="must be after start"):
            spec_from_dict(self.base(kind="partition", start=5.0, end=3.0))

    def test_end_equal_to_start_rejected(self):
        with pytest.raises(ConfigurationError, match="must be after start"):
            spec_from_dict(self.base(kind="partition", start=5.0, end=5.0))

    def test_end_and_duration_together_rejected(self):
        with pytest.raises(ConfigurationError, match="not both"):
            spec_from_dict(self.base(kind="partition", start=1.0, end=4.0, duration=3.0))

    def test_end_sugar_equivalent_to_duration(self):
        via_end = spec_from_dict(self.base(kind="partition", start=2.0, end=8.0))
        via_duration = spec_from_dict(
            self.base(kind="partition", start=2.0, duration=6.0)
        )
        assert via_end.faults == via_duration.faults

    def test_unknown_injector_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            spec_from_dict(self.base(kind="meteor_strike"))

    def test_empty_target_group_rejected(self):
        with pytest.raises(ConfigurationError, match="must not be empty"):
            spec_from_dict(self.base(kind="partition", groups=[[1, 2], []]))

    def test_unknown_fault_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault fields"):
            spec_from_dict(self.base(kind="partition", blast_radius=3))

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError, match="duration must be positive"):
            spec_from_dict(self.base(kind="burst_loss", loss=0.5, duration=-1.0))

    @pytest.mark.parametrize(
        "fault",
        [
            dict(kind="crash_recover", nodes=[20]),  # the workload client
            dict(kind="degrade", nodes=[3, 20], loss=0.1),
            dict(kind="degrade", nodes=[999], loss=0.1),
            dict(kind="partition", groups=[[0, 1], [19, 20]]),
            dict(kind="crash_recover", nodes=[-1]),
        ],
    )
    def test_fault_naming_a_non_server_rejected(self, fault):
        with pytest.raises(ConfigurationError, match=r"server ids are 0\.\.19"):
            spec_from_dict({"name": "x", "nodes": 20, "faults": [fault]})

    def test_scaling_below_a_named_server_rejected(self):
        spec = spec_from_dict(
            {"name": "x", "nodes": 20, "faults": [dict(kind="crash_recover", nodes=[19])]}
        )
        assert spec.scaled(nodes=20).faults[0].nodes == [19]
        with pytest.raises(ConfigurationError, match=r"\[19\]"):
            spec.scaled(nodes=10)

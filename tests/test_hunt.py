"""The adversarial hunter (:mod:`repro.search`): sampler determinism and
envelope, shrinker passes against a stub scorer, exporter/loader
round-trips, the end-to-end hunt -> shrink -> export -> replay pipeline
on a known-violating search seed, and CLI replay determinism.
"""

import tomllib

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.faults.spec import FaultSpec
from repro.search import (
    DamageScore,
    HuntConfig,
    SampleSpace,
    check_bounds,
    export_candidate,
    list_regressions,
    load_regression,
    run_hunt,
    sample_schedule,
    score_scenario,
    shrink_candidate,
    shrink_schedule,
)

# A search seed whose candidate 0 is a known consistency violation at the
# default hunt sizing (20 nodes, ycsb-a). If a core-protocol change
# legitimately fixes it, re-scan seeds and update — the regression corpus
# in specs/regressions/ is the durable record, this pins the *pipeline*.
VIOLATING_SEED = 7
VIOLATING_INDEX = 0


# ---------------------------------------------------------------- sampler


class TestSampler:
    def test_same_seed_and_index_replay_byte_identically(self):
        space = SampleSpace()
        assert sample_schedule(3, 5, space) == sample_schedule(3, 5, space)

    def test_candidates_are_independent_draws(self):
        space = SampleSpace()
        schedules = [sample_schedule(3, i, space) for i in range(6)]
        assert any(s != schedules[0] for s in schedules[1:])

    def test_schedules_respect_the_envelope(self):
        space = SampleSpace(min_faults=1, max_faults=4, horizon=15.0, min_duration=1.5)
        for index in range(20):
            faults = sample_schedule(11, index, space)
            assert space.min_faults <= len(faults) <= space.max_faults
            assert faults == sorted(faults, key=lambda f: (f.start, f.kind))
            for f in faults:
                assert f.kind in space.kinds
                assert 0.0 <= f.start <= space.horizon
                assert f.duration >= space.min_duration
                assert f.start + f.duration <= space.horizon + 0.01
                if f.kind in ("partition", "degrade", "crash_recover"):
                    assert space.min_fraction <= f.fraction <= space.max_fraction

    def test_restricting_kinds_restricts_schedules(self):
        space = SampleSpace(kinds=("burst_loss",))
        for index in range(5):
            assert all(
                f.kind == "burst_loss" for f in sample_schedule(1, index, space)
            )

    def test_envelope_validation(self):
        with pytest.raises(ConfigurationError):
            SampleSpace(min_faults=0)
        with pytest.raises(ConfigurationError):
            SampleSpace(min_duration=30.0, horizon=20.0)
        with pytest.raises(ConfigurationError):
            SampleSpace(min_fraction=0.6, max_fraction=0.4)
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            SampleSpace(kinds=("partition", "meteor_strike"))


# --------------------------------------------------------------- shrinker


def fake_score(faults, violation):
    """A DamageScore shaped like the scorer's output, without running a
    simulation (unit tests for the shrinker's search logic)."""
    stale = 1.0 if violation else 0.0
    return DamageScore(
        stale_reads=stale,
        lost_updates=0.0,
        lost_objects=0.0,
        unavail_excess=0.0,
        total=stale,
        target_metrics={},
        oracle_metrics={},
    )


class TestShrinker:
    def burst_only_scorer(self):
        """Violates iff a burst_loss injector survives — the other
        entries are dead weight a correct shrinker must strip."""

        def score_fn(faults):
            return fake_score(
                faults, any(f.kind == "burst_loss" for f in faults)
            )

        return score_fn

    def schedule(self):
        return [
            FaultSpec(kind="partition", start=0.0, duration=8.0, fraction=0.3),
            FaultSpec(kind="burst_loss", start=4.0, duration=8.0, loss=0.6),
            FaultSpec(kind="crash_recover", start=6.0, duration=8.0, fraction=0.25),
        ]

    def test_drops_dead_weight_and_narrows_the_culprit(self):
        result = shrink_schedule(self.schedule(), self.burst_only_scorer())
        assert result.injectors == 1
        assert result.faults[0].kind == "burst_loss"
        assert result.faults[0].duration == 1.0  # narrowed to the floor
        assert not result.exhausted
        assert result.score.violation

    def test_non_violating_input_is_rejected(self):
        with pytest.raises(ConfigurationError, match="violating schedule"):
            shrink_schedule(self.schedule(), lambda faults: fake_score(faults, False))

    def test_budget_exhaustion_is_reported_not_fatal(self):
        result = shrink_schedule(self.schedule(), self.burst_only_scorer(), budget=2)
        assert result.exhausted
        assert result.evals <= 2
        assert result.score.violation  # whatever it kept still violates

    def test_eval_budget_is_respected(self):
        calls = []

        def counting(faults):
            calls.append(1)
            return self.burst_only_scorer()(faults)

        shrink_schedule(self.schedule(), counting, budget=5)
        assert len(calls) <= 5

    def test_single_injector_is_never_dropped_to_zero(self):
        lone = [FaultSpec(kind="burst_loss", start=1.0, duration=4.0, loss=0.5)]
        result = shrink_schedule(lone, self.burst_only_scorer())
        assert result.injectors == 1


# ------------------------------------------------------- config validation


class TestHuntConfig:
    def test_budget_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="budget"):
            HuntConfig(budget=0)

    def test_hunting_the_oracle_is_rejected(self):
        with pytest.raises(ConfigurationError, match="oracle against itself"):
            HuntConfig(stack="oracle")


# ------------------------------------------------- end-to-end on a seed


class TestHuntPipeline:
    def config(self, budget=1):
        return HuntConfig(search_seed=VIOLATING_SEED, budget=budget)

    def test_hunt_replays_byte_identically(self):
        first = run_hunt(self.config(budget=2))
        second = run_hunt(self.config(budget=2))
        assert first.log_json() == second.log_json()

    def test_known_seed_finds_a_violation(self):
        result = run_hunt(self.config())
        best = result.best
        assert best is not None and best.index == VIOLATING_INDEX
        assert best.score.violation
        assert best.score.total > 0

    def test_shrinks_to_a_minimal_reproducer(self):
        shrunk = shrink_candidate(self.config(), VIOLATING_INDEX)
        assert shrunk.injectors <= 2
        assert shrunk.score.violation
        assert shrunk.steps  # something was actually reduced

    def test_export_load_replay_round_trip(self, tmp_path):
        config = self.config()
        shrunk = shrink_candidate(config, VIOLATING_INDEX)
        path = export_candidate(str(tmp_path), config, VIOLATING_INDEX, shrunk)
        assert list_regressions(str(tmp_path)) == [path]

        reg = load_regression(path)
        assert reg.provenance["search_seed"] == VIOLATING_SEED
        assert reg.scenario.faults == shrunk.faults
        replayed = score_scenario(reg.scenario)
        assert check_bounds(reg, replayed) == []

    def test_re_export_is_byte_identical(self, tmp_path):
        config = self.config()
        a = export_candidate(
            str(tmp_path / "a"), config, VIOLATING_INDEX,
            shrink_candidate(config, VIOLATING_INDEX),
        )
        b = export_candidate(
            str(tmp_path / "b"), config, VIOLATING_INDEX,
            shrink_candidate(config, VIOLATING_INDEX),
        )
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()


# ------------------------------------------------------ exporter parsing


class TestRegressionLoading:
    def export_one(self, tmp_path):
        config = HuntConfig(search_seed=VIOLATING_SEED, budget=1)
        shrunk = shrink_candidate(config, VIOLATING_INDEX)
        return export_candidate(str(tmp_path), config, VIOLATING_INDEX, shrunk)

    def rewrite(self, path, old, new):
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        assert old in text
        with open(path, "w", encoding="utf-8") as f:
            f.write(text.replace(old, new))

    def test_unknown_schema_rejected(self, tmp_path):
        path = self.export_one(tmp_path)
        self.rewrite(path, "schema = 1", "schema = 99")
        with pytest.raises(ConfigurationError, match="schema"):
            load_regression(path)

    def test_bad_expect_key_rejected(self, tmp_path):
        path = self.export_one(tmp_path)
        self.rewrite(path, "total_max", "vibes_max")
        with pytest.raises(ConfigurationError, match="unknown damage component"):
            load_regression(path)

    def test_invalid_toml_rejected(self, tmp_path):
        path = str(tmp_path / "broken.toml")
        with open(path, "w", encoding="utf-8") as f:
            f.write("schema = [unclosed\n")
        with pytest.raises(ConfigurationError, match="invalid regression spec"):
            load_regression(path)

    def test_tightened_bound_fails_the_replay(self, tmp_path):
        """A damage drift (simulated by editing the recorded bound) must
        surface as a bound-check failure, not pass silently."""
        path = self.export_one(tmp_path)
        with open(path, "rb") as f:
            recorded = tomllib.load(f)["expect"]["total_max"]
        self.rewrite(path, f"total_max = {recorded}", "total_max = 0.0")
        self.rewrite(path, f"total_min = {recorded}", "total_min = 0.0")
        reg = load_regression(path)
        failures = check_bounds(reg, score_scenario(reg.scenario))
        assert failures and "total" in failures[0]


# ------------------------------------------------------------------- CLI


class TestHuntCli:
    def test_run_summary_is_deterministic(self, capsys):
        args = ["hunt", "run", "--seed", str(VIOLATING_SEED), "--budget", "2",
                "--summary"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_replay_of_missing_file_reports_cleanly(self, capsys):
        assert main(["hunt", "replay", "/no/such/spec.toml"]) == 2
        assert "error: cannot read regression spec" in capsys.readouterr().out

    def test_replay_exit_codes(self, tmp_path, capsys):
        config = HuntConfig(search_seed=VIOLATING_SEED, budget=1)
        shrunk = shrink_candidate(config, VIOLATING_INDEX)
        path = export_candidate(str(tmp_path), config, VIOLATING_INDEX, shrunk)

        assert main(["hunt", "replay", str(tmp_path)]) == 0
        assert "ok:" in capsys.readouterr().out

        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        with open(path, "w", encoding="utf-8") as f:
            f.write(text.replace("total_min = ", "total_min = 900.0 # "))
        assert main(["hunt", "replay", path]) == 1
        assert "FAIL" in capsys.readouterr().out

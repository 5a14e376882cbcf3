"""The runtime determinism guard: tripwires, restoration, re-entrancy,
and the trajectory-neutrality contract — a sanitized scenario run is
byte-identical to an unsanitized one, across processes and hash seeds."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time

import pytest

from repro.errors import DeterminismError
from repro.lint import determinism_guard
from repro.scenarios.registry import load_bundled
from repro.scenarios.runner import RunOptions, run_scenario, run_sweep

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The functions the guard patches, as the interpreter started with them.
STOCK = (random.random, time.time)


def restored() -> bool:
    """Whether ``random.random`` and ``time.time`` are the originals."""
    return (random.random, time.time) == STOCK

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


class TestGuard:
    def test_inactive_by_default(self):
        assert restored()

    def test_ambient_random_trips(self):
        with determinism_guard():
            with pytest.raises(DeterminismError, match="D101"):
                random.random()
            with pytest.raises(DeterminismError, match="random.randint"):
                random.randint(0, 9)
            with pytest.raises(DeterminismError):
                random.shuffle([1, 2])

    def test_wall_clock_trips(self):
        with determinism_guard():
            with pytest.raises(DeterminismError, match="D201"):
                time.time()
            with pytest.raises(DeterminismError, match="time_ns"):
                time.time_ns()

    def test_seeded_instances_keep_working(self):
        rng = random.Random(7)
        before = random.Random(7).random()
        with determinism_guard():
            assert rng.random() == before
            assert random.Random(3).randint(0, 5) in range(6)

    def test_perf_counter_stays_callable(self):
        # The profiler/recorder contract: timers are provenance and must
        # work under the guard (their sites live in the lint baseline).
        with determinism_guard():
            assert time.perf_counter() > 0.0
            assert time.monotonic() > 0.0

    def test_restores_on_exit(self):
        with determinism_guard():
            pass
        assert isinstance(random.random(), float)
        assert time.time() > 0.0
        assert restored()

    def test_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with determinism_guard():
                raise RuntimeError("boom")
        assert isinstance(random.random(), float)
        assert time.time() > 0.0
        assert restored()

    def test_reentrant(self):
        with determinism_guard():
            with determinism_guard():
                assert not restored()
            # Inner exit must not disarm the outer guard.
            assert not restored()
            with pytest.raises(DeterminismError):
                random.random()
        assert restored()


class TestTrajectoryNeutrality:
    def test_sanitized_run_is_byte_identical(self):
        spec = small_spec()
        plain = run_scenario(spec, seed=11)
        sanitized = run_scenario(spec, seed=11, options=RunOptions(sanitize=True))
        assert sanitized.summary_json() == plain.summary_json()
        assert restored()

    def test_sanitized_sweep_is_byte_identical(self):
        spec = small_spec()
        plain = run_sweep(spec, seeds=[0, 1])
        sanitized = run_sweep(spec, seeds=[0, 1], options=RunOptions(sanitize=True))
        assert sanitized.summary_json() == plain.summary_json()

    def test_dht_stack_runs_sanitized(self):
        # The second backend exercises a different sim path under the
        # guard; completing at all proves it draws no ambient entropy.
        result = run_scenario(
            small_spec("dht-crash-recover"), seed=5, options=RunOptions(sanitize=True)
        )
        assert result.metrics["events_processed"] > 0


class TestHashSeedNeutrality:
    """Same seed, different PYTHONHASHSEED, byte-identical summaries.

    The in-process determinism tests can never catch a hash-order leak —
    str hashes are salted per *process*. Running the scenario in two
    subprocesses with different salts is the regression test for the
    whole D3xx rule family.
    """

    @staticmethod
    def _summary(hashseed: str) -> str:
        script = (
            "from repro.scenarios.registry import load_bundled\n"
            "from repro.scenarios.runner import RunOptions, run_scenario\n"
            "spec = load_bundled('baseline').scaled(nodes=20, warmup=8.0, "
            "settle=6.0, cooldown=0.0, record_count=5, operation_count=8, "
            "num_slices=3)\n"
            "print(run_scenario(spec, seed=11, options=RunOptions(sanitize=True)).summary_json())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=REPO_ROOT,
            env={
                **os.environ,
                "PYTHONPATH": os.path.join(REPO_ROOT, "src"),
                "PYTHONHASHSEED": hashseed,
            },
            capture_output=True,
            text=True,
            check=True,
        )
        return proc.stdout

    def test_summary_survives_hash_salt_change(self):
        assert self._summary("1") == self._summary("271828")

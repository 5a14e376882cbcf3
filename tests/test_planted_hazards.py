"""The determinism audit's hazards, planted, and the run-time leg that
catches each.

DESIGN.md ("Determinism contract") retires the static D1–D3 rules
because a run-time leg catches every hazard that changes a result. Here
each of those hazards is planted where every run passes: the seeded
stream a component draws from (``RngRegistry.stream``), the stream seeds
(``derive_seed``) and the YCSB load order. The guard stops the ambient
calls it patches; the byte-compare of two same-seed runs catches what it
cannot see; a hash-order leak shows only between two processes under
different ``PYTHONHASHSEED``s, so those plants run in subprocesses.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from random import getrandbits
from time import time as wall

import pytest

from repro.errors import DeterminismError
from repro.scenarios.registry import load_bundled
from repro.scenarios.runner import RunOptions, run_scenario
from repro.sim.rng import RngRegistry

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SANITIZED = RunOptions(sanitize=True)


def small_baseline():
    return load_bundled("baseline").scaled(
        nodes=20, warmup=8.0, settle=6.0, cooldown=0.0,
        record_count=5, operation_count=8, num_slices=3,
    )


# rule -> what the planted stream is built from. The guard patches the
# random module's functions and time.time, so these stop the run.
TRIPPED = {
    "D101 ambient random call": (lambda: random, r"random\.\w+\(\)"),
    "D201 time.time read": (lambda: random.Random(time.time()), r"time\.time\(\)"),
}

# The guard cannot see these: a generator seeded from nowhere or from
# the OS, a random function or a clock bound before the guard was armed,
# a timer it leaves callable. Each makes two same-seed runs differ.
UNSEEN = {
    "D102 unseeded generator": lambda: random.Random(),
    "D103 OS entropy": lambda: random.Random(os.urandom(8)),
    "D104 random function bound at import": lambda: random.Random(getrandbits(64)),
    "D202 timer read": lambda: random.Random(time.perf_counter_ns()),
    "D204 clock bound at import": lambda: random.Random(wall()),
}


@pytest.mark.parametrize("plant, message", TRIPPED.values(), ids=list(TRIPPED))
def test_the_guard_stops_an_ambient_call(monkeypatch, plant, message):
    monkeypatch.setattr(RngRegistry, "stream", lambda self, name: plant())
    with pytest.raises(DeterminismError, match=message):
        run_scenario(small_baseline(), seed=11, options=SANITIZED)


@pytest.mark.parametrize("plant", UNSEEN.values(), ids=list(UNSEEN))
def test_two_same_seed_runs_tell_apart_what_the_guard_cannot_see(monkeypatch, plant):
    spec = small_baseline()
    clean = run_scenario(spec, seed=11).summary_json()
    monkeypatch.setattr(RngRegistry, "stream", lambda self, name: plant())
    first = run_scenario(spec, seed=11, options=SANITIZED).summary_json()
    second = run_scenario(spec, seed=11, options=SANITIZED).summary_json()
    assert len({clean, first, second}) == 3


# rule -> source run before the scenario, planting a hash-order leak.
HASH_ORDER = {
    "D301 set of str keys iterated": (
        "from repro.workload.ycsb import CoreWorkload, INSERT, Operation\n"
        "def load_items(self, rng):\n"
        "    for key in {self.key_for(i) for i in range(self.record_count)}:\n"
        "        yield Operation(INSERT, key, self._value(rng))\n"
        "CoreWorkload.load_items = load_items\n"
    ),
    "D304 salted hash()": (
        "import repro.sim.rng as rng\n"
        "rng.derive_seed = lambda seed, name: hash(f'{seed}:{name}') & (2**64 - 1)\n"
    ),
}

_RUN = (
    "from repro.scenarios.registry import load_bundled\n"
    "from repro.scenarios.runner import run_scenario\n"
    "spec = load_bundled('baseline').scaled(nodes=20, warmup=8.0, settle=6.0, "
    "cooldown=0.0, record_count=5, operation_count=8, num_slices=3)\n"
    "print(run_scenario(spec, seed=11).summary_json())\n"
)


def summaries(plant: str, hashseeds=("0", "1")):
    """The baseline's summary under each hash seed, ``plant`` applied;
    the processes run side by side."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", plant + _RUN], cwd=REPO_ROOT,
            env=dict(env, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for seed in hashseeds
    ]
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        outputs.append(out)
    return outputs


@pytest.mark.parametrize("plant", HASH_ORDER.values(), ids=list(HASH_ORDER))
def test_two_hash_seeds_tell_apart_a_hash_order_leak(plant):
    plain, other = summaries(plant)
    assert plain != other


def test_without_a_plant_two_hash_seeds_agree():
    plain, other = summaries("")
    assert plain == other

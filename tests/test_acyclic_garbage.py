"""A run's garbage is acyclic: the premise of ``relaxed_gc``.

``relaxed_gc`` raises the cyclic collector's trigger to 100k objects
because reference counting alone should free what a run throws away.
Garbage held in reference cycles waits for the collector instead, so
under that trigger it piles up between collections. The Chord lookup
broke the premise until its steps became methods of one object: each of
its three mutually calling closures left a cycle behind.

:func:`cyclic_garbage` is the census; CI runs it over every bundled
spec except ``scale-*``.
"""

from __future__ import annotations

import gc
from collections import Counter
from contextlib import contextmanager
from typing import Iterator, Optional

import pytest

from repro.obs.recorder import FlightRecorder
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec, spec_from_dict


def unreachable() -> Counter:
    """Type names of what ``gc.collect()`` finds unreachable now."""
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


@contextmanager
def collector_off() -> Iterator[None]:
    """Collect, then keep the cyclic collector off inside the block."""
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class _Census(FlightRecorder):
    """Counts the unreachable objects at the start of the collect phase."""

    def begin_phase(self, name: str) -> None:
        super().begin_phase(name)
        if name == "collect":
            self.garbage = unreachable()


def cyclic_garbage(spec: ScenarioSpec, seed: Optional[int] = None) -> Counter:
    """Run ``spec`` with the cyclic collector off; the type names of the
    unreachable objects left between the run's start and its collect
    phase."""
    census = _Census()
    with collector_off():
        run_scenario(spec, seed, recorder=census)
    return census.garbage


_SMALL = dict(warmup=8.0, settle=3.0, cooldown=3.0,
              workload=dict(preset="ycsb-a", record_count=10, operation_count=30))
_FAULT = dict(kind="crash_recover", fraction=0.3, start=1.0, duration=3.0)
_CHURN = dict(kind="poisson", join_rate=0.4, leave_rate=0.3, duration=6.0, start=1.0)


@pytest.mark.parametrize("stack, shape", [
    ("core", dict(nodes=30, num_slices=3)),
    ("dht", dict(nodes=30, replication=3)),
    ("oracle", dict(nodes=20, num_slices=2)),
])
def test_a_run_leaves_no_cyclic_garbage(stack, shape):
    spec = spec_from_dict(dict(_SMALL, name=f"acyclic-{stack}", stack=stack,
                               faults=[_FAULT], churn=_CHURN, **shape))
    garbage = cyclic_garbage(spec, 5)
    assert not garbage, garbage.most_common(5)

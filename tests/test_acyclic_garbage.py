"""A run's garbage is acyclic, and every message it sends finds a handler.

``relaxed_gc`` raises the cyclic collector's trigger to 100k objects
because reference counting alone should free what a run throws away.
Garbage held in reference cycles waits for the collector instead, so
under that trigger it piles up between collections. The Chord lookup
broke the premise until its steps became methods of one object: each of
its three mutually calling closures left a cycle behind.

The dead-letter gate checks protocol wiring where messages flow: a
message that reaches a live node with no handler for its type counts
into ``msg.unhandled.<Type>`` (``Node.deliver``), so a type that no node
registers, a registration lost from ``start()`` or a handler
unregistered too early shows up by name. Every such counter must read 0.

:func:`census` runs a spec once and returns both readings; CI runs it
over every bundled spec except ``scale-*``.
"""

from __future__ import annotations

import gc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, Optional, Tuple

import pytest

from repro.obs.recorder import FlightRecorder
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec, spec_from_dict
from repro.sim.metrics import MetricsRegistry

_UNHANDLED = "msg.unhandled."


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


def dead_letters(metrics: MetricsRegistry) -> Dict[str, int]:
    """Message type name -> copies that reached a live node with no
    handler registered for the type."""
    return {
        name[len(_UNHANDLED):]: int(metrics.total(name))
        for name in metrics.counter_names()
        if name.startswith(_UNHANDLED) and metrics.total(name)
    }


def check_dead_letters(letters: Dict[str, int]) -> None:
    """The dead-letter gate: fail, naming each type, if any fired."""
    assert not letters, "messages no handler took: " + ", ".join(
        f"{kind} x{count}" for kind, count in sorted(letters.items())
    )


class _Census(FlightRecorder):
    """Counts the unreachable objects at the start of the collect phase
    and the dead letters when the run finishes."""

    def begin_phase(self, name: str) -> None:
        super().begin_phase(name)
        if name == "collect":
            self.garbage = unreachable()

    def finish(self, sim) -> None:
        super().finish(sim)
        self.dead_letters = dead_letters(sim.metrics)


def census(
    spec: ScenarioSpec, seed: Optional[int] = None, recorder: Optional[_Census] = None
) -> Tuple[Counter, Dict[str, int]]:
    """Run ``spec`` with the cyclic collector off; the type names of the
    unreachable objects left between the run's start and its collect
    phase, and the run's :func:`dead_letters`."""
    recorder = recorder if recorder is not None else _Census()
    with collector_off():
        run_scenario(spec, seed, recorder=recorder)
    return recorder.garbage, recorder.dead_letters


_SMALL = dict(warmup=8.0, settle=3.0, cooldown=3.0,
              workload=dict(preset="ycsb-a", record_count=10, operation_count=30))
_FAULT = dict(kind="crash_recover", fraction=0.3, start=1.0, duration=3.0)
_CHURN = dict(kind="poisson", join_rate=0.4, leave_rate=0.3, duration=6.0, start=1.0)
_STACKS = [
    ("core", dict(nodes=30, num_slices=3)),
    ("dht", dict(nodes=30, replication=3)),
    ("oracle", dict(nodes=20, num_slices=2)),
]


@lru_cache(maxsize=None)
def _small_census(stack: str) -> Tuple[Counter, Dict[str, int]]:
    """One small faulted, churned run per stack, shared by the tests."""
    spec = spec_from_dict(dict(_SMALL, name=f"acyclic-{stack}", stack=stack,
                               faults=[_FAULT], churn=_CHURN, **dict(_STACKS)[stack]))
    return census(spec, 5)


@pytest.mark.parametrize("stack, shape", _STACKS)
def test_a_run_leaves_no_cyclic_garbage(stack, shape):
    garbage, _ = _small_census(stack)
    assert not garbage, garbage.most_common(5)


@pytest.mark.parametrize("stack, shape", _STACKS)
def test_every_message_a_run_sends_finds_a_handler(stack, shape):
    _, letters = _small_census(stack)
    check_dead_letters(letters)


@dataclass(frozen=True)
class Stray:
    """A message type no node registers a handler for."""


class _Sender(_Census):
    """Has server 0 send server 1 a :class:`Stray` as loading starts."""

    def attach(self, sim) -> None:
        super().attach(sim)
        self.network = sim.network

    def begin_phase(self, name: str) -> None:
        super().begin_phase(name)
        if name == "load":
            self.network.send(0, 1, Stray())


@pytest.mark.parametrize("stack, shape", _STACKS)
def test_the_gate_names_a_type_no_node_registers(stack, shape):
    spec = spec_from_dict(dict(_SMALL, name=f"stray-{stack}", stack=stack, **shape))
    _, letters = census(spec, 5, recorder=_Sender())
    assert letters == {"Stray": 1}
    with pytest.raises(AssertionError, match=r"Stray x1"):
        check_dead_letters(letters)

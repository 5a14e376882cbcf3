"""The runtime half of the determinism contract.

:func:`determinism_guard` proves that no code path a run takes reaches
for ambient randomness or the wall clock (C extensions excepted). While
the guard is active, every module-level :mod:`random` function and
``time.time`` / ``time.time_ns`` raises
:class:`~repro.errors.DeterminismError` naming the offender.

What is deliberately *not* patched:

* ``random.Random`` instances — the seeded streams every simulation
  component draws from are bound methods of their own instance and
  never touch the module-level functions. That asymmetry is the whole
  point: sanctioned randomness keeps working, ambient randomness trips.
* ``time.perf_counter`` and friends — the opt-in hotspot profiler and
  the flight recorder's wall-phase timing are legitimate wall-clock
  users that may run *under* the guard precisely because
  their readings are provenance, never sim state.

What it cannot see is a name bound before it was armed (``from random
import choice``, ``from time import time``) and every timer it leaves
callable. Those change a run's numbers without raising, which the CI
census catches by comparing each bundled spec's summary with and without
the guard, under two hash seeds.

The guard is re-entrant (nested activations patch once, restore once)
and exception-safe. ``scenarios run --sanitize``, the census and the
determinism CI matrix run entire scenarios under it; byte-identical
summaries with and without the guard prove it is trajectory-neutral.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from typing import Dict, Iterator

from repro.errors import DeterminismError

__all__ = ["determinism_guard"]

# Module-level random functions that consult the hidden shared instance
# (or reseed it).
_RANDOM_FUNCS = (
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "getstate", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
)

# Wall-clock reads. Timer functions (perf_counter, monotonic …)
# stay callable — see the module docstring.
_TIME_FUNCS = ("time", "time_ns")

_depth = 0
_saved_random: Dict[str, object] = {}
_saved_time: Dict[str, object] = {}


def _random_tripwire(name: str):
    def tripwire(*args, **kwargs):
        raise DeterminismError(
            f"ambient random.{name}() called inside a sanitized scenario run "
            "— draw from the simulation's RngRegistry stream instead"
        )

    tripwire.__name__ = name
    tripwire.__qualname__ = f"determinism_guard.random.{name}"
    return tripwire


def _time_tripwire(name: str):
    def tripwire(*args, **kwargs):
        raise DeterminismError(
            f"time.{name}() called inside a sanitized scenario run — "
            "simulated time is sim.now / node.now"
        )

    tripwire.__name__ = name
    tripwire.__qualname__ = f"determinism_guard.time.{name}"
    return tripwire


@contextmanager
def determinism_guard() -> Iterator[None]:
    """Arm the runtime tripwires for the duration of the block."""
    global _depth
    if _depth == 0:
        for name in _RANDOM_FUNCS:
            original = getattr(random, name, None)
            if original is not None:
                _saved_random[name] = original
                setattr(random, name, _random_tripwire(name))
        for name in _TIME_FUNCS:
            _saved_time[name] = getattr(time, name)
            setattr(time, name, _time_tripwire(name))
    _depth += 1
    try:
        yield
    finally:
        _depth -= 1
        if _depth == 0:
            for name, original in _saved_random.items():
                setattr(random, name, original)
            for name, original in _saved_time.items():
                setattr(time, name, original)
            _saved_random.clear()
            _saved_time.clear()

"""Adversarial nemesis search: a Jepsen-style consistency hunter.

The packages splits the hunt into four orthogonal pieces:

* :mod:`~repro.search.sampler` — draw randomized fault schedules from a
  search seed (byte-identical per ``(seed, index)``),
* :mod:`~repro.search.scorer` — run a schedule against the store under
  test *and* the oracle on identical inputs; the difference is the
  protocol's own damage,
* :mod:`~repro.search.shrinker` — delta-debug a violating schedule to a
  minimal reproducer,
* :mod:`~repro.search.exporter` — freeze reproducers as TOML regression
  specs with expected-damage bounds (``specs/regressions/`` runs as
  tier-1 tests).

:mod:`~repro.search.hunter` wires them into ``repro hunt run`` /
``shrink`` / ``replay``.
"""

from repro.search.exporter import (
    RegressionSpec,
    check_bounds,
    export_regression,
    list_regressions,
    load_regression,
    scenario_to_toml,
)
from repro.search.hunter import (
    Candidate,
    HuntConfig,
    HuntResult,
    base_scenario,
    export_candidate,
    run_hunt,
    shrink_candidate,
)
from repro.search.sampler import SampleSpace, sample_schedule
from repro.search.scorer import DamageScore, Weights, attach_faults, score_scenario
from repro.search.shrinker import ShrinkResult, shrink_schedule
from repro.toml_writer import dumps_toml

__all__ = [
    "Candidate",
    "DamageScore",
    "HuntConfig",
    "HuntResult",
    "RegressionSpec",
    "SampleSpace",
    "ShrinkResult",
    "Weights",
    "attach_faults",
    "base_scenario",
    "check_bounds",
    "dumps_toml",
    "export_candidate",
    "export_regression",
    "list_regressions",
    "load_regression",
    "run_hunt",
    "sample_schedule",
    "scenario_to_toml",
    "score_scenario",
    "shrink_candidate",
    "shrink_schedule",
]

"""Declarative scenario engine for reproducible large-scale experiments.

* :mod:`repro.scenarios.spec` — the :class:`ScenarioSpec` description
  language (dataclasses, TOML/JSON loadable)
* :mod:`repro.scenarios.runner` — deterministic execution and multi-seed
  sweeps
* :mod:`repro.scenarios.registry` — the bundled scenario files, and
  the sizing rules that make ``paper-figures`` Figures 3 and 4

Quickstart::

    from repro.scenarios import load_bundled, run_scenario

    spec = load_bundled("catastrophic-failure").scaled(nodes=40)
    result = run_scenario(spec, seed=7)
    print(result.summary_json())
"""

from repro.scenarios.registry import (
    SPEC_DIR,
    bundled_names,
    load_all_bundled,
    load_bundled,
)
from repro.scenarios.runner import (
    RunOptions,
    ScenarioResult,
    SweepResult,
    run_scenario,
    run_sweep,
)
from repro.scenarios.spec import (
    ChurnSpec,
    FaultSpec,
    LatencySpec,
    ScenarioSpec,
    WorkloadSpec,
    load_spec,
    spec_from_dict,
)

__all__ = [
    "SPEC_DIR",
    "ChurnSpec",
    "FaultSpec",
    "LatencySpec",
    "RunOptions",
    "ScenarioResult",
    "ScenarioSpec",
    "SweepResult",
    "WorkloadSpec",
    "bundled_names",
    "load_all_bundled",
    "load_bundled",
    "load_spec",
    "run_scenario",
    "run_sweep",
    "spec_from_dict",
]

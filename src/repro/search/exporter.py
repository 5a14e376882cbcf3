"""Regression-spec export and replay loading.

Every violation the hunter shrinks becomes a permanent regression spec:
a TOML file bundling

* ``[scenario]`` — the complete :class:`~repro.scenarios.spec.ScenarioSpec`
  of the minimal reproducer (stack, population, seed, workload, and the
  shrunk ``[[scenario.faults]]`` schedule) — loadable by
  :func:`~repro.scenarios.spec.spec_from_dict` unchanged,
* ``[expect]`` — expected-damage bounds: ``<component>_min`` /
  ``<component>_max`` pairs over the :class:`~repro.search.scorer
  .DamageScore` components. Replay is deterministic, so the exporter
  records exact bounds; loosen them by hand if a spec must tolerate
  drift (they are ordinary TOML),
* ``[provenance]`` — where the reproducer came from (search seed,
  candidate index, shrink evaluations), so ``repro hunt shrink`` can
  re-derive it from two integers.

The emitter writes deterministic TOML (fixed key order, fixed float
formatting): exporting the same reproducer twice produces byte-identical
files, extending the replay contract to the exported artifact itself.

The repository keeps its found reproducers in ``specs/regressions/`` at
the repo root; ``tests/test_regressions.py`` auto-runs every spec there
as a tier-1 regression gate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping

from repro.errors import ConfigurationError
from repro.scenarios.spec import ScenarioSpec, spec_from_dict
from repro.search.scorer import DamageScore
from repro.toml_writer import dumps_toml

__all__ = [
    "RegressionSpec",
    "scenario_to_toml",
    "export_regression",
    "load_regression",
    "list_regressions",
    "check_bounds",
]

SCHEMA_VERSION = 1

# Damage components the exporter bounds and the harness asserts.
BOUND_COMPONENTS = (
    "stale_reads",
    "lost_updates",
    "lost_objects",
    "unavail_excess",
    "total",
)


def scenario_to_toml(spec: ScenarioSpec) -> str:
    """``spec`` as a standalone TOML document —
    :func:`~repro.scenarios.spec.load_spec` reads it back exactly
    (optional fields that are ``None`` are omitted; TOML has no null)."""
    return dumps_toml(_strip_none(spec.to_dict()))


# ------------------------------------------------------- regression specs


@dataclass
class RegressionSpec:
    """A loaded regression file: the reproducer scenario plus its
    expected-damage bounds and provenance."""

    name: str
    scenario: ScenarioSpec
    expect: Dict[str, float]
    provenance: Dict[str, Any]
    path: str = ""

    def bound(self, component: str) -> tuple:
        """``(min, max)`` for one damage component (missing bounds are
        open on that side)."""
        return (
            self.expect.get(f"{component}_min", float("-inf")),
            self.expect.get(f"{component}_max", float("inf")),
        )


def export_regression(
    directory: str,
    scenario: ScenarioSpec,
    score: DamageScore,
    provenance: Mapping[str, Any],
) -> str:
    """Write ``scenario`` + exact damage bounds as
    ``<directory>/<scenario.name>.toml``; returns the path.

    The scenario must already carry the shrunk fault schedule and the
    seed the score was measured at (the hunter guarantees both).
    """
    doc: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        # TOML has no null; optional spec fields that are None are simply
        # omitted and come back as their defaults from spec_from_dict.
        "scenario": _strip_none(scenario.to_dict()),
        "expect": _bounds(score),
        "provenance": dict(provenance),
    }
    text = (
        "# Regression reproducer found by `repro hunt` — do not edit the\n"
        "# [scenario] table; the [expect] bounds may be loosened by hand.\n"
        + dumps_toml(doc)
    )
    _parse_regression(doc, source="export")  # round-trip sanity before writing
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{scenario.name}.toml")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def _strip_none(value: Any) -> Any:
    if isinstance(value, Mapping):
        return {k: _strip_none(v) for k, v in value.items() if v is not None}
    if isinstance(value, (list, tuple)):
        return [_strip_none(v) for v in value]
    return value


def _bounds(score: DamageScore) -> Dict[str, float]:
    expect: Dict[str, float] = {}
    for component in BOUND_COMPONENTS:
        value = float(score.components()[component])
        expect[f"{component}_min"] = value
        expect[f"{component}_max"] = value
    return expect


def load_regression(path: str) -> RegressionSpec:
    """Load and validate one regression spec file."""
    import tomllib

    with open(path, "rb") as f:
        try:
            doc = tomllib.load(f)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigurationError(f"invalid regression spec {path!r}: {exc}") from None
    spec = _parse_regression(doc, source=path)
    spec.path = path
    return spec


def _parse_regression(doc: Mapping[str, Any], source: str) -> RegressionSpec:
    if doc.get("schema") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"regression spec {source!r} has schema {doc.get('schema')!r}; "
            f"this build reads schema {SCHEMA_VERSION}"
        )
    for table in ("scenario", "expect"):
        if not isinstance(doc.get(table), Mapping):
            raise ConfigurationError(
                f"regression spec {source!r} needs a [{table}] table"
            )
    scenario = spec_from_dict(dict(doc["scenario"]))
    expect: Dict[str, float] = {}
    for key, value in doc["expect"].items():
        if not key.endswith(("_min", "_max")):
            raise ConfigurationError(
                f"regression spec {source!r}: [expect] keys end in _min/_max, got {key!r}"
            )
        component = key.rsplit("_", 1)[0]
        if component not in BOUND_COMPONENTS:
            raise ConfigurationError(
                f"regression spec {source!r}: unknown damage component {component!r}; "
                f"choose from {BOUND_COMPONENTS}"
            )
        expect[key] = float(value)
    return RegressionSpec(
        name=scenario.name,
        scenario=scenario,
        expect=expect,
        provenance=dict(doc.get("provenance", {})),
    )


def list_regressions(directory: str) -> List[str]:
    """Sorted paths of every ``*.toml`` regression spec in ``directory``
    (empty when the directory does not exist)."""
    if not os.path.isdir(directory):
        return []
    return sorted(
        os.path.join(directory, entry)
        for entry in os.listdir(directory)
        if entry.endswith(".toml")
    )


def check_bounds(reg: RegressionSpec, score: DamageScore) -> List[str]:
    """Compare a replayed score against the spec's bounds; returns a
    human-readable list of violations (empty = within bounds)."""
    failures: List[str] = []
    components = score.components()
    for component in BOUND_COMPONENTS:
        low, high = reg.bound(component)
        value = components[component]
        if not low <= value <= high:
            failures.append(
                f"{component} = {value:g}, expected within [{low:g}, {high:g}]"
            )
    return failures

"""Bundled scenario registry.

The ``specs/`` directory next to this module holds the shipped scenario
files — one TOML file per scenario, named after the scenario. They are
ordinary :func:`repro.scenarios.spec.load_spec` files, so copying one
out and editing it is the intended way to derive a custom experiment.

``repro scenarios list`` prints the catalogue, one row per file with its
``description``; each file's comment header tells the full story.
:func:`figure3_spec` and :func:`figure4_spec` size ``paper-figures``
into the points of the paper's Figures 3 and 4, and :func:`figure_rows`
runs them.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List

from repro.errors import ConfigurationError
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec, load_spec

__all__ = [
    "SPEC_DIR", "bundled_names", "load_bundled", "load_all_bundled",
    "figure3_spec", "figure4_spec", "figure_rows",
]

SPEC_DIR = os.path.join(os.path.dirname(__file__), "specs")


def bundled_names() -> List[str]:
    """Names of all shipped scenarios, sorted."""
    return sorted(
        entry[: -len(".toml")]
        for entry in os.listdir(SPEC_DIR)
        if entry.endswith(".toml")
    )


def load_bundled(name: str) -> ScenarioSpec:
    """Load one shipped scenario by name."""
    path = os.path.join(SPEC_DIR, f"{name}.toml")
    if not os.path.isfile(path):
        raise ConfigurationError(
            f"unknown scenario {name!r}; bundled: {bundled_names()}"
        )
    return load_spec(path)


def load_all_bundled() -> Dict[str, ScenarioSpec]:
    """All shipped scenarios, keyed by name."""
    return {name: load_bundled(name) for name in bundled_names()}


# --------------------------------------------------------------- figures


def figure3_spec(nodes: int, num_slices: int = 10, writes: int = 200) -> ScenarioSpec:
    """Figure 3's point at ``nodes``: ``k`` and the write count stay
    fixed, so added nodes only add replicas."""
    _require_positive(writes=writes)
    return load_bundled("paper-figures").scaled(
        nodes=nodes, num_slices=num_slices, operation_count=writes
    )


def figure4_spec(
    nodes: int, nodes_per_slice: int = 10, records_per_slice: int = 10
) -> ScenarioSpec:
    """Figure 4's point at ``nodes``: ``k = nodes // nodes_per_slice``
    (a constant replication factor) and ``records_per_slice`` writes per
    slice — the paper's added nodes "enlarge the system capacity", so
    the data set grows as the capacity does."""
    _require_positive(nodes_per_slice=nodes_per_slice, records_per_slice=records_per_slice)
    num_slices = nodes // nodes_per_slice
    if num_slices < 1:
        raise ConfigurationError(
            f"nodes ({nodes}) must be at least nodes_per_slice ({nodes_per_slice})"
        )
    return figure3_spec(nodes, num_slices, records_per_slice * num_slices)


def _require_positive(**sizes: int) -> None:
    for name, value in sizes.items():
        if value <= 0:
            raise ConfigurationError(f"{name} must be positive, got {value}")


def figure_rows(specs: Iterable[ScenarioSpec], seed: int = 0) -> List[Dict[str, float]]:
    """Run one figure, point ``i`` of ``specs`` at seed ``seed + i``.
    A row's ``messages_per_node`` is the write phase's
    ``txn_messages_per_node``; ``txn_not_issued`` counts writes shed at
    a full in-flight window, which a figure point must not have."""
    rows = []
    for i, spec in enumerate(specs):
        metrics = run_scenario(spec, seed + i).metrics
        row = dict(n=spec.nodes, num_slices=spec.num_slices, ops=spec.workload.operation_count)
        row["messages_per_node"] = metrics["txn_messages_per_node"]
        row["success_rate"] = metrics["txn_success_rate"]
        row["txn_not_issued"] = metrics["txn_not_issued"]
        rows.append(row)
    return rows

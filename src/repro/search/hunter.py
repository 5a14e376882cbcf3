"""The hunt loop: sample → score → rank → shrink → export.

:func:`run_hunt` is the Jepsen-style adversarial search over nemesis
schedules: for each candidate index up to the budget it draws a
randomized fault schedule (:mod:`repro.search.sampler`), welds it onto a
small base experiment, and scores the damage it does to the store under
test relative to the ``oracle`` backend on the identical schedule
(:mod:`repro.search.scorer`). Candidates whose consistency counters
come back non-zero are *violations*; :func:`shrink_candidate`
delta-debugs one down to a minimal reproducer
(:mod:`repro.search.shrinker`), and :func:`export_candidate` writes it
as a TOML regression spec (:mod:`repro.search.exporter`) that
``tests/test_regressions.py`` replays forever after.

Everything derives from one ``search_seed``: candidate ``i``'s schedule
comes from the ``hunt.schedule.i`` stream and its scenario seed from the
``hunt.run.i`` stream, so the whole hunt — and any single candidate —
replays byte-identically (:meth:`HuntResult.log_json` is the canonical
log CI byte-compares across two identical hunts).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.faults.spec import FaultSpec
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec
from repro.search.exporter import export_regression
from repro.search.sampler import SampleSpace, sample_schedule
from repro.search.scorer import (
    ORACLE_STACK,
    DamageScore,
    Weights,
    attach_faults,
    score_scenario,
)
from repro.search.shrinker import ShrinkResult, shrink_schedule
from repro.sim.rng import derive_seed

__all__ = [
    "HuntConfig",
    "Candidate",
    "HuntResult",
    "base_scenario",
    "run_hunt",
    "shrink_candidate",
    "export_candidate",
]


@dataclass
class HuntConfig:
    """One hunt's complete parameterisation.

    ``budget`` is the number of candidate schedules sampled and scored.
    The base experiment is deliberately small (default 20 nodes, a
    read-write YCSB-A mix) — the hunter's job is breadth, and a schedule
    that breaks consistency at 20 nodes is a reproducer worth keeping;
    scale-sensitivity studies belong to ``repro scenarios sweep``.

    ``timeline_window`` > 0 attaches a per-candidate damage timeline
    (that many simulated seconds per window) to every target run; the
    hunt log then shows *when* each candidate's damage landed relative
    to its schedule. Off (0.0) by default, which keeps existing hunt
    logs byte-identical.
    """

    search_seed: int = 0
    budget: int = 8
    stack: str = "core"
    nodes: int = 20
    records: int = 8
    operations: int = 40
    preset: str = "ycsb-a"
    space: SampleSpace = field(default_factory=SampleSpace)
    weights: Weights = field(default_factory=Weights)
    timeline_window: float = 0.0

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ConfigurationError(f"hunt budget must be >= 1, got {self.budget}")
        if self.stack == ORACLE_STACK:
            raise ConfigurationError(
                "hunting the oracle against itself scores zero by construction; "
                "pick a different --stack"
            )


@dataclass
class Candidate:
    """One sampled schedule and the damage it caused."""

    index: int
    faults: List[FaultSpec]
    score: DamageScore

    @property
    def violation(self) -> bool:
        return self.score.violation

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "index": self.index,
            "faults": [asdict(f) for f in self.faults],
            "score": self.score.components(),
        }
        if self.score.timeline is not None:
            # Only present when the hunt asked for damage timelines, so
            # default hunt logs stay byte-identical to pre-obs hunts.
            data["timeline"] = self.score.timeline
        return data


@dataclass
class HuntResult:
    """Every candidate of one hunt, in sampling order."""

    config: HuntConfig
    candidates: List[Candidate]

    @property
    def violations(self) -> List[Candidate]:
        return [c for c in self.candidates if c.violation]

    @property
    def best(self) -> Optional[Candidate]:
        """The highest-damage violation (ties go to the earlier
        candidate), or ``None`` when the hunt came up clean."""
        found = self.violations
        if not found:
            return None
        return max(found, key=lambda c: (c.score.total, -c.index))

    def log_json(self) -> str:
        """Canonical hunt log: sorted keys, fixed candidate order —
        byte-identical across replays of the same config (the CI
        smoke-hunt job compares two of these directly)."""
        return json.dumps(
            {
                "search_seed": self.config.search_seed,
                "budget": self.config.budget,
                "stack": self.config.stack,
                "nodes": self.config.nodes,
                "violations": len(self.violations),
                "candidates": [c.to_dict() for c in self.candidates],
            },
            sort_keys=True,
        )


def base_scenario(config: HuntConfig, index: int) -> ScenarioSpec:
    """The fault-free base experiment candidate ``index`` runs against.

    Sized like the fault-scenario tests (small population, short
    warmup/settle) so one candidate scores in a couple of seconds; the
    per-candidate seed comes from the ``hunt.run.<index>`` stream so
    candidates never share randomness with each other or with the
    schedule sampler.
    """
    return ScenarioSpec(
        name=f"hunt-s{config.search_seed}-c{index}",
        description="adversarial hunt candidate",
        stack=config.stack,
        nodes=config.nodes,
        num_slices=3,
        seed=derive_seed(config.search_seed, f"hunt.run.{index}"),
        warmup=8.0,
        settle=6.0,
        workload=WorkloadSpec(
            preset=config.preset,
            record_count=config.records,
            operation_count=config.operations,
        ),
        metrics=("workload", "population", "consistency"),
    )


def run_hunt(
    config: HuntConfig,
    progress: Optional[Callable[[Candidate], None]] = None,
) -> HuntResult:
    """Sample and score ``config.budget`` candidate schedules;
    ``progress`` (if given) sees each candidate as it finishes."""
    candidates: List[Candidate] = []
    for index in range(config.budget):
        faults = sample_schedule(config.search_seed, index, config.space)
        spec = attach_faults(base_scenario(config, index), faults)
        score = score_scenario(
            spec, config.weights, timeline_window=config.timeline_window
        )
        candidate = Candidate(index=index, faults=faults, score=score)
        candidates.append(candidate)
        if progress is not None:
            progress(candidate)
    return HuntResult(config=config, candidates=candidates)


def shrink_candidate(
    config: HuntConfig,
    index: int,
    shrink_budget: int = 40,
    faults: Optional[List[FaultSpec]] = None,
) -> ShrinkResult:
    """Delta-debug candidate ``index`` down to a minimal reproducer.

    The schedule is re-derived from ``(search_seed, index)`` unless
    ``faults`` supplies it (e.g. the candidate is already in hand from a
    :func:`run_hunt` result); every shrink trial replays on the
    candidate's own base scenario and seed.
    """
    if faults is None:
        faults = sample_schedule(config.search_seed, index, config.space)
    base = base_scenario(config, index)

    def score_fn(trial: List[FaultSpec]) -> DamageScore:
        return score_scenario(attach_faults(base, trial), config.weights)

    return shrink_schedule(faults, score_fn, budget=shrink_budget)


def export_candidate(
    directory: str,
    config: HuntConfig,
    index: int,
    shrunk: ShrinkResult,
    name: Optional[str] = None,
) -> str:
    """Write candidate ``index``'s shrunk reproducer as a regression
    spec in ``directory``; returns the path."""
    scenario = attach_faults(base_scenario(config, index), shrunk.faults)
    scenario.name = name or f"{scenario.name}-min"
    scenario.description = (
        f"minimal reproducer shrunk from hunt candidate {index} "
        f"of search seed {config.search_seed}"
    )
    provenance = {
        "search_seed": config.search_seed,
        "candidate": index,
        "stack": config.stack,
        "shrink_evals": shrunk.evals,
        "shrink_steps": list(shrunk.steps),
        "injectors": shrunk.injectors,
    }
    return export_regression(directory, scenario, shrunk.score, provenance)

"""Baseline bookkeeping: absorbing grandfathered violations and auditing
stale entries.

The baseline is a *budget*, not a blanket: each entry tolerates at most
``max`` violations of one rule (or family) under one path prefix, and an
entry that matches nothing is reported as stale so the file only ever
shrinks. ``--write-baseline`` regenerates entries from the current
violations with placeholder justifications — committing one unedited is
a review smell by design.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.lint.config import BaselineEntry, LintConfig
from repro.lint.rules import Violation

__all__ = ["apply_baseline"]


def apply_baseline(
    violations: Sequence[Violation], config: LintConfig
) -> Tuple[List[Violation], List[Violation], List[BaselineEntry]]:
    """Split ``violations`` into (remaining, absorbed) and return the
    stale baseline entries that matched nothing.

    Violations are matched in sorted order against entries in file
    order, each entry absorbing at most its ``max`` count — so the same
    tree and policy always produce the same split. The matched counters
    restart on every call, so one config can judge several trees.
    """
    for entry in config.baseline:
        entry.matched = 0
    remaining: List[Violation] = []
    absorbed: List[Violation] = []
    for violation in sorted(violations, key=Violation.sort_key):
        entry = _matching_entry(violation, config)
        if entry is not None:
            entry.matched += 1
            absorbed.append(violation)
        else:
            remaining.append(violation)
    stale = [entry for entry in config.baseline if entry.matched == 0]
    return remaining, absorbed, stale


def _matching_entry(violation: Violation, config: LintConfig):
    for entry in config.baseline:
        if entry.matches(violation.rule, violation.path):
            return entry
    return None

"""Rendering lint results: terminal text and machine-readable JSON.

The JSON form is canonical — sorted keys, violations in path/line
order — so CI can byte-compare two runs of the same tree the same way
it byte-compares scenario summaries.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.lint.engine import LintResult
from repro.lint.rules import CATALOG

__all__ = ["JSON_SCHEMA", "format_text", "format_json"]

JSON_SCHEMA = 2


def format_text(result: LintResult, verbose: bool = False) -> str:
    """Human-facing report: one line per violation plus advice and a
    closing summary line."""
    lines: List[str] = []
    for error in result.errors:
        lines.append(f"error: {error}")
    for violation in result.violations:
        lines.append(violation.render())
        rule = CATALOG.get(violation.rule)
        if rule is not None:
            lines.append(f"    [{rule.title}] {rule.advice}")
    if verbose:
        for violation in result.baselined:
            lines.append(f"baselined: {violation.render()}")
    for entry in result.stale_baseline:
        lines.append(
            f"warning: stale baseline entry {entry.rule} @ {entry.path} "
            "matched nothing — delete it"
        )
    status = "clean" if result.clean else f"{len(result.violations)} violation(s)"
    lines.append(
        f"{status}: {len(result.files)} file(s) checked, "
        f"{len(result.baselined)} baselined"
    )
    return "\n".join(lines)


def format_json(result: LintResult) -> str:
    """Canonical JSON: sorted keys, stable ordering, trailing newline
    left to the caller."""
    payload: Dict[str, object] = {
        "schema": JSON_SCHEMA,
        "clean": result.clean,
        "files_checked": len(result.files),
        "violations": [v.to_dict() for v in result.violations],
        "counts": {
            "violations": len(result.violations),
            "baselined": len(result.baselined),
            "by_rule": result.rule_counts(),
        },
        "stale_baseline": [entry.to_dict() for entry in result.stale_baseline],
        "errors": list(result.errors),
    }
    return json.dumps(payload, sort_keys=True)

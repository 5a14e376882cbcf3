"""The lint engine: walk files, parse, audit, select, apply the
baseline, and return one structured result.

Dogfooding note: the engine itself obeys the rules it enforces — file
discovery sorts every directory listing, so a lint run visits files in
the same order on every platform and the JSON report is byte-stable.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.lint.baseline import apply_baseline
from repro.lint.config import BaselineEntry, LintConfig
from repro.lint.rules import Violation, is_known_rule
from repro.lint.visitors import audit_module

__all__ = ["LintResult", "lint_paths", "lint_source"]


@dataclass
class LintResult:
    """Everything one lint run learned about a tree."""

    files: List[str] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    baselined: List[Violation] = field(default_factory=list)
    stale_baseline: List[BaselineEntry] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations and not self.errors

    @property
    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def rule_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return dict(sorted(counts.items()))


def lint_paths(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint every ``*.py`` under ``paths`` (files or directories).

    ``select`` scopes the run to the named rule ids/families. Unknown
    selectors raise :class:`~repro.errors.ConfigurationError` — a
    typo'd ``--select`` must not pass as a vacuously clean run.
    """
    config = config if config is not None else LintConfig()
    selectors = _selectors(select)
    result = LintResult()
    files = set()
    for target in paths:
        found = _python_files(target)
        # A target that yields no file must fail loudly: "0 files
        # checked, clean" on a typo'd or wrong path would be a
        # vacuously green CI gate.
        if not found:
            reason = (
                "no Python files" if os.path.exists(target)
                else "no such file or directory"
            )
            result.errors.append(f"{target}: {reason}")
        files.update(found)
    raw: List[Violation] = []
    for path in sorted(files):
        result.files.append(path)
        try:
            with open(path, "r", encoding="utf-8") as f:
                source = f.read()
        except OSError as exc:
            result.errors.append(f"{path}: unreadable: {exc}")
            continue
        file_raw, file_errors = _lint_one(source, path)
        raw.extend(file_raw)
        result.errors.extend(file_errors)
    _judge(result, raw, config, selectors)
    return result


def lint_source(
    source: str,
    path: str = "<string>",
    config: Optional[LintConfig] = None,
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint one in-memory module — the test-fixture entry point.

    The baseline applies, so a config carrying baseline entries
    round-trips through the same logic as a tree walk.
    """
    config = config if config is not None else LintConfig()
    selectors = _selectors(select)
    result = LintResult(files=[path])
    raw, result.errors = _lint_one(source, path)
    _judge(result, raw, config, selectors)
    return result


# ------------------------------------------------------------------ internals


def _selectors(select: Optional[Sequence[str]]) -> Tuple[str, ...]:
    """The ``--select`` values, each validated up front."""
    chosen = tuple(select or ())
    for selector in chosen:
        if not is_known_rule(selector):
            raise ConfigurationError(
                f"unknown rule selector {selector!r} (expected a rule id "
                f"like D301/I203 or a family prefix like D3/I2)"
            )
    return chosen


def _judge(
    result: LintResult,
    raw: List[Violation],
    config: LintConfig,
    selectors: Tuple[str, ...],
) -> None:
    """The one judging step: keep what ``--select`` names, then let the
    baseline absorb what it budgets for."""
    if selectors:
        raw = [v for v in raw if v.rule.startswith(selectors)]
    result.violations, result.baselined, result.stale_baseline = apply_baseline(
        raw, config
    )


def _lint_one(source: str, path: str) -> Tuple[List[Violation], List[str]]:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [], [f"{path}: syntax error: {exc.msg} (line {exc.lineno})"]
    return audit_module(tree, path), []


def _python_files(target: str) -> List[str]:
    """Every ``*.py`` file under ``target`` (or ``target`` itself when
    it is a file), as posix paths in sorted walk order (byte-stable
    reports whatever the platform)."""
    if os.path.isfile(target):
        return [_posix(target)]
    collected: List[str] = []
    for dirpath, dirnames, filenames in os.walk(target):
        dirnames.sort()
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                collected.append(_posix(os.path.join(dirpath, filename)))
    return collected


def _posix(path: str) -> str:
    return path.replace(os.sep, "/")

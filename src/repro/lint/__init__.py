"""Determinism sanitizer: static lint pass + runtime guard.

Every claim the reproduction makes rests on byte-identical same-seed
replay. This package enforces that contract from two directions:

* ``repro lint`` — an AST pass over the source tree flagging determinism
  hazards before any event runs: ambient randomness (D1xx), wall-clock
  reads (D2xx) and hash/filesystem order dependence (D3xx), judged
  against the built-in policy in :mod:`repro.lint.config`; the only
  exemptions are the audited ``[[baseline]]`` budgets in the committed
  ``.repro-lint.toml`` (see :mod:`repro.lint.rules` for the catalogue).
* :func:`~repro.lint.sanitizer.determinism_guard` — a runtime tripwire
  (``scenarios run --sanitize``) that makes the same ambient calls raise
  mid-run, catching the code paths static analysis cannot see.

The same split enforces the *isolation* contract (nodes are
shared-nothing; payload ownership transfers to the network at send):

* the I-families of ``repro lint`` — cross-node reach-through (I1xx),
  payload aliasing (I2xx), mutation-after-forward (I3xx) and
  callback-capture hazards (I4xx);
* :class:`~repro.lint.isolation.IsolationTap` — the copy-on-send
  payload checker (``scenarios run --isolation-check``) that digests
  every payload at ``Network.send`` and re-verifies it at delivery.

Protocol wiring is checked where messages flow, not here: a message
that reaches a node with no handler for its type counts into
``msg.unhandled.<Type>``, and the tests and CI hold every such counter
at zero. DESIGN.md ("Determinism contract & static analysis",
"Isolation contract", "Protocol wiring: the dead-letter gate") is the
narrative version.
"""

from repro.lint.baseline import apply_baseline
from repro.lint.config import (
    BaselineEntry,
    LintConfig,
    baseline_from_violations,
    render_policy_toml,
)
from repro.lint.engine import LintResult, lint_paths, lint_source
from repro.lint.isolation import IsolationTap, payload_digest
from repro.lint.report import format_json, format_text
from repro.lint.rules import CATALOG, FAMILIES, Rule, Violation
from repro.lint.sanitizer import determinism_guard

__all__ = [
    "BaselineEntry",
    "CATALOG",
    "FAMILIES",
    "IsolationTap",
    "LintConfig",
    "LintResult",
    "Rule",
    "Violation",
    "apply_baseline",
    "baseline_from_violations",
    "determinism_guard",
    "format_json",
    "format_text",
    "lint_paths",
    "lint_source",
    "payload_digest",
    "render_policy_toml",
]

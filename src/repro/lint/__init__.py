"""Determinism sanitizer: static lint pass + runtime guard.

Every claim the reproduction makes rests on byte-identical same-seed
replay. This package enforces that contract from two directions:

* ``repro lint`` — an AST pass over the source tree flagging determinism
  hazards before any event runs: ambient randomness (D1xx), wall-clock
  reads (D2xx), hash/filesystem order dependence (D3xx) and ``__all__``
  drift (D4xx), judged against the built-in policy in
  :mod:`repro.lint.config`; the only exemptions are the audited
  ``[[baseline]]`` budgets in the committed ``.repro-lint.toml`` (see
  :mod:`repro.lint.rules` for the catalogue).
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

A third contract covers protocol *flow* (messages reach a handler, and
handlers only read fields the message defines):

* the P-families of ``repro lint`` — dead letters (P1xx), payload
  schema (P2xx), request/reply discipline (P3xx) and dead protocol
  code (P4xx), judged against the whole-program message graph
  (``repro protocol graph`` serialises it);
* :class:`~repro.lint.coverage.CoverageTap` — the runtime edge
  accountant (``scenarios run --protocol-coverage``) that records which
  static ``(endpoint, message)`` edges a scenario actually exercised.

All halves enforce three contracts; DESIGN.md ("Determinism contract &
static analysis", "Isolation contract", "Protocol graph & flow
analysis") is the narrative version.
"""

from repro.lint.baseline import apply_baseline
from repro.lint.config import (
    BaselineEntry,
    LintConfig,
    baseline_from_violations,
    render_policy_toml,
)
from repro.lint.coverage import CoverageTap, merge_coverage, unexercised_edges
from repro.lint.engine import (
    LintResult,
    build_protocol_graph,
    lint_paths,
    lint_source,
)
from repro.lint.isolation import IsolationTap, payload_digest
from repro.lint.protograph import MessageDef, ProtocolGraph, SendSite
from repro.lint.report import format_json, format_text
from repro.lint.rules import CATALOG, FAMILIES, Rule, Violation
from repro.lint.sanitizer import determinism_guard, guard_active

__all__ = [
    "BaselineEntry",
    "CATALOG",
    "CoverageTap",
    "FAMILIES",
    "IsolationTap",
    "LintConfig",
    "LintResult",
    "MessageDef",
    "ProtocolGraph",
    "Rule",
    "SendSite",
    "Violation",
    "apply_baseline",
    "baseline_from_violations",
    "build_protocol_graph",
    "determinism_guard",
    "format_json",
    "format_text",
    "guard_active",
    "lint_paths",
    "lint_source",
    "merge_coverage",
    "payload_digest",
    "render_policy_toml",
    "unexercised_edges",
]

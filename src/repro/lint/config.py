"""Lint policy: what counts as sim-path, which names the visitors treat
specially, and the baseline of grandfathered violations.

The module constants below *are* the policy. The committed
``.repro-lint.toml`` at the repo root holds only the ``schema`` and the
``[[baseline]]`` — each entry a finite, audited budget with a written
justification; the acceptance bar is a handful, trending to zero.

The file is parsed strictly: an unknown key (``[lint]`` included), a
wrong type or an out-of-range value is a
:class:`~repro.errors.ConfigurationError` that names the key, never a
silently different verdict.
"""

from __future__ import annotations

import os
import tomllib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.lint.rules import is_known_rule
from repro.toml_writer import dumps_toml

__all__ = [
    "BaselineEntry",
    "LintConfig",
    "DEFAULT_CONFIG_NAME",
    "SIMPATH",
    "baseline_from_violations",
    "is_simpath",
    "render_policy_toml",
]

DEFAULT_CONFIG_NAME = ".repro-lint.toml"

# Packages whose code runs inside the event loop or feeds it: modules
# here schedule events, draw RNG, or build the messages that do. The
# D3xx order rules apply only to them — iteration order elsewhere
# (analysis tables, obs artifacts) cannot perturb a trajectory.
SIMPATH: Tuple[str, ...] = (
    "repro/backends/",
    "repro/churn/",
    "repro/core/",
    "repro/dht/",
    "repro/droplets/",
    "repro/faults/",
    "repro/gossip/",
    "repro/pss/",
    "repro/scenarios/",
    "repro/search/",
    "repro/sim/",
    "repro/slicing/",
    "repro/workload/",
)

# Call names (bare functions or trailing attributes) the D301 visitor
# treats as set-valued even though it cannot see their return type: the
# store digest.
SET_RETURNING = frozenset({"digest"})

# Attribute names whose iteration or subscript yields *node* objects —
# the I1xx rules treat anything pulled out of these as another process.
NODE_COLLECTIONS = frozenset({"servers"})

# Helper call names that return node lists (cluster facades expose these
# so analysis code never touches the raw collection).
NODE_RETURNING = frozenset({"alive_servers"})

# Attribute names that are node-private state: reading them on a node
# obtained from a collection/directory is a reach-through (I1xx).
NODE_STATE = frozenset({"store", "view", "scheduler"})

# Message attribute names that carry the payload proper — aliasing one
# of these into an outbound send without a copy wrapper is I204.
PAYLOAD_ATTRS = frozenset({"payload", "value"})

_SCHEMA = 1

_BASELINE_KEYS = ("rule", "path", "max", "justification")

_HEADER = (
    "# repro-lint policy: the audited violation baseline. The rest of the\n"
    "# policy is the built-in defaults in repro/lint/config.py.\n"
    '# See DESIGN.md, "Determinism contract & static analysis".\n'
    "\n"
)


@dataclass
class BaselineEntry:
    """A grandfathered violation budget: up to ``max_count`` violations
    of ``rule`` (id or family prefix) under ``path`` (substring match)
    are tolerated. The budget is finite and audited — a stale entry
    (nothing matched) is reported so the baseline only shrinks."""

    rule: str
    path: str
    max_count: int
    justification: str
    matched: int = field(default=0, compare=False)

    def matches(self, rule: str, path: str) -> bool:
        return (
            self.matched < self.max_count
            and rule.startswith(self.rule)
            and self.path in path
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "max": self.max_count,
            "justification": self.justification,
        }


@dataclass
class LintConfig:
    """The policy file as loaded: the audited baseline and where it
    came from."""

    baseline: List[BaselineEntry] = field(default_factory=list)
    source: Optional[str] = None  # config file path, for reporting

    # ----------------------------------------------------------- loading

    @classmethod
    def load(cls, path: Optional[str] = None) -> "LintConfig":
        """Load policy from ``path``; with ``None``, look for
        ``.repro-lint.toml`` in the working directory and fall back to
        pure defaults (empty baseline) when absent."""
        if path is None:
            candidate = os.path.join(os.getcwd(), DEFAULT_CONFIG_NAME)
            if not os.path.exists(candidate):
                return cls()
            path = candidate
        try:
            with open(path, "rb") as f:
                doc = tomllib.load(f)
        except OSError as exc:
            raise ConfigurationError(f"cannot read lint config {path}: {exc}")
        except tomllib.TOMLDecodeError as exc:
            raise ConfigurationError(f"invalid lint config {path}: {exc}")
        return cls.from_dict(doc, source=path)

    @classmethod
    def from_dict(cls, doc: Dict, source: Optional[str] = None) -> "LintConfig":
        where = f" ({source})" if source else ""
        _table(doc, ("schema", "baseline"), "", where)
        schema = doc.get("schema", _SCHEMA)
        if type(schema) is not int or schema != _SCHEMA:
            raise ConfigurationError(
                f"lint config key 'schema' must be {_SCHEMA}, got {schema!r}{where}"
            )
        entries = doc.get("baseline", [])
        if not isinstance(entries, list):
            raise ConfigurationError(
                f"lint config key 'baseline' must be [[baseline]] tables{where}"
            )
        baseline = [_baseline_entry(entry, where) for entry in entries]
        return cls(baseline=baseline, source=source)


def is_simpath(path: str) -> bool:
    """Whether ``path`` lies in one of the :data:`SIMPATH` packages."""
    return any(pattern in path for pattern in SIMPATH)


def render_policy_toml(baseline: Sequence[BaselineEntry]) -> str:
    """Serialise a policy file with ``baseline`` as its entries. The
    output is byte-stable for review diffs and reads back through
    :meth:`LintConfig.from_dict` to the same baseline."""
    doc: Dict[str, object] = {"schema": _SCHEMA}
    if baseline:
        doc["baseline"] = [entry.to_dict() for entry in baseline]
    return _HEADER + dumps_toml(doc)


def _table(value: object, known: Sequence[str], name: str, where: str) -> Dict:
    """``value`` (the table at key ``name``), checked to be a table that
    holds only ``known`` keys."""
    if not isinstance(value, dict):
        raise ConfigurationError(
            f"lint config key {name!r} must be a table, got {value!r}{where}"
        )
    for key in value:
        if key not in known:
            dotted = f"{name}.{key}" if name else key
            raise ConfigurationError(f"unknown lint config key {dotted!r}{where}")
    return value


def _baseline_entry(entry: object, where: str) -> BaselineEntry:
    entry = _table(entry, _BASELINE_KEYS, "baseline", where)
    max_count = entry.get("max", 1)
    if type(max_count) is not int or max_count < 1:
        raise ConfigurationError(
            f"lint config key 'baseline.max' must be an integer >= 1, "
            f"got {max_count!r}{where}"
        )
    rule = _required(entry, "rule", where)
    if not is_known_rule(rule):
        raise ConfigurationError(
            f"lint config names unknown rule {rule!r} (expected a "
            f"Dxxx/Ixxx id or a Dx/Ix family prefix){where}"
        )
    return BaselineEntry(
        rule=rule,
        path=_required(entry, "path", where),
        max_count=max_count,
        justification=_required(entry, "justification", where),
    )


def _required(entry: Dict, key: str, where: str) -> str:
    value = entry.get(key)
    if not isinstance(value, str) or not value.strip():
        raise ConfigurationError(
            f"every [[baseline]] entry needs a non-empty {key!r} string{where}"
        )
    return value


def baseline_from_violations(
    violations: Sequence, justification: str = "TODO: justify this exemption"
) -> List[BaselineEntry]:
    """Collapse violations into per-(rule, path) baseline entries — the
    ``--write-baseline`` path. Every generated entry carries the
    placeholder justification; committing it unedited is a review smell
    by design."""
    counts: Dict[Tuple[str, str], int] = {}
    for violation in violations:
        key = (violation.rule, violation.path)
        counts[key] = counts.get(key, 0) + 1
    return [
        BaselineEntry(rule=rule, path=path, max_count=count, justification=justification)
        for (rule, path), count in sorted(counts.items())
    ]

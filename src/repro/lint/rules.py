"""The determinism-hazard rule catalogue.

Every experimental claim this reproduction makes rests on byte-identical
same-seed replay (DESIGN.md, "Determinism guarantees"). The rules here
name the source-level constructs that silently break that contract, so
the lint pass can reject them before any event runs — instead of an
after-the-fact CI byte-compare catching the drift on whichever code path
a smoke spec happens to exercise.

Rule families:

* **D1xx — ambient randomness.** Anything that draws entropy outside the
  simulation's seeded :class:`~repro.sim.rng.RngRegistry` streams:
  module-level ``random.*`` functions (hidden shared state), unseeded
  ``random.Random()``, ``uuid1/uuid4``, ``os.urandom``, ``secrets``.
* **D2xx — wall-clock reads.** ``time.time``, ``perf_counter`` and
  friends, ``datetime.now``: real time leaking into simulated time. The
  few legitimate sites (the opt-in hotspot profiler bracket, flight-
  recorder provenance) live in the committed baseline with written
  justifications.
* **D3xx — order hazards.** Constructs whose result depends on hash
  seeding or filesystem order: iterating a ``set``/``frozenset`` without
  ``sorted()`` in sim-path modules, unsorted ``os.listdir``/``glob``,
  ``id()``-based ordering, the salted ``hash()`` builtin.

The I-families police the *isolation* contract (DESIGN.md, "Isolation
contract"): simulated nodes are shared-nothing and may interact only
through :class:`~repro.sim.network.Network` messages. Ownership of a
payload transfers to the network at ``send``; the receiver owns what it
is handed and the sender must not retain-and-mutate.

* **I1xx — cross-node reach-through.** Attribute access into another
  node's private state (``.store`` / ``.view`` / ``.scheduler``) on a
  node object obtained from a directory, a server collection, or a
  helper — protocol state may only cross node boundaries inside a
  message payload.
* **I2xx — payload aliasing.** A mutable local sent and then mutated, a
  mutable default payload, re-sending a received message object, or
  aliasing a received payload into an outbound message.
* **I3xx — mutation after forward.** A handler that mutates the message
  it received — worst after forwarding it, when the mutation races the
  in-flight copies.
* **I4xx — callback capture.** Scheduler callbacks (``after`` /
  ``every`` / ``schedule``) closing over a loop variable (late binding)
  or over a mutable local that keeps changing after scheduling.

The runtime counterpart is :class:`repro.lint.isolation.IsolationTap`
(``scenarios run --isolation-check``), which digests every payload at
send and re-verifies it at delivery.

Protocol wiring and ``__all__`` hygiene are checked where they run, not
here: a message that reaches a node with no handler for its type counts
into ``msg.unhandled.<Type>``, which the tests and CI hold at zero, and
``tests/test_public_api.py`` imports every module and checks its
``__all__`` (DESIGN.md, "Protocol wiring: the dead-letter gate").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["Rule", "Violation", "CATALOG", "FAMILIES", "is_known_rule"]


@dataclass(frozen=True)
class Rule:
    """One lintable determinism hazard."""

    id: str
    title: str
    advice: str


@dataclass(frozen=True)
class Violation:
    """One occurrence of a rule in a source file.

    ``path`` is kept exactly as the engine walked it (forward slashes),
    so baseline entries can match by substring regardless of the
    directory the linter was invoked from.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


FAMILIES: Dict[str, str] = {
    "D1": "ambient randomness",
    "D2": "wall-clock reads",
    "D3": "order hazards",
    "I1": "cross-node reach-through",
    "I2": "payload aliasing",
    "I3": "mutation after forward",
    "I4": "callback capture",
}

_RULES = (
    Rule(
        "D101",
        "ambient random-module function",
        "draw from a named stream: `ctx.rng_registry.stream(name)` or "
        "`random.Random(derive_seed(seed, name))`",
    ),
    Rule(
        "D102",
        "unseeded random.Random()",
        "pass an explicit seed, usually via repro.sim.rng.derive_seed",
    ),
    Rule(
        "D103",
        "external entropy source",
        "uuid1/uuid4, os.urandom, secrets and SystemRandom read OS entropy; "
        "derive ids from the run seed instead",
    ),
    Rule(
        "D104",
        "from-import of ambient random function",
        "import the module for typing, or use a seeded random.Random",
    ),
    Rule(
        "D201",
        "wall-clock read",
        "simulated time is `sim.now` / `node.now`; wall time may only "
        "appear in baselined provenance/profiling sites",
    ),
    Rule(
        "D202",
        "wall-clock timer read",
        "perf_counter/monotonic/process_time/sleep never belong on a sim "
        "path; profiling sites must be baselined with a justification",
    ),
    Rule(
        "D203",
        "datetime wall-clock read",
        "datetime.now/utcnow/today reads real time; stamp artifacts after "
        "the run, never sim state",
    ),
    Rule(
        "D204",
        "from-import of wall-clock function",
        "importing time.time/perf_counter by name hides D201/D202 call "
        "sites from review; keep the module prefix or baseline the module",
    ),
    Rule(
        "D301",
        "unsorted set iteration",
        "wrap in sorted(): set/frozenset order is hash-seed-dependent, so "
        "iteration order differs between processes",
    ),
    Rule(
        "D302",
        "unsorted directory listing",
        "wrap os.listdir/glob results in sorted(): filesystem order is "
        "platform-dependent",
    ),
    Rule(
        "D303",
        "id()-based ordering",
        "CPython id() is an address — it varies run to run; order by a "
        "stable key (node id, name) instead",
    ),
    Rule(
        "D304",
        "salted hash() builtin",
        "str/bytes hash() is salted per process (PYTHONHASHSEED); use "
        "repro.sim.rng.derive_seed or hashlib for stable digests",
    ),
    Rule(
        "I101",
        "cross-node state reach-through",
        "a node obtained from a directory or server collection is another "
        "process; read its state via a message round-trip or a facade "
        "method (e.g. node.holds(key, version)), never its attributes",
    ),
    Rule(
        "I102",
        "cross-node reach-through via collection",
        "indexing straight into a server collection's private state "
        "(self.servers[i].store) crosses the node boundary; add a facade "
        "method on the node and call that",
    ),
    Rule(
        "I201",
        "mutable payload mutated after send",
        "the network owns a payload once sent; snapshot it at send time "
        "(tuple(batch)) or build a fresh object for the next send",
    ),
    Rule(
        "I202",
        "mutable default payload",
        "a mutable default ([] / {} / set()) is shared across every call "
        "and every message it rides in; default to None and allocate "
        "per call",
    ),
    Rule(
        "I203",
        "received message re-sent without copy",
        "the received object may be aliased by the sender or other "
        "receivers; rebuild the message (dataclasses.replace or the "
        "constructor) before forwarding",
    ),
    Rule(
        "I204",
        "received payload aliased into outbound message",
        "wrap the received payload in a snapshot (tuple(msg.payload)) or "
        "rebuild it before re-sending; aliasing couples the two messages' "
        "fates",
    ),
    Rule(
        "I301",
        "received message mutated after forward",
        "the forwarded copy is in flight; mutating the shared object "
        "races delivery — rebuild the message instead of editing it",
    ),
    Rule(
        "I302",
        "received message mutated in handler",
        "handlers borrow the message they are handed (copy-on-receive "
        "rule); derive new state instead of editing the payload in place",
    ),
    Rule(
        "I401",
        "scheduler callback captures loop variable",
        "lambdas bind names late: every callback sees the loop's final "
        "value; rebind as a default (lambda peer=peer: ...) or pass it "
        "as a callback argument",
    ),
    Rule(
        "I402",
        "scheduler callback captures mutated local",
        "the callback runs later and sees the local's latest value, not "
        "the value at scheduling time; snapshot it as a lambda default "
        "or pass it as an argument",
    ),
)

CATALOG: Dict[str, Rule] = {rule.id: rule for rule in _RULES}


def is_known_rule(rule_id: str) -> bool:
    """True for exact ids (``D301``, ``I203``) and family prefixes
    (``D3``, ``I2``)."""
    return rule_id in CATALOG or rule_id in FAMILIES

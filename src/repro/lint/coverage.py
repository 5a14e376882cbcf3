"""The runtime half of the protocol-flow analyzer.

The static pass (:mod:`repro.lint.protocol`) proves which
``(endpoint, message)`` edges *exist* in the source; this module
measures which of them a scenario actually *exercises*. A
:class:`CoverageTap` attached to a network
(:meth:`Network.add_tap <repro.sim.network.Network.add_tap>`) observes
every arriving message: a **delivered** count is recorded for the
destination node's class and the message type, and a **handled** count
for the handler's owning class when the destination is alive and has a
handler registered for the type. After the run,
:func:`unexercised_edges` diffs the static handle-edges against the
handled counts — the edges no message ever travelled.

Design constraints, in order:

* **Trajectory-neutral.** The tap only reads attributes the real
  delivery path reads anyway (``_delivery``, ``alive``, ``_handlers``)
  and bumps its own dicts — no events added, no RNG, no wall clock — so
  a covered run byte-compares against a plain run. The determinism CI
  matrix enforces exactly that.
* **Class-keyed, not instance-keyed.** Counters key on
  ``(node class name, message type name)`` — the same vocabulary as the
  static graph's endpoints — so runtime coverage and static edges diff
  directly. Handler ownership resolves through the bound method
  (``handler.__self__``), matching the class whose ``start()`` called
  ``register_handler``.
* **Counters belong to the run.** One tap per simulation;
  :meth:`CoverageTap.snapshot` is a plain sorted dict that pickles, so
  a sweep's workers hand theirs back and :func:`merge_coverage` sums
  them.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Tuple

from repro.sim.network import Tap

__all__ = ["Coverage", "CoverageTap", "merge_coverage", "unexercised_edges"]

# {"delivered": {"Class/Message": n, …}, "handled": {…}}, keys sorted.
Coverage = Dict[str, Dict[str, int]]


class CoverageTap(Tap):
    """The protocol-edge accountant (``--protocol-coverage``)."""

    def __init__(self) -> None:
        # (node class name, message type name) -> count
        self.delivered: Dict[Tuple[str, str], int] = {}
        # (handler owner class name, message type name) -> count
        self.handled: Dict[Tuple[str, str], int] = {}

    def on_deliver(self, network, src: int, dst: int, msg: Any, token: Any, sent_at: float) -> None:
        deliver = network._delivery.get(dst)
        owner = getattr(deliver, "__self__", None)
        if owner is None:
            # Unregistered destination: the network drops the message
            # before any node class can be attributed.
            return
        kind = type(msg).__name__
        key = (type(owner).__name__, kind)
        self.delivered[key] = self.delivered.get(key, 0) + 1
        if owner.alive:
            handler = owner._handlers.get(type(msg))
            if handler is not None:
                bound = getattr(handler, "__self__", owner)
                hkey = (type(bound).__name__, kind)
                self.handled[hkey] = self.handled.get(hkey, 0) + 1

    def snapshot(self) -> Coverage:
        """The counters so far, in sorted, JSON-ready form."""
        return {
            name: {f"{cls}/{kind}": count for (cls, kind), count in sorted(counts.items())}
            for name, counts in (("delivered", self.delivered), ("handled", self.handled))
        }


def merge_coverage(snapshots: Iterable[Coverage]) -> Coverage:
    """Sum several runs' :meth:`CoverageTap.snapshot` dicts."""
    merged = {"delivered": Counter(), "handled": Counter()}
    for snapshot in snapshots:
        for name, counts in snapshot.items():
            merged[name].update(counts)
    return {name: dict(sorted(counts.items())) for name, counts in merged.items()}


def unexercised_edges(graph, coverage: Coverage) -> List[Tuple[str, str, List[str]]]:
    """Static handle-edges that ``coverage`` never exercised.

    ``graph`` is a :class:`~repro.lint.protograph.ProtocolGraph`,
    ``coverage`` a :meth:`CoverageTap.snapshot` (or a
    :func:`merge_coverage` of several); the result is a sorted list of
    ``(endpoint, message, handlers)`` for every statically-registered
    edge with no handled count. Static endpoints name the class that
    *registers* the handler (a service like ``RequestHandler``), which
    is exactly the class runtime handler ownership resolves to.
    """
    handled = coverage["handled"]
    return [
        (endpoint, message, handlers)
        for (endpoint, message), handlers in sorted(graph.handle_edges().items())
        if handled.get(f"{endpoint}/{message}", 0) == 0
    ]

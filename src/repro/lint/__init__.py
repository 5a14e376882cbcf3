"""The run-time checks of the determinism and isolation contracts.

Every claim the reproduction makes rests on byte-identical same-seed
replay, and on simulated nodes that share nothing but
:class:`~repro.sim.network.Network` messages. Both are checked where
runs happen, not over the source:

* :func:`~repro.lint.sanitizer.determinism_guard` (``scenarios run
  --sanitize``, ``RunOptions(sanitize=True)``) makes any ambient
  ``random.*`` call or ``time.time`` read raise mid-run;
* :class:`~repro.lint.isolation.IsolationTap` (``scenarios run
  --isolation-check``, ``RunOptions(isolation_check=True)``) digests
  every payload at ``Network.send`` and re-verifies it at delivery.

CI runs every bundled spec except ``scale-*`` twice: plainly, and with
both checks on under another ``PYTHONHASHSEED``, and compares the two
summaries of each spec byte for byte. That comparison also catches what
the checks cannot see: a result that depends on ``str`` hash order or on
a clock read past the guard. DESIGN.md ("Determinism contract",
"Isolation contract") says what each leg catches.
"""

from repro.lint.isolation import IsolationTap, payload_digest
from repro.lint.sanitizer import determinism_guard

__all__ = ["IsolationTap", "determinism_guard", "payload_digest"]

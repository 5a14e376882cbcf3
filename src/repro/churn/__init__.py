"""Churn and failure injection, one churn type from spec to scheduler.

* :mod:`repro.churn.spec` — :class:`ChurnSpec`, a scenario's ``[churn]``
  block, and :data:`CHURN_KINDS`: Poisson, session-based, correlated
  mass failure, flash crowd and trace replay
* :class:`~repro.churn.controller.ChurnController` — draws a spec's
  events and applies them to a simulation (crashes, bootstrapped joins,
  in-place restarts for the fault subsystem)
"""

from repro.churn.controller import ChurnController
from repro.churn.spec import CHURN_KINDS, ChurnSpec

__all__ = ["CHURN_KINDS", "ChurnController", "ChurnSpec"]

"""Fault injection ("nemesis") subsystem.

One fault type from spec to wire: a :class:`FaultSpec` says what
happens, to whom and when, and the :class:`Nemesis` applies and reverts
it on the simulation clock through the network's cuts and layers and
the shared churn controller.

* :mod:`repro.faults.spec` — :class:`FaultSpec`, the ``[[faults]]``
  schedule entry of a :class:`~repro.scenarios.spec.ScenarioSpec`, and
  :data:`FAULT_KINDS`: partitions (partial/asymmetric), per-node
  degradation (slow nodes, lossy links), burst-loss windows and
  crash-recover
* :mod:`repro.faults.nemesis` — :class:`Nemesis`, which schedules each
  window's apply/revert pair and keeps the accounting the
  consistency/availability metrics read

Quickstart::

    from repro import DataFlasksCluster
    from repro.faults import FaultSpec, Nemesis

    cluster = DataFlasksCluster(n=40, seed=7)
    cluster.warm_up(10)
    cluster.wait_for_slices(timeout=90)
    nemesis = Nemesis(cluster, cluster.churn_controller())
    nemesis.schedule([FaultSpec(kind="partition", start=1.0, duration=10.0,
                                fraction=0.3, symmetric=False)])
    cluster.sim.run_for(15)   # fault injects at +1s, heals at +11s
"""

from repro.faults.nemesis import Nemesis
from repro.faults.spec import FAULT_KINDS, FaultSpec

__all__ = ["FAULT_KINDS", "FaultSpec", "Nemesis"]

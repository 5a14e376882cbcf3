"""YCSB-compatible workload generation and execution (paper Section VI).

* :mod:`repro.workload.distributions` — uniform/zipfian/latest
  key choosers (Gray et al. sampling, FNV scrambling)
* :mod:`repro.workload.ycsb` — core workloads A–F plus the paper's
  write-only workload
* :mod:`repro.workload.runner` — the op engine both loops run, and the
  closed loop (:class:`~repro.workload.runner.WorkloadRunner`)
* :class:`~repro.workload.openloop.OpenLoopRunner` — concurrent
  open-loop execution: Poisson/constant arrivals fanned over a client
  pool, bounded in-flight window, warmup/measurement windows
"""

from repro.workload.distributions import (
    KeyChooser,
    LatestChooser,
    ScrambledZipfianChooser,
    UniformChooser,
    ZipfianChooser,
    fnv64,
)
from repro.workload.openloop import OpenLoopRunner, OpenLoopStats, Window
from repro.workload.runner import ConsistencyObserver, RunStats, WorkloadRunner
from repro.workload.ycsb import (
    INSERT,
    READ,
    RMW,
    SCAN,
    UPDATE,
    WORKLOAD_A,
    WORKLOAD_B,
    WORKLOAD_C,
    WORKLOAD_D,
    WORKLOAD_E,
    WORKLOAD_F,
    WRITE_ONLY,
    CoreWorkload,
    Operation,
)

__all__ = [
    "ConsistencyObserver",
    "CoreWorkload",
    "INSERT",
    "KeyChooser",
    "LatestChooser",
    "OpenLoopRunner",
    "OpenLoopStats",
    "Operation",
    "READ",
    "RMW",
    "RunStats",
    "SCAN",
    "ScrambledZipfianChooser",
    "UPDATE",
    "UniformChooser",
    "WORKLOAD_A",
    "WORKLOAD_B",
    "WORKLOAD_C",
    "WORKLOAD_D",
    "WORKLOAD_E",
    "WORKLOAD_F",
    "WRITE_ONLY",
    "Window",
    "WorkloadRunner",
    "ZipfianChooser",
    "fnv64",
]

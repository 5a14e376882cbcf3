"""Closed-loop workload runner and shared consistency accounting.

Drives a :class:`~repro.workload.ycsb.CoreWorkload` against any storage
stack through one client, assigning the totally ordered versions the
DATADROPLETS layer would
(inserts start at version 1, each update bumps the key's version), and
collects the statistics the benches report: success rates, latency
percentiles, and — the paper's metric — messages per server node
(the run's message delta divided by the alive-server count).

The version oracle and the consistency bookkeeping live in
:class:`ConsistencyObserver` so the concurrent open-loop engine
(:mod:`repro.workload.openloop`) can share one observer with the load
phase: the observer knows the highest version each key was
*acknowledged* at, so it detects **stale reads** (a successful read
returning an older version), tracks per-key **unavailability windows**
(first failed read until the next successful one) in an
:class:`~repro.sim.metrics.AvailabilityTracker`, and exposes
:attr:`ConsistencyObserver.acked_versions` for the server-side
lost-update audit (:func:`repro.analysis.consistency.count_write_losses`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim.metrics import AvailabilityTracker, mean, percentile
from repro.workload.ycsb import INSERT, READ, RMW, SCAN, UPDATE, CoreWorkload, Operation

__all__ = ["ConsistencyObserver", "RunStats", "WorkloadRunner"]

# Distinguishes "caller took no snapshot" (closed loop) from "snapshot
# taken, nothing acked yet" (open loop, expected=None): the two must
# not conflate, or a write acked while a never-acked key's read is in
# flight would retroactively make that read look stale.
_NO_SNAPSHOT = object()


def server_message_total(cluster) -> float:
    """Total messages handled across all servers — inverts the per-node
    mean ``server_message_load`` reports (which averages over every
    server ever deployed)."""
    return cluster.server_message_load()["handled"] * len(cluster.servers)


def messages_per_alive_node(cluster, start_total: float) -> float:
    """The paper's per-node metric for one measurement span: the
    server-side message delta since ``start_total``, divided by the
    servers actually alive to share the load (crashed nodes must not
    dilute the mean)."""
    alive = sum(1 for s in cluster.servers if s.alive)
    return (server_message_total(cluster) - start_total) / max(1, alive)


def scan_range(workload: CoreWorkload, op: Operation):
    """``(base_index, end_index)`` of the keys a scan actually covers.

    Empty (``end <= base``) when the scan starts at/after
    ``record_count`` or has zero length — both drive modes record such
    a scan as not issued rather than a zero-get "success"."""
    base_index = _key_index(op.key, workload.key_prefix)
    return base_index, min(base_index + op.scan_length, workload.record_count)


class ConsistencyObserver:
    """The version oracle plus the consistency observations it enables.

    One observer spans a whole experiment (load phase and transaction
    phase, closed- or open-loop): versions are assigned at *issue* time
    so they stay totally ordered, but acknowledgements are recorded at
    *completion* time — with interleaved in-flight writes, a write must
    not count as acknowledged before its acks actually arrived, or
    concurrent reads would be misclassified as stale.
    """

    def __init__(self) -> None:
        # The version oracle the upper layer (DATADROPLETS) provides.
        self._versions: Dict[str, int] = {}
        # Highest version each key was acknowledged at — what a correct
        # system must still be able to serve.
        self._acked: Dict[str, int] = {}
        self.availability = AvailabilityTracker()
        # Running stale-read total across every driver sharing this
        # observer — the timeline recorder reads it per probe window
        # (per-phase splits stay in each driver's RunStats).
        self.stale_reads = 0

    @property
    def acked_versions(self) -> Dict[str, int]:
        """key -> highest acknowledged version (a copy)."""
        return dict(self._acked)

    @property
    def versions(self) -> Dict[str, int]:
        """key -> highest version assigned so far (a copy)."""
        return dict(self._versions)

    def seed_versions(self, versions: Dict[str, int]) -> None:
        """Pre-load the oracle, e.g. for driving a store populated out
        of band; :meth:`next_version` continues above the seeded values."""
        self._versions.update(versions)

    def next_version(self, key: str) -> int:
        """Assign the next totally ordered version for ``key`` (issue time)."""
        version = self._versions.get(key, 0) + 1
        self._versions[key] = version
        return version

    def write_completed(self, key: str, version: int, succeeded: bool) -> None:
        """Account a finished write (completion time)."""
        if succeeded and version > self._acked.get(key, 0):
            self._acked[key] = version

    def expected_version(self, key: str) -> Optional[int]:
        """The highest version acknowledged for ``key`` right now — what
        a read *issued* at this instant must at least return."""
        return self._acked.get(key)

    def read_completed(
        self,
        key: str,
        now: float,
        succeeded: bool,
        result_version: Optional[int],
        expected=_NO_SNAPSHOT,
    ) -> bool:
        """Account a finished read; returns whether it was stale.

        A read is stale when it succeeds but returns a version older
        than ``expected`` — the highest version acknowledged when the
        read was *issued* (pass the :meth:`expected_version` snapshot
        taken at issue time; ``None`` there means nothing was acked
        yet, so the read cannot be stale no matter what lands while it
        is in flight). A concurrent engine must not judge a read
        against writes whose acks arrived only after issue: the read
        may legally linearize before them. When no snapshot is passed
        at all, the acked map is consulted now — equivalent for a
        closed loop, where nothing completes between issue and await.
        """
        self.availability.record(key, now, succeeded)
        if expected is _NO_SNAPSHOT:
            expected = self._acked.get(key)
        stale = bool(
            succeeded and expected is not None and (result_version or 0) < expected
        )
        if stale:
            self.stale_reads += 1
        return stale


@dataclass
class RunStats:
    """Outcome of one workload run.

    ``issued`` counts operations actually sent to the store;
    ``not_issued`` counts operations the runner declined to send — a
    degenerate scan with no keys in range, or (open loop) an arrival
    shed because the in-flight window was full. ``offered`` is their
    sum: everything the workload asked for.
    """

    issued: int = 0
    succeeded: int = 0
    failed: int = 0
    not_issued: int = 0
    stale_reads: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    not_issued_by_kind: Dict[str, int] = field(default_factory=dict)
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    duration: float = 0.0
    messages_per_node: float = 0.0

    @property
    def offered(self) -> int:
        return self.issued + self.not_issued

    @property
    def success_rate(self) -> float:
        if self.issued == 0:
            return 0.0
        return self.succeeded / self.issued

    @property
    def throughput(self) -> float:
        """Completed operations per simulated second."""
        if self.duration <= 0:
            return 0.0
        return self.succeeded / self.duration

    def latency_summary(self, kind: str) -> Dict[str, float]:
        values = self.latencies.get(kind, [])
        return {
            "count": len(values),
            "mean": mean(values),
            "p50": percentile(values, 50),
            "p99": percentile(values, 99),
        }

    def record(self, kind: str, ok: bool, latency: Optional[float]) -> None:
        self.issued += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        if ok:
            self.succeeded += 1
            if latency is not None:
                self.latencies.setdefault(kind, []).append(latency)
        else:
            self.failed += 1

    def record_not_issued(self, kind: str) -> None:
        """Account an operation that never reached the store — it must
        not contribute a fake ~0-latency success, nor count against the
        store's success rate. ``by_kind`` stays issued-only;
        ``not_issued_by_kind`` shows what was shed."""
        self.not_issued += 1
        self.not_issued_by_kind[kind] = self.not_issued_by_kind.get(kind, 0) + 1


class WorkloadRunner:
    """Runs load and transaction phases against a storage stack.

    ``cluster`` is a deployed
    :class:`~repro.backends.base.StoreBackend` (``sim``, ``servers``,
    ``new_client()``, ``server_message_load()``), whose clients speak
    the :class:`~repro.core.client.PendingOp` protocol — the runner
    never branches on the concrete stack.

    ``observer`` shares one :class:`ConsistencyObserver` across several
    runners/engines (the scenario runner hands the load-phase observer
    to the open-loop engine); by default each runner gets its own.
    """

    def __init__(
        self,
        cluster,
        workload: CoreWorkload,
        client=None,
        seed: int = 0,
        op_timeout: float = 30.0,
        acks_required: int = 1,
        observer: Optional[ConsistencyObserver] = None,
    ) -> None:
        self.cluster = cluster
        self.workload = workload
        self.client = client if client is not None else cluster.new_client()
        self.rng = random.Random(seed)
        self.op_timeout = op_timeout
        self.acks_required = acks_required
        self.observer = observer if observer is not None else ConsistencyObserver()
        # Optional repro.obs.trace.OpTracer, wired by the scenario
        # runner. The tracer is activated only around the synchronous
        # client issue calls — never across _await, which executes
        # unrelated simulation events.
        self.tracer = None
        self._trace = None

    # ------------------------------------------------ observer pass-throughs

    @property
    def acked_versions(self) -> Dict[str, int]:
        """key -> highest acknowledged version (a copy)."""
        return self.observer.acked_versions

    @property
    def availability(self) -> AvailabilityTracker:
        return self.observer.availability

    # ------------------------------------------------------------- phases

    def run_load_phase(self) -> RunStats:
        """Insert the workload's ``record_count`` items (paper's workload)."""
        return self._run(self.workload.load_items(self.rng))

    def run_transactions(self, count: int) -> RunStats:
        """Run ``count`` transaction-phase operations."""
        return self._run(self.workload.operations(count, self.rng))

    # ------------------------------------------------------------ internals

    def _run(self, operations) -> RunStats:
        stats = RunStats()
        sim = self.cluster.sim
        start_time = sim.now
        start_msgs = server_message_total(self.cluster)
        for op in operations:
            self._execute(op, stats)
        stats.duration = sim.now - start_time
        stats.messages_per_node = messages_per_alive_node(self.cluster, start_msgs)
        return stats

    def _execute(self, op: Operation, stats: RunStats) -> None:
        tracer = self.tracer
        if tracer is None:
            self._dispatch(op, stats)
            return
        # Head-sampling counts every top-level op; a sampled op's trace
        # id is active only while its client calls are being issued.
        trace = tracer.sample_op(
            op.kind, op.key, getattr(self.client, "id", 0), self.cluster.sim.now
        )
        self._trace = trace
        try:
            ok = self._dispatch(op, stats)
        finally:
            self._trace = None
        if trace is not None:
            tracer.op_end(trace, bool(ok), self.cluster.sim.now)

    def _dispatch(self, op: Operation, stats: RunStats) -> Optional[bool]:
        """Issue one operation; returns its outcome (``None`` = never
        issued, e.g. a degenerate scan)."""
        if op.kind in (INSERT, UPDATE):
            pending = self._put(op.key, op.value)
            stats.record(op.kind, pending.succeeded, pending.latency)
            return pending.succeeded
        if op.kind == READ:
            pending = self._get(op.key, stats)
            stats.record(op.kind, pending.succeeded, pending.latency)
            return pending.succeeded
        if op.kind == RMW:
            started = self.cluster.sim.now
            read = self._get(op.key, stats)
            if not read.succeeded:
                stats.record(op.kind, False, None)
                return False
            write = self._put(op.key, op.value)
            latency = self.cluster.sim.now - started
            stats.record(op.kind, write.succeeded, latency if write.succeeded else None)
            return write.succeeded
        if op.kind == SCAN:
            started = self.cluster.sim.now
            base_index, end_index = scan_range(self.workload, op)
            if end_index <= base_index:
                # Nothing in range: zero gets were performed, so recording
                # a ~0-latency success would skew p50 — it was never issued.
                stats.record_not_issued(op.kind)
                return None
            all_ok = True
            for index in range(base_index, end_index):
                pending = self._get(self.workload.key_for(index), stats)
                all_ok = all_ok and pending.succeeded
            latency = self.cluster.sim.now - started
            stats.record(op.kind, all_ok, latency if all_ok else None)
            return all_ok
        return None

    def _put(self, key: str, value):
        version = self.observer.next_version(key)
        if self._trace is not None:
            with self.tracer.activated(self._trace):
                pending = self.client.put(key, value, version, self.acks_required)
        else:
            pending = self.client.put(key, value, version, self.acks_required)
        self._await(pending)
        self.observer.write_completed(key, version, pending.succeeded)
        return pending

    def _get(self, key: str, stats: RunStats):
        if self._trace is not None:
            with self.tracer.activated(self._trace):
                pending = self.client.get(key)
        else:
            pending = self.client.get(key)
        self._await(pending)
        if self.observer.read_completed(
            key, self.cluster.sim.now, pending.succeeded, pending.result_version
        ):
            stats.stale_reads += 1
        return pending

    def _await(self, pending) -> None:
        self.cluster.sim.run_until_condition(
            lambda: pending.done, self.op_timeout, check_interval=0.1
        )


def _key_index(key: str, prefix: str) -> int:
    return int(key[len(prefix):])

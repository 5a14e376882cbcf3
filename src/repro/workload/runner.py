"""The YCSB op engine, the closed loop, and shared consistency accounting.

Drives a :class:`~repro.workload.ycsb.CoreWorkload` against any storage
stack, assigning the totally ordered versions the DATADROPLETS layer
would (inserts start at version 1, each update bumps the key's
version), and collects success rates, latency percentiles and — the
paper's metric — messages per alive server node.

Each operation kind (put, read, read-modify-write, scan) is written
once, as an *op script* on :class:`OpEngine`: a generator that issues
its client calls, yields the tuple of pendings it waits on, and
returns ``(ok, latency)``. The two loops differ only in when they
resume a script: :class:`WorkloadRunner` (closed) at the 0.1 s poll
that sees its pendings done, :class:`~repro.workload.openloop.OpenLoopRunner`
(open) from their completion callbacks. Each completion is accounted
where its loop observes it, and each operation is closed out once.

:class:`ConsistencyObserver` holds the version oracle and what it
enables, shared by the load phase and either loop: **stale reads** (a
read older than the version acked when it was issued), per-key
**unavailability windows** (first failed read until the next successful
one) and :attr:`~ConsistencyObserver.acked_versions` for the lost-update
audit (:func:`repro.analysis.consistency.count_write_losses`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

from repro.sim.metrics import AvailabilityTracker, mean, percentile
from repro.workload.ycsb import INSERT, READ, RMW, SCAN, UPDATE, CoreWorkload, Operation

__all__ = ["ConsistencyObserver", "OpEngine", "RunStats", "WorkloadRunner"]


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
    ``record_count`` or has zero length — both loops record such a scan
    as not issued rather than a zero-get "success"."""
    base_index = int(op.key[len(workload.key_prefix):])
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
        self, key: str, now: float, succeeded: bool,
        result_version: Optional[int], expected: Optional[int],
    ) -> bool:
        """Account a finished read; returns whether it was stale.

        A read is stale when it succeeds but returns a version older
        than ``expected`` — the :meth:`expected_version` snapshot taken
        when the read was *issued* (``None``: nothing was acked yet, so
        the read cannot be stale no matter what lands while it is in
        flight). A read must not be judged against writes whose acks
        arrived only after issue: it may legally linearize before them.
        """
        self.availability.record(key, now, succeeded)
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


class _Flight:
    """One top-level operation: its op script and what it waits on.

    Only ``measured`` flights feed the run's statistics; ``window`` and
    ``watchdog`` are the open loop's. A finished script drops its
    generator and pendings: a cancelled watchdog keeps its flight in the
    scheduler for ``op_timeout``.
    """

    __slots__ = (
        "kind", "issued_at", "measured", "window", "watchdog", "trace",
        "script", "waiting", "unseen", "expected", "done",
    )

    def __init__(self, kind: str, issued_at: float, window=None, measured: bool = True):
        self.kind = kind
        self.issued_at = issued_at
        self.measured = measured
        self.window = window
        self.watchdog = None
        self.trace = None
        self.script = None
        self.waiting = ()
        self.unseen = 0
        self.expected: Optional[dict] = {}  # read pending -> issue-time snapshot
        self.done = False


class OpEngine:
    """The op scripts and their accounting, shared by both loops.

    ``cluster`` is a deployed
    :class:`~repro.backends.base.StoreBackend` (``sim``, ``servers``,
    ``new_client()``, ``server_message_load()``), whose clients speak
    the :class:`~repro.core.client.PendingOp` protocol — the engine
    never branches on the concrete stack. ``observer`` shares one
    :class:`ConsistencyObserver` across several runners (the scenario
    runner hands the load phase's observer to the open loop); by
    default each runner gets its own.
    """

    def __init__(
        self,
        cluster,
        workload: CoreWorkload,
        seed: int,
        op_timeout: float,
        acks_required: int,
        observer: Optional[ConsistencyObserver],
    ) -> None:
        self.cluster = cluster
        self.workload = workload
        self.rng = random.Random(seed)
        self.op_timeout = op_timeout
        self.acks_required = acks_required
        self.observer = observer if observer is not None else ConsistencyObserver()
        # Optional repro.obs.trace.OpTracer, wired by the scenario
        # runner. A sampled op's trace is active only while its script
        # runs, which is where its client calls are issued — never
        # across a wait, which executes unrelated simulation events.
        self.tracer = None
        self._stats = RunStats()

    # ------------------------------------------------------------ op scripts

    def _put_script(self, flight: _Flight, client, op: Operation):
        pending = self._put(client, op.key, op.value)
        yield (pending,)
        return pending.succeeded, pending.latency

    def _read_script(self, flight: _Flight, client, op: Operation):
        pending = self._get(flight, client, op.key)
        yield (pending,)
        return pending.succeeded, pending.latency

    def _rmw_script(self, flight: _Flight, client, op: Operation):
        read = self._get(flight, client, op.key)
        yield (read,)
        if not read.succeeded or flight.done:
            # A failed read ends the op; so does a give-up during the
            # read half, which must not start the write half.
            return False, None
        write = self._put(client, op.key, op.value)
        yield (write,)
        # The latency spans read issue to write completion.
        return write.succeeded, self.cluster.sim.now - flight.issued_at

    def _scan_script(self, flight: _Flight, client, op: Operation):
        # The gets go out together; the scan ends when the last is done.
        base_index, end_index = scan_range(self.workload, op)
        gets = tuple(
            self._get(flight, client, self.workload.key_for(index))
            for index in range(base_index, end_index)
        )
        yield gets
        return all(get.succeeded for get in gets), self.cluster.sim.now - flight.issued_at

    _SCRIPTS = {
        INSERT: _put_script, UPDATE: _put_script, READ: _read_script,
        RMW: _rmw_script, SCAN: _scan_script,
    }

    def _put(self, client, key: str, value):
        return client.put(key, value, self.observer.next_version(key), self.acks_required)

    def _get(self, flight: _Flight, client, key: str):
        expected = self.observer.expected_version(key)
        pending = client.get(key)
        flight.expected[pending] = expected
        return pending

    # --------------------------------------------------------------- engine

    def _issuable(self, op: Operation) -> bool:
        """A scan with no keys in range performs zero gets, so neither
        loop issues it: a ~0-latency success would skew p50."""
        if op.kind != SCAN:
            return True
        base_index, end_index = scan_range(self.workload, op)
        return end_index > base_index

    def _start(self, flight: _Flight, client, op: Operation) -> None:
        """Head-sample the op and run its script to its first wait."""
        if self.tracer is not None:
            flight.trace = self.tracer.sample_op(
                op.kind, op.key, getattr(client, "id", 0), flight.issued_at
            )
        flight.script = self._SCRIPTS[op.kind](self, flight, client, op)
        self._resume(flight)

    def _resume(self, flight: _Flight) -> None:
        """Run the script to its next wait, or close the flight out
        with what it returns."""
        try:
            if flight.trace is None:
                flight.waiting = next(flight.script)
            else:
                with self.tracer.activated(flight.trace):
                    flight.waiting = next(flight.script)
            flight.unseen = len(flight.waiting)
        except StopIteration as end:
            flight.script = flight.waiting = flight.expected = None
            self._close(flight, *end.value)

    def _observe(self, flight: _Flight, pending) -> None:
        """Account one client call its loop has seen complete."""
        if pending in flight.expected:
            if self.observer.read_completed(
                pending.key,
                self.cluster.sim.now,
                pending.succeeded,
                pending.result_version,
                flight.expected.pop(pending),
            ):
                self._stats.stale_reads += 1
        else:
            # Recorded even after a give-up: the store acknowledged the
            # write, so the lost-update audit must expect it to survive.
            self.observer.write_completed(pending.key, pending.version, pending.succeeded)

    def _resume_on_completion(self, flight: _Flight) -> None:
        """Resume the script from its pendings' completion callbacks."""
        for pending in flight.waiting:
            pending.on_complete(partial(self._completed, flight))

    def _completed(self, flight: _Flight, pending) -> None:
        self._observe(flight, pending)
        flight.unseen -= 1
        if flight.unseen == 0:
            self._resume(flight)
            if flight.script is not None:
                self._resume_on_completion(flight)

    def _close(self, flight: _Flight, ok: bool, latency: Optional[float]) -> None:
        """Close out a top-level operation exactly once."""
        if flight.done:
            return
        flight.done = True
        if flight.trace is not None:
            self.tracer.op_end(flight.trace, ok, self.cluster.sim.now)
        if flight.measured:
            self._stats.record(flight.kind, ok, latency)
        self._closed(flight, ok, latency)

    def _closed(self, flight: _Flight, ok: bool, latency: Optional[float]) -> None:
        """The loop's own close-out bookkeeping."""


class WorkloadRunner(OpEngine):
    """The closed loop: one client, one operation in flight at a time.

    Each script is resumed at the 0.1 s poll that sees its pendings
    done, waiting at most ``op_timeout`` per wait. An op that times out
    is closed as failed and the next one starts; its pendings'
    completion callbacks then finish the script, so a late ack still
    reaches :attr:`ConsistencyObserver.acked_versions`.
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
        super().__init__(cluster, workload, seed, op_timeout, acks_required, observer)
        self.client = client if client is not None else cluster.new_client()

    # ------------------------------------------------------------- phases

    def run_load_phase(self) -> RunStats:
        """Insert the workload's ``record_count`` items (paper's workload)."""
        return self._run(self.workload.load_items(self.rng))

    def run_transactions(self, count: int) -> RunStats:
        """Run ``count`` transaction-phase operations."""
        return self._run(self.workload.operations(count, self.rng))

    def _run(self, operations) -> RunStats:
        stats = self._stats = RunStats()
        sim = self.cluster.sim
        start_time = sim.now
        start_msgs = server_message_total(self.cluster)
        for op in operations:
            if not self._issuable(op):
                stats.record_not_issued(op.kind)
                continue
            flight = _Flight(op.kind, sim.now)
            self._start(flight, self.client, op)
            while flight.script is not None:
                waiting = flight.waiting
                if not sim.run_until_condition(
                    lambda: all(pending.done for pending in waiting),
                    self.op_timeout,
                    check_interval=0.1,
                ):
                    self._close(flight, False, None)
                    self._resume_on_completion(flight)
                    break
                for pending in waiting:
                    self._observe(flight, pending)
                self._resume(flight)
        stats.duration = sim.now - start_time
        stats.messages_per_node = messages_per_alive_node(self.cluster, start_msgs)
        return stats

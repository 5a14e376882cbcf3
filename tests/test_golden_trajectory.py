"""Golden trajectories: one small spec per backend, a fault spec for
``core`` and for ``dht``, a ``core`` spec for each of the two other
adaptive Slice Managers and two ``core`` churn specs, pinned by the
SHA-256 of ``summary_json()``.

Same-seed byte-identity between two runs of *one* commit is checked
elsewhere; these pins hold it *across* commits, so a change sold as a
pure speed-up fails tier-1 the moment it moves an RNG draw, a counter or
an event. The values were recorded on the commit before the request-relay
fast lane (PR 12's parent). A change that means to alter behaviour
re-records them and says so; a change that does not must leave them be.

Re-recorded three times since. First ``dht`` (and ``dht-faults``, added then) by the
change that made a ring member answer its own first Chord route step
in-process instead of sending itself an RPC. That removes about half of
the ring's messages and the latency draws they made, so the trajectory
moves; the one-timer-per-``RpcService`` change that came with it moves
only ``events_processed``, which is part of the summary as well.
Then ``core``, ``core-faults`` and ``oracle`` by the change that gave
every client one timeout timer (a shared deadline queue) in place of a
timer per attempt. Only ``events_processed`` moved, and only down: the
timer no longer fires once per finished attempt. ``dht`` and
``dht-faults`` did not move.
Then ``core`` and ``core-faults`` by the change that re-homes a stranded
object with one send to a known member of its slice instead of a
system-wide flood. Messages and events fall (``core``:
``messages_per_node`` 867.8 → 775.2, ``events_processed`` 14,869 →
13,484; ``core-faults``: 1,424.6 → 1,207.8 and 24,544 → 21,102), and
with them every later RNG draw, so latencies and ``stale_reads`` move
too (1 → 0 and 3 → 2). ``dht``, ``dht-faults`` and ``oracle`` run no
re-homing code and did not move.

``core-sliver`` and ``core-ordered`` were added later: the ``core`` spec
with ``[config] slicing_protocol`` set to a Slice Manager no bundled spec
selects. They were recorded on the commit before the gossip layer's
``PartialView`` kept ages under a per-view clock and drew its samples
over ``getrandbits``, and that change left them, and the five above, as
they were.

``core-fault-overlap`` was recorded on the commit before the fault
injectors folded into ``FaultSpec`` and the network's six fault tables
into two, and that change left it, and every pin above, as it was.

``core-churn-poisson`` and ``core-churn-trace`` were recorded on the
commit before the churn model classes folded into ``ChurnSpec`` and
``ChurnController.apply``, and that change left them, and every pin
above, as they were. They are the only pins that run spec-level churn.

``open-loop`` (YCSB-A through the open loop, with a warmup, windows and
arrivals shed at a full in-flight window) and ``core-rmw`` (YCSB-F's
read-modify-writes through the closed loop) were recorded on the commit
before both loops came to run one op engine, and that change left them,
and every pin above, as they were. They are the only pins that run the
open loop or a composite operation.

``paper-figures`` is the bundled spec of that name as ``figure3_spec``
sizes it at 30 nodes, 3 slices and 20 writes: the path every point of
Figures 3 and 4 takes, and the first pin through an insert-only open
loop. It keeps the bundled fixed latency. It was recorded on the commit
before the figures moved onto the scenario runner, from
``spec_from_dict`` of the same fields, and that change left it, and
every pin above, as they were.

Then every ``core*`` pin and ``open-loop`` by the change that re-homes
a stranded object by offering its digest to a member of the owning
slice and sending only what that slice lacks, where a put request used
to be re-flooded inside the slice and acked by every member. Messages
and events fall on every ``core*`` pin (``messages_per_node`` /
``events_processed``: ``core`` 775.2 → 763.3 / 13,484 → 13,308,
``core-faults`` 1,207.8 → 1,100.3 / 21,102 → 19,312,
``core-fault-overlap`` 1,183.1 → 1,136.4 / 20,669 → 19,990,
``core-churn-poisson`` 927.3 → 868.1 / 18,523 → 17,468,
``core-churn-trace`` 959.5 → 905.2 / 18,552 → 17,625, ``core-rmw``
934.5 → 920.3 / 16,064 → 15,852, ``core-sliver`` 837.1 → 808.8 /
14,411 → 13,995, ``core-ordered`` 683.6 → 636.1 / 12,097 → 11,377),
and with them every later RNG draw, so ``stale_reads`` moves on three
(``core-faults`` 2 → 1, ``core-churn-trace`` 0 → 1, ``core-sliver``
0 → 2). ``open-loop`` rises, 805.7 → 859.4 / 13,830 → 14,690: it
re-homed little (51 sends of server-originated requests before the
change), and the moved draws let one more arrival past the in-flight
window (22 operations of 28 offered, not 21), with more reads among
them. The same change made Sliver age out observations over a sliding
window; a 30-node run without crashes ages nothing out, so
``core-sliver`` moved for the re-homing alone (the Sliver change on its
own leaves that pin as it was). ``dht``, ``dht-faults``, ``oracle`` and
``paper-figures`` did not move: the last re-homes nothing at either
commit.

Then every pin but ``paper-figures`` by the change that issues each
closed-loop operation at the instant the one before it closes, where
the loop used to resume it at the next 0.1 s poll. Closed-loop phases
end sooner (``core``: ``sim_time`` 16.2 → 13.0, ``txn_throughput``
10.0 → 42.9 ops/s), so the cluster gossips through less idle time and
``messages_per_node`` / ``events_processed`` fall (``core`` 763.3 →
678.6 / 13,308 → 11,676, ``core-rmw`` 920.3 → 796.8 / 15,852 →
13,582, ``dht`` 269.4 → 252.3 / 8,189 → 7,651). On ``core-faults``
and ``core-fault-overlap`` the fault schedule, not the workload, sets
the run's length, and the operations now end earlier in it; both rise
(1,100.3 → 1,172.2 / 19,312 → 20,573 and 1,136.4 → 1,184.9 / 19,990 →
20,756). ``stale_reads`` moves on four (``core-faults`` 1 → 0,
``core-fault-overlap`` 1 → 0, ``core-ordered`` 1 → 2, ``core-sliver``
2 → 1). ``open-loop`` moved through its closed-loop load phase.
``paper-figures`` loads one record, and the poll that ends its load
phase falls where it did, so it did not move.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from repro.core.messages import GetRequest, PutRequest
from repro.core.node import DataFlasksNode
from repro.obs import FlightRecorder
from repro.scenarios.registry import figure3_spec
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import METRIC_GROUPS, spec_from_dict
from repro.sim.network import Tap

SEED = 7
LATENCY = {"kind": "uniform", "low": 0.005, "high": 0.015}
YCSB_A = dict(preset="ycsb-a", record_count=12)
_GROUPS_CUT = dict(kind="partition", groups=[[0, 1, 2, 3], [10, 11, 12]], start=7.0, duration=3.0)

GOLDEN = {
    "core": (
        dict(
            stack="core", nodes=30, num_slices=3, warmup=8.0, settle=4.0,
            metrics=list(METRIC_GROUPS), workload=dict(YCSB_A, operation_count=30),
        ),
        "81b442e37a21c38aeecf0ef381da603c549047a30b2f9670c40007836f4775a4",
    ),
    # The other two adaptive Slice Managers, each over the same Cyclon view.
    "core-sliver": (
        dict(
            stack="core", nodes=30, num_slices=3, warmup=8.0, settle=4.0,
            config={"slicing_protocol": "sliver"},
            metrics=list(METRIC_GROUPS), workload=dict(YCSB_A, operation_count=30),
        ),
        "82eb531e113ccf0d89e3aa75b59b9ff899d8f1d98248633c0d19366d4056aa2a",
    ),
    "core-ordered": (
        dict(
            stack="core", nodes=30, num_slices=3, warmup=8.0, settle=4.0,
            config={"slicing_protocol": "ordered"},
            metrics=list(METRIC_GROUPS), workload=dict(YCSB_A, operation_count=30),
        ),
        "577876071cef8972fc917794fcc8150b74b1692a76768fd27be37fbfdccc7ff3",
    ),
    "dht": (
        dict(
            stack="dht", nodes=40, replication=3, warmup=10.0, settle=3.0,
            workload=dict(YCSB_A, operation_count=30),
        ),
        "604bda08475d5e6e6a41119abb1a257b8e433fe3782adf65359ffe316a54f066",
    ),
    # Crash-recover on the ring: stabilisation, predecessor checks and
    # client retries all run into timeouts that change what happens next.
    "dht-faults": (
        dict(
            stack="dht", nodes=40, replication=3, warmup=10.0, settle=3.0, cooldown=4.0,
            metrics=list(METRIC_GROUPS),
            faults=[dict(kind="crash_recover", fraction=0.3, start=1.0, duration=4.0)],
            workload=dict(YCSB_A, operation_count=30),
        ),
        "cfd9e8955eca47540f1bf37829d6a01ef4c68492cd5e1433d29ae0d26256a20a",
    ),
    "oracle": (
        dict(
            stack="oracle", nodes=30, num_slices=3, warmup=2.0, settle=2.0,
            workload=dict(YCSB_A, operation_count=30),
        ),
        "849d3aa291dbb48f04ed6e0edd590b3b0af1e9add25ae6153eda2cb0fa7e52b3",
    ),
    # Partition, lossy/slow links and crash-recover: the network's
    # fault path, retries, repair and the consistency audit.
    "core-faults": (
        dict(
            stack="core", nodes=30, num_slices=3, warmup=8.0, settle=4.0, cooldown=4.0,
            metrics=list(METRIC_GROUPS),
            faults=[
                dict(kind="partition", symmetric=False, fraction=0.3, start=1.0, duration=3.0),
                dict(kind="degrade", fraction=0.5, loss=0.05, extra_latency=0.05,
                     start=5.0, duration=3.0),
                dict(kind="crash_recover", fraction=0.3, start=9.0, duration=3.0),
            ],
            workload=dict(YCSB_A, operation_count=40),
        ),
        "7b0b09b29abcb36b0f3882bf00863e561bcb083aed66adef987eccfe57ddf73f",
    ),
    # Windows that overlap: a burst over two degrade layers (three loss
    # layers at once), a symmetric explicit-groups partition under an
    # asymmetric fraction partition, a crash-recover inside both, and
    # one entry listed twice.
    "core-fault-overlap": (
        dict(
            stack="core", nodes=30, num_slices=3, warmup=8.0, settle=4.0, cooldown=4.0,
            metrics=list(METRIC_GROUPS),
            faults=[
                dict(kind="degrade", fraction=0.3, loss=0.05, extra_latency=0.02,
                     start=1.0, duration=5.0),
                dict(kind="degrade", nodes=[3, 4, 5, 6], loss=0.1, start=2.0, duration=4.0),
                dict(kind="burst_loss", loss=0.2, start=3.0, duration=1.5),
                _GROUPS_CUT,
                dict(kind="partition", symmetric=False, fraction=0.2, start=8.0, duration=3.0),
                dict(kind="crash_recover", fraction=0.2, start=9.0, duration=3.0),
                _GROUPS_CUT,
            ],
            workload=dict(YCSB_A, operation_count=40),
        ),
        "cc40d5a12a0b06ea87e5a858275a29038ea10a93a28d419cfe104742259c0d8a",
    ),
    # Spec-level churn: Poisson joins and leaves drawn from the churn
    # stream, then a replayed trace given out of order, with a leave and
    # a join tied at one instant.
    "core-churn-poisson": (
        dict(
            stack="core", nodes=30, num_slices=3, warmup=8.0, settle=4.0, cooldown=4.0,
            metrics=list(METRIC_GROUPS),
            churn=dict(kind="poisson", join_rate=0.4, leave_rate=0.3, duration=8.0, start=1.0),
            workload=dict(YCSB_A, operation_count=40),
        ),
        "7bd324681c5caf4ad303fdfb38ff66d25983e27058e93d1b52979a27c8999fd0",
    ),
    "core-churn-trace": (
        dict(
            stack="core", nodes=30, num_slices=3, warmup=8.0, settle=4.0, cooldown=4.0,
            metrics=list(METRIC_GROUPS),
            churn=dict(kind="trace", start=1.0, events=[
                [3.0, "leave"], [0.5, "leave"], [2.0, "join"], [2.0, "leave"],
                [1.0, "join"], [4.5, "join"],
            ]),
            workload=dict(YCSB_A, operation_count=40),
        ),
        "26303b7d7766856b7d01f223846a8ef3878d71dca5378f0058a7c61a67541e7c",
    ),
    "open-loop": (
        dict(
            stack="core", nodes=30, num_slices=3, warmup=8.0, settle=4.0,
            metrics=list(METRIC_GROUPS),
            workload=dict(YCSB_A, operation_count=60, mode="open", clients=3, rate=60.0,
                          max_in_flight=2, warmup=0.5, window=0.5),
        ),
        "be29a56f5fc735222f79bb1f3bef4186ed2cf390cd9f658382db30aa6c54a124",
    ),
    "core-rmw": (
        dict(
            stack="core", nodes=30, num_slices=3, warmup=8.0, settle=4.0,
            metrics=list(METRIC_GROUPS),
            workload=dict(preset="ycsb-f", record_count=12, operation_count=30),
        ),
        "92b85b8738a4c72e5ad32566154dbb439d2ed95cf8e0057e9ba8137a6a30f475",
    ),
    "paper-figures": (
        dict(
            stack="core", nodes=30, num_slices=3, warmup=10.0, settle=0.0,
            latency=dict(kind="fixed", latency=0.01), metrics=["workload", "messages"],
            workload=dict(preset="write-only", record_count=1, operation_count=20,
                          mode="open", arrival="constant", rate=200.0, max_in_flight=20),
        ),
        "d4fa16401cbde57d0ccd3ed6367395092514f12709076bad24555d32d37c2a64",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trajectory_is_the_recorded_one(name):
    data, expected = GOLDEN[name]
    spec = spec_from_dict({"latency": LATENCY, **data, "name": f"golden-{name}"})
    result = run_scenario(spec, SEED)
    assert result.metrics["converged"] == 1.0
    assert result.metrics["txn_success_rate"] == 1.0
    digest = hashlib.sha256(result.summary_json().encode()).hexdigest()
    assert digest == expected, (
        f"the {name} trajectory moved; if that is intended, re-record the pin:\n"
        f"{result.summary_json()}"
    )


def test_paper_figures_pin_is_the_figure_path():
    data, _ = GOLDEN["paper-figures"]
    pinned = spec_from_dict(dict(data, name="paper-figures"))
    assert figure3_spec(30, num_slices=3, writes=20).scaled(description="") == pinned


class _RequestOrigins(Tap):
    """Counts the requests put on the wire, by originating node."""

    def __init__(self) -> None:
        self.origins = Counter()

    def on_send(self, network, src, dst, msg):
        if type(msg) is PutRequest or type(msg) is GetRequest:
            self.origins[msg.req_id[0]] += 1


class _TappedRecorder(FlightRecorder):
    def __init__(self, tap: Tap) -> None:
        super().__init__()
        self.tap = tap

    def attach(self, sim) -> None:
        super().attach(sim)
        self.sim = sim
        sim.network.add_tap(self.tap)


@pytest.mark.parametrize(
    "name", ["core-faults", "core-fault-overlap", "core-churn-poisson", "core-churn-trace"]
)
def test_no_server_originates_a_request(name):
    # Re-homing offers a digest and pushes items; it never issues a put
    # or a get, so only clients are origins in any replay window.
    data, _ = GOLDEN[name]
    spec = spec_from_dict({"latency": LATENCY, **data, "name": f"golden-{name}"})
    census = _RequestOrigins()
    recorder = _TappedRecorder(census)
    run_scenario(spec, SEED, recorder=recorder)
    assert sum(census.origins.values()) > 1_000
    servers = [i for i in census.origins if isinstance(recorder.sim.node(i), DataFlasksNode)]
    assert servers == []

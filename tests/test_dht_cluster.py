"""Integration tests for the Chord DHT baseline."""

import itertools
from bisect import bisect_left
from collections import Counter

import pytest

from repro.cli import main
from repro.dht import DhtCluster
from repro.dht.node import ChordNode, iterative_lookup
from repro.dht.ring import RING_BITS, finger_target, key_position
from repro.errors import ConfigurationError
from repro.obs.recorder import FlightRecorder
from repro.scenarios import load_bundled, spec_from_dict
from repro.scenarios.runner import run_scenario
from repro.sim.network import Tap
from repro.sim.simulator import Simulation
from tests.test_acyclic_garbage import collector_off, unreachable
from tests.test_golden_trajectory import GOLDEN, LATENCY, SEED


@pytest.fixture(scope="module")
def ring():
    cluster = DhtCluster(n=30, seed=13)
    cluster.stabilize(15)
    return cluster


def test_size_validated():
    with pytest.raises(ConfigurationError):
        DhtCluster(n=0)


# The owner keeps one copy and pushes the rest to its successor list, so
# a ring of successor_list_len L places at most L + 1 copies.
@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(replication=0), "replication"),
        (dict(replication=6), "replication"),  # L = 4 places at most 5
        (dict(successor_list_len=0), "successor_list_len"),
        (dict(fingers_per_round=0), "fingers_per_round"),
    ],
)
def test_chord_node_rejects_a_shape_the_ring_cannot_place(kwargs, field):
    with pytest.raises(ConfigurationError, match=field):
        ChordNode(0, Simulation(seed=0).ctx, **kwargs)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(replication=0), "replication"),
        (dict(replication=10), "replication"),  # L = 8 places at most 9
        (dict(replication=4, successor_list_len=2), "replication"),
        (dict(successor_list_len=0), "successor_list_len"),
    ],
)
def test_cluster_rejects_a_shape_the_ring_cannot_place(kwargs, field):
    with pytest.raises(ConfigurationError, match=field):
        DhtCluster(n=10, **kwargs)


def test_the_largest_placeable_replication_is_placed():
    cluster = DhtCluster(n=20, replication=9, seed=41)
    cluster.stabilize(5)
    client = cluster.new_client()
    assert cluster.put_sync(client, "dht:nine", b"x", 1).succeeded
    cluster.sim.run_for(10)  # repair rounds fill every successor
    assert cluster.replication_level("dht:nine") == 9


def test_spec_rejects_a_dht_replication_the_ring_cannot_place():
    with pytest.raises(ConfigurationError, match="replication"):
        spec_from_dict(dict(name="r12", stack="dht", nodes=20, replication=12))
    spec_from_dict(dict(name="r9", stack="dht", nodes=20, replication=9))
    # replication is the Chord replica count; the core stack ignores it.
    spec_from_dict(dict(name="core12", stack="core", nodes=20, replication=12))


def test_scenarios_validate_exits_2_on_an_unplaceable_replication(tmp_path, capsys):
    path = tmp_path / "r12.toml"
    path.write_text('name = "r12"\nstack = "dht"\nnodes = 20\nreplication = 12\n')
    assert main(["scenarios", "validate", str(path)]) == 2
    assert "replication" in capsys.readouterr().out


def test_provisioned_ring_is_consistent(ring):
    assert ring.ring_is_consistent()


def test_put_get_roundtrip(ring):
    client = ring.new_client()
    op = ring.put_sync(client, "dht:1", b"value", 1)
    assert op.succeeded
    result = ring.get_sync(client, "dht:1")
    assert result.succeeded
    assert result.value == b"value"


def test_versions_supported(ring):
    client = ring.new_client()
    ring.put_sync(client, "dht:ver", b"v1", 1)
    ring.put_sync(client, "dht:ver", b"v2", 2)
    assert ring.get_sync(client, "dht:ver", version=1).value == b"v1"
    assert ring.get_sync(client, "dht:ver").value == b"v2"


def test_replication_reaches_factor(ring):
    client = ring.new_client()
    ring.put_sync(client, "dht:rep", b"x", 1)
    ring.sim.run_for(10)
    assert ring.replication_level("dht:rep") >= 3


def test_data_lands_at_ring_owner(ring):
    from repro.dht.ring import key_position

    client = ring.new_client()
    ring.put_sync(client, "dht:owner", b"x", 1)
    position = key_position("dht:owner")
    owners = sorted(
        (s for s in ring.servers if s.alive), key=lambda s: s.pos
    )
    # The owner is the first node clockwise from the key.
    owner = next((s for s in owners if s.pos >= position), owners[0])
    assert owner.store.get("dht:owner", 1) is not None


def test_ring_heals_after_churn():
    cluster = DhtCluster(n=30, seed=17)
    cluster.stabilize(10)
    controller = cluster.churn_controller()
    controller.kill_fraction(0.2)
    cluster.sim.run_for(40)
    assert cluster.ring_is_consistent()


def test_reads_survive_moderate_churn_after_repair():
    cluster = DhtCluster(n=30, seed=19)
    cluster.stabilize(10)
    client = cluster.new_client(timeout=4.0, retries=3)
    keys = [f"churn:{i}" for i in range(6)]
    for key in keys:
        cluster.put_sync(client, key, b"x", 1)
    cluster.sim.run_for(15)  # repair rounds replicate

    controller = cluster.churn_controller()
    controller.kill_fraction(0.2)
    cluster.sim.run_for(30)

    ok = 0
    for key in keys:
        op = client.get(key)
        cluster.sim.run_until_condition(lambda: op.done, timeout=60)
        ok += op.succeeded
    assert ok >= len(keys) - 1  # successor replication covers most losses


def test_joiner_integrates_into_ring():
    cluster = DhtCluster(n=20, seed=23)
    cluster.stabilize(10)
    factory = cluster.server_factory()
    joiner = cluster.sim.add_node(factory)
    joiner.start()
    cluster.sim.run_for(40)
    assert cluster.ring_is_consistent()
    assert isinstance(joiner, ChordNode)
    assert joiner.predecessor is not None


def test_churn_joiner_gets_the_founders_successor_list_len():
    # Founders and joiners come from one node factory: a ring that has
    # churned keeps the failure slack it was provisioned with.
    cluster = DhtCluster(n=12, seed=29, successor_list_len=6)
    joiner = cluster.churn_controller().join()
    assert {s.successor_list_len for s in cluster.servers} == {6}
    assert joiner in cluster.servers and joiner.replication == cluster.replication


def test_lookup_hops_logarithmic(ring):
    # With fingers fixed, iterative lookups should take far fewer hops
    # than a linear walk around 30 nodes.
    from repro.dht.node import iterative_lookup
    from repro.dht.ring import key_position

    ring.sim.run_for(30)  # plenty of fix_fingers rounds
    client = ring.new_client()
    hops = []

    for i in range(10):
        target = key_position(f"hop-probe:{i}")
        outcome = []
        start = ring.directory()[0]
        iterative_lookup(client, client.rpc, start, target, outcome.append,
                         max_hops=30, hop_counter=hops)
        ring.sim.run_until_condition(lambda: bool(outcome), timeout=30)
        assert outcome and outcome[0] is not None
    # Finger routing: average hops well under a linear walk of N/2 = 15.
    assert sum(hops) / len(hops) < 10


@pytest.mark.parametrize("n", [1, 2, 8, 9, 50])
def test_provisioned_pointers_match_the_full_chain_construction(n):
    # successor_list_len is 8: n covers a lone node, a pair, a ring
    # exactly one list long, one node more, and a ring that truncates.
    cluster = DhtCluster(n=n, seed=31)
    ring = sorted(cluster.servers, key=lambda s: s.pos)
    for index, node in enumerate(ring):
        chain = [ring[(index + j) % n] for j in range(1, n)]
        assert node.successors == [
            peer.ref() for peer in chain[: node.successor_list_len]
        ] or [node.ref()]
        assert node.predecessor == ring[(index - 1) % n].ref()


def test_an_unchanged_stabilisation_round_keeps_the_routing_table(small_ring, monkeypatch):
    # The routing table stands for one successor list object; a round
    # whose chain equals the list keeps that object, a changed one
    # replaces it and the next query rebuilds the table.
    builds = Counter()
    build = ChordNode._build_table

    def counted(self):
        builds[self.id] += 1
        return build(self)

    monkeypatch.setattr(ChordNode, "_build_table", counted)
    by_id = {s.id: s for s in small_ring.servers}
    node = small_ring.servers[0]
    reply = by_id[node.successor[1]]._rpc_get_neighbors((), node.id)
    node._on_neighbors(True, reply)
    kept = node.successors
    node._closest_preceding(node.pos)
    assert builds[node.id] == 1

    node._on_neighbors(True, (reply[0], [tuple(ref) for ref in reply[1]]))
    assert node.successors is kept
    node._closest_preceding(node.pos)
    assert builds[node.id] == 1

    node._on_neighbors(True, (reply[0], reply[1][1:]))
    assert node.successors is not kept and node.successors != kept
    node._closest_preceding(node.pos)
    assert builds[node.id] == 2


class SelfAddressed(Tap):
    """Counts messages on the wire and those addressed to their sender."""

    def __init__(self) -> None:
        self.seen = 0
        self.loops = []

    def _check(self, src: int, dst: int, msg) -> None:
        self.seen += 1
        if src == dst:
            self.loops.append(type(msg).__name__)

    def on_send(self, network, src, dst, msg):
        self._check(src, dst, msg)

    def on_drop(self, network, src, dst, msg, cause):
        self._check(src, dst, msg)


class TapRecorder(FlightRecorder):
    def __init__(self, tap: Tap) -> None:
        super().__init__()
        self.tap = tap

    def attach(self, sim) -> None:
        super().attach(sim)
        sim.network.add_tap(self.tap)


def test_no_node_messages_itself():
    spec = load_bundled("dht-crash-recover").scaled(
        nodes=30, record_count=8, operation_count=20
    )
    tap = SelfAddressed()
    result = run_scenario(spec, 11, recorder=TapRecorder(tap))
    assert result.metrics["txn_ops"] > 0 and tap.seen > 10_000
    assert tap.loops == []


def test_member_lookup_takes_the_hops_of_a_route_asked_from_outside(ring):
    # A member answers its own first route step in-process; a client
    # asking the same member over the network follows the same
    # referrals, so both report the same owner after the same hops.
    from repro.dht.node import iterative_lookup
    from repro.dht.ring import key_position

    client = ring.new_client()
    for i, member in enumerate(s for s in ring.servers[:8] if s.alive):
        target = key_position(f"self-hop:{i}")
        local_hops, remote_hops, owners = [], [], []
        iterative_lookup(member, member.rpc, member.id, target, owners.append,
                         hop_counter=local_hops)
        iterative_lookup(client, client.rpc, member.id, target, owners.append,
                         hop_counter=remote_hops)
        ring.sim.run_until_condition(lambda: len(owners) == 2, timeout=30)
        assert owners[0] is not None and owners[0] == owners[1]
        assert local_hops == remote_hops and local_hops[0] >= 1


@pytest.fixture
def small_ring():
    cluster = DhtCluster(n=12, seed=17)
    cluster.stabilize(15)
    return cluster


def finished_lookup(cluster, node, start, target, **kwargs):
    """Run one lookup to its callback with the cyclic collector off:
    ``(owner, hop_counter)``, after checking that it left no cycle."""
    owners, hops = [], []
    with collector_off():
        iterative_lookup(node, node.rpc, start, target, owners.append,
                         hop_counter=hops, **kwargs)
        cluster.sim.run_until_condition(lambda: bool(owners), timeout=30)
        garbage = unreachable()
    assert not garbage, garbage.most_common(5)
    (owner,) = owners
    return owner, hops


def test_lookup_gives_up_once_more_than_max_hops_steps_are_taken(small_ring):
    # No loop check: a lookup that has taken more than max_hops steps
    # asks no other. A route of h steps therefore fails at max_hops
    # h - 2, after h - 1 steps, and succeeds at max_hops h - 1.
    client = small_ring.new_client()
    start = small_ring.directory()[0]
    for i in itertools.count():
        target = key_position(f"long-route:{i}")
        owner, (steps,) = finished_lookup(small_ring, client, start, target)
        if steps >= 3:
            break
    assert owner is not None
    assert finished_lookup(small_ring, client, start, target, max_hops=steps - 2) == (None, [steps - 1])
    assert finished_lookup(small_ring, client, start, target, max_hops=steps - 1) == (owner, [steps])


def test_lookup_whose_remote_step_times_out_reports_none(small_ring):
    client = small_ring.new_client()
    dead = small_ring.servers[3]
    dead.crash()
    began = small_ring.sim.now
    # A caller that already took a step in-process passes hops=1; the
    # step that timed out is not counted.
    owner, hops = finished_lookup(small_ring, client, dead.id, key_position("k"), hops=1)
    assert (owner, hops) == (None, [1])
    assert small_ring.sim.now - began >= client.timeout


@pytest.mark.parametrize("asker", ["member", "client"])
def test_lookup_whose_route_step_raises_reports_none(small_ring, asker):
    # A target that is no ring position makes route_step raise: in
    # process for a member's own step, in an ok=False reply for a client.
    member = small_ring.servers[0]
    node = member if asker == "member" else small_ring.new_client()
    assert finished_lookup(small_ring, node, member.id, "not a position") == (None, [0])


def fix_fingers_by_lookup(self):
    """``ChordNode._fix_fingers`` before in-process fixes: every finger
    through :func:`iterative_lookup`, first step included — kept as the
    reference."""
    for _ in range(self.fingers_per_round):
        index = self._next_finger
        self._next_finger = (self._next_finger + 1) % RING_BITS
        target = finger_target(self.pos, index)
        iterative_lookup(
            self, self.rpc, self.id, target, lambda owner, i=index: self._set_finger(i, owner)
        )


def golden_end_state(name, monkeypatch):
    """Run the golden pin ``name``; return what a finger fix can touch."""
    deployed = []
    deploy = DhtCluster.deploy.__func__

    def capture(cls, spec, sim):
        deployed.append(deploy(cls, spec, sim))
        return deployed[-1]

    monkeypatch.setattr(DhtCluster, "deploy", classmethod(capture))
    data, _ = GOLDEN[name]
    result = run_scenario(spec_from_dict(dict(data, name=f"golden-{name}", latency=LATENCY)), SEED)
    (cluster,) = deployed
    metrics = cluster.sim.metrics
    return (
        result.metrics["events_processed"],
        [(s.id, list(s.fingers), s.successors, s.predecessor) for s in cluster.servers],
        {counter: metrics.counter(counter) for counter in metrics.counter_names()},
        {hist: metrics.histogram(hist).samples for hist in metrics.histogram_names()},
    )


@pytest.mark.parametrize("name", ["dht", "dht-faults"])
def test_in_process_finger_fixes_equal_lookups_end_to_end(name, monkeypatch):
    stock = golden_end_state(name, monkeypatch)
    monkeypatch.setattr(ChordNode, "_fix_fingers", fix_fingers_by_lookup)
    assert golden_end_state(name, monkeypatch) == stock


def test_one_finger_cycle_points_every_finger_at_its_true_successor(monkeypatch):
    # Chord's finger invariant on a static ring: once every index has
    # been fixed, fingers[i] is the first node at or after pos + 2^i, and
    # an index that the node itself owns holds no finger (None).
    rounds = Counter()
    fix = ChordNode._fix_fingers

    def counted(self):
        rounds[self.id] += 1
        fix(self)

    monkeypatch.setattr(ChordNode, "_fix_fingers", counted)
    cluster = DhtCluster(n=40, seed=37)
    cycle = RING_BITS // cluster.servers[0].fingers_per_round
    while min(rounds[s.id] for s in cluster.servers) < cycle:
        cluster.sim.run_for(0.5)
    cluster.sim.run_for(0.5)  # the last round's network lookups answer

    ring = sorted(cluster.servers, key=lambda s: s.pos)
    positions = [s.pos for s in ring]

    def true_successor(point):
        return ring[bisect_left(positions, point) % len(ring)].ref()

    for node in cluster.servers:
        owners = [true_successor(finger_target(node.pos, i)) for i in range(RING_BITS)]
        assert node.fingers == [ref if ref[1] != node.id else None for ref in owners]

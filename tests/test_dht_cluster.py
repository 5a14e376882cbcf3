"""Integration tests for the Chord DHT baseline."""

import pytest

from repro.dht import DhtCluster
from repro.dht.node import ChordNode
from repro.errors import ConfigurationError
from repro.obs.recorder import FlightRecorder
from repro.scenarios import load_bundled
from repro.scenarios.runner import run_scenario
from repro.sim.network import Tap


@pytest.fixture(scope="module")
def ring():
    cluster = DhtCluster(n=30, seed=13)
    cluster.stabilize(15)
    return cluster


def test_size_validated():
    with pytest.raises(ConfigurationError):
        DhtCluster(n=0)


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
    from repro.dht.ring import in_interval, key_position

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

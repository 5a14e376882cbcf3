"""Focused tests for the Request Handler routing logic.

These drive a single DataFlasksNode directly with crafted messages so
each routing branch (dedup, TTL, wrong slice, right slice, store
rejection) is exercised deterministically.
"""

import sys

import pytest

from repro.core.autoslice import ReplicationManager
from repro.core.config import DataFlasksConfig
from repro.core.handler import RequestHandler
from repro.core.keyspace import slice_for_key
from repro.core.messages import GetReply, GetRequest, PutAck, PutRequest
from repro.core.node import DataFlasksNode
from repro.core.store import MemoryStore
from repro.errors import SimulationError
from repro.pss.cyclon import CyclonService
from repro.sim.node import Node
from repro.sim.simulator import Simulation
from repro.slicing.static import StaticSlicing, hash_slice

from tests.conftest import build_cluster, wire


def make_node(num_slices=4, store_capacity=None):
    sim = Simulation(seed=1)
    config = DataFlasksConfig(
        num_slices=num_slices, store_capacity=store_capacity, ttl=5, fanout=3
    )
    node = sim.add_node(lambda nid, ctx: DataFlasksNode(nid, ctx, config=config))
    node.start()
    # A client stub records what comes back.
    client = sim.add_node(Node)
    client.start()
    inbox = []
    client.register_handler(PutAck, lambda m, s: inbox.append(m))
    client.register_handler(GetReply, lambda m, s: inbox.append(m))
    return sim, node, client, inbox


def key_in_slice(slice_id, num_slices=4):
    i = 0
    while True:
        key = f"probe{i}"
        if slice_for_key(key, num_slices) == slice_id:
            return key
        i += 1


def put_msg(key, client_id, version=1, attempt=1, ttl=5, seq=0):
    return PutRequest(key, version, b"v", (client_id, seq), attempt, client_id, ttl)


def get_msg(key, client_id, version=None, attempt=1, ttl=5, seq=0):
    return GetRequest(key, version, (client_id, seq), attempt, client_id, ttl)


def test_put_in_target_slice_stores_and_acks():
    sim, node, client, inbox = make_node()
    node.slicing._set_slice(2)
    key = key_in_slice(2)
    client.send(node.id, put_msg(key, client.id))
    sim.run_for(1)
    assert node.holds(key, 1)
    assert len(inbox) == 1
    assert isinstance(inbox[0], PutAck)
    assert inbox[0].responder_slice == 2


def test_put_outside_target_slice_not_stored():
    sim, node, client, inbox = make_node()
    node.slicing._set_slice(2)
    key = key_in_slice(1)
    client.send(node.id, put_msg(key, client.id))
    sim.run_for(1)
    assert not node.holds(key)
    assert inbox == []  # relayed, not acked


def test_duplicate_put_dropped_by_dedup():
    sim, node, client, inbox = make_node()
    node.slicing._set_slice(2)
    key = key_in_slice(2)
    client.send(node.id, put_msg(key, client.id))
    client.send(node.id, put_msg(key, client.id))  # identical msg_id
    sim.run_for(1)
    assert len(inbox) == 1
    assert sim.metrics.total("df.dedup.dropped") == 1


def test_retry_attempt_is_processed_again():
    sim, node, client, inbox = make_node()
    node.slicing._set_slice(2)
    key = key_in_slice(2)
    client.send(node.id, put_msg(key, client.id, attempt=1))
    client.send(node.id, put_msg(key, client.id, attempt=2))
    sim.run_for(1)
    assert len(inbox) == 2  # both attempts acked (storage idempotent)


def test_get_hit_replies_with_object():
    sim, node, client, inbox = make_node()
    node.slicing._set_slice(3)
    key = key_in_slice(3)
    node.store.put(key, 7, b"stored")
    client.send(node.id, get_msg(key, client.id))
    sim.run_for(1)
    assert len(inbox) == 1
    reply = inbox[0]
    assert reply.found and reply.value == b"stored" and reply.version == 7


def test_get_exact_version_miss_no_reply():
    sim, node, client, inbox = make_node()
    node.slicing._set_slice(3)
    key = key_in_slice(3)
    node.store.put(key, 1, b"v1")
    client.send(node.id, get_msg(key, client.id, version=9))
    sim.run_for(1)
    assert inbox == []  # miss: forwarded intra-slice instead
    assert sim.metrics.get("df.get.miss", node=node.id) == 1


def test_ttl_expiry_stops_forwarding():
    sim, node, client, inbox = make_node()
    node.slicing._set_slice(0)
    key = key_in_slice(1)  # not ours -> would forward
    client.send(node.id, put_msg(key, client.id, ttl=0))
    sim.run_for(1)
    assert sim.metrics.total("df.ttl.expired") == 1


def test_full_store_rejects_but_still_disseminates():
    sim, node, client, inbox = make_node(store_capacity=1)
    node.slicing._set_slice(2)
    filler = key_in_slice(2)
    node.store.put(filler, 1, b"existing")
    key = key_in_slice(2)
    if key == filler:
        key = key_in_slice(2, 4) + "x" * 0  # same helper returns first; craft another
        i = 0
        while True:
            candidate = f"other{i}"
            if slice_for_key(candidate, 4) == 2:
                key = candidate
                break
            i += 1
    client.send(node.id, put_msg(key, client.id))
    sim.run_for(1)
    assert not node.holds(key)
    assert inbox == []  # no ack for a rejected write
    assert sim.metrics.get("df.put.rejected", node=node.id) == 1


def test_unsliced_node_relays_without_storing():
    sim, node, client, inbox = make_node()
    assert node.my_slice() is None  # slicing not yet converged
    key = key_in_slice(0)
    client.send(node.id, put_msg(key, client.id))
    sim.run_for(1)
    assert not node.holds(key)
    assert inbox == []


# ------------------------------------------- caches follow reconfiguration


def relay_width(sim, node, client, seq):
    """How many peers one foreign put is relayed to."""
    before = sim.metrics.get("df.fwd.global", node=node.id)
    foreign = key_in_slice((node.my_slice() + 1) % node.config.num_slices, node.config.num_slices)
    client.send(node.id, put_msg(foreign, client.id, seq=seq))
    sim.run_for(1)
    return sim.metrics.get("df.fwd.global", node=node.id) - before


def test_fanout_reconfiguration_changes_the_next_relay():
    sim, node, client, inbox = make_node()
    node.slicing._set_slice(0)
    node.pss.bootstrap(list(range(1000, 1020)))  # dead peers: Cyclon drops one a round
    assert relay_width(sim, node, client, seq=0) == 3
    node.config.fanout = 5
    assert relay_width(sim, node, client, seq=1) == 5
    node.config.fanout = None
    node.config.expected_n = 50  # ceil(ln 50 + 2) = 6
    assert relay_width(sim, node, client, seq=2) == 6
    node.config.expected_n = 1000  # ceil(ln 1000 + 2) = 9
    assert relay_width(sim, node, client, seq=3) == 9


def test_num_slices_reconfiguration_reroutes_keys():
    sim, node, client, inbox = make_node(num_slices=4)
    node.slicing._set_slice(1)
    mine_under_4 = key_in_slice(1, 4)
    client.send(node.id, put_msg(mine_under_4, client.id, seq=0))
    sim.run_for(1)
    assert node.holds(mine_under_4)
    # The way a running node retunes k: config + slicing, mid-run.
    manager = node.add_service(ReplicationManager(node.config, target_replication=3))
    manager._apply(3)
    node.slicing._set_slice(1)
    moved_in = next(
        k for k in (f"in{i}" for i in range(1000))
        if slice_for_key(k, 3) == 1 and slice_for_key(k, 4) != 1
    )
    moved_out = next(
        k for k in (f"out{i}" for i in range(1000))
        if slice_for_key(k, 4) == 1 and slice_for_key(k, 3) != 1
    )
    client.send(node.id, put_msg(moved_in, client.id, seq=1))
    client.send(node.id, put_msg(moved_out, client.id, seq=2))
    sim.run_for(1)
    assert node.holds(moved_in)
    assert not node.holds(moved_out)


def test_siblings_attached_after_the_handler_are_found():
    sim = Simulation(seed=1)
    config = DataFlasksConfig(num_slices=4, ttl=5, fanout=3)
    store = MemoryStore(None)
    node = sim.add_node(Node)
    node.add_service(RequestHandler(store, config))
    node.start()  # the handler starts with no sibling in sight
    node.add_service(StaticSlicing(num_slices=4, attribute=1.0))
    pss = node.add_service(CyclonService(view_size=8, shuffle_length=4))
    pss.bootstrap([500, 501, 502, 503])
    client = sim.add_node(Node)
    client.start()
    inbox = []
    client.register_handler(PutAck, lambda m, s: inbox.append(m))
    my_slice = hash_slice(node.id, 4)
    client.send(node.id, put_msg(key_in_slice(my_slice), client.id, seq=0))
    client.send(node.id, put_msg(key_in_slice((my_slice + 1) % 4), client.id, seq=1))
    sim.run_for(1)
    assert len(inbox) == 1 and inbox[0].responder_slice == my_slice
    assert sim.metrics.get("df.fwd.global", node=node.id) == 3


def test_dedup_counter_is_created_by_the_first_duplicate_only():
    sim, node, client, inbox = make_node()
    node.slicing._set_slice(2)
    client.send(node.id, put_msg(key_in_slice(2), client.id))
    sim.run_for(1)
    # Not even an empty entry: a cached slot must not be created eagerly.
    assert "df.dedup.dropped" not in sim.metrics._counters
    client.send(node.id, put_msg(key_in_slice(2), client.id))
    client.send(node.id, get_msg(key_in_slice(2), client.id, seq=9))
    client.send(node.id, get_msg(key_in_slice(2), client.id, seq=9))
    sim.run_for(1)
    assert sim.metrics.total("df.dedup.dropped") == 2


# ------------------------------------------------- the dissemination id


def test_late_first_attempt_after_a_retry_is_processed_once():
    sim, node, client, inbox = make_node()
    node.slicing._set_slice(2)
    key = key_in_slice(2)
    client.send(node.id, put_msg(key, client.id, attempt=2))
    sim.run_for(1)
    for _ in range(3):  # attempt 1 was merely slower: its copies trickle in
        client.send(node.id, put_msg(key, client.id, attempt=1))
    sim.run_for(1)
    assert len(inbox) == 2
    assert sim.metrics.total("df.dedup.dropped") == 2


def test_a_put_and_a_get_of_one_client_never_shadow_each_other():
    # The id carries no put/get tag: a client numbers both kinds from one
    # counter, so consecutive operations differ in ``seq``.
    sim, node, client, inbox = make_node()
    node.slicing._set_slice(2)
    key = key_in_slice(2)
    client.send(node.id, put_msg(key, client.id, seq=0))
    client.send(node.id, get_msg(key, client.id, seq=1))
    client.send(node.id, put_msg(key, client.id, version=2, seq=2))
    sim.run_for(1)
    assert [type(m) for m in inbox] == [PutAck, GetReply, PutAck]
    assert "df.dedup.dropped" not in sim.metrics._counters


def test_every_origin_numbers_its_requests_from_one_counter():
    # What dropping the tag relies on.
    cluster = build_cluster(n=20, seed=5)
    client = cluster.new_client()
    ops = [client.put("a", b"v", 1), client.get("a"), client.get("b"), client.put("b", b"v", 1)]
    assert [op.req_id for op in ops] == [(client.id, seq) for seq in range(4)]
    # A server originates re-homing puts only, numbered by its own counter.
    server = cluster.servers[0]
    strays = [k for k in map("stray{}".format, range(40)) if slice_for_key(k, 4) != server.my_slice()]
    for key in strays[:3]:
        server.store.put(key, 1, b"v")
    sent = wire(cluster.sim)  # the wire, not `multicast`: a handoff is a plain send
    cluster.sim.run_for(3)
    own = [
        m for src, _, m in sent if src == server.id and getattr(m, "client_id", None) == server.id
    ]
    assert own and all(isinstance(m, PutRequest) for m in own)
    req_ids = list(dict.fromkeys(m.req_id for m in own))  # a flood repeats its id
    assert req_ids == [(server.id, seq) for seq in range(3)]


@pytest.mark.parametrize("seq, attempt", [(-1, 1), (3, 8), (3, -1), (3.0, 1)])
@pytest.mark.parametrize("known_origin", [False, True])
def test_a_malformed_dissemination_id_is_rejected_not_wrapped(seq, attempt, known_origin):
    sim, node, client, inbox = make_node()
    handler = node.get_service(RequestHandler)
    if known_origin:  # the handler's own read of the window must not decide it either
        for earlier in range(5):
            handler._on_put(put_msg("k", client.id, seq=earlier), client.id)
    with pytest.raises(SimulationError, match="dissemination id"):
        handler._on_put(put_msg("k", client.id, seq=seq, attempt=attempt), client.id)


def test_a_duplicate_costs_one_python_frame():
    # 84 % of a flood's deliveries end here; each extra frame is ~0.3 us
    # on every one of them.
    sim, node, client, inbox = make_node()
    handler = node.get_service(RequestHandler)
    msg = put_msg(key_in_slice(1), client.id, seq=3)
    handler._on_put(msg, client.id)
    handler._on_put(msg, client.id)  # creates the counter slot
    frames = []
    sys.setprofile(lambda frame, event, arg: event == "call" and frames.append(frame.f_code.co_name))
    try:
        handler._on_put(msg, client.id)
    finally:
        sys.setprofile(None)
    assert frames == ["on_request"]  # the check that wraps _on_put, and nothing below it
    assert sim.metrics.total("df.dedup.dropped") == 2


def test_dedup_state_is_bytes_per_request_not_tuples():
    # One byte per sequence number (doubling, so at most two) plus a
    # fixed cost per origin; a tuple in a set was ~200 B per request.
    requests = 500
    cluster = build_cluster(n=30, seed=6)
    client = cluster.new_client()
    for i in range(requests):
        cluster.run_op(client.put(f"key{i % 40}", b"v", i + 1))
    cluster.sim.run_for(2)
    for server in cluster.servers:
        seen = server.get_service(RequestHandler)._seen
        assert len(seen[client.id]) >= requests * 0.9  # the flood did reach this node
        held = sys.getsizeof(seen) + sum(sys.getsizeof(window) for window in seen.values())
        assert held <= 2 * requests + 200 * len(seen) + 256

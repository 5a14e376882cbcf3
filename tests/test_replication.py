"""Focused tests for the anti-entropy replication service."""

from repro.core.config import DataFlasksConfig
from repro.core.keyspace import slice_for_key
from repro.core.messages import GetReply, PutAck, PutRequest, SliceAdvert, SyncDigest
from repro.core.node import DataFlasksNode
from repro.pss.view import NodeDescriptor
from repro.sim.node import Node
from repro.sim.simulator import Simulation

from tests.conftest import wire


def make_pair(num_slices=4, slice_id=1, gc=False):
    """Two nodes pinned to the same slice, knowing each other."""
    sim = Simulation(seed=2)
    config = DataFlasksConfig(
        num_slices=num_slices, antientropy_period=1.0, gc_foreign_data=gc, ttl=5
    )
    nodes = [
        sim.add_node(lambda nid, ctx: DataFlasksNode(nid, ctx, config=config))
        for _ in range(2)
    ]
    for node in nodes:
        node.start()
        node.slicing._set_slice(slice_id)
    a, b = nodes
    a.slice_view.view.add(NodeDescriptor(b.id, 0))
    b.slice_view.view.add(NodeDescriptor(a.id, 0))
    return sim, a, b


def key_in_slice(slice_id, num_slices=4, prefix="ae"):
    i = 0
    while True:
        key = f"{prefix}{i}"
        if slice_for_key(key, num_slices) == slice_id:
            return key
        i += 1


def test_push_pull_converges_both_ways():
    sim, a, b = make_pair()
    key_a = key_in_slice(1, prefix="onlya")
    key_b = key_in_slice(1, prefix="onlyb")
    a.store.put(key_a, 1, b"from-a")
    b.store.put(key_b, 1, b"from-b")
    sim.run_for(6)
    assert a.holds(key_b) and a.store.get(key_b, 1).value == b"from-b"
    assert b.holds(key_a) and b.store.get(key_a, 1).value == b"from-a"


def test_all_versions_are_synced():
    sim, a, b = make_pair()
    key = key_in_slice(1)
    a.store.put(key, 1, b"v1")
    a.store.put(key, 2, b"v2")
    sim.run_for(6)
    assert b.store.versions(key) == [1, 2]


def test_foreign_keys_not_offered():
    # Objects whose key belongs to another slice are excluded from the
    # digest: anti-entropy replicates only what the slice owns.
    sim, a, b = make_pair(slice_id=1)
    foreign = key_in_slice(2, prefix="foreign")
    a.store.put(foreign, 1, b"stray")
    sim.run_for(6)
    assert not b.holds(foreign)


def test_digest_from_other_slice_ignored():
    sim, a, b = make_pair(slice_id=1)
    key = key_in_slice(3, prefix="wrongslice")
    a.store.put(key, 1, b"x")
    # Hand-deliver a digest claiming slice 3; b (slice 1) must ignore it.
    b.deliver(SyncDigest(3, frozenset({(key, 1)})), a.id)
    sim.run_for(2)
    assert not b.holds(key)


def test_gc_removes_foreign_data_after_grace():
    sim, a, b = make_pair(slice_id=1, gc=True)
    foreign = key_in_slice(2, prefix="gcme")
    owned = key_in_slice(1, prefix="keepme")
    a.store.put(foreign, 1, b"stray")
    a.store.put(owned, 1, b"mine")
    # Trigger the slice-change hook (as if a just migrated into slice 1).
    a.antientropy._on_slice_change(2, 1)
    sim.run_for(10)  # grace = 3 * period = 3s, plus rounds
    assert not a.holds(foreign)
    assert a.holds(owned)


def test_gc_disabled_keeps_foreign_data():
    sim, a, b = make_pair(slice_id=1, gc=False)
    foreign = key_in_slice(2, prefix="keepforeign")
    a.store.put(foreign, 1, b"stray")
    a.antientropy._on_slice_change(2, 1)
    sim.run_for(10)
    assert a.holds(foreign)


def test_stranded_object_is_rehomed_to_owning_slice():
    # Regression: a node that stored an object and then migrated out of
    # the object's slice must re-inject it so the owning slice gets a
    # copy — otherwise the object is invisible to anti-entropy and dies
    # with its lone holder.
    from tests.conftest import build_cluster

    cluster = build_cluster(n=40, seed=61)
    client = cluster.new_client()
    cluster.put_sync(client, "stranded", b"payload", 1)
    cluster.sim.run_for(10)

    target = cluster.target_slice("stranded")
    holders = [s for s in cluster.alive_servers() if s.holds("stranded")]
    # Force every current holder out of the owning slice (simulates the
    # migration race), leaving the object stranded.
    for holder in holders:
        holder.slicing._set_slice((target + 1) % cluster.config.num_slices)
    in_slice = [
        s
        for s in cluster.alive_servers()
        if s.holds("stranded") and s.my_slice() == target
    ]
    assert not in_slice  # precondition: object is stranded

    cluster.sim.run_for(40)  # re-home rounds + intra-slice spread
    in_slice = [
        s
        for s in cluster.alive_servers()
        if s.holds("stranded") and s.my_slice() == target
    ]
    assert in_slice  # the owning slice recovered a copy

    # And reads still work throughout.
    result = cluster.get_sync(client, "stranded")
    assert result.succeeded and result.value == b"payload"


def test_holder_outside_slice_still_serves_reads():
    from tests.conftest import build_cluster

    cluster = build_cluster(n=30, seed=62)
    client = cluster.new_client()
    cluster.put_sync(client, "misplaced", b"v", 1)
    target = cluster.target_slice("misplaced")
    for server in cluster.alive_servers():
        if server.holds("misplaced"):
            server.slicing._set_slice((target + 1) % cluster.config.num_slices)
    result = cluster.get_sync(client, "misplaced")
    assert result.succeeded and result.value == b"v"


def test_sync_counts_repairs_metric():
    sim, a, b = make_pair()
    key = key_in_slice(1, prefix="metric")
    a.store.put(key, 1, b"x")
    sim.run_for(6)
    assert sim.metrics.total("df.ae.repaired") >= 1


# ------------------------------------------------------------- handoff


def rehome_puts(sent, origin):
    return [
        (dst, msg)
        for src, dst, msg in sent
        if isinstance(msg, PutRequest) and msg.req_id[0] == origin
    ]


def strand_one(known_contact):
    """A cluster in which server 0 holds one object of another slice;
    returns the slice's members and what re-homing put on the wire.
    Slices are fixed, so every contact and slice-view entry is current."""
    from tests.conftest import build_cluster

    cluster = build_cluster(n=40, seed=64, slicing_protocol="static")
    server = cluster.servers[0]
    target = (server.my_slice() + 1) % cluster.config.num_slices
    members = [s for s in cluster.alive_servers() if s.my_slice() == target]
    assert server.slice_view.contact(target) is not None
    if not known_contact:
        server.slice_view.contact = lambda slice_id: None
    sent = wire(cluster.sim)
    key = key_in_slice(target, prefix="handoff")
    server.store.put(key, 1, b"v")
    cluster.sim.run_for(8)  # the re-home round, the ack, then anti-entropy
    assert all(s.holds(key) for s in cluster.alive_servers() if s.my_slice() == target)
    assert server.antientropy._rehomed_done == {(key, 1)}
    return cluster, members, rehome_puts(sent, server.id)


def test_a_known_contact_takes_the_object_to_its_slice_in_slice_size_sends():
    cluster, members, handoff = strand_one(known_contact=True)
    assert all(msg.handoff and msg.attempt == 1 for _, msg in handoff)
    # One send to the contact, then each member relays once inside the
    # slice.
    assert {dst for dst, _ in handoff} <= {s.id for s in members}
    assert len(handoff) <= 1 + cluster.config.intra_slice_fanout * len(members)

    *_, flood = strand_one(known_contact=False)
    assert not any(msg.handoff for _, msg in flood)
    # Every node outside the slice relays at the global fanout.
    outside = len(cluster.servers) - len(members)
    assert len(flood) >= outside * cluster.config.effective_fanout // 2
    assert len(flood) > 5 * len(handoff)


def test_no_contact_means_the_flood():
    sim, a, b = make_pair(slice_id=1)
    a.pss.view.add(NodeDescriptor(b.id, 0))
    assert a.slice_view.contact(2) is None  # a only ever heard its own slice
    key = key_in_slice(2, prefix="nocontact")
    a.store.put(key, 1, b"v")
    sent = wire(sim)
    a.antientropy._rehome_foreign(1)
    [(dst, msg)] = rehome_puts(sent, a.id)
    assert dst == b.id and not msg.handoff and msg.attempt == 1
    assert not a.antientropy._handoffs


def add_origin(sim):
    """A bare node standing in for the re-homing server; keeps its acks."""
    origin = sim.add_node(Node)
    origin.start()
    acks = []
    origin.register_handler(PutAck, lambda msg, src: acks.append((src, msg)))
    return origin, acks


def test_a_member_stores_acks_and_relays_a_handoff_inside_its_slice():
    sim, a, b = make_pair(slice_id=1)
    origin, acks = add_origin(sim)
    key = key_in_slice(1, prefix="member")
    sent = wire(sim)
    a.deliver(PutRequest(key, 1, b"v", (origin.id, 0), 1, origin.id, 5, handoff=True), origin.id)
    sim.run_for(0.5)
    assert a.holds(key) and b.holds(key)
    assert [(src, msg.responder_slice) for src, msg in acks] == [(a.id, 1), (b.id, 1)]
    relays = rehome_puts(sent, origin.id)
    assert relays and all(msg.handoff for _, msg in relays)
    assert sim.metrics.total("df.fwd.global") == 0


def test_a_stale_contact_or_slice_mate_drops_a_handoff():
    # b is in slice 1; the handoff is for slice 2. Whether it is the
    # direct copy (from the origin) or a relay from a former slice-mate,
    # it is dropped without a single send.
    sim, a, b = make_pair(slice_id=1)
    b.pss.view.add(NodeDescriptor(a.id, 0))
    origin, acks = add_origin(sim)
    key = key_in_slice(2, prefix="stray")
    sent = wire(sim)
    b.deliver(PutRequest(key, 1, b"v", (origin.id, 0), 1, origin.id, 5, handoff=True), origin.id)
    b.deliver(PutRequest(key, 1, b"v", (origin.id, 1), 1, origin.id, 3, handoff=True), a.id)
    sim.run_for(0.5)
    assert not b.holds(key) and not acks
    assert sim.metrics.get("df.handoff.stray", node=b.id) == 2
    assert rehome_puts(sent, origin.id) == []
    # The same put without the flag is relayed as an ordinary request.
    b.deliver(PutRequest(key, 1, b"v", (origin.id, 2), 1, origin.id, 5), origin.id)
    assert [dst for dst, _ in rehome_puts(sent, origin.id)] == [a.id]


def test_an_unacked_handoff_is_flooded_on_the_next_round_then_settles():
    from tests.conftest import build_cluster

    cluster = build_cluster(n=40, seed=61)
    server = cluster.servers[0]
    service, view = server.antientropy, server.slice_view
    target = (server.my_slice() + 1) % cluster.config.num_slices
    stale = next(
        s for s in cluster.alive_servers() if s.my_slice() not in (target, server.my_slice())
    )
    key = key_in_slice(target, prefix="unacked")
    server.store.put(key, 1, b"v")
    view._contacts[target] = stale.id  # a member that has since moved on
    sent = wire(cluster.sim)
    service._rehome_foreign(server.my_slice())
    [(dst, first)] = rehome_puts(sent, server.id)
    assert dst == stale.id and first.handoff and first.attempt == 1
    cluster.sim.run_for(0.02)  # one hop
    assert cluster.sim.metrics.get("df.handoff.stray", node=stale.id) == 1
    assert list(service._handoffs) == [first.req_id]

    cluster.sim.run_for(cluster.config.antientropy_period * 1.2)  # the next round
    retries = [msg for _, msg in rehome_puts(sent, server.id) if msg.attempt == 2]
    assert retries and all(msg.req_id == first.req_id and not msg.handoff for msg in retries)
    assert view.contact(target) != stale.id
    cluster.sim.run_for(3)
    assert service._rehomed_done == {(key, 1)} and not service._handoffs
    assert any(s.holds(key) for s in cluster.alive_servers() if s.my_slice() == target)
    # An ack from the owning slice taught the server a fresh contact.
    assert cluster.sim.node(view.contact(target)).my_slice() == target


def test_contacts_come_from_foreign_adverts_and_rehome_acks_only():
    sim, a, b = make_pair(num_slices=4, slice_id=1)
    view = a.slice_view
    a.deliver(SliceAdvert(1, ((b.id, 0),)), b.id)  # own slice: a slice-mate, not a contact
    assert view._contacts == {}
    a.deliver(SliceAdvert(3, ((70, 0),)), 70)
    a.deliver(SliceAdvert(3, ((71, 0),)), 71)  # the latest sender wins
    a.deliver(SliceAdvert(9, ((72, 0),)), 72)  # no such slice here
    assert view._contacts == {3: 71}
    a.deliver(GetReply("k", 1, b"v", True, (a.id, 0), responder_slice=2), 73)
    a.deliver(PutAck("k", 1, (a.id, 0), responder_slice=None), 74)
    assert view._contacts == {3: 71}
    a.deliver(PutAck("k", 1, (a.id, 0), responder_slice=2), 75)
    assert view._contacts == {3: 71, 2: 75}
    view.forget_contact(3, 70)  # no longer the contact: nothing to forget
    assert view.contact(3) == 71
    a.antientropy.reset_rehoming()  # num_slices changed: every contact is suspect
    assert view._contacts == {}


def test_the_contact_table_is_bounded_by_the_slice_count():
    from tests.conftest import build_cluster

    cluster = build_cluster(n=40, seed=65)
    cluster.sim.run_for(20)
    num_slices = cluster.config.num_slices
    tables = [s.slice_view._contacts for s in cluster.alive_servers()]
    assert all(len(t) <= num_slices and set(t) <= set(range(num_slices)) for t in tables)
    # Adverts of every slice reach everybody within a few rounds.
    assert sum(len(t) >= num_slices - 1 for t in tables) >= 0.9 * len(tables)

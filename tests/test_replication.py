"""Focused tests for the anti-entropy replication service."""

from repro.core.config import DataFlasksConfig
from repro.core.keyspace import slice_for_key
from repro.core.messages import (
    GetReply,
    GetRequest,
    PutAck,
    PutRequest,
    SliceAdvert,
    SyncDigest,
    SyncItems,
    SyncResponse,
)
from repro.core.node import DataFlasksNode
from repro.pss.view import NodeDescriptor
from repro.sim.simulator import Simulation

from tests.conftest import wire


def make_nodes(*slices, num_slices=4, gc=False):
    """One node pinned to each of ``slices``; slice-mates know each other."""
    sim = Simulation(seed=2)
    config = DataFlasksConfig(
        num_slices=num_slices, antientropy_period=1.0, gc_foreign_data=gc, ttl=5
    )
    nodes = [
        sim.add_node(lambda nid, ctx: DataFlasksNode(nid, ctx, config=config))
        for _ in slices
    ]
    for node, slice_id in zip(nodes, slices):
        node.start()
        node.slicing._set_slice(slice_id)
    for node in nodes:
        for mate in nodes:
            if mate is not node and mate.my_slice() == node.my_slice():
                node.slice_view.view.add(NodeDescriptor(mate.id, 0))
    return sim, nodes


def make_pair(num_slices=4, slice_id=1, gc=False):
    """Two nodes pinned to the same slice, knowing each other."""
    sim, (a, b) = make_nodes(slice_id, slice_id, num_slices=num_slices, gc=gc)
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


# ------------------------------------------------------------- re-home
#
# Each round ends before the next begins: rounds fire every 0.9-1.1 s,
# an exchange takes a few milliseconds. ``run_for(1.5)`` from t=0 runs
# exactly the first round, each further ``run_for(1.0)`` exactly one more.


def offering(*held_by_contact, gc=False, stranded=3):
    """Node a (slice 1) holds ``stranded`` objects of slice 2 and knows
    c as slice 2's contact; c holds the ones indexed by
    ``held_by_contact`` and one object a lacks, and d is c's slice-mate."""
    sim, (a, c, d) = make_nodes(1, 2, 2, gc=gc)
    a.deliver(SliceAdvert(2, ((c.id, 0),)), c.id)
    c.store.put(key_in_slice(2, prefix="unoffered"), 1, b"v")  # never pushed to a
    keys = [key_in_slice(2, prefix=f"stranded{i}-") for i in range(stranded)]
    for i, key in enumerate(keys):
        a.store.put(key, 1, b"v")
        if i in held_by_contact:
            c.store.put(key, 1, b"v")
    return sim, a, c, d, [(key, 1) for key in keys]


def sent_by(sent, node, kind, to=None):
    return [
        (dst, msg)
        for src, dst, msg in sent
        if src == node.id and isinstance(msg, kind) and to in (None, dst)
    ]


def test_an_offer_the_contact_holds_is_confirmed_without_a_push():
    sim, a, c, d, entries = offering(0, 1, 2)
    sent = wire(sim)
    sim.run_for(1.5)
    assert sent_by(sent, a, SyncDigest) == [(c.id, SyncDigest(2, frozenset(entries), offer=True))]
    assert sent_by(sent, c, SyncResponse, to=a.id) == [(a.id, SyncResponse(2, push=(), pull=()))]
    assert a.antientropy._confirmed == set(entries)
    sim.run_for(3)  # confirmed entries are never offered again
    assert len(sent_by(sent, a, SyncDigest)) == 1 and not sent_by(sent, a, SyncItems)
    assert sim.metrics.total("df.ae.rehomed") == 0
    assert all(a.holds(key) for key, _ in entries)  # no gc: the copies stay


def test_an_offer_pushes_exactly_what_the_contact_lacks_then_confirms_it():
    sim, a, c, d, entries = offering(0, 2)
    lacking = entries[1]
    sent = wire(sim)
    sim.run_for(1.5)
    [(dst, answer)] = sent_by(sent, c, SyncResponse, to=a.id)
    assert dst == a.id and answer.push == () and answer.pull == (lacking,)
    [(dst, items)] = sent_by(sent, a, SyncItems)
    assert dst == c.id and items == SyncItems(2, ((*lacking, b"v"),))
    assert c.store.get(*lacking) is not None
    assert a.antientropy._confirmed == {entries[0], entries[2]}
    assert sim.metrics.total("df.ae.rehomed") == 1
    sim.run_for(1.0)  # the next round offers the pushed entry again
    assert sent_by(sent, a, SyncDigest)[-1] == (c.id, SyncDigest(2, frozenset({lacking}), offer=True))
    assert a.antientropy._confirmed == set(entries)
    assert len(sent_by(sent, a, SyncItems)) == 1
    sim.run_for(4)  # slice 2's own anti-entropy spreads it
    assert d.store.get(*lacking) is not None
    # Nothing on the wire was a request: a server originates none.
    assert not [m for _, _, m in sent if isinstance(m, (PutRequest, GetRequest, PutAck))]


def test_a_stale_contact_stays_silent_and_is_forgotten_next_round():
    sim, (a, c) = make_nodes(1, 3)
    a.deliver(SliceAdvert(2, ((c.id, 0),)), c.id)  # c was in slice 2 once
    key = key_in_slice(2, prefix="stale")
    a.store.put(key, 1, b"v")
    sent = wire(sim)
    sim.run_for(1.5)
    assert [(src, dst) for src, dst, _ in sent] == [(a.id, c.id)]  # the offer, no answer
    assert a.slice_view.contact(2) == c.id
    sim.run_for(1.0)
    assert a.slice_view.contact(2) is None
    assert len(sent) == 1  # no contact left: the second round sends nothing
    assert not c.holds(key) and not a.antientropy._confirmed


def test_no_contact_means_nothing_is_sent():
    sim, a, c, d, entries = offering()
    a.slice_view.clear_contacts()
    sent = wire(sim)
    sim.run_for(3.5)
    assert sent_by(sent, a, SyncDigest) == [] and sent_by(sent, a, SyncItems) == []
    assert not a.antientropy._confirmed
    # A foreign advert gives the next round a contact.
    a.deliver(SliceAdvert(2, ((c.id, 0),)), c.id)
    sim.run_for(1.0)
    assert [dst for dst, _ in sent_by(sent, a, SyncDigest)] == [c.id]


def test_gc_deletes_only_confirmed_copies():
    sim, a, c, d, entries = offering(0, gc=True, stranded=2)
    held, lacking = entries
    a.antientropy._gc_pending_since = None  # the slice-change grace gc is not under test
    sim.run_for(1.5)
    assert a.store.get(*held) is None  # confirmed: the owning slice has it
    assert a.store.get(*lacking) is not None  # pushed, not yet confirmed
    assert sim.metrics.total("df.ae.gc") == 1
    sim.run_for(1.0)
    assert a.store.get(*lacking) is None and sim.metrics.total("df.ae.gc") == 2
    assert c.store.get(*held) is not None and c.store.get(*lacking) is not None


def test_a_stranded_object_reaches_its_slice_without_a_request():
    from tests.conftest import build_cluster

    cluster = build_cluster(n=40, seed=64, slicing_protocol="static")
    server = cluster.servers[0]
    target = (server.my_slice() + 1) % cluster.config.num_slices
    assert server.slice_view.contact(target) is not None
    sent = wire(cluster.sim)
    key = key_in_slice(target, prefix="offer")
    server.store.put(key, 1, b"v")
    cluster.sim.run_for(8)  # the offer, the push, the next offer, then anti-entropy
    assert all(s.holds(key) for s in cluster.alive_servers() if s.my_slice() == target)
    assert server.antientropy._confirmed == {(key, 1)}
    members = {s.id for s in cluster.alive_servers() if s.my_slice() == target}
    own = [(dst, msg) for src, dst, msg in sent if src == server.id]
    assert not [msg for _, msg in own if isinstance(msg, (PutRequest, GetRequest))]
    offers = [dst for dst, msg in own if isinstance(msg, SyncDigest) and msg.offer]
    pushes = [
        dst for dst, msg in own
        if msg == SyncItems(target, ((key, 1, b"v"),))
    ]
    # One offer a round to the slice's contact of the moment, which may
    # change between rounds; a push only answers an offer.
    assert set(offers) | set(pushes) <= members
    assert 1 <= len(pushes) < len(offers) <= 8


def test_contacts_come_from_foreign_adverts_and_offer_answers_only():
    sim, a, b = make_pair(num_slices=4, slice_id=1)
    view = a.slice_view
    a.deliver(SliceAdvert(1, ((b.id, 0),)), b.id)  # own slice: a slice-mate, not a contact
    assert view._contacts == {}
    a.deliver(SliceAdvert(3, ((70, 0),)), 70)
    a.deliver(SliceAdvert(3, ((71, 0),)), 71)  # the latest sender wins
    a.deliver(SliceAdvert(9, ((72, 0),)), 72)  # no such slice here
    assert view._contacts == {3: 71}
    a.deliver(GetReply("k", 1, b"v", True, (a.id, 0), responder_slice=2), 73)
    a.deliver(PutAck("k", 1, (a.id, 0), responder_slice=2), 74)
    assert view._contacts == {3: 71}
    a.antientropy._offers[2] = (75, frozenset())  # an offer went to 75
    a.deliver(SyncResponse(2, push=(), pull=()), 76)  # not the contact asked
    assert view._contacts == {3: 71}
    a.deliver(SyncResponse(2, push=(), pull=()), 75)
    assert view._contacts == {3: 71, 2: 75} and not a.antientropy._offers
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

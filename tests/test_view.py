"""Unit and property tests for partial views.

``PartialView`` keeps ages under a per-view clock and draws its samples
over ``rng.getrandbits``. Two tests hold it to what it replaced: a
reference model (the former class, kept here as ``_ReferenceView``)
driven through random operation sequences, and ``random.Random``'s own
``sample`` / ``shuffle`` / ``choice`` on the same sorted ids. The second
is also the guard against an interpreter whose ``random`` draws
differently.
"""

import math
import random
from typing import Dict, Iterable, List, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.pss.view import NodeDescriptor, PartialView, _sample_setsize

descriptor_st = st.builds(
    NodeDescriptor,
    node_id=st.integers(min_value=0, max_value=40),
    age=st.integers(min_value=0, max_value=20),
)


class TestNodeDescriptor:
    def test_equality_and_hash(self):
        assert NodeDescriptor(1, 0) == NodeDescriptor(1, 0)
        assert len({NodeDescriptor(1, 0), NodeDescriptor(1, 0)}) == 1


class TestPartialView:
    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            PartialView(0)

    def test_add_and_contains(self):
        view = PartialView(4)
        view.add(NodeDescriptor(7))
        assert 7 in view
        assert len(view) == 1

    def test_add_keeps_youngest_duplicate(self):
        view = PartialView(4)
        view.add(NodeDescriptor(1, age=5))
        view.add(NodeDescriptor(1, age=2))
        assert view.get(1).age == 2
        view.add(NodeDescriptor(1, age=9))
        assert view.get(1).age == 2

    def test_overflow_evicts_oldest(self):
        view = PartialView(2)
        view.add(NodeDescriptor(1, age=5))
        view.add(NodeDescriptor(2, age=1))
        view.add(NodeDescriptor(3, age=0))
        assert len(view) == 2
        assert 1 not in view

    def test_oldest_tie_breaks_by_id(self):
        view = PartialView(3)
        view.add(NodeDescriptor(2, age=4))
        view.add(NodeDescriptor(9, age=4))
        assert view.oldest().node_id == 9

    def test_remove(self):
        view = PartialView(2)
        view.add(NodeDescriptor(1))
        assert view.remove(1) is True
        assert view.remove(1) is False

    def test_increase_ages(self):
        view = PartialView(3)
        view.add(NodeDescriptor(1, age=0))
        view.add(NodeDescriptor(2, age=3))
        view.increase_ages()
        assert view.get(1).age == 1
        assert view.get(2).age == 4

    def test_random_id_none_when_empty(self):
        assert PartialView(2).random_id(random.Random(0)) is None

    def test_sample_ids_distinct(self):
        view = PartialView(10)
        for i in range(10):
            view.add(NodeDescriptor(i))
        sample = view.sample_ids(random.Random(1), 5)
        assert len(sample) == 5
        assert len(set(sample)) == 5

    def test_sample_more_than_available_returns_all(self):
        view = PartialView(10)
        for i in range(3):
            view.add(NodeDescriptor(i))
        assert sorted(view.sample_ids(random.Random(1), 99)) == [0, 1, 2]

    def test_merge_skips_self(self):
        view = PartialView(4)
        view.merge([NodeDescriptor(5, 0)], self_id=5)
        assert len(view) == 0

    def test_merge_prefers_younger_entry(self):
        view = PartialView(4)
        view.add(NodeDescriptor(1, age=7))
        view.merge([NodeDescriptor(1, age=1)], self_id=99)
        assert view.get(1).age == 1

    def test_merge_evicts_sent_entries_first(self):
        view = PartialView(2)
        view.add(NodeDescriptor(1, age=0))
        view.add(NodeDescriptor(2, age=9))
        sent = [NodeDescriptor(1, age=0)]
        view.merge([NodeDescriptor(3, age=0)], self_id=99, sent=sent)
        # Node 1 was offered away, so it is evicted before old node 2.
        assert 1 not in view
        assert 2 in view and 3 in view

    @given(st.lists(descriptor_st, max_size=60), st.integers(min_value=1, max_value=8))
    def test_never_exceeds_capacity(self, descriptors, capacity):
        view = PartialView(capacity)
        for d in descriptors:
            view.add(d)
        assert len(view) <= capacity

    @given(st.lists(descriptor_st, max_size=60), st.integers(min_value=1, max_value=8))
    def test_at_most_one_entry_per_id(self, descriptors, capacity):
        view = PartialView(capacity)
        for d in descriptors:
            view.add(d)
        ids = view.ids()
        assert len(ids) == len(set(ids))

    @given(
        st.lists(descriptor_st, max_size=30),
        st.lists(descriptor_st, max_size=30),
        st.integers(min_value=1, max_value=8),
    )
    def test_merge_never_exceeds_capacity_nor_contains_self(self, initial, received, capacity):
        view = PartialView(capacity)
        for d in initial:
            view.add(d)
        view.merge(received, self_id=3)
        assert len(view) <= capacity
        assert 3 not in view or any(d.node_id == 3 for d in initial)


# ------------------------------------------------------- reference model


class _ReferenceView:
    """The former ``PartialView``: a dict of frozen descriptors, re-built
    on every ageing, with ``random.Random``'s own draws. ``add_entry`` and
    ``drop_older_than`` are what its callers did in their place."""

    def __init__(self, capacity: int, entries: Optional[Iterable[NodeDescriptor]] = None) -> None:
        if capacity <= 0:
            raise ConfigurationError("view capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[int, NodeDescriptor] = {}
        self._sorted_ids: Optional[List[int]] = None
        if entries:
            for descriptor in entries:
                self.add(descriptor)

    def __len__(self) -> int:
        return len(self._entries)

    def ids(self) -> List[int]:
        return list(self._entries)

    def descriptors(self) -> List[NodeDescriptor]:
        return sorted(self._entries.values(), key=lambda d: (d.age, d.node_id))

    def get(self, node_id: int) -> Optional[NodeDescriptor]:
        return self._entries.get(node_id)

    def _sorted(self) -> List[int]:
        ids = self._sorted_ids
        if ids is None:
            ids = self._sorted_ids = sorted(self._entries)
        return ids

    def oldest(self, rng: Optional[random.Random] = None) -> Optional[NodeDescriptor]:
        if not self._entries:
            return None
        if rng is None:
            return max(self._entries.values(), key=lambda d: (d.age, d.node_id))
        max_age = max(d.age for d in self._entries.values())
        candidates = sorted(
            (d for d in self._entries.values() if d.age == max_age),
            key=lambda d: d.node_id,
        )
        return rng.choice(candidates)

    def random_id(self, rng: random.Random) -> Optional[int]:
        if not self._entries:
            return None
        return rng.choice(self._sorted())

    def sample_ids(self, rng: random.Random, count: int) -> List[int]:
        ids = self._sorted()
        if count >= len(ids):
            ids = list(ids)
            rng.shuffle(ids)
            return ids
        return rng.sample(ids, count)

    def sample_descriptors(self, rng: random.Random, count: int) -> List[NodeDescriptor]:
        return [self._entries[i] for i in self.sample_ids(rng, count)]

    def add(self, descriptor: NodeDescriptor) -> None:
        current = self._entries.get(descriptor.node_id)
        if current is not None:
            if descriptor.age < current.age:
                self._entries[descriptor.node_id] = descriptor
            return
        self._entries[descriptor.node_id] = descriptor
        self._sorted_ids = None
        if len(self._entries) > self.capacity:
            victim = self.oldest()
            assert victim is not None
            del self._entries[victim.node_id]

    def add_entry(self, node_id: int, age: int) -> None:
        self.add(NodeDescriptor(node_id, age))

    def remove(self, node_id: int) -> bool:
        self._sorted_ids = None
        return self._entries.pop(node_id, None) is not None

    def increase_ages(self, by: int = 1) -> None:
        # NodeDescriptor.aged(by), which ageing by stamp made unused
        self._entries = {
            i: NodeDescriptor(d.node_id, d.age + by) for i, d in self._entries.items()
        }

    def drop_older_than(self, max_age: int) -> None:
        for descriptor in self.descriptors():
            if descriptor.age > max_age:
                self.remove(descriptor.node_id)

    def merge(self, received, self_id, sent=None, rng=None) -> None:
        sent_ids = {d.node_id for d in sent} if sent else set()
        for descriptor in received:
            if descriptor.node_id == self_id:
                continue
            if descriptor.node_id in self._entries:
                current = self._entries[descriptor.node_id]
                if descriptor.age < current.age:
                    self._entries[descriptor.node_id] = descriptor
                continue
            if len(self._entries) >= self.capacity:
                evicted = self._evict_for_merge(sent_ids, rng)
                if evicted is None:
                    return  # view full of entries we must keep
            self._entries[descriptor.node_id] = descriptor
            self._sorted_ids = None

    def _evict_for_merge(self, sent_ids: set, rng: Optional[random.Random]) -> Optional[int]:
        candidates = sorted(i for i in self._entries if i in sent_ids)
        if candidates:
            victim = rng.choice(candidates) if rng is not None else candidates[0]
        else:
            oldest = self.oldest(rng=rng)
            if oldest is None:
                return None
            victim = oldest.node_id
        del self._entries[victim]
        return victim


_pair = st.tuples(st.integers(0, 40), st.integers(0, 15))
_batch = st.lists(_pair, max_size=30)
_step = st.one_of(
    st.tuples(st.just("add"), _pair),
    st.tuples(st.just("add_entry"), _pair),
    st.tuples(st.just("remove"), st.integers(0, 40)),
    st.tuples(st.just("increase_ages"), st.integers(1, 3)),
    st.tuples(st.just("drop_older_than"), st.integers(0, 15)),
    # received, self id, sent (or none), with an rng or without
    st.tuples(st.just("merge"), _batch, st.integers(0, 40), st.none() | _batch, st.booleans()),
    st.tuples(st.just("oldest"), st.booleans()),
    st.tuples(st.just("sample_ids"), st.integers(-1, 32)),
    st.tuples(st.just("sample_descriptors"), st.integers(0, 32)),
    st.tuples(st.just("random_id")),
    st.tuples(st.just("get"), st.integers(0, 40)),
)


def _descriptors(pairs) -> List[NodeDescriptor]:
    return [NodeDescriptor(*pair) for pair in pairs]


def _run(view, rng: random.Random, step):
    op, *args = step
    if op == "add":
        return view.add(NodeDescriptor(*args[0]))
    if op == "add_entry":
        return view.add_entry(*args[0])
    if op == "merge":
        received, self_id, sent, with_rng = args
        sent = None if sent is None else _descriptors(sent)
        return view.merge(_descriptors(received), self_id, sent, rng if with_rng else None)
    if op == "oldest":
        return view.oldest(rng if args[0] else None)
    if op in ("sample_ids", "sample_descriptors", "random_id"):
        try:
            return getattr(view, op)(rng, *args)
        except ValueError as exc:
            return ("ValueError", str(exc))
    return getattr(view, op)(*args)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30), st.lists(_step, max_size=40), st.integers())
# A full view of 30 sampled below and above random.sample's set-size switch.
@example(
    30,
    [("merge", [(i, i % 4) for i in range(1, 31)], 0, None, False)]
    + [("sample_ids", 5), ("sample_descriptors", 5)] * 4 + [("sample_ids", 8)],
    0,
)
def test_view_matches_the_former_view_step_for_step(capacity, steps, seed):
    view, reference = PartialView(capacity), _ReferenceView(capacity)
    ours, theirs = random.Random(seed), random.Random(seed)
    for step in steps:
        assert _run(view, ours, step) == _run(reference, theirs, step), step
        assert view.ids() == reference.ids(), step  # dict order included
        assert view.descriptors() == reference.descriptors()
        assert len(view) == len(reference)
        assert ours.getstate() == theirs.getstate()


# --------------------------------------------------------------- sampler


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_draws_are_random_randoms_own(seed):
    """``sample_ids`` / ``random_id`` = ``sample`` (both branches: a pool
    list for a small population, a rejection set for a large one),
    ``shuffle`` and ``choice`` on the sorted ids: values, errors and the
    RNG state afterwards."""
    for n in list(range(65)) + [86, 200]:
        population = sorted(random.Random(n).sample(range(1000), n))
        view = PartialView(max(n, 1), [NodeDescriptor(i) for i in population])
        for count in range(-2, n + 2):
            ours, reference = random.Random(seed), random.Random(seed)
            if count < 0:
                with pytest.raises(ValueError) as raised:
                    view.sample_ids(ours, count)
                with pytest.raises(ValueError) as expected:
                    reference.sample(population, count)
                assert str(raised.value) == str(expected.value)
            elif count >= n:
                shuffled = population[:]
                reference.shuffle(shuffled)
                assert view.sample_ids(ours, count) == shuffled
            else:
                assert view.sample_ids(ours, count) == reference.sample(population, count)
            if n:
                assert view.random_id(ours) == reference.choice(population)
            assert ours.getstate() == reference.getstate()


def test_pool_or_set_switch_is_random_samples_formula():
    for k in range(100_000):
        expected = 21 + 4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 21
        assert _sample_setsize(k) == expected, k

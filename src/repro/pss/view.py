"""Partial views for gossip membership protocols.

A *partial view* is a small, bounded set of node descriptors ``(id, age)``
that gossip protocols continuously refresh. The Peer Sampling Service
(Section II of the paper) maintains these views so that "choosing a random
peer from such list is equivalent to choosing randomly from all the nodes
in the system".
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import ConfigurationError

__all__ = ["NodeDescriptor", "PartialView"]


@dataclass(frozen=True)
class NodeDescriptor:
    """A reference to a node, aged by gossip rounds.

    ``age`` counts rounds since the descriptor was created at its subject;
    older descriptors are more likely to point at dead nodes, which is why
    Cyclon shuffles with (and replaces) the oldest entries first.
    """

    node_id: int
    age: int = 0


def _randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """``random.Random._randbelow(n)`` for ``n > 0``: the same draws."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _sample_setsize(k: int) -> int:
    """``random.Random.sample``'s switch for ``k`` draws: a population of
    at most this many is sampled from a pool list, a larger one with a
    rejection set. ``sample`` computes ``21 + 4 ** ceil(log(3 * k, 4))``
    for ``k > 5``; ``3 * k`` is never a power of two, so that power of 4
    is the one ``bit_length`` gives."""
    return 21 + (1 << ((3 * k).bit_length() + 1) // 2 * 2) if k > 5 else 21


class PartialView:
    """A bounded set of :class:`NodeDescriptor`, at most one per node id.

    Insertion keeps the *youngest* descriptor for a given id. Eviction on
    overflow removes the oldest descriptor (ties broken deterministically
    by node id, keeping simulations reproducible).

    Entries are stored as ``node_id -> stamp`` under a per-view clock: an
    entry's age is ``clock - stamp``, so ageing every entry is one
    addition. Descriptors are built only where they are handed out.
    """

    def __init__(self, capacity: int, entries: Optional[Iterable[NodeDescriptor]] = None) -> None:
        if capacity <= 0:
            raise ConfigurationError("view capacity must be positive")
        self.capacity = capacity
        self._clock = 0
        self._stamps: Dict[int, int] = {}
        # sorted(self._stamps), kept for the random draws: requests sample
        # a view far more often than gossip changes its id *set*, and only
        # such a change resets this (re-ageing keeps the set, and the list).
        self._sorted_ids: Optional[List[int]] = None
        if entries:
            for descriptor in entries:
                self.add(descriptor)

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._stamps)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._stamps

    def __iter__(self):
        return iter(self.descriptors())

    def ids(self) -> List[int]:
        """All node ids currently in the view."""
        return list(self._stamps)

    def descriptors(self) -> List[NodeDescriptor]:
        """All descriptors, sorted by (age, id) for determinism."""
        clock = self._clock
        return [
            NodeDescriptor(i, age)
            for age, i in sorted((clock - s, i) for i, s in self._stamps.items())
        ]

    def get(self, node_id: int) -> Optional[NodeDescriptor]:
        stamp = self._stamps.get(node_id)
        return None if stamp is None else NodeDescriptor(node_id, self._clock - stamp)

    def _sorted(self) -> List[int]:
        ids = self._sorted_ids  # shared: callers must not mutate it
        if ids is None:
            ids = self._sorted_ids = sorted(self._stamps)
        return ids

    def _oldest_id(self, rng: Optional[random.Random] = None) -> int:
        stamps = self._stamps
        first = min(stamps.values())
        if rng is None:
            return max(i for i, s in stamps.items() if s == first)
        candidates = sorted(i for i, s in stamps.items() if s == first)
        return candidates[_randbelow(rng.getrandbits, len(candidates))]

    def oldest(self, rng: Optional[random.Random] = None) -> Optional[NodeDescriptor]:
        """The descriptor with the highest age.

        Ties are broken by node id when ``rng`` is omitted (deterministic,
        used for eviction) and *randomly* when ``rng`` is given — protocol
        round partners must not be biased towards particular ids, or the
        overlay grows hubs (higher in-degree for higher ids).
        """
        if not self._stamps:
            return None
        return self.get(self._oldest_id(rng))

    # The draws below are ``rng.choice``, ``rng.shuffle`` and
    # ``rng.sample`` over the sorted ids, written out over
    # ``rng.getrandbits``: the same ids in the same order and the same RNG
    # state, without ``sample``'s per-call type check and ``log``.

    def random_id(self, rng: random.Random) -> Optional[int]:
        """A uniformly random node id from the view."""
        if not self._stamps:
            return None
        ids = self._sorted()
        return ids[_randbelow(rng.getrandbits, len(ids))]

    def sample_ids(self, rng: random.Random, count: int) -> List[int]:
        """Up to ``count`` distinct random ids from the view."""
        ids = self._sorted()
        n = len(ids)
        getrandbits = rng.getrandbits
        if count >= n:
            ids = ids[:]
            for i in range(n - 1, 0, -1):
                k = (i + 1).bit_length()
                j = getrandbits(k)
                while j > i:
                    j = getrandbits(k)
                ids[i], ids[j] = ids[j], ids[i]
            return ids
        if count < 0:
            raise ValueError("Sample larger than population or is negative")
        result = []
        if n <= _sample_setsize(count):
            pool = ids[:]
            for last in range(n - 1, n - 1 - count, -1):
                k = (last + 1).bit_length()
                j = getrandbits(k)
                while j > last:
                    j = getrandbits(k)
                result.append(pool[j])
                pool[j] = pool[last]
            return result
        k = n.bit_length()
        selected = set()
        for _ in range(count):
            j = getrandbits(k)
            while j >= n or j in selected:
                j = getrandbits(k)
            selected.add(j)
            result.append(ids[j])
        return result

    def sample_descriptors(self, rng: random.Random, count: int) -> List[NodeDescriptor]:
        """Up to ``count`` distinct random descriptors from the view."""
        clock, stamps = self._clock, self._stamps
        return [NodeDescriptor(i, clock - stamps[i]) for i in self.sample_ids(rng, count)]

    # ------------------------------------------------------------ mutation

    def add(self, descriptor: NodeDescriptor) -> None:
        """Insert keeping the youngest duplicate; evict oldest on overflow."""
        self.add_entry(descriptor.node_id, descriptor.age)

    def add_entry(self, node_id: int, age: int) -> None:
        """:meth:`add` for a caller holding an ``(id, age)`` pair."""
        stamps = self._stamps
        stamp = self._clock - age
        current = stamps.get(node_id)
        if current is not None:
            if stamp > current:
                stamps[node_id] = stamp
            return
        stamps[node_id] = stamp
        self._sorted_ids = None
        if len(stamps) > self.capacity:
            del stamps[self._oldest_id()]

    def remove(self, node_id: int) -> bool:
        """Drop a node id; returns whether it was present."""
        self._sorted_ids = None
        return self._stamps.pop(node_id, None) is not None

    def increase_ages(self, by: int = 1) -> None:
        """Age every descriptor (one gossip round passed)."""
        self._clock += by

    def drop_older_than(self, max_age: int) -> None:
        """Remove every entry whose age exceeds ``max_age``."""
        limit = self._clock - max_age
        stale = [i for i, s in self._stamps.items() if s < limit]
        if stale:
            for node_id in stale:
                del self._stamps[node_id]
            self._sorted_ids = None

    def merge(
        self,
        received: Iterable[NodeDescriptor],
        self_id: int,
        sent: Optional[Iterable[NodeDescriptor]] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Cyclon-style merge of a received descriptor batch.

        Received entries never describe ourselves. When the view would
        overflow, entries that were *sent* in the corresponding shuffle are
        discarded first (they are the ones we offered to trade away), then
        the oldest remaining entries. Eviction choices among equal
        candidates are randomised when ``rng`` is given — id-biased
        eviction would skew the overlay's in-degree distribution.
        """
        stamps = self._stamps
        clock = self._clock
        sent_ids = {d.node_id for d in sent} if sent else set()
        # Sorted ids of ours that were sent: built at the first eviction,
        # then kept in step with every eviction and insert.
        candidates: Optional[List[int]] = None
        for descriptor in received:
            node_id = descriptor.node_id
            if node_id == self_id:
                continue
            stamp = clock - descriptor.age
            current = stamps.get(node_id)
            if current is not None:
                if stamp > current:
                    stamps[node_id] = stamp
                continue
            if len(stamps) >= self.capacity:
                if candidates is None:
                    candidates = sorted(sent_ids.intersection(stamps))
                if candidates:
                    at = _randbelow(rng.getrandbits, len(candidates)) if rng is not None else 0
                    del stamps[candidates.pop(at)]
                else:
                    del stamps[self._oldest_id(rng)]
            stamps[node_id] = stamp
            self._sorted_ids = None
            if candidates is not None and node_id in sent_ids:
                insort(candidates, node_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{d.node_id}@{d.age}" for d in self.descriptors())
        return f"PartialView[{len(self)}/{self.capacity}]({inner})"

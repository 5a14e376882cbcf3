"""Partial views for gossip membership protocols.

A *partial view* is a small, bounded set of node descriptors ``(id, age)``
that gossip protocols continuously refresh. The Peer Sampling Service
(Section II of the paper) maintains these views so that "choosing a random
peer from such list is equivalent to choosing randomly from all the nodes
in the system".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

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

    def aged(self, by: int = 1) -> "NodeDescriptor":
        """A copy with ``age`` increased by ``by``."""
        return NodeDescriptor(self.node_id, self.age + by)

    def fresh(self) -> "NodeDescriptor":
        """A copy with ``age`` reset to zero."""
        return NodeDescriptor(self.node_id, 0)


class PartialView:
    """A bounded set of :class:`NodeDescriptor`, at most one per node id.

    Insertion keeps the *youngest* descriptor for a given id. Eviction on
    overflow removes the oldest descriptor (ties broken deterministically
    by node id, keeping simulations reproducible).
    """

    def __init__(self, capacity: int, entries: Optional[Iterable[NodeDescriptor]] = None) -> None:
        if capacity <= 0:
            raise ConfigurationError("view capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[int, NodeDescriptor] = {}
        # sorted(self._entries), kept for the random draws: requests sample
        # a view far more often than gossip changes its id *set*, and only
        # such a change resets this (re-ageing keeps the set, and the list).
        self._sorted_ids: Optional[List[int]] = None
        if entries:
            for descriptor in entries:
                self.add(descriptor)

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

    def __iter__(self):
        return iter(self.descriptors())

    def ids(self) -> List[int]:
        """All node ids currently in the view."""
        return list(self._entries)

    def descriptors(self) -> List[NodeDescriptor]:
        """All descriptors, sorted by (age, id) for determinism."""
        return sorted(self._entries.values(), key=lambda d: (d.age, d.node_id))

    def get(self, node_id: int) -> Optional[NodeDescriptor]:
        return self._entries.get(node_id)

    def _sorted(self) -> List[int]:
        ids = self._sorted_ids  # shared: callers must not mutate it
        if ids is None:
            ids = self._sorted_ids = sorted(self._entries)
        return ids

    def oldest(self, rng: Optional[random.Random] = None) -> Optional[NodeDescriptor]:
        """The descriptor with the highest age.

        Ties are broken by node id when ``rng`` is omitted (deterministic,
        used for eviction) and *randomly* when ``rng`` is given — protocol
        round partners must not be biased towards particular ids, or the
        overlay grows hubs (higher in-degree for higher ids).
        """
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
        """A uniformly random node id from the view."""
        if not self._entries:
            return None
        return rng.choice(self._sorted())

    def sample_ids(self, rng: random.Random, count: int) -> List[int]:
        """Up to ``count`` distinct random ids from the view."""
        ids = self._sorted()
        if count >= len(ids):
            ids = list(ids)
            rng.shuffle(ids)
            return ids
        return rng.sample(ids, count)

    def sample_descriptors(self, rng: random.Random, count: int) -> List[NodeDescriptor]:
        """Up to ``count`` distinct random descriptors from the view."""
        return [self._entries[i] for i in self.sample_ids(rng, count)]

    # ------------------------------------------------------------ mutation

    def add(self, descriptor: NodeDescriptor) -> None:
        """Insert keeping the youngest duplicate; evict oldest on overflow."""
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

    def remove(self, node_id: int) -> bool:
        """Drop a node id; returns whether it was present."""
        self._sorted_ids = None
        return self._entries.pop(node_id, None) is not None

    def increase_ages(self, by: int = 1) -> None:
        """Age every descriptor (one gossip round passed)."""
        self._entries = {i: d.aged(by) for i, d in self._entries.items()}

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{d.node_id}@{d.age}" for d in self.descriptors())
        return f"PartialView[{len(self)}/{self.capacity}]({inner})"

"""Simulated message-passing network.

Delivers messages between registered nodes with configurable latency,
random loss and directed cuts. Every send/delivery is accounted in
the :class:`~repro.sim.metrics.MetricsRegistry`, both globally
(``msg.sent`` / ``msg.received``) and per message type
(``msg.sent.<Type>``), because per-node message load is the metric the
paper's evaluation reports. Drops are likewise accounted per cause and
per message type (``msg.dropped.partition.<Type>`` /
``msg.dropped.loss.<Type>``).

Semantics (matching the fault model of epidemic protocols):

* messages to dead or unknown nodes are silently dropped (gossip protocols
  must tolerate this; there is no connection abstraction),
* loss is Bernoulli per message; the effective per-message loss combines
  the global ``loss_rate`` with every degradation layer covering the
  link as independent drop chances (``1 - prod(1 - p_i)``),
* a directed :meth:`~Network.block` cut drops messages from one node set
  to another, so one cut is an asymmetric partition (A cannot reach B
  while B still reaches A) and two cuts are a symmetric one,
* latency is drawn per message from a pluggable :class:`LatencyModel`,
  plus the extra latency of every layer covering the link ("slow node"
  conditions).

The network keeps two fault tables and four mutators: directed cuts
(:meth:`~Network.block` / :meth:`~Network.unblock`) and degradation
layers over a node set or over every link
(:meth:`~Network.add_conditions` / :meth:`~Network.remove_conditions`).
Each mutator hands back or takes the id of one entry, so overlapping
faults revert their own entries and nobody else's.

Determinism: loss is sampled from the network's dedicated RNG stream
(``rng_registry.stream("network")`` — seeded from the scenario's master
seed), **never** from the global :mod:`random` module state, so fault
schedules replay byte-identically for a given spec + seed. Both tables
are plain dicts iterated in insertion order, mutated only through the
four methods.

Hot path: :meth:`Network.send` runs once per simulated message, so it
avoids all per-call allocation — counter keys per message type are
interned once into ``_type_cache`` (no f-string per send) and the
always-hit counters update cached inner dicts directly. When both fault
tables are empty (``_fault_free``, maintained by the four mutators) the
cut and layer lookups are skipped entirely. The fast path consumes the
RNG stream identically to the slow path — loss is sampled iff the
effective loss is positive, and a run with only zero-impact fault
layers makes exactly the same
drop/latency decisions as one with none (see DESIGN.md, "Performance").
A fan-out of one message to many peers goes through
:meth:`Network.multicast`, which is the loop over :meth:`Network.send`
by contract and pays its bookkeeping once per fan-out whenever no fault
machinery, loss, tap or ``send`` wrapper could tell the difference.

Observation: everything that wants to watch the wire — the op tracer,
the isolation checker — is a :class:`Tap` in :attr:`Network.taps`. An empty tuple (the default) is
the fast path above; a tapped network sends message by message and
delivers through :meth:`Network._deliver_traced`.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Collection, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.metrics import MetricsRegistry
from repro.sim.scheduler import Scheduler

__all__ = [
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "LogNormalLatency",
    "Network",
    "Tap",
]

class LatencyModel:
    """Strategy object producing one-way message latencies (seconds)."""

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        """Latency for one message from ``src`` to ``dst``."""
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """Constant latency for every message."""

    def __init__(self, latency: float = 0.01) -> None:
        if latency < 0:
            raise ConfigurationError("latency must be non-negative")
        self.latency = latency

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return self.latency


class UniformLatency(LatencyModel):
    """Latency drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float = 0.005, high: float = 0.05) -> None:
        if not 0 <= low <= high:
            raise ConfigurationError("require 0 <= low <= high")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        # rng.uniform's own expression, bit for bit, minus its frame.
        return self.low + (self.high - self.low) * rng.random()


class LogNormalLatency(LatencyModel):
    """Heavy-tailed latency, the classic WAN approximation.

    ``median`` is the median latency; ``sigma`` controls tail weight.
    """

    def __init__(self, median: float = 0.02, sigma: float = 0.5, cap: float = 2.0) -> None:
        if median <= 0 or sigma < 0 or cap <= 0:
            raise ConfigurationError("median/cap must be positive and sigma non-negative")
        self._mu = math.log(median)
        self.sigma = sigma
        self.cap = cap

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return min(rng.lognormvariate(self._mu, self.sigma), self.cap)


class Tap:
    """One observer of a :class:`Network`'s wire; override what you need.

    Taps are attached to one network *instance* with
    :meth:`Network.add_tap` before it carries traffic and are called in
    attachment order. They must be trajectory-neutral: no RNG draws, no
    scheduled events, no mutation of the message or the network.
    """

    def on_send(self, network: "Network", src: int, dst: int, msg: Any) -> Any:
        """``msg`` was put on the wire. The return value travels in the
        delivery event and comes back as ``token`` in :meth:`on_deliver`."""
        return None

    def on_drop(self, network: "Network", src: int, dst: int, msg: Any, cause: str) -> None:
        """``msg`` was dropped at send; ``cause`` is ``"partition"`` or
        ``"loss"``."""

    def on_deliver(
        self, network: "Network", src: int, dst: int, msg: Any, token: Any, sent_at: float
    ) -> Optional[Callable[[], None]]:
        """``msg`` arrived, before the destination is looked up (it may
        be dead by now). A returned callable runs once the receiving
        handler has returned."""
        return None


class Network:
    """Message router between simulated nodes.

    Nodes register a delivery callback; :meth:`send` schedules delivery
    through the shared :class:`~repro.sim.scheduler.Scheduler`.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        rng: random.Random,
        metrics: MetricsRegistry,
        latency_model: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ConfigurationError("loss_rate must be in [0, 1)")
        self.scheduler = scheduler
        self.rng = rng
        self.metrics = metrics
        self.latency_model = latency_model or FixedLatency()
        self.loss_rate = loss_rate
        self._delivery: Dict[int, Callable[[Any, int], None]] = {}
        # The two fault tables, keyed by the id their mutator returned.
        # Directed cuts: rule id -> (src set, dst set). Degradation
        # layers: token -> (member set, or None for every link; loss;
        # extra latency).
        self._cuts: Dict[int, Tuple[FrozenSet[int], FrozenSet[int]]] = {}
        self._layers: Dict[int, Tuple[Optional[FrozenSet[int]], float, float]] = {}
        self._next_id = 0
        # True while both tables are empty; every fault mutator
        # recomputes it via _refresh_fast_path.
        self._fault_free = True
        # Interned per-message-type counter state:
        # type -> (kind, sent slots, received slots, partition-drop key,
        # loss-drop key). Built once per type, reused for every send.
        self._type_cache: Dict[type, Tuple[str, Dict, Dict, str, str]] = {}
        self._sent_slots = metrics.counter("msg.sent")
        self._recv_slots = metrics.counter("msg.received")
        # The observers of this network's wire, in call order. Empty
        # (the default): the send path pays one truth test.
        self.taps: Tuple[Tap, ...] = ()

    def _intern_type(self, msg_type: type) -> Tuple[str, Dict, Dict, str, str]:
        kind = msg_type.__name__
        entry = (
            kind,
            self.metrics.counter(f"msg.sent.{kind}"),
            self.metrics.counter(f"msg.received.{kind}"),
            f"msg.dropped.partition.{kind}",
            f"msg.dropped.loss.{kind}",
        )
        self._type_cache[msg_type] = entry
        return entry

    def _refresh_fast_path(self) -> None:
        self._fault_free = not (self._cuts or self._layers)

    def add_tap(self, tap: Tap) -> None:
        """Attach ``tap`` after the ones already there. Attach before the
        first send: a message already in flight is delivered the way it
        was sent."""
        self.taps += (tap,)

    # ---------------------------------------------------------- membership

    def register(self, node_id: int, deliver: Callable[[Any, int], None]) -> None:
        """Attach a node's delivery callback. Re-registering replaces it."""
        self._delivery[node_id] = deliver

    def unregister(self, node_id: int) -> None:
        """Detach a node; in-flight messages to it will be dropped."""
        self._delivery.pop(node_id, None)

    def is_registered(self, node_id: int) -> bool:
        return node_id in self._delivery

    @property
    def registered_ids(self) -> List[int]:
        return list(self._delivery)

    # -------------------------------------------------------------- faults

    def block(self, src_ids: Iterable[int], dst_ids: Iterable[int]) -> int:
        """Add a directed cut: messages from ``src_ids`` to ``dst_ids``
        are dropped (counted as partition drops).

        Returns a rule id for :meth:`unblock`. Cuts compose: an
        asymmetric partition is one cut, a symmetric one is two.
        """
        rule_id = self._next_id
        self._next_id += 1
        self._cuts[rule_id] = (frozenset(src_ids), frozenset(dst_ids))
        self._refresh_fast_path()
        return rule_id

    def unblock(self, rule_id: int) -> None:
        """Remove one directed cut (idempotent)."""
        self._cuts.pop(rule_id, None)
        self._refresh_fast_path()

    def add_conditions(
        self, node_ids: Optional[Iterable[int]], loss: float = 0.0, extra_latency: float = 0.0
    ) -> int:
        """Add one degradation *layer*: every link touching a member of
        ``node_ids`` — every link at all when it is ``None`` — gets the
        extra independent drop chance and the added one-way latency.

        Layers stack and are removed by the returned token, so
        overlapping faults whose victim sets intersect compose instead
        of clobbering each other.
        """
        if not 0.0 <= loss <= 1.0:
            raise ConfigurationError("condition loss must be in [0, 1]")
        if extra_latency < 0:
            raise ConfigurationError("extra latency must be non-negative")
        token = self._next_id
        self._next_id += 1
        members = None if node_ids is None else frozenset(node_ids)
        self._layers[token] = (members, loss, extra_latency)
        self._refresh_fast_path()
        return token

    def remove_conditions(self, token: int) -> None:
        """Remove one degradation layer (idempotent)."""
        self._layers.pop(token, None)
        self._refresh_fast_path()

    def _crosses_partition(self, src: int, dst: int) -> bool:
        for src_ids, dst_ids in self._cuts.values():
            if src in src_ids and dst in dst_ids:
                return True
        return False

    def _loss_for(self, src: int, dst: int) -> float:
        """Effective drop probability for one message on ``src -> dst``:
        every layer that covers the link is an independent Bernoulli drop.

        Composed in place (``keep *= 1 - p_i``) — no intermediate list,
        this runs per message whenever any fault machinery is active.
        Layers over every link multiply first, then member layers, each
        in the order they were opened: a float product of three or more
        factors depends on its order. When every covering layer is
        zero-impact, ``keep`` stays exactly 1.0 and the base
        ``loss_rate`` is returned bit-for-bit, so the slow path's drop
        threshold equals the fast path's (the fast/slow-equivalence
        contract)."""
        keep = 1.0
        layers = self._layers
        if layers:
            for members, layer_loss, _ in layers.values():
                if members is None:
                    keep *= 1.0 - layer_loss
            for members, layer_loss, _ in layers.values():
                if members is not None and (src in members or dst in members):
                    keep *= 1.0 - layer_loss
        if keep == 1.0:
            return self.loss_rate
        return 1.0 - (1.0 - self.loss_rate) * keep

    def _extra_latency_for(self, src: int, dst: int) -> float:
        extra = 0.0
        for members, _, layer_latency in self._layers.values():
            if members is None or src in members or dst in members:
                extra += layer_latency
        return extra

    # -------------------------------------------------------------- sending

    def send(self, src: int, dst: int, msg: Any) -> bool:
        """Send ``msg`` from ``src`` to ``dst``.

        Returns ``True`` if the message was put on the wire (it may still be
        lost or find the destination dead on arrival); ``False`` if it was
        dropped immediately (self-send of network messages is allowed and
        delivered with normal latency).

        Ownership contract: once ``send`` accepts a message, the payload
        belongs to the network until delivery — the sender must not
        mutate it (messages are frozen dataclasses by convention, and
        payload fields should be snapshotted tuples).
        :class:`repro.lint.isolation.IsolationTap`
        (``scenarios run --isolation-check``) enforces it at run time by
        digesting the payload here and re-verifying it at delivery.
        """
        entry = self._type_cache.get(type(msg))
        if entry is None:
            entry = self._intern_type(type(msg))
        sent = self._sent_slots
        sent[src] = sent.get(src, 0.0) + 1.0
        sent_kind = entry[1]
        sent_kind[None] = sent_kind.get(None, 0.0) + 1.0
        taps = self.taps
        fault_free = self._fault_free
        rng = self.rng
        if fault_free:
            loss = self.loss_rate
        else:
            if self._crosses_partition(src, dst):
                self.metrics.inc("msg.dropped.partition")
                self.metrics.inc(entry[3])
                for tap in taps:
                    tap.on_drop(self, src, dst, msg, "partition")
                return False
            loss = self._loss_for(src, dst)
        if loss > 0.0 and rng.random() < loss:
            self.metrics.inc("msg.dropped.loss")
            self.metrics.inc(entry[4])
            for tap in taps:
                tap.on_drop(self, src, dst, msg, "loss")
            return False
        latency = self.latency_model.sample(rng, src, dst)
        if not fault_free:
            latency += self._extra_latency_for(src, dst)
        if not taps:
            self.scheduler.schedule(latency, self._deliver, src, dst, msg, entry[2])
        else:
            # A plain loop: on CPython 3.11 a comprehension is a call.
            tokens = []
            for tap in taps:
                tokens.append(tap.on_send(self, src, dst, msg))
            self.scheduler.schedule(
                latency, self._deliver_traced, src, dst, msg, entry[2],
                tokens, self.scheduler.now,
            )
        return True

    def multicast(self, src: int, dsts: Collection[int], msg: Any) -> None:
        """Exactly ``for dst in dsts: self.send(src, dst, msg)`` — same
        counters, same RNG draws in ``dsts`` order, same ``(time, seq)``
        for every delivery.

        A fan-out of one message is the store's unit of work (infect-
        and-die relays, Section IV-B), so when nothing can tell the
        messages apart — no fault machinery armed, no loss, no tap,
        :meth:`send` neither overridden in a subclass nor shadowed on
        the instance — the per-message bookkeeping is paid once: one
        type lookup, one ``+k`` per counter (exact: the slots hold
        integer-valued floats), one handle-free batch push. In every
        other case this *is* the loop over ``self.send``, so taps,
        wrappers and the fault path see every message.
        """
        if not dsts:
            return
        # One look at ``self.send`` answers for the class and the instance
        # (a shadowing plain function has no ``__func__``). Not
        # ``self.__dict__``: asking for it makes CPython 3.11 move the
        # instance's attributes into a real dict, and every later
        # ``self.x`` on the message path pays for that.
        send = self.send
        if (
            not self._fault_free
            or self.loss_rate > 0.0
            or self.taps
            or getattr(send, "__func__", None) is not _STOCK_SEND
        ):
            for dst in dsts:
                send(src, dst, msg)
            return
        entry = self._type_cache.get(type(msg))
        if entry is None:
            entry = self._intern_type(type(msg))
        k = len(dsts)
        sent = self._sent_slots
        sent[src] = sent.get(src, 0.0) + k
        sent_kind = entry[1]
        sent_kind[None] = sent_kind.get(None, 0.0) + k
        sample = self.latency_model.sample
        rng = self.rng
        received_kind = entry[2]
        self.scheduler.post_many(
            self._deliver,
            [(sample(rng, src, dst), (src, dst, msg, received_kind)) for dst in dsts],
        )

    def _deliver_traced(
        self, src: int, dst: int, msg: Any, received_kind: Dict,
        tokens: List[Any], sent_at: float,
    ) -> None:
        """Delivery on a tapped network: every tap sees the arrival with
        the token its ``on_send`` returned, the normal delivery runs,
        then whatever the taps asked to run after the handler."""
        after = []
        for tap, token in zip(self.taps, tokens):
            done = tap.on_deliver(self, src, dst, msg, token, sent_at)
            if done is not None:
                after.append(done)
        try:
            self._deliver(src, dst, msg, received_kind)
        finally:
            while after:
                after.pop()()

    def _deliver(self, src: int, dst: int, msg: Any, received_kind: Dict) -> None:
        # ``received_kind`` is the per-type received-counter slots dict from
        # the sender's interned entry — passed through the event so delivery
        # pays no type lookup.
        deliver = self._delivery.get(dst)
        if deliver is None:
            # Destination died (or never existed) while the message was in
            # flight — epidemic protocols tolerate this silently.
            self.metrics.inc("msg.dropped.dead")
            return
        received = self._recv_slots
        received[dst] = received.get(dst, 0.0) + 1.0
        received_kind[None] = received_kind.get(None, 0.0) + 1.0
        deliver(msg, src)


# What :meth:`Network.multicast` compares ``send`` against: a subclass
# override or an instance-level wrapper must see every message.
_STOCK_SEND = Network.send

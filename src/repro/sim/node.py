"""Node and service framework.

A :class:`Node` is a simulated process with an id, a mailbox (the network
calls :meth:`Node.deliver`), and a set of attached :class:`Service`
instances. Services register handlers for message *types* (classes) and
periodic timers; this mirrors the paper's architecture where each
DATAFLASKS host runs four cooperating services (Slice Manager, Peer
Sampling, Load Balancer support, Request Handler) on one process.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Collection, Dict, List, Optional, Type

from repro.errors import SimulationError
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network
from repro.sim.scheduler import Event, Scheduler

__all__ = ["SimContext", "Node", "Service", "PeriodicTask"]


class SimContext:
    """Shared simulation environment handed to every node.

    Bundles the scheduler, network, metrics registry and RNG registry so
    that constructing a node needs a single argument.
    """

    def __init__(self, scheduler: Scheduler, network: Network, metrics: MetricsRegistry, rng_registry) -> None:
        self.scheduler = scheduler
        self.network = network
        self.metrics = metrics
        self.rng_registry = rng_registry

    @property
    def now(self) -> float:
        return self.scheduler.now

    def rng(self, name: str) -> random.Random:
        return self.rng_registry.stream(name)


class PeriodicTask:
    """A repeating timer with optional uniform jitter.

    The first firing happens after one (jittered) period, mimicking a
    protocol whose rounds start after the node boots. Call :meth:`stop`
    to cancel; stopping is idempotent and safe from inside the callback.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        period: float,
        fn: Callable[[], None],
        jitter: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if period <= 0:
            raise SimulationError("period must be positive")
        if jitter < 0 or jitter >= period:
            raise SimulationError("jitter must be in [0, period)")
        self._scheduler = scheduler
        self.period = period
        self.jitter = jitter
        self._fn = fn
        self._rng = rng or random.Random(0)
        self._event: Optional[Event] = None
        self._stopped = False
        self._schedule_next()

    def _delay(self) -> float:
        if self.jitter:
            return self.period + self._rng.uniform(-self.jitter, self.jitter)
        return self.period

    def _schedule_next(self) -> None:
        if self._stopped:
            return
        self._event = self._scheduler.schedule(self._delay(), self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        try:
            self._fn()
        finally:
            self._schedule_next()

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def running(self) -> bool:
        return not self._stopped


class Service:
    """Base class for protocol services attached to a node.

    Subclasses override :meth:`start` (register handlers/timers) and
    optionally :meth:`stop` (cancel timers). ``self.node`` is available
    after :meth:`attach`.
    """

    name = "service"

    def __init__(self) -> None:
        self.node: Optional["Node"] = None

    def attach(self, node: "Node") -> None:
        self.node = node

    def start(self) -> None:
        """Called when the owning node starts."""

    def stop(self) -> None:
        """Called when the owning node stops/crashes."""


class Node:
    """A simulated process: id + message dispatch + timers + services."""

    def __init__(self, node_id: int, ctx: SimContext) -> None:
        self.id = node_id
        self.ctx = ctx
        # Plain attributes, not properties over ``ctx``: every message
        # reads ``network`` and ``metrics`` at least once.
        self.scheduler: Scheduler = ctx.scheduler
        self.network: Network = ctx.network
        self.metrics: MetricsRegistry = ctx.metrics
        self.alive = False
        self.started_at: Optional[float] = None
        self._handlers: Dict[Type[Any], Callable[[Any, int], None]] = {}
        self._timers: List[PeriodicTask] = []
        self._services: List[Service] = []
        self._service_of: Dict[Type[Service], Service] = {}  # get_service memo
        # Interned per-type dead-letter counter slots, mirroring the
        # Network's per-type send/receive cache: type -> live inner dict
        # of `msg.unhandled.<Type>` (built on first dead-letter of that
        # type, reused for every later one).
        self._unhandled_slots: Dict[Type[Any], Dict[Optional[int], float]] = {}
        self.rng = ctx.rng(f"node.{node_id}")

    @property
    def now(self) -> float:
        return self.scheduler.now

    # ------------------------------------------------------------ services

    def add_service(self, service: Service) -> Service:
        """Attach a service; it starts when the node starts."""
        service.attach(self)
        self._services.append(service)
        if self.alive:
            service.start()
        return service

    def get_service(self, cls: Type[Service]) -> Optional[Service]:
        """First attached service that is an instance of ``cls``.

        Hits are remembered (protocols ask per message): services are
        only ever appended, so the first match can never change. Misses
        are not — the service may be attached later.
        """
        service = self._service_of.get(cls)
        if service is None:
            for candidate in self._services:
                if isinstance(candidate, cls):
                    service = self._service_of[cls] = candidate
                    break
        return service

    @property
    def services(self) -> List[Service]:
        return list(self._services)

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Boot the node: register with the network, start services."""
        if self.alive:
            return
        self.alive = True
        self.started_at = self.now
        self.network.register(self.id, self.deliver)
        for service in self._services:
            service.start()
        self.on_start()

    def stop(self) -> None:
        """Cleanly stop the node (timers cancelled, network detached)."""
        if not self.alive:
            return
        self.alive = False
        for service in self._services:
            service.stop()
        for timer in self._timers:
            timer.stop()
        self._timers.clear()
        self.network.unregister(self.id)
        self.on_stop()

    def crash(self) -> None:
        """Fail-stop: identical to :meth:`stop` but kept distinct for
        readability of churn code and for subclass hooks (a crash must not
        flush state, for example)."""
        self.stop()

    def on_start(self) -> None:
        """Subclass hook, runs after services start."""

    def on_stop(self) -> None:
        """Subclass hook, runs after services stop."""

    # ------------------------------------------------------------ messaging

    def register_handler(self, msg_cls: Type[Any], fn: Callable[[Any, int], None]) -> None:
        """Route messages of ``msg_cls`` (exact type) to ``fn(msg, src)``."""
        if msg_cls in self._handlers:
            raise SimulationError(
                f"node {self.id}: handler for {msg_cls.__name__} already registered"
            )
        self._handlers[msg_cls] = fn

    def unregister_handler(self, msg_cls: Type[Any]) -> None:
        self._handlers.pop(msg_cls, None)

    def deliver(self, msg: Any, src: int) -> None:
        """Network entry point; dispatches by exact message type.

        A message with no handler dead-letters into a per-type counter
        (``msg.unhandled.<Type>``), so a scenario report names *which*
        protocol's messages went unheard instead of one opaque total.
        """
        if not self.alive:
            return
        handler = self._handlers.get(type(msg))
        if handler is None:
            slots = self._unhandled_slots.get(type(msg))
            if slots is None:
                slots = self._unhandled_slots[type(msg)] = self.metrics.counter(
                    f"msg.unhandled.{type(msg).__name__}"
                )
            slots[None] = slots.get(None, 0.0) + 1.0
            return
        handler(msg, src)

    def send(self, dst: int, msg: Any) -> bool:
        """Send ``msg`` to node ``dst``; drops silently if this node is dead."""
        if not self.alive:
            return False
        return self.network.send(self.id, dst, msg)

    def multicast(self, dsts: Collection[int], msg: Any) -> None:
        """``send(dst, msg)`` for every ``dst`` of ``dsts``, in order."""
        if self.alive:
            self.network.multicast(self.id, dsts, msg)

    # -------------------------------------------------------------- timers

    def every(
        self,
        period: float,
        fn: Callable[[], None],
        jitter: Optional[float] = None,
    ) -> PeriodicTask:
        """Run ``fn`` every ``period`` seconds while the node is alive.

        ``jitter`` defaults to 10% of the period, desynchronising protocol
        rounds across nodes the way real deployments are desynchronised.
        """
        if jitter is None:
            jitter = 0.1 * period
        task = PeriodicTask(self.scheduler, period, fn, jitter=jitter, rng=self.rng)
        self._timers.append(task)
        return task

    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """One-shot timer; silently skipped if the node is dead by then."""

        def guarded(*inner: Any) -> None:
            if self.alive:
                fn(*inner)

        return self.scheduler.schedule(delay, guarded, *args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"<{type(self).__name__} id={self.id} {state}>"

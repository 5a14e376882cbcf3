"""Unit tests for the simulated network."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import (
    FixedLatency,
    LogNormalLatency,
    Network,
    UniformLatency,
)
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler


class Probe:
    """A message type used by the tests."""

    def __init__(self, body="x"):
        self.body = body


def make_network(**kwargs):
    sched = Scheduler()
    metrics = MetricsRegistry()
    rng = RngRegistry(seed=1).stream("net")
    return Network(sched, rng, metrics, **kwargs), sched, metrics


def test_delivery_with_fixed_latency():
    net, sched, _ = make_network(latency_model=FixedLatency(0.25))
    inbox = []
    net.register(2, lambda msg, src: inbox.append((msg.body, src, sched.now)))
    net.send(1, 2, Probe("hello"))
    sched.run()
    assert inbox == [("hello", 1, 0.25)]


def test_message_to_unregistered_node_is_dropped():
    net, sched, metrics = make_network()
    assert net.send(1, 99, Probe()) is True  # on the wire
    sched.run()
    assert metrics.total("msg.dropped.dead") == 1


def test_unregister_drops_in_flight_messages():
    net, sched, metrics = make_network(latency_model=FixedLatency(1.0))
    inbox = []
    net.register(2, lambda msg, src: inbox.append(msg))
    net.send(1, 2, Probe())
    net.unregister(2)
    sched.run()
    assert inbox == []
    assert metrics.total("msg.dropped.dead") == 1


def test_send_and_receive_counters():
    net, sched, metrics = make_network()
    net.register(2, lambda msg, src: None)
    net.send(1, 2, Probe())
    sched.run()
    assert metrics.get("msg.sent", node=1) == 1
    assert metrics.get("msg.received", node=2) == 1
    assert metrics.total("msg.sent.Probe") == 1
    assert metrics.total("msg.received.Probe") == 1


def test_loss_rate_drops_messages():
    net, sched, metrics = make_network(loss_rate=0.5)
    received = []
    net.register(2, lambda msg, src: received.append(msg))
    for _ in range(200):
        net.send(1, 2, Probe())
    sched.run()
    dropped = metrics.total("msg.dropped.loss")
    assert dropped > 0
    assert len(received) + dropped == 200
    # Bernoulli(0.5) over 200 trials: overwhelmingly inside [60, 140].
    assert 60 <= dropped <= 140


def test_invalid_loss_rate_rejected():
    with pytest.raises(ConfigurationError):
        make_network(loss_rate=1.0)


def cut_between(net, a, b):
    """A symmetric partition: one directed cut each way."""
    return [net.block(a, b), net.block(b, a)]


def test_partition_blocks_cross_group_traffic():
    net, sched, metrics = make_network()
    inbox = []
    for node_id in (1, 2, 3):
        net.register(node_id, lambda msg, src: inbox.append(src))
    cut_between(net, [1], [2, 3])
    assert net.send(1, 2, Probe()) is False
    assert net.send(2, 3, Probe()) is True
    sched.run()
    assert inbox == [2]
    assert metrics.total("msg.dropped.partition") == 1


def test_heal_partitions_restores_connectivity():
    net, sched, _ = make_network()
    inbox = []
    net.register(1, lambda msg, src: inbox.append(src))
    net.register(2, lambda msg, src: inbox.append(src))
    for rule in cut_between(net, [1], [2]):
        net.unblock(rule)
    net.send(1, 2, Probe())
    sched.run()
    assert inbox == [1]


def test_unmentioned_nodes_form_implicit_group():
    # Nodes no cut names stay connected to each other.
    net, sched, _ = make_network()
    inbox = []
    for node_id in (1, 2, 3):
        net.register(node_id, lambda msg, src: inbox.append(src))
    cut_between(net, [1], [2])
    net.send(2, 3, Probe())
    net.send(3, 1, Probe())
    assert net.send(1, 2, Probe()) is False
    sched.run()
    assert inbox == [2, 3]


def test_self_send_is_delivered():
    net, sched, _ = make_network()
    inbox = []
    net.register(1, lambda msg, src: inbox.append(src))
    net.send(1, 1, Probe())
    sched.run()
    assert inbox == [1]


def test_registered_ids():
    net, _, _ = make_network()
    net.register(5, lambda m, s: None)
    net.register(6, lambda m, s: None)
    assert sorted(net.registered_ids) == [5, 6]
    assert net.is_registered(5)
    net.unregister(5)
    assert not net.is_registered(5)


class TestDirectedBlocks:
    def test_block_is_directional(self):
        net, sched, metrics = make_network()
        inbox = []
        net.register(1, lambda msg, src: inbox.append(src))
        net.register(2, lambda msg, src: inbox.append(src))
        rule = net.block([1], [2])
        assert net.send(1, 2, Probe()) is False
        assert net.send(2, 1, Probe()) is True
        sched.run()
        assert inbox == [2]
        assert metrics.total("msg.dropped.partition") == 1
        net.unblock(rule)
        assert net.send(1, 2, Probe()) is True

    def test_unblock_is_idempotent(self):
        net, _, _ = make_network()
        rule = net.block([1], [2])
        net.unblock(rule)
        net.unblock(rule)
        assert net.send(1, 2, Probe()) is True

    def test_rules_compose_with_partition_groups(self):
        net, _, _ = make_network()
        cut_between(net, [1], [2, 3])
        net.block([2], [3])
        assert net.send(1, 2, Probe()) is False  # group cut
        assert net.send(2, 3, Probe()) is False  # directed rule
        assert net.send(3, 2, Probe()) is True  # other direction open

    def test_heal_partitions_clears_groups_and_blocks(self):
        net, sched, metrics = make_network()
        inbox = []
        for node_id in (1, 2):
            net.register(node_id, lambda msg, src: inbox.append(src))
        rules = cut_between(net, [1], [2]) + [net.block([2], [1])]
        net.send(1, 2, Probe())
        net.send(2, 1, Probe())
        assert metrics.total("msg.dropped.partition") == 2
        for rule in rules:
            net.unblock(rule)
        # Post-heal delivery: both directions flow again.
        net.send(1, 2, Probe())
        net.send(2, 1, Probe())
        sched.run()
        assert sorted(inbox) == [1, 2]
        assert metrics.total("msg.dropped.partition") == 2  # no new drops
        assert net._fault_free


class TestPerTypeDropAccounting:
    def test_partition_drops_are_counted_per_type(self):
        net, _, metrics = make_network()
        net.block([1], [2])
        net.send(1, 2, Probe())
        assert metrics.total("msg.dropped.partition.Probe") == 1
        assert metrics.total("msg.dropped.partition") == 1

    def test_loss_drops_are_counted_per_type(self):
        net, _, metrics = make_network(loss_rate=0.5)
        for _ in range(100):
            net.send(1, 2, Probe())
        dropped = metrics.total("msg.dropped.loss")
        assert dropped > 0
        assert metrics.total("msg.dropped.loss.Probe") == dropped


class TestLinkConditions:
    def test_node_loss_combines_with_global_loss(self):
        net, _, _ = make_network(loss_rate=0.1)
        net.add_conditions([2], loss=0.5)
        assert net._loss_for(1, 3) == pytest.approx(0.1)
        assert net._loss_for(1, 2) == pytest.approx(1 - 0.9 * 0.5)
        assert net._loss_for(2, 1) == pytest.approx(1 - 0.9 * 0.5)

    def test_extra_latency_sums_over_conditions(self):
        net, sched, _ = make_network(latency_model=FixedLatency(0.1))
        net.add_conditions([1], extra_latency=0.2)
        net.add_conditions([2], extra_latency=0.3)
        net.add_conditions([1, 2], extra_latency=0.4)
        net.add_conditions([3], extra_latency=5.0)  # touches neither end
        arrivals = []
        net.register(2, lambda msg, src: arrivals.append(sched.now))
        net.send(1, 2, Probe())
        sched.run()
        assert arrivals == [pytest.approx(1.0)]

    def test_zero_conditions_clear_the_entry(self):
        net, _, _ = make_network(loss_rate=0.1)
        token = net.add_conditions([1])
        assert net._loss_for(1, 2) == 0.1  # the base rate, bit for bit
        assert net._extra_latency_for(1, 2) == 0.0
        net.remove_conditions(token)
        assert net._layers == {} and net._fault_free

    def test_clear_conditions_removes_everything(self):
        net, _, _ = make_network()
        tokens = [
            net.add_conditions([1], loss=0.5, extra_latency=0.1),
            net.add_conditions([2, 3], loss=0.5),
            net.add_conditions(None, loss=0.3),
        ]
        for token in tokens:
            net.remove_conditions(token)
        assert net._loss_for(1, 2) == 0.0
        assert net._loss_for(2, 3) == 0.0
        assert net._extra_latency_for(1, 2) == 0.0
        assert net._fault_free

    def test_burst_loss_window(self):
        net, _, metrics = make_network()
        token = net.add_conditions(None, loss=1.0)
        assert net.send(1, 2, Probe()) is False
        assert metrics.total("msg.dropped.loss") == 1
        net.remove_conditions(token)
        assert net.send(1, 2, Probe()) is True

    def test_overlapping_burst_windows_stack(self):
        net, _, _ = make_network()
        first = net.add_conditions(None, loss=0.5)
        second = net.add_conditions(None, loss=0.5)
        assert net._loss_for(1, 2) == pytest.approx(0.75)
        net.remove_conditions(first)
        # The second window survives the first one's heal.
        assert net._loss_for(1, 2) == pytest.approx(0.5)
        net.remove_conditions(second)
        assert net._loss_for(1, 2) == 0.0

    def test_condition_layers_compose_on_shared_victims(self):
        net, _, _ = make_network()
        first = net.add_conditions([1, 2], loss=0.5, extra_latency=0.1)
        second = net.add_conditions([2, 3], loss=0.5, extra_latency=0.2)
        assert net._loss_for(2, 9) == pytest.approx(0.75)  # both layers
        assert net._extra_latency_for(2, 9) == pytest.approx(0.3)
        net.remove_conditions(first)
        # Node 2 stays degraded by the still-open second layer.
        assert net._loss_for(2, 9) == pytest.approx(0.5)
        assert net._extra_latency_for(2, 9) == pytest.approx(0.2)
        net.remove_conditions(second)
        assert net._loss_for(2, 9) == 0.0

    def test_invalid_conditions_rejected(self):
        net, _, _ = make_network()
        with pytest.raises(ConfigurationError):
            net.add_conditions([1], loss=1.5)
        with pytest.raises(ConfigurationError):
            net.add_conditions([1, 2], extra_latency=-0.1)
        with pytest.raises(ConfigurationError):
            net.add_conditions(None, loss=2.0)
        with pytest.raises(ConfigurationError):
            net.add_conditions([1], loss=-0.5)
        assert net._fault_free  # a rejected layer leaves nothing behind

    def test_global_layers_multiply_before_member_layers(self):
        # A float product of three factors depends on its order: layers
        # over every link go first, then member layers, each in the order
        # they were opened, whatever order the two kinds interleave in.
        net, _, _ = make_network()
        net.add_conditions([1], loss=0.13)
        net.add_conditions(None, loss=0.85)
        net.add_conditions([1], loss=0.76)
        net.add_conditions(None, loss=0.26)
        keep = (1.0 - 0.85) * (1.0 - 0.26) * (1.0 - 0.13) * (1.0 - 0.76)
        interleaved = (1.0 - 0.13) * (1.0 - 0.85) * (1.0 - 0.76) * (1.0 - 0.26)
        assert keep != interleaved  # the two orders round differently
        assert net._loss_for(1, 2) == 1.0 - keep
        assert net._loss_for(2, 3) == 1.0 - (1.0 - 0.85) * (1.0 - 0.26)


class TestFastSlowPathEquivalence:
    """The fast path (no fault machinery) must be a pure optimisation:
    identical drop/latency decisions *and* identical RNG stream
    consumption to the slow path with only zero-impact layers active."""

    @staticmethod
    def _traffic(net, sched, n_nodes=6, n_msgs=400):
        """Drive a deterministic message pattern; returns the observable
        outcome: per-send verdicts, arrival (time, src, dst) triples, and
        the network RNG state afterwards."""
        arrivals = []
        for node_id in range(n_nodes):
            net.register(
                node_id,
                lambda msg, src, _dst=node_id: arrivals.append((sched.now, src, _dst)),
            )
        verdicts = []
        for i in range(n_msgs):
            src = i % n_nodes
            dst = (i * 7 + 3) % n_nodes
            verdicts.append(net.send(src, dst, Probe(str(i))))
        sched.run()
        return verdicts, arrivals, net.rng.getstate()

    @pytest.mark.parametrize("loss_rate", [0.0, 0.3])
    def test_zero_impact_layers_change_nothing(self, loss_rate):
        fast, fast_sched, fast_metrics = make_network(
            latency_model=UniformLatency(0.01, 0.05), loss_rate=loss_rate
        )
        slow, slow_sched, slow_metrics = make_network(
            latency_model=UniformLatency(0.01, 0.05), loss_rate=loss_rate
        )
        # Arm every kind of fault machinery at zero impact: the slow path
        # runs its partition/condition lookups but must decide identically.
        slow.add_conditions([0, 1, 2], loss=0.0, extra_latency=0.0)
        slow.add_conditions(None, loss=0.0)
        slow.block([], [])
        assert fast._fault_free is True
        assert slow._fault_free is False

        fast_out = self._traffic(fast, fast_sched)
        slow_out = self._traffic(slow, slow_sched)
        assert fast_out[0] == slow_out[0]  # same per-send verdicts
        assert fast_out[1] == slow_out[1]  # same arrival times, exactly
        assert fast_out[2] == slow_out[2]  # same RNG stream consumption
        for name in ("msg.sent", "msg.received", "msg.dropped.loss"):
            assert fast_metrics.total(name) == slow_metrics.total(name)

    def test_fast_path_reengages_after_heal(self):
        net, _, _ = make_network()
        assert net._fault_free is True
        token = net.add_conditions([1], loss=0.5)
        rules = cut_between(net, [1], [2])
        rule = net.block([1], [2])
        burst = net.add_conditions(None, loss=0.2)
        assert net._fault_free is False
        net.remove_conditions(token)
        for each in rules:
            net.unblock(each)
        net.unblock(rule)
        assert net._fault_free is False  # the burst is still open
        net.remove_conditions(burst)
        assert net._fault_free is True

    def test_counters_match_pre_overhaul_semantics(self):
        # Interned keys and cached slots must land in the same counters
        # the f-string path used.
        net, sched, metrics = make_network()
        net.register(2, lambda msg, src: None)
        net.send(1, 2, Probe())
        net.send(1, 2, Probe())
        sched.run()
        assert metrics.get("msg.sent", node=1) == 2
        assert metrics.get("msg.received", node=2) == 2
        assert metrics.total("msg.sent.Probe") == 2
        assert metrics.total("msg.received.Probe") == 2


class TestLatencyModels:
    def test_fixed_constant(self):
        model = FixedLatency(0.1)
        rng = RngRegistry(0).stream("x")
        assert model.sample(rng, 1, 2) == 0.1

    def test_fixed_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            FixedLatency(-0.1)

    def test_uniform_within_bounds(self):
        model = UniformLatency(0.01, 0.05)
        rng = RngRegistry(0).stream("x")
        for _ in range(100):
            assert 0.01 <= model.sample(rng, 1, 2) <= 0.05

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(0.5, 0.1)

    def test_lognormal_positive_and_capped(self):
        model = LogNormalLatency(median=0.02, sigma=1.0, cap=0.5)
        rng = RngRegistry(0).stream("x")
        samples = [model.sample(rng, 1, 2) for _ in range(200)]
        assert all(0 < s <= 0.5 for s in samples)

    def test_lognormal_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            LogNormalLatency(median=0.0)

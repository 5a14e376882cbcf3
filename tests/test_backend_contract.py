"""The backend contract: one behavioural suite, every registered backend.

Anything registered with :func:`repro.backends.register_backend` is
automatically parametrized through the full experiment-pipeline surface:
deploy, convergence, put/get round-trips, replication reporting, churn
kill/recover, fault scheduling, and deterministic same-seed replay.
Adding a backend means passing this file — no other test changes."""

import os
import subprocess
import sys

import pytest

import repro
from repro.backends import (
    BackendRegistry,
    OracleCluster,
    StoreBackend,
    get_backend,
    list_backends,
    register_backend,
)
from repro.core.client import FAILED
from repro.core.cluster import DataFlasksCluster
from repro.dht.cluster import DhtCluster
from repro.droplets import DropletsSession
from repro.errors import ConfigurationError
from repro.scenarios.spec import FaultSpec, ScenarioSpec, WorkloadSpec
from repro.scenarios.runner import run_scenario
from repro.sim.simulator import Simulation

EXPECTED_BUILTINS = {"core", "dht", "oracle"}
STACK_CLASSES = {"core": DataFlasksCluster, "dht": DhtCluster, "oracle": OracleCluster}


def contract_spec(stack: str, **overrides) -> ScenarioSpec:
    """A small, fast spec for ``stack`` (generous warmup so every stack
    converges well inside the budget)."""
    defaults = dict(
        name=f"contract-{stack}",
        stack=stack,
        nodes=24,
        num_slices=3,
        replication=3,
        warmup=10.0,
        settle=6.0,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def deployed(stack: str, seed: int = 3):
    spec = contract_spec(stack)
    backend = get_backend(stack).deploy(spec, Simulation(seed=seed))
    assert backend.converge(spec), f"{stack} did not converge"
    return spec, backend


# ---------------------------------------------------------------- registry


class TestRegistry:
    def test_builtins_registered(self):
        assert EXPECTED_BUILTINS <= set(list_backends())

    def test_lookup_returns_backend_class(self):
        for name in list_backends():
            cls = get_backend(name)
            assert issubclass(cls, StoreBackend)
            assert cls.name == name
            assert cls.description

    def test_lookup_returns_the_deployment_class_itself(self):
        # No adapter layer: the registered class is the facade, and a
        # directly constructed deployment is a StoreBackend.
        for name, cls in STACK_CLASSES.items():
            assert get_backend(name) is cls
            deployment = cls(n=3)
            assert isinstance(deployment, StoreBackend)
            assert not hasattr(deployment, "cluster")

    @pytest.mark.parametrize(
        "first",
        ["repro.backends", "repro.core.cluster", "repro.dht.cluster", "repro.backends.oracle"],
    )
    def test_any_stack_module_imported_first_registers_all_three(self, first):
        code = (
            f"import {first}\n"
            "from repro.backends.registry import REGISTRY\n"
            "print(','.join(f'{n}={c.__name__}' for n, c in REGISTRY.items()))\n"
        )
        src = os.path.dirname(repro.__path__[0])
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "core=DataFlasksCluster,dht=DhtCluster,oracle=OracleCluster"

    def test_unknown_backend_error_lists_registered(self):
        with pytest.raises(ConfigurationError, match="registered backends"):
            get_backend("no-such-stack")

    def test_spec_rejects_unknown_stack_with_catalogue(self):
        with pytest.raises(ConfigurationError, match="core"):
            ScenarioSpec(name="x", stack="no-such-stack")

    def test_duplicate_registration_rejected(self):
        registry = BackendRegistry()
        decorate = registry.register("dup")
        decorate(type("A", (StoreBackend,), {}))
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("dup")(type("B", (StoreBackend,), {}))

    def test_alias_registration_cannot_rename_class(self):
        # `name` is shared class state: re-registering an already-named
        # backend under an alias must fail rather than silently renaming
        # it in every other registry.
        core = get_backend("core")
        registry = BackendRegistry()
        with pytest.raises(ConfigurationError, match="already named"):
            registry.register("alias")(core)
        assert core.name == "core"
        # Same name into another registry is fine (no rename involved).
        registry.register("core")(core)
        assert registry.get("core") is core

    def test_custom_registration_is_visible_everywhere(self):
        # A scratch registry mirrors the decorator flow end to end.
        registry = BackendRegistry()

        @registry.register("toy")
        class ToyBackend(StoreBackend):
            description = "toy"

        assert registry.get("toy") is ToyBackend
        assert ToyBackend.name == "toy"
        assert registry.names() == ["toy"]
        assert "toy" in registry


# ---------------------------------------------------------------- contract


@pytest.fixture(scope="module", params=sorted(EXPECTED_BUILTINS))
def stack_deployment(request):
    """One converged deployment per backend, shared across the
    read-only contract checks below."""
    return request.param, *deployed(request.param)


class TestDeployAndConverge:
    def test_deploys_requested_population(self, stack_deployment):
        _, spec, backend = stack_deployment
        assert len(backend.servers) == spec.nodes
        assert sorted(backend.directory()) == sorted(s.id for s in backend.servers)

    def test_converged_predicate_true_after_converge(self, stack_deployment):
        _, _, backend = stack_deployment
        assert backend.converged() is True


class TestRoundTrip:
    def test_put_get_round_trip(self, stack_deployment):
        stack, _, backend = stack_deployment
        client = backend.new_client()
        put = backend.put_sync(client, f"{stack}:k", b"v1", version=1)
        assert put.succeeded, f"{stack} put failed: {put.error}"
        got = backend.get_sync(client, f"{stack}:k")
        assert got.succeeded and got.value == b"v1"
        assert got.result_version == 1

    def test_replication_level_counts_alive_holders(self, stack_deployment):
        stack, _, backend = stack_deployment
        client = backend.new_client()
        backend.put_sync(client, f"{stack}:replicated", b"v", version=1)
        backend.sim.run_for(15)  # let replication settle
        assert backend.replication_level(f"{stack}:replicated") >= 1

    def test_server_message_load_counts_servers(self, stack_deployment):
        _, _, backend = stack_deployment
        load = backend.server_message_load()
        assert load["handled"] > 0


class TestDropletsSession:
    """The soft-state layer needs only new_client / put_sync / get_sync,
    so its ordering contract must hold above every stack."""

    def test_versions_strictly_increase_and_reads_see_own_writes(self, stack_deployment):
        stack, _, backend = stack_deployment
        session = DropletsSession(backend)
        versions = [session.put(f"{stack}:droplet", f"v{i}".encode()) for i in range(3)]
        assert versions == [1, 2, 3]
        assert session.get(f"{stack}:droplet") == b"v2"
        assert session.get_version(f"{stack}:droplet", 1) == b"v0"

    def test_rebuild_recovers_counters_from_the_substrate(self, stack_deployment):
        stack, _, backend = stack_deployment
        session = DropletsSession(backend)
        session.put(f"{stack}:rebuilt", b"a")
        session.put(f"{stack}:rebuilt", b"b")
        backend.sim.run_for(10)  # let both versions reach every replica
        assert session.rebuild([f"{stack}:rebuilt", f"{stack}:never-written"]) == 1
        assert session.current_version(f"{stack}:rebuilt") == 2
        assert session.put(f"{stack}:rebuilt", b"c") == 3


class TestChurn:
    @pytest.mark.parametrize("stack", sorted(EXPECTED_BUILTINS))
    def test_kill_and_recover_round_trip(self, stack):
        _, backend = deployed(stack, seed=11)
        population = len(backend.servers)
        controller = backend.churn_controller()
        victim = controller.kill()
        assert victim is not None and not victim.alive
        assert len(backend.directory()) == population - 1
        recovered = controller.recover(victim.id)
        assert recovered is victim and victim.alive
        assert len(backend.directory()) == population
        assert controller.leaves == 1 and controller.recoveries == 1

    @pytest.mark.parametrize("stack", sorted(EXPECTED_BUILTINS))
    def test_join_grows_the_directory(self, stack):
        _, backend = deployed(stack, seed=12)
        population = len(backend.directory())
        controller = backend.churn_controller()
        joiner = controller.join()
        assert joiner is not None and joiner.alive
        assert controller.joins == 1
        assert len(backend.directory()) == population + 1
        assert joiner.id in backend.directory()

    @pytest.mark.parametrize("stack", sorted(EXPECTED_BUILTINS))
    def test_kill_fraction_scopes_to_the_alive_population(self, stack):
        _, backend = deployed(stack, seed=13)
        population = len(backend.directory())
        controller = backend.churn_controller()
        victims = controller.kill_fraction(0.25)
        assert len(victims) == int(population * 0.25)
        assert all(not v.alive for v in victims)
        assert len(backend.directory()) == population - len(victims)
        assert controller.leaves == len(victims)

    @pytest.mark.parametrize("stack", sorted(EXPECTED_BUILTINS))
    def test_recover_of_alive_or_unknown_node_is_a_noop(self, stack):
        _, backend = deployed(stack, seed=14)
        controller = backend.churn_controller()
        alive_id = backend.directory()[0]
        assert controller.recover(alive_id) is None
        assert controller.recover(10**9) is None  # never existed
        assert controller.recoveries == 0


class TestReplicationMetrics:
    @pytest.mark.parametrize("stack", sorted(EXPECTED_BUILTINS))
    def test_replication_block_reported_for_every_backend(self, stack):
        """The cross-stack ``replication`` metric group: every backend
        reports mean/min/lost over the loaded keys, and a fault-free run
        never loses an object."""
        spec = contract_spec(
            stack,
            workload=WorkloadSpec(preset="write-only", record_count=6),
            metrics=("workload", "replication"),
        )
        metrics = run_scenario(spec, seed=15).metrics
        for name in ("replication_mean", "replication_min", "replication_lost"):
            assert name in metrics, f"{stack} missing {name}"
        assert metrics["replication_min"] >= 1.0
        assert metrics["replication_mean"] >= metrics["replication_min"]
        assert metrics["replication_lost"] == 0.0


# ------------------------------------------------------------ client skeleton

# Per stack: the client's counter prefix and the counter of an op whose
# retries are spent.
CLIENT_COUNTERS = {"core": ("client", "timeout"), "oracle": ("oracle.client", "timeout"),
                   "dht": ("dht.client", "failed")}


def timeout_queues(client):
    """Every deadline queue a client's timeouts wait in."""
    rpc = getattr(client, "rpc", None)
    return [client._deadlines] + ([rpc._calls] if rpc is not None else [])


def armed_client_timers(client) -> int:
    """Live scheduler entries that would fire a timeout of ``client``."""
    owners = [client, getattr(client, "rpc", client)]
    count = 0
    for _time, _seq, fn, _args, handle in client.scheduler._heap:
        if handle is not None and handle.cancelled:
            continue
        for cell in getattr(fn, "__closure__", None) or ():
            if any(getattr(cell.cell_contents, "__self__", None) is owner for owner in owners):
                count += 1
    return count


def client_against_dead_contact(stack: str, retries: int = 2):
    """A client whose every attempt goes to one crashed server."""
    _, backend = deployed(stack, seed=16)
    client = backend.new_client(timeout=1.0, retries=retries)
    dead = backend.servers[0]
    dead.crash()
    client._contact = lambda op: dead.id
    return backend, client


class TestClientSkeleton:
    @pytest.mark.parametrize("stack", sorted(EXPECTED_BUILTINS))
    def test_fifty_ops_in_flight_arm_at_most_one_timeout(self, stack):
        backend, client = client_against_dead_contact(stack)
        peak = 0
        ops = []
        for i in range(50):
            ops.append(client.put(f"k{i}", b"v", 1) if i % 2 else client.get(f"k{i}"))
            peak = max(peak, armed_client_timers(client))
            backend.sim.run_for(0.013)
        while not all(op.done for op in ops):
            backend.sim.run_for(0.1)
            peak = max(peak, armed_client_timers(client))
        assert peak == 1
        assert armed_client_timers(client) == 0

    @pytest.mark.parametrize("stack", sorted(EXPECTED_BUILTINS))
    def test_timeout_retry_give_up_counters(self, stack):
        backend, client = client_against_dead_contact(stack, retries=2)
        ops = [client.put("a", b"v", 1), client.put("b", b"v", 1), client.get("a")]
        backend.sim.run_for(30)
        assert all(op.status == FAILED and op.attempts == 3 for op in ops)
        prefix, give_up = CLIENT_COUNTERS[stack]
        metrics = backend.sim.metrics
        assert metrics.total(f"{prefix}.put.retry") == 4
        assert metrics.total(f"{prefix}.get.retry") == 2
        assert metrics.total(f"{prefix}.put.{give_up}") == 2
        assert metrics.total(f"{prefix}.get.{give_up}") == 1

    @pytest.mark.parametrize("stack", sorted(EXPECTED_BUILTINS))
    def test_finished_ops_leave_no_pending_state(self, stack):
        _, backend = deployed(stack, seed=17)
        client = backend.new_client()
        ops = [client.put(f"{stack}:{i}", b"v", 1) for i in range(5)]
        ops += [client.get(f"{stack}:{i}") for i in range(5)]
        backend.sim.run_until_condition(lambda: all(op.done for op in ops), 30.0)
        assert all(op.succeeded for op in ops[:5])
        assert client.pending_ops == 0
        assert [len(queue) for queue in timeout_queues(client)] == [0] * len(timeout_queues(client))

    @pytest.mark.parametrize("stack", sorted(EXPECTED_BUILTINS))
    def test_no_contact_is_counted(self, stack):
        _, backend = deployed(stack, seed=18)
        client = backend.new_client()
        for server in backend.servers:
            server.crash()
        op = client.put("k", b"v", 1)
        assert op.status == FAILED and "no contact" in op.error
        prefix, _ = CLIENT_COUNTERS[stack]
        assert backend.sim.metrics.total(f"{prefix}.put.no_contact") == 1
        assert client.pending_ops == 0

    @pytest.mark.parametrize("stack", sorted(EXPECTED_BUILTINS))
    @pytest.mark.parametrize(
        "bad, named",
        [(dict(timeout=0.0), "timeout"), (dict(timeout=-1.0), "timeout"), (dict(retries=-1), "retries")],
    )
    def test_constructor_rejects_bad_timeout_and_retries(self, stack, bad, named):
        backend = get_backend(stack)(n=3)
        with pytest.raises(ConfigurationError, match=named):
            backend.new_client(**bad)


# ---------------------------------------------------------- object layout

# CPython 3.11 and 3.12 keep a class's instance attributes inline, in
# slots after the object header, while the class's shared key table holds
# fewer than 30 names; at 30 every instance gets a real ``__dict__``
# (328 B against 1,647 B per object measured on 3.11) and each ``self.x``
# takes the dict path. DESIGN.md "The message path and its invariants".
INLINE_ATTRIBUTE_LIMIT = 30


@pytest.mark.parametrize("stack", list_backends())
def test_no_node_or_service_outgrows_the_inline_attribute_layout(stack):
    spec = contract_spec(stack)
    backend = get_backend(stack).deploy(spec, Simulation(seed=3))
    client = backend.new_client()
    backend.sim.run_for(3.0)
    assert backend.put_sync(client, f"{stack}:layout", b"v", version=1).succeeded
    names = {}  # class -> every attribute name its instances hold
    for node in [*backend.servers, *backend.clients]:
        for obj in [node, *node._services]:
            names.setdefault(type(obj).__name__, set()).update(vars(obj))
    assert {cls: len(attrs) for cls, attrs in names.items()
            if len(attrs) >= INLINE_ATTRIBUTE_LIMIT} == {}


# ------------------------------------------------------------- determinism


@pytest.mark.parametrize("stack", sorted(EXPECTED_BUILTINS))
def test_same_seed_replay_with_faults_is_byte_identical(stack):
    """The reproducibility contract holds per backend, fault schedule
    included — the acceptance criterion for plugging in a new stack."""
    spec = contract_spec(
        stack,
        faults=[FaultSpec(kind="crash_recover", fraction=0.25, start=1.0, duration=6.0)],
        workload=WorkloadSpec(preset="ycsb-a", record_count=6, operation_count=12),
        metrics=("workload", "messages", "population", "replication", "consistency"),
    )
    first = run_scenario(spec, seed=5)
    second = run_scenario(spec, seed=5)
    assert first.summary_json() == second.summary_json()
    assert first.metrics["converged"] == 1.0
    assert first.metrics["faults_injected"] == 1.0
    assert first.metrics["faults_healed"] == 1.0


def test_oracle_is_a_consistency_ground_truth():
    """The whole point of the third backend: under faults it may lose
    availability but never consistency."""
    spec = contract_spec(
        "oracle",
        faults=[
            FaultSpec(kind="crash_recover", fraction=0.3, start=1.0, duration=8.0),
            FaultSpec(kind="burst_loss", loss=0.4, start=2.0, duration=4.0),
        ],
        workload=WorkloadSpec(preset="ycsb-a", record_count=8, operation_count=30),
        metrics=("workload", "population", "replication", "consistency"),
    )
    metrics = run_scenario(spec, seed=9).metrics
    assert metrics["stale_reads"] == 0.0
    assert metrics["lost_updates"] == 0.0
    assert metrics["lost_objects"] == 0.0
    # Full replication: every alive server holds every stored key.
    assert metrics["replication_mean"] == metrics["population_alive"]
    # No overlay to repair: heal is instantaneous.
    assert metrics["heal_converged"] == 1.0
    assert metrics["heal_time"] <= 0.5

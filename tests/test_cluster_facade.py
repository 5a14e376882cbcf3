"""Tests for DataFlasksCluster facade helpers not covered elsewhere."""

import pytest

from repro.core.cluster import DataFlasksCluster
from repro.core.config import DataFlasksConfig
from repro.core.filestore import FileStore
from repro.errors import ConfigurationError

from tests.conftest import build_cluster, small_config


def test_size_validated():
    with pytest.raises(ConfigurationError):
        DataFlasksCluster(n=0)


def test_expected_n_retargeted_to_cluster_size():
    cluster = DataFlasksCluster(n=37, config=DataFlasksConfig(expected_n=9), seed=1)
    assert cluster.config.expected_n == 37
    # Every node's private copy inherits the retargeted value.
    assert all(s.config.expected_n == 37 for s in cluster.servers)


def test_attribute_fn_feeds_slicing_attribute():
    cluster = DataFlasksCluster(
        n=5, config=small_config(), seed=2, attribute_fn=lambda nid, rng: nid * 100.0
    )
    for server in cluster.servers:
        assert server.attribute == server.id * 100.0


def test_store_factory_used(tmp_path):
    def store_factory(node_id):
        return FileStore(str(tmp_path / f"{node_id}.log"))

    cluster = DataFlasksCluster(
        n=4, config=small_config(), seed=3, store_factory=store_factory
    )
    assert all(isinstance(s.store, FileStore) for s in cluster.servers)
    cluster.sim.run_for(1)
    for server in cluster.servers:
        server.stop()  # closes the files cleanly


def test_directory_tracks_liveness():
    cluster = build_cluster(n=10, seed=43)
    full = set(cluster.directory())
    victim = cluster.servers[0]
    victim.crash()
    assert set(cluster.directory()) == full - {victim.id}


def test_multiple_clients_are_independent():
    cluster = build_cluster(n=30, seed=45)
    a = cluster.new_client()
    b = cluster.new_client(lb_strategy="slice-aware")
    assert a.id != b.id
    cluster.put_sync(a, "shared", b"from-a", 1)
    result = cluster.get_sync(b, "shared")
    assert result.value == b"from-a"


def test_slice_population_covers_all_slices_after_convergence():
    cluster = build_cluster(n=40, seed=46)
    population = cluster.slice_population()
    assert sum(population.values()) == len(cluster.alive_servers())
    assert set(population) == set(range(cluster.config.num_slices))

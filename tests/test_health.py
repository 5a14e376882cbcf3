"""Tests for the consistency/health reporting tools."""

from repro.analysis.health import check_cluster

from tests.conftest import build_cluster


def loaded(n=30, seed=91, keys=6):
    cluster = build_cluster(n=n, seed=seed)
    client = cluster.new_client()
    key_list = [f"health:{i}" for i in range(keys)]
    for key in key_list:
        cluster.put_sync(client, key, b"v", 1)
    cluster.sim.run_for(20)
    return cluster, key_list


def test_healthy_cluster_report():
    cluster, keys = loaded()
    report = check_cluster(cluster)
    assert report.total_objects == len(keys)
    assert report.mean_replication() >= 2
    assert not report.empty_slices
    assert report.healthy
    assert "objects: 6" in report.summary()


def test_under_replication_detected():
    cluster, keys = loaded(seed=92)
    target = keys[0]
    holders = [s for s in cluster.alive_servers() if s.holds(target)]
    for victim in holders[:-1]:
        victim.crash()
    report = check_cluster(cluster, min_replicas=2)
    assert (target, 1) in report.under_replicated
    assert not report.healthy


def test_misplaced_copies_counted():
    cluster, keys = loaded(seed=94)
    target = keys[0]
    holder = next(s for s in cluster.alive_servers() if s.holds(target))
    wrong = (cluster.target_slice(target) + 1) % cluster.config.num_slices
    holder.slicing._set_slice(wrong)
    report = check_cluster(cluster)
    assert report.misplaced_copies >= 1


def test_empty_slice_detected():
    cluster, keys = loaded(seed=95)
    victims = [
        s for s in cluster.alive_servers() if s.my_slice() == 0
    ]
    for victim in victims:
        victim.crash()
    report = check_cluster(cluster)
    assert 0 in report.empty_slices

"""Tests for the consistency/health reporting tools."""

from repro.analysis.health import check_cluster

from tests.conftest import build_cluster


def loaded(n=30, seed=91, keys=6):
    """A cluster after six acknowledged writes, and their inventory."""
    cluster = build_cluster(n=n, seed=seed)
    client = cluster.new_client()
    written = [(f"health:{i}", 1) for i in range(keys)]
    for key, version in written:
        assert cluster.put_sync(client, key, b"v", version).succeeded
    cluster.sim.run_for(20)
    return cluster, written


def test_healthy_cluster_report():
    cluster, written = loaded()
    report = check_cluster(cluster, written)
    assert report.total_objects == len(written) and report.lost == []
    assert report.mean_replication() >= 2
    assert not report.empty_slices
    assert report.healthy
    assert "objects: 6" in report.summary()


def test_lost_object_detected():
    cluster, written = loaded(seed=93)
    assert check_cluster(cluster, written).lost == []
    for server in cluster.alive_servers():
        server.store.delete(*written[2])
    report = check_cluster(cluster, written)
    assert report.lost == [written[2]]
    assert report.total_objects == len(written) - 1
    assert not report.healthy
    assert "lost: 1" in report.summary()


def test_under_replication_detected():
    cluster, written = loaded(seed=92)
    target = written[0][0]
    holders = [s for s in cluster.alive_servers() if s.holds(target)]
    for victim in holders[:-1]:
        victim.crash()
    report = check_cluster(cluster, written, min_replicas=2)
    assert (target, 1) in report.under_replicated
    assert not report.healthy


def test_misplaced_copies_counted():
    cluster, written = loaded(seed=94)
    target = written[0][0]
    holder = next(s for s in cluster.alive_servers() if s.holds(target))
    wrong = (cluster.target_slice(target) + 1) % cluster.config.num_slices
    holder.slicing._set_slice(wrong)
    report = check_cluster(cluster, written)
    assert report.misplaced_copies >= 1


def test_empty_slice_detected():
    cluster, written = loaded(seed=95)
    victims = [
        s for s in cluster.alive_servers() if s.my_slice() == 0
    ]
    for victim in victims:
        victim.crash()
    report = check_cluster(cluster, written)
    assert 0 in report.empty_slices

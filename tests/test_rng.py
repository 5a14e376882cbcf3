"""Unit tests for named RNG streams."""

from repro.sim.rng import RngRegistry, derive_seed


def test_same_name_returns_same_stream():
    reg = RngRegistry(seed=1)
    assert reg.stream("a") is reg.stream("a")


def test_different_names_are_independent():
    reg = RngRegistry(seed=1)
    a = [reg.stream("a").random() for _ in range(5)]
    b = [reg.stream("b").random() for _ in range(5)]
    assert a != b


def test_streams_are_reproducible_across_registries():
    first = [RngRegistry(seed=9).stream("x").random() for _ in range(3)]
    second = [RngRegistry(seed=9).stream("x").random() for _ in range(3)]
    assert first == second


def test_different_master_seeds_differ():
    a = RngRegistry(seed=1).stream("x").random()
    b = RngRegistry(seed=2).stream("x").random()
    assert a != b


def test_derive_seed_is_stable():
    # The mapping must not depend on interpreter hash randomisation.
    assert derive_seed(0, "net") == derive_seed(0, "net")
    assert derive_seed(0, "net") != derive_seed(0, "neu")


def test_adding_streams_does_not_perturb_existing_ones():
    reg_a = RngRegistry(seed=4)
    stream = reg_a.stream("proto")
    first = stream.random()

    reg_b = RngRegistry(seed=4)
    reg_b.stream("other")  # an extra stream created first
    assert reg_b.stream("proto").random() == first

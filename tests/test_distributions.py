"""Tests for the YCSB key-choice distributions."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.workload.distributions import (
    LatestChooser,
    ScrambledZipfianChooser,
    UniformChooser,
    ZipfianChooser,
    fnv64,
)

ALL_CHOOSERS = [
    lambda n: UniformChooser(n),
    lambda n: ZipfianChooser(n),
    lambda n: ScrambledZipfianChooser(n),
    lambda n: LatestChooser(n),
]


@pytest.mark.parametrize("make", ALL_CHOOSERS)
def test_indexes_always_in_range(make):
    chooser = make(100)
    rng = random.Random(1)
    for _ in range(2000):
        assert 0 <= chooser.next(rng) < 100


@pytest.mark.parametrize("make", ALL_CHOOSERS)
def test_item_count_validated(make):
    with pytest.raises(ConfigurationError):
        make(0)


class TestUniform:
    def test_covers_space_evenly(self):
        chooser = UniformChooser(10)
        rng = random.Random(2)
        counts = Counter(chooser.next(rng) for _ in range(10_000))
        assert min(counts.values()) > 700
        assert max(counts.values()) < 1300


class TestZipfian:
    def test_theta_validated(self):
        with pytest.raises(ConfigurationError):
            ZipfianChooser(10, theta=1.0)

    def test_item_zero_is_hottest(self):
        chooser = ZipfianChooser(1000)
        rng = random.Random(3)
        counts = Counter(chooser.next(rng) for _ in range(20_000))
        assert counts[0] == max(counts.values())

    def test_skew_matches_zipf_shape(self):
        # P(0)/P(1) should be about 2^theta for theta=0.99.
        chooser = ZipfianChooser(1000, theta=0.99)
        rng = random.Random(4)
        counts = Counter(chooser.next(rng) for _ in range(50_000))
        ratio = counts[0] / counts[1]
        assert 1.5 < ratio < 2.6

    def test_higher_theta_is_more_skewed(self):
        rng_a, rng_b = random.Random(5), random.Random(5)
        mild = ZipfianChooser(1000, theta=0.5)
        harsh = ZipfianChooser(1000, theta=0.99)
        mild_hits = sum(mild.next(rng_a) == 0 for _ in range(20_000))
        harsh_hits = sum(harsh.next(rng_b) == 0 for _ in range(20_000))
        assert harsh_hits > mild_hits


class TestScrambledZipfian:
    def test_spreads_hot_items(self):
        chooser = ScrambledZipfianChooser(1000)
        rng = random.Random(6)
        counts = Counter(chooser.next(rng) for _ in range(20_000))
        top = max(counts, key=counts.get)
        # Still skewed (one clear hot key)...
        assert counts[top] > 20_000 / 1000 * 10
        # ...but the hot key need not be index 0 (scrambling).
        hot_keys = sorted(counts, key=counts.get, reverse=True)[:10]
        assert hot_keys != list(range(10))


class TestLatest:
    def test_recent_items_hot(self):
        chooser = LatestChooser(1000)
        rng = random.Random(7)
        counts = Counter(chooser.next(rng) for _ in range(20_000))
        newest_mass = sum(counts.get(i, 0) for i in range(990, 1000))
        oldest_mass = sum(counts.get(i, 0) for i in range(0, 10))
        assert newest_mass > oldest_mass * 5

    def test_grow_shifts_hot_set(self):
        chooser = LatestChooser(100)
        for _ in range(50):
            chooser.grow()
        assert chooser.item_count == 150
        rng = random.Random(8)
        counts = Counter(chooser.next(rng) for _ in range(10_000))
        assert max(counts) >= 140  # newest items get picked


class TestFnv:
    def test_known_stability(self):
        assert fnv64(0) == fnv64(0)
        assert fnv64(1) != fnv64(2)

    @given(st.integers(min_value=0, max_value=2 ** 64 - 1))
    @settings(max_examples=200)
    def test_output_is_64_bit(self, value):
        assert 0 <= fnv64(value) < 2 ** 64

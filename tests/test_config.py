"""Tests for DataFlasksConfig validation and helpers."""

import math

import pytest

from repro.core.config import DataFlasksConfig
from repro.errors import ConfigurationError


def test_defaults_match_paper():
    config = DataFlasksConfig()
    assert config.num_slices == 10  # the paper's evaluation setting
    assert config.slicing_protocol == "dslead"  # the paper's Slice Manager


def test_effective_fanout_from_expected_n():
    config = DataFlasksConfig(expected_n=1000)
    assert config.effective_fanout == math.ceil(math.log(1000) + 2)


def test_explicit_fanout_wins():
    assert DataFlasksConfig(fanout=4).effective_fanout == 4


def test_scaled_to_retargets_fanout():
    base = DataFlasksConfig(expected_n=100)
    scaled = base.scaled_to(10_000)
    assert scaled.expected_n == 10_000
    assert scaled.effective_fanout > base.effective_fanout
    assert base.expected_n == 100  # original untouched


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_slices": 0},
        {"slicing_protocol": "nope"},
        {"expected_n": 0},
        {"fanout": 0},
        {"ttl": 0},
        {"view_size": 0},
        {"store_capacity": 0},
        {"shuffle_length": 0},
        {"shuffle_length": 50},
        {"slice_view_size": 0},
        {"auto_replication_target": 0},
        {"antientropy_period": 0.0},
        {"antientropy_period": math.nan},
        {"antientropy_period": math.inf},
        {"auto_replication_period": -1.0},
        {"gc_foreign_data": "no"},
        {"gc_foreign_data": 1},
        {"view_size": 20.5},
        {"ttl": True},
    ],
)
def test_invalid_configs_rejected(kwargs):
    # Each bad value is rejected at construction, naming its field.
    (name,) = kwargs
    with pytest.raises(ConfigurationError, match=name):
        DataFlasksConfig(**kwargs)


def test_all_slicing_protocols_accepted():
    for name in ("dslead", "ordered", "sliver", "static"):
        assert DataFlasksConfig(slicing_protocol=name).slicing_protocol == name

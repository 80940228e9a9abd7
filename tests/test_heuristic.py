import pytest

from nclayer.heuristic import (
    BUILTIN_SET_IDS,
    ThresholdPolicy,
    builtin_policy,
    select_strategy,
)


class CountingFloat(float):
    """Float that records how many ordering comparisons touch it."""

    comparisons = 0

    def __lt__(self, other):
        CountingFloat.comparisons += 1
        return float.__lt__(self, other)

    def __ge__(self, other):
        CountingFloat.comparisons += 1
        return float.__ge__(self, other)


def test_builtin_sets_are_pinned():
    assert BUILTIN_SET_IDS == (1, 2, 3)
    one = builtin_policy(1)
    assert one.breakpoints == (0.5,)
    assert one.strategies == ((64, 0, 0, 0), (24, 20, 20, 0))
    two = builtin_policy(2)
    assert two.breakpoints == (0.3, 0.8)
    assert two.strategies == ((64, 0, 0, 0), (48, 16, 0, 0), (24, 20, 20, 0))
    three = builtin_policy(3)
    assert three.breakpoints == (0.3, 0.5, 0.8)
    assert three.strategies == (
        (64, 0, 0, 0),
        (48, 16, 0, 0),
        (24, 20, 20, 0),
        (40, 8, 8, 8),
    )
    assert all(builtin_policy(i).budget == 64 for i in BUILTIN_SET_IDS)


def test_unknown_set_rejected():
    with pytest.raises(ValueError):
        builtin_policy(4)


def test_interval_selection_set_three():
    policy = builtin_policy(3)
    assert select_strategy(policy, 0.0) == (64, 0, 0, 0)
    assert select_strategy(policy, 0.29) == (64, 0, 0, 0)
    assert select_strategy(policy, 0.4) == (48, 16, 0, 0)
    assert select_strategy(policy, 0.7) == (24, 20, 20, 0)
    assert select_strategy(policy, 1.0) == (40, 8, 8, 8)


def test_boundary_estimate_takes_upper_interval():
    policy = builtin_policy(3)
    assert select_strategy(policy, 0.3) == (48, 16, 0, 0)
    assert select_strategy(policy, 0.5) == (24, 20, 20, 0)
    assert select_strategy(policy, 0.8) == (40, 8, 8, 8)
    assert select_strategy(builtin_policy(1), 0.5) == (24, 20, 20, 0)


def test_selection_runs_constant_few_comparisons():
    policy = builtin_policy(3)
    for estimate in (0.1, 0.45, 0.99):
        CountingFloat.comparisons = 0
        select_strategy(policy, CountingFloat(estimate))
        # two range-validation comparisons plus at most three interval probes
        assert CountingFloat.comparisons <= 2 + len(policy.breakpoints)


def test_estimate_out_of_range_rejected():
    with pytest.raises(ValueError):
        select_strategy(builtin_policy(1), 1.5)


def test_policy_validation():
    with pytest.raises(ValueError, match="strategies"):
        ThresholdPolicy((0.5,), ((8, 0),))
    with pytest.raises(ValueError, match="increasing"):
        ThresholdPolicy((0.8, 0.3), ((8, 0), (4, 4), (0, 8)))
    with pytest.raises(ValueError, match="inside"):
        ThresholdPolicy((0.0,), ((8, 0), (0, 8)))
    with pytest.raises(ValueError, match="budget"):
        ThresholdPolicy((0.5,), ((8, 0), (4, 2)))
    with pytest.raises(ValueError, match="classes"):
        ThresholdPolicy((0.5,), ((8, 0), (4, 2, 2)))


def test_policy_from_lists():
    policy = ThresholdPolicy([0.4], [[6, 2], [2, 6]])
    assert select_strategy(policy, 0.4) == (2, 6)
    assert policy.budget == 8

import numpy as np
import pytest

from nclayer.heuristic import (
    BUILTIN_SET_IDS,
    ThresholdPolicy,
    builtin_policy,
)
from nclayer.nodes import pick_strategies
from nclayer.spt import expected_decoded_layers
from oracles import class_block, select_strategy, sent_strategies


def _picks(policy, estimates):
    """The strategy a sender under the policy sends at each estimate,
    checked against the oracle's interval walk."""
    n, width = len(estimates), len(policy.strategies[0])
    block = class_block(pick_strategies(policy, estimates, [width] * n), 1)
    picks = sent_strategies(block, width)
    assert picks == [select_strategy(policy, e) for e in estimates]
    return picks


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
    assert _picks(builtin_policy(3), [0.0, 0.29, 0.4, 0.7, 1.0]) == [
        (64, 0, 0, 0), (64, 0, 0, 0), (48, 16, 0, 0), (24, 20, 20, 0), (40, 8, 8, 8),
    ]


def test_boundary_estimate_takes_upper_interval():
    assert _picks(builtin_policy(3), [0.3, 0.5, 0.8]) == [
        (48, 16, 0, 0), (24, 20, 20, 0), (40, 8, 8, 8),
    ]
    assert _picks(builtin_policy(1), [0.5]) == [(24, 20, 20, 0)]
    # every breakpoint of every set, its float neighbours, and a fine grid
    grid = np.linspace(0.0, 1.0, 201).tolist()
    for set_id in BUILTIN_SET_IDS:
        policy = builtin_policy(set_id)
        points = np.array(policy.breakpoints)
        edges = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
        _picks(policy, edges.tolist() + grid)


def test_set_three_fixed_pick_values_quoted_in_readme():
    # set 3 sends (40, 8, 8, 8) from 0.8 up; with no slack in classes 2-4 it
    # decodes far less than the table's picks below 1.0, as README states
    top = builtin_policy(3).strategies[-1]
    assert top == (40, 8, 8, 8)
    assert round(expected_decoded_layers(top, 0.90, 8), 4) == 1.6955
    assert round(expected_decoded_layers(top, 0.95, 8), 4) == 2.3955
    assert expected_decoded_layers(top, 1.0, 8) == 4.0


def test_estimate_out_of_range_rejected():
    for estimate in (1.5, -0.1):
        with pytest.raises(ValueError, match="estimates"):
            pick_strategies(builtin_policy(1), [estimate], [4])
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
    assert _picks(policy, [0.4]) == [(2, 6)]
    assert policy.budget == 8

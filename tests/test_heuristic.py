import numpy as np
import pytest

from nclayer.heuristic import (
    BUILTIN_SET_IDS,
    ThresholdPolicy,
    builtin_policy,
)
from nclayer.nodes import Encoder, encoder_block
from oracles import select_strategy, sent_strategies


def _picks(policy, estimates):
    """The strategy a sender under the policy sends at each estimate,
    checked against the oracle's interval walk."""
    n, width = len(estimates), len(policy.strategies[0])
    cells = np.zeros((n, width, 1, 0), dtype=np.uint8)
    sender = Encoder(scheme="rlc", policy=policy, rng=None)
    block = encoder_block(sender, cells, estimates, [width] * n)
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


def test_estimate_out_of_range_rejected():
    sender = Encoder(scheme="rlc", policy=builtin_policy(1), rng=np.random.default_rng(0))
    cells = np.zeros((1, 4, 8, 0), dtype=np.uint8)
    for estimate in (1.5, -0.1):
        with pytest.raises(ValueError, match="estimates"):
            encoder_block(sender, cells, [estimate], [4])
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

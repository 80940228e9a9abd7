import pytest

from nclayer.heuristic import (
    BUILTIN_SET_IDS,
    ThresholdPolicy,
    builtin_policy,
)
from nclayer.nodes import pick_strategies
from nclayer.spt import expected_decoded_layers
from oracles import class_block, select_strategy, sent_strategies


def _picks(policy, seen, probe_count):
    """The strategy a sender under the policy sends when seen[k] of
    probe_count probes survived, checked against the oracle's interval walk
    at seen[k] / probe_count."""
    n, width = len(seen), len(policy.strategies[0])
    block = class_block(pick_strategies(policy, seen, probe_count, [width] * n), 1)
    picks = sent_strategies(block)
    assert picks == [select_strategy(policy, k / probe_count) for k in seen]
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
    assert _picks(builtin_policy(3), [0, 29, 40, 70, 100], 100) == [
        (64, 0, 0, 0), (64, 0, 0, 0), (48, 16, 0, 0), (24, 20, 20, 0), (40, 8, 8, 8),
    ]


def test_boundary_estimate_takes_upper_interval():
    assert _picks(builtin_policy(3), [3, 5, 8], 10) == [
        (48, 16, 0, 0), (24, 20, 20, 0), (40, 8, 8, 8),
    ]
    assert _picks(builtin_policy(1), [5], 10) == [(24, 20, 20, 0)]
    # every breakpoint of every set, the closest counts of 1000 probes
    # either side of each, and a fine grid
    for set_id in BUILTIN_SET_IDS:
        policy = builtin_policy(set_id)
        for probe_count in (10, 200, 1000):
            _picks(policy, range(probe_count + 1), probe_count)


def test_set_three_fixed_pick_values_quoted_in_readme():
    # set 3 sends (40, 8, 8, 8) from 0.8 up; with no slack in classes 2-4 it
    # decodes far less than the table's picks below 1.0, as README states
    top = builtin_policy(3).strategies[-1]
    assert top == (40, 8, 8, 8)
    assert round(expected_decoded_layers(top, 0.90, 8), 4) == 1.6955
    assert round(expected_decoded_layers(top, 0.95, 8), 4) == 2.3955
    assert expected_decoded_layers(top, 1.0, 8) == 4.0


def test_estimate_out_of_range_rejected():
    # a count outside [0, probe_count] is an estimate outside [0, 1]
    for seen in (15, -1):
        with pytest.raises(ValueError, match=r"^seen must lie in \[0, 10\]"):
            pick_strategies(builtin_policy(1), [seen], 10, [4])
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
    # int() would truncate 8.9 to 8, which passes the same-budget check
    for counts in ((8.9, 0), (8.0, 0), (True, 7)):
        with pytest.raises(ValueError, match="^strategies must be a whole number, got "):
            ThresholdPolicy((0.5,), (counts, (4, 4)))


def test_policy_refuses_negative_replica_counts_that_spend_the_budget():
    # (10, -2) spends the same 8 packets as (8, 0), so only the sign refuses it
    with pytest.raises(ValueError, match="^strategies must be non-negative, got -2$"):
        ThresholdPolicy((0.5,), ((8, 0), (10, -2)))


def test_policy_from_lists():
    policy = ThresholdPolicy([0.4], [[6, 2], [2, 6]])
    assert _picks(policy, [4], 10) == [(2, 6)]
    assert policy.budget == 8

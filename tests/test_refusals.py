"""The refusal contract of the public entry points that take counts,
deliveries and sequences.

A call either returns, or raises a ValueError whose message starts with the
name of one of its parameters. A call given a value of a kind the parameter
never takes (a float or a bool for a count, NaN or a value outside [0, 1]
for a delivery, a string or a scalar for a sequence) never returns, and if
that value is the only one changed from a call that runs, the refusal
names its parameter.
"""

import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nclayer import (
    ChainConfig,
    ThresholdPolicy,
    build_table,
    enumerate_strategies,
    expected_decoded_layers,
    make_synthetic_gop,
    sweep,
)


def count(least, most):
    """(valid, invalid) values of a count of at least least."""
    valid = st.integers(least, most)
    return valid | valid.map(np.int64), st.sampled_from(
        [least - 1, float(least + 1), least + 0.5, True, np.bool_(True), str(least), None, math.nan]
    )


def probability():
    valid = st.floats(0.0, 1.0)
    return valid | valid.map(np.float64) | st.sampled_from([0, 1]), st.sampled_from(
        [-0.25, 1.5, math.nan, math.inf, True, "0.5", None]
    )


def delay():
    return st.floats(0.0, 1e3), st.sampled_from([-1.0, math.nan, math.inf, "1", None, True])


def sequence(item, min_size, max_size):
    """(valid, invalid) tuples of items drawn from item's (valid, invalid):
    an invalid one holds one invalid item, is too short, or is a string or a
    scalar in place of a sequence."""
    valid, invalid = item
    items = st.lists(valid, min_size=min_size, max_size=max_size)
    one_bad = st.tuples(items, invalid, items).map(lambda t: tuple(t[0]) + (t[1],) + tuple(t[2]))
    wrong_type = st.sampled_from(["0", "abc", 0.5, 3, None])
    short = st.lists(valid, max_size=min_size - 1).map(tuple) if min_size else st.nothing()
    return items.map(tuple), one_bad | wrong_type | short


def choice(valid, invalid):
    return st.sampled_from(valid), st.sampled_from(invalid)


def _schedule_entry():
    good = st.tuples(st.integers(0, 50), st.integers(0, 2), probability()[0])
    bad = st.sampled_from([(-1, 0, 0.5), (1.5, 0, 0.5), (1, True, 0.5), (1, 0, 1.5), (1, 0), 5, "105"])
    return good, bad


SMALL = dict(budget=8, layer_count=2, packets_per_layer=2, granularity=2)

ENTRY_POINTS = {
    "ChainConfig": (ChainConfig, {}, dict(
        link_pdrs=sequence(probability(), 1, 3),
        relay_modes=(
            st.lists(st.sampled_from(["forward", "nc"]), max_size=2).map(tuple),
            st.sampled_from(["nc", "forward", 5, ("bogus",), (None,)]),
        ),
        layer_count=count(1, 6),
        packets_per_layer=count(1, 10),
        payload_size=count(1, 100),
        budget=count(1, 128),
        granularity=count(0, 8),
        heuristic_set=count(1, 5),
        gop_count=count(1, 10**6),
        probe_count=count(1, 1000),
        update_period=count(1, 10),
        seed=count(0, 2**32),
        scheme=choice(["rlc", "xor", "repeat"], ["xr", 3, None]),
        selection=choice(["spt", "heuristic"], ["oracle", None]),
        transmit_delay=delay(),
        forward_delay=delay(),
        recode_delay=delay(),
        verify_payloads=(st.booleans() | st.booleans().map(np.bool_), st.sampled_from(["no", 1, None])),
        pdr_schedule=sequence(_schedule_entry(), 0, 2),
        label=(
            st.text(st.characters(categories=["L", "N"]), max_size=5),
            st.sampled_from([3, None, "a,b", "a\nb"]),
        ),
    )),
    "build_table": (build_table, SMALL, dict(
        budget=count(1, 12),
        layer_count=count(1, 3),
        packets_per_layer=count(1, 4),
        granularity=count(1, 4),
    )),
    "enumerate_strategies": (enumerate_strategies, dict(budget=8, layer_count=2, granularity=2), dict(
        budget=count(1, 12),
        layer_count=count(1, 3),
        granularity=count(1, 4),
    )),
    "expected_decoded_layers": (
        expected_decoded_layers,
        dict(strategy=(4, 2), delivery_prob=0.5, packets_per_layer=2),
        dict(
            strategy=sequence(count(0, 6), 1, 3),
            delivery_prob=probability(),
            packets_per_layer=count(1, 4),
        ),
    ),
    "sweep": (
        sweep,
        dict(
            base=ChainConfig(gop_count=2, probe_count=4, payload_size=1, **SMALL),
            pdr_grid=(0.5,),
            modes=("NC1",),
        ),
        dict(
            pdr_grid=sequence(probability(), 1, 2),
            modes=(
                st.lists(st.sampled_from(["NoNC1", "NC2", "NC2-HBH", "spt"]), min_size=1, max_size=2)
                .map(tuple),
                st.sampled_from([(), "spt", 5]),
            ),
            reps=count(1, 2),
            jobs=count(1, 2),
        ),
    ),
    "make_synthetic_gop": (
        make_synthetic_gop,
        dict(gop_id=0, layer_count=2, packets_per_layer=2, payload_size=4),
        dict(
            gop_id=count(0, 100),
            layer_count=count(1, 3),
            packets_per_layer=count(1, 3),
            payload_size=count(0, 8),
            seed=count(0, 100),
        ),
    ),
    "ThresholdPolicy": (ThresholdPolicy, dict(breakpoints=(0.5,), strategies=((8, 0), (4, 4))), dict(
        breakpoints=sequence(probability(), 0, 2),
        strategies=sequence(sequence(count(0, 8), 2, 2), 1, 3),
    )),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_entry_point_refuses_what_it_cannot_run_by_name(entry, data):
    call, base, params = ENTRY_POINTS[entry]
    kwargs = dict(base)
    changed = data.draw(st.sets(st.sampled_from(sorted(params)), min_size=1, max_size=2))
    bad = set()
    for name in sorted(changed):
        valid, invalid = params[name]
        if data.draw(st.booleans()):
            bad.add(name)
            kwargs[name] = data.draw(invalid, label=name)
        else:
            kwargs[name] = data.draw(valid, label=name)
    try:
        call(**kwargs)
    except ValueError as exc:
        named = re.match(r"\w*", str(exc))[0]
        assert named in inspect.signature(call).parameters, repr(exc)
        if len(changed) == 1 and bad:
            assert named in bad, repr(exc)
    else:
        assert not bad, f"{entry} ran with {bad}"

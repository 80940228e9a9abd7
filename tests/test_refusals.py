"""The refusal contract of the public entry points that take counts,
deliveries and sequences, and of those that take them as arrays.

A call either returns, or raises a ValueError whose message starts with the
name of one of its parameters. A call given a value of a kind the parameter
never takes (a float or a bool for a count, NaN or a value outside [0, 1]
for a delivery, a string or a scalar for a sequence) never returns, and if
that value is the only one changed from a call that runs, the refusal
names its parameter. An array entry point sees an array's values as numpy
reads them, so a bool among floats is the number it converts to; a bool
array, a float count or a value out of range is still refused.
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
    PacketBlock,
    ThresholdPolicy,
    build_table,
    decode_block,
    encode_block,
    enumerate_strategies,
    expected_decoded_layers,
    make_synthetic_gop,
    nearest_bin,
    score_block,
    send_block,
    sweep,
)
from nclayer.codec import _Rows
from nclayer.media import make_synthetic_cells
from nclayer.nodes import pick_strategies


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


def per_gop():
    """(valid, invalid) arrays of one count for each of 2 GOPs."""
    valid = st.lists(st.integers(0, 100), min_size=2, max_size=2)
    return valid.map(tuple) | valid.map(lambda v: np.array(v, np.uint8)), st.sampled_from(
        [(5.5, 0), (True, False), (-1, 0), (None, 0), ("5", "0"), 5, ((5, 0),), "50"]
    )


def rows_of(values, size, rows=None):
    """Valid tuples of size values drawn from values, or rows of them, as
    tuples or as a numpy array."""
    one = st.lists(values, min_size=size, max_size=size).map(tuple)
    if rows is not None:
        one = st.lists(one, min_size=rows, max_size=rows).map(tuple)
    return one | one.map(np.array)


def choice(valid, invalid):
    return st.sampled_from(valid), st.sampled_from(invalid)


def _schedule_entry():
    good = st.tuples(st.integers(0, 50), st.integers(0, 2), probability()[0])
    bad = st.sampled_from([(-1, 0, 0.5), (1.5, 0, 0.5), (1, True, 0.5), (1, 0, 1.5), (1, 0), 5, "105"])
    return good, bad


SMALL = dict(budget=8, layer_count=2, packets_per_layer=2, granularity=2)

CELLS = make_synthetic_cells([0, 1], 2, 2, 3)
# two GOPs of a 2 x 2 grid, 3 and 3 packets, under each scheme
BLOCKS = [
    encode_block(CELLS, ((2, 1), (0, 3)), scheme, np.random.default_rng(0))
    for scheme in ("rlc", "xor", "repeat")
]

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
                st.sampled_from(
                    [(), "spt", 5, (3,), (None,), ("bogus",), ("NC0",), ("spt", "NC2-E2E9")]
                ),
            ),
            reps=count(1, 2),
            jobs=count(1, 2),
        ),
    ),
    "send_block": (
        send_block,
        dict(rng=np.random.default_rng(0), probes=(5, 0), packets=(10, 4), pdrs=(0.5, 0.9)),
        dict(
            rng=(
                st.integers(0, 99).map(np.random.default_rng)
                | st.integers(0, 99).map(lambda s: _Rows([np.random.default_rng(s)])),
                st.sampled_from(
                    [None, 3, "rng", (np.random.default_rng(0),), np.random.SeedSequence(0)]
                ),
            ),
            probes=per_gop(),
            packets=per_gop(),
            pdrs=(
                sequence(probability(), 1, 4)[0],
                st.sampled_from([
                    (), 0.5, "0.5", (0.5, 1.5), (-0.25,), (math.nan, 0.5), (math.inf,),
                    (None,), ("0.5",), (True, True), ((0.5, 0.5),), (((0.5,),),),
                ]),
            ),
        ),
    ),
    "pick_strategies": (
        pick_strategies,
        dict(selector=build_table(**SMALL), seen=(3, 0), probe_count=4, depths=(2, 1)),
        dict(
            seen=(
                rows_of(st.integers(0, 4), 2),
                st.sampled_from([
                    (51, 0), (-1, 0), (1.5, 0), (math.nan, 0), (True, False), ("1", "0"),
                    (None, 0), 3, ((3, 0),), "30",
                ]),
            ),
            probe_count=count(1, 50),
            depths=(
                rows_of(st.integers(0, 4), 2),
                st.sampled_from([
                    (-1, 0), (2.5, 1), (True, True), ("2", "1"), (None, 0), 2, ((2, 1),), (2, 1, 0),
                ]),
            ),
        ),
    ),
    "encode_block": (
        encode_block,
        dict(cells=CELLS, strategies=((4, 4), (8, 0)), scheme="rlc", rng=np.random.default_rng(0)),
        dict(
            cells=(
                st.integers(0, 4).map(lambda width: make_synthetic_cells([0, 1], 2, 2, width)),
                st.sampled_from([
                    CELLS[0], CELLS.astype(float), CELLS.astype(bool), CELLS[:, :0], CELLS[:, :, :0],
                    None, "cells", 5,
                ]),
            ),
            strategies=(
                rows_of(st.integers(0, 8), 2, 2),
                st.sampled_from([
                    ((4.5, 4), (8, 0)), ((True, True), (False, False)), ((-1, 9), (8, 0)),
                    (("4", "4"), ("8", "0")), ((4, None), (8, 0)), (4, 4), "44", None, ((4, 4),),
                    ((4, 4, 0), (8, 0, 0)), ((4, 4), (8,)),
                ]),
            ),
            scheme=choice(["rlc", "xor", "repeat"], ["xr", "RLC", 3, None]),
            rng=(
                st.integers(0, 99).map(np.random.default_rng) | st.none(),
                st.sampled_from([3, "rng", np.random.SeedSequence(0), (np.random.default_rng(0),)]),
            ),
        ),
    ),
    "PacketBlock": (
        PacketBlock,
        dict(
            scheme="xor", packets_per_layer=2, counts=((1, 1),), payload=np.zeros((2, 3), np.uint8),
            column=(0, 1),
        ),
        dict(
            scheme=choice(["xor", "repeat", "rlc"], ["xr", 3, None]),
            packets_per_layer=count(1, 8),
            counts=(
                rows_of(st.integers(0, 2), 2, 1) | rows_of(st.integers(0, 1), 2, 2),
                st.sampled_from([
                    ((1.5, 0.5),), ((True, True),), ((-1, 3),), (("1", "1"),), ((1, None),),
                    (1, 1), "11", None, (((1, 1),),), np.zeros((1, 0), int), ((1, 1), (1,)),
                ]),
            ),
            column=(
                rows_of(st.integers(0, 1), 2),
                st.sampled_from([
                    (0, 9), (-1, 0), (0.5, 1), (True, False), ("0", "1"), 0, ((0, 1),), None, (0,),
                ]),
            ),
        ),
    ),
    "PacketBlock.select": (
        BLOCKS[0].select,
        dict(rows=(0, 1)),
        dict(rows=(
            st.lists(st.integers(0, 5), max_size=8).map(sorted).map(tuple)
            | st.lists(st.booleans(), min_size=6, max_size=6).map(np.array),
            st.sampled_from([
                (6,), (-1,), (0.5,), (1, 0), ("0",), (None,), 3, ((0, 1),), (True,) * 5,
                np.ones((2, 3), bool), None,
            ]),
        )),
    ),
    "decode_block": (decode_block, dict(block=BLOCKS[0]), dict(block=(
        st.sampled_from(BLOCKS), st.sampled_from([None, 3, "block", (BLOCKS[0],), CELLS]),
    ))),
    "score_block": (score_block, dict(block=BLOCKS[0]), dict(block=(
        st.sampled_from(BLOCKS), st.sampled_from([None, 3, "block", (BLOCKS[0],), CELLS]),
    ))),
    "nearest_bin": (nearest_bin, dict(estimate=0.5), dict(estimate=(
        probability()[0] | st.lists(st.floats(0.0, 1.0), max_size=4).map(np.array),
        probability()[1] | st.sampled_from([np.array([0.5, 1.5]), np.array([True]), ("0.5", 0.5)]),
    ))),
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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclayer.codec import (
    SCHEME_REPEAT,
    SCHEME_RLC,
    SCHEME_XOR,
    decode_block,
    decode_gop,
    encode_block,
    encode_gop,
)
from nclayer.heuristic import builtin_policy
from nclayer.media import make_synthetic_gop
from nclayer.nodes import (
    ReceiverState,
    RelayState,
    SenderState,
    receiver_block,
    relay_block,
    sender_block,
)
from nclayer.spt import build_table


@pytest.fixture(scope="module")
def small_table():
    return build_table(budget=8, layer_count=3, packets_per_layer=2, granularity=2)


def _grid():
    return make_synthetic_gop(0, 3, 2, 8, seed=1)


def _send(sender, grids, estimates):
    """A block of the grids, sent at the given per-GOP estimates."""
    cells = np.stack([grid.cells for grid in grids])
    return sender_block(sender, cells, [grid.gop_id for grid in grids], estimates)


def test_sender_needs_exactly_one_selector(small_table):
    with pytest.raises(ValueError):
        SenderState(scheme=SCHEME_RLC)
    with pytest.raises(ValueError):
        SenderState(
            scheme=SCHEME_RLC, table=small_table, policy=builtin_policy(1)
        )


def test_sender_with_fixed_strategy_never_selects():
    sender = SenderState(scheme=SCHEME_REPEAT, strategy=(2, 2, 2), update_period=1)
    for _ in range(3):
        packets = _send(sender, [_grid()], [0.05])
        assert sender.strategy == (2, 2, 2)
        assert packets.scheme == SCHEME_REPEAT and len(packets) == 6


def test_sender_emits_full_budget(small_table):
    sender = SenderState(
        scheme=SCHEME_RLC, table=small_table, rng=np.random.default_rng(0)
    )
    packets = _send(sender, [_grid()], [1.0])
    assert len(packets) == 8
    assert sender.strategy is not None
    assert sum(sender.strategy) == 8


def test_sender_strategy_refreshes_on_period(small_table):
    sender = SenderState(
        scheme=SCHEME_RLC,
        table=small_table,
        update_period=3,
        rng=np.random.default_rng(0),
    )
    grid = _grid()
    _send(sender, [grid], [1.0])
    lossless = sender.strategy
    # mid-epoch feedback is recorded but must not change the strategy yet
    _send(sender, [grid], [0.05])
    assert sender.strategy == lossless
    _send(sender, [grid], [0.05])
    assert sender.strategy == lossless
    _send(sender, [grid], [0.05])
    assert sender.strategy != lossless
    # one block of the same GOPs selects the same strategy for each
    again = SenderState(
        scheme=SCHEME_RLC, table=small_table, update_period=3,
        rng=np.random.default_rng(0),
    )
    block = _send(again, [grid] * 4, [1.0, 0.05, 0.05, 0.05])
    classes = [
        tuple(np.bincount(block.depth[a:b], minlength=4)[1:].tolist())
        for a, b in zip(block.offsets, block.offsets[1:])
    ]
    assert classes[:3] == [lossless] * 3
    assert classes[3] == sender.strategy != lossless
    assert again.strategy == sender.strategy and again.gop_counter == 4


def test_sender_with_policy():
    sender = SenderState(
        scheme=SCHEME_RLC, policy=builtin_policy(3),
        rng=np.random.default_rng(0),
    )
    grid = make_synthetic_gop(0, 4, 8, 16, seed=0)
    _send(sender, [grid], [1.0])
    assert sender.strategy == (40, 8, 8, 8)


def test_forward_relay_is_transparent():
    relay = RelayState(
        mode="forward", scheme=SCHEME_RLC,
        layer_count=3, packets_per_layer=2, payload_size=8,
    )
    packets = encode_gop(_grid(), (4, 2, 2), SCHEME_RLC, seed=0)
    out = relay_block(relay, packets, [1.0], decode_block(packets, 3, 2, 8))
    assert out is packets


def test_nc_relay_requires_table():
    with pytest.raises(ValueError):
        RelayState(
            mode="nc", scheme=SCHEME_RLC,
            layer_count=3, packets_per_layer=2, payload_size=8,
        )


def test_nc_relay_reencodes_full_budget(small_table):
    relay = RelayState(
        mode="nc", scheme=SCHEME_RLC,
        layer_count=3, packets_per_layer=2, payload_size=8,
        table=small_table, pdr_estimate=1.0, rng=np.random.default_rng(0),
    )
    packets = encode_gop(_grid(), (4, 2, 2), SCHEME_RLC, seed=0)
    decoded = decode_block(packets, 3, 2, 8)
    assert decoded[0].tolist() == [3]
    out = relay_block(relay, packets, [1.0], decoded)
    assert len(out) == 8
    assert out.gop_ids.tolist() == [0]


def test_nc_relay_never_encodes_past_decoded_depth(small_table):
    relay = RelayState(
        mode="nc", scheme=SCHEME_RLC,
        layer_count=3, packets_per_layer=2, payload_size=8,
        table=small_table, pdr_estimate=1.0, rng=np.random.default_rng(0),
    )
    # only class-1 packets arrive: the relay can recover just layer 1
    packets = encode_gop(_grid(), (4, 0, 0), SCHEME_RLC, seed=0).select(np.arange(3))
    decoded = decode_block(packets, 3, 2, 8)
    assert decoded[0].tolist() == [1]
    out = relay_block(relay, packets, [1.0], decoded)
    assert len(out) == 8
    assert (out.depth == 1).all()


def test_nc_relay_empty_input(small_table):
    relay = RelayState(
        mode="nc", scheme=SCHEME_RLC,
        layer_count=3, packets_per_layer=2, payload_size=8,
        table=small_table,
    )
    empty = encode_gop(_grid(), (0, 0, 0), SCHEME_RLC)
    decoded = decode_block(empty, 3, 2, 8)
    assert decoded[0].tolist() == [0]
    out = relay_block(relay, empty, [1.0], decoded)
    assert len(out) == 0 and out.sizes.tolist() == [0]
    # a GOP that lost everything sends nothing and leaves its neighbours be
    cells = np.stack([_grid().cells] * 3)
    block = encode_block(cells, [0, 1, 2], [(4, 2, 2), (0, 0, 0), (4, 2, 2)], SCHEME_RLC, [0] * 3)
    out = relay_block(relay, block, [1.0] * 3, decode_block(block, 3, 2, 8))
    assert out.sizes.tolist() == [8, 0, 8]


def test_decoders_reject_coefficient_free_batches(small_table):
    # a batch built for a counting receiver must fail loudly at a decoder
    bare = encode_gop(make_synthetic_gop(0, 3, 2, 0), (4, 2, 2), SCHEME_RLC, 0, 0)
    relay = RelayState(
        mode="nc", scheme=SCHEME_RLC,
        layer_count=3, packets_per_layer=2, payload_size=0, table=small_table,
    )
    with pytest.raises(ValueError, match="coefficients"):
        decode_block(bare, relay.layer_count, relay.packets_per_layer, relay.payload_size)
    receiver = ReceiverState(
        layer_count=3, packets_per_layer=2, payload_size=0, verify_payloads=True
    )
    with pytest.raises(ValueError, match="coefficients"):
        receiver_block(receiver, bare)


def test_receiver_counts_and_reset():
    receiver = ReceiverState(layer_count=3, packets_per_layer=2, payload_size=8)
    cells = np.stack([_grid().cells] * 2)
    packets = encode_block(cells, [0, 1], [(4, 2, 2)] * 2, SCHEME_RLC, [0, 0])
    # the second GOP gets only the deeper classes, [0, 2, 2]; nothing of the
    # first GOP's counts may carry over into its score
    arrived = packets.select(np.r_[0:8, 12:16])
    assert arrived.sizes.tolist() == [8, 4]
    decoded = receiver_block(receiver, arrived)
    assert decoded.tolist() == [3, 0]


def test_receiver_rejects_overdeep_packet():
    receiver = ReceiverState(layer_count=2, packets_per_layer=2, payload_size=8)
    packets = encode_gop(_grid(), (0, 0, 2), SCHEME_RLC, seed=0)
    with pytest.raises(ValueError):
        receiver_block(receiver, packets.select(np.arange(1)))


def test_receiver_verification_clean_path():
    grid = _grid()
    receiver = ReceiverState(
        layer_count=3, packets_per_layer=2, payload_size=8, verify_payloads=True
    )
    packets = encode_gop(grid, (4, 2, 2), SCHEME_RLC, seed=3)
    decoded = receiver_block(receiver, packets, references=grid.cells[None])
    assert decoded.tolist() == [3]
    assert receiver.prediction_gaps == 0
    assert receiver.payload_errors == 0


def test_receiver_rejects_foreign_scheme():
    receiver = ReceiverState(layer_count=3, packets_per_layer=2, payload_size=8)
    with pytest.raises(ValueError, match="xor"):
        receiver_block(receiver, encode_gop(_grid(), (2, 2, 2), SCHEME_XOR))


@settings(max_examples=150, deadline=None)
@given(
    scheme=st.sampled_from([SCHEME_RLC, SCHEME_XOR, SCHEME_REPEAT]),
    strategy=st.lists(st.integers(min_value=0, max_value=6), min_size=3, max_size=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_receiver_score_against_real_decoding(scheme, strategy, seed, data):
    # column schemes are scored by coverage, which is exactly the decoded
    # depth; the RLC count rule can only overstate it (a singular system)
    grid = _grid()
    packets = encode_gop(grid, strategy, scheme, seed=seed)
    mask = data.draw(st.lists(st.booleans(), min_size=len(packets), max_size=len(packets)))
    survivors = packets.select(np.array(mask, dtype=bool))
    receiver = ReceiverState(layer_count=3, packets_per_layer=2, payload_size=8, scheme=scheme)
    (score,) = receiver_block(receiver, survivors)
    depth, recovered = decode_gop(survivors, 3, 2, 8)
    assert recovered.gop_id == grid.gop_id
    if scheme == SCHEME_RLC:
        assert score >= depth
    else:
        assert score == depth
    assert np.array_equal(recovered.cells[:depth], grid.cells[:depth])

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclayer.codec import SCHEME_REPEAT, SCHEME_RLC, SCHEME_XOR, decode_gop, encode_gop
from nclayer.heuristic import builtin_policy
from nclayer.media import make_synthetic_gop
from nclayer.nodes import (
    FeedbackReport,
    ReceiverState,
    RelayState,
    SenderState,
    receiver_finalize_gop,
    receiver_ingest,
    relay_step,
    sender_epoch,
)
from nclayer.spt import build_table


@pytest.fixture(scope="module")
def small_table():
    return build_table(budget=8, layer_count=3, packets_per_layer=2, granularity=2)


def _grid():
    return make_synthetic_gop(0, 3, 2, 8, seed=1)


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
        packets = sender_epoch(sender, _grid(), FeedbackReport("s", 5, 100))
        assert sender.strategy == (2, 2, 2)
        assert packets.scheme == SCHEME_REPEAT and len(packets) == 6


def test_sender_emits_full_budget(small_table):
    sender = SenderState(
        scheme=SCHEME_RLC, table=small_table, rng=np.random.default_rng(0)
    )
    packets = sender_epoch(sender, _grid(), FeedbackReport("s", 100, 100))
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
    sender_epoch(sender, grid, FeedbackReport("s", 100, 100))
    lossless = sender.strategy
    # mid-epoch feedback is recorded but must not change the strategy yet
    sender_epoch(sender, grid, FeedbackReport("s", 5, 100))
    assert sender.strategy == lossless
    sender_epoch(sender, grid, FeedbackReport("s", 5, 100))
    assert sender.strategy == lossless
    sender_epoch(sender, grid, FeedbackReport("s", 5, 100))
    assert sender.strategy != lossless


def test_sender_with_policy():
    sender = SenderState(
        scheme=SCHEME_RLC, policy=builtin_policy(3),
        rng=np.random.default_rng(0),
    )
    grid = make_synthetic_gop(0, 4, 8, 16, seed=0)
    sender_epoch(sender, grid, FeedbackReport("s", 100, 100))
    assert sender.strategy == (40, 8, 8, 8)


def test_forward_relay_is_transparent():
    relay = RelayState(
        mode="forward", scheme=SCHEME_RLC,
        layer_count=3, packets_per_layer=2, payload_size=8,
    )
    packets = encode_gop(_grid(), (4, 2, 2), SCHEME_RLC, seed=0)
    out = relay_step(relay, packets)
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
    out = relay_step(relay, packets)
    assert relay.last_decoded == 3
    assert len(out) == 8
    assert out.gop_id == 0


def test_nc_relay_never_encodes_past_decoded_depth(small_table):
    relay = RelayState(
        mode="nc", scheme=SCHEME_RLC,
        layer_count=3, packets_per_layer=2, payload_size=8,
        table=small_table, pdr_estimate=1.0, rng=np.random.default_rng(0),
    )
    # only class-1 packets arrive: the relay can recover just layer 1
    packets = encode_gop(_grid(), (4, 0, 0), SCHEME_RLC, seed=0)[:3]
    out = relay_step(relay, packets)
    assert relay.last_decoded == 1
    assert len(out) == 8
    assert (out.depth == 1).all()


def test_nc_relay_empty_input(small_table):
    relay = RelayState(
        mode="nc", scheme=SCHEME_RLC,
        layer_count=3, packets_per_layer=2, payload_size=8,
        table=small_table,
    )
    assert relay_step(relay, []) == []
    assert relay.last_decoded == 0
    empty = encode_gop(_grid(), (0, 0, 0), SCHEME_RLC)
    assert len(relay_step(relay, empty)) == 0


def test_decoders_reject_coefficient_free_batches(small_table):
    # a batch built for a counting receiver must fail loudly at a decoder
    bare = encode_gop(make_synthetic_gop(0, 3, 2, 0), (4, 2, 2), SCHEME_RLC, 0, 0)
    relay = RelayState(
        mode="nc", scheme=SCHEME_RLC,
        layer_count=3, packets_per_layer=2, payload_size=0, table=small_table,
    )
    with pytest.raises(ValueError, match="coefficients"):
        relay_step(relay, bare)
    receiver = ReceiverState(
        layer_count=3, packets_per_layer=2, payload_size=0, verify_payloads=True
    )
    receiver_ingest(receiver, bare)
    with pytest.raises(ValueError, match="coefficients"):
        receiver_finalize_gop(receiver)


def test_receiver_counts_and_reset():
    receiver = ReceiverState(layer_count=3, packets_per_layer=2, payload_size=8)
    packets = encode_gop(_grid(), (4, 2, 2), SCHEME_RLC, seed=0)
    receiver_ingest(receiver, packets[:3])
    receiver_ingest(receiver, packets[3:])
    assert receiver.counts.tolist() == [4, 2, 2]
    decoded = receiver_finalize_gop(receiver)
    assert decoded == 3
    assert receiver.counts.tolist() == [0, 0, 0]
    assert receiver.history == [3]


def test_receiver_rejects_overdeep_packet():
    receiver = ReceiverState(layer_count=2, packets_per_layer=2, payload_size=8)
    packets = encode_gop(_grid(), (0, 0, 2), SCHEME_RLC, seed=0)
    with pytest.raises(ValueError):
        receiver_ingest(receiver, packets[:1])


def test_receiver_verification_clean_path():
    grid = _grid()
    receiver = ReceiverState(
        layer_count=3, packets_per_layer=2, payload_size=8, verify_payloads=True
    )
    packets = encode_gop(grid, (4, 2, 2), SCHEME_RLC, seed=3)
    receiver_ingest(receiver, packets[:5])
    receiver_ingest(receiver, packets[5:])
    decoded = receiver_finalize_gop(receiver, reference=grid)
    assert decoded == 3
    assert receiver.prediction_gaps == 0
    assert receiver.payload_errors == 0
    assert receiver.buffer == []


def test_receiver_rejects_foreign_scheme():
    receiver = ReceiverState(layer_count=3, packets_per_layer=2, payload_size=8)
    with pytest.raises(ValueError, match="xor"):
        receiver_ingest(receiver, encode_gop(_grid(), (2, 2, 2), SCHEME_XOR))


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
    survivors = packets[np.array(mask, dtype=bool)]
    receiver = ReceiverState(layer_count=3, packets_per_layer=2, payload_size=8, scheme=scheme)
    receiver_ingest(receiver, survivors)
    score = receiver_finalize_gop(receiver)
    depth, recovered = decode_gop(survivors, 3, 2, 8, gop_id=grid.gop_id)
    if scheme == SCHEME_RLC:
        assert score >= depth
    else:
        assert score == depth
    assert np.array_equal(recovered.cells[:depth], grid.cells[:depth])

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nclayer.simulator as simulator
from nclayer.codec import (
    SCHEME_REPEAT,
    SCHEME_RLC,
    SCHEME_XOR,
    decode_block,
    encode_block,
    encode_gop,
    score_block,
)
from nclayer.heuristic import ThresholdPolicy, builtin_policy
from nclayer.media import make_synthetic_gop
from nclayer.nodes import pick_strategies
from nclayer.simulator import ChainConfig, run
from nclayer.spt import build_table
from oracles import max_cover, rref_reference, sent_strategies


@pytest.fixture(scope="module")
def small_table():
    return build_table(budget=8, layer_count=3, packets_per_layer=2, granularity=2)


def _grid():
    return make_synthetic_gop(0, 3, 2, 8, seed=1)


def _encode(selector, cells, estimates, depths, rng, scheme=SCHEME_RLC):
    """A block of GOP k from the first depths[k] layers of cells[k], under
    the strategies the selector picks at the per-GOP estimates, as run()
    picks and then encodes for a node."""
    return encode_block(cells, pick_strategies(selector, estimates, depths), scheme, rng)


def _send(selector, grids, estimates, rng, scheme=SCHEME_RLC):
    """A block of the grids, sent at the given per-GOP estimates by a node
    holding every layer of each."""
    cells = np.stack(grids)
    depths = [cells.shape[1]] * len(grids)
    return _encode(selector, cells, estimates, depths, rng, scheme)


def test_nodes_pick_from_a_table_or_a_policy(small_table):
    # a node picks from a strategy table or a threshold policy, and from
    # nothing else, such as no selector or a dict naming one
    for selector in (None, {"table": small_table}):
        with pytest.raises(TypeError, match="StrategyTable or a ThresholdPolicy"):
            pick_strategies(selector, [1.0], [3])


def test_sender_with_fixed_strategy_never_selects():
    # the uncoded sender's fixed strategy is a policy of one interval
    policy = ThresholdPolicy((), ((2, 2, 2),))
    assert policy.budget == 6
    for estimate in (0.05, 0.5, 1.0):
        packets = _send(policy, [_grid()], [estimate], np.random.default_rng(0), SCHEME_REPEAT)
        assert sent_strategies(packets) == [(2, 2, 2)]
        assert packets.scheme == SCHEME_REPEAT and len(packets) == 6


def test_sender_emits_full_budget(small_table):
    packets = _send(small_table, [_grid()], [1.0], np.random.default_rng(0))
    assert len(packets) == small_table.budget == 8
    (strategy,) = sent_strategies(packets)
    assert strategy == small_table.best_strategy(19)


def test_encoder_picks_each_gop_from_the_estimate_in_force(small_table):
    # run() probes on period GOPs and holds each estimate until the next
    # probe, so a sender that picks every GOP from the estimate in force
    # keeps its strategy between probes; one block of GOPs picks and draws
    # coefficients as the GOPs do one at a time
    estimates = [1.0, 1.0, 1.0, 0.05]
    grid = _grid()
    alone = np.random.default_rng(0)
    one_by_one = [_send(small_table, [grid], [e], alone) for e in estimates]
    lossless, lossy = small_table.best_strategy(19), small_table.best_strategy(0)
    assert lossless != lossy
    assert [sent_strategies(b)[0] for b in one_by_one] == [lossless] * 3 + [lossy]
    block = _send(small_table, [grid] * 4, estimates, np.random.default_rng(0))
    assert sent_strategies(block) == [lossless] * 3 + [lossy]
    assert np.array_equal(block.coeffs, np.concatenate([b.coeffs for b in one_by_one]))


def test_forward_relay_is_transparent(default_table, monkeypatch):
    # a forwarding relay has no state and no step: over lossless links the
    # verifying receiver decodes exactly the packets the sender encoded
    sent, received = [], []
    encode_step, decode_step = simulator.encode_block, simulator.decode_block

    def encoding(*args):
        sent.append(encode_step(*args))
        return sent[-1]

    def receiving(block):
        received.append(block)
        return decode_step(block)

    monkeypatch.setattr(simulator, "encode_block", encoding)
    monkeypatch.setattr(simulator, "decode_block", receiving)
    config = ChainConfig(link_pdrs=(1.0,) * 3, gop_count=5, verify_payloads=True)
    run(config, table=default_table)
    ((a,), (b,)) = sent, received
    for name in ("counts", "payload", "coeffs"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_sender_strategy_refreshes_on_period(default_table, monkeypatch):
    # the sender probes only on update_period GOPs and each estimate holds
    # until the next probe, so its strategy can change only on those GOPs
    picked = []
    pick_step = simulator.pick_strategies

    def picking(*args):
        picked.append(pick_step(*args))
        return picked[-1]

    monkeypatch.setattr(simulator, "pick_strategies", picking)
    config = ChainConfig(
        link_pdrs=(1.0,), gop_count=7, update_period=3, pdr_schedule=((1, 0, 0.05),)
    )
    run(config, table=default_table)
    lossless, lossy = default_table.best_strategy(19), default_table.best_strategy(0)
    assert lossless != lossy
    assert [tuple(s) for s in picked[0].tolist()] == [lossless] * 3 + [lossy] * 4


def test_sender_with_policy():
    grid = make_synthetic_gop(0, 4, 8, 16, seed=0)
    packets = _send(builtin_policy(3), [grid], [1.0], np.random.default_rng(0))
    assert sent_strategies(packets) == [(40, 8, 8, 8)]


def test_nc_relay_reencodes_full_budget(small_table):
    packets = encode_gop(_grid(), (4, 2, 2), SCHEME_RLC, seed=0)
    depths, cells = decode_block(packets)
    assert depths.tolist() == [3]
    out = _encode(small_table, cells, [1.0], depths, np.random.default_rng(0))
    assert len(out) == 8
    assert out.counts.sum(axis=1).tolist() == [8]


def test_nc_relay_never_encodes_past_decoded_depth(small_table):
    # only class-1 packets arrive: the relay can recover just layer 1
    packets = encode_gop(_grid(), (4, 0, 0), SCHEME_RLC, seed=0).select(np.arange(3))
    depths, cells = decode_block(packets)
    assert depths.tolist() == [1]
    out = _encode(small_table, cells, [1.0], depths, np.random.default_rng(0))
    assert len(out) == 8
    assert out.counts.tolist() == [[8, 0, 0]]


def test_nc_relay_empty_input(small_table):
    empty = encode_gop(_grid(), (0, 0, 0), SCHEME_RLC)
    depths, cells = decode_block(empty)
    assert depths.tolist() == [0]
    out = _encode(small_table, cells, [1.0], depths, np.random.default_rng(0))
    assert len(out) == 0 and out.counts.tolist() == [[0, 0, 0]]
    # a GOP that lost everything sends nothing, draws no coefficients, and leaves
    # its neighbours be
    cells = np.stack([_grid()] * 3)
    strategies = [(4, 2, 2), (0, 0, 0), (4, 2, 2)]
    block = encode_block(cells, strategies, SCHEME_RLC, np.random.default_rng(0))
    depths, decoded = decode_block(block)
    out = _encode(small_table, decoded, [1.0] * 3, depths, np.random.default_rng(5))
    assert out.counts.sum(axis=1).tolist() == [8, 0, 8]
    rng = np.random.default_rng(5)
    full = _encode(small_table, decoded[[0, 2]], [1.0] * 2, depths[[0, 2]], rng)
    assert np.array_equal(out.coeffs, full.coeffs)


def test_encoder_block_needs_one_estimate_and_depth_per_gop(small_table):
    # one estimate or one depth for a 2-GOP block would broadcast to both,
    # and the pick of 3 GOPs is refused by the encode of 2
    cells = np.stack([_grid()] * 2)
    rng = np.random.default_rng(0)
    for estimates, depths in (([0.7], [3, 3]), ([0.7] * 2, [3]), (0.7, [3, 3])):
        with pytest.raises(ValueError, match="one estimate and one depth per GOP"):
            _encode(small_table, cells, estimates, depths, rng)
    with pytest.raises(ValueError, match="one strategy of 3 classes per grid"):
        _encode(small_table, cells, [0.7] * 3, [3] * 3, rng)
    out = _encode(small_table, cells, [0.7] * 2, [3, 3], rng)
    assert out.counts.sum(axis=1).tolist() == [8, 8]


def test_policy_encoder_refuses_a_partial_depth():
    # a policy picks by interval among allocations of every class, so a GOP
    # holding 1..L-1 layers would be sent classes it does not hold; builtin
    # set 3 would send (40, 8, 8, 8) at depth 2. Depth 0 sends nothing
    policy = builtin_policy(3)
    cells = np.zeros((1, 4, 8, 0), dtype=np.uint8)
    for depth in (1, 2, 3):
        with pytest.raises(ValueError, match="must hold all 4 layers"):
            _encode(policy, cells, [1.0], [depth], np.random.default_rng(0))
    assert pick_strategies(policy, [1.0, 1.0], [0, 4]).tolist() == [[0] * 4, [40, 8, 8, 8]]


@pytest.mark.parametrize("selector", ["table", "policy"])
def test_encoders_refuse_an_estimate_outside_the_unit_interval(selector, default_table):
    # a delivery estimate is a probability; one outside [0, 1], or NaN,
    # names no bin or interval and is refused, whatever the GOP's depth
    chosen = default_table if selector == "table" else builtin_policy(3)
    cells = np.zeros((2, 4, 8, 0), dtype=np.uint8)
    rng = np.random.default_rng(0)
    for estimate in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            _encode(chosen, cells, [0.5, estimate], [4, 4], rng)
    assert _encode(chosen, cells, [0.0, 1.0], [4, 4], rng).counts.sum(axis=1).tolist() == [64, 64]


def test_full_depth_relay_sends_what_the_sender_sends_under_a_tied_best_row(default_table):
    # a node holding every layer picks as the sender does, so in every bin,
    # those of 0.85 to 1.00 with exact ties for the best value among them,
    # a relay that decoded all four layers re-encodes with the sender's pick
    bins = np.array(default_table.pdr_bins)
    values = default_table.values
    tied = bins[(values == values.max(axis=0)).sum(axis=0) > 1]
    assert tied.tolist() == [0.85, 0.9, 0.95, 1.0]
    cells = np.zeros((len(bins), 4, 8, 0), dtype=np.uint8)
    picks = [default_table.best_strategy(b) for b in range(len(bins))]
    block = _encode(default_table, cells, bins, [4] * len(bins), np.random.default_rng(0))
    assert sent_strategies(block) == picks


def test_receiver_counts_and_reset():
    cells = np.stack([_grid()] * 2)
    packets = encode_block(cells, [(4, 2, 2)] * 2, SCHEME_RLC, np.random.default_rng(0))
    # the second GOP gets only the deeper classes, [0, 2, 2]; nothing of the
    # first GOP's counts may carry over into its score
    arrived = packets.select(np.r_[0:8, 12:16])
    assert arrived.counts.tolist() == [[4, 2, 2], [0, 2, 2]]
    assert score_block(arrived).tolist() == [3, 0]


def test_receiver_rejects_overdeep_packet():
    # a class-3 RLC packet carries three layers' coefficients, which a
    # block of two classes refuses; under xor a block's counts must name
    # exactly the packets it holds
    packets = encode_gop(_grid(), (0, 0, 2), SCHEME_RLC, seed=0).select(np.arange(1))
    with pytest.raises(ValueError, match="need 4 coefficients, got 6"):
        replace(packets, counts=[[0, 1]])
    packets = encode_gop(_grid(), (0, 0, 2), SCHEME_XOR, seed=0).select(np.arange(1))
    for counts in ([[0, 0, 2]], [[0, 0, 0]]):
        with pytest.raises(ValueError, match="payload row"):
            replace(packets, counts=counts)


def test_receiver_verification_clean_path():
    # a verifying run decodes what the receiver got: on a clean path the
    # decode matches the score and the source bytes
    grid = _grid()
    packets = encode_gop(grid, (4, 2, 2), SCHEME_RLC, seed=3)
    assert score_block(packets).tolist() == [3]
    depths, cells = decode_block(packets)
    assert depths.tolist() == [3]
    assert np.array_equal(cells[0], grid)
    metrics = run(ChainConfig(link_pdrs=(1.0,), gop_count=5, verify_payloads=True))
    assert (metrics.prediction_gaps, metrics.payload_errors) == (0, 0)


# the two surviving class-2 packets have a singular layer-2 block, so they
# also give a second equation on layer 1: the count rule scores 0, while
# the decoder recovers layer 1
RLC_COUNTEREXAMPLE = dict(
    scheme=SCHEME_RLC, strategy=[1, 3, 0], seed=57, mask=[True, True, False] + [True] * 15
)


def test_real_decoding_beats_the_count_rule_on_the_pinned_case():
    # the pinned example exercises the score falling short of the decode
    # only while its coefficients make that happen
    case = RLC_COUNTEREXAMPLE
    packets = encode_gop(_grid(), case["strategy"], case["scheme"], seed=case["seed"])
    survivors = packets.select(np.array(case["mask"][: len(packets)]))
    (score,) = score_block(survivors)
    (depth,), (_,) = decode_block(survivors)
    assert score < depth


def _gf_rank(rows):
    return int(np.count_nonzero(rref_reference(rows.copy(), rows.shape[1]) >= 0))


@settings(max_examples=150, deadline=None)
@given(
    scheme=st.sampled_from([SCHEME_RLC, SCHEME_XOR, SCHEME_REPEAT]),
    strategy=st.lists(st.integers(min_value=0, max_value=6), min_size=3, max_size=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    mask=st.lists(st.booleans(), min_size=18, max_size=18),
)
@example(**RLC_COUNTEREXAMPLE)
def test_receiver_score_against_real_decoding(scheme, strategy, seed, mask):
    # column schemes are scored by coverage, which is exactly the decoded
    # depth. The RLC count rule is the rank criterion at the generic ranks
    # of the received coefficients, restricted to the columns of the layers
    # from each depth on, so it can differ from the real decode either way,
    # but only when one of those blocks falls short of its generic rank
    grid = _grid()
    packets = encode_gop(grid, strategy, scheme, seed=seed)
    survivors = packets.select(np.array(mask[: len(packets)], dtype=bool))
    (score,) = score_block(survivors)
    (depth,), (recovered,) = decode_block(survivors)
    if scheme == SCHEME_RLC:
        counts = survivors.counts[0].tolist()
        generic = all(
            _gf_rank(survivors.coeffs[:, 2 * (shallowest - 1) :])
            == max_cover(counts, 2, shallowest)
            for shallowest in range(1, 4)
        )
        assert score == depth or not generic
    else:
        assert score == depth
    assert np.array_equal(recovered[:depth], grid[:depth])

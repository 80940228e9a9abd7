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
from nclayer.media import make_synthetic_cells, make_synthetic_gop
from nclayer.nodes import Encoder, encoder_block
from nclayer.simulator import ChainConfig, run
from nclayer.spt import build_table, load_table, nearest_bin, save_table
from oracles import max_cover, rref_reference, sent_strategies


@pytest.fixture(scope="module")
def small_table():
    return build_table(budget=8, layer_count=3, packets_per_layer=2, granularity=2)


def _grid():
    return make_synthetic_gop(0, 3, 2, 8, seed=1)


def _send(encoder, grids, estimates):
    """A block of the grids, sent at the given per-GOP estimates by an
    encoder holding every layer of each."""
    cells = np.stack(grids)
    depths = [cells.shape[1]] * len(grids)
    return encoder_block(encoder, cells, estimates, depths)


def test_sender_needs_exactly_one_selector(small_table):
    with pytest.raises(ValueError, match="exactly one"):
        Encoder(
            scheme=SCHEME_RLC,
            table=small_table,
            policy=builtin_policy(1),
            rng=np.random.default_rng(0),
        )


def test_nc_relay_requires_table():
    with pytest.raises(ValueError, match="exactly one"):
        Encoder(scheme=SCHEME_RLC, rng=np.random.default_rng(0))


def test_sender_with_fixed_strategy_never_selects():
    # the uncoded sender's fixed strategy is a policy of one interval
    sender = Encoder(
        scheme=SCHEME_REPEAT,
        policy=ThresholdPolicy((), ((2, 2, 2),)),
        rng=np.random.default_rng(0),
    )
    assert sender.spend == 6
    for estimate in (0.05, 0.5, 1.0):
        packets = _send(sender, [_grid()], [estimate])
        assert sent_strategies(packets, 3) == [(2, 2, 2)]
        assert packets.scheme == SCHEME_REPEAT and len(packets) == 6


def test_sender_emits_full_budget(small_table):
    sender = Encoder(scheme=SCHEME_RLC, table=small_table, rng=np.random.default_rng(0))
    packets = _send(sender, [_grid()], [1.0])
    assert len(packets) == sender.spend == 8
    (strategy,) = sent_strategies(packets, 3)
    assert strategy == small_table.best_strategy(19)


def test_encoder_picks_each_gop_from_the_estimate_in_force(small_table):
    # run() probes on period GOPs and holds each estimate until the next
    # probe, so a sender that picks every GOP from the estimate in force
    # keeps its strategy between probes; one block of GOPs picks and draws
    # coefficients as the GOPs do one at a time
    estimates = [1.0, 1.0, 1.0, 0.05]
    grid = _grid()
    alone = Encoder(scheme=SCHEME_RLC, table=small_table, rng=np.random.default_rng(0))
    one_by_one = [_send(alone, [grid], [e]) for e in estimates]
    lossless, lossy = small_table.best_strategy(19), small_table.best_strategy(0)
    assert lossless != lossy
    assert [sent_strategies(b, 3)[0] for b in one_by_one] == [lossless] * 3 + [lossy]
    again = Encoder(scheme=SCHEME_RLC, table=small_table, rng=np.random.default_rng(0))
    block = _send(again, [grid] * 4, estimates)
    assert sent_strategies(block, 3) == [lossless] * 3 + [lossy]
    assert np.array_equal(block.coeffs, np.concatenate([b.coeffs for b in one_by_one]))


def test_forward_relay_is_transparent(default_table, monkeypatch):
    # a forwarding relay has no state and no step: over lossless links the
    # receiver gets exactly the packets the sender encoded
    sent, received = [], []
    encoder_step, score_step = simulator.encoder_block, simulator.score_block

    def encoding(*args):
        sent.append(encoder_step(*args))
        return sent[-1]

    def receiving(block, *args):
        received.append(block)
        return score_step(block, *args)

    monkeypatch.setattr(simulator, "encoder_block", encoding)
    monkeypatch.setattr(simulator, "score_block", receiving)
    config = ChainConfig(link_pdrs=(1.0,) * 3, gop_count=5, verify_payloads=True)
    run(config, table=default_table)
    ((a,), (b,)) = sent, received
    for name in ("offsets", "depth", "payload", "coeffs"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_sender_strategy_refreshes_on_period(default_table, monkeypatch):
    # the sender probes only on update_period GOPs and each estimate holds
    # until the next probe, so its strategy can change only on those GOPs
    sent = []
    encoder_step = simulator.encoder_block

    def encoding(*args):
        sent.append(encoder_step(*args))
        return sent[-1]

    monkeypatch.setattr(simulator, "encoder_block", encoding)
    config = ChainConfig(
        link_pdrs=(1.0,), gop_count=7, update_period=3, pdr_schedule=((1, 0, 0.05),)
    )
    run(config, table=default_table)
    lossless, lossy = default_table.best_strategy(19), default_table.best_strategy(0)
    assert lossless != lossy
    assert sent_strategies(sent[0], 4) == [lossless] * 3 + [lossy] * 4


def test_sender_with_policy():
    sender = Encoder(scheme=SCHEME_RLC, policy=builtin_policy(3), rng=np.random.default_rng(0))
    grid = make_synthetic_gop(0, 4, 8, 16, seed=0)
    packets = encoder_block(sender, grid[None], [1.0], [4])
    assert sent_strategies(packets, 4) == [(40, 8, 8, 8)]


def test_nc_relay_reencodes_full_budget(small_table):
    relay = Encoder(scheme=SCHEME_RLC, table=small_table, rng=np.random.default_rng(0))
    packets = encode_gop(_grid(), (4, 2, 2), SCHEME_RLC, seed=0)
    depths, cells = decode_block(packets, 3, 2, 8)
    assert depths.tolist() == [3]
    out = encoder_block(relay, cells, [1.0], depths)
    assert len(out) == 8
    assert out.offsets.tolist() == [0, 8]


def test_nc_relay_never_encodes_past_decoded_depth(small_table):
    relay = Encoder(scheme=SCHEME_RLC, table=small_table, rng=np.random.default_rng(0))
    # only class-1 packets arrive: the relay can recover just layer 1
    packets = encode_gop(_grid(), (4, 0, 0), SCHEME_RLC, seed=0).select(np.arange(3))
    depths, cells = decode_block(packets, 3, 2, 8)
    assert depths.tolist() == [1]
    out = encoder_block(relay, cells, [1.0], depths)
    assert len(out) == 8
    assert (out.depth == 1).all()


def test_nc_relay_empty_input(small_table):
    relay = Encoder(scheme=SCHEME_RLC, table=small_table, rng=np.random.default_rng(0))
    empty = encode_gop(_grid(), (0, 0, 0), SCHEME_RLC)
    depths, cells = decode_block(empty, 3, 2, 8)
    assert depths.tolist() == [0]
    out = encoder_block(relay, cells, [1.0], depths)
    assert len(out) == 0 and out.sizes.tolist() == [0]
    # a GOP that lost everything sends nothing, draws no coefficients, and leaves
    # its neighbours be
    cells = np.stack([_grid()] * 3)
    strategies = [(4, 2, 2), (0, 0, 0), (4, 2, 2)]
    block = encode_block(cells, strategies, SCHEME_RLC, np.random.default_rng(0))
    depths, decoded = decode_block(block, 3, 2, 8)
    seeded = Encoder(scheme=SCHEME_RLC, table=small_table, rng=np.random.default_rng(5))
    out = encoder_block(seeded, decoded, [1.0] * 3, depths)
    assert out.sizes.tolist() == [8, 0, 8]
    both = Encoder(scheme=SCHEME_RLC, table=small_table, rng=np.random.default_rng(5))
    full = encoder_block(both, decoded[[0, 2]], [1.0] * 2, depths[[0, 2]])
    assert np.array_equal(out.coeffs, full.coeffs)


def test_encoder_block_needs_one_estimate_and_depth_per_gop(small_table):
    # one estimate or one depth for a 2-GOP block would broadcast to both
    relay = Encoder(scheme=SCHEME_RLC, table=small_table, rng=np.random.default_rng(0))
    cells = np.stack([_grid()] * 2)
    wrong = (([0.7], [3, 3]), ([0.7] * 2, [3]), (0.7, [3, 3]), ([0.7] * 3, [3] * 3))
    for estimates, depths in wrong:
        with pytest.raises(ValueError, match="one estimate and one depth per GOP"):
            encoder_block(relay, cells, estimates, depths)
    assert encoder_block(relay, cells, [0.7] * 2, [3, 3]).sizes.tolist() == [8, 8]


def test_full_depth_relay_sends_what_the_sender_sends_under_a_tied_best_row(
    default_table, tmp_path
):
    # at 0.90 the standard table has exact ties for the best value; a file
    # whose best row names another of them loads, and an encoder holding
    # every layer is the sender, so a relay that decoded all four layers
    # re-encodes with the file's pick, not the lexicographic tie rule's
    path = tmp_path / "table.txt"
    save_table(default_table, path)
    lines = path.read_text().splitlines()
    (row,) = [i for i, line in enumerate(lines) if line.startswith("best,0.90,")]
    lines[row] = "best,0.90,0,0,4,60," + lines[row].rsplit(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    table = load_table(path)
    bin_index = nearest_bin(0.9)
    tied = (0, 0, 4, 60)
    assert table.best_strategy(bin_index) == tied != default_table.best_strategy(bin_index)
    assert table.restricted_index[bin_index, 4] == table.best_index[bin_index]
    cells = np.zeros((1, 4, 8, 0), dtype=np.uint8)
    sender = Encoder(scheme=SCHEME_RLC, table=table, rng=None)
    relay = Encoder(scheme=SCHEME_RLC, table=table, rng=None)
    for encoder in (sender, relay):
        block = encoder_block(encoder, cells, [0.9], [4])
        assert sent_strategies(block, 4) == [tied]


def test_decoders_reject_coefficient_free_batches():
    # a batch built for a counting receiver must fail loudly at a decoder,
    # and the count rule scores it from its classes alone
    bare = encode_block(make_synthetic_cells([0], 3, 2, 0), [(4, 2, 2)], SCHEME_RLC, None)
    with pytest.raises(ValueError, match="coefficients"):
        decode_block(bare, 3, 2, 0)
    assert score_block(bare, 3, 2).tolist() == [3]


def test_receiver_counts_and_reset():
    cells = np.stack([_grid()] * 2)
    packets = encode_block(cells, [(4, 2, 2)] * 2, SCHEME_RLC, np.random.default_rng(0))
    # the second GOP gets only the deeper classes, [0, 2, 2]; nothing of the
    # first GOP's counts may carry over into its score
    arrived = packets.select(np.r_[0:8, 12:16])
    assert arrived.sizes.tolist() == [8, 4]
    assert score_block(arrived, 3, 2).tolist() == [3, 0]


def test_receiver_rejects_overdeep_packet():
    for scheme in (SCHEME_RLC, SCHEME_XOR):
        packets = encode_gop(_grid(), (0, 0, 2), scheme, seed=0)
        with pytest.raises(ValueError, match="exceeds layer_count 2"):
            score_block(packets.select(np.arange(1)), 2, 2)


def test_receiver_verification_clean_path():
    # a verifying run decodes what the receiver got: on a clean path the
    # decode matches the score and the source bytes
    grid = _grid()
    packets = encode_gop(grid, (4, 2, 2), SCHEME_RLC, seed=3)
    assert score_block(packets, 3, 2).tolist() == [3]
    depths, cells = decode_block(packets, 3, 2, 8)
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
    (score,) = score_block(survivors, 3, 2)
    (depth,), (_,) = decode_block(survivors, 3, 2, 8)
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
    (score,) = score_block(survivors, 3, 2)
    (depth,), (recovered,) = decode_block(survivors, 3, 2, 8)
    if scheme == SCHEME_RLC:
        counts = np.bincount(survivors.depth, minlength=4)[1:].tolist()
        generic = all(
            _gf_rank(survivors.coeffs[:, 2 * (shallowest - 1) :])
            == max_cover(counts, 2, shallowest)
            for shallowest in range(1, 4)
        )
        assert score == depth or not generic
    else:
        assert score == depth
    assert np.array_equal(recovered[:depth], grid[:depth])

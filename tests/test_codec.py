import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclayer.codec import (
    SCHEME_REPEAT,
    SCHEME_RLC,
    SCHEME_XOR,
    PacketBatch,
    PacketBlock,
    decodable_layers,
    decode_block,
    decode_gop,
    encode_block,
    encode_gop,
)
from nclayer.media import make_synthetic_gop
from nclayer.spt import decodable_layers_batch
from oracles import count_vectors, rank_decodable_layers


def test_worked_example_three_classes():
    # one packet each of classes 1..3: the two trailing windows hold enough
    # packets for depth 3 even though class 3 alone only covers one unknown
    assert decodable_layers((1, 1, 1, 0), 1) == 3


def test_decodable_layers_edge_cases():
    assert decodable_layers((0, 0, 0), 1) == 0
    assert decodable_layers((2,), 2) == 1
    assert decodable_layers((1,), 2) == 0
    assert decodable_layers((2, 2, 2), 2) == 3
    # a surplus of shallow packets never unlocks deeper layers
    assert decodable_layers((50, 0, 1), 2) == 1


def test_decodable_layers_matches_rank_oracle_small():
    for layers in (1, 2, 3):
        for per_layer in (1, 2):
            for counts in count_vectors(layers, 4):
                assert decodable_layers(counts, per_layer) == rank_decodable_layers(
                    counts, per_layer
                ), (counts, per_layer)


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4),
    bump=st.integers(min_value=0, max_value=3),
    per_layer=st.integers(min_value=1, max_value=2),
    data=st.data(),
)
def test_decodable_layers_monotone_in_counts(counts, bump, per_layer, data):
    index = data.draw(st.integers(min_value=0, max_value=len(counts) - 1))
    bumped = list(counts)
    bumped[index] += bump
    assert decodable_layers(bumped, per_layer) >= decodable_layers(counts, per_layer)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=5).flatmap(
        lambda layers: st.lists(
            st.lists(st.integers(min_value=0, max_value=20), min_size=layers, max_size=layers),
            min_size=1,
            max_size=8,
        )
    ),
    per_layer=st.integers(min_value=1, max_value=4),
)
def test_decodable_layers_matches_batch_rule(rows, per_layer):
    want = [decodable_layers(row, per_layer) for row in rows]
    assert decodable_layers_batch(np.array(rows), per_layer).tolist() == want


def test_encode_counts_and_classes():
    grid = make_synthetic_gop(0, 4, 8, 16)
    strategy = (3, 0, 2, 1)
    packets = encode_gop(grid, strategy, SCHEME_RLC, seed=1)
    assert len(packets) == 6
    assert packets.gop_id == 0
    assert packets.scheme == SCHEME_RLC
    assert tuple(np.bincount(packets.depth, minlength=5)[1:]) == strategy
    # shallow classes come first
    assert packets.depth.tolist() == [1, 1, 1, 3, 3, 4]
    # a class-d packet mixes the first d layers only; the rest is zero padding
    assert packets.coeffs.shape == (6, 4 * 8)
    widths = [np.flatnonzero(row).max() + 1 for row in packets.coeffs]
    assert all(w <= 8 * d for w, d in zip(widths, packets.depth))
    assert packets.payload.shape == (6, 16)


def test_xor_packets_cycle_columns():
    grid = make_synthetic_gop(0, 2, 3, 4)
    packets = encode_gop(grid, (5, 0), SCHEME_XOR, seed=0)
    assert packets.column.tolist() == [0, 1, 2, 0, 1]
    assert packets.coeffs is None
    # class-1 xor packets are the raw base-layer cells
    assert np.array_equal(packets.payload, grid.cells[0, packets.column])


def test_xor_payload_is_column_xor():
    grid = make_synthetic_gop(1, 3, 2, 8)
    packets = encode_gop(grid, (0, 0, 2), SCHEME_XOR, seed=0)
    want = grid.cells[0, 0] ^ grid.cells[1, 0] ^ grid.cells[2, 0]
    assert np.array_equal(packets.payload[0], want)


def test_xor_round_trip_full_coverage():
    grid = make_synthetic_gop(2, 4, 2, 8)
    # two packets per class covers every (depth, column) cell
    packets = encode_gop(grid, (2, 2, 2, 2), SCHEME_XOR, seed=0)
    decoded, recovered = decode_gop(packets, 4, 2, 8)
    assert decoded == 4
    assert np.array_equal(recovered.cells, grid.cells)


def test_xor_partial_prefix():
    grid = make_synthetic_gop(0, 4, 2, 8)
    packets = encode_gop(grid, (2, 2, 0, 0), SCHEME_XOR, seed=0)
    decoded, recovered = decode_gop(packets, 4, 2, 8)
    assert decoded == 2
    assert np.array_equal(recovered.cells[:2], grid.cells[:2])
    assert not recovered.cells[2:].any()


def test_repeat_sends_runs_of_raw_cells():
    grid = make_synthetic_gop(5, 3, 4, 8)
    # 2 copies of each of the 12 cells: the uncoded sender's fixed allocation
    packets = encode_gop(grid, (8, 8, 8), SCHEME_REPEAT)
    source = (packets.depth.astype(int) - 1) * 4 + packets.column
    assert source.tolist() == np.repeat(np.arange(12), 2).tolist()
    assert packets.coeffs is None
    assert np.array_equal(packets.payload, grid.cells[packets.depth - 1, packets.column])
    decoded, recovered = decode_gop(packets[1::2], 3, 4, 8)
    assert decoded == 3
    assert np.array_equal(recovered.cells, grid.cells)
    # a lost cell of layer 2 stops the prefix there, with no peeling
    lost = packets[~np.isin(source, [5])]
    decoded, recovered = decode_gop(lost, 3, 4, 8)
    assert decoded == 1
    assert np.array_equal(recovered.cells[0], grid.cells[0])
    assert not recovered.cells[1:].any()


def test_rlc_round_trip_full_budget():
    grid = make_synthetic_gop(7, 4, 8, 64)
    packets = encode_gop(grid, (40, 8, 8, 8), SCHEME_RLC, seed=11)
    decoded, recovered = decode_gop(packets, 4, 8, 64)
    assert decoded == 4
    assert np.array_equal(recovered.cells, grid.cells)


def test_rlc_decode_never_exceeds_count_prediction():
    grid = make_synthetic_gop(3, 3, 2, 8)
    packets = encode_gop(grid, (3, 2, 3), SCHEME_RLC, seed=2)
    rng = np.random.default_rng(0)
    hits = 0
    trials = 60
    for _ in range(trials):
        kept = packets[rng.random(len(packets)) < 0.7]
        counts = np.bincount(kept.depth, minlength=4)[1:]
        predicted = decodable_layers(counts, 2)
        decoded, recovered = decode_gop(kept, 3, 2, 8)
        assert decoded <= predicted
        if decoded == predicted:
            hits += 1
        assert np.array_equal(recovered.cells[:decoded], grid.cells[:decoded])
    # random coefficients may be singular, but only rarely
    assert hits >= 0.9 * trials


def test_decode_empty_input():
    decoded, recovered = decode_gop([], 3, 2, 8)
    assert decoded == 0
    assert not recovered.cells.any()


def test_decode_rejects_mixed_gops():
    grid_a = make_synthetic_gop(0, 2, 2, 4)
    grid_b = make_synthetic_gop(1, 2, 2, 4)
    packets_a = encode_gop(grid_a, (2, 2), SCHEME_RLC, seed=0)
    packets_b = encode_gop(grid_b, (2, 2), SCHEME_RLC, seed=0)
    with pytest.raises(ValueError, match="several GOPs"):
        decode_gop(PacketBatch.concat([packets_a, packets_b]), 2, 2, 4)
    with pytest.raises(ValueError, match="gop_id"):
        decode_gop(packets_a, 2, 2, 4, gop_id=1)


def test_decode_rejects_overdeep_class():
    grid = make_synthetic_gop(0, 3, 2, 4)
    packets = encode_gop(grid, (0, 0, 6), SCHEME_RLC, seed=0)
    with pytest.raises(ValueError):
        decode_gop(packets, 2, 2, 4)


def test_encode_rejects_bad_strategy():
    grid = make_synthetic_gop(0, 2, 2, 4)
    with pytest.raises(ValueError):
        encode_gop(grid, (1, 2, 3), SCHEME_RLC)
    with pytest.raises(ValueError):
        encode_gop(grid, (1, -1), SCHEME_RLC)
    with pytest.raises(ValueError):
        encode_gop(grid, (1, 1), "fountain")


def test_coefficient_free_rlc_draws_nothing():
    # packets no decoder reads keep their classes and carry zero columns
    grid = make_synthetic_gop(0, 3, 2, 0)
    full = encode_gop(grid, (3, 0, 2), SCHEME_RLC, seed=5)
    bare = encode_gop(grid, (3, 0, 2), SCHEME_RLC, 5, 0)
    other_seed = encode_gop(grid, (3, 0, 2), SCHEME_RLC, 6, 0)
    assert full.coeffs.shape == (5, 6)
    assert bare.coeffs.shape == bare.payload.shape == (5, 0)
    assert bare.depth.tolist() == full.depth.tolist() == other_seed.depth.tolist()
    assert np.array_equal(
        encode_gop(grid, (3, 0, 2), SCHEME_RLC, 5, 6).coeffs, full.coeffs
    )
    with pytest.raises(ValueError, match="coefficients"):
        decode_gop(bare, 3, 2, 0)


def test_encode_rejects_bad_coefficient_width():
    with pytest.raises(ValueError, match="coeff_width"):
        encode_gop(make_synthetic_gop(0, 3, 2, 0), (2, 2, 2), SCHEME_RLC, 0, 3)
    with pytest.raises(ValueError, match="payload bytes"):
        encode_gop(make_synthetic_gop(0, 3, 2, 8), (2, 2, 2), SCHEME_RLC, 0, 0)


def test_encode_is_deterministic_per_seed():
    grid = make_synthetic_gop(0, 3, 2, 8)
    a = encode_gop(grid, (2, 2, 2), SCHEME_RLC, seed=5)
    b = encode_gop(grid, (2, 2, 2), SCHEME_RLC, seed=5)
    c = encode_gop(grid, (2, 2, 2), SCHEME_RLC, seed=6)
    assert np.array_equal(a.payload, b.payload)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_reencoded_packets_decode():
    # decode a partial prefix, re-encode it, and decode again downstream
    grid = make_synthetic_gop(0, 4, 2, 8)
    first = encode_gop(grid, (2, 2, 2, 2), SCHEME_RLC, seed=3)
    decoded, partial = decode_gop(first, 4, 2, 8)
    assert decoded == 4
    second = encode_gop(partial, (4, 2, 2, 0), SCHEME_RLC, seed=4)
    redecoded, recovered = decode_gop(second, 4, 2, 8)
    assert redecoded == 3
    assert np.array_equal(recovered.cells[:3], grid.cells[:3])


def test_batch_indexing_selects_rows():
    grid = make_synthetic_gop(0, 3, 2, 8)
    packets = encode_gop(grid, (2, 2, 2), SCHEME_RLC, seed=1)
    halves = packets[::2]
    assert len(halves) == 3
    assert halves.depth.tolist() == [1, 2, 3]
    assert np.array_equal(halves.coeffs, packets.coeffs[::2])
    mask = np.array([True, False, False, True, True, False])
    picked = packets[mask]
    assert np.array_equal(picked.payload, packets.payload[mask])
    assert picked.gop_id == packets.gop_id and picked.scheme == packets.scheme
    assert len(packets[:0]) == 0
    with pytest.raises(TypeError):
        packets[0]
    again = PacketBatch.concat([packets[:2], packets[2:]])
    assert np.array_equal(again.coeffs, packets.coeffs)
    assert np.array_equal(again.payload, packets.payload)


def test_batch_validates_once_on_construction():
    payload = np.zeros((2, 4), dtype=np.uint8)
    coeffs = np.zeros((2, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="scheme"):
        PacketBatch(0, "fountain", [1, 1], payload, coeffs=coeffs)
    with pytest.raises(ValueError, match="depth"):
        PacketBatch(0, SCHEME_RLC, [1, 0], payload, coeffs=coeffs)
    with pytest.raises(ValueError, match="payload row"):
        PacketBatch(0, SCHEME_RLC, [1, 1, 1], payload, coeffs=coeffs)
    with pytest.raises(ValueError, match="coefficients"):
        PacketBatch(0, SCHEME_RLC, [1, 1], payload, column=[0, 1])
    with pytest.raises(ValueError, match="coefficient rows"):
        PacketBatch(0, SCHEME_RLC, [1, 1], payload, coeffs=coeffs[:1])
    with pytest.raises(ValueError, match="column"):
        PacketBatch(0, SCHEME_XOR, [1, 1], payload)
    with pytest.raises(ValueError, match="columns"):
        PacketBatch(0, SCHEME_XOR, [1, 1], payload, column=[0])


def test_decode_rejects_inconsistent_batches():
    grid = make_synthetic_gop(0, 2, 2, 4)
    rlc = encode_gop(grid, (2, 2), SCHEME_RLC, seed=0)
    with pytest.raises(ValueError, match="payload"):
        decode_gop(rlc, 2, 2, 8)
    with pytest.raises(ValueError, match="coefficients"):
        decode_gop(rlc, 2, 3, 4)
    # a class-1 packet whose coefficients reach into layer 2
    leaky = PacketBatch(0, SCHEME_RLC, rlc.depth, rlc.payload, coeffs=rlc.coeffs | 1)
    with pytest.raises(ValueError, match="deeper than its class"):
        decode_gop(leaky, 2, 2, 4)
    xor = encode_gop(grid, (2, 2), SCHEME_XOR)
    bad = PacketBatch(0, SCHEME_XOR, xor.depth, xor.payload, column=xor.column + 1)
    with pytest.raises(ValueError, match="column"):
        decode_gop(bad, 2, 2, 4)


def test_xor_decode_uses_first_copy_of_each_cell():
    grid = make_synthetic_gop(4, 2, 2, 8)
    packets = encode_gop(grid, (4, 2), SCHEME_XOR)
    # corrupt the second copies of the class-1 cells: the first copies win
    payload = packets.payload.copy()
    payload[2:4] ^= 0xFF
    tampered = PacketBatch(4, SCHEME_XOR, packets.depth, payload, column=packets.column)
    decoded, recovered = decode_gop(tampered, 2, 2, 8)
    assert decoded == 2
    assert np.array_equal(recovered.cells, grid.cells)


def _block(scheme, seed):
    """Erased batches of several GOPs: some full, some rank-deficient, one
    empty, at payload width 8 with L=4, P=4."""
    rng = np.random.default_rng(seed)
    batches = []
    for gop in range(9):
        grid = make_synthetic_gop(gop, 4, 4, 8, seed=seed)
        strategy = rng.integers(0, 10, 4)
        packets = encode_gop(grid, strategy, scheme, seed=gop)
        batches.append(packets[rng.random(len(packets)) < rng.uniform(0.2, 1.0)])
    batches[3] = batches[3][:0]
    return batches


@pytest.mark.parametrize("scheme", [SCHEME_RLC, SCHEME_XOR, SCHEME_REPEAT, "mixed"])
def test_block_decode_equals_one_gop_decodes(scheme):
    if scheme == "mixed":
        batches = _block(SCHEME_RLC, 1)[::2] + _block(SCHEME_XOR, 1)[1::2]
    else:
        batches = _block(scheme, 1)
    block = decode_block(batches, 4, 4, 8)
    assert len(block) == len(batches)
    depths = []
    for packets, (depth, grid) in zip(batches, block):
        want_depth, want = decode_gop(packets, 4, 4, 8)
        assert depth == want_depth
        assert grid.gop_id == want.gop_id
        assert np.array_equal(grid.cells, want.cells)
        depths.append(depth)
    assert 0 in depths and len(set(depths)) > 1


def test_block_decode_rejects_a_bad_batch_wherever_it_sits():
    grid = make_synthetic_gop(0, 4, 4, 8)
    good = _block(SCHEME_RLC, 2)
    rlc = encode_gop(grid, (4, 4, 4, 4), SCHEME_RLC, seed=0)
    bad_batches = {
        "exceeds layer_count": encode_gop(
            make_synthetic_gop(0, 5, 4, 8), (0, 0, 0, 0, 4), SCHEME_RLC, seed=0
        ),
        "payload": PacketBatch(
            0, SCHEME_RLC, rlc.depth, rlc.payload[:, :4], coeffs=rlc.coeffs
        ),
        "16 coefficients": PacketBatch(
            0, SCHEME_RLC, rlc.depth, rlc.payload, coeffs=rlc.coeffs[:, :0]
        ),
        "deeper than its class": PacketBatch(
            0, SCHEME_RLC, rlc.depth, rlc.payload, coeffs=rlc.coeffs | 1
        ),
    }
    for match, bad in bad_batches.items():
        with pytest.raises(ValueError, match=match):
            decode_gop(bad, 4, 4, 8)
        for at in (0, len(good) // 2, len(good)):
            with pytest.raises(ValueError, match=match):
                decode_block(good[:at] + [bad] + good[at:], 4, 4, 8)


@pytest.mark.parametrize("per_layer", [3, 5, 7, 8])
def test_rlc_coefficients_are_the_per_class_integer_draws(per_layer):
    # one raw draw per encode must give the bytes of one uint8 integers()
    # call per non-empty class, each starting on a fresh 32-bit word
    allocations = ((3, 0, 2), (1, 1, 1), (0, 0, 5), (7, 3, 0), (2, 0, 0))
    for seed in (0, 1, 7, 2**31 + 3, 2**63 - 1):
        for strategy in allocations:
            grid = make_synthetic_gop(0, 3, per_layer, 5, seed=2)
            packets = encode_gop(grid, strategy, SCHEME_RLC, seed=seed)
            rng = np.random.default_rng(seed)
            rows = []
            for d, n in enumerate(strategy, start=1):
                if n:
                    block = rng.integers(0, 256, size=(n, d * per_layer), dtype=np.uint8)
                    rows.append(np.pad(block, ((0, 0), (0, (3 - d) * per_layer))))
            assert np.array_equal(packets.coeffs, np.concatenate(rows)), (seed, strategy)


@pytest.mark.parametrize("scheme", [SCHEME_RLC, SCHEME_XOR, SCHEME_REPEAT])
@pytest.mark.parametrize("size", [0, 6])
def test_block_encode_equals_one_gop_encodes(scheme, size):
    # each GOP of a block, with its own strategy and seed, is encoded as it
    # would be alone, and a mask over the block keeps every GOP's rows apart
    grids = [make_synthetic_gop(g, 3, 2, size, seed=4) for g in (5, 6, 7, 8)]
    strategies = [(3, 0, 2), (0, 0, 0), (1, 4, 1), (2, 2, 2)]
    seeds = [11, 12, 13, 14]
    width = None if size or scheme != SCHEME_RLC else 0
    cells = np.stack([g.cells for g in grids])
    block = encode_block(cells, [5, 6, 7, 8], strategies, scheme, seeds, width)
    alone = [
        encode_gop(g, s, scheme, seed, width) for g, s, seed in zip(grids, strategies, seeds)
    ]
    mask = np.arange(len(block)) % 3 != 1
    picked = block.select(mask)
    start = 0
    for k, packets in enumerate(alone):
        assert block.gop(k).gop_id == packets.gop_id
        for name in ("depth", "payload", "coeffs", "column"):
            got, want = getattr(block.gop(k), name), getattr(packets, name)
            assert (got is None) == (want is None) and np.array_equal(got, want), name
        kept = packets[mask[start : start + len(packets)]]
        assert np.array_equal(picked.gop(k).depth, kept.depth)
        assert np.array_equal(picked.gop(k).payload, kept.payload)
        start += len(packets)
    assert picked.sizes.tolist() == [len(picked.gop(k)) for k in range(4)]
    again = PacketBlock.concat(alone)
    assert again.offsets.tolist() == block.offsets.tolist()
    assert np.array_equal(again.depth, block.depth)

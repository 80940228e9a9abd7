import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclayer import codec
from nclayer.codec import (
    SCHEME_REPEAT,
    SCHEME_RLC,
    SCHEME_XOR,
    SCHEMES,
    PacketBlock,
    decodable_layers,
    decodable_layers_batch,
    decode_block,
    encode_block,
    encode_gop,
    sample_depths,
    score_block,
    surviving_counts,
)
from nclayer.kernels import gf_matmul, gf_rref
from nclayer.media import make_synthetic_cells, make_synthetic_gop
from oracles import (
    class_block,
    count_vectors,
    decode_gop_reference,
    gop_offsets,
    rank_decodable_layers,
    reference_sample_depths,
    row_classes,
)


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
    assert packets.counts.tolist() == [list(strategy)]
    assert packets.scheme == SCHEME_RLC
    # shallow classes come first
    assert row_classes(packets).tolist() == [1, 1, 1, 3, 3, 4]
    # a class-d packet mixes the first d layers only; the rest is zero padding
    assert packets.coeffs.shape == (6, 4 * 8)
    widths = [np.flatnonzero(row).max() + 1 for row in packets.coeffs]
    assert all(w <= 8 * d for w, d in zip(widths, [1, 1, 1, 3, 3, 4]))
    assert packets.payload.shape == (6, 16)


def test_xor_packets_cycle_columns():
    grid = make_synthetic_gop(0, 2, 3, 4)
    packets = encode_gop(grid, (5, 0), SCHEME_XOR, seed=0)
    assert packets.column.tolist() == [0, 1, 2, 0, 1]
    assert packets.coeffs is None
    # class-1 xor packets are the raw base-layer cells
    assert np.array_equal(packets.payload, grid[0, packets.column])


def test_xor_payload_is_column_xor():
    grid = make_synthetic_gop(1, 3, 2, 8)
    packets = encode_gop(grid, (0, 0, 2), SCHEME_XOR, seed=0)
    want = grid[0, 0] ^ grid[1, 0] ^ grid[2, 0]
    assert np.array_equal(packets.payload[0], want)


def test_xor_round_trip_full_coverage():
    grid = make_synthetic_gop(2, 4, 2, 8)
    # two packets per class covers every (depth, column) cell
    packets = encode_gop(grid, (2, 2, 2, 2), SCHEME_XOR, seed=0)
    (decoded,), (recovered,) = decode_block(packets)
    assert decoded == 4
    assert np.array_equal(recovered, grid)


def test_xor_partial_prefix():
    grid = make_synthetic_gop(0, 4, 2, 8)
    packets = encode_gop(grid, (2, 2, 0, 0), SCHEME_XOR, seed=0)
    (decoded,), (recovered,) = decode_block(packets)
    assert decoded == 2
    assert np.array_equal(recovered[:2], grid[:2])
    assert not recovered[2:].any()


def test_repeat_sends_runs_of_raw_cells():
    grid = make_synthetic_gop(5, 3, 4, 8)
    # 2 copies of each of the 12 cells: the uncoded sender's fixed allocation
    packets = encode_gop(grid, (8, 8, 8), SCHEME_REPEAT)
    source = (row_classes(packets) - 1) * 4 + packets.column
    assert source.tolist() == np.repeat(np.arange(12), 2).tolist()
    assert packets.coeffs is None
    assert np.array_equal(packets.payload, grid[row_classes(packets) - 1, packets.column])
    (decoded,), (recovered,) = decode_block(packets.select(np.arange(1, len(packets), 2)))
    assert decoded == 3
    assert np.array_equal(recovered, grid)
    # a lost cell of layer 2 stops the prefix there, with no peeling
    lost = packets.select(~np.isin(source, [5]))
    (decoded,), (recovered,) = decode_block(lost)
    assert decoded == 1
    assert np.array_equal(recovered[0], grid[0])
    assert not recovered[1:].any()


def test_rlc_round_trip_full_budget():
    grid = make_synthetic_gop(7, 4, 8, 64)
    packets = encode_gop(grid, (40, 8, 8, 8), SCHEME_RLC, seed=1)
    (decoded,), (recovered,) = decode_block(packets)
    assert decoded == 4
    assert np.array_equal(recovered, grid)


def test_rlc_decode_never_exceeds_count_prediction():
    grid = make_synthetic_gop(3, 3, 2, 8)
    packets = encode_gop(grid, (3, 2, 3), SCHEME_RLC, seed=2)
    rng = np.random.default_rng(0)
    hits = 0
    trials = 60
    for _ in range(trials):
        kept = packets.select(rng.random(len(packets)) < 0.7)
        predicted = decodable_layers(kept.counts[0], 2)
        (decoded,), (recovered,) = decode_block(kept)
        assert decoded <= predicted
        if decoded == predicted:
            hits += 1
        assert np.array_equal(recovered[:decoded], grid[:decoded])
    # random coefficients may be singular, but only rarely
    assert hits >= 0.9 * trials


def test_decode_empty_input():
    packets = encode_gop(make_synthetic_gop(3, 3, 2, 8), (2, 2, 2), SCHEME_RLC, seed=0)
    (decoded,), (recovered,) = decode_block(packets.select(np.zeros(len(packets), bool)))
    assert decoded == 0
    assert not recovered.any()


def test_block_rejects_overdeep_class():
    # counts of two classes make a grid of two layers, whose RLC packets
    # carry 2 * P coefficients; class-3 packets carry 3 * P
    grid = make_synthetic_gop(0, 3, 2, 4)
    packets = encode_gop(grid, (0, 0, 6), SCHEME_RLC, seed=0)
    with pytest.raises(ValueError, match="need 4 coefficients, got 6"):
        replace(packets, counts=[[0, 6]])


def test_encode_rejects_bad_strategy():
    grid = make_synthetic_gop(0, 2, 2, 4)
    with pytest.raises(ValueError):
        encode_gop(grid, (1, 2, 3), SCHEME_RLC)
    with pytest.raises(ValueError):
        encode_gop(grid, (1, -1), SCHEME_RLC)
    with pytest.raises(ValueError):
        encode_gop(grid, (1, 1), "fountain")


def test_rlc_encode_needs_a_generator():
    # every RLC packet carries the coefficients it draws; xor and repeat
    # draw nothing and take no generator
    cells = make_synthetic_cells([0], 3, 2, 0)
    with pytest.raises(ValueError, match="need a generator"):
        encode_block(cells, [(3, 0, 2)], SCHEME_RLC, None)
    for scheme in (SCHEME_XOR, SCHEME_REPEAT):
        assert len(encode_block(cells, [(3, 0, 2)], scheme, None)) == 5


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
    (decoded,), (partial,) = decode_block(first)
    assert decoded == 4
    second = encode_gop(partial, (4, 2, 2, 0), SCHEME_RLC, seed=4)
    (redecoded,), (recovered,) = decode_block(second)
    assert redecoded == 3
    assert np.array_equal(recovered[:3], grid[:3])


def test_batch_indexing_selects_rows():
    grid = make_synthetic_gop(0, 3, 2, 8)
    packets = encode_gop(grid, (2, 2, 2), SCHEME_RLC, seed=1)
    halves = packets.select(np.arange(0, 6, 2))
    assert len(halves) == 3 and halves.counts.tolist() == [[1, 1, 1]]
    assert np.array_equal(halves.coeffs, packets.coeffs[::2])
    mask = np.array([True, False, False, True, True, False])
    picked = packets.select(mask)
    assert np.array_equal(picked.payload, packets.payload[mask])
    assert picked.counts.tolist() == [[1, 1, 1]] and picked.scheme == packets.scheme
    assert packets.select(np.zeros(6, bool)).counts.tolist() == [[0, 0, 0]]
    # an index may repeat: the row arrives twice
    twice = packets.select(np.array([0, 0, 5]))
    assert len(twice) == 3 and twice.counts.tolist() == [[2, 0, 1]]


def test_select_refuses_a_decreasing_index_array():
    # rows [5, 0, 1] of two GOPs of 4 packets would put GOP 1's packet
    # first, where the counts' order makes it GOP 0's
    cells = make_synthetic_cells([0, 1], 2, 2, 4)
    block = encode_block(cells, [(2, 2), (2, 2)], SCHEME_RLC, np.random.default_rng(0))
    with pytest.raises(ValueError, match="non-decreasing"):
        block.select(np.array([5, 0, 1]))
    assert block.select(np.array([0, 1, 5])).counts.tolist() == [[2, 0], [1, 0]]


def test_select_refuses_rows_outside_the_block():
    # on two GOPs of 64 rows, index -1 would pick the last row, GOP 1's, as
    # the first, and a 5-entry mask would pick 5 of the 128 rows
    block = class_block([(40, 8, 8, 8)] * 2, 8)
    for rows in (np.array([-1]), np.array([0, 128])):
        with pytest.raises(ValueError, match="must lie in"):
            block.select(rows)
    for rows in (np.array([True] * 5), np.ones(129, bool), np.ones((2, 64), bool)):
        with pytest.raises(ValueError, match="one entry per packet"):
            block.select(rows)
    assert block.select(np.array([0, 127])).counts.tolist() == [[1, 0, 0, 0], [0, 0, 0, 1]]
    assert block.select(np.array([], dtype=np.intp)).counts.tolist() == [[0] * 4] * 2
    assert block.select(np.ones(128, bool)).counts.tolist() == [[40, 8, 8, 8]] * 2


def test_batch_validates_once_on_construction():
    payload = np.zeros((2, 4), dtype=np.uint8)
    coeffs = np.zeros((2, 4), dtype=np.uint8)

    def block(scheme, counts, payload=payload, **rows):
        return PacketBlock(scheme, 2, counts, payload, **rows)

    with pytest.raises(ValueError, match="scheme"):
        block("fountain", [[2, 0]], coeffs=coeffs)
    # a class count per (GOP, class), none negative, over at least one class
    for counts in ([2, 0], [[[2, 0]]], [[3, -1]], np.zeros((1, 0), int)):
        with pytest.raises(ValueError, match="counts must be"):
            block(SCHEME_RLC, counts, coeffs=coeffs)
    # three classes make three layers of two cells, so six coefficients
    with pytest.raises(ValueError, match="need 6 coefficients"):
        block(SCHEME_RLC, [[1, 0, 1]], coeffs=coeffs)
    # any coefficient width but L * P, with payload bytes or none
    for width in (0, 2, 5):
        wide = np.zeros((2, width), dtype=np.uint8)
        for size in (0, 4):
            with pytest.raises(ValueError, match="need 4 coefficients"):
                block(SCHEME_RLC, [[1, 1]], payload=payload[:, :size], coeffs=wide)
    with pytest.raises(ValueError, match="deeper than its class"):
        block(SCHEME_RLC, [[1, 1]], coeffs=np.eye(2, 4, 2, dtype=np.uint8))
    for column in ([0, 2], [-1, 0]):
        with pytest.raises(ValueError, match="columns must lie in 0..1"):
            block(SCHEME_XOR, [[1, 1]], column=column)
    for counts in ([[2, 1]], [[1, 0]], [[1, 0], [0, 0], [0, 2]]):
        with pytest.raises(ValueError, match="payload row"):
            block(SCHEME_RLC, counts, coeffs=coeffs)
    with pytest.raises(ValueError, match="coefficients"):
        block(SCHEME_RLC, [[1, 1]], column=[0, 1])
    with pytest.raises(ValueError, match="coefficient rows"):
        block(SCHEME_RLC, [[1, 1]], coeffs=coeffs[:1])
    with pytest.raises(ValueError, match="column"):
        block(SCHEME_XOR, [[1, 1]])
    with pytest.raises(ValueError, match="columns"):
        block(SCHEME_XOR, [[1, 1]], column=[0])
    assert block(SCHEME_RLC, [[1, 0], [0, 0], [0, 1]], coeffs=coeffs).layer_count == 2


def test_block_rejects_rows_inconsistent_with_its_grid():
    grid = make_synthetic_gop(0, 2, 2, 4)
    rlc = encode_gop(grid, (2, 2), SCHEME_RLC, seed=0)
    assert (rlc.layer_count, rlc.packets_per_layer) == (2, 2)
    with pytest.raises(ValueError, match="coefficients"):
        replace(rlc, packets_per_layer=3)
    # a class-1 packet whose coefficients reach into layer 2
    with pytest.raises(ValueError, match="deeper than its class"):
        replace(rlc, coeffs=rlc.coeffs | 1)
    xor = encode_gop(grid, (2, 2), SCHEME_XOR)
    with pytest.raises(ValueError, match="column"):
        replace(xor, column=xor.column + 1)


def test_xor_decode_uses_first_copy_of_each_cell():
    grid = make_synthetic_gop(4, 2, 2, 8)
    packets = encode_gop(grid, (4, 2), SCHEME_XOR)
    # corrupt the second copies of the class-1 cells: the first copies win
    payload = packets.payload.copy()
    payload[2:4] ^= 0xFF
    tampered = replace(packets, payload=payload)
    (decoded,), (recovered,) = decode_block(tampered)
    assert decoded == 2
    assert np.array_equal(recovered, grid)


def _rows(block, k, name):
    """GOP k's rows of one of a block's row arrays; None stays None."""
    rows, offsets = getattr(block, name), gop_offsets(block)
    return None if rows is None else rows[offsets[k] : offsets[k + 1]]


def _erased(scheme, seed):
    """An erased block of GOPs 0-8 of make_synthetic_cells(seed) at L=4,
    P=4, s=8: some full, some rank-deficient, GOP 3 empty. Also returns each
    GOP's strategy and its surviving rows, numbered within its own encode."""
    rng = np.random.default_rng(seed)
    strategies = rng.integers(0, 10, (9, 4))
    cells = make_synthetic_cells(range(9), 4, 4, 8, seed)
    block = encode_block(cells, strategies, scheme, np.random.default_rng(seed))
    sizes = block.counts.sum(axis=1)
    kept = [np.flatnonzero(rng.random(n) < rng.uniform(0.2, 1.0)) for n in sizes]
    kept[3] = kept[3][:0]
    rows = np.concatenate([start + k for start, k in zip(gop_offsets(block), kept)])
    return block.select(rows), strategies, kept


@pytest.mark.parametrize("scheme", [SCHEME_RLC, SCHEME_XOR, SCHEME_REPEAT])
def test_block_decode_equals_one_gop_decodes(scheme):
    block, strategies, kept = _erased(scheme, 1)
    depths, cells = decode_block(block)
    assert depths.shape == (9,) and cells.shape == (9, 4, 4, 8)
    one_by_one = np.random.default_rng(1)
    for k, (strategy, rows) in enumerate(zip(strategies, kept)):
        grid = make_synthetic_gop(k, 4, 4, 8, seed=1)
        alone = encode_gop(grid, strategy, scheme, one_by_one).select(rows)
        (want_depth,), (want,) = decode_block(alone)
        assert depths[k] == want_depth
        assert np.array_equal(cells[k], want)
    assert 0 in depths and len(set(depths.tolist())) > 1


def test_block_rejects_a_bad_gop_wherever_it_sits():
    for scheme in (SCHEME_RLC, SCHEME_XOR):
        good, _, _ = _erased(scheme, 2)
        if scheme == SCHEME_RLC:
            with pytest.raises(ValueError, match="16 coefficients"):
                replace(good, coeffs=good.coeffs[:, :8])
        offsets = gop_offsets(good)
        full = np.flatnonzero(np.diff(offsets))
        for k in full[[0, full.size // 2, -1]]:
            # one GOP's rows go bad, or its counts name a packet it lacks,
            # wherever it sits in the block
            at = slice(offsets[k], offsets[k + 1])
            bad = {"payload row": dict(counts=good.counts.copy())}
            bad["payload row"]["counts"][k, 1] += 1
            if scheme == SCHEME_RLC:
                bad["deeper than its class"] = dict(coeffs=good.coeffs.copy())
                bad["deeper than its class"]["coeffs"][at] |= 1
            else:
                bad["column"] = dict(column=good.column.copy())
                bad["column"]["column"][at] = 4
            for match, rows in bad.items():
                with pytest.raises(ValueError, match=match):
                    replace(good, **rows)


@pytest.mark.parametrize("per_layer", [3, 5, 7, 8])
def test_rlc_rows_take_whole_raw_outputs_of_the_generator(per_layer):
    # every coefficient row takes ceil(3 * P / 8) raw outputs of the
    # generator, in row order, keeps their first 3 * P little-endian bytes
    # and is zeroed past its class; at P = 3, 5 and 7 a row ends partway
    # through an output. Empty GOPs and classes sit between full ones and
    # draw nothing, so GOPs encoded one by one draw what the block draws
    allocations = [(3, 0, 2), (0, 0, 0), (1, 1, 1), (0, 0, 5), (0, 0, 0), (7, 3, 0), (2, 0, 0)]
    grids = [make_synthetic_gop(g, 3, per_layer, 5, seed=2) for g in range(len(allocations))]
    cells = np.stack(grids)
    n_unknowns, outputs = 3 * per_layer, -(-3 * per_layer // 8)
    rng = np.random.default_rng(per_layer)
    block = encode_block(cells, allocations, SCHEME_RLC, rng)
    drawn = np.random.default_rng(per_layer)
    raw = drawn.bit_generator.random_raw(len(block) * outputs).astype("<u8")
    row_bytes = raw.view(np.uint8).reshape(len(block), 8 * outputs)[:, :n_unknowns]
    past_class = np.arange(n_unknowns) >= row_classes(block)[:, None] * per_layer
    assert np.array_equal(block.coeffs, np.where(past_class, 0, row_bytes))
    assert rng.bit_generator.state == drawn.bit_generator.state
    one_by_one = np.random.default_rng(per_layer)
    for k, (grid, strategy) in enumerate(zip(grids, allocations)):
        alone = encode_gop(grid, strategy, SCHEME_RLC, one_by_one)
        assert np.array_equal(alone.coeffs, _rows(block, k, "coeffs")), strategy
        data = grid.reshape(n_unknowns, 5)
        assert np.array_equal(_rows(block, k, "payload"), gf_matmul(alone.coeffs, data))
    assert one_by_one.bit_generator.state == drawn.bit_generator.state
    # xor and repeat packets draw nothing
    for scheme in (SCHEME_XOR, SCHEME_REPEAT):
        encode_block(cells, allocations, scheme, rng)
        assert rng.bit_generator.state == drawn.bit_generator.state, scheme


def test_block_encodes_on_two_threads_equal_serial_ones():
    # sweep(jobs=2) encodes on two threads at once, each block from its own
    # generator, so the coefficient draws may share no state between calls
    rng = np.random.default_rng(23)
    jobs = []
    for b in range(50):
        n_gops = int(rng.integers(1, 33))
        cells = make_synthetic_cells(range(n_gops), 4, 4, 8, seed=b)
        strategies = rng.integers(0, 6, (n_gops, 4))
        jobs.append((cells, strategies, SCHEME_RLC, int(rng.integers(0, 2**63))))

    def encode(job):
        *args, seed = job
        return encode_block(*args, np.random.default_rng(seed))

    serial = [encode(job) for job in jobs]
    # hand the interpreter lock over often, so that the threads interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(encode, jobs))
    finally:
        sys.setswitchinterval(interval)
    for alone, together in zip(serial, threaded):
        assert np.array_equal(alone.counts, together.counts)
        assert np.array_equal(alone.coeffs, together.coeffs)
        assert np.array_equal(alone.payload, together.payload)


@pytest.mark.parametrize("scheme", [SCHEME_RLC, SCHEME_XOR, SCHEME_REPEAT])
@pytest.mark.parametrize("size", [0, 6])
def test_block_encode_equals_one_gop_encodes(scheme, size):
    # each GOP of a block, with its own strategy, is encoded as it would be
    # alone from the same generator, and a mask over the block keeps every
    # GOP's rows apart
    grids = [make_synthetic_gop(g, 3, 2, size, seed=4) for g in (5, 6, 7, 8)]
    strategies = [(3, 0, 2), (0, 0, 0), (1, 4, 1), (2, 2, 2)]
    block = encode_block(np.stack(grids), strategies, scheme, np.random.default_rng(11))
    one_by_one = np.random.default_rng(11)
    alone = [encode_block(g[None], [s], scheme, one_by_one) for g, s in zip(grids, strategies)]
    mask = np.arange(len(block)) % 3 != 1
    picked = block.select(mask)
    offsets = gop_offsets(block)
    assert offsets.tolist() == [0] + np.cumsum([len(a) for a in alone]).tolist()
    for k, packets in enumerate(alone):
        assert np.array_equal(block.counts[k], packets.counts[0])
        for name in ("payload", "coeffs", "column"):
            got, want = _rows(block, k, name), getattr(packets, name)
            assert (got is None) == (want is None) and np.array_equal(got, want), name
        kept = packets.select(mask[offsets[k] : offsets[k + 1]])
        assert np.array_equal(picked.counts[k], kept.counts[0])
        assert np.array_equal(_rows(picked, k, "payload"), kept.payload)
    assert picked.counts.sum(axis=1).tolist() == [
        int(np.count_nonzero(mask[a:b])) for a, b in zip(offsets, offsets[1:])
    ]

def _random_block(rng):
    """An erased block of 1-6 GOPs under a random scheme, L 1-4, P 1-5 and
    s 0, 3 or 8: some GOPs are empty, some survivors arrive twice, and under
    xor and repeat every later copy of a cell carries other bytes, so only
    first copies decode right."""
    scheme = str(rng.choice(SCHEMES))
    L, P = int(rng.integers(1, 5)), int(rng.integers(1, 6))
    s = int(rng.choice([0, 3, 8]))
    G = int(rng.integers(1, 7))
    cells = make_synthetic_cells(range(G), L, P, s, seed=int(rng.integers(1000)))
    strategies = rng.integers(0, 3 * P, size=(G, L))
    strategies[rng.random(G) < 0.2] = 0
    block = encode_block(cells, strategies, scheme, rng)
    odds = np.repeat(rng.uniform(0.2, 1.0, G), block.counts.sum(axis=1))
    copies = (rng.random(len(block)) < odds) * (1 + (rng.random(len(block)) < 0.3))
    block = block.select(np.repeat(np.arange(len(block)), copies))
    if block.column is not None:
        gop = np.repeat(np.arange(G), block.counts.sum(axis=1))
        key = (gop * L + row_classes(block) - 1) * P + block.column
        later = np.ones(len(block), dtype=bool)
        later[np.unique(key, return_index=True)[1]] = False
        block.payload[later] ^= 0xFF
    return block, L, P, s


def test_block_decode_equals_the_reference_decoder():
    rng = np.random.default_rng(2013)
    seen = set()
    for _ in range(400):
        block, L, P, s = _random_block(rng)
        depths, cells = decode_block(block)
        assert depths.shape == (len(block.counts),)
        assert cells.shape == (len(block.counts), L, P, s)
        offsets, classes = gop_offsets(block), row_classes(block)
        for k, (start, end) in enumerate(zip(offsets[:-1], offsets[1:])):
            rows = slice(start, end)
            want_depth, want = decode_gop_reference(
                block.scheme, classes[rows], block.payload[rows], L, P, s,
                coeffs=None if block.coeffs is None else block.coeffs[rows],
                column=None if block.column is None else block.column[rows],
            )
            assert depths[k] == want_depth and np.array_equal(cells[k], want)
            if end == start:
                seen.add("empty")
            elif block.scheme == SCHEME_RLC and want_depth < decodable_layers(block.counts[k], P):
                seen.add("rank-deficient")
            elif 0 < want_depth < L:
                seen.add(f"partial {block.scheme} s={min(s, 1)}")
    assert seen >= {"empty", "rank-deficient"} | {
        f"partial {scheme} s={w}" for scheme in SCHEMES for w in (0, 1)
    }


@pytest.mark.parametrize("size", [0, 8])
def test_decode_stacks_split_at_the_byte_bound(size, monkeypatch):
    # decode_block reduces a block's RLC systems in stacks of at most
    # DECODE_STACK_BYTES, at least one system each; stacks of one system and
    # of seven must give the one-stack result, with empty GOPs at the ends
    # and between stacks
    rng = np.random.default_rng(size + 5)
    cells = make_synthetic_cells(range(24), 4, 4, size, seed=3)
    strategies = rng.integers(0, 6, (24, 4))
    block = encode_block(cells, strategies, SCHEME_RLC, np.random.default_rng(3))
    kept = rng.random(len(block)) < 0.7
    empty = [0, 7, 8, 23]
    kept[np.isin(np.repeat(np.arange(24), block.counts.sum(axis=1)), empty)] = False
    block = block.select(kept)
    sizes = block.counts.sum(axis=1)
    n_systems, n_rows = int(np.count_nonzero(sizes)), int(sizes.max())
    stacks = []

    def recorded(aug, n_unknowns):
        stacks.append(aug.shape[0])
        return gf_rref(aug, n_unknowns)

    monkeypatch.setattr(codec, "gf_rref", recorded)
    depths, cells = decode_block(block)
    assert stacks == [n_systems]
    assert depths[empty].tolist() == [0] * 4 and len(set(depths.tolist())) > 2
    for per_stack in (1, 7):
        monkeypatch.setattr(codec, "DECODE_STACK_BYTES", per_stack * n_rows * (16 + size))
        stacks.clear()
        split_depths, split_cells = decode_block(block)
        full, rest = divmod(n_systems, per_stack)
        assert stacks == [per_stack] * full + [rest] * (rest > 0)
        assert np.array_equal(split_depths, depths)
        assert np.array_equal(split_cells, cells)


def test_decode_memory_is_bounded_by_one_stack():
    # a verified block of four stacks' GOPs is reduced a stack at a time, so
    # its traced peak stays near that of a block of one stack
    strategy = (8, 8, 16, 32)
    per_stack = codec.DECODE_STACK_BYTES // (sum(strategy) * (32 + 64))

    def peak(n_gops):
        cells = make_synthetic_cells(range(n_gops), 4, 8, 64, seed=1)
        rng = np.random.default_rng(n_gops)
        block = encode_block(cells, [strategy] * n_gops, SCHEME_RLC, rng)
        tracemalloc.start()
        try:
            depths, _ = decode_block(block)
            assert (depths == 4).all()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert per_stack > 1
    assert peak(4 * per_stack) <= 1.5 * peak(per_stack)


# (packets_per_layer, per-class counts, GOPs): the count rule's zero-slack
# allocations at P=8, among them the lossless table pick (40, 8, 8, 8), and
# small P, where a singular system is common enough to weigh; at P=1,
# (0, 0, 2) decodes layer 1 with odds about 1/256, which the count rule
# (depth 0) misses by about 14 SE at 50,000 GOPs
LAW_CASES = [
    (8, (8, 8, 8, 8), 4000),
    (8, (40, 8, 8, 8), 4000),
    (8, (7, 9, 8, 8), 4000),
    (2, (2, 2, 2), 30000),
    (2, (1, 2, 3), 30000),
    (2, (0, 3, 3), 30000),
    (1, (0, 0, 2), 50000),
    (1, (0, 1, 2), 50000),
    (1, (2, 1, 1, 1), 50000),
]


@pytest.mark.parametrize("per_layer, counts, n_gops", LAW_CASES)
def test_sampled_depths_follow_the_decoder_law(per_layer, counts, n_gops, monkeypatch):
    # the share of GOPs at each depth, sampled from the packets' classes,
    # within 4 SE of decode_block's on the same encoded packets
    monkeypatch.setattr(codec, "DECODE_STACK_BYTES", 1 << 20)
    layers = len(counts)
    cells = np.zeros((n_gops, layers, per_layer, 0), dtype=np.uint8)
    block = encode_block(cells, [counts] * n_gops, SCHEME_RLC, np.random.default_rng(61))
    decoded = decode_block(block)[0]
    sampled = sample_depths(block.counts, per_layer, np.random.default_rng(62))
    want = np.bincount(decoded, minlength=layers + 1) / n_gops
    got = np.bincount(sampled, minlength=layers + 1) / n_gops
    se = np.sqrt((want * (1 - want) + got * (1 - got)) / n_gops)
    assert (np.abs(got - want) <= 4 * se).all(), (want, got, se)


@settings(max_examples=150, deadline=None)
@given(
    scheme=st.sampled_from(SCHEMES),
    layers=st.integers(min_value=1, max_value=5),
    per_layer=st.integers(min_value=1, max_value=9),
    n_gops=st.integers(min_value=1, max_value=300),
    empty=st.sampled_from([0.0, 0.3, 1.0]),
    keep=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    by_index=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_surviving_counts_are_the_class_counts_of_the_selected_rows(
    scheme, layers, per_layer, n_gops, empty, keep, by_index, seed
):
    # a block's counts are the per-(GOP, class) tally of its rows after a
    # mask or a non-decreasing index array, which may repeat a row; and a
    # run that carries counts instead of rows must see, after each link,
    # the counts a block of rows has after select. Empty GOPs, and a
    # selection that keeps nothing, included
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 3 * per_layer, size=(n_gops, layers))
    counts[rng.random(n_gops) < empty] = 0
    cells = np.zeros((n_gops, layers, per_layer, 0), dtype=np.uint8)
    block = encode_block(cells, counts, scheme, np.random.default_rng(seed))
    assert np.array_equal(block.counts, counts)
    gop = np.repeat(np.arange(n_gops), counts.sum(axis=1))
    run = gop * layers + row_classes(block) - 1
    mask = rng.random(len(block)) < keep
    rows = np.flatnonzero(mask)
    if by_index:
        rows = np.repeat(rows, rng.integers(1, 3, rows.size))
        picked = block.select(rows)
    else:
        picked = block.select(mask)
        kept = np.concatenate([[0], np.cumsum(mask)])
        assert np.array_equal(surviving_counts(counts, kept), picked.counts)
    want = np.bincount(run[rows], minlength=counts.size).reshape(counts.shape)
    assert np.array_equal(picked.counts, want)
    assert len(picked) == rows.size


def test_surviving_counts_need_one_mask_entry_per_packet():
    # a running count holds one entry per row and one more, as does a masked
    # select's mask one per row
    counts = np.array([[2, 1], [0, 3]])
    for kept in (np.arange(6), np.arange(8)):
        with pytest.raises(ValueError, match="one entry per row and one more"):
            surviving_counts(counts, kept)
    block = class_block(counts, 2)
    for mask in (np.ones(5, dtype=bool), np.ones(7, dtype=bool)):
        with pytest.raises(ValueError, match="one entry per packet"):
            block.select(mask)
    kept = np.array([0, 1, 1, 2, 3, 3, 4])
    assert surviving_counts(counts, kept).tolist() == [[1, 1], [0, 2]]


def test_sampled_depths_without_singular_draws_are_the_count_rule():
    # a draw of 0 fills the highest layer a packet can, so a generator that
    # never draws more gives the count rule on every GOP
    rng = np.random.default_rng(63)
    sizes = rng.integers(0, 12, size=(400, 3))
    block = class_block(sizes, 2)

    class Certain:
        def geometric(self, p, size):
            return np.ones(size, dtype=np.int64)

    assert np.array_equal(sample_depths(sizes, 2, Certain()), score_block(block))


def test_block_samples_what_its_gops_sample_one_by_one():
    # one draw per packet in GOP, class and packet order, so a block and its
    # GOPs one at a time, from generators of one seed, give the same depths
    # and leave the generators in the same state
    rng = np.random.default_rng(64)
    sizes = rng.integers(0, 6, size=(300, 3))
    block = class_block(sizes, 1)
    block = block.select(rng.random(len(block)) < 0.8)
    whole, alone = np.random.default_rng(65), np.random.default_rng(65)
    counts = block.counts
    depths = sample_depths(counts, 1, whole)
    one_by_one = [sample_depths(row[None], 1, alone)[0] for row in counts]
    assert depths.tolist() == one_by_one
    assert whole.bit_generator.state == alone.bit_generator.state
    assert (depths < score_block(block)).any()
    assert (depths > score_block(block)).any()


class StandIn:
    """A Generator whose geometric draws take another p, so that draws of
    e >= 1, and those at k + e = P, are common."""

    def __init__(self, seed, p):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.p = p

    def geometric(self, p, size):
        return self.rng.geometric(self.p, size)


@settings(max_examples=150, deadline=None)
@given(
    layers=st.integers(1, 5),
    per_layer=st.integers(1, 9),
    n_gops=st.integers(1, 300),
    p=st.sampled_from([None, 0.5, 0.2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampled_depths_equal_the_stepped_sampler(layers, per_layer, n_gops, p, seed):
    # scoring by the count rule and walking only the GOPs a draw can move
    # gives the depths of stepping every draw, and leaves the generator
    # where that does
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, 3 * per_layer + 1, size=(n_gops, layers))
    block = class_block(sizes, per_layer)
    block = block.select(rng.random(len(block)) < rng.random())

    def generator():
        return np.random.default_rng(seed + 1) if p is None else StandIn(seed + 1, p)

    mine, theirs = generator(), generator()
    got = sample_depths(block.counts, per_layer, mine)
    want = reference_sample_depths(block, theirs)
    assert got.tolist() == want.tolist()
    assert mine.bit_generator.state == theirs.bit_generator.state


class Fixed:
    """A generator whose draws are given: e + 1 from geometric, packet by
    packet in GOP, class and packet order."""

    def __init__(self, counts, draw):
        # draw(c, k) is e for the k-th packet (from 0) of class c + 1
        self.e = [draw(c, k) for row in counts for c, n in enumerate(row) for k in range(n)]

    def geometric(self, p, size):
        assert size == len(self.e)
        return np.array(self.e, dtype=np.int64) + 1


def test_draws_that_cannot_move_a_depth_sample_the_count_rule():
    # the k-th class-c packet drawing e with k + e < P fills layer c, as a
    # zero does, so the largest such e at every place gives the count rule
    per_layer = 4
    counts = [(4, 4, 4), (6, 2, 5), (0, 4, 4), (4, 0, 4), (1, 7, 3), (0, 0, 0), (9, 9, 9)]
    block = class_block(counts, per_layer)
    draws = Fixed(counts, lambda c, k: max(per_layer - 1 - k, 0))
    assert sample_depths(np.array(counts), per_layer, draws).tolist() == [3, 1, 0, 1, 2, 0, 3]
    assert score_block(block).tolist() == [3, 1, 0, 1, 2, 0, 3]


@pytest.mark.parametrize(
    "per_layer, counts, at, depth",
    [
        # zero slack: the last class-3 packet's e = 1 skips layer 3's one
        # missing unit and finds layers 1 and 2 full, so layer 3 stays short
        (4, (4, 4, 4), (2, 3, 1), 2),
        (4, (4, 4, 4), (0, 3, 1), 0),
        # layer 2 is full, and e = 1 skips layer 1's one missing unit,
        # which the count rule's zero fills
        (1, (0, 2), (1, 1, 1), 0),
        # every layer is full when the draw comes, so nothing moves
        (4, (4, 4, 9), (2, 8, 5), 3),
        (4, (4, 4, 9), (2, 4, 1), 3),
    ],
)
def test_a_draw_at_or_past_the_layer_it_would_fill(per_layer, counts, at, depth):
    layers = len(counts)
    block = class_block([counts], per_layer)
    draws = Fixed([counts], lambda c, k: at[2] if (c, k) == at[:2] else 0)
    assert at[1] + at[2] >= per_layer
    assert score_block(block).tolist() == [layers]
    assert sample_depths(np.array([counts]), per_layer, draws).tolist() == [depth]

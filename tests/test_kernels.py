import numpy as np

from nclayer.gf256 import MUL_TABLE, gf256_mul
from nclayer.kernels import expected_layers_batch, gf_matmul, gf_rref
from nclayer.spt import PDR_BINS, _pmf_rows, enumerate_strategies
from oracles import expected_layers_reference


def _scalar_matmul(coeffs, data):
    n, k = coeffs.shape
    s = data.shape[1]
    out = np.zeros((n, s), dtype=np.uint8)
    for i in range(n):
        for t in range(s):
            acc = 0
            for j in range(k):
                acc ^= gf256_mul(int(coeffs[i, j]), int(data[j, t]))
            out[i, t] = acc
    return out


def test_matmul_matches_scalar_reference():
    rng = np.random.default_rng(1)
    # n * s a multiple of 8 or not (the numpy kernel XORs 8 bytes at a time
    # when it is), s itself not a multiple of 8, and no rows at all
    for n, k, s in ((5, 4, 7), (8, 3, 16), (4, 5, 6), (3, 2, 3), (0, 3, 8)):
        coeffs = rng.integers(0, 256, (n, k), dtype=np.uint8)
        data = rng.integers(0, 256, (k, s), dtype=np.uint8)
        want = _scalar_matmul(coeffs, data)
        assert np.array_equal(gf_matmul(coeffs, data), want), (n, k, s)


def test_matmul_backends_agree_exactly():
    # at a codec-sized shape, against one MUL_TABLE row lookup per product
    # XOR-reduced over k, rather than the flat-index lookup the kernel uses
    rng = np.random.default_rng(2)
    coeffs = rng.integers(0, 256, (40, 32), dtype=np.uint8)
    data = rng.integers(0, 256, (32, 64), dtype=np.uint8)
    want = np.bitwise_xor.reduce(MUL_TABLE[coeffs[:, :, None], data[None, :, :]], axis=1)
    assert np.array_equal(gf_matmul(coeffs, data), want)


def test_matmul_empty_inner_dimension():
    coeffs = np.zeros((3, 0), dtype=np.uint8)
    data = np.zeros((0, 5), dtype=np.uint8)
    assert np.array_equal(gf_matmul(coeffs, data), np.zeros((3, 5), dtype=np.uint8))


def test_rref_backends_agree():
    # the reduced row echelon form of a consistent system is unique, so any
    # row order of the same (sometimes rank-deficient) system must reduce to
    # the same pivots and rows, with every pivot column a unit vector
    rng = np.random.default_rng(3)
    for trial in range(10):
        n, u, extra = (int(rng.integers(lo, hi)) for lo, hi in ((2, 12), (2, 10), (1, 8)))
        coeffs = rng.integers(0, 256, (n, u), dtype=np.uint8)
        coeffs[:, rng.random(u) < 0.2] = 0
        unknowns = rng.integers(0, 256, (u, extra), dtype=np.uint8)
        aug = np.hstack([coeffs, gf_matmul(coeffs, unknowns)])
        a, b = aug.copy(), aug[rng.permutation(n)]
        owner = gf_rref(a, u)
        assert np.array_equal(owner, gf_rref(b, u)), trial
        assert np.array_equal(a, b), trial
        rank = int(np.count_nonzero(owner >= 0))
        assert np.array_equal(np.sort(owner[owner >= 0]), np.arange(rank)), trial
        for col in np.flatnonzero(owner >= 0):
            assert np.array_equal(np.flatnonzero(a[:, col]), [owner[col]]), trial
            assert a[owner[col], col] == 1, trial
        assert not a[rank:].any(), trial


def test_rref_recovers_known_solution():
    rng = np.random.default_rng(4)
    unknowns = rng.integers(0, 256, (6, 3), dtype=np.uint8)
    coeffs = np.eye(6, dtype=np.uint8)
    # random invertible-by-construction system: identity plus row mixing
    for _ in range(30):
        i, j = rng.integers(0, 6, 2)
        if i == j:
            continue
        factor = int(rng.integers(1, 256))
        coeffs[i] ^= gf_matmul(
            np.array([[factor]], dtype=np.uint8), coeffs[j][None, :]
        )[0]
    rhs = gf_matmul(coeffs, unknowns)
    aug = np.concatenate([coeffs, rhs], axis=1).astype(np.uint8)
    owner = gf_rref(aug, 6)
    assert (owner >= 0).all()
    solved = np.zeros_like(unknowns)
    for col in range(6):
        solved[col] = aug[owner[col], 6:]
    assert np.array_equal(solved, unknowns)


def test_expected_layers_backends_agree_at_table_scale():
    # class counts up to the full budget stress the deficit walk's slice
    # clamping, which only matters when a count exceeds the state space; the
    # numpy kernel must match the per-strategy reference bit for bit in every
    # bin, so no table argmax can move with the kernel
    strategies = np.asarray(enumerate_strategies(64, 4, 4), dtype=np.int64)
    for p in PDR_BINS:
        rows = _pmf_rows(64, float(p))
        ref = expected_layers_reference(strategies, rows, 8)
        assert np.array_equal(expected_layers_batch(strategies, rows, 8), ref), p


def test_expected_layers_numpy_matches_reference_on_random_shapes():
    # counts up to three times the L*P+1 deficit states cover every clamped
    # slice; p = 0 and p = 1 give rows whose weights are mostly exact zeros
    rng = np.random.default_rng(6)
    for trial in range(60):
        layers = int(rng.integers(1, 6))
        per_layer = int(rng.integers(1, 5))
        top = 3 * (layers * per_layer + 1)
        strategies = rng.integers(0, top + 1, (int(rng.integers(1, 12)), layers))
        p = (0.0, 1.0, float(rng.random()))[trial % 3]
        rows = _pmf_rows(int(strategies.max()), p)
        ref = expected_layers_reference(strategies, rows, per_layer)
        got = expected_layers_batch(strategies, rows, per_layer)
        assert np.array_equal(got, ref), (trial, strategies.tolist(), p, per_layer)

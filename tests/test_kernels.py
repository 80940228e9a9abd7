import os
import subprocess
import sys

import numpy as np
import pytest

from nclayer import kernels
from nclayer.gf256 import gf256_mul
from nclayer.kernels import (
    BACKEND,
    HAS_NUMBA,
    expected_layers_batch,
    expected_layers_batch_numpy,
    gf_matmul,
    gf_rref,
    matmul_numpy,
    rref_numpy,
)
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
        assert np.array_equal(matmul_numpy(coeffs, data), want), (n, k, s)


def test_matmul_backends_agree_exactly():
    rng = np.random.default_rng(2)
    coeffs = rng.integers(0, 256, (40, 32), dtype=np.uint8)
    data = rng.integers(0, 256, (32, 64), dtype=np.uint8)
    assert np.array_equal(gf_matmul(coeffs, data), matmul_numpy(coeffs, data))


def test_matmul_empty_inner_dimension():
    coeffs = np.zeros((3, 0), dtype=np.uint8)
    data = np.zeros((0, 5), dtype=np.uint8)
    assert np.array_equal(gf_matmul(coeffs, data), np.zeros((3, 5), dtype=np.uint8))


def test_rref_backends_agree():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n, u, extra = rng.integers(2, 12), rng.integers(2, 10), rng.integers(1, 8)
        aug = rng.integers(0, 256, (int(n), int(u + extra)), dtype=np.uint8)
        a, b = aug.copy(), aug.copy()
        owner_jit = gf_rref(a, int(u))
        owner_np = rref_numpy(b, int(u))
        assert np.array_equal(owner_jit, owner_np), trial
        assert np.array_equal(a, b), trial


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
        coeffs[i] ^= matmul_numpy(
            np.array([[factor]], dtype=np.uint8), coeffs[j][None, :]
        )[0]
    rhs = matmul_numpy(coeffs, unknowns)
    aug = np.concatenate([coeffs, rhs], axis=1).astype(np.uint8)
    owner = gf_rref(aug, 6)
    assert (owner >= 0).all()
    solved = np.zeros_like(unknowns)
    for col in range(6):
        solved[col] = aug[owner[col], 6:]
    assert np.array_equal(solved, unknowns)


def test_expected_layers_backends_agree():
    rng = np.random.default_rng(5)
    strategies = rng.integers(0, 9, (25, 3)).astype(np.int64)
    for p in (0.25, 0.6, 0.95):
        rows = _pmf_rows(8, p)
        got = expected_layers_batch(strategies, rows, 2)
        ref = expected_layers_batch_numpy(strategies, rows, 2)
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12)


def test_expected_layers_backends_agree_at_table_scale():
    # class counts up to the full budget stress the deficit walk's slice
    # clamping, which only matters when a count exceeds the state space; the
    # numpy kernel must match the per-strategy reference bit for bit in every
    # bin, so no table argmax can move with the kernel
    strategies = np.asarray(enumerate_strategies(64, 4, 4), dtype=np.int64)
    for p in PDR_BINS:
        rows = _pmf_rows(64, float(p))
        ref = expected_layers_reference(strategies, rows, 8)
        assert np.array_equal(expected_layers_batch_numpy(strategies, rows, 8), ref), p
        got = expected_layers_batch(strategies, rows, 8)
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12), p


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
        got = expected_layers_batch_numpy(strategies, rows, per_layer)
        assert np.array_equal(got, ref), (trial, strategies.tolist(), p, per_layer)


def test_env_flag_forces_numpy_backend():
    env = dict(os.environ, NCLAYER_BACKEND="numpy")
    out = subprocess.run(
        [sys.executable, "-c", "from nclayer.kernels import BACKEND; print(BACKEND)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "numpy"


@pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
def test_default_backend_is_numba_when_available():
    env = {k: v for k, v in os.environ.items() if k != "NCLAYER_BACKEND"}
    out = subprocess.run(
        [sys.executable, "-c", "from nclayer.kernels import BACKEND; print(BACKEND)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "numba"


def test_backend_constant_consistent():
    assert BACKEND in ("numba", "numpy")
    if BACKEND == "numba":
        assert kernels.HAS_NUMBA

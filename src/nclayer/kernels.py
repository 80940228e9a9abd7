"""Bulk numeric kernels behind the codec and the strategy table builder.

Two interchangeable backends implement the same table-driven arithmetic: a
numba nopython path and a pure-numpy path. Set NCLAYER_BACKEND=numpy to force
the fallback; otherwise numba is used whenever it imports cleanly. The choice
is made once at import time and only affects speed, never results.
"""

from __future__ import annotations

import os

import numpy as np

from .gf256 import INV_TABLE, MUL_TABLE

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised via NCLAYER_BACKEND instead
    HAS_NUMBA = False


def matmul_numpy(coeffs: np.ndarray, data: np.ndarray) -> np.ndarray:
    """GF(2^8) product of (n, k) coefficients with (k, s) payload rows."""
    n = coeffs.shape[0]
    if coeffs.shape[1] == 0:
        return np.zeros((n, data.shape[1]), dtype=np.uint8)
    prods = MUL_TABLE[coeffs[:, :, None], data[None, :, :]]
    return np.bitwise_xor.reduce(prods, axis=1)


def rref_numpy(aug: np.ndarray, n_unknowns: int) -> np.ndarray:
    """Reduced row echelon form of ``aug`` in place, over GF(2^8).

    Pivots are searched only in the first ``n_unknowns`` columns; the rest of
    each row rides along as augmented payload. Returns an int32 array mapping
    every unknown column to the row holding its pivot, -1 where none exists.
    """
    n_rows = aug.shape[0]
    owner = np.full(n_unknowns, -1, dtype=np.int32)
    rank = 0
    for col in range(n_unknowns):
        if rank == n_rows:
            break
        pivot = -1
        for r in range(rank, n_rows):
            if aug[r, col]:
                pivot = r
                break
        if pivot < 0:
            continue
        if pivot != rank:
            aug[[pivot, rank]] = aug[[rank, pivot]]
        row = aug[rank]
        scale = INV_TABLE[row[col]]
        if scale != 1:
            row[:] = MUL_TABLE[scale, row]
        mask = aug[:, col] != 0
        mask[rank] = False
        if mask.any():
            factors = aug[mask, col]
            aug[mask] ^= MUL_TABLE[factors[:, None], row[None, :]]
        owner[col] = rank
        rank += 1
    return owner


def _expected_layers_batch_numpy(strategies, pmf_rows, per_layer):
    """Mean decodable depth for each replica allocation, exact arithmetic.

    Reception of class i is a binomial count r_i; depth i is decodable exactly
    when the deficit walk G_i = max(G_{i-1} - r_i + per_layer, 0) sits at zero,
    so the decoded depth is the walk's last zero. A forward occupancy pass and
    a backward zero-avoidance pass give the depth distribution exactly.

    All strategies advance together: each pass holds one (n_strategies,
    L*P+1) array, and outcome r updates the rows whose class count reaches r,
    each weighted from its strategy's own binomial row. Every element sees
    the floating-point operations of a strategy-at-a-time walk that skips
    zero weights, in the same order: multiply, then accumulate in ascending
    r, where a zero weight the walk skips adds an exact zero here. So the
    values are bit-identical to that walk whatever the batch holds.
    """
    n_strategies, n_layers = strategies.shape
    n_states = n_layers * per_layer + 1
    zero_occupancy = np.zeros((n_strategies, n_layers + 1))
    f = np.zeros((n_strategies, n_states))
    f[:, 0] = 1.0
    for i in range(1, n_layers + 1):
        f = _forward_step_numpy(f, strategies[:, i - 1], pmf_rows, per_layer)
        zero_occupancy[:, i] = f[:, 0]
    value = n_layers * zero_occupancy[:, n_layers]
    bq = np.ones((n_strategies, n_states))
    for i in range(n_layers - 1, 0, -1):
        bq = _backward_step_numpy(bq, strategies[:, i], pmf_rows, per_layer)
        value += i * zero_occupancy[:, i] * bq[:, 0]
    return value


def _by_count(counts):
    """Row order by descending class count, and for each r the number of
    leading rows in that order whose count reaches r.

    Strategies that cannot receive r packets of the class form the tail, so
    each outcome r updates a prefix slice only; the rows it skips are the
    ones whose weight for r is zero, which add nothing in a per-strategy walk.
    """
    order = np.argsort(-counts, kind="stable")
    ordered = counts[order]
    reach = np.searchsorted(-ordered, -np.arange(ordered[0] + 1), side="right")
    return order, ordered, reach


def _forward_step_numpy(f, counts, pmf_rows, per_layer):
    n_states = f.shape[1]
    order, counts, reach = _by_count(counts)
    f = f[order]
    new = np.zeros_like(f)
    spill = np.zeros(f.shape[0])
    for r, k in enumerate(reach):
        w = pmf_rows[counts[:k], r]
        shift = per_layer - r
        if shift > 0:
            new[:k, shift:] += w[:, None] * f[:k, : n_states - shift]
        elif shift == 0:
            new[:k] += w[:, None] * f[:k]
        else:
            drop = -shift
            spill[:k] += w * f[:k, : drop + 1].sum(axis=1)
            if drop + 1 < n_states:
                new[:k, 1 : n_states - drop] += w[:, None] * f[:k, drop + 1 :]
    new[:, 0] += spill
    out = np.empty_like(new)
    out[order] = new
    return out


def _backward_step_numpy(bq, counts, pmf_rows, per_layer):
    # States above the reachable deficit bound never feed position zero, so
    # transitions past the top of the array can be dropped without error;
    # from r = per_layer + n_states - 1 on, every transition lands there.
    n_states = bq.shape[1]
    order, counts, reach = _by_count(counts)
    bq = bq[order]
    new = np.zeros_like(bq)
    for r, k in enumerate(reach[: per_layer + n_states - 1]):
        w = pmf_rows[counts[:k], r][:, None]
        shift = per_layer - r
        if shift > 0:
            new[:k, : n_states - shift] += w * bq[:k, shift:]
        elif shift == 0:
            new[:k, 1:] += w * bq[:k, 1:]
        else:
            drop = -shift
            new[:k, drop + 1 :] += w * bq[:k, 1 : n_states - drop]
    out = np.empty_like(new)
    out[order] = new
    return out


BACKEND = "numpy"
if HAS_NUMBA and os.environ.get("NCLAYER_BACKEND", "").strip().lower() != "numpy":
    BACKEND = "numba"


if BACKEND == "numba":

    @njit(cache=True)
    def _matmul_jit(coeffs, data, mul):
        n, k = coeffs.shape
        s = data.shape[1]
        out = np.zeros((n, s), dtype=np.uint8)
        for i in range(n):
            for j in range(k):
                c = coeffs[i, j]
                if c == 0:
                    continue
                row = mul[c]
                for t in range(s):
                    out[i, t] ^= row[data[j, t]]
        return out

    @njit(cache=True)
    def _rref_jit(aug, n_unknowns, mul, inv):
        n_rows, n_cols = aug.shape
        owner = np.full(n_unknowns, -1, dtype=np.int32)
        rank = 0
        for col in range(n_unknowns):
            if rank == n_rows:
                break
            pivot = -1
            for r in range(rank, n_rows):
                if aug[r, col] != 0:
                    pivot = r
                    break
            if pivot < 0:
                continue
            if pivot != rank:
                for t in range(n_cols):
                    tmp = aug[pivot, t]
                    aug[pivot, t] = aug[rank, t]
                    aug[rank, t] = tmp
            scale = inv[aug[rank, col]]
            if scale != 1:
                srow = mul[scale]
                for t in range(n_cols):
                    aug[rank, t] = srow[aug[rank, t]]
            for r in range(n_rows):
                if r == rank:
                    continue
                factor = aug[r, col]
                if factor == 0:
                    continue
                frow = mul[factor]
                for t in range(n_cols):
                    aug[r, t] ^= frow[aug[rank, t]]
            owner[col] = rank
            rank += 1
        return owner

    @njit(cache=True)
    def _expected_layers_batch_jit(strategies, pmf_rows, per_layer):
        n_strategies, n_layers = strategies.shape
        n_states = n_layers * per_layer + 1
        out = np.zeros(n_strategies)
        f = np.zeros(n_states)
        nf = np.zeros(n_states)
        bq = np.zeros(n_states)
        nbq = np.zeros(n_states)
        zero_occupancy = np.zeros(n_layers + 1)
        for s in range(n_strategies):
            for g in range(n_states):
                f[g] = 0.0
            f[0] = 1.0
            for i in range(1, n_layers + 1):
                x = strategies[s, i - 1]
                for g in range(n_states):
                    nf[g] = 0.0
                for g in range(n_states):
                    mass = f[g]
                    if mass == 0.0:
                        continue
                    for r in range(x + 1):
                        g2 = g - r + per_layer
                        if g2 < 0:
                            g2 = 0
                        nf[g2] += mass * pmf_rows[x, r]
                for g in range(n_states):
                    f[g] = nf[g]
                zero_occupancy[i] = f[0]
            value = n_layers * zero_occupancy[n_layers]
            for g in range(n_states):
                bq[g] = 1.0
            for i in range(n_layers - 1, 0, -1):
                x = strategies[s, i]
                for g in range(n_states):
                    acc = 0.0
                    for r in range(x + 1):
                        g2 = g - r + per_layer
                        if g2 <= 0:
                            continue
                        if g2 >= n_states:
                            continue
                        acc += pmf_rows[x, r] * bq[g2]
                    nbq[g] = acc
                for g in range(n_states):
                    bq[g] = nbq[g]
                value += i * zero_occupancy[i] * bq[0]
            out[s] = value
        return out

    def gf_matmul(coeffs, data):
        return _matmul_jit(
            np.ascontiguousarray(coeffs), np.ascontiguousarray(data), MUL_TABLE
        )

    def gf_rref(aug, n_unknowns):
        return _rref_jit(aug, n_unknowns, MUL_TABLE, INV_TABLE)

    def expected_layers_batch(strategies, pmf_rows, per_layer):
        return _expected_layers_batch_jit(
            np.ascontiguousarray(strategies, dtype=np.int64),
            np.ascontiguousarray(pmf_rows),
            per_layer,
        )

else:

    def gf_matmul(coeffs, data):
        return matmul_numpy(coeffs, data)

    def gf_rref(aug, n_unknowns):
        return rref_numpy(aug, n_unknowns)

    def expected_layers_batch(strategies, pmf_rows, per_layer):
        return _expected_layers_batch_numpy(
            np.asarray(strategies, dtype=np.int64), pmf_rows, per_layer
        )


def expected_layers_batch_numpy(strategies, pmf_rows, per_layer):
    """Fallback-path entry point, importable whichever backend is active."""
    return _expected_layers_batch_numpy(
        np.asarray(strategies, dtype=np.int64), pmf_rows, per_layer
    )

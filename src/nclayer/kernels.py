"""Bulk numeric kernels behind the codec and the strategy table builder:
GF(2^8) matrix product and row reduction, and the expected-depth dynamic
program, all in numpy.
"""

from __future__ import annotations

import numpy as np

from .gf256 import INV_TABLE, MUL_TABLE

_MUL_FLAT = MUL_TABLE.reshape(-1)


def gf_matmul(coeffs: np.ndarray, data: np.ndarray) -> np.ndarray:
    """GF(2^8) product of (n, k) coefficients with (k, s) payload rows.

    Each product is one lookup in the flat product table at (c << 8) | d.
    The products are laid out k-major, so the XOR over k runs down the
    leading axis, eight bytes at a time when n * s is a multiple of 8.
    """
    n, k = coeffs.shape
    s = data.shape[1]
    if k == 0:
        return np.zeros((n, s), dtype=np.uint8)
    index = (coeffs.T.astype(np.uint16) << 8)[:, :, None] | data[:, None, :]
    prods = _MUL_FLAT.take(index).reshape(k, n * s)
    if n * s % 8 == 0:
        prods = prods.view(np.uint64)
    return np.bitwise_xor.reduce(prods, axis=0).view(np.uint8).reshape(n, s)


def gf_rref(aug: np.ndarray, n_unknowns: int) -> np.ndarray:
    """Reduced row echelon form of ``aug`` in place, over GF(2^8).

    Pivots are searched only in the first ``n_unknowns`` columns; the rest of
    each row rides along as augmented payload. Returns an int32 array mapping
    every unknown column to the row holding its pivot, -1 where none exists.

    The pivot is the first nonzero entry at or below the rank row. Every
    column left of the pivot column is zero in the pivot row, so scaling and
    clearing touch only the window from the pivot column on, each as one
    lookup in the flat product table at (c << 8) | d.
    """
    n_rows = aug.shape[0]
    owner = np.full(n_unknowns, -1, dtype=np.int32)
    rank = 0
    for col in range(n_unknowns):
        if rank == n_rows:
            break
        if not aug[rank, col]:
            below = aug[rank:, col].nonzero()[0]
            if not below.size:
                continue
            pivot = rank + int(below[0])
            aug[[pivot, rank]] = aug[[rank, pivot]]
        window = aug[:, col:]
        row = window[rank]
        row[:] = _MUL_FLAT.take((int(INV_TABLE[row[0]]) << 8) | row.astype(np.uint16))
        factors = window[:, 0].astype(np.uint16) << 8
        factors[rank] = 0
        window ^= _MUL_FLAT.take(factors[:, None] | row)
        owner[col] = rank
        rank += 1
    return owner


def expected_layers_batch(strategies, pmf_rows, per_layer):
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
    strategies = np.asarray(strategies, dtype=np.int64)
    n_strategies, n_layers = strategies.shape
    n_states = n_layers * per_layer + 1
    zero_occupancy = np.zeros((n_strategies, n_layers + 1))
    f = np.zeros((n_strategies, n_states))
    f[:, 0] = 1.0
    for i in range(1, n_layers + 1):
        f = _forward_step(f, strategies[:, i - 1], pmf_rows, per_layer)
        zero_occupancy[:, i] = f[:, 0]
    value = n_layers * zero_occupancy[:, n_layers]
    bq = np.ones((n_strategies, n_states))
    for i in range(n_layers - 1, 0, -1):
        bq = _backward_step(bq, strategies[:, i], pmf_rows, per_layer)
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


def _forward_step(f, counts, pmf_rows, per_layer):
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


def _backward_step(bq, counts, pmf_rows, per_layer):
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

"""Bulk numeric kernels behind the codec and the strategy table builder:
GF(2^8) matrix product and row reduction, and the expected-depth dynamic
program, all in numpy.
"""

from __future__ import annotations

import numpy as np

from .gf256 import INV_TABLE, MUL_TABLE

_MUL_FLAT = MUL_TABLE.reshape(-1)
# each inverse shifted to the row index of its products in _MUL_FLAT
_INV_ROW = INV_TABLE.astype(np.uint16) << 8


def gf_matmul(coeffs: np.ndarray, data: np.ndarray) -> np.ndarray:
    """GF(2^8) product of (n, k) coefficients with (k, s) payload rows.

    Each product is one lookup in the flat product table at (c << 8) | d.
    The products are laid out k-major, so the XOR over k runs down the
    leading axis, eight bytes at a time when n * s is a multiple of 8.
    """
    n, k = coeffs.shape
    s = data.shape[1]
    if k == 0 or s == 0:
        return np.zeros((n, s), dtype=np.uint8)
    index = (coeffs.T.astype(np.uint16) << 8)[:, :, None] | data[:, None, :]
    prods = _MUL_FLAT.take(index).reshape(k, n * s)
    if n * s % 8 == 0:
        prods = prods.view(np.uint64)
    return np.bitwise_xor.reduce(prods, axis=0).view(np.uint8).reshape(n, s)


def gf_rref(aug: np.ndarray, n_unknowns: int) -> np.ndarray:
    """Reduced row echelon form, in place over GF(2^8), of every system in a
    zero-padded (G, n, w) stack; a 2-D array is a stack of one.

    Pivots are searched only in the first ``n_unknowns`` columns; the rest of
    each row rides along as augmented payload. Returns an int32 array of
    shape (G, n_unknowns), or (n_unknowns,) for a 2-D ``aug``, mapping every
    unknown column of a system to the row holding its pivot, -1 where none
    exists.

    Each system goes through the operations of an elimination on its own:
    the pivot is the first nonzero entry at or below its rank row, and every
    column left of the pivot column is zero in the pivot row, so scaling and
    clearing touch only the window from the pivot column on, each as one
    lookup in the flat product table at (c << 8) | d. A system with no pivot
    in a column is cleared with zero factors, which leaves it as it was, and
    its zero padding rows never hold a pivot, so they stay zero. While every
    system has the same rank, its pivot rows are one plain slice of the
    stack (a stack of one always is); once a column gives some systems a
    pivot and others none, ranks differ and pivot rows are gathered per
    system.
    """
    stack = aug if aug.ndim == 3 else aug[None]
    n_sys, n_rows = stack.shape[:2]
    owner = np.full((n_sys, n_unknowns), -1, dtype=np.int32)
    systems = np.arange(n_sys)
    rows_at = np.arange(n_rows)
    rank = np.zeros(n_sys, dtype=np.intp)
    same = 0  # the rank every system has; -1 once they differ, then rank holds each
    for col in range(n_unknowns):
        if same == n_rows:
            break
        window = stack[:, :, col:]
        if same >= 0 and np.count_nonzero(window[:, same, 0]) < n_sys:
            # bring each system's pivot, the first nonzero entry at or below
            # the rank row, up to that row
            below = window[:, same:, 0] != 0
            if not np.count_nonzero(below):
                continue
            found = np.logical_or.reduce(below, axis=1)
            pivot = same + below.argmax(axis=1)
            if np.count_nonzero(found) == n_sys:
                low = stack[:, same].copy()
                stack[:, same] = stack[systems, pivot]
                stack[systems, pivot] = low
            else:
                rank[:] = same
                same = -1
        if same >= 0:
            row = window[:, same]
            row[:] = _MUL_FLAT.take(_INV_ROW.take(row[:, 0])[:, None] | row)
            factors = window[:, :, 0].astype(np.uint16) << 8
            factors[:, same] = 0
            window ^= _MUL_FLAT.take(factors[:, :, None] | row[:, None, :])
            owner[:, col] = same
            same += 1
            continue
        below = (window[:, :, 0] != 0) & (rows_at >= rank[:, None])
        if not np.count_nonzero(below):
            continue
        found = np.logical_or.reduce(below, axis=1)
        at = systems[found]
        top = rank[found]
        pivot = below[found].argmax(axis=1)
        stack[at, top], stack[at, pivot] = stack[at, pivot], stack[at, top]
        row = window[at, top]
        row = _MUL_FLAT.take(_INV_ROW.take(row[:, 0])[:, None] | row)
        window[at, top] = row
        factors = window[at, :, 0].astype(np.uint16) << 8
        factors[np.arange(at.size), top] = 0
        window[at] ^= _MUL_FLAT.take(factors[:, :, None] | row[:, None, :])
        owner[at, col] = top
        rank[at] += 1
    return owner if aug.ndim == 3 else owner[0]


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

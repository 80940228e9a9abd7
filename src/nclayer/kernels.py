"""Bulk numeric kernels behind the codec and the strategy table builder:
GF(2^8) matrix product and row reduction over stacks of systems, and the
expected-depth dynamic program over every strategy of a stack of delivery
bins, all in numpy.
"""

from __future__ import annotations

import numpy as np

from .gf256 import INV_TABLE, MUL_TABLE

_MUL_FLAT = MUL_TABLE.reshape(-1)
# each product shifted to the row index of its own products in _MUL_FLAT
_MUL_HIGH = _MUL_FLAT.astype(np.uint16) << 8
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

    Each system ends as an elimination of its own leaves it: the pivot is
    the first nonzero entry at or below its rank row, it is swapped up and
    scaled to 1, and the column is cleared from every other row, each
    product one lookup in the flat product table at (c << 8) | d. The work
    runs on a column-major copy t[j, g, r] of the stack, taken once and
    written back once, so that a column of every system's rows is one
    contiguous run of G * n bytes: the lead column, the factors and each
    cleared column are plain runs, and a pivot column clears the contiguous
    block of columns it reaches in one lookup. The lead column itself holds
    the factors: the pivot row is cleared too, by its own lead times the
    scaled row, which is the row itself, and the scaled row then takes its
    place.

    Rows at or below the rank row are zero left of the pivot column, so a
    swap and the scaling move only the columns from the pivot column on.
    Among the unknowns, clearing stops after the last column that any
    system's pivot row reaches: a product with 0 is 0, so the columns past it
    would not change (classes nest, so a layer-l pivot row is usually zero
    past column l * P). Payload columns are always cleared. A system with no
    pivot in a column is cleared against a zero pivot row, which leaves it as
    it was, and its zero padding rows never hold a pivot, so they stay zero.
    While every system has the same rank, its pivot rows are one plain slice
    of the copy (a stack of one always is); once a column gives some systems
    a pivot and others none, ranks differ and pivot rows are gathered per
    system.
    """
    stack = aug if aug.ndim == 3 else aug[None]
    n_sys, n_rows, width = stack.shape
    owner = np.full((n_sys, n_unknowns), -1, dtype=np.int32)
    if not n_sys or not n_rows:
        return owner if aug.ndim == 3 else owner[0]
    t = np.ascontiguousarray(stack.transpose(2, 0, 1))
    # flat[j, g * n_rows + r] is t[j, g, r]
    flat = t.reshape(width, n_sys * n_rows)
    base = np.arange(n_sys) * n_rows
    rows_at = np.arange(n_rows)
    rank = np.zeros(n_sys, dtype=np.intp)
    same = 0  # the rank every system has; -1 once they differ, then rank holds each
    shared = []  # the pivot columns of the rows 0, 1, ... of every system
    for col in range(n_unknowns):
        if same == n_rows:
            break
        lead = t[col]
        if same >= 0 and np.count_nonzero(lead[:, same]) < n_sys:
            # bring each system's pivot, the first nonzero entry at or below
            # the rank row, up to that row
            below = lead[:, same:] != 0
            if not np.count_nonzero(below):
                continue
            if np.count_nonzero(np.logical_or.reduce(below, axis=1)) == n_sys:
                top = base + same
                _swap_columns(flat[col:], top, top + below.argmax(axis=1))
            else:
                rank[:] = same
                same = -1
        if same >= 0:
            row = t[col:, :, same]
            index = _INV_ROW.take(row[0]) | row
            scaled = _MUL_FLAT.take(index)
            pivots = _MUL_HIGH.take(index)
            shared.append(col)
            same += 1
        else:
            below = (lead != 0) & (rows_at >= rank[:, None])
            if not np.count_nonzero(below):
                continue
            at = np.flatnonzero(np.logical_or.reduce(below, axis=1))
            top = base[at] + rank[at]
            _swap_columns(flat[col:], top, base[at] + below[at].argmax(axis=1))
            row = flat[col:, top]
            index = _INV_ROW.take(row[0]) | row
            scaled = _MUL_FLAT.take(index)
            pivots = np.zeros((width - col, n_sys), dtype=np.uint16)
            pivots[:, at] = _MUL_HIGH.take(index)
            owner[at, col] = rank[at]
            rank[at] += 1
        # stop after the last unknown column that a pivot row reaches; the
        # scaled pivot entry in column col is 1, so some row is nonzero
        span = n_unknowns - col
        reach = span - (pivots[span - 1 :: -1] != 0).argmax() // n_sys
        split = reach < span and width > n_unknowns
        if split:
            pivots = np.concatenate((pivots[:reach], pivots[span:]))
        elif reach < span:
            pivots = pivots[:reach]
        # every row, the pivot rows too, is cleared with its entry in column
        # col as the factor, which turns each pivot row to zero
        index = np.repeat(pivots, n_rows, axis=1)
        index |= lead.reshape(-1)
        prods = _MUL_FLAT.take(index)
        if split:
            flat[col : col + reach] ^= prods[:reach]
            flat[n_unknowns:] ^= prods[reach:]
        else:
            flat[col : col + len(prods)] ^= prods
        if same >= 0:
            t[col:, :, same - 1] = scaled
        else:
            flat[col:, top] = scaled
    owner[:, shared] = np.arange(len(shared))
    stack[...] = t.transpose(1, 2, 0)
    return owner if aug.ndim == 3 else owner[0]


def _swap_columns(block, a, b):
    """Swaps columns a and b of a 2-D block, pairwise."""
    low = block[:, a]
    block[:, a] = block[:, b]
    block[:, b] = low


# Most bytes of one expected-depth step's state, reachable states x rows x
# bins float64s, that expected_layers_batch steps at once. A pass steps over
# every bin while its steps fit; from the first step that does not, it
# finishes one chunk of bins at a time. A step keeps a few arrays of that
# size live, so this bounds a table build's working memory whatever the
# table's size. At B=64, L=4, P=8, g=4 only the 969-row steps split.
TABLE_STEP_BYTES = 1 << 20


def expected_layers_batch(strategies, pmf_rows, per_layer):
    """Mean decodable depth for each replica allocation in each delivery bin,
    exact arithmetic.

    ``pmf_rows`` is one bin's square Binomial pmf rows (n, n), giving values
    of shape (strategies,), or a (bins, n, n) stack of them, giving
    (strategies, bins).

    Reception of class i is a binomial count r_i; depth i is decodable exactly
    when the deficit walk G_i = max(G_{i-1} - r_i + per_layer, 0) sits at zero,
    so the decoded depth is the walk's last zero. A forward occupancy pass and
    a backward zero-avoidance pass give the depth distribution exactly.

    The forward occupancy after class i depends only on a strategy's first i
    counts, and the backward vector from class i on only on its later counts,
    so each pass advances one (states, rows, bins) array holding one row per
    distinct count prefix (or suffix) and one column per bin, each step
    starting from its parent prefix's row, taken with ``take(parent,
    axis=1)`` (a fancy index on the middle axis returns a transposed,
    non-contiguous copy). With the state axis outermost each state is one
    contiguous plane of rows x bins values, so a shifted multiply-add runs
    over whole planes. A pass steps over every bin at once while a step's
    state fits ``TABLE_STEP_BYTES``; from the first step that does not, it
    runs its remaining steps one chunk of bins at a time, depth first. Each
    step keeps its state-zero row per prefix (or suffix) row, and the value
    is formed from those rows a chunk of bins at a time.

    The value reads only state zero of each pass's last step, so that step
    computes state zero alone, and the deficit after class i is at most i *
    per_layer, so each forward step holds only the states that can be
    nonzero and each backward step computes only the states the next one
    reads. Within a step, outcome r updates the rows whose class count
    reaches r, each weighted from its own binomial row in every bin. Every
    element sees the floating-point operations of a strategy-at-a-time walk
    in one bin that skips zero weights, in the same order: multiply, then
    accumulate in ascending r, where a zero weight the walk skips, or a
    state the trimmed step skips, adds an exact zero. A spill into state
    zero is the walk's numpy sum of the full zero-padded run of states it
    covers, added in numpy's order for a run of that length
    (``_prefix_sums``), since a sum in another order or of another length
    can round differently. So the values are bit-identical to that walk
    however the bins are stacked or chunked.
    """
    strategies = np.asarray(strategies, dtype=np.int64)
    n_strategies, n_layers = strategies.shape
    forward, backward = _count_steps(strategies)
    stack = pmf_rows if pmf_rows.ndim == 3 else pmf_rows[None]
    # weights[n, r] holds the Binomial(n, p) pmf at r of every bin
    weights = np.moveaxis(stack, 0, -1)
    n_bins = stack.shape[0]
    n_states = n_layers * per_layer + 1
    # the deficit after class i is at most i * per_layer, and each pass's
    # last step computes state zero alone
    forward_zeros, forward_chunk = _pass(
        np.ones((1, 1, n_bins)),
        forward,
        [i * per_layer + 1 for i in range(1, n_layers)] + [1],
        lambda f, counts, w, width: _forward_step(f, counts, w, per_layer, width, n_states),
        weights,
    )
    backward_zeros, backward_chunk = _pass(
        np.ones((n_states, 1, n_bins)),
        backward,
        [(i - 1) * per_layer + 1 for i in range(n_layers - 1, 0, -1)],
        lambda bq, counts, w, width: _backward_step(bq, counts, w, per_layer, width),
        weights,
    )
    value = np.empty((n_strategies, n_bins))
    chunk = min(forward_chunk, backward_chunk)
    for lo in range(0, n_bins, chunk):
        bins = slice(lo, lo + chunk)
        _add_depths(value[:, bins], forward, forward_zeros(bins), backward, backward_zeros(bins))
    return value if pmf_rows.ndim == 3 else value[:, 0]


def _add_depths(value, forward, f, backward, bq):
    """Writes each strategy's mean depth over a slice of bins into ``value``
    from the state-zero rows ``f`` and ``bq`` of every step of each pass,
    adding depth L, L - 1, ..., 1 in the order of the strategy-at-a-time
    walk."""
    n_layers = len(forward)
    value[...] = n_layers * f[-1][forward[-1][2]]
    for i, zero, (_, _, node) in zip(range(n_layers - 1, 0, -1), bq, backward):
        value += i * f[i - 1][forward[i - 1][2]] * zero[node]


def _pass(state, steps, widths, advance, weights):
    """Starts one pass of expected_layers_batch from a (states, 1, bins)
    ``state``.

    Each step takes its rows from their parents and ``advance``s them by
    their class counts to ``width`` states. Steps run here over every bin
    while their state, the larger of the states they start from and end
    with, fits ``TABLE_STEP_BYTES``. Returns a function that gives every
    step's state-zero row, (rows, bins), over a slice of bins, running the
    remaining steps on those bins alone, and the most bins a slice may hold
    for those steps to fit: every bin when no step is left, else at least
    one.
    """
    n_bins = state.shape[2]
    starts = [len(state)] + widths[:-1]
    bin_bytes = [
        8 * max(start, width) * len(parent)
        for start, width, (parent, _, _) in zip(starts, widths, steps)
    ]
    split = next(
        (j for j, size in enumerate(bin_bytes) if size * n_bins > TABLE_STEP_BYTES),
        len(steps),
    )

    def run(state, first, last, bins):
        zeros = []
        for j in range(first, last):
            parent, counts, _ = steps[j]
            state = state.take(parent, axis=1)  # frees the last step's state
            state = advance(state, counts, weights[..., bins], widths[j])
            zeros.append(state[0].copy())
        return state, zeros

    state, zeros = run(state, 0, split, slice(None))

    def zero_rows(bins):
        return [zero[:, bins] for zero in zeros] + run(state[..., bins], split, len(steps), bins)[1]

    if split == len(steps):
        return zero_rows, n_bins
    return zero_rows, max(1, TABLE_STEP_BYTES // max(bin_bytes[split:]))


def _count_steps(strategies):
    """The rows of every step of both passes of expected_layers_batch.

    Returns the forward steps, over classes 1 to L, and the backward steps,
    over classes L down to 2, each a list of ``_extend`` results: every
    step row's parent row and class count, and each strategy's row. They
    depend on the strategies alone, so one set serves every bin.
    """
    strategies = np.asarray(strategies, dtype=np.int64)
    n_strategies, n_layers = strategies.shape
    radix = int(strategies.max()) + 1
    passes = []
    for columns in (range(n_layers), range(n_layers - 1, 0, -1)):
        node = np.zeros(n_strategies, dtype=np.int64)
        steps = []
        for column in columns:
            parent, counts, node = _extend(node, strategies[:, column], radix)
            steps.append((parent, counts, node))
        passes.append(steps)
    return passes


def _extend(node, counts, radix):
    """Distinct (row, count) pairs of a pass's next step.

    ``node`` holds each strategy's row in the current step; the key
    ``node * radix + count`` names its row in the next one. Returns each new
    row's parent row and class count, and each strategy's new row, with the
    new rows in descending order of count.
    """
    keys, node = np.unique(node * radix + counts, return_inverse=True)
    order = np.argsort(-(keys % radix), kind="stable")
    row_of = np.empty_like(order)
    row_of[order] = np.arange(order.size)
    keys = keys[order]
    return keys // radix, keys % radix, row_of[node]


def _reach(counts):
    """For each r, the number of leading rows whose count, in descending
    order, reaches r.

    Rows that cannot receive r packets of the class form the tail, so each
    outcome r updates a prefix slice only; the rows it skips are the ones
    whose weight for r is zero, which add nothing in a per-strategy walk.
    """
    return np.searchsorted(-counts, -np.arange(counts[0] + 1), side="right")


def _forward_step(f, counts, weights, per_layer, width, n_states):
    # f is (states, rows, bins), holding states 0 to len(f) - 1 of n_states,
    # the rest zero, and its rows come in descending order of count. Outcome
    # r moves state j to j + shift, shift = per_layer - r, and every state
    # that would fall below zero spills into state zero; only the first
    # ``width`` states of the result are computed
    live = len(f)
    new = np.zeros((width,) + f.shape[1:])
    spill = np.zeros(f.shape[1:])
    sums = _prefix_sums(f, n_states)
    next(sums)
    for r, k in enumerate(_reach(counts)):
        shift = per_layer - r
        if shift >= width:
            continue
        w = weights[counts[:k], r]
        if shift >= 0:
            m = min(width - shift, live)
            new[shift : shift + m, :k] += w * f[:m, :k]
            if not shift:
                sums.send(k)  # the one-state sum the spills grow from
            continue
        spill[:k] += w * sums.send(k)
        hi = min(width, live + shift)
        if hi > 1:
            new[1:hi, :k] += w * f[1 - shift : hi - shift, :k]
    new[0] += spill
    return new


def _prefix_sums(a, n_max):
    """Generator of the sums of the first n state planes of a (states, rows,
    bins) array, for n = 1, 2, ... up to n_max and n_max after that; each
    ``send(k)`` returns the next one over the first k rows, k never growing.
    Planes past len(a) are zero.

    Each sum adds its n values in the order numpy's ``sum`` adds a
    contiguous run of n: under 8 in order from 0.0; up to 128 in eight
    strided accumulators, combined as ((0+1)+(2+3))+((4+5)+(6+7)), then the
    n % 8 left over in order; past 128 split at n // 2 rounded down to a
    multiple of 8, each part summed the same way. So each n costs one plane
    add, or one accumulator update every 8, and a split one sum of its
    second part, carried on from the last split at the same place.
    """
    k = yield
    acc = np.zeros((8, k) + a.shape[2:])
    s = np.zeros(acc.shape[1:])
    whole = {}  # the sums at multiples of 8, the first parts of splits
    split = rest = None
    for n in range(1, n_max + 1):
        if n > 128:
            half = n // 2 - n // 2 % 8
            if half != split:
                split, rest, m = half, _prefix_sums(a[half:], n_max - half), 0
                next(rest)
            s = whole[split][:k]
            if split < len(a):
                while m < n - split:
                    part = rest.send(k)
                    m += 1
                s = s + part
        elif n % 8:
            s = s[:k] + a[n - 1, :k] if n <= len(a) else s[:k]
        else:
            block = a[n - 8 : n, :k]
            acc = acc[:, :k]
            acc[: len(block)] += block
            pairs = acc[0::2] + acc[1::2]
            s = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
        if not n % 8:
            whole[n] = s
        k = yield s
    while True:
        k = yield s[:k]


def _backward_step(bq, counts, weights, per_layer, width):
    # bq is (states, rows, bins) and its rows come in descending order of
    # count. After outcome r, state j reads state j + shift, shift =
    # per_layer - r; a walk that lands on zero does not avoid it, so state
    # zero is never read. States above the reachable deficit bound never
    # feed state zero, so transitions past the top of the array are dropped
    # without error. Only the first ``width`` states of the result are
    # computed, so outcomes from r = per_layer + width - 1 on reach none of
    # them.
    n_states = bq.shape[0]
    new = np.zeros((width,) + bq.shape[1:])
    for r, k in enumerate(_reach(counts)[: per_layer + width - 1]):
        shift = per_layer - r
        lo = max(0, 1 - shift)
        hi = min(width, n_states - max(shift, 0))
        new[lo:hi, :k] += weights[counts[:k], r] * bq[lo + shift : hi + shift, :k]
    return new

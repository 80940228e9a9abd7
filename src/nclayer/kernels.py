"""Bulk numeric kernels behind the codec and the strategy table builder:
GF(2^8) matrix product and row reduction over stacks of systems, and the
expected-depth dynamic program over every strategy of a stack of delivery
bins, all in numpy.
"""

from __future__ import annotations

import math

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
# finishes one chunk of bins at a time. A step's taken rows, new state and
# products are a few arrays of that size, views of the one arena a call
# allocates, so this bounds a table build's working memory whatever the
# table's size. At B=64, L=4, P=8, g=4 only the 969-row steps split, and
# the arena is 2.9 MiB; fresh arrays per step in its place faulted in about
# 3,200 pages on every build.
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

    Every step works in contiguous views of one float64 arena, allocated
    once per call and sized from the steps' geometry before any of them
    runs: a step takes its parent rows to the front of the arena's working
    part, forms its products behind them, and writes its new state at the
    far end, over the state it took from. The state each pass's last
    every-bin step leaves, which its chunks start from, is kept ahead of the
    working part. Fresh arrays per step cost about 3,200 page faults on
    every build, as the allocator maps and trims them; one block per call
    costs a handful of faults once the allocator has seen its size. The
    state-zero rows and the values are arrays of their own, so nothing the
    arena holds outlives the call.

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
    passes = (
        _Pass(
            np.ones((1, 1, n_bins)),
            forward,
            [i * per_layer + 1 for i in range(1, n_layers)] + [1],
            lambda f, *args: _forward_step(f, *args, per_layer, n_states),
            lambda live, width, reach: _forward_scratch(live, width, reach, per_layer),
        ),
        _Pass(
            np.ones((n_states, 1, n_bins)),
            backward,
            [(i - 1) * per_layer + 1 for i in range(n_layers - 1, 0, -1)],
            lambda bq, *args: _backward_step(bq, *args, per_layer),
            _backward_scratch,
        ),
    )
    chunk = min(p.chunk for p in passes)
    # one block for the call: the state each pass's chunks start from, then
    # the working part, in which every step and every chunk's values are
    # formed
    size = sum(p.kept_size for p in passes)
    arena = np.empty(size + max(3 * n_strategies * chunk, *(p.work(chunk) for p in passes)))
    kept, work = arena[:size], arena[size:]
    for p in passes:
        p.run_every_bin(kept[: p.kept_size], work, weights)
        kept = kept[p.kept_size :]
    value = np.empty((n_strategies, n_bins))
    for lo in range(0, n_bins, chunk):
        bins = slice(lo, lo + chunk)
        _add_depths(
            value[:, bins],
            forward,
            passes[0].zero_rows(bins, work, weights),
            backward,
            passes[1].zero_rows(bins, work, weights),
            work,
        )
    return value if pmf_rows.ndim == 3 else value[:, 0]


def _add_depths(value, forward, f, backward, bq, scratch):
    """Writes each strategy's mean depth over a slice of bins into ``value``
    from the state-zero rows ``f`` and ``bq`` of every step of each pass,
    adding depth L, L - 1, ..., 1 in the order of the strategy-at-a-time
    walk. The sum and its terms are formed in ``scratch``, contiguous, and
    copied to ``value`` once."""
    n_layers = len(forward)
    total, term, tail = scratch[: 3 * value.size].reshape((3,) + value.shape)
    np.multiply(n_layers, f[-1].take(forward[-1][2], axis=0, out=term, mode="clip"), out=total)
    for i, zero, (_, _, node) in zip(range(n_layers - 1, 0, -1), bq, backward):
        np.multiply(i, f[i - 1].take(forward[i - 1][2], axis=0, out=term, mode="clip"), out=term)
        total += np.multiply(term, zero.take(node, axis=0, out=tail, mode="clip"), out=term)
    value[...] = total


class _Pass:
    """One pass of expected_layers_batch from a (states, 1, bins) ``start``.

    Each step takes its rows from their parents and ``advance``s them by
    their class counts to ``width`` states, in views of the arena: its taken
    rows at the front of the working part, its scratch behind them, its new
    state at the far end, where the state it took from lay. Steps run over
    every bin while their state, the larger of the states they start from
    and end with, fits ``TABLE_STEP_BYTES``; from the first that does not,
    ``split``, they run on at most ``chunk`` bins at a time, starting from
    the state the last every-bin step leaves, which it writes to
    ``kept_size`` floats of the arena ahead of the working part. ``scratch(live, width,
    reach)`` gives the scratch floats per bin a step needs.
    """

    def __init__(self, start, steps, widths, advance, scratch):
        self.state, self.steps, self.widths, self.advance = start, steps, widths, advance
        self.reach = [_reach(counts).tolist() for _, counts, _ in steps]
        n_bins, n_steps = start.shape[2], len(steps)
        starts = [len(start)] + widths[:-1]
        rows = [1] + [len(parent) for parent, _, _ in steps]
        bin_bytes = [8 * max(s, w) * r for s, w, r in zip(starts, widths, rows[1:])]
        self.split = split = next(
            (j for j, size in enumerate(bin_bytes) if size * n_bins > TABLE_STEP_BYTES),
            n_steps,
        )
        self.chunk, self.kept_size, kept_at = n_bins, 0, None
        if split < n_steps:
            self.chunk = max(1, TABLE_STEP_BYTES // max(bin_bytes[split:]))
            if split:
                self.kept_size, kept_at = widths[split - 1] * rows[split] * n_bins, split - 1
        # the floats per bin of the working part each step uses: its taken
        # rows, and after them the state it takes from, or its scratch and
        # its new state, which split - 1 writes to the kept part instead
        self.needs = [
            live * r
            + max(
                live * parent_rows,
                scratch(live, width, reach) + (0 if j == kept_at else width * r),
            )
            for j, (live, width, parent_rows, r, reach) in enumerate(
                zip(starts, widths, rows, rows[1:], self.reach)
            )
        ]

    def work(self, chunk):
        """The floats of the working part every step fits in, at most
        ``chunk`` bins a step from ``split`` on."""
        n_bins = self.state.shape[2]
        return max(
            (need * (n_bins if j < self.split else chunk) for j, need in enumerate(self.needs)),
            default=0,
        )

    def run_every_bin(self, kept, work, weights):
        """Runs the steps before ``split``, keeping their state-zero rows and
        the state the last of them leaves, in ``kept`` if they leave one."""
        self.state, self.zeros = self._run(
            self.state, 0, self.split, slice(None), work, weights, kept if kept.size else None
        )

    def zero_rows(self, bins, work, weights):
        """Every step's state-zero row, (rows, bins), over a slice of bins,
        running the steps from ``split`` on over those bins alone."""
        zeros = [zero[:, bins] for zero in self.zeros]
        if self.split < len(self.steps):
            state = self.state[..., bins]
            zeros += self._run(state, self.split, len(self.steps), bins, work, weights)[1]
        return zeros

    def _run(self, state, first, last, bins, work, weights, kept=None):
        weights, zeros = weights[..., bins], []
        for j in range(first, last):
            if not state.flags.c_contiguous:
                # a chunk of bins, which take would copy to an array of its own
                copy = work[len(work) - state.size :].reshape(state.shape)
                copy[...] = state
                state = copy
            parent, counts, _ = self.steps[j]
            n_bins = state.shape[2]
            taken = state.take(
                parent, axis=1, out=_view(work, (len(state), len(parent), n_bins)), mode="clip"
            )
            shape = (self.widths[j], len(parent), n_bins)
            if j == last - 1 and kept is not None:
                new, end = kept.reshape(shape), len(work)
            else:
                end = len(work) - len(parent) * n_bins * self.widths[j]
                new = work[end:].reshape(shape)
            state = self.advance(taken, new, work[taken.size : end], counts, self.reach[j], weights)
            zeros.append(state[0].copy())
        return state, zeros


def _view(flat, shape):
    """The first floats of a 1-D ``flat`` as a contiguous array of ``shape``."""
    return flat[: math.prod(shape)].reshape(shape)


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


def _forward_scratch(live, width, reach, per_layer):
    """The scratch floats per bin of a _forward_step from ``live`` states to
    ``width``: a row for the spill, then the products. Up to outcome
    per_layer a product covers at most min(width, live) states of every row.
    From then on the spill sums' 13 planes of the rows reaching per_layer lie
    on top, and a product covers at most min(width, live - 1) - 1 states, or
    one plane, of the rows reaching per_layer + 1."""
    rows = reach[0]
    seeded = reach[per_layer] if per_layer < len(reach) else 0
    spilled = reach[per_layer + 1] if per_layer + 1 < len(reach) else 0
    return rows + max(
        min(width, live) * rows,
        max(1, min(width, live - 1) - 1) * spilled + 13 * seeded,
    )


def _forward_step(f, new, scratch, counts, reach, weights, per_layer, n_states):
    # f is (states, rows, bins), holding states 0 to len(f) - 1 of n_states,
    # the rest zero, and its rows come in descending order of count. Outcome
    # r moves state j to j + shift, shift = per_layer - r, and every state
    # that would fall below zero spills into state zero; only the states of
    # ``new`` are computed. ``scratch`` holds the spill and the products,
    # and on top of them the spill sums, which start at shift 0, after that
    # outcome's product
    live, rows, n_bins = f.shape
    width = len(new)
    spill = _view(scratch, (rows, n_bins))
    products = scratch[spill.size :]
    seeded = reach[per_layer] if per_layer < len(reach) else 0
    new.fill(0.0)
    spill.fill(0.0)
    sums = _prefix_sums(f, n_states, scratch[len(scratch) - 13 * seeded * n_bins :])
    next(sums)
    for r, k in enumerate(reach):
        shift = per_layer - r
        if shift >= width:
            continue
        w = weights[counts[:k], r]
        if shift >= 0:
            m = min(width - shift, live)
            out = products[: m * k * n_bins].reshape(m, k, n_bins)
            new[shift : shift + m, :k] += np.multiply(w, f[:m, :k], out)
            if not shift:
                sums.send(k)  # the one-state sum the spills grow from
            continue
        spill[:k] += np.multiply(w, sums.send(k), products[: k * n_bins].reshape(k, n_bins))
        hi = min(width, live + shift)
        if hi > 1:
            out = products[: (hi - 1) * k * n_bins].reshape(hi - 1, k, n_bins)
            new[1:hi, :k] += np.multiply(w, f[1 - shift : hi - shift, :k], out)
    new[0] += spill
    return new


def _prefix_sums(a, n_max, scratch=None):
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

    The running sum, the accumulators and their pairs are 13 planes of the
    first k rows of the first send, in ``scratch`` when given, which the
    generator does not touch before that send. Each sum it returns is a view
    of them, good until the next send. Past 128, each split's second part
    sums in arrays of its own, and the sums at multiples of 8 it starts from
    are kept as copies.
    """
    k = yield
    plane = (k,) + a.shape[2:]
    size = math.prod(plane)
    if scratch is None:
        scratch = np.empty(13 * size)
    # the running sum and the 8 accumulators, then room for 4 pairs
    sums = scratch[: 9 * size].reshape((9,) + plane)
    sums.fill(0.0)
    s = running = sums[0]
    acc, pairs = sums[1:], scratch[9 * size : 13 * size]
    whole = {}  # past 128 only: the sums at multiples of 8, the first parts of splits
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
                s = np.add(s, part, running[:k])
        elif n % 8:
            s = np.add(s[:k], a[n - 1, :k], running[:k]) if n <= len(a) else s[:k]
        else:
            block = a[n - 8 : n, :k]
            acc = acc[:, :k]
            acc[: len(block)] += block
            four = np.add(acc[0::2], acc[1::2], _view(pairs, (4,) + acc.shape[1:]))
            np.add(four[0::2], four[1::2], four[0::2])
            s = np.add(four[0], four[2], running[:k])
        if n_max > 128 and not n % 8:
            whole[n] = s.copy()
        k = yield s
    while True:
        k = yield s[:k]


def _backward_scratch(live, width, reach):
    """The scratch floats per bin of a _backward_step from ``live`` states
    to ``width``: its products."""
    return min(width, live) * reach[0]


def _backward_step(bq, new, scratch, counts, reach, weights, per_layer):
    # bq is (states, rows, bins) and its rows come in descending order of
    # count. After outcome r, state j reads state j + shift, shift =
    # per_layer - r; a walk that lands on zero does not avoid it, so state
    # zero is never read. States above the reachable deficit bound never
    # feed state zero, so transitions past the top of the array are dropped
    # without error. Only the states of ``new`` are computed, so outcomes
    # from r = per_layer + width - 1 on reach none of them. ``scratch``
    # holds the products
    n_states, rows, n_bins = bq.shape
    width = len(new)
    new.fill(0.0)
    for r, k in enumerate(reach[: per_layer + width - 1]):
        shift = per_layer - r
        lo = max(0, 1 - shift)
        hi = min(width, n_states - max(shift, 0))
        if hi > lo:
            w = weights[counts[:k], r]
            out = scratch[: (hi - lo) * k * n_bins].reshape(hi - lo, k, n_bins)
            new[lo:hi, :k] += np.multiply(w, bq[lo + shift : hi + shift, :k], out)
    return new

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
    leading axis, eight bytes at a time when n * s is a multiple of 8; an
    empty operand gives the (n, s) zero or empty product.
    """
    n, k = coeffs.shape
    s = data.shape[1]
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
# bins float64s, that expected_layers_batch steps at once. Every step runs
# over every bin; a step whose state over its rows does not fit runs on
# ranges of its rows that do, each carried with its descendant rows through
# the rest of its pass before the next. A step's taken rows, new state and
# products are a few arrays of that size, views of the one arena a call
# allocates, so this bounds a table build's working memory whatever the
# table's size. At B=64, L=4, P=8, g=4 only the 969-row steps split, into 4
# ranges in the forward pass and 2 in the backward, and the arena is 2.5
# MiB; fresh arrays per step in its place faulted in about 3,200 pages on
# every build.
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
    over whole planes. Every step runs over every bin. A step whose state
    does not fit ``TABLE_STEP_BYTES`` runs on ranges of its rows, which come
    in descending order of count, and each range is carried depth first,
    with its descendant rows, through the rest of its pass; so a range's
    outcomes stop at its own largest count. Each step keeps its state-zero
    row per prefix (or suffix) row, and the value is formed from those rows.

    Every step works in contiguous views of one float64 arena, allocated
    once per call and sized from the steps' geometry before any of them
    runs (``_Pass``). Fresh arrays per step cost about 3,200 page faults on
    every build, as the allocator maps and trims them; one block per call
    costs a handful of faults once the allocator has seen its size. The
    state-zero rows and the values are arrays of their own, so nothing the
    arena holds outlives the call. So is a copy of the pmf rows of the
    counts that occur, outcome first and bins last, from which a step
    gathers the weights of an outcome as whole runs of bins.

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
    however the bins are stacked or the rows split.
    """
    strategies = np.asarray(strategies, dtype=np.int64)
    n_strategies, n_layers = strategies.shape
    forward, backward = _count_steps(strategies)
    stack = pmf_rows if pmf_rows.ndim == 3 else pmf_rows[None]
    n_bins = stack.shape[0]
    # weights[r, c] holds the Binomial(n, p) pmf at r of every bin, n the
    # c-th distinct count; a step gathers each row's run of bins from it
    present = np.flatnonzero(np.bincount(strategies.ravel()))
    weights = np.ascontiguousarray(stack[:, present].transpose(2, 1, 0))
    n_states = n_layers * per_layer + 1
    # the deficit after class i is at most i * per_layer, and each pass's
    # last step computes state zero alone
    passes = (
        _Pass(
            1,
            forward,
            [i * per_layer + 1 for i in range(1, n_layers)] + [1],
            lambda f, *args: _forward_step(f, *args, per_layer, n_states),
            lambda *args: _forward_scratch(*args, per_layer),
            n_bins,
            present,
        ),
        _Pass(
            n_states,
            backward,
            [(i - 1) * per_layer + 1 for i in range(n_layers - 1, 0, -1)],
            lambda bq, *args: _backward_step(bq, *args, per_layer),
            _backward_scratch,
            n_bins,
            present,
        ),
    )
    # one block for the call, in which every step and the values' terms are
    # formed
    arena = np.empty(max(2 * n_strategies * n_bins, *(p.size for p in passes)))
    f = passes[0].run(arena, weights)
    # depth L first, in the walk's order, which frees the forward pass's last
    # state-zero rows before the backward pass runs
    value = f.pop().take(forward[-1][2], axis=0, out=np.empty((n_strategies, n_bins)), mode="clip")
    np.multiply(n_layers, value, out=value)
    _add_depths(value, forward, f, backward, passes[1].run(arena, weights), arena)
    return value if pmf_rows.ndim == 3 else value[:, 0]


def _add_depths(value, forward, f, backward, bq, scratch):
    """Adds depth L - 1, ..., 1 of each strategy in every bin to ``value``,
    which holds depth L, from the state-zero rows ``f`` and ``bq`` of every
    step of each pass, in the order of the strategy-at-a-time walk. The
    terms are formed in ``scratch``."""
    n_layers = len(forward)
    term, tail = scratch[: 2 * value.size].reshape((2,) + value.shape)
    for i, zero, (_, _, node) in zip(range(n_layers - 1, 0, -1), bq, backward):
        np.multiply(i, f[i - 1].take(forward[i - 1][2], axis=0, out=term, mode="clip"), out=term)
        value += np.multiply(term, zero.take(node, axis=0, out=tail, mode="clip"), out=term)


class _Pass:
    """One pass of expected_layers_batch from ``n_start`` states of ones in
    one row, over ``n_bins`` bins.

    Each step takes its rows from their parents and ``advance``s them by
    their class counts to ``width`` states. A step whose state, the larger
    of the states it starts from and ends with, over its rows does not fit
    ``TABLE_STEP_BYTES`` runs on as few even ranges of those rows as fit,
    and each range runs with its descendant rows through the rest of the
    pass before the next; descendants that do not fit split the same way.
    ``plan`` lists every run of a step over some of its rows, in order, and
    ``size`` is the floats of arena they need. ``scratch(live, width, reach,
    n_bins)`` gives the scratch floats a run needs.

    Each run takes its parent rows to the front of the arena, forms its
    scratch behind them and writes its new state at the far end of its
    working part, over the state it took from, which is dead once taken. A
    state whose rows the next step splits stays where it was written until
    its last range has run, and the working part of those runs ends below
    it; so does the start.
    """

    def __init__(self, n_start, steps, widths, advance, scratch, n_bins, present):
        self.n_start, self.steps, self.widths, self.advance = n_start, steps, widths, advance
        self.n_bins, self.scratch, self.present = n_bins, scratch, present
        self.live = [n_start] + widths[:-1]
        self.plan, self.size = [], 0
        start = n_start * n_bins
        if steps:  # a one-class strategy has no backward steps
            self._add(0, np.arange(len(steps[0][0])), steps[0][0], (start, 1), start)

    def _add(self, j, rows, parent, src, depth):
        """Plans step j over ``rows``, an ascending index array of its rows,
        and their descendants through the rest of the pass. ``parent`` holds
        their rows in the state they take from, ``src``: its first float,
        counted from the end of the arena, and its rows. The last ``depth``
        floats of the arena hold states still to be read."""
        _, counts, _ = self.steps[j]
        live, width, n, n_bins = self.live[j], self.widths[j], len(parent), self.n_bins
        # the most rows whose state fits, and as few even ranges as keep to it
        fit = max(1, TABLE_STEP_BYTES // (8 * max(live, width) * n_bins))
        parts = -(-n // fit)
        if parts > 1:
            depth = src[0]  # every range takes from it
        for lo, hi in ((c * n // parts, (c + 1) * n // parts) for c in range(parts)):
            part = rows[lo:hi]
            part_counts = counts[part]
            reach = _reach(part_counts).tolist()
            taken, size = live * (hi - lo) * n_bins, width * (hi - lo) * n_bins
            slots = np.searchsorted(self.present, part_counts)
            self.plan.append((j, part, parent[lo:hi], slots, reach, src, depth))
            # the state it takes from lies past the working part unless it
            # is the run before's, at the working part's far end
            self.size = max(
                self.size,
                depth + taken + max(src[0] - depth, self.scratch(live, width, reach, n_bins) + size),
            )
            if j + 1 < len(self.steps):
                self._add(j + 1, *self._descendants(j, part, hi - lo), (depth + size, hi - lo), depth)

    def _descendants(self, j, rows, n):
        """The rows of step j + 1 whose parents are the ``n`` ``rows`` of
        step j, and their parents' places in ``rows``."""
        parent = self.steps[j + 1][0]
        place = np.full(len(self.steps[j][0]), -1)
        place[rows] = np.arange(n)
        at = place[parent]
        below = np.flatnonzero(at >= 0)
        return below, at[below]

    def run(self, arena, weights):
        """Runs the plan in ``arena``; returns every step's state-zero row,
        (rows, bins)."""
        n_bins, end = self.n_bins, len(arena)
        arena[end - self.n_start * n_bins :] = 1.0
        zeros = [np.empty((len(parent), n_bins)) for parent, _, _ in self.steps]
        for j, rows, parent, slots, reach, (at, n_src), depth in self.plan:
            live, width, n = self.live[j], self.widths[j], len(parent)
            state = arena[end - at : end - at + live * n_src * n_bins].reshape(live, n_src, n_bins)
            work = arena[: end - depth]
            taken = state.take(parent, axis=1, out=_view(work, (live, n, n_bins)), mode="clip")
            out = len(work) - width * n * n_bins
            new = work[out:].reshape(width, n, n_bins)
            zeros[j][rows] = self.advance(taken, new, work[taken.size : out], slots, reach, weights)[0]
        return zeros


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
        node, n_rows = np.zeros(n_strategies, dtype=np.int64), 1
        steps = []
        for column in columns:
            parent, counts, node = _extend(node, strategies[:, column], n_rows, radix)
            steps.append((parent, counts, node))
            n_rows = len(parent)
        passes.append(steps)
    return passes


def _extend(node, counts, n_rows, radix):
    """Distinct (row, count) pairs of a pass's next step.

    ``node`` holds each strategy's row among the ``n_rows`` of the current
    step, and every count is below ``radix``; the key ``(radix - 1 - count)
    * n_rows + node`` names its row in the next one, so the new rows come in
    descending order of count, then ascending order of parent row. Returns
    each new row's parent row and class count, and each strategy's new row.
    """
    keys, node = np.unique((radix - 1 - counts) * n_rows + node, return_inverse=True)
    return keys % n_rows, radix - 1 - keys // n_rows, node


def _reach(counts):
    """For each r, the number of leading rows whose count, in descending
    order, reaches r.

    Rows that cannot receive r packets of the class form the tail, so each
    outcome r updates a prefix slice only; the rows it skips are the ones
    whose weight for r is zero, which add nothing in a per-strategy walk.
    """
    return np.searchsorted(-counts, -np.arange(counts[0] + 1), side="right")


def _product_planes(planes, rows, n_bins):
    """The planes of (rows, bins) products a step's multiply-add forms at a
    time: all ``planes`` if they fit a quarter of TABLE_STEP_BYTES, else as
    many as do, at least one. Splitting the planes changes no element's
    operations."""
    return min(planes, max(1, TABLE_STEP_BYTES // (32 * rows * n_bins)))


def _multiply_add(dst, w, src, products):
    """Adds w * src to dst, (planes, rows, bins) arrays with w (rows, bins),
    forming the products in the 1-D ``products`` as many planes at a time as
    it holds, all of them at once when they fit."""
    step = len(products) // w.size
    for lo in range(0, len(src), step):
        block = src[lo : lo + step]
        dst[lo : lo + step] += np.multiply(w, block, products[: block.size].reshape(block.shape))


def _forward_scratch(live, width, reach, n_bins, per_layer):
    """The scratch floats of a _forward_step from ``live`` states to
    ``width``: a row for the spill, the spill sums' running sum and 8
    accumulators of the rows reaching per_layer, then the products, at most
    min(width, live) planes of every row, which the sums' 4 planes of pairs
    share."""
    rows = reach[0]
    seeded = reach[per_layer] if per_layer < len(reach) else 0
    planes = _product_planes(min(width, live), rows, n_bins)
    return (rows + 9 * seeded + max(4 * seeded, planes * rows)) * n_bins


def _forward_step(f, new, scratch, slots, reach, weights, per_layer, n_states):
    # f is (states, rows, bins), holding states 0 to len(f) - 1 of n_states,
    # the rest zero, and its rows come in descending order of count. Outcome
    # r moves state j to j + shift, shift = per_layer - r, and every state
    # that would fall below zero spills into state zero; only the states of
    # ``new`` are computed. weights[r].take(slots) holds outcome r's weight
    # for each row. ``scratch`` holds the spill, the spill sums, which start
    # at shift 0, and the products; a product is never formed during a send,
    # so the sums' pairs lie in the products
    live, rows, n_bins = f.shape
    width = len(new)
    spill = _view(scratch, (rows, n_bins))
    seeded = reach[per_layer] if per_layer < len(reach) else 0
    products = scratch[(rows + 9 * seeded) * n_bins :]
    new.fill(0.0)
    spill.fill(0.0)
    sums = _prefix_sums(f, n_states, scratch[spill.size : spill.size + 13 * seeded * n_bins])
    next(sums)
    for r, k in enumerate(reach):
        shift = per_layer - r
        if shift >= width:
            continue
        w = weights[r].take(slots[:k], axis=0)
        if shift >= 0:
            m = min(width - shift, live)
            _multiply_add(new[shift : shift + m, :k], w, f[:m, :k], products)
            if not shift:
                sums.send(k)  # the one-state sum the spills grow from
            continue
        spill[:k] += np.multiply(w, sums.send(k), products[: w.size].reshape(w.shape))
        hi = min(width, live + shift)
        if hi > 1:
            _multiply_add(new[1:hi, :k], w, f[1 - shift : hi - shift, :k], products)
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


def _backward_scratch(live, width, reach, n_bins):
    """The scratch floats of a _backward_step from ``live`` states to
    ``width``: its products, at most min(width, live) planes of every row."""
    return _product_planes(min(width, live), reach[0], n_bins) * reach[0] * n_bins


def _backward_step(bq, new, scratch, slots, reach, weights, per_layer):
    # bq is (states, rows, bins) and its rows come in descending order of
    # count. After outcome r, state j reads state j + shift, shift =
    # per_layer - r; a walk that lands on zero does not avoid it, so state
    # zero is never read. States above the reachable deficit bound never
    # feed state zero, so transitions past the top of the array are dropped
    # without error. Only the states of ``new`` are computed, so outcomes
    # from r = per_layer + width - 1 on reach none of them.
    # weights[r].take(slots) holds outcome r's weight for each row, and
    # ``scratch`` holds the products
    n_states, width = len(bq), len(new)
    new.fill(0.0)
    for r, k in enumerate(reach[: per_layer + width - 1]):
        shift = per_layer - r
        lo = max(0, 1 - shift)
        hi = min(width, n_states - max(shift, 0))
        if hi > lo:
            w = weights[r].take(slots[:k], axis=0)
            _multiply_add(new[lo:hi, :k], w, bq[lo + shift : hi + shift, :k], scratch)
    return new

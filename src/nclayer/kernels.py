"""Bulk numeric kernels behind the codec and the strategy table builder:
GF(2^8) matrix product and row reduction over stacks of systems, the raw
PCG64 streams of a block of seeds, and the expected-depth dynamic program
over every strategy of a stack of delivery bins, all in numpy.
"""

from __future__ import annotations

import operator

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


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words, mixed with the hash constant sequence that starts at INIT_A,
# and drawn out with the one that starts at INIT_B
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
# numpy scalars, which uint32 arithmetic takes faster than Python ints
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The (xor, multiplier) constants of count successive SeedSequence
    hashes from hash constant init, as a (2, count, 1) uint32 array: hash i
    XORs with the constant before its multiplication and multiplies by the
    one after it."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    return np.array([chain[:-1], chain[1:]], dtype=np.uint32)[:, :, None]


def _turn(src: int) -> list[int]:
    """The pool words after word src, in its order turned to start there."""
    return [(src + j) % _POOL_SIZE for j in range(1, _POOL_SIZE)]


# the pool's 4 entropy hashes, then one per (source, destination) word
# pair, sources in order and each source's destinations in order
_MIX_HASH = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
# round src of the mix sees the pool turned to start at word src, so its
# destinations are the words src+1, src+2, src+3 (mod 4) in rows 1 to 3;
# its hash into word d is the (d - (d > src))-th of the round's three
_ROUND_HASH = [
    _MIX_HASH[:, [_POOL_SIZE + 3 * src + d - (d > src) for d in _turn(src)]]
    for src in range(_POOL_SIZE)
]
# generate_state(4, uint64) draws 8 words, cycling twice over the pool
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE).reshape(2, 2, _POOL_SIZE, 1)


def _hash(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of values under (xor, multiplier) constants."""
    out = values ^ constants[0]
    out *= constants[1]
    out ^= out >> _XSHIFT
    return out


def _seed_sequence_states(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(int(s)).generate_state(4, np.uint64) for every uint64
    seed s, as an (n, 4) uint64 array, in uint32 arithmetic over all seeds
    at once.

    A seed's entropy is its low and high 32-bit words. A seed below 2**32
    has one entropy word, and the pool hashes a missing word as 0, so its
    zero high word changes nothing.
    """
    n = seeds.size
    pool = np.zeros((_POOL_SIZE, n), dtype=np.uint32)
    pool[:2] = seeds.astype("<u8").view("<u4").reshape(n, 2).T
    pool = _hash(pool, _MIX_HASH[:, :_POOL_SIZE])
    for constants in _ROUND_HASH:
        # row 0, the source, is mixed into rows 1 to 3, then the pool turns
        # by one so that the next source is row 0; four turns restore it
        hashed = _hash(pool[0], constants)
        hashed *= _MIX_MULT_R
        turned = np.empty_like(pool)
        mixed = np.multiply(pool[1:], _MIX_MULT_L, out=turned[:-1])
        mixed -= hashed
        mixed ^= mixed >> _XSHIFT
        turned[-1] = pool[0]
        pool = turned
    # words[h, i] is the state's word 4 * h + i
    words = _hash(pool, _STATE_HASH)
    return np.ascontiguousarray(words.transpose(2, 0, 1), dtype="<u4").view("<u8").reshape(n, 4)


def pcg64_streams(seeds, lengths) -> np.ndarray:
    """The first lengths[k] outputs of np.random.PCG64(int(seeds[k])).random_raw
    for every k, concatenated into one uint64 array.

    All seeds are hashed at once by _seed_sequence_states. Each hashed row
    (s_hi, s_lo, i_hi, i_lo) seeds PCG64 as numpy does: inc = 2 * initseq + 1
    and state = ((inc + initstate) * MULT + inc) mod 2**128, with initstate
    = s_hi * 2**64 + s_lo and initseq = i_hi * 2**64 + i_lo. One generator,
    made per call so that threads never share it, takes each state in turn
    and draws its outputs. Seeds outside [0, 2**64) raise ValueError.
    """
    values = [operator.index(s) for s in seeds]
    lengths = [operator.index(n) for n in lengths]
    if len(lengths) != len(values):
        raise ValueError(f"need one length per seed, got {len(lengths)} for {len(values)}")
    outside = [s for s in values if not 0 <= s < 2**64]
    if outside:
        raise ValueError(f"seeds must lie in [0, 2**64), got {outside[0]}")
    if not values:
        return np.empty(0, dtype=np.uint64)
    states = _seed_sequence_states(np.array(values, dtype=np.uint64)).tolist()
    bit_gen = np.random.PCG64(0)
    setting = bit_gen.state
    out = np.empty(sum(lengths), dtype=np.uint64)
    end = 0
    for (s_hi, s_lo, i_hi, i_lo), n in zip(states, lengths):
        inc = (((i_hi << 64 | i_lo) << 1) | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        setting["state"] = {"state": state, "inc": inc}
        bit_gen.state = setting
        out[end : end + n] = bit_gen.random_raw(n)
        end += n
    return out


def expected_layers_batch(strategies, pmf_rows, per_layer, steps=None):
    """Mean decodable depth for each replica allocation in each delivery bin,
    exact arithmetic.

    ``pmf_rows`` is one bin's square Binomial pmf rows (n, n), giving values
    of shape (strategies,), or a (bins, n, n) stack of them, giving
    (strategies, bins). ``steps`` is ``count_steps(strategies)``, for a
    caller that reduces the same strategies over several stacks of bins;
    it is computed here when not given.

    Reception of class i is a binomial count r_i; depth i is decodable exactly
    when the deficit walk G_i = max(G_{i-1} - r_i + per_layer, 0) sits at zero,
    so the decoded depth is the walk's last zero. A forward occupancy pass and
    a backward zero-avoidance pass give the depth distribution exactly.

    The forward occupancy after class i depends only on a strategy's first i
    counts, and the backward vector from class i on only on its later counts,
    so each pass advances one (rows, bins, L*P+1) array holding one row per
    distinct count prefix (or suffix) and one plane per bin, each step
    starting from its parent prefix's row. The value reads only state zero
    of each pass's last step, so that step computes state zero alone, and
    the deficit after class i is at most i * per_layer, so each forward
    step multiplies and adds only the states that can be nonzero and each
    backward step computes only the states the next one reads. Within a
    step, outcome r updates the rows whose class count reaches r, each
    weighted from its own binomial row in every bin. Every element sees the
    floating-point operations of a strategy-at-a-time walk in one bin that
    skips zero weights, in the same order: multiply, then accumulate in
    ascending r, where a zero weight the walk skips, or a state the trimmed
    step skips, adds an exact zero. A spill into state zero sums the full
    zero-padded run of states it covers, as the walk does, since a pairwise
    sum of another length can round differently. So the values are
    bit-identical to that walk whatever the batch and the stack hold.
    """
    strategies = np.asarray(strategies, dtype=np.int64)
    n_strategies, n_layers = strategies.shape
    forward, backward = count_steps(strategies) if steps is None else steps
    stack = pmf_rows if pmf_rows.ndim == 3 else pmf_rows[None]
    # weights[n, r] holds the Binomial(n, p) pmf at r of every bin
    weights = np.moveaxis(stack, 0, -1)
    n_bins = stack.shape[0]
    n_states = n_layers * per_layer + 1
    zero_occupancy = np.zeros((n_layers + 1, n_strategies, n_bins))
    f = np.zeros((1, n_bins, n_states))
    f[:, :, 0] = 1.0
    for i, (parent, counts, node) in enumerate(forward, 1):
        width = n_states if i < n_layers else 1
        f = _forward_step(f[parent], counts, weights, per_layer, width, (i - 1) * per_layer)
        zero_occupancy[i] = f[node, :, 0]
    value = n_layers * zero_occupancy[n_layers]
    bq = np.ones((1, n_bins, n_states))
    for i, (parent, counts, node) in zip(range(n_layers - 1, 0, -1), backward):
        bq = _backward_step(bq[parent], counts, weights, per_layer, (i - 1) * per_layer + 1)
        value += i * zero_occupancy[i] * bq[node, :, 0]
    return value if pmf_rows.ndim == 3 else value[:, 0]


def count_steps(strategies):
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


def _forward_step(f, counts, weights, per_layer, width, top):
    # f is (rows, bins, states), zero above state top, and its rows come in
    # descending order of count. Outcome r moves state j to j + shift,
    # shift = per_layer - r, and every state that would fall below zero
    # spills into state zero; only states up to top are moved, and only the
    # first ``width`` states of the result are computed
    n_states = f.shape[2]
    new = np.zeros(f.shape[:2] + (width,))
    spill = np.zeros(f.shape[:2])
    for r, k in enumerate(_reach(counts)):
        shift = per_layer - r
        if shift >= width:
            continue
        w = weights[counts[:k], r]
        if shift >= 0:
            m = min(width - shift, top + 1)
            new[:k, :, shift : shift + m] += w[:, :, None] * f[:k, :, :m]
            continue
        spill[:k] += w * f[:k, :, : 1 - shift].sum(axis=2)
        hi = min(width, n_states + shift, top + 1 + shift)
        if hi > 1:
            new[:k, :, 1:hi] += w[:, :, None] * f[:k, :, 1 - shift : hi - shift]
    new[:, :, 0] += spill
    return new


def _backward_step(bq, counts, weights, per_layer, width):
    # bq is (rows, bins, states) and its rows come in descending order of
    # count. After outcome r, state j reads state j + shift, shift =
    # per_layer - r; a walk that lands on zero does not avoid it, so state
    # zero is never read. States above the reachable deficit bound never
    # feed state zero, so transitions past the top of the array are dropped
    # without error. Only the first ``width`` states of the result are
    # computed, so outcomes from r = per_layer + width - 1 on reach none of
    # them.
    n_states = bq.shape[2]
    new = np.zeros(bq.shape[:2] + (width,))
    for r, k in enumerate(_reach(counts)[: per_layer + width - 1]):
        shift = per_layer - r
        lo = max(0, 1 - shift)
        hi = min(width, n_states - max(shift, 0))
        w = weights[counts[:k], r][:, :, None]
        new[:k, :, lo:hi] += w * bq[:k, :, lo + shift : hi + shift]
    return new

"""Nested-class packet codec.

A coded packet of class i mixes content from layers 1..i of one GOP, so the
packet classes nest: class 1 packets protect only the base layer
while class L packets blend everything. Receivers that can decode depth i
get value out of every packet of class <= i, which is what makes unequal
replica allocation across classes worthwhile on lossy links.

Three schemes share this layout. "xor" combines one grid column per
packet, so layer j of a column peels out of consecutive depths. "rlc" draws
random GF(2^8) coefficients over all cells of the first i layers and
decodes by Gaussian elimination. "repeat" is the uncoded baseline: a class i
packet is one raw cell of layer i, sent as often as the allocation allows.

A PacketBlock, the one packet container, is a block of GOPs' class counts
plus their packets as rows: counts[k, c] packets of class c + 1 in GOP k,
its rows laid out GOP by GOP, each GOP's classes shallow first, so a row's
GOP and class follow from its place. A single GOP travels as a block of
one, and a GOP's number is its row of the counts. A block carries its
grid's shape, layer_count = counts.shape[1] layers of packets_per_layer
cells of payload.shape[1] bytes, and is checked against it once, on
construction. encode_block sets the shape from its cells;
decode_block(block) and score_block(block) read it from the block and
work on the whole block as arrays.

A block whose coefficients and payloads no one reads is fully described
by its counts, so the functions that read only classes take the counts
alone: surviving_counts reads the counts that cross a link from the
link's survival mask, with no rows made, decodable_layers_batch scores
them by the count rule, and sample_depths draws decode_block's RLC depths
from them; score_block is the block form of the count rule.

Every RLC packet carries its coefficients, zero-padded to layer_count *
packets_per_layer columns and drawn from the generator the encoder is
given, whole 64-bit outputs in row order, so a block draws exactly what its
GOPs would draw one by one.

A block may hold the GOPs of several runs, one after another and as many
each: the simulator carries rows that differ only in their links'
delivery and their seeds through one pass. Each row keeps its own
generators, which the draw sites (encode_block, sample_depths and
channel.send_block) are then handed as one _Rows. _draw is the one place
that splits a draw by row, each row's generator drawing its own GOPs'
values in GOP order, so a row's draws are those of its run alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .kernels import gf_matmul, gf_rref

SCHEME_RLC = "rlc"
SCHEME_XOR = "xor"
SCHEME_REPEAT = "repeat"
SCHEMES = (SCHEME_RLC, SCHEME_XOR, SCHEME_REPEAT)

# Most bytes of one zero-padded gf_rref stack, n_rows x (L * P + payload) per
# system, that decode_block reduces at once; a stack holds at least one
# system. gf_rref's temporaries run to about 11 bytes per stack byte, so
# this bounds a decoder's memory whatever the size of the block. At L=4,
# P=8, delivery 0.7 and 64-byte payloads it is about 24 systems of up to
# about 56 rows x 96.
DECODE_STACK_BYTES = 128 * 1024


class _Rows:
    """The sources of the rows of a block of several runs' GOPs, one per
    row in row order: a row's generator, or its grid seed. The block's GOPs
    are each row's in turn, the same number per row."""

    __slots__ = ("sources",)

    def __init__(self, sources):
        self.sources = sources


def _draw(source, n, per_gop, draw, *args):
    """What draw(source, m, row, *args) gives for the n values a block of
    GOPs draws, per_gop[k] of them (summed over its row) for GOP k, or one
    per GOP if per_gop is None. A plain source, a Generator or a seed, draws
    all n as row 0. A _Rows has each row's source draw its own m values, for
    its own GOPs, as its row r of the block, and the rows' values are
    concatenated in row order."""
    if not isinstance(source, _Rows):
        return draw(source, n, 0, *args)
    rows = len(source.sources)
    if per_gop is None:
        sizes = [n // rows] * rows
    else:
        sizes = per_gop.reshape(rows, -1).sum(axis=1).tolist()
    return np.concatenate([
        draw(row_source, m, r, *args)
        for r, (row_source, m) in enumerate(zip(source.sources, sizes))
    ])


@dataclass(eq=False)
class PacketBlock:
    """The coded packets of a block of GOPs: its class counts plus its rows.

    counts[k, c] is how many class c + 1 packets GOP k holds, so the block
    holds counts.shape[0] GOPs of a grid of layer_count = counts.shape[1]
    layers of packets_per_layer cells, each payload.shape[1] bytes. The
    rows lie one (GOP, class) run after another in counts' row-major order:
    GOP by GOP, each GOP's classes shallow first. A GOP can own no rows,
    and a one-GOP block is how a single GOP travels. payload[i] is packet
    i's bytes. RLC packets carry their coefficients in coeffs, zero-padded
    to layer_count * packets_per_layer columns; XOR and repeat packets
    carry their grid column instead.
    The block is checked against its grid once, on construction, so the
    functions that decode, score or sample it take no shape. Selecting rows
    keeps every GOP and its order and skips the check, since rows of valid
    packets are valid packets, so a block crosses a lossy link in one mask.
    """

    scheme: str
    packets_per_layer: int
    counts: np.ndarray
    payload: np.ndarray
    coeffs: Optional[np.ndarray] = None
    column: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        per_layer = self.packets_per_layer
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.payload = np.asarray(self.payload, dtype=np.uint8)
        if self.counts.ndim != 2 or self.counts.shape[1] < 1 or (self.counts < 0).any():
            raise ValueError(
                f"counts must be a (GOPs, layers) array of packets per class, "
                f"none negative, got {self.counts.tolist()}"
            )
        layers = self.layer_count
        n = int(self.counts.sum())
        if self.payload.ndim != 2 or self.payload.shape[0] != n:
            raise ValueError(
                f"need one payload row per packet, {n}, got shape {self.payload.shape}"
            )
        if self.scheme == SCHEME_RLC:
            if self.coeffs is None or self.column is not None:
                raise ValueError("rlc packets carry coefficients and no column")
            self.coeffs = np.asarray(self.coeffs, dtype=np.uint8)
            if self.coeffs.ndim != 2 or self.coeffs.shape[0] != n:
                raise ValueError(f"need {n} coefficient rows, got shape {self.coeffs.shape}")
            if self.coeffs.shape[1] != layers * per_layer:
                raise ValueError(
                    f"rlc packets need {layers * per_layer} coefficients, "
                    f"got {self.coeffs.shape[1]}"
                )
            past = np.arange(layers) > (_row_runs(self.counts) % layers)[:, None]
            if (self.coeffs.reshape(n, layers, per_layer).any(axis=2) & past).any():
                raise ValueError("a packet carries coefficients for layers deeper than its class")
        else:
            if self.column is None or self.coeffs is not None:
                raise ValueError(f"{self.scheme} packets carry a column and no coefficients")
            self.column = np.asarray(self.column, dtype=np.intp)
            if self.column.shape != (n,):
                raise ValueError(f"need {n} columns, got shape {self.column.shape}")
            if n and (self.column.min() < 0 or self.column.max() >= per_layer):
                raise ValueError(
                    f"packet columns must lie in 0..{per_layer - 1}, "
                    f"got {self.column.min()}..{self.column.max()}"
                )

    def __len__(self) -> int:
        """Packets in the block, over all of its GOPs."""
        return self.payload.shape[0]

    @property
    def layer_count(self) -> int:
        """Layers of the grid, one packet class each."""
        return self.counts.shape[1]

    def select(self, rows: np.ndarray) -> "PacketBlock":
        """The block of the rows a boolean mask of one entry per row or a
        non-decreasing index array picks, every GOP kept; a repeated index
        delivers its row twice. A mask of another length, an index outside
        the block or a decreasing index array would hand rows to the wrong
        GOP or to none, so each raises ValueError."""
        n = len(self)
        if rows.dtype == bool:
            if rows.shape != (n,):
                raise ValueError(
                    f"a mask needs one entry per packet, {n}, got shape {rows.shape}"
                )
            rows = np.flatnonzero(rows)
        elif (rows[1:] < rows[:-1]).any():
            raise ValueError(f"index rows must be non-decreasing, got {rows.tolist()}")
        elif rows.size and (rows[0] < 0 or rows[-1] >= n):
            raise ValueError(f"index rows must lie in [0, {n}), got {rows[0]}..{rows[-1]}")
        runs = _row_runs(self.counts)[rows]
        counts = np.bincount(runs, minlength=self.counts.size).reshape(self.counts.shape)
        return self._take(rows, counts)

    def _take(self, rows: np.ndarray, counts: np.ndarray) -> "PacketBlock":
        """The block of the rows a non-decreasing index array picks, given their
        class counts, unchecked: select's result, for a caller that already
        holds both."""
        out = object.__new__(PacketBlock)
        out.__dict__.update(
            scheme=self.scheme,
            packets_per_layer=self.packets_per_layer,
            counts=counts,
            payload=self.payload[rows],
            coeffs=None if self.coeffs is None else self.coeffs[rows],
            column=None if self.column is None else self.column[rows],
        )
        return out


def decodable_layers_batch(count_rows: np.ndarray, packets_per_layer: int) -> np.ndarray:
    """Vectorized decodable depth for an array of reception-count rows.

    The trailing-window checks collapse to a running-maximum test on the walk
    W_i = sum(counts[:i]) - i * packets_per_layer with W_0 = 0: depth i
    qualifies exactly when W_i equals the running maximum of W_0..W_i, which
    depth 0 always does, so the deepest depth that does is the answer.
    """
    count_rows = np.asarray(count_rows)
    rows, layers = count_rows.shape
    walk = np.zeros((rows, layers + 1), dtype=np.int64)
    (count_rows - packets_per_layer).cumsum(axis=1, out=walk[:, 1:])
    qualifies = walk == np.maximum.accumulate(walk, axis=1)
    return layers - qualifies[:, ::-1].argmax(axis=1)


def encode_gop(
    cells: np.ndarray,
    strategy: Sequence[int],
    scheme: str = SCHEME_RLC,
    seed: int | np.random.Generator = 0,
) -> PacketBlock:
    """The one-GOP block of strategy[i-1] packets of class i, shallow
    classes first, from the GOP's (layer_count, packets_per_layer,
    payload_size) grid cells.

    seed is a seed or a Generator, which np.random.default_rng takes as it
    is, so GOPs encoded one by one from one Generator draw what a block of
    them does. This is the one-GOP case of encode_block.
    """
    return encode_block(cells[None], [strategy], scheme, np.random.default_rng(seed))


def encode_block(
    cells: np.ndarray,
    strategies,
    scheme: str,
    rng: Optional[np.random.Generator],
) -> PacketBlock:
    """Encodes GOP k of a block from its source cells[k] (a (G,
    layer_count, packets_per_layer, payload_size) stack) under the replica
    counts strategies[k] (one row per GOP, one column per class), as
    encode_gop encodes each GOP alone.

    Each RLC row takes ceil(layer_count * packets_per_layer / 8) raw 64-bit
    outputs of rng's bit generator, in row order, and keeps their first
    layer_count * packets_per_layer little-endian bytes, zeroed past its
    class, so RLC needs an rng. The other schemes draw nothing and take
    None."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if scheme == SCHEME_RLC and rng is None:
        raise ValueError("rlc packets draw their coefficients, so they need a generator")
    n_gops, layer_count, per_layer, size = cells.shape
    counts = np.asarray(strategies, dtype=np.int64)
    if counts.shape != (n_gops, layer_count):
        raise ValueError(
            f"need one strategy of {layer_count} classes per grid, got shape {counts.shape}"
        )
    if (counts < 0).any():
        raise ValueError(f"replica counts must be non-negative, got {counts.tolist()}")
    runs = counts.ravel()

    if scheme != SCHEME_RLC:
        # replica t of a class of n packets takes column t mod P under xor,
        # whose payload XORs that column over layers 1..class, and column
        # t * P // n under repeat, so each raw cell goes out in a run of
        # copies; worked in place, as a block's rows can run to many
        # thousands
        ends = np.cumsum(runs)
        column = np.arange(ends[-1] if ends.size else 0)
        column -= np.repeat(ends - runs, runs)
        if scheme == SCHEME_XOR:
            column %= per_layer
        else:
            column *= per_layer
            column //= np.repeat(runs, runs)
        payload = np.empty((column.size, 0), dtype=np.uint8)
        if size:
            if scheme == SCHEME_XOR:
                cells = np.bitwise_xor.accumulate(cells, axis=1)
            payload = cells.reshape(n_gops * layer_count, per_layer, size)[
                _row_runs(counts), column
            ]
        return PacketBlock(scheme, per_layer, counts, payload, column=column)

    row_run = _row_runs(counts)
    rows = row_run.size

    # each row starts on a fresh output, so its bytes do not depend on the
    # rows drawn before it in the same call
    n_unknowns = layer_count * per_layer
    outputs = -(-n_unknowns // 8)
    raw = _draw(rng, rows, counts, _raw_outputs, outputs).astype("<u8", copy=False)
    coeffs = np.ascontiguousarray(raw.view(np.uint8).reshape(rows, 8 * outputs)[:, :n_unknowns])
    layers = coeffs.reshape(rows, layer_count, per_layer)
    layers *= (np.arange(layer_count) <= (row_run % layer_count)[:, None])[:, :, None]
    payload = np.empty((rows, size), dtype=np.uint8)
    if size:
        data = cells.reshape(n_gops, n_unknowns, size)
        ends = np.cumsum(runs)
        for run in np.flatnonzero(runs):
            k, d = divmod(int(run), layer_count)
            width = (d + 1) * per_layer
            at = slice(ends[run] - runs[run], ends[run])
            payload[at] = gf_matmul(coeffs[at, :width], data[k, :width])
    return PacketBlock(scheme, per_layer, counts, payload, coeffs=coeffs)


def _raw_outputs(rng, n, row, outputs):
    return rng.bit_generator.random_raw(n * outputs)


def decode_block(block: PacketBlock) -> tuple[np.ndarray, np.ndarray]:
    """Decodes every GOP of a block: (depths, cells), where depths[k] is the
    number of leading layers GOP k recovered and cells[k] its grid, of the
    block's (layer_count, packets_per_layer, payload width), zero past that
    depth. A GOP with no packets recovers nothing.

    The RLC systems of the non-empty GOPs are reduced in zero-padded
    gf_rref stacks of at most DECODE_STACK_BYTES each, and gf_rref reduces
    each system of a stack exactly as on its own, so the split changes no
    result; xor and repeat take the first copy of each (GOP, depth, column)
    cell.
    """
    if block.scheme != SCHEME_RLC:
        return _decode_columns(block)
    return _decode_rlc(block)


def score_block(block: PacketBlock) -> np.ndarray:
    """The decoded depth each GOP of a block is scored at, from the classes
    (RLC) or the cells (xor, repeat) of the packets that arrived.

    RLC is scored by the count rule on each GOP's per-class arrivals, which
    a singular random system can miss; xor and repeat by which (depth,
    column) cells arrived, which is exactly their decoded depth. No
    coefficient or payload byte is read.
    """
    if block.scheme != SCHEME_RLC:
        return _cell_cover(block)[1]
    return decodable_layers_batch(block.counts, block.packets_per_layer)


def sample_depths(counts: np.ndarray, packets_per_layer: int, rng) -> np.ndarray:
    """Each GOP's depth, drawn from the law of decode_block's on RLC packets
    with uniform coefficients, counts[k, c] of class c + 1 in GOP k. A
    GOP's fill[l] is the dimension layer l adds to its span within layers
    1..l; a class-c packet draws e, P(e >= k) = 256^-k, and fills unit e
    (from 0) of those missing from layers c, c-1, ..., 1 in turn, if any.
    One rng.geometric draw per packet, in GOP, class and packet order, as
    its GOPs would draw one by one.

    e = 0 fills layer c if it can, which is the count rule, and so does e
    for the k-th class-c packet (from 0) whenever k + e < P: only class-c
    packets reach layer c before class c+1's, so it still misses at least
    P - k > e units. So every GOP is scored by the count rule, and only
    GOPs holding a draw with k + e >= P are walked again."""
    draws = _draw(rng, counts.sum(), counts, _geometric)
    depths = decodable_layers_batch(counts, packets_per_layer)
    # each e >= 1: its (GOP, class) group and its place k among the group's
    # draws; those with k + e < P fill as a zero does
    at = np.flatnonzero(draws > 1)
    ends = np.cumsum(counts)
    group = np.searchsorted(ends, at, side="right")
    place = at - ends[group] + counts.ravel()[group]
    step = draws[at] - 1
    moves = place + step >= packets_per_layer
    if moves.any():
        for gop, depth in _walk(
            counts, group[moves].tolist(), place[moves].tolist(), step[moves].tolist(),
            packets_per_layer,
        ):
            depths[gop] = depth
    return depths


def _geometric(rng, n, row):
    return rng.geometric(1 - 1 / 256, n)


def surviving_counts(counts: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """The rows of each run that survive, where counts holds each run's rows
    and the runs lie one after another in its row-major order, and kept is
    a survival mask of those rows as channel.send_block returns one, closed
    by one more entry. On a block's class counts, whose rows encode_block
    lays out GOP by GOP, each GOP's classes shallow first, it is
    block.select(kept[:-1]).counts, with no rows made; on a (GOPs, 1 +
    layers) layout of each GOP's probes and then its classes, as a link
    draws them, it gives both at once. A kept of another length than one
    more than the rows raises ValueError."""
    runs = counts.ravel()
    starts = runs.cumsum() - runs
    n = int(runs.sum())
    if kept.shape != (n + 1,):
        raise ValueError(
            f"a survival mask needs one entry per row and one more, {n + 1}, "
            f"got shape {kept.shape}"
        )
    # one sum per run from its start, where an empty run reads the entry
    # there instead, hence the multiply
    return (np.add.reduceat(kept, starts) * (runs > 0)).reshape(counts.shape)


def _row_runs(counts: np.ndarray) -> np.ndarray:
    """The (GOP, class) run each row of a block of these class counts lies
    in: GOP * layer_count + class - 1."""
    return np.repeat(np.arange(counts.size), counts.ravel())


def _walk(counts, group, place, step, packets_per_layer):
    """(GOP, depth) of each GOP named in group, by pouring its packets class
    by class: the draw e = step[i] at place[i] of group[i] (GOP * L +
    class), in group and place order, and zeros for the rest."""
    layer_count = counts.shape[1]
    group = group + [-1]
    i = 0
    while i < len(step):
        gop = group[i] // layer_count
        row = counts[gop].tolist()
        # missing[l]: the units layer l lacks; class c pours from layer c
        # down the zeros before each of its draws, the draw, then the rest
        missing = [packets_per_layer] * layer_count
        for c in range(layer_count):
            key = gop * layer_count + c
            used = 0
            while True:
                last = group[i] != key
                units = (row[c] if last else place[i]) - used
                for l in range(c, -1, -1):
                    if units <= missing[l]:
                        missing[l] -= units
                        break
                    units -= missing[l]
                    missing[l] = 0
                if last:
                    break
                used, skip = place[i] + 1, step[i]
                i += 1
                for l in range(c, -1, -1):
                    if skip < missing[l]:
                        missing[l] -= 1
                        break
                    skip -= missing[l]
        depth = 0
        while depth < layer_count and not missing[depth]:
            depth += 1
        yield gop, depth


def covered_depth(seen: np.ndarray):
    """Decoded depth from a (layer_count, packets_per_layer) mask of the
    (depth, column) cells a decoder holds: the deepest run of depths 1, 2,
    ... that every column holds. Exact for repeat, and for xor, where layer
    j of a column needs its depth j and j-1 sums. A (G, layer_count,
    packets_per_layer) stack of masks gives G depths."""
    return np.cumprod(seen.all(axis=-1), axis=-1).sum(axis=-1)


def _cell_cover(block):
    """The flat (GOP, depth, column) cell of each packet of an xor or repeat
    block, and the depth the cells that arrived cover, per GOP."""
    shape = block.counts.shape + (block.packets_per_layer,)
    key = _row_runs(block.counts) * shape[2] + block.column
    seen = np.zeros(np.prod(shape), dtype=bool)
    seen[key] = True
    return key, covered_depth(seen.reshape(shape))


def _decode_columns(block):
    """Depths (G,) and cells (G, L, P, s) of an xor or repeat block."""
    key, depths = _cell_cover(block)
    shape = (depths.size, block.layer_count, block.packets_per_layer, block.payload.shape[1])
    # the first packet of each (GOP, depth, column) cell supplies that cell
    keys, first = np.unique(key, return_index=True)
    sums = np.zeros((np.prod(shape[:3]), shape[3]), dtype=np.uint8)
    sums[keys] = block.payload[first]
    cells = sums.reshape(shape)
    if block.scheme == SCHEME_XOR:
        # layer j of a column is the XOR of its depth j and depth j-1 sums
        cells[:, 1:] ^= cells[:, :-1].copy()
    cells[np.arange(shape[1]) >= depths[:, None]] = 0
    return depths, cells


def _decode_rlc(block):
    """Depths (G,) and cells (G, L, P, s) of an RLC block, its non-empty
    GOPs eliminated in zero-padded stacks of DECODE_STACK_BYTES at most, in
    GOP order."""
    shape = block.counts.shape + (block.packets_per_layer,)
    depths = np.zeros(shape[0], dtype=np.intp)
    cells = np.zeros(shape + block.payload.shape[1:], dtype=np.uint8)
    sizes = block.counts.sum(axis=1)
    full = np.flatnonzero(sizes)
    if not full.size:
        return depths, cells
    starts = np.cumsum(sizes) - sizes
    n_rows = int(sizes.max())
    width = block.coeffs.shape[1] + block.payload.shape[1]
    per_stack = max(1, DECODE_STACK_BYTES // (n_rows * width))
    for start in range(0, full.size, per_stack):
        part = full[start : start + per_stack]
        depths[part], cells[part] = _reduce_stack(block, starts[part], sizes[part], n_rows)
    return depths, cells


def _reduce_stack(block, starts, sizes, n_rows):
    """Depths and cells of a run of a block's non-empty GOPs, the j-th
    owning sizes[j] rows from row starts[j], from one gf_rref stack of
    n_rows rows per system."""
    layer_count, packets_per_layer = block.layer_count, block.packets_per_layer
    n_unknowns, payload_size = block.coeffs.shape[1], block.payload.shape[1]
    n_systems = starts.size
    first, last = starts[0], starts[-1] + sizes[-1]
    # the GOPs between the run's are empty, so its rows are the block's rows
    # first to last; row i of the block, of the j-th GOP, is row i -
    # starts[j] of system j
    at = np.arange(first, last) + np.repeat(np.arange(n_systems) * n_rows - starts, sizes)
    aug = np.zeros((n_systems * n_rows, n_unknowns + payload_size), dtype=np.uint8)
    aug[at, :n_unknowns] = block.coeffs[first:last]
    aug[at, n_unknowns:] = block.payload[first:last]
    aug = aug.reshape(n_systems, n_rows, -1)
    owner = gf_rref(aug, n_unknowns)

    # an unknown is solved when its pivot row holds no other coefficient;
    # where there is no pivot (owner -1) the lookup is masked out
    systems = np.arange(n_systems)[:, None]
    nonzero = np.count_nonzero(aug[:, :, :n_unknowns], axis=2)
    solved = (owner >= 0) & (nonzero[systems, owner] == 1)
    recovered = covered_depth(solved.reshape(n_systems, layer_count, packets_per_layer))
    solution = aug[systems, owner, n_unknowns:].reshape(
        n_systems, layer_count, packets_per_layer, payload_size
    )
    solution[np.arange(layer_count) >= recovered[:, None]] = 0
    return recovered, solution

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

A PacketBlock, the one packet container, holds the packets of a block of
GOPs as one set of rows; a single GOP travels as a block of one, and a
GOP's number is its place in the block. encode_block, decode_block and
score_block work on a whole block as arrays, and encode_gop is the
one-GOP case of encode_block.

RLC coefficients are zero-padded to layer_count * packets_per_layer columns
and drawn from the generator the encoder is given, whole 64-bit outputs in
row order, so a block draws exactly what its GOPs would draw one by one.
An encoder given no generator sends coefficient-free packets, with zero
coefficient columns: a receiver that scores by class counts needs only
each packet's class, so an encoder with no decoder downstream draws
nothing.
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
# P=8 and delivery 0.7 it is about 70 unverified relay systems (up to about
# 56 rows x 32) or 24 verified ones (x 96).
DECODE_STACK_BYTES = 128 * 1024


@dataclass(eq=False)
class PacketBlock:
    """The coded packets of a block of GOPs as parallel arrays, one row per
    packet.

    GOP k of the block owns rows offsets[k] to offsets[k + 1], so the block
    holds offsets.size - 1 GOPs; a GOP can own no rows, and a one-GOP block
    is how a single GOP travels. depth[i] is packet i's class and
    payload[i] its bytes. RLC packets carry their coefficients in coeffs,
    zero-padded to layer_count * packets_per_layer columns, or with zero
    columns (and a zero-width payload) when no decoder reads them; XOR and
    repeat packets carry their grid column instead.
    The block is checked once, on construction. Selecting rows keeps every
    GOP and its order and skips the check, since rows of valid packets are
    valid packets, so a block crosses a lossy link in one mask.
    """

    scheme: str
    offsets: np.ndarray
    depth: np.ndarray
    payload: np.ndarray
    coeffs: Optional[np.ndarray] = None
    column: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        self.offsets = np.asarray(self.offsets, dtype=np.intp)
        self.depth = np.asarray(self.depth, dtype=np.int8)
        self.payload = np.asarray(self.payload, dtype=np.uint8)
        n = self.depth.shape[0] if self.depth.ndim == 1 else -1
        if n < 0 or self.payload.ndim != 2 or self.payload.shape[0] != n:
            raise ValueError(
                f"need one depth and one payload row per packet, got shapes "
                f"{self.depth.shape} and {self.payload.shape}"
            )
        if n and self.depth.min() < 1:
            raise ValueError(f"class depth must be >= 1, got {self.depth.min()}")
        if self.scheme == SCHEME_RLC:
            if self.coeffs is None or self.column is not None:
                raise ValueError("rlc packets carry coefficients and no column")
            self.coeffs = np.asarray(self.coeffs, dtype=np.uint8)
            if self.coeffs.ndim != 2 or self.coeffs.shape[0] != n:
                raise ValueError(f"need {n} coefficient rows, got shape {self.coeffs.shape}")
        else:
            if self.column is None or self.coeffs is not None:
                raise ValueError(f"{self.scheme} packets carry a column and no coefficients")
            self.column = np.asarray(self.column, dtype=np.intp)
            if self.column.shape != (n,):
                raise ValueError(f"need {n} columns, got shape {self.column.shape}")
        if (
            self.offsets.ndim != 1
            or not self.offsets.size
            or self.offsets[0] != 0
            or self.offsets[-1] != n
            or (np.diff(self.offsets) < 0).any()
        ):
            raise ValueError(f"offsets {self.offsets.tolist()} do not split {n} rows into GOPs")

    def __len__(self) -> int:
        """Packets in the block, over all of its GOPs."""
        return self.depth.shape[0]

    @property
    def sizes(self) -> np.ndarray:
        """Packets of each GOP."""
        return np.diff(self.offsets)

    def select(self, rows: np.ndarray) -> "PacketBlock":
        """The block of the rows a boolean mask of one entry per row or a
        non-decreasing index array picks, every GOP kept; a repeated index
        delivers its row twice. A mask of another length, an index outside
        the block or a decreasing index array would hand rows to the wrong
        GOP or to none, so each raises ValueError."""
        n = len(self)
        if rows.dtype == bool:
            if rows.shape != (n,):
                raise ValueError(f"a mask needs one entry per row, {n}, got shape {rows.shape}")
            rows = np.flatnonzero(rows)
        elif (rows[1:] < rows[:-1]).any():
            raise ValueError(f"index rows must be non-decreasing, got {rows.tolist()}")
        elif rows.size and (rows[0] < 0 or rows[-1] >= n):
            raise ValueError(f"index rows must lie in [0, {n}), got {rows[0]}..{rows[-1]}")
        out = object.__new__(PacketBlock)
        out.__dict__.update(
            scheme=self.scheme,
            offsets=np.searchsorted(rows, self.offsets),
            depth=self.depth[rows],
            payload=self.payload[rows],
            coeffs=None if self.coeffs is None else self.coeffs[rows],
            column=None if self.column is None else self.column[rows],
        )
        return out


def decodable_layers(counts: Sequence[int], packets_per_layer: int) -> int:
    """Deepest prefix of layers covered by per-class reception counts.

    counts[j] is how many class j+1 packets arrived. Depth i qualifies when
    every trailing window of classes i-k..i holds at least (k+1) *
    packets_per_layer packets, i.e. enough material to cancel everything the
    deepest packets mixed in. Returns the largest qualifying i, or 0.
    """
    if packets_per_layer < 1:
        raise ValueError(f"packets_per_layer must be positive, got {packets_per_layer}")
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise ValueError(f"reception counts must be non-negative, got {counts}")
    for i in range(len(counts), 0, -1):
        acc = 0
        ok = True
        for k in range(i):
            acc += counts[i - 1 - k]
            if acc < (k + 1) * packets_per_layer:
                ok = False
                break
        if ok:
            return i
    return 0


def decodable_layers_batch(count_rows: np.ndarray, packets_per_layer: int) -> np.ndarray:
    """Vectorized decodable depth for an array of reception-count rows.

    The trailing-window checks collapse to a running-maximum test on the walk
    W_i = sum(counts[:i]) - i * packets_per_layer: depth i qualifies exactly
    when W_i touches the running maximum of W_0..W_i with W_0 = 0.
    """
    count_rows = np.asarray(count_rows, dtype=np.int64)
    walk = np.cumsum(count_rows - packets_per_layer, axis=1)
    prior = np.concatenate(
        [np.zeros((walk.shape[0], 1), dtype=np.int64), walk[:, :-1]], axis=1
    )
    prior_max = np.maximum(np.maximum.accumulate(prior, axis=1), 0)
    qualifies = walk >= prior_max
    any_depth = qualifies.any(axis=1)
    last = count_rows.shape[1] - np.argmax(qualifies[:, ::-1], axis=1)
    return np.where(any_depth, last, 0)


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
    class. With no rng, RLC packets carry no coefficients, which a decoder
    needs, so they may carry no payload bytes either. The other schemes
    draw nothing."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    n_gops, layer_count, per_layer, size = cells.shape
    counts = np.asarray(strategies, dtype=np.int64)
    if counts.shape != (n_gops, layer_count):
        raise ValueError(
            f"need one strategy of {layer_count} classes per grid, got shape {counts.shape}"
        )
    if (counts < 0).any():
        raise ValueError(f"replica counts must be non-negative, got {counts.tolist()}")
    sizes = counts.sum(axis=1)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    runs = counts.ravel()
    classes = np.arange(1, layer_count + 1, dtype=np.int8)
    depth = np.repeat(np.tile(classes, n_gops), runs)
    rows = depth.size

    if scheme != SCHEME_RLC:
        # replica t of a class of n packets takes column t mod P under xor,
        # whose payload XORs that column over layers 1..depth, and column
        # t * P // n under repeat, so each raw cell goes out in a run of copies
        t = np.arange(rows) - np.repeat(np.cumsum(runs) - runs, runs)
        if scheme == SCHEME_XOR:
            column = t % per_layer
        else:
            column = t * per_layer // np.repeat(runs, runs)
        payload = np.empty((rows, 0), dtype=np.uint8)
        if size:
            if scheme == SCHEME_XOR:
                cells = np.bitwise_xor.accumulate(cells, axis=1)
            gop = np.repeat(np.arange(n_gops), sizes)
            payload = cells[gop, depth - 1, column]
        return PacketBlock(scheme, offsets, depth, payload, column=column)

    if rng is None:
        if size:
            raise ValueError("packets without coefficients cannot carry payload bytes")
        empty = np.empty((rows, 0), dtype=np.uint8)
        return PacketBlock(scheme, offsets, depth, empty, coeffs=empty)

    # each row starts on a fresh output, so its bytes do not depend on the
    # rows drawn before it in the same call
    n_unknowns = layer_count * per_layer
    outputs = -(-n_unknowns // 8)
    raw = rng.bit_generator.random_raw(rows * outputs).astype("<u8", copy=False)
    coeffs = np.ascontiguousarray(raw.view(np.uint8).reshape(rows, 8 * outputs)[:, :n_unknowns])
    layers = coeffs.reshape(rows, layer_count, per_layer)
    layers *= (classes <= depth[:, None])[:, :, None]
    payload = np.empty((rows, size), dtype=np.uint8)
    if size:
        data = cells.reshape(n_gops, n_unknowns, size)
        ends = np.cumsum(runs)
        for run in np.flatnonzero(runs):
            k, d = divmod(int(run), layer_count)
            width = (d + 1) * per_layer
            at = slice(ends[run] - runs[run], ends[run])
            payload[at] = gf_matmul(coeffs[at, :width], data[k, :width])
    return PacketBlock(scheme, offsets, depth, payload, coeffs=coeffs)


def decode_block(
    block: PacketBlock,
    layer_count: int,
    packets_per_layer: int,
    payload_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Decodes every GOP of a block: (depths, cells), where depths[k] is the
    number of leading layers GOP k recovered and cells[k] its
    (layer_count, packets_per_layer, payload_size) grid, zero past that
    depth. A GOP with no packets recovers nothing.

    All of the block's rows are checked before anything is decoded. The
    RLC systems of the non-empty GOPs are reduced in zero-padded gf_rref
    stacks of at most DECODE_STACK_BYTES each, and gf_rref reduces each
    system of a stack exactly as on its own, so the split changes no
    result; xor and repeat take the first copy of each (GOP, depth, column)
    cell.
    """
    _check_rows(block, layer_count, packets_per_layer, payload_size)
    decode = _decode_rlc if block.scheme == SCHEME_RLC else _decode_columns
    return decode(block, layer_count, packets_per_layer, payload_size)


def _check_rows(block, layer_count, packets_per_layer, payload_size) -> None:
    if not len(block):
        return
    _check_cells(block, layer_count, packets_per_layer)
    if block.payload.shape[1] != payload_size:
        raise ValueError(
            f"payload must hold {payload_size} bytes, got {block.payload.shape[1]}"
        )
    if block.scheme != SCHEME_RLC:
        return
    n_unknowns = layer_count * packets_per_layer
    coeffs = block.coeffs
    if coeffs.shape[1] != n_unknowns:
        raise ValueError(f"rlc packets need {n_unknowns} coefficients, got {coeffs.shape[1]}")
    outside = np.arange(n_unknowns) >= block.depth.astype(np.intp)[:, None] * packets_per_layer
    if coeffs[outside].any():
        raise ValueError("a packet carries coefficients for layers deeper than its class")


def _check_cells(block, layer_count, packets_per_layer) -> None:
    """Every packet of a non-empty block is of a class in 1..layer_count
    and, under xor and repeat, names a column in 0..packets_per_layer-1."""
    deepest = int(block.depth.max())
    if deepest > layer_count:
        raise ValueError(f"packet class depth {deepest} exceeds layer_count {layer_count}")
    column = block.column
    if column is not None and (column.min() < 0 or column.max() >= packets_per_layer):
        raise ValueError(
            f"packet columns must lie in 0..{packets_per_layer - 1}, "
            f"got {column.min()}..{column.max()}"
        )


def score_block(block: PacketBlock, layer_count: int, packets_per_layer: int) -> np.ndarray:
    """The decoded depth each GOP of a block is scored at, from the classes
    (RLC) or the cells (xor, repeat) of the packets that arrived.

    RLC is scored by the count rule on each GOP's per-class arrivals, which
    a singular random system can miss; xor and repeat by which (depth,
    column) cells arrived, which is exactly their decoded depth. No
    coefficient or payload byte is read, so coefficient-free packets score
    as any others.
    """
    if len(block):
        _check_cells(block, layer_count, packets_per_layer)
    if block.scheme != SCHEME_RLC:
        return _cell_cover(block, layer_count, packets_per_layer)[1]
    n_gops = block.offsets.size - 1
    gop = np.repeat(np.arange(n_gops), block.sizes)
    counts = np.bincount(gop * layer_count + block.depth - 1, minlength=n_gops * layer_count)
    return decodable_layers_batch(counts.reshape(n_gops, layer_count), packets_per_layer)


def covered_depth(seen: np.ndarray):
    """Decoded depth from a (layer_count, packets_per_layer) mask of the
    (depth, column) cells a decoder holds: the deepest run of depths 1, 2,
    ... that every column holds. Exact for repeat, and for xor, where layer
    j of a column needs its depth j and j-1 sums. A (G, layer_count,
    packets_per_layer) stack of masks gives G depths."""
    return np.cumprod(seen.all(axis=-1), axis=-1).sum(axis=-1)


def _cell_cover(block, layer_count, packets_per_layer):
    """The flat (GOP, depth, column) cell of each packet of a checked xor
    or repeat block, and the depth the cells that arrived cover, per GOP."""
    shape = (block.offsets.size - 1, layer_count, packets_per_layer)
    gop = np.repeat(np.arange(shape[0]), block.sizes)
    key = (gop * layer_count + block.depth - 1) * packets_per_layer + block.column
    seen = np.zeros(np.prod(shape), dtype=bool)
    seen[key] = True
    return key, covered_depth(seen.reshape(shape))


def _decode_columns(block, layer_count, packets_per_layer, payload_size):
    """Depths (G,) and cells (G, L, P, s) of a checked xor or repeat block."""
    shape = (block.offsets.size - 1, layer_count, packets_per_layer)
    key, depths = _cell_cover(block, layer_count, packets_per_layer)
    # the first packet of each (GOP, depth, column) cell supplies that cell
    keys, first = np.unique(key, return_index=True)
    sums = np.zeros((np.prod(shape), payload_size), dtype=np.uint8)
    sums[keys] = block.payload[first]
    cells = sums.reshape(shape + (payload_size,))
    if block.scheme == SCHEME_XOR:
        # layer j of a column is the XOR of its depth j and depth j-1 sums
        cells[:, 1:] ^= cells[:, :-1].copy()
    cells[np.arange(layer_count) >= depths[:, None]] = 0
    return depths, cells


def _decode_rlc(block, layer_count, packets_per_layer, payload_size):
    """Depths (G,) and cells (G, L, P, s) of a checked RLC block, its
    non-empty GOPs eliminated in zero-padded stacks of DECODE_STACK_BYTES
    at most, in GOP order."""
    n_gops = block.offsets.size - 1
    depths = np.zeros(n_gops, dtype=np.intp)
    cells = np.zeros((n_gops, layer_count, packets_per_layer, payload_size), dtype=np.uint8)
    sizes = block.sizes
    full = np.flatnonzero(sizes)
    if not full.size:
        return depths, cells
    n_unknowns = layer_count * packets_per_layer
    n_rows = int(sizes.max())
    per_stack = max(1, DECODE_STACK_BYTES // (n_rows * (n_unknowns + payload_size)))
    for start in range(0, full.size, per_stack):
        part = full[start : start + per_stack]
        depths[part], cells[part] = _reduce_stack(
            block, part, n_rows, layer_count, packets_per_layer, payload_size
        )
    return depths, cells


def _reduce_stack(block, part, n_rows, layer_count, packets_per_layer, payload_size):
    """Depths and cells of the GOPs part, a run of a block's non-empty GOPs,
    from one gf_rref stack of n_rows rows per system."""
    n_unknowns = layer_count * packets_per_layer
    n_systems = part.size
    first, last = block.offsets[part[0]], block.offsets[part[-1] + 1]
    # the GOPs between part's are empty, so its rows are the block's rows
    # first to last; row i of the block, of the j-th GOP k of part, is row
    # i - offsets[k] of system j
    at = np.arange(first, last) + np.repeat(
        np.arange(n_systems) * n_rows - block.offsets[part], block.sizes[part]
    )
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

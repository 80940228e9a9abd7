"""Nested-class packet codec.

A coded packet of class i mixes content from layers 1..i of one GOP, so the
packet classes nest: class 1 packets protect only the base layer
while class L packets blend everything. Receivers that can decode depth i
get value out of every packet of class <= i, which is what makes unequal
replica allocation across classes worthwhile on lossy links.

Three schemes share this layout. "xor" combines one grid column per
packet, so layer j of a column peels out of consecutive depths. "rlc" draws
seeded random GF(2^8) coefficients over all cells of the first i layers and
decodes by Gaussian elimination. "repeat" is the uncoded baseline: a class i
packet is one raw cell of layer i, sent as often as the allocation allows.

A PacketBlock holds the packets of a block of GOPs as one set of rows, and
encode_block encodes a block at once; encode_gop is its one-GOP case, as
decode_gop is of decode_block.

RLC coefficients are zero-padded to layer_count * packets_per_layer columns,
or carried as zero columns when no decoder reads them: a receiver that
scores by class counts needs only each packet's class, so an encoder with
no decoder downstream draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .kernels import gf_matmul, gf_rref
from .media import LayerGrid

SCHEME_RLC = "rlc"
SCHEME_XOR = "xor"
SCHEME_REPEAT = "repeat"
SCHEMES = (SCHEME_RLC, SCHEME_XOR, SCHEME_REPEAT)


@dataclass(eq=False)
class PacketBatch:
    """One GOP's coded packets as parallel arrays, one row per packet.

    depth[i] is packet i's class and payload[i] its bytes. RLC packets carry
    their coefficients in coeffs, zero-padded to layer_count *
    packets_per_layer columns, or with zero columns (and a zero-width
    payload) when no decoder reads them; XOR and repeat packets carry their
    grid column instead.
    The batch is checked once, on construction. Indexing with a boolean
    mask, a slice or an index array selects rows and skips the check, since
    rows of a valid batch form a valid batch.
    """

    gop_id: int
    scheme: str
    depth: np.ndarray
    payload: np.ndarray
    coeffs: Optional[np.ndarray] = None
    column: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
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

    def __len__(self) -> int:
        return self.depth.shape[0]

    def __getitem__(self, index) -> "PacketBatch":
        if isinstance(index, (int, np.integer)):
            raise TypeError("select packets with a mask, a slice or an index array")
        return _rows(PacketBatch, self, index, gop_id=self.gop_id)

    @staticmethod
    def concat(batches: Sequence["PacketBatch"]) -> "PacketBatch":
        """The rows of several batches of one GOP and scheme, in order."""
        gids = {b.gop_id for b in batches}
        if len(gids) > 1:
            raise ValueError(f"packets span several GOPs: {sorted(gids)}")
        return PacketBatch(batches[0].gop_id, **_stacked(batches))


def _stacked(batches: Sequence[PacketBatch]) -> dict:
    """The scheme and row arrays of batches of one scheme, rows in order."""
    schemes = {b.scheme for b in batches}
    if len(schemes) > 1:
        raise ValueError(f"packets mix schemes: {sorted(schemes)}")

    def stack(name):
        parts = [getattr(b, name) for b in batches]
        return None if parts[0] is None else np.concatenate(parts)

    return dict(
        scheme=batches[0].scheme, depth=stack("depth"), payload=stack("payload"),
        coeffs=stack("coeffs"), column=stack("column"),
    )


def _rows(cls, source, index, **extra):
    """A cls of the rows ``index`` selects from a checked batch or block,
    unchecked, since rows of valid packets are valid packets."""
    out = object.__new__(cls)
    out.__dict__.update(
        extra,
        scheme=source.scheme,
        depth=source.depth[index],
        payload=source.payload[index],
        coeffs=None if source.coeffs is None else source.coeffs[index],
        column=None if source.column is None else source.column[index],
    )
    return out


@dataclass(eq=False)
class PacketBlock:
    """The packets of a block of GOPs as one set of row arrays.

    GOP k of the block, numbered gop_ids[k], owns rows offsets[k] to
    offsets[k + 1], laid out as its own PacketBatch would hold them; a GOP
    can own no rows. Selecting rows keeps every GOP and its order, so a
    block crosses a lossy link in one mask.
    """

    scheme: str
    gop_ids: np.ndarray
    offsets: np.ndarray
    depth: np.ndarray
    payload: np.ndarray
    coeffs: Optional[np.ndarray] = None
    column: Optional[np.ndarray] = None

    def __post_init__(self):
        self.gop_ids = np.asarray(self.gop_ids, dtype=np.int64)
        self.offsets = np.asarray(self.offsets, dtype=np.intp)
        rows = PacketBatch(0, self.scheme, self.depth, self.payload, self.coeffs, self.column)
        self.depth, self.payload = rows.depth, rows.payload
        self.coeffs, self.column = rows.coeffs, rows.column
        if (
            self.gop_ids.ndim != 1
            or self.offsets.shape != (self.gop_ids.size + 1,)
            or self.offsets[0] != 0
            or self.offsets[-1] != len(rows)
            or (np.diff(self.offsets) < 0).any()
        ):
            raise ValueError(
                f"offsets {self.offsets.tolist()} do not split {len(rows)} rows "
                f"into {self.gop_ids.size} GOPs"
            )

    def __len__(self) -> int:
        """Packets in the block, over all of its GOPs."""
        return self.depth.shape[0]

    @property
    def sizes(self) -> np.ndarray:
        """Packets of each GOP."""
        return np.diff(self.offsets)

    def select(self, rows: np.ndarray) -> "PacketBlock":
        """The block of the rows a boolean mask or an ascending index array
        picks, every GOP kept."""
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        return _rows(
            PacketBlock, self, rows,
            gop_ids=self.gop_ids, offsets=np.searchsorted(rows, self.offsets),
        )

    def gop(self, k: int) -> PacketBatch:
        return _rows(
            PacketBatch, self, slice(self.offsets[k], self.offsets[k + 1]),
            gop_id=int(self.gop_ids[k]),
        )

    def batches(self) -> list[PacketBatch]:
        """One batch per GOP, in order."""
        return [self.gop(k) for k in range(self.gop_ids.size)]

    @staticmethod
    def concat(batches: Sequence[PacketBatch]) -> "PacketBlock":
        """A block of one batch per GOP, all of one scheme."""
        offsets = np.concatenate([[0], np.cumsum([len(b) for b in batches])])
        return PacketBlock(
            gop_ids=[b.gop_id for b in batches], offsets=offsets, **_stacked(batches)
        )


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


def encode_gop(
    grid: LayerGrid,
    strategy: Sequence[int],
    scheme: str = SCHEME_RLC,
    seed: int = 0,
    coeff_width: Optional[int] = None,
) -> PacketBatch:
    """Produces strategy[i-1] packets of class i, shallow classes first.

    coeff_width is the RLC coefficient columns per packet: layer_count *
    packets_per_layer (the default) for packets some decoder reads, or 0 for
    packets only counted, which draw nothing and carry no payload bytes.
    This is the one-GOP case of encode_block.
    """
    cells, strategies = grid.cells[None], [strategy]
    return encode_block(cells, [grid.gop_id], strategies, scheme, [seed], coeff_width).gop(0)


def encode_block(
    cells: np.ndarray,
    gop_ids: Sequence[int],
    strategies,
    scheme: str,
    seeds: Sequence[int],
    coeff_width: Optional[int] = None,
) -> PacketBlock:
    """Encodes GOP gop_ids[k] of a block from its source cells[k] (a
    (G, layer_count, packets_per_layer, payload_size) stack) under the
    replica counts strategies[k] (one row per GOP, one column per class),
    as encode_gop encodes each GOP alone. RLC coefficients of GOP k come
    from seeds[k]; the other schemes and coefficient-free packets read no
    seed."""
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
    n_unknowns = layer_count * per_layer
    if coeff_width is None:
        coeff_width = n_unknowns
    if coeff_width not in (0, n_unknowns):
        raise ValueError(f"coeff_width must be 0 or {n_unknowns}, got {coeff_width}")
    sizes = counts.sum(axis=1)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    runs = counts.ravel()
    classes = np.tile(np.arange(1, layer_count + 1, dtype=np.int8), n_gops)
    depth = np.repeat(classes, runs)
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
        return PacketBlock(scheme, gop_ids, offsets, depth, payload, column=column)

    if coeff_width == 0:
        if size:
            raise ValueError("packets without coefficients cannot carry payload bytes")
        empty = np.empty((rows, 0), dtype=np.uint8)
        return PacketBlock(scheme, gop_ids, offsets, depth, empty, coeffs=empty)

    coeffs = np.zeros((rows, n_unknowns), dtype=np.uint8)
    payload = np.empty((rows, size), dtype=np.uint8)
    for k in np.flatnonzero(sizes):
        _rlc_rows(
            cells[k].reshape(n_unknowns, size), counts[k], per_layer, int(seeds[k]),
            coeffs[offsets[k] : offsets[k + 1]], payload[offsets[k] : offsets[k + 1]],
        )
    return PacketBlock(scheme, gop_ids, offsets, depth, payload, coeffs=coeffs)


def _rlc_rows(data, counts, per_layer, seed, coeffs, payload) -> None:
    """Fills one GOP's coefficient and payload rows, class by class.

    Coefficients are the bytes default_rng(seed).integers(0, 256, (n, d * P),
    uint8) gives for each non-empty class d of n packets in turn, read from
    one raw draw: numpy fills uint8 arrays from 32-bit words, low byte
    first, starting each call on a fresh word, and PCG64 hands out the low
    then the high half of each 64-bit output.
    """
    nbytes = [int(n) * d * per_layer for d, n in enumerate(counts, start=1)]
    words = [-(-b // 4) for b in nbytes]
    raw = np.random.PCG64(seed).random_raw(-(-sum(words) // 2))
    stream = raw.astype("<u8", copy=False).view(np.uint8)
    row = start = 0
    for d, (n, b, w) in enumerate(zip(counts, nbytes, words), start=1):
        if n == 0:
            continue
        width = d * per_layer
        block = stream[start : start + b].reshape(n, width)
        coeffs[row : row + n, :width] = block
        payload[row : row + n] = gf_matmul(block, data[:width])
        row += n
        start += 4 * w


def decode_gop(
    packets: PacketBatch,
    layer_count: int,
    packets_per_layer: int,
    payload_size: int,
    gop_id: Optional[int] = None,
) -> tuple[int, LayerGrid]:
    """Recovers the deepest layer prefix the received packets pin down.

    Returns (recovered_layer_count, grid); grid cells past the recovered
    prefix are zero. With no packets the result is an all-zero grid. This is
    the one-GOP case of decode_block.
    """
    if gop_id is not None and len(packets) and gop_id != packets.gop_id:
        raise ValueError(f"packets carry gop_id {packets.gop_id}, expected {gop_id}")
    ((recovered, grid),) = decode_block([packets], layer_count, packets_per_layer, payload_size)
    if gop_id is not None and not len(packets):
        grid = LayerGrid(gop_id, grid.cells)
    return recovered, grid


def decode_block(
    batches: Sequence[PacketBatch],
    layer_count: int,
    packets_per_layer: int,
    payload_size: int,
) -> list[tuple[int, LayerGrid]]:
    """Decodes a block of GOPs, one batch each, as decode_gop decodes each
    batch alone: (recovered_layer_count, grid) per batch, in order.

    Every batch is checked before anything is decoded, so a bad batch
    raises wherever it sits in the block. The RLC systems of all non-empty
    batches are reduced in one zero-padded gf_rref stack, which reduces each
    system exactly as on its own. An empty batch gives depth 0 and an
    all-zero grid with gop_id 0.
    """
    for packets in batches:
        _check_batch(packets, layer_count, packets_per_layer, payload_size)
    cells = np.zeros(
        (len(batches), layer_count, packets_per_layer, payload_size), dtype=np.uint8
    )
    recovered = np.zeros(len(batches), dtype=np.intp)
    rlc = []
    for g, packets in enumerate(batches):
        if not len(packets):
            continue
        if packets.scheme == SCHEME_RLC:
            rlc.append(g)
        else:
            recovered[g] = _decode_columns(packets, packets_per_layer, cells[g])
    if rlc:
        recovered[rlc], cells[rlc] = _decode_rlc(
            [batches[g] for g in rlc], layer_count, packets_per_layer, payload_size
        )
    return [
        (int(depth), LayerGrid(packets.gop_id if len(packets) else 0, grid))
        for depth, grid, packets in zip(recovered, cells, batches)
    ]


def _check_batch(packets, layer_count, packets_per_layer, payload_size) -> None:
    if not len(packets):
        return
    deepest = int(packets.depth.max())
    if deepest > layer_count:
        raise ValueError(f"packet class depth {deepest} exceeds layer_count {layer_count}")
    if packets.payload.shape[1] != payload_size:
        raise ValueError(
            f"payload must hold {payload_size} bytes, got {packets.payload.shape[1]}"
        )
    if packets.scheme != SCHEME_RLC:
        check_columns(packets.column, packets_per_layer)
        return
    n_unknowns = layer_count * packets_per_layer
    coeffs = packets.coeffs
    if coeffs.shape[1] != n_unknowns:
        raise ValueError(f"rlc packets need {n_unknowns} coefficients, got {coeffs.shape[1]}")
    outside = np.arange(n_unknowns) >= packets.depth.astype(np.intp)[:, None] * packets_per_layer
    if coeffs[outside].any():
        raise ValueError("a packet carries coefficients for layers deeper than its class")


def check_columns(column: np.ndarray, packets_per_layer: int) -> None:
    if column.min() < 0 or column.max() >= packets_per_layer:
        raise ValueError(
            f"packet columns must lie in 0..{packets_per_layer - 1}, "
            f"got {column.min()}..{column.max()}"
        )


def covered_depth(seen: np.ndarray):
    """Decoded depth of a column scheme from its (layer_count,
    packets_per_layer) mask of received (depth, column) cells: the deepest
    run of depths 1, 2, ... that every column holds. Exact for repeat, and
    for xor, where layer j of a column needs its depth j and j-1 sums. A
    (G, layer_count, packets_per_layer) stack of masks gives G depths."""
    return np.cumprod(seen.all(axis=-1), axis=-1).sum(axis=-1)


def _decode_columns(packets, packets_per_layer, cells) -> int:
    # the first packet of each (depth, column) cell supplies that cell
    key = (packets.depth.astype(np.intp) - 1) * packets_per_layer + packets.column
    keys, first = np.unique(key, return_index=True)
    sums = np.zeros((cells.shape[0] * packets_per_layer, cells.shape[2]), dtype=np.uint8)
    sums[keys] = packets.payload[first]
    seen = np.zeros(sums.shape[0], dtype=bool)
    seen[keys] = True
    depth = int(covered_depth(seen.reshape(cells.shape[:2])))
    sums = sums.reshape(cells.shape)[:depth]
    cells[:depth] = sums
    if packets.scheme == SCHEME_XOR:
        # layer j of a column is the XOR of its depth j and depth j-1 sums
        cells[1:depth] ^= sums[:-1]
    return depth


def _decode_rlc(batches, layer_count, packets_per_layer, payload_size):
    """Recovered depth (G,) and cells (G, L, P, s) of G checked, non-empty
    RLC batches, eliminated together in one zero-padded stack."""
    n_unknowns = layer_count * packets_per_layer
    n_rows = max(len(packets) for packets in batches)
    aug = np.zeros((len(batches), n_rows, n_unknowns + payload_size), dtype=np.uint8)
    for system, packets in zip(aug, batches):
        system[: len(packets), :n_unknowns] = packets.coeffs
        system[: len(packets), n_unknowns:] = packets.payload
    owner = gf_rref(aug, n_unknowns)

    # an unknown is solved when its pivot row holds no other coefficient;
    # where there is no pivot (owner -1) the lookup is masked out
    systems = np.arange(len(batches))[:, None]
    nonzero = np.count_nonzero(aug[:, :, :n_unknowns], axis=2)
    solved = (owner >= 0) & (nonzero[systems, owner] == 1)
    layers_solved = solved.reshape(len(batches), layer_count, packets_per_layer).all(axis=2)
    recovered = np.cumprod(layers_solved, axis=1).sum(axis=1)
    solution = aug[systems, owner, n_unknowns:].reshape(
        len(batches), layer_count, packets_per_layer, payload_size
    )
    solution[np.arange(layer_count) >= recovered[:, None]] = 0
    return recovered, solution

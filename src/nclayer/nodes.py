"""Per-node behaviour along the delivery chain, a block of GOPs at a time.

The sender and every re-encoding relay are one kind of node, an Encoder: it
holds a prefix of each GOP's layers, picks a replica allocation for that
prefix from its delivery estimate, and encodes. The sender holds all of
them; a re-encoding relay holds what its decode_block of the block
recovered, which the caller makes once and also reads for the relay's
packet count, and sends nothing for a GOP it recovered no layer of. A
forwarding relay passes whatever arrives, so it has no state. The receiver
scores each GOP by what its scheme's decoder recovers: RLC by the
count-based decode rule on per-class arrivals, XOR and repeat by which
(depth, column) cells arrived. Each step takes a block of GOPs, and the
packets of a block travel as one PacketBlock; a block of one GOP is the
GOP-by-GOP case. An RLC encoder with no decoder downstream sends
coefficient-free packets, since the count rule reads only their classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .codec import (
    SCHEME_RLC,
    PacketBlock,
    check_columns,
    covered_depth,
    decodable_layers_batch,
    decode_block,
    encode_block,
    encode_gop,  # noqa: F401  (perfbench's tracer wraps the one-GOP encode here)
)
from .heuristic import ThresholdPolicy
from .spt import StrategyTable, nearest_bin

MODE_FORWARD = "forward"
MODE_NC = "nc"
RELAY_MODES = (MODE_FORWARD, MODE_NC)


def _fresh_seeds(rng: np.random.Generator, n: int) -> np.ndarray:
    """n encode seeds; the same values as n draws of one seed each."""
    return rng.integers(0, 2**63, size=n)


def _check_estimates(estimates) -> np.ndarray:
    estimates = np.asarray(estimates, dtype=float)
    if not ((estimates >= 0.0) & (estimates <= 1.0)).all():
        raise ValueError(f"pdr estimates must lie in [0, 1], got {estimates.tolist()}")
    return estimates


@dataclass
class Encoder:
    """The sender or a re-encoding relay: it picks each GOP's replica
    allocation from a strategy table or a threshold policy and encodes."""

    scheme: str
    table: Optional[StrategyTable] = None
    policy: Optional[ThresholdPolicy] = None
    pdr_estimate: float = 1.0
    coeff_width: Optional[int] = None
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self):
        if (self.table is None) == (self.policy is None):
            raise ValueError("an encoder needs exactly one of table or policy")

    @property
    def spend(self) -> int:
        """Packets sent per GOP that holds a layer: every strategy of a
        table or policy spends one budget."""
        return self.policy.budget if self.table is None else self.table.budget


def encoder_block(
    state: Encoder, cells: np.ndarray, gop_ids: Sequence[int], estimates, depths
) -> PacketBlock:
    """Encodes a block of GOPs, GOP gop_ids[k] from the first depths[k]
    layers of its cells[k], under the strategy that estimates[k], the
    delivery estimate in force at GOP k, selects.

    A table encoder takes the bin's best strategy among those that leave
    every class deeper than depths[k] empty; at full depth that is the
    bin's best. A policy encoder picks by interval, so it must hold every
    layer. A GOP of depth 0 gets no packets and draws no encode seed.
    """
    estimates = _check_estimates(estimates)
    depths = np.asarray(depths)
    if state.table is not None:
        table = state.table
        index = table.restricted_index[
            nearest_bin(estimates), np.minimum(depths, table.layer_count)
        ]
        strategies = table.matrix[index]
    else:
        # an estimate on a breakpoint belongs to the upper interval
        index = np.searchsorted(state.policy.breakpoints, estimates, side="right")
        strategies = np.asarray(state.policy.strategies, dtype=np.int64)[index]
    encoding = depths > 0
    strategies = np.where(encoding[:, None], strategies, 0)
    seeds = np.zeros(depths.size, dtype=np.int64)
    seeds[encoding] = _fresh_seeds(state.rng, int(np.count_nonzero(encoding)))
    state.pdr_estimate = float(estimates[-1])
    return encode_block(cells, gop_ids, strategies, state.scheme, seeds, state.coeff_width)


@dataclass
class ReceiverState:
    layer_count: int
    packets_per_layer: int
    payload_size: int
    scheme: str = SCHEME_RLC
    verify_payloads: bool = False
    prediction_gaps: int = 0
    payload_errors: int = 0


def receiver_block(
    state: ReceiverState,
    block: PacketBlock,
    references: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Scores each GOP of a block and returns the scores.

    RLC is scored by the count rule, which a singular random system can
    miss; XOR and repeat by column coverage, which is exactly their decoded
    depth. In payload-verification mode each GOP that got packets is
    actually decoded: a decode shallower than the score bumps
    prediction_gaps, and recovered bytes differing from the source cells
    references[k] bump payload_errors.
    """
    if len(block):
        if block.scheme != state.scheme:
            raise ValueError(f"receiver expects {state.scheme} packets, got {block.scheme}")
        depth = block.depth
        if depth.min() < 1 or depth.max() > state.layer_count:
            raise ValueError(
                f"packet class depths {depth.min()}..{depth.max()} "
                f"outside 1..{state.layer_count}"
            )
    shape = (block.gop_ids.size, state.layer_count)
    gop = np.repeat(np.arange(shape[0]), block.sizes)
    if block.column is None:
        cell = gop * state.layer_count + block.depth - 1
        counts = np.bincount(cell, minlength=shape[0] * shape[1]).reshape(shape)
        scores = decodable_layers_batch(counts, state.packets_per_layer)
    else:
        if len(block):
            check_columns(block.column, state.packets_per_layer)
        seen = np.zeros(shape + (state.packets_per_layer,), dtype=bool)
        seen[gop, block.depth.astype(np.intp) - 1, block.column] = True
        scores = covered_depth(seen)
    if state.verify_payloads:
        depths, cells = decode_block(
            block, state.layer_count, state.packets_per_layer, state.payload_size
        )
        state.prediction_gaps += int(np.count_nonzero(depths < scores))
        if references is not None:
            # a GOP decoded wrong when a cell of its recovered prefix differs
            decoded = np.arange(state.layer_count) < depths[:, None]
            wrong = (cells != references).any(axis=(2, 3)) & decoded
            state.payload_errors += int(np.count_nonzero(wrong.any(axis=1)))
    return scores

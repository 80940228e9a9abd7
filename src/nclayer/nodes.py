"""Per-node behaviour along the delivery chain, a block of GOPs at a time.

The sender picks a replica allocation from its table (or threshold policy)
and encodes each GOP. An intermediate either forwards whatever arrives, or
decodes what it can and re-encodes the recovered prefix at full budget with
a strategy restricted to the depths it actually holds. The receiver scores
each GOP by what its scheme's decoder recovers: RLC by the count-based
decode rule on per-class arrivals, XOR and repeat by which (depth, column)
cells arrived. Each step takes a block of GOPs, and the packets of a block
travel as one PacketBlock; a block of one GOP is the GOP-by-GOP case. A
re-encoding relay re-encodes from its decode_block of the block, which the
caller makes once and also reads for the relay's packet count. An RLC
encoder with no decoder downstream sends coefficient-free packets, since
the count rule reads only their classes.
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
class SenderState:
    """Picks each GOP's strategy from a table or a threshold policy; with
    neither, it sends every GOP under the fixed strategy it was given."""

    scheme: str
    table: Optional[StrategyTable] = None
    policy: Optional[ThresholdPolicy] = None
    update_period: int = 1
    pdr_estimate: float = 1.0
    strategy: Optional[tuple[int, ...]] = None
    gop_counter: int = 0
    coeff_width: Optional[int] = None
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self):
        if self.table is not None and self.policy is not None:
            raise ValueError("sender needs exactly one of table or policy")
        if self.table is None and self.policy is None and self.strategy is None:
            raise ValueError("sender needs a table, a policy or a fixed strategy")
        if self.update_period < 1:
            raise ValueError(f"update_period must be positive, got {self.update_period}")

    @property
    def spend(self) -> int:
        """Packets sent per GOP: every table or policy strategy spends one
        budget, and a fixed strategy spends its own sum."""
        if self.table is not None:
            return self.table.budget
        if self.policy is not None:
            return self.policy.budget
        return sum(self.strategy)


def _select(state: SenderState, estimates: np.ndarray) -> np.ndarray:
    """The strategy, as a row, that each estimate selects."""
    if state.table is not None:
        return state.table.matrix[state.table.best_index[nearest_bin(estimates)]]
    # an estimate on a breakpoint belongs to the upper interval
    index = np.searchsorted(state.policy.breakpoints, estimates, side="right")
    return np.asarray(state.policy.strategies, dtype=np.int64)[index]


def sender_block(
    state: SenderState, cells: np.ndarray, gop_ids: Sequence[int], estimates
) -> PacketBlock:
    """Encodes a block of GOPs, GOP gop_ids[k] from its source cells[k].
    estimates[k] is the delivery estimate in force at GOP k (the latest
    feedback); the strategy refreshes from it only on period boundaries of
    the sender's GOP counter."""
    k = len(gop_ids)
    estimates = _check_estimates(estimates)
    if state.table is None and state.policy is None:
        strategies = np.tile(np.asarray(state.strategy, dtype=np.int64), (k, 1))
    else:
        refresh = (state.gop_counter + np.arange(k)) % state.update_period == 0
        refresh[0] |= state.strategy is None
        # row 0 is the strategy in force before the block's first refresh
        current = state.strategy or (0,) * cells.shape[1]
        choices = np.vstack([current, _select(state, estimates[refresh])])
        strategies = choices[np.cumsum(refresh)]
    state.strategy = tuple(int(x) for x in strategies[-1])
    state.gop_counter += k
    state.pdr_estimate = float(estimates[-1])
    seeds = _fresh_seeds(state.rng, k)
    return encode_block(cells, gop_ids, strategies, state.scheme, seeds, state.coeff_width)


@dataclass
class RelayState:
    mode: str
    scheme: str
    layer_count: int
    packets_per_layer: int
    payload_size: int
    table: Optional[StrategyTable] = None
    pdr_estimate: float = 1.0
    forward_delay: float = 0.005
    recode_delay: float = 60.0
    coeff_width: Optional[int] = None
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self):
        if self.mode not in RELAY_MODES:
            raise ValueError(f"unknown relay mode {self.mode!r}, expected one of {RELAY_MODES}")
        if self.mode == MODE_NC and self.table is None:
            raise ValueError("a re-encoding relay needs a strategy table")


def relay_block(
    state: RelayState,
    block: PacketBlock,
    estimates,
    decoded: tuple[np.ndarray, np.ndarray],
) -> PacketBlock:
    """Forward mode passes the block through untouched. Re-encode mode
    spends the full budget on the deepest prefix it decoded of each GOP,
    never emitting a class deeper than that prefix; a GOP with nothing
    decoded gets no packets. estimates[k] is the delivery estimate in force
    at GOP k, and decoded is the (depths, cells) decode_block of the
    block."""
    if state.mode == MODE_FORWARD:
        return block
    depths, cells = decoded
    estimates = _check_estimates(estimates)
    table = state.table
    index = table.restricted_index[
        nearest_bin(estimates), np.minimum(depths, table.layer_count)
    ]
    encoding = (depths > 0) & (index >= 0)
    strategies = np.where(encoding[:, None], table.matrix[index], 0)
    seeds = np.zeros(depths.size, dtype=np.int64)
    seeds[encoding] = _fresh_seeds(state.rng, int(np.count_nonzero(encoding)))
    state.pdr_estimate = float(estimates[-1])
    return encode_block(
        cells, block.gop_ids, strategies, state.scheme, seeds, state.coeff_width
    )


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

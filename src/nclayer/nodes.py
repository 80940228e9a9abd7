"""Per-node behaviour along the delivery chain, a block of GOPs at a time.

The sender and every re-encoding relay are one kind of node, an Encoder: it
holds a prefix of each GOP's layers, picks a replica allocation for that
prefix from the delivery estimate in force, and encodes. The sender holds all of
them; a re-encoding relay holds what its decode_block of the block
recovered, which the caller makes once and also reads for the relay's
packet count, and sends nothing for a GOP it recovered no layer of. An
encoder keeps no delivery estimate: the caller hands it the estimate in
force at each GOP. A forwarding relay passes whatever arrives, and the
receiver scores what reaches it with codec.score_block, so neither has a
state or a step here. Each step takes a block of GOPs, and the packets of
a block travel as one PacketBlock; a block of one GOP is the GOP-by-GOP
case, and a GOP's number is its place in the caller's arrays. An RLC
encoder draws its coefficients from its own generator, which run() spawns
from the run's seed. An encoder with no decoder downstream gets no
generator: it sends coefficient-free packets, since the count rule reads
only their classes, and draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codec import (
    PacketBlock,
    encode_block,
    # perfbench's tracer wraps the one-GOP encode here, and
    # perfbench/test_perfbench.py imports it from here
    encode_gop,  # noqa: F401
)
from .heuristic import ThresholdPolicy
from .spt import StrategyTable, nearest_bin

MODE_FORWARD = "forward"
MODE_NC = "nc"
RELAY_MODES = (MODE_FORWARD, MODE_NC)


def _check_estimates(estimates) -> np.ndarray:
    estimates = np.asarray(estimates, dtype=float)
    if not ((estimates >= 0.0) & (estimates <= 1.0)).all():
        raise ValueError(f"pdr estimates must lie in [0, 1], got {estimates.tolist()}")
    return estimates


@dataclass
class Encoder:
    """The sender or a re-encoding relay: it picks each GOP's replica
    allocation from a strategy table or a threshold policy and encodes,
    drawing RLC coefficients from rng, or sending coefficient-free packets
    when rng is None."""

    scheme: str
    rng: Optional[np.random.Generator]
    table: Optional[StrategyTable] = None
    policy: Optional[ThresholdPolicy] = None

    def __post_init__(self):
        if (self.table is None) == (self.policy is None):
            raise ValueError("an encoder needs exactly one of table or policy")

    @property
    def spend(self) -> int:
        """Packets sent per GOP that holds a layer: every strategy of a
        table or policy spends one budget."""
        return self.policy.budget if self.table is None else self.table.budget


def encoder_block(state: Encoder, cells: np.ndarray, estimates, depths) -> PacketBlock:
    """Encodes a block of GOPs, GOP k from the first depths[k] layers of
    its cells[k], under the strategy that estimates[k], the delivery
    estimate in force at GOP k, selects; estimates and depths hold one
    entry per GOP of cells, or it raises ValueError.

    A table encoder takes the bin's best strategy among those that leave
    every class deeper than depths[k] empty; at full depth that is the
    bin's best. A policy encoder picks by interval, so it must hold every
    layer. A GOP of depth 0 gets no packets, so it draws no coefficients.
    """
    estimates = _check_estimates(estimates)
    depths = np.asarray(depths)
    n_gops = cells.shape[0]
    if estimates.shape != (n_gops,) or depths.shape != (n_gops,):
        raise ValueError(
            f"need one estimate and one depth per GOP of {n_gops}, got shapes "
            f"{estimates.shape} and {depths.shape}"
        )
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
    strategies = np.where((depths > 0)[:, None], strategies, 0)
    return encode_block(cells, strategies, state.scheme, state.rng)

"""Per-node behaviour along the delivery chain, a block of GOPs at a time.

The sender and every re-encoding relay are one kind of node, an Encoder: it
holds a prefix of each GOP's layers, picks a replica allocation for that
prefix from the delivery estimate in force, and encodes. The sender holds
all of them; a re-encoding relay holds what its decode (or sampled depths)
of the block recovered, which the caller makes once and also reads for the
relay's packet count, and sends nothing for a GOP it recovered no layer
of. An encoder keeps no delivery estimate: the caller hands it the
estimate in force at each GOP. A forwarding relay passes whatever arrives,
and the receiver scores what reaches it in codec, so neither has a state
or a step here. The pick and the encode are two steps: pick_strategies
gives the replica counts of a block of GOPs, one row per GOP, which is all
a run that reads nothing but classes carries, and encoder_block picks and
then encodes those counts into one PacketBlock. A block of one GOP is the
GOP-by-GOP case, and a GOP's number is its place in the caller's arrays.
An RLC encoder of a verified run draws its coefficients from its own
generator, which run() seeds from its own child of the run's seed.
Unverified, relays sample and the receiver scores from classes alone, so
no encoder gets a generator and no RLC packet is encoded.
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


def pick_strategies(state: Encoder, estimates, depths) -> np.ndarray:
    """The replica counts an encoder sends for a block of GOPs, one row per
    GOP and one column per class: GOP k's under the strategy that
    estimates[k], the delivery estimate in force at GOP k, selects for the
    first depths[k] layers it holds. estimates and depths hold one entry per
    GOP and estimates lie in [0, 1], or it raises ValueError.

    A table encoder takes the bin's best strategy among those that leave
    every class deeper than depths[k] empty; at full depth that is the
    bin's best. A policy encoder picks by interval, so it must hold every
    layer, or it raises ValueError. A GOP of depth 0 gets no packets.
    """
    estimates = np.asarray(estimates, dtype=float)
    depths = np.asarray(depths)
    if estimates.ndim != 1 or depths.shape != estimates.shape:
        raise ValueError(
            f"need one estimate and one depth per GOP, got shapes "
            f"{estimates.shape} and {depths.shape}"
        )
    if state.table is not None:
        table = state.table
        # nearest_bin refuses an estimate outside [0, 1]
        index = table.restricted_index[
            nearest_bin(estimates), np.minimum(depths, table.layer_count)
        ]
        strategies = table.matrix[index]
    else:
        policy = state.policy
        if not ((estimates >= 0.0) & (estimates <= 1.0)).all():
            raise ValueError(f"pdr estimates must lie in [0, 1], got {estimates.tolist()}")
        layers = len(policy.strategies[0])
        if ((depths > 0) & (depths < layers)).any():
            raise ValueError(
                f"a policy encoder picks by interval, so it must hold all {layers} "
                f"layers of a GOP or none, got depths {depths.tolist()}"
            )
        # an estimate on a breakpoint belongs to the upper interval
        index = np.searchsorted(policy.breakpoints, estimates, side="right")
        strategies = np.asarray(policy.strategies, dtype=np.int64)[index]
    return np.where((depths > 0)[:, None], strategies, 0)


def encoder_block(state: Encoder, cells: np.ndarray, estimates, depths) -> PacketBlock:
    """Encodes a block of GOPs, GOP k from the first depths[k] layers of
    its cells[k], under the strategies pick_strategies(state, estimates,
    depths) picks; estimates and depths hold one entry per GOP of cells, or
    it raises ValueError. A GOP of depth 0 gets no packets, so it draws no
    coefficients.
    """
    strategies = pick_strategies(state, estimates, depths)
    if strategies.shape[0] != cells.shape[0]:
        raise ValueError(
            f"need one estimate and one depth per GOP of {cells.shape[0]}, got "
            f"{strategies.shape[0]}"
        )
    return encode_block(cells, strategies, state.scheme, state.rng)

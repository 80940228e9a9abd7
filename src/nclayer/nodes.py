"""Per-node behaviour along the delivery chain, a block of GOPs at a time.

The sender and every re-encoding relay pick each GOP's replica allocation
the same way, from a strategy table or a threshold policy and the delivery
estimate in force, and spend the run's budget on every GOP they hold a
layer of. The sender holds all of a GOP's layers; a re-encoding relay holds
what its decode (or sampled depths) of the block recovered, which run()
makes once and also reads for the relay's packet count, and sends nothing
for a GOP it recovered no layer of. A node keeps no state here: run() hands
each pick the node's selector, the estimates in force and the depths held,
and encodes the counts picked with codec.encode_block and the node's own
generator. A forwarding relay passes whatever arrives, and the receiver
scores what reaches it in codec, so neither has a step here.
pick_strategies gives the replica counts of a block of GOPs, one row per
GOP, which is all a run that reads nothing but classes carries. A block of
one GOP is the GOP-by-GOP case, and a GOP's number is its place in the
caller's arrays.
"""

from __future__ import annotations

import numpy as np

from .codec import (
    # perfbench's tracer wraps the one-GOP encode here, and
    # perfbench/test_perfbench.py imports it from here
    encode_gop,  # noqa: F401
)
from .heuristic import ThresholdPolicy
from .spt import StrategyTable, nearest_bin

MODE_FORWARD = "forward"
MODE_NC = "nc"
RELAY_MODES = (MODE_FORWARD, MODE_NC)


def pick_strategies(selector, estimates, depths) -> np.ndarray:
    """The replica counts a node sends for a block of GOPs, one row per GOP
    and one column per class: GOP k's under the strategy that estimates[k],
    the delivery estimate in force at GOP k, selects for the first
    depths[k] layers the node holds. estimates and depths hold one entry
    per GOP and estimates lie in [0, 1], or it raises ValueError.

    selector is a StrategyTable or a ThresholdPolicy, or it raises
    TypeError. A table takes the bin's best strategy among those that leave
    every class deeper than depths[k] empty; at full depth that is the
    bin's best. A policy picks by interval, so its node must hold every
    layer, or it raises ValueError. A GOP of depth 0 gets no packets.
    """
    estimates = np.asarray(estimates, dtype=float)
    depths = np.asarray(depths)
    if estimates.ndim != 1 or depths.shape != estimates.shape:
        raise ValueError(
            f"need one estimate and one depth per GOP, got shapes "
            f"{estimates.shape} and {depths.shape}"
        )
    if isinstance(selector, StrategyTable):
        # nearest_bin refuses an estimate outside [0, 1]
        index = selector.restricted_index[
            nearest_bin(estimates), np.minimum(depths, selector.layer_count)
        ]
        strategies = selector.matrix[index]
    elif isinstance(selector, ThresholdPolicy):
        if not ((estimates >= 0.0) & (estimates <= 1.0)).all():
            raise ValueError(f"pdr estimates must lie in [0, 1], got {estimates.tolist()}")
        layers = len(selector.strategies[0])
        if ((depths > 0) & (depths < layers)).any():
            raise ValueError(
                f"a policy picks by interval, so its node must hold all {layers} "
                f"layers of a GOP or none, got depths {depths.tolist()}"
            )
        # an estimate on a breakpoint belongs to the upper interval
        index = np.searchsorted(selector.breakpoints, estimates, side="right")
        strategies = np.asarray(selector.strategies, dtype=np.int64)[index]
    else:
        raise TypeError(
            f"a node picks from a StrategyTable or a ThresholdPolicy, got "
            f"{type(selector).__name__}"
        )
    return np.where((depths > 0)[:, None], strategies, 0)

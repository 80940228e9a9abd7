"""Per-node behaviour along the delivery chain, a block of GOPs at a time.

The sender and every re-encoding relay pick each GOP's replica allocation
the same way, from a strategy table or a threshold policy and how many of
the node's latest probe round survived, and spend the run's budget on
every GOP they hold a layer of. The sender holds all of a GOP's layers; a
re-encoding relay holds what its decode (or sampled depths) of the block
recovered, which run() makes once and also reads for the relay's packet
count, and sends nothing for a GOP it recovered no layer of. A node keeps
no state here: run() hands each pick the node's selector, the surviving
probe counts in force, the probes a round sends and the depths held, and
encodes the counts picked with codec.encode_block and the node's own
generator. A forwarding relay passes whatever arrives, and the receiver
scores what reaches it in codec, so neither has a step here.
pick_strategies gives the replica counts of a block of GOPs, one row per
GOP, which is all a run that reads nothing but classes carries. A block of
one GOP is the GOP-by-GOP case, and a GOP's number is its place in the
caller's arrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .codec import (
    # perfbench's tracer wraps the one-GOP encode here, and
    # perfbench/test_perfbench.py imports it from here
    encode_gop,  # noqa: F401
)
from .heuristic import ThresholdPolicy
from .spt import StrategyTable, check_count, check_counts, nearest_bin

MODE_FORWARD = "forward"
MODE_NC = "nc"
RELAY_MODES = (MODE_FORWARD, MODE_NC)


# bounded, as each distinct probe count would otherwise stay cached for the
# life of the process
@lru_cache(maxsize=32)
def _count_bins(probe_count: int) -> np.ndarray:
    """The read-only delivery bin of each surviving count k of probe_count
    probes, nearest_bin(k / probe_count) at [k], one byte each."""
    bins = nearest_bin(np.arange(probe_count + 1) / probe_count).astype(np.int8)
    bins.flags.writeable = False
    return bins


def pick_strategies(selector, seen, probe_count, depths) -> np.ndarray:
    """The replica counts a node sends for a block of GOPs, one row per GOP
    and one column per class: GOP k's under the strategy that seen[k] of
    probe_count probes, the surviving count in force at GOP k, selects for
    the first depths[k] layers the node holds. probe_count is a positive
    whole number, seen holds one whole number in [0, probe_count] per GOP
    and depths one non-negative whole number per GOP of seen
    (spt.check_counts), or it raises a ValueError that starts with the
    parameter's name.

    selector is a StrategyTable or a ThresholdPolicy, or it raises
    TypeError. A table takes the best strategy, in the bin nearest
    seen[k] / probe_count, among those that leave every class deeper than
    depths[k] empty; at full depth, or deeper, that is the bin's best. A
    policy picks by the interval of seen[k] / probe_count, so its node must
    hold every layer, or it raises ValueError. A GOP of depth 0 gets no
    packets.
    """
    probe_count = check_count("probe_count", probe_count, 1)
    seen = check_counts("seen", seen, 1, 0, probe_count)
    depths = check_counts("depths", depths, 1)
    if depths.shape != seen.shape:
        raise ValueError(f"depths must hold one per GOP of seen, {seen.size}, got {depths.size}")
    if isinstance(selector, StrategyTable):
        return selector.picks[
            _count_bins(probe_count)[seen], np.minimum(depths, selector.layer_count)
        ]
    if not isinstance(selector, ThresholdPolicy):
        raise TypeError(
            f"a node picks from a StrategyTable or a ThresholdPolicy, got "
            f"{type(selector).__name__}"
        )
    layers = len(selector.strategies[0])
    if ((depths > 0) & (depths < layers)).any():
        raise ValueError(
            f"depths must hold all {layers} layers of a GOP or none, as a policy "
            f"picks by interval, got {depths.tolist()}"
        )
    # a share on a breakpoint belongs to the upper interval
    index = np.searchsorted(selector.breakpoints, seen / probe_count, side="right")
    strategies = np.asarray(selector.strategies, dtype=np.int64)[index]
    return np.where((depths > 0)[:, None], strategies, 0)

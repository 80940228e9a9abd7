"""Single-hop loss model: every packet survives independently with fixed odds.

A link is its own random generator; its delivery probability and delay
belong to the caller, which passes the probabilities in force with each
block it sends.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .codec import surviving_counts


def send_block(
    rngs: Sequence[np.random.Generator],
    probes,
    packets,
    pdrs: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Carries a block of GOPs across the links, one generator per link, in
    order.

    GOP k sends probes[k] probes and then packets[k] packets. Each link draws
    one uniform for every probe and packet that reached it, GOP by GOP and
    probes before packets, in one call for the block: the same per-link
    stream as sending each GOP's probes and then its packets across the
    chain one at a time. pdrs[j, k] is link j's delivery probability during
    GOP k; a pdrs of one value per link, pdrs[j], holds over the block.

    Returns the probes of each GOP that crossed every link, and per link the
    survival mask of the packets that reached it, in GOP order.
    """
    if not rngs:
        raise ValueError("need at least one link to send across")
    probes = np.asarray(probes, dtype=np.int64)
    packets = np.asarray(packets, dtype=np.int64)
    if (probes < 0).any() or (packets < 0).any():
        raise ValueError("probe and packet counts must be non-negative")
    # draws alternate a GOP's probes and its packets, GOP by GOP: runs[k]
    # is how many of GOP k's probes and then of its packets reach a link
    runs = np.stack([probes, packets], axis=1)
    is_packet = np.tile(np.array([False, True]), probes.size)
    masks = []
    for rng, link_pdrs in zip(rngs, pdrs):
        draws = int(runs.sum())
        if np.ndim(link_pdrs):
            link_pdrs = np.repeat(np.repeat(link_pdrs, 2), runs.ravel())
        alive = rng.random(draws) < link_pdrs
        masks.append(alive[np.repeat(is_packet, runs.ravel())])
        runs = surviving_counts(runs, alive)
    return runs[:, 0], masks

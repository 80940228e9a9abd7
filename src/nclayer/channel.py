"""Single-hop loss model: every packet survives independently with fixed odds.

A link is its own random generator; its delivery probability and delay
belong to the caller, which passes the probabilities in force with each
block it sends.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


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
    GOP k.

    Returns the probes of each GOP that crossed every link, and per link the
    survival mask of the packets that reached it, in GOP order.
    """
    if not rngs:
        raise ValueError("need at least one link to send across")
    probes = np.asarray(probes, dtype=np.int64)
    packets = np.asarray(packets, dtype=np.int64)
    if (probes < 0).any() or (packets < 0).any():
        raise ValueError("probe and packet counts must be non-negative")
    # draws alternate a GOP's probes and its packets, GOP by GOP
    is_packet = np.tile(np.array([False, True]), probes.size)
    masks = []
    for rng, link_pdrs in zip(rngs, pdrs):
        counts = np.stack([probes, packets], axis=1).ravel()
        ends = np.cumsum(counts)
        draws = int(ends[-1])
        alive = rng.random(draws) < np.repeat(np.repeat(link_pdrs, 2), counts)
        masks.append(alive[np.repeat(is_packet, counts)])
        # survivors per run of draws; the trailing zero lets a run that
        # starts at the end sum to zero, and empty runs are zeroed
        summed = np.zeros(draws + 1, dtype=np.int64)
        summed[:draws] = alive
        survivors = np.add.reduceat(summed, ends - counts)
        survivors[counts == 0] = 0
        probes, packets = survivors[0::2], survivors[1::2]
    return probes, masks

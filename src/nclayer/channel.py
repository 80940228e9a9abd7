"""Single-hop loss model: every packet survives independently with fixed odds."""

from __future__ import annotations

from typing import Sequence

import numpy as np


class LinkModel:
    """One directed link. Deterministic for a given seed and call sequence."""

    def __init__(self, delivery_prob: float, seed: int = 0, transmit_delay: float = 0.001):
        if not 0.0 <= delivery_prob <= 1.0:
            raise ValueError(f"delivery_prob must lie in [0, 1], got {delivery_prob}")
        if transmit_delay < 0.0:
            raise ValueError(f"transmit_delay must be non-negative, got {transmit_delay}")
        self.delivery_prob = float(delivery_prob)
        self.transmit_delay = float(transmit_delay)
        self.draws = 0
        self._rng = np.random.default_rng(seed)


def send_block(
    links: Sequence[LinkModel],
    probes,
    packets,
    pdrs: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Carries a block of GOPs across the links in order.

    GOP k sends probes[k] probes and then packets[k] packets. Each link draws
    one uniform for every probe and packet that reached it, GOP by GOP and
    probes before packets, in one call for the block: the same per-link
    stream as sending each GOP's probes and then its packets across the
    chain one at a time. pdrs[j, k] is link j's delivery probability during
    GOP k.

    Returns the probes of each GOP that crossed every link, and per link the
    survival mask of the packets that reached it, in GOP order.
    """
    if not links:
        raise ValueError("need at least one link to send across")
    probes = np.asarray(probes, dtype=np.int64)
    packets = np.asarray(packets, dtype=np.int64)
    if (probes < 0).any() or (packets < 0).any():
        raise ValueError("probe and packet counts must be non-negative")
    # draws alternate a GOP's probes and its packets, GOP by GOP
    is_packet = np.tile(np.array([False, True]), probes.size)
    masks = []
    for link, link_pdrs in zip(links, pdrs):
        counts = np.stack([probes, packets], axis=1).ravel()
        ends = np.cumsum(counts)
        draws = int(ends[-1])
        link.draws += draws
        alive = link._rng.random(draws) < np.repeat(np.repeat(link_pdrs, 2), counts)
        masks.append(alive[np.repeat(is_packet, counts)])
        # survivors per run of draws; the trailing zero lets a run that
        # starts at the end sum to zero, and empty runs are zeroed
        summed = np.zeros(draws + 1, dtype=np.int64)
        summed[:draws] = alive
        survivors = np.add.reduceat(summed, ends - counts)
        survivors[counts == 0] = 0
        probes, packets = survivors[0::2], survivors[1::2]
    return probes, masks

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

    def _delivered(self, n: int) -> np.ndarray:
        """Survival mask of n packets sent in order; one uniform per packet."""
        self.draws += n
        return self._rng.random(n) < self.delivery_prob

    def transmit(self, batch):
        """Delivered rows, in order, of a packet batch or any array indexable
        by a boolean mask; consumes exactly one draw per packet."""
        if not len(batch):
            return batch
        return batch[self._delivered(len(batch))]


def chain_e2e_pdr(links: Sequence[LinkModel], n_probes: int = 100) -> float:
    """Survivor fraction of n_probes probes sent across the links, which
    estimates the product of the per-link delivery probabilities.

    Each link draws once for every probe that reached it, in probe order, the
    same per-link stream as walking the probes across the chain one by one.
    """
    if not links:
        raise ValueError("need at least one link to probe")
    if n_probes < 1:
        raise ValueError(f"n_probes must be positive, got {n_probes}")
    alive = n_probes
    for link in links:
        if alive == 0:
            break
        alive = int(np.count_nonzero(link._delivered(alive)))
    return alive / n_probes

"""Single-hop loss model: every packet survives independently with fixed odds.

A link is its own random generator; its delivery probability and delay
belong to the caller, which passes the probabilities in force with each
block it sends. A link's outcome for a block is its survival mask over its
draws, from which codec.surviving_counts reads what crosses it under any
layout of the draws: probes against packets, or probes and then each class.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .codec import _draw, _Rows, surviving_counts


def send_block(
    rngs: Sequence[np.random.Generator],
    probes,
    packets,
    pdrs,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Carries a block of GOPs across the links, one generator per link, in
    order.

    GOP k sends probes[k] probes and then packets[k] packets. Each link draws
    one uniform for every probe and packet that reached it, GOP by GOP and
    probes before packets, in one call for the block: the same per-link
    stream as sending each GOP's probes and then its packets across the
    chain one at a time. A link's delivery holds over the block, one value
    per row its generator draws for: pdrs[j] or pdrs[j, 0] for a plain
    generator, and pdrs[j, r] for row r when a block of several runs' GOPs
    takes per link the runs' generators as one codec._Rows, each drawing
    for its own GOPs. Probe and packet counts that are not one whole number
    per GOP each, a pdrs of another number of rows than links, a link's row
    of another length than its generator's rows, or a probability outside
    [0, 1] raises ValueError.

    Returns the probes of each GOP that crossed every link, and per link its
    survival mask: kept[j][i] is whether link j's draw i survived, and a
    closing False follows the draws, so kept[j] has one entry more than link
    j drew and every run of them, an empty one at the end too, starts at an
    index of it.
    """
    if not rngs:
        raise ValueError("need at least one link to send across")
    probes, packets = np.asarray(probes), np.asarray(packets)
    if probes.ndim != 1 or probes.shape != packets.shape:
        raise ValueError(
            f"need one probe count and one packet count per GOP, got shapes "
            f"{probes.shape} and {packets.shape}"
        )
    # an empty list reads as floats, and a block of no GOPs draws nothing
    if probes.size and not {probes.dtype.kind, packets.dtype.kind} <= {"i", "u"}:
        raise ValueError(
            f"probe and packet counts must be whole numbers, got {probes.dtype} "
            f"and {packets.dtype}"
        )
    probes = np.asarray(probes, dtype=np.int64)
    packets = np.asarray(packets, dtype=np.int64)
    if probes.size and min(probes.min(), packets.min()) < 0:
        raise ValueError("probe and packet counts must be non-negative")
    pdrs = np.asarray(pdrs, dtype=float)
    if pdrs.ndim not in (1, 2) or pdrs.shape[0] != len(rngs):
        raise ValueError(
            f"need one delivery probability row per link, {len(rngs)}, got shape {pdrs.shape}"
        )
    if pdrs.ndim == 1:
        pdrs = pdrs[:, None]
    for j, rng in enumerate(rngs):
        rows = len(rng.sources) if isinstance(rng, _Rows) else 1
        if pdrs.shape[1] != rows:
            raise ValueError(
                f"link {j} needs one delivery probability per row its generator "
                f"draws for, {rows}, got {pdrs.shape[1]}"
            )
    if pdrs.size and not (pdrs.min() >= 0.0 and pdrs.max() <= 1.0):
        raise ValueError(f"delivery probabilities must lie in [0, 1], got {pdrs.tolist()}")
    # draws alternate a GOP's probes and its packets, GOP by GOP: runs[k]
    # is how many of GOP k's probes and then of its packets reach a link
    runs = np.empty((probes.size, 2), dtype=np.int64)
    runs[:, 0], runs[:, 1] = probes, packets
    draws = int(runs.sum())
    kept = []
    for rng, link_pdrs in zip(rngs, pdrs):
        link_kept = np.zeros(draws + 1, dtype=bool)
        link_kept[:draws] = _draw(rng, draws, runs, _survivors, link_pdrs)
        kept.append(link_kept)
        runs = surviving_counts(runs, link_kept)
        draws = int(runs.sum())
    return runs[:, 0], kept


def _survivors(rng, n, row, pdrs) -> np.ndarray:
    """Which of the n draws a link makes for one row of a block survive: one
    uniform each from rng, compared with the row's delivery, pdrs[row]."""
    return rng.random(n) < pdrs[row]

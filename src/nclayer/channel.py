"""Single-hop loss model: every packet survives independently with fixed odds.

A link is its own random generator; its delivery probability and delay
belong to the caller, which passes the probabilities in force with each
block it sends. A link's outcome for a block is its running survivor count
over its draws, one cumulative sum of its survival mask, from which
codec.surviving_counts reads what crosses it under any layout of the draws:
probes against packets, or probes and then each class.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .codec import _draw, surviving_counts


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
    chain one at a time. pdrs[j, k] is link j's delivery probability during
    GOP k; a pdrs of one value per link, pdrs[j], holds over the block. A
    block of several runs' GOPs takes per link the runs' generators as one
    codec._Rows, and each run's generator draws for its own GOPs.
    Probe and packet counts that are not one whole number per GOP each, a
    pdrs of another number of rows than links, a per-GOP row of another
    length than the GOPs, or a probability outside [0, 1] raises ValueError.

    Returns the probes of each GOP that crossed every link, and per link its
    running survivor count: kept[j][i], int32, is how many of link j's
    first i draws survived, so kept[j] has one entry more than link j drew.
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
    if pdrs.ndim == 2 and pdrs.shape[1] != probes.size:
        raise ValueError(
            f"a per-GOP delivery row needs one probability per GOP, {probes.size}, "
            f"got {pdrs.shape[1]}"
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
        # int32 is wide enough: 2**31 draws would take 16 GiB of uniforms
        link_kept = np.zeros(draws + 1, dtype=np.int32)
        _draw(rng, draws, runs, _survivors, link_pdrs, runs).cumsum(out=link_kept[1:])
        kept.append(link_kept)
        runs = surviving_counts(runs, link_kept)
        draws = int(link_kept[-1])
    return runs[:, 0], kept


def _survivors(rng, n, gops, pdrs, runs) -> np.ndarray:
    """Which of the n draws a link makes for the GOPs gops of a block
    survive: one uniform each from rng, compared with the delivery in force
    in its GOP, pdrs[k] for GOP k where pdrs holds one per GOP; runs[k],
    GOP k's probes and then packets, lays the draws out."""
    if pdrs.ndim:
        pdrs = pdrs[gops]
        if pdrs.size and pdrs.min() == pdrs.max():
            # GOPs of one delivery compare with it alone
            pdrs = pdrs[0]
        else:
            pdrs = np.repeat(np.repeat(pdrs, 2), runs[gops].ravel())
    return rng.random(n) < pdrs

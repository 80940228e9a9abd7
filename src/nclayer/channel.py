"""Segment loss model: every packet survives each link independently with
fixed odds.

A segment, the links from an encoder to the next one or the receiver, is
one random generator; its links' delivery probabilities and delays belong
to the caller, which passes the probabilities in force with each block it
sends. The segment draws one uniform per probe and packet at its head, and
that one draw decides how far the packet gets: it crosses link j exactly
when the uniform is below the product of the deliveries of links 0..j.
Under i.i.d. loss that is the law of each link passing what reached it
with its own odds, with one draw in place of one per link reached. A
link's outcome for a block is its survival mask over the head's draws,
from which codec.surviving_counts reads what crosses it under any layout
of the draws: probes against packets, or probes and then each class.
"""

from __future__ import annotations

import numpy as np

from .codec import _Rows, surviving_counts
from .spt import check_counts, check_probabilities


def send_block(rng, probes, packets, pdrs) -> tuple[np.ndarray, np.ndarray]:
    """Carries a block of GOPs across a segment's links, in order, with the
    segment's one generator rng.

    GOP k sends probes[k] probes and then packets[k] packets. rng draws one
    uniform for each, GOP by GOP and probes before packets, in one call for
    the block: the same stream as sending each GOP's probes and then its
    packets one at a time. A draw crosses link j when its uniform is below
    the running product of the deliveries up to j. A link's delivery holds
    over the block, one value per row rng draws for: pdrs[j] or pdrs[j, 0]
    for a Generator, and pdrs[j, r] for row r when a block of several runs'
    GOPs takes the runs' generators as one codec._Rows, each drawing for its
    own GOPs. Each refusal is a ValueError that starts with the parameter it
    refuses: an rng that is neither, probes or packets that are not one
    non-negative whole number per GOP each (spt.check_counts), or not the
    same GOPs for every row, and pdrs that hold no link, another number of
    values per link than rng's rows, or a value outside [0, 1]
    (spt.check_probabilities). Nothing is drawn before them.

    Returns the probes of each GOP that crossed every link, and the links'
    survival masks as the rows of one bool array: kept[j][i] is whether
    draw i crossed links 0..j, and a closing False follows the draws, so
    each row has one entry more than rng drew and every run of them, an
    empty one at the end too, starts at an index of it.
    """
    if not isinstance(rng, (np.random.Generator, _Rows)):
        raise ValueError(f"rng must be a numpy Generator or a codec._Rows of them, got {rng!r}")
    sources = rng.sources if isinstance(rng, _Rows) else [rng]
    probes = check_counts("probes", probes, 1)
    packets = check_counts("packets", packets, 1)
    if packets.shape != probes.shape:
        raise ValueError(
            f"packets must hold one count per GOP of probes, {probes.size}, got {packets.size}"
        )
    if probes.size % len(sources):
        raise ValueError(
            f"probes must hold as many GOPs for each of rng's {len(sources)} rows, "
            f"got {probes.size}"
        )
    pdrs = check_probabilities("pdrs", pdrs)
    if pdrs.ndim == 1:
        pdrs = pdrs[:, None]
    if pdrs.ndim != 2 or not pdrs.size or pdrs.shape[1] != len(sources):
        raise ValueError(
            f"pdrs must hold for each link one delivery per row rng draws for, "
            f"{len(sources)}, got shape {pdrs.shape}"
        )
    # draws alternate a GOP's probes and its packets, GOP by GOP: runs[k] is
    # how many of GOP k's probes and then of its packets the head draws for
    runs = np.empty((probes.size, 2), dtype=np.int64)
    runs[:, 0], runs[:, 1] = probes, packets
    sizes = runs.reshape(len(sources), -1).sum(axis=1).tolist()
    reach = np.multiply.accumulate(pdrs)
    kept = np.zeros((len(pdrs), sum(sizes) + 1), dtype=bool)
    start = 0
    for row, (source, size) in enumerate(zip(sources, sizes)):
        # each row's uniforms against its running products, link by link,
        # written into the masks: no floats outlive one row's draws
        np.less(source.random(size), reach[:, row, None], out=kept[:, start : start + size])
        start += size
    return surviving_counts(runs, kept[-1])[:, 0], kept

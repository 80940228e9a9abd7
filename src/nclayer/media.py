"""Layered media sources.

A group of pictures (GOP) is a dense uint8 grid of shape (layer_count,
packets_per_layer, payload_size): row 0 is the base layer, each later row
refines the ones before it, and a layer is only useful when every layer
below it is available as well. A block of GOPs is a (G, layer_count,
packets_per_layer, payload_size) stack of grids, and a GOP's number is its
place in the caller's arrays. A payload size of 0 gives grids with their
layers and packets but no bytes, which is all a run that never checks the
decoded bytes needs.
"""

from __future__ import annotations

import numpy as np


def make_synthetic_gop(
    gop_id: int,
    layer_count: int,
    packets_per_layer: int,
    payload_size: int,
    seed: int = 0,
) -> np.ndarray:
    """The deterministic pseudo-random (layer_count, packets_per_layer,
    payload_size) grid of GOP gop_id; a pure function of its arguments. A
    payload size of 0 gives the empty grid and draws nothing. This is the
    one-GOP case of make_synthetic_cells."""
    return make_synthetic_cells([gop_id], layer_count, packets_per_layer, payload_size, seed)[0]


def make_synthetic_cells(
    gop_ids,
    layer_count: int,
    packets_per_layer: int,
    payload_size: int,
    seed: int = 0,
) -> np.ndarray:
    """The grid of each GOP id, stacked into one (G, layer_count,
    packets_per_layer, payload_size) array; GOP g's grid depends only on g,
    the shape and the seed."""
    if seed < 0 or (np.asarray(gop_ids) < 0).any():
        raise ValueError("gop_id and seed must be non-negative")
    for name, value in (("layer_count", layer_count), ("packets_per_layer", packets_per_layer)):
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")
    if payload_size < 0:
        raise ValueError(f"payload_size must be non-negative, got {payload_size}")
    shape = (layer_count, packets_per_layer, payload_size)
    cells = np.empty((len(gop_ids),) + shape, dtype=np.uint8)
    if payload_size:
        for out, gop_id in zip(cells, gop_ids):
            rng = np.random.default_rng([seed, int(gop_id)] + list(shape))
            out[...] = rng.integers(0, 256, size=shape, dtype=np.uint8)
    return cells

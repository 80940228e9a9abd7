"""Layered media containers.

A group of pictures (GOP) is a dense byte grid of shape (layer_count,
packets_per_layer, payload_size): row 0 is the base layer, each later row
refines the ones before it, and a layer is only useful when every layer
below it is available as well. A payload size of 0 gives a grid with its
layers and packets but no bytes, which is all a run that never checks the
decoded bytes needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LayerGrid:
    """One GOP worth of source packets. Treated as immutable after creation."""

    gop_id: int
    cells: np.ndarray

    def __post_init__(self):
        cells = np.ascontiguousarray(self.cells, dtype=np.uint8).copy()
        if cells.ndim != 3:
            raise ValueError(f"cells must have 3 axes, got shape {cells.shape}")
        if min(cells.shape[:2]) < 1:
            raise ValueError(f"layer and packet axes must be positive, got shape {cells.shape}")
        if self.gop_id < 0:
            raise ValueError(f"gop_id must be non-negative, got {self.gop_id}")
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    @property
    def layer_count(self) -> int:
        return self.cells.shape[0]

    @property
    def packets_per_layer(self) -> int:
        return self.cells.shape[1]

    @property
    def payload_size(self) -> int:
        return self.cells.shape[2]


def make_synthetic_gop(
    gop_id: int,
    layer_count: int,
    packets_per_layer: int,
    payload_size: int,
    seed: int = 0,
) -> LayerGrid:
    """Deterministic pseudo-random grid; a pure function of its arguments.
    A payload size of 0 gives the empty grid and draws nothing. This is the
    one-GOP case of make_synthetic_cells."""
    cells = make_synthetic_cells([gop_id], layer_count, packets_per_layer, payload_size, seed)
    return LayerGrid(gop_id, cells[0])


def make_synthetic_cells(
    gop_ids,
    layer_count: int,
    packets_per_layer: int,
    payload_size: int,
    seed: int = 0,
) -> np.ndarray:
    """The cells of make_synthetic_gop for each GOP id, stacked into one
    (G, layer_count, packets_per_layer, payload_size) array."""
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

import numpy as np
import pytest

from nclayer.media import LayerGrid, make_synthetic_gop


def test_grid_shape_and_properties():
    grid = make_synthetic_gop(3, 4, 8, 64)
    assert grid.cells.shape == (4, 8, 64)
    assert grid.layer_count == 4
    assert grid.packets_per_layer == 8
    assert grid.payload_size == 64
    assert grid.gop_id == 3


def test_grid_cells_are_frozen():
    grid = make_synthetic_gop(0, 2, 2, 4)
    with pytest.raises(ValueError):
        grid.cells[0, 0, 0] = 1


def test_grid_copies_its_input():
    cells = np.zeros((2, 3, 4), dtype=np.uint8)
    grid = LayerGrid(gop_id=0, cells=cells)
    cells[0, 0, 0] = 7
    assert grid.cells[0, 0, 0] == 0


def test_synthetic_gop_is_deterministic():
    a = make_synthetic_gop(5, 3, 4, 16, seed=42)
    b = make_synthetic_gop(5, 3, 4, 16, seed=42)
    c = make_synthetic_gop(6, 3, 4, 16, seed=42)
    assert np.array_equal(a.cells, b.cells)
    assert not np.array_equal(a.cells, c.cells)


@pytest.mark.parametrize(
    "shape", [(0, 2, 2), (2, 0, 2)]
)
def test_grid_rejects_empty_axes(shape):
    with pytest.raises(ValueError):
        LayerGrid(gop_id=0, cells=np.zeros(shape, dtype=np.uint8))


def test_grid_accepts_empty_payload_axis():
    # a run that never checks decoded bytes carries grids with no payload
    grid = LayerGrid(gop_id=0, cells=np.zeros((2, 2, 0), dtype=np.uint8))
    assert grid.payload_size == 0
    empty = make_synthetic_gop(3, 4, 8, 0)
    assert empty.cells.shape == (4, 8, 0)
    assert (empty.layer_count, empty.packets_per_layer, empty.gop_id) == (4, 8, 3)
    with pytest.raises(ValueError):
        make_synthetic_gop(0, 4, 8, -1)
    for layers, packets in ((0, 8), (4, 0)):
        with pytest.raises(ValueError):
            make_synthetic_gop(0, layers, packets, 0)


def test_grid_rejects_negative_gop():
    with pytest.raises(ValueError):
        LayerGrid(gop_id=-1, cells=np.zeros((1, 1, 1), dtype=np.uint8))


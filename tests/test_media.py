import numpy as np
import pytest

from nclayer.media import make_synthetic_cells, make_synthetic_gop


def test_grid_shape_and_properties():
    grid = make_synthetic_gop(3, 4, 8, 64)
    assert grid.shape == (4, 8, 64) and grid.dtype == np.uint8
    assert np.array_equal(grid, make_synthetic_cells([3], 4, 8, 64)[0])


def test_synthetic_gop_is_deterministic():
    a = make_synthetic_gop(5, 3, 4, 16, seed=42)
    b = make_synthetic_gop(5, 3, 4, 16, seed=42)
    c = make_synthetic_gop(6, 3, 4, 16, seed=42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize(
    "shape", [(0, 2, 2), (2, 0, 2)]
)
def test_grid_rejects_empty_axes(shape):
    with pytest.raises(ValueError):
        make_synthetic_cells([0], *shape)


def test_grid_accepts_empty_payload_axis():
    # a run that never checks decoded bytes carries grids with no payload
    assert make_synthetic_cells([0, 1], 2, 2, 0).shape == (2, 2, 2, 0)
    empty = make_synthetic_gop(3, 4, 8, 0)
    assert empty.shape == (4, 8, 0)
    with pytest.raises(ValueError):
        make_synthetic_gop(0, 4, 8, -1)
    for layers, packets in ((0, 8), (4, 0)):
        with pytest.raises(ValueError):
            make_synthetic_gop(0, layers, packets, 0)


def test_grid_rejects_negative_gop():
    with pytest.raises(ValueError):
        make_synthetic_cells([0, -1], 1, 1, 1)
    with pytest.raises(ValueError):
        make_synthetic_gop(-1, 1, 1, 1)

import math

import numpy as np
import pytest

from egnet import ops


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture(params=["one-row", "ragged"])
def conv_tiles(request, monkeypatch):
    """Shrinks ``ops.TILE_BYTES`` for one conv2d or depthwise shape.

    Both gather their patches in the row tiles of ``ops._row_tiles``.
    Returns ``tile(shape, k, stride, padding, dtype)``, which sets the
    budget so that the conv's row tiles are one output row high
    ("one-row"), or three rows high with a shorter last tile ("ragged",
    for an output height that 3 does not divide), and checks that they are.
    """
    def tile(shape, k, stride, padding, dtype):
        itemsize = np.dtype(dtype).itemsize
        grid = ops._tap_grid(shape, k, stride, padding)

        def heights():
            return [hi - lo for lo, hi, _, _ in ops._row_tiles(shape, grid, stride, itemsize)]

        monkeypatch.setattr(ops, "TILE_BYTES", 1)
        oh = len(heights())
        if request.param == "one-row":
            assert heights() == [1] * oh
        else:
            row = next(ops._row_tiles(shape, grid, stride, itemsize))[3]
            monkeypatch.setattr(ops, "TILE_BYTES", 3 * itemsize * math.prod(row))
            assert oh % 3 and heights() == [3] * (oh // 3) + [oh % 3]

    return tile

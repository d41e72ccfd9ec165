import math
import re

import numpy as np
import pytest

from egnet import ops
from egnet.cli import MESSAGE_CHARS


# A fold (RepVGG, arXiv 2101.03697) reorders a composition's sums, so its values and
# gradients hold to FOLD_TOL[dtype] * max|unfolded| rather than bitwise.
FOLD_TOL = {np.float32: 2e-6, np.float64: 1e-12}


def assert_folded(got, expected, dtype):
    assert got.dtype == expected.dtype == dtype
    err = np.abs(got - expected).max()
    assert err <= FOLD_TOL[dtype] * np.abs(expected).max(), err


def _rt(shape, dtype=b'"f32"', payload=b"", order=b'"nchw"'):
    return b'{"shape":' + shape + b',"dtype":' + dtype + b',"order":' + order + b'}\n' + payload


HUGE = b"9" * 4000  # an exact int that str() can print but whose square it cannot
LONG = b'"' + b"x" * 100_000 + b'"'  # a header string that an error message echoes

# Whole .rt files whose headers load_raw_tensor must reject with a ParseError.
MALFORMED_RT = {
    "side-over-int64": _rt(b"[1,3,99999999999999999999,1]"),
    "int64-product-wraps": _rt(b"[4294967296,4294967296,1,1]"),
    "zero-with-side-over-int64": _rt(b"[0,99999999999999999999,1,1]"),
    "zero-with-huge-sides": _rt(b"[0,3,4611686018427387904,4]"),
    "sides-of-4000-digits": _rt(b"[1,3," + HUGE + b"," + HUGE + b"]"),
    "dtype-list": _rt(b"[1,3,4,4]", b'["f32"]', bytes(192)),
    "dtype-dict": _rt(b"[1,3,4,4]", b'{"a":1}', bytes(192)),
    "int-over-digit-limit": _rt(b"[1,3," + b"9" * 5000 + b",4]"),
    "nested-past-recursion-limit": b"[" * 100_000 + b"\n",
    "order-of-100kB": _rt(b"[1,3,4,4]", order=LONG),
    "dtype-of-100kB": _rt(b"[1,3,4,4]", LONG),
    "shape-of-50k-sides": _rt(b"[" + b",".join([b"1"] * 50_000) + b"]"),
}


def assert_error_line(err, category):
    """``err`` is exactly one ``error category=<category> message="..."`` line,
    whose message is at most ``MESSAGE_CHARS`` characters long."""
    assert "Traceback" not in err
    line = re.fullmatch(rf'error category={category} message="([^"\n]*)"\n', err)
    assert line, err[:1000]
    assert len(line[1]) <= MESSAGE_CHARS, err[:1000]


def gelu_probes(rng, dtype, size):
    """Inputs of the GELU bitwise tests, by name: ``size`` values led by
    +-0, +-1e30, NaN, +-inf and +-1; one ``ops.GELU_BLOCK`` of values, one
    less and one more; a rank-0 value; a strided, transposed view; and a
    probe-stacked rank-5 array.  The last two end in a ragged block."""
    def draw(*shape):
        return np.asarray(rng.normal(scale=4.0, size=shape)).astype(dtype)

    flat = draw(size)
    flat[:9] = [0.0, -0.0, 1e30, -1e30, np.nan, np.inf, -np.inf, 1.0, -1.0]
    block = ops.GELU_BLOCK
    return {
        "flat": flat,
        "block-1": draw(block - 1),
        "block": draw(block),
        "block+1": draw(block + 1),
        "rank-0": draw(),
        "strided": draw(3, 40, 70, 10)[:, ::2, 1:, 1:9].transpose(0, 3, 2, 1),
        "rank-5": draw(2, 4, 16, 16, 21),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture(params=["one-row", "ragged"])
def conv_tiles(request, monkeypatch):
    """Shrinks ``ops.TILE_BYTES`` for one conv2d or depthwise shape.

    Both gather their patches in the row tiles of ``ops._row_tiles``; a
    conv2d that ``ops._lowers_rows`` takes, given its ``cout``, gathers
    column shifts in the tiles of ``ops._shift_tiles`` instead, each with
    k - 1 rows of halo.  Returns ``tile(shape, k, stride, padding, dtype,
    cout=None)``, which sets the budget so that the conv's row tiles are
    one output row high ("one-row"), or three rows high with a shorter
    last tile ("ragged", for an output height that 3 does not divide), and
    checks that they are.
    """
    def tile(shape, k, stride, padding, dtype, cout=None):
        itemsize = np.dtype(dtype).itemsize
        wshape = (cout, shape[1], k, k)
        if cout is not None and ops._lowers_rows(shape, wshape, stride):
            def heights():
                return [hi - lo for lo, hi in ops._shift_tiles(shape, wshape, itemsize)]

            n, c, _, w = shape
            budget = (3 + k - 1) * itemsize * n * k * max(c, cout) * w
        else:
            grid = ops._tap_grid(shape, k, stride, padding)

            def heights():
                return [hi - lo for lo, hi, _, _ in ops._row_tiles(shape, grid, stride, itemsize)]

            _, ow, _, _, windows = grid
            budget = 3 * itemsize * math.prod((*shape[:2], len(windows), ow, *shape[4:]))

        monkeypatch.setattr(ops, "TILE_BYTES", 1)
        oh = len(heights())
        if request.param == "one-row":
            assert heights() == [1] * oh
        else:
            monkeypatch.setattr(ops, "TILE_BYTES", budget)
            assert oh % 3 and heights() == [3] * (oh // 3) + [oh % 3]

    return tile


@pytest.fixture
def band_blocks(monkeypatch):
    """Shrinks ``ops.BAND`` to 4 outputs per GEMM of a shared filter's 1-D
    passes, so that a map of 9 to 11 rows and columns crosses several band
    blocks at stride 1 and 2 and ends in a shorter one."""
    monkeypatch.setattr(ops, "BAND", 4)

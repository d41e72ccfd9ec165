"""Forward numerical primitives on NCHW tensors.

All functions here are pure: they validate shapes, compute with numpy,
and return new immutable tensors.  Gradients live in :mod:`egnet.autograd`,
which wraps these same forward routines.

Convolutions use cross-correlation semantics (no kernel flip) and "same"
padding derived from the kernel size: stride-1 output matches the input
spatially, stride-2 output is ``ceil(h/2) x ceil(w/2)``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    DegenerateInputError,
    DimensionError,
    DomainError,
)
from .tensor import Tensor

ZERO = "zero"
REPLICATE = "replicate"
_PAD_MODES = (ZERO, REPLICATE)

BN_EPS = 1e-5
SQRT_EPS = 1e-12
_GELU_C = math.sqrt(2.0 / math.pi)

# Bytes that a k x k conv2d, its VJPs and the depthwise kernel VJP gather
# at once: each runs over tiles of output rows whose buffers fit it, the
# k^2 gather's patches or, in the one-axis lowering of Cho & Brand, "MEC"
# (arXiv 1706.06873), the k column shifts and their GEMM's output (see
# _conv2d_rows).  4 MB keeps each tile's matmul thousands of columns wide.
TILE_BYTES = 4 << 20

# Outputs per GEMM of a shared filter's 1-D passes (see _separable_raw).
BAND = 64

GELU_BLOCK = 1 << 15  # elements per block of the GELU passes (_gelu_raw): 128 kB in float32


def _data(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _check_same_dtype(*arrays: np.ndarray) -> np.dtype:
    dt = arrays[0].dtype
    for a in arrays[1:]:
        if a.dtype != dt:
            raise ContractError(f"mixed dtypes {dt} and {a.dtype}; cast explicitly")
    return dt


def _check_padding(padding: str) -> None:
    if padding not in _PAD_MODES:
        raise ConfigError(f"unknown padding mode {padding!r}")


def _pad2d(a: np.ndarray, p: int, padding: str) -> np.ndarray:
    # Pads axes 2 and 3; trailing axes (the probe axis of gradcheck's
    # stacked arrays) ride along.
    if p == 0:
        return a
    h, w = a.shape[2:4]
    if padding == REPLICATE and h * w == 0:
        raise DimensionError(
            f"replicate padding needs a non-empty map, got {h}x{w}", axis="h" if h == 0 else "w"
        )
    out = np.zeros((*a.shape[:2], h + 2 * p, w + 2 * p, *a.shape[4:]), dtype=a.dtype)
    out[:, :, p : p + h, p : p + w] = a
    if padding == REPLICATE:
        out[:, :, :p, p : p + w] = a[:, :, :1, :]
        out[:, :, p + h :, p : p + w] = a[:, :, -1:, :]
        out[:, :, :, :p] = out[:, :, :, p : p + 1]
        out[:, :, :, p + w :] = out[:, :, :, p + w - 1 : p + w]
    return out


def _span(offset: int, out: int, stride: int) -> slice:
    # The slice of a padded axis that kernel offset ``offset`` reads for
    # ``out`` outputs.
    return slice(offset, offset + stride * out, stride)


def _tap_grid(shape, k: int, stride: int, padding: str):
    """Where the taps of a ``k x k`` kernel read a map of ``shape`` once padded.

    ``shape`` is ``(n, c, h, w, ...)``.  Returns ``(oh, ow, rows, cols,
    windows)``: the output size, the kernel rows and columns read (slices
    of ``range(k)``), and the padded map's index for each tap of
    ``kernel[..., rows, cols]`` in row-major order.  Under zero padding,
    taps that read only padding add nothing and are left out.
    """
    p = (k - 1) // 2
    oh, ow = ((size + 2 * p - k) // stride + 1 for size in shape[2:4])
    rows = cols = slice(0, k)
    if padding == ZERO:
        rows = slice(max(0, p - (oh - 1) * stride), min(k, p + shape[2]))
        cols = slice(max(0, p - (ow - 1) * stride), min(k, p + shape[3]))
    windows = [(slice(None), slice(None), _span(i, oh, stride), _span(j, ow, stride))
               for i in range(k)[rows] for j in range(k)[cols]]
    return oh, ow, rows, cols, windows


def _row_tiles(shape, grid, stride: int, itemsize: int):
    """Output-row tiles of the gather over a map of ``shape`` whose taps
    ``grid``, its :func:`_tap_grid`, describes.

    Yields ``(lo, hi, windows, tile)`` for output rows ``lo:hi``: the
    grid's windows narrowed to those rows, and the shape
    ``(n, c, taps, hi - lo, ow, ...)`` of their patches.  A tile holds as
    many rows as keep its patches within :data:`TILE_BYTES`, and at least
    one; only the last tile may be shorter.
    """
    oh, ow, _, _, windows = grid
    row = (*shape[:2], len(windows), 1, ow, *shape[4:])
    step = max(1, TILE_BYTES // max(1, itemsize * math.prod(row)))
    for lo in range(0, oh, step):
        hi = min(lo + step, oh)
        narrowed = [(*win[:2], _span(win[2].start + stride * lo, hi - lo, stride), win[3])
                    for win in windows]
        yield lo, hi, narrowed, (*row[:3], hi - lo, *row[4:])


def _patch_tiles(x: np.ndarray, grid, k: int, stride: int, padding: str):
    """Yields ``(lo, hi, patches)``: ``x`` gathered under the taps of
    ``grid``, its :func:`_tap_grid`, for output rows ``lo:hi``, one
    :func:`_row_tiles` tile at a time.

    Every tile's ``patches`` is a contiguous view of one reused buffer,
    overwritten by the next tile.  For a pointwise kernel at stride 1
    the one tile is a view of ``x``.
    """
    if k == 1 and stride == 1:
        yield 0, x.shape[2], x[:, :, None]
        return
    xp = _pad2d(x, (k - 1) // 2, padding)
    buf = None
    for lo, hi, windows, tile in _row_tiles(x.shape, grid, stride, x.itemsize):
        if buf is None:  # the first tile is the largest
            buf = np.empty(math.prod(tile), dtype=x.dtype)
        patches = buf[: math.prod(tile)].reshape(tile)
        # One slice copy per tap: far cheaper than copying a strided window view.
        for t, window in enumerate(windows):
            patches[:, :, t] = xp[window]
        yield lo, hi, patches


def _shifted_sum(x: np.ndarray, kern: np.ndarray, stride: int, padding: str) -> np.ndarray:
    """Depthwise correlation with ``(m, k, k)`` kernels, ``m`` = 1 (shared) or c:
    a multiply-accumulate of one scaled, shifted copy of the map per tap."""
    k = kern.shape[-1]
    oh, ow, rows, cols, windows = _tap_grid(x.shape, k, stride, padding)
    xp = _pad2d(x, (k - 1) // 2, padding)
    kern = kern[:, rows, cols].reshape(len(kern), -1, *(1,) * (x.ndim - 2))
    y = np.zeros((*x.shape[:2], oh, ow, *x.shape[4:]), dtype=x.dtype)
    tmp = np.empty_like(y)
    for t, window in enumerate(windows):
        y += np.multiply(xp[window], kern[:, t], out=tmp)
    return y


def conv2d(x, weight, *, stride: int = 1, padding: str = ZERO, bias=None) -> Tensor:
    """Standard 2-D convolution, ``(n,c_in,h,w) -> (n,c_out,h',w')``, plus an optional bias."""
    xa, wa = _data(x), _data(weight)
    _check_padding(padding)
    if xa.ndim != 4:
        raise DimensionError(f"conv2d input must be rank-4 NCHW, got rank {xa.ndim}", axis="n")
    if wa.ndim != 4 or wa.shape[2] != wa.shape[3]:
        raise DimensionError(
            f"conv2d weight must be (c_out, c_in, k, k), got {wa.shape}", axis="k"
        )
    k = wa.shape[2]
    if k % 2 == 0:
        raise ConfigError(f"conv2d kernel size must be odd, got {k}")
    if stride not in (1, 2):
        raise ConfigError(f"conv2d stride must be 1 or 2, got {stride}")
    if xa.shape[1] != wa.shape[1]:
        raise DimensionError(
            f"conv2d channel mismatch: input has {xa.shape[1]} channels, "
            f"weight expects {wa.shape[1]}",
            axis="c",
        )
    _check_same_dtype(xa, wa)
    return _biased(_conv2d_raw, (xa, wa, stride, padding), bias, wa.shape[0], "conv2d")


def conv_pair(x, w1, w2) -> Tensor:
    """``conv2d(conv2d(x, w1), w2, stride=2)`` for 3x3 weights and even sides, as one 5x5 stride-2
    conv (RepVGG, arXiv 2101.03697) with its weight composed in float64, plus the chain on 4-row and
    4-column slabs for output row 0 and column 0, where ``w2`` reads the intermediate's padding."""
    xa, w1a, w2a = _data(x), _data(w1), _data(w2)
    if not (w1a.ndim == w2a.ndim == 4 and w1a.shape[2:] == w2a.shape[2:] == (3, 3)):
        raise DimensionError(f"conv_pair weights must be 3x3, got {w1a.shape}, {w2a.shape}", axis="k")
    if xa.ndim != 4 or xa.shape[1] != w1a.shape[1] or w2a.shape[1] != len(w1a):
        raise DimensionError(f"conv_pair cannot chain {xa.shape}, {w1a.shape}, {w2a.shape}",
                             axis="c" if xa.ndim == 4 else "n")
    for axis, side in zip("hw", xa.shape[2:]):
        if side % 2 or not side:
            raise DimensionError(f"conv_pair needs even sides, got {xa.shape}", axis=axis)
    _check_same_dtype(xa, w1a, w2a)
    y = _conv2d_raw(xa, _pair_weight(w1a, w2a).astype(xa.dtype), 2, ZERO)
    chain = lambda s: _conv2d_raw(_conv2d_raw(s, w1a, 1, ZERO), w2a, 2, ZERO)
    y[:, :, 0] = chain(xa[:, :, :4])[:, :, 0]
    y[:, :, :, 0] = chain(xa[:, :, :, :4])[:, :, :, 0]
    return Tensor._wrap(y)


def _pair_weight(w1a, w2a) -> np.ndarray:
    # W[:, :, i + b, j + d] += w2[:, :, i, j] @ w1[:, :, b, d], in float64.
    taps = np.einsum("mkij,kcab->mcijab", w2a, w1a, dtype=np.float64)
    w = np.zeros((*taps.shape[:2], 5, 5))
    for i, j in np.ndindex(3, 3):
        w[:, :, i : i + 3, j : j + 3] += taps[:, :, i, j]
    return w


def _biased(raw, args, bias, c: int, op: str) -> Tensor:
    # raw(*args) plus the checked (c,) bias per channel, in place on its fresh output.
    if bias is None:
        return Tensor._wrap(raw(*args))
    ba = _data(bias)
    if ba.shape != (c,):
        raise DimensionError(f"{op} bias must have shape ({c},), got {ba.shape}", axis="c")
    _check_same_dtype(args[0], ba)
    y = raw(*args)
    return Tensor._wrap(np.add(y, ba[:, None, None], out=y))


def _lowers_rows(xshape, wshape, stride: int) -> bool:
    """Whether a conv2d of these shapes, and its input VJP, run
    :func:`_conv2d_rows` rather than the k^2 gather and scatter.

    At stride 1 on a rank-4 map where no tap reads only padding, it runs if
    c_out <= c_in (its GEMM writes k c_out rows per pixel; the gather copies
    c_in k^2) and c_in k^2 <= 1152 (deeper GEMMs are compute-bound, and a
    tile's k - 1 halo rows cost more than the gather saves).  Median ms,
    float32, n = 1, k^2 -> rows, forward; input VJP:
        3->3 k7 at 512^2     38.4 -> 10.7; 45.8 -> 11.2
        32->32 k3 at 128^2    6.3 -> 4.1;   8.0 -> 4.2
        64->64 k3 at 64^2     3.8 -> 2.7;   5.0 -> 3.2
        128->128 k3 at 32^2   3.1 -> 2.5;   3.1 -> 2.6
        256->256 k3 at 16^2   2.6 -> 3.5;   2.8 -> 4.8   declined
        3->16 k3 at 512^2     8.0 -> 13.6; 10.2 -> 17.2  declined
    """
    cout, cin, k = wshape[:3]
    return (stride == 1 and k > 1 and len(xshape) == 4 and min(xshape[2:]) > k // 2
            and cout <= cin and cin * k * k <= 1152)


def _shift_tiles(xshape, wshape, itemsize: int) -> list:
    # Output-row tiles of _conv2d_rows: its column shifts and its GEMM
    # output each hold k * max(c_in, c_out) rows of n * w per map row.
    (n, cin, h, w), (cout, _, k, _) = xshape, wshape
    step = max(1, TILE_BYTES // max(1, itemsize * n * k * max(cin, cout) * w) - (k - 1))
    return [(lo, min(lo + step, h)) for lo in range(0, h, step)]


def _conv2d_rows(xa, wa, padding) -> np.ndarray:
    # Stride-1 MEC lowering along columns.  Per tile of t output rows: the k
    # column shifts of t + k - 1 padded rows, one GEMM with the kernel rows
    # stacked on M, and y sums its k row-shifted slices (contiguous blocks).
    (n, cin, h, w), (cout, _, k, _) = xa.shape, wa.shape
    xp = _pad2d(xa, (k - 1) // 2, padding)
    wmat = wa.transpose(2, 0, 1, 3).reshape(k * cout, cin * k)  # [(a, co), (ci, b)]
    y = np.empty((n, cout, h * w), dtype=xa.dtype)
    tiles = _shift_tiles(xa.shape, wa.shape, xa.itemsize)  # the first is the largest
    cbuf, zbuf = (np.empty(n * k * c * (tiles[0][1] + k - 1) * w, xa.dtype) for c in (cin, cout))
    for lo, hi in tiles:
        r, m = hi - lo + k - 1, (hi - lo) * w
        shifts = cbuf[: n * cin * k * r * w].reshape(n, cin, k, r, w)
        for b in range(k):
            shifts[:, :, b] = xp[:, :, lo : lo + r, b : b + w]
        z = zbuf[: n * k * cout * r * w].reshape(n, k * cout, r * w)
        z = np.matmul(wmat, shifts.reshape(n, cin * k, r * w), out=z).reshape(n, k, cout, r * w)
        out = y[:, :, lo * w : hi * w]
        np.add(z[:, 0, :, :m], z[:, 1, :, w : w + m], out=out)
        for a in range(2, k):
            out += z[:, a, :, a * w : a * w + m]
    return y.reshape(n, cout, h, w)


def _conv2d_raw(xa, wa, stride, padding) -> np.ndarray:
    if _lowers_rows(xa.shape, wa.shape, stride):
        return _conv2d_rows(xa, wa, padding)
    # One matmul per row tile of the gather.  Trailing axes (the probe
    # axis of gradcheck's stacked arrays) ride along: an output row holds
    # ``ow * prod(shape[4:])`` columns.  Sizes are explicit because an
    # empty map makes a -1 ambiguous.
    n, cout, k = xa.shape[0], wa.shape[0], wa.shape[2]
    oh, ow, rows, cols, _ = grid = _tap_grid(xa.shape, k, stride, padding)
    wlive = wa[:, :, rows, cols]
    wmat = wlive.reshape(cout, math.prod(wlive.shape[1:]))
    row = ow * math.prod(xa.shape[4:])
    y = np.empty((n, cout, oh, ow, *xa.shape[4:]), dtype=xa.dtype)
    y3 = y.reshape(n, cout, oh * row)
    for lo, hi, patches in _patch_tiles(xa, grid, k, stride, padding):
        np.matmul(wmat, patches.reshape(n, wmat.shape[1], (hi - lo) * row),
                  out=y3[:, :, lo * row : hi * row])
    return y


def depthwise_conv2d(x, kernel, *, stride: int = 1, padding: str = ZERO, bias=None) -> Tensor:
    """Per-channel convolution, plus an optional ``(c,)`` bias per channel.

    ``kernel`` is either ``(c, 1, k, k)`` with one filter per input channel,
    or a single shared ``(k, k)`` filter applied identically to every
    channel (the form used by the fixed classical kernels).  A shared
    filter of low rank runs as 1-D passes (see :func:`_low_rank`).
    """
    xa, ka = _data(x), _data(kernel)
    _check_padding(padding)
    if xa.ndim != 4:
        raise DimensionError(f"depthwise input must be rank-4 NCHW, got rank {xa.ndim}", axis="n")
    if ka.ndim == 4:
        if ka.shape[1] != 1 or ka.shape[2] != ka.shape[3]:
            raise DimensionError(f"depthwise kernel must be (c, 1, k, k), got {ka.shape}", axis="k")
        if ka.shape[0] != xa.shape[1]:
            raise DimensionError(
                f"depthwise channel mismatch: input has {xa.shape[1]} channels, "
                f"kernel has {ka.shape[0]}",
                axis="c",
            )
        k = ka.shape[2]
    elif ka.ndim == 2:
        if ka.shape[0] != ka.shape[1]:
            raise DimensionError(f"shared depthwise kernel must be square, got {ka.shape}", axis="k")
        k = ka.shape[0]
    else:
        raise DimensionError(f"depthwise kernel must be rank 2 or 4, got rank {ka.ndim}", axis="k")
    if k % 2 == 0:
        raise ConfigError(f"depthwise kernel size must be odd, got {k}")
    if stride not in (1, 2):
        raise ConfigError(f"depthwise stride must be 1 or 2, got {stride}")
    _check_same_dtype(xa, ka)
    return _biased(_depthwise_raw, (xa, ka, stride, padding), bias, xa.shape[1], "depthwise")


def _low_rank(ka):
    """Separable factors ``(cols, rows)`` of a shared ``(k, k)`` kernel, or None.

    ``cols`` and ``rows`` are ``(r, k)`` in the kernel's dtype, with
    ``ka = sum_i outer(cols[i], rows[i])`` to that dtype's rounding.  The
    rank ``r`` counts singular values above ``s_max * k * eps``, numpy's
    ``matrix_rank`` default.  None means the dense 2-D path is no more
    work (``2 r k >= k k``) or the kernel is non-finite, where the dense
    path propagates NaN/inf and the SVD would raise.
    """
    k = ka.shape[0]
    if ka.dtype.kind != "f" or not np.isfinite(ka).all():
        return None
    u, s, vt = np.linalg.svd(ka.astype(np.float64))
    r = int(np.count_nonzero(s > s[0] * k * np.finfo(ka.dtype).eps))
    if 2 * r * k >= k * k:
        return None
    return (u[:, :r] * s[:r]).T.astype(ka.dtype), vt[:r].astype(ka.dtype)


def _separable_raw(xp, cols, rows, stride, oh, ow) -> np.ndarray:
    """Per factor, a vertical 1-D pass over the padded rows (keeping the
    stride), then a horizontal one over its columns, summed over factors.

    Each pass is one GEMM per block of :data:`BAND` outputs with the
    factor's Toeplitz band, over the overlapping window of input rows (or
    columns) that the block reads.  Finite inputs give the dense sums to
    rounding; a non-finite input spreads over its band block, since the
    band's zeros multiply it too (0 * inf = NaN).
    """
    n, c, _, wp = xp.shape
    y = np.zeros((n, c, oh, ow), dtype=xp.dtype)
    t = np.empty((n, c, oh, wp), dtype=xp.dtype)
    h = np.empty_like(y)
    for col, row in zip(cols, rows):
        _band_pass(xp, col, stride, t)
        _band_pass(t.swapaxes(2, 3), row, stride, h.swapaxes(2, 3))
        y += h
    return y


def _band_pass(src, f, stride, out) -> None:
    # out[..., o, :] = sum_i f[i] * src[..., stride * o + i, :], BAND rows
    # of out at a time; column o of the band holds f at rows s*o ... s*o+k-1.
    k = len(f)
    band = np.zeros((stride * (BAND - 1) + k, BAND), dtype=f.dtype)
    for o in range(BAND):
        band[stride * o : stride * o + k, o] = f
    for lo in range(0, out.shape[2], BAND):
        m = min(BAND, out.shape[2] - lo)
        span = stride * (m - 1) + k
        np.matmul(band[:span, :m].T, src[:, :, stride * lo : stride * lo + span],
                  out=out[:, :, lo : lo + m])


def _depthwise_raw(xa, ka, stride, padding) -> np.ndarray:
    k = ka.shape[-1]
    factors = _low_rank(ka) if ka.ndim == 2 else None
    if factors is None:
        return _shifted_sum(xa, ka.reshape(-1, k, k), stride, padding)
    oh, ow = _tap_grid(xa.shape, k, stride, padding)[:2]
    return _separable_raw(_pad2d(xa, (k - 1) // 2, padding), *factors, stride, oh, ow)


def conv1d_channels(v, weight) -> Tensor:
    """1-D convolution along the channel axis with zero padding.

    ``v`` is a batch of channel descriptor vectors ``(n, c)``; ``weight``
    is ``(k,)`` with odd ``k <= c``.  Output keeps the input shape:
    ``out[:, i] = sum_j weight[j] * v[:, i + j - k//2]`` with out-of-range
    terms treated as zero.
    """
    va, wa = _data(v), _data(weight)
    if wa.ndim != 1:
        raise DimensionError(f"conv1d weight must be rank-1, got rank {wa.ndim}", axis="k")
    k = wa.shape[0]
    if k % 2 == 0:
        raise ConfigError(f"conv1d kernel size must be odd, got {k}")
    if va.ndim != 2:
        raise DimensionError(f"conv1d input must be (n, c), got rank {va.ndim}", axis="c")
    if k > va.shape[1]:
        raise DimensionError(
            f"conv1d kernel size {k} exceeds channel count {va.shape[1]}", axis="c"
        )
    _check_same_dtype(va, wa)
    return Tensor._wrap(_conv1d_raw(va, wa))


def _conv1d_raw(va, wa) -> np.ndarray:
    # out[:, i] = sum_j w[j] * v[:, i + j - p], out-of-range terms zero.
    c = va.shape[1]
    k = wa.shape[0]
    p = k // 2
    out = np.zeros_like(va)
    for j in range(k):
        lo = max(0, p - j)
        hi = min(c, c + p - j)
        if lo < hi:
            out[:, lo:hi] += wa[j] * va[:, lo + j - p : hi + j - p]
    return out


def maxpool2d(x) -> Tensor:
    """2x2 max pooling with stride 2; trailing odd row/column is dropped."""
    xa = _data(x)
    if xa.ndim != 4:
        raise DimensionError(f"maxpool input must be rank-4 NCHW, got rank {xa.ndim}", axis="n")
    if xa.shape[2] < 2 or xa.shape[3] < 2:
        raise DimensionError(
            f"maxpool needs h, w >= 2, got {xa.shape[2]}x{xa.shape[3]}", axis="h"
        )
    return Tensor._wrap(_maxpool_raw(xa))


def _pool_slices(h, w):
    # (rows, cols) slices picking each 2x2 window's four elements, in
    # row-major window order; a trailing odd row/column falls outside.
    oh, ow = h // 2, w // 2
    return [(slice(i, 2 * oh, 2), slice(j, 2 * ow, 2)) for i in (0, 1) for j in (0, 1)]


def _maxpool_raw(xa) -> np.ndarray:
    a, b, c, d = (xa[:, :, i, j] for i, j in _pool_slices(*xa.shape[2:4]))
    y = np.maximum(a, b)
    np.maximum(y, c, out=y)
    np.maximum(y, d, out=y)
    return y


def global_avg_pool(x) -> Tensor:
    """Per-channel spatial mean: ``(n, c, h, w) -> (n, c)``."""
    xa = _data(x)
    if xa.ndim != 4:
        raise DimensionError(f"GAP input must be rank-4 NCHW, got rank {xa.ndim}", axis="n")
    if xa.shape[2] * xa.shape[3] == 0:
        raise DegenerateInputError("GAP over an empty spatial extent")
    return Tensor._wrap(_gap_raw(xa))


def _gap_raw(xa) -> np.ndarray:
    return np.ascontiguousarray(xa.mean(axis=(2, 3)))


def batchnorm2d(x, scale, shift, *, mode: str = "batch", mean=None, var=None) -> Tensor:
    """Per-channel normalization followed by an affine transform.

    ``y = (x - mu) * (scale * inv) + shift`` with ``inv = 1 / sqrt(var + BN_EPS)``.
    ``mode="batch"`` takes mu and var from the current tensor (over n, h,
    w); ``mode="running"`` takes them from the stored ``mean``/``var``.
    """
    return Tensor._wrap(_batchnorm(_data(x), _data(scale), _data(shift), mode, mean, var)[0])


def _batchnorm(xa, sa, ba, mode, mean, var):
    """Checked norm kernel: ``(y, d, inv)`` with ``d = x - mu``, the last two for its VJP."""
    if mode not in ("batch", "running"):
        raise ConfigError(f"batchnorm mode must be 'batch' or 'running', got {mode!r}")
    if xa.ndim != 4:
        raise DimensionError(f"batchnorm input must be rank-4 NCHW, got rank {xa.ndim}", axis="n")
    c = xa.shape[1]
    for name, arr in (("scale", sa), ("shift", ba)):
        if arr.shape != (c,):
            raise DimensionError(f"batchnorm {name} must have shape ({c},), got {arr.shape}", axis="c")
    if mode == "batch":
        m = xa.shape[0] * xa.shape[2] * xa.shape[3]
        if m == 0:
            raise DegenerateInputError("batch statistics over zero elements")
        _check_same_dtype(xa, sa, ba)
        d = xa - (xa.sum(axis=(0, 2, 3)) / m)[None, :, None, None]
        va = np.einsum("nchw,nchw->c", d, d) / m
    else:
        if mean is None or var is None:
            raise ConfigError("running mode requires stored mean and var")
        ma, va = _data(mean), _data(var)
        for name, arr in (("mean", ma), ("var", va)):
            if arr.shape != (c,):
                raise DimensionError(f"batchnorm {name} must have shape ({c},), got {arr.shape}", axis="c")
        _check_same_dtype(xa, sa, ba, ma, va)
        d = xa - ma[None, :, None, None]
    inv = 1.0 / np.sqrt(va + BN_EPS)
    return _batchnorm_affine(d, sa * inv, ba), d, inv


def _batchnorm_affine(d, a, ba) -> np.ndarray:
    y = d * a[None, :, None, None]
    y += ba[None, :, None, None]
    return y


def gelu(x) -> Tensor:
    """Tanh-approximated GELU: ``0.5 x (1 + tanh(sqrt(2/pi)(x + 0.044715 x^3)))``."""
    xa = _data(x)
    return Tensor._wrap(_gelu_raw(xa))


def _gelu_raw(xa, tanh_only: bool = False) -> np.ndarray:
    # 0.5 x (1 + tanh(c (x + 0.044715 x x x))), or the tanh alone (the VJP's), in
    # that order in one fresh buffer, GELU_BLOCK elements at a time (in cache).
    x = np.ascontiguousarray(xa).reshape(-1)
    y, half = np.empty_like(x), np.empty_like(x[:GELU_BLOCK])
    for lo in range(0, x.size, GELU_BLOCK):
        xb, u = x[lo : lo + GELU_BLOCK], y[lo : lo + GELU_BLOCK]
        np.multiply(xb, 0.044715, out=u)
        u *= xb
        u *= xb
        u += xb
        u *= _GELU_C
        np.tanh(u, out=u)
        if not tanh_only:
            u += 1.0
            u *= np.multiply(0.5, xb, out=half[: len(xb)])
    return y.reshape(np.shape(xa))


def sigmoid(x) -> Tensor:
    """Numerically stable logistic function, range (0, 1)."""
    xa = _data(x)
    return Tensor._wrap(_sigmoid_raw(xa))


def _sigmoid_raw(xa) -> np.ndarray:
    out = np.empty_like(xa)
    pos = xa >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xa[pos]))
    ex = np.exp(xa[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _check_same_shape(aa, bb, opname):
    if aa.shape != bb.shape:
        names = ("n", "c", "h", "w")
        axis = None
        if aa.ndim == bb.ndim == 4:
            for i, (u, v) in enumerate(zip(aa.shape, bb.shape)):
                if u != v:
                    axis = names[i]
                    break
        raise DimensionError(
            f"{opname} requires identical shapes, got {aa.shape} and {bb.shape}", axis=axis
        )


def add(a, b) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    aa, bb = _data(a), _data(b)
    _check_same_shape(aa, bb, "add")
    _check_same_dtype(aa, bb)
    return Tensor._wrap(aa + bb)


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product of two same-shape tensors."""
    aa, bb = _data(a), _data(b)
    _check_same_shape(aa, bb, "mul")
    _check_same_dtype(aa, bb)
    return Tensor._wrap(aa * bb)


def scale_channels(x, gates) -> Tensor:
    """Multiply each channel of ``x (n,c,h,w)`` by its gate from ``(n,c)``."""
    xa, ga = _data(x), _data(gates)
    if xa.ndim != 4:
        raise DimensionError(f"scale_channels input must be rank-4, got rank {xa.ndim}", axis="n")
    if ga.shape != xa.shape[:2]:
        raise DimensionError(
            f"gates must have shape {xa.shape[:2]}, got {ga.shape}", axis="c"
        )
    _check_same_dtype(xa, ga)
    return Tensor._wrap(xa * ga[:, :, None, None])


def sqrt_eps(x) -> Tensor:
    """Guarded square root ``sqrt(x + SQRT_EPS)``, defined and smooth at x = 0."""
    xa = _data(x)
    lo = float(xa.min()) if xa.size else 0.0
    if lo < -SQRT_EPS:
        raise DomainError(f"sqrt_eps input {lo} below -eps ({-SQRT_EPS})")
    return Tensor._wrap(np.sqrt(xa + SQRT_EPS))


def dropout(x, rate: float, rng=None) -> Tensor:
    """Inverted dropout.

    With no generator the input comes back unchanged (bit-exact).  With
    one, each element is zeroed with probability ``rate`` and survivors
    are scaled by ``1/(1-rate)``; the mask comes from the generator, so a
    run seed reproduces it exactly.
    """
    xa = _data(x)
    keep = _dropout_keep(xa.shape, rate, rng)
    if keep is None:
        return x if isinstance(x, Tensor) else Tensor(xa)
    return Tensor._wrap(xa * _dropout_mask(keep, rate, xa.dtype))


def _dropout_keep(shape, rate, rng) -> np.ndarray | None:
    """Checks ``rate``; survivors drawn from ``rng``, or None where dropout is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return None
    return rng.random(shape) >= rate


def _dropout_mask(keep, rate, dtype) -> np.ndarray:
    return keep.astype(dtype) * dtype.type(1.0 / (1.0 - rate))


def sum_all(x) -> Tensor:
    """Sum of all elements, returned as a scalar (rank-0) tensor."""
    xa = _data(x)
    return Tensor._wrap(np.asarray(xa.sum(dtype=xa.dtype)))

"""Fixed classical convolution kernels: Gaussian, Laplacian-of-Gaussian, Scharr.

All generators evaluate on the integer grid x, y in [-(k-1)/2, (k-1)/2]
and return float64 matrices.  Gaussian kernels are renormalized to sum
exactly 1 after truncation to k x k, so replicate-padded filtering maps
constant tensors to themselves.  LoG kernels get a zero-DC adjustment
(subtract the mean) so the edge branch is blind to constant offsets.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ConfigError

_SCHARR_X = np.array(
    [[-3.0, 0.0, 3.0], [-10.0, 0.0, 10.0], [-3.0, 0.0, 3.0]], dtype=np.float64
)


def _check(k: int, sigma: float) -> None:
    if not isinstance(k, (int, np.integer)) or k < 1 or k % 2 == 0:
        raise ConfigError(f"kernel size must be a positive odd integer, got {k!r}")
    if 2 * k * k * 8 > sys.maxsize:  # _grid's (2, k, k) int64 grid
        raise ConfigError(f"kernel size {k} is too large for an array")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ConfigError(f"sigma must be finite and positive, got {sigma!r}")


def _grid(k: int):
    r = (k - 1) // 2
    y, x = np.mgrid[-r : r + 1, -r : r + 1].astype(np.float64)
    return x, y


def gaussian_kernel(k: int, sigma: float) -> np.ndarray:
    """Isotropic Gaussian ``(1 / 2 pi s^2) exp(-(x^2+y^2) / 2 s^2)``, sum-1."""
    _check(k, sigma)
    x, y = _grid(k)
    with np.errstate(all="ignore"):  # a sigma whose square under- or overflows gives NaN
        g = np.exp(-(x * x + y * y) / (2.0 * sigma * sigma)) / (2.0 * math.pi * sigma * sigma)
        g = g / g.sum()
    if not np.isfinite(g).all():
        raise ConfigError(f"gaussian kernel of size {k} with sigma {sigma!r} is not finite")
    return g


def log_kernel(k: int, sigma: float, *, zero_dc: bool = True) -> np.ndarray:
    """Laplacian of Gaussian ``(1 / pi s^4)(1 - r^2 / s^2) exp(-r^2 / 2 s^2)``.

    With ``zero_dc`` (the default) the truncated kernel is shifted to sum
    exactly to zero; ``zero_dc=False`` returns the bare evaluation.
    """
    _check(k, sigma)
    x, y = _grid(k)
    r2 = x * x + y * y
    s2 = sigma * sigma
    with np.errstate(all="ignore"):
        g = (1.0 - r2 / s2) * np.exp(-r2 / (2.0 * s2)) / (math.pi * s2 * s2)
        if zero_dc:
            g = g - g.mean()
    if not np.isfinite(g).all():
        raise ConfigError(f"LoG kernel of size {k} with sigma {sigma!r} is not finite")
    return g


def scharr_kernels() -> tuple[np.ndarray, np.ndarray]:
    """The 3x3 Scharr derivative pair; the vertical filter is the transpose."""
    sx = _SCHARR_X.copy()
    return sx, sx.T.copy()


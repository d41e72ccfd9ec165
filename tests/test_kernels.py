"""Classical kernel generators: values, symmetries, and normalizations."""

import math

import numpy as np
import pytest

from egnet import ops
from egnet.errors import ConfigError
from egnet.kernels import gaussian_kernel, log_kernel, scharr_kernels
from egnet.tensor import Tensor


def dihedral_images(m):
    """All 8 square-symmetry images of a matrix."""
    out = []
    cur = m
    for _ in range(4):
        out.append(cur)
        out.append(cur.T)
        cur = np.rot90(cur)
    return out


class TestGaussian:
    def test_k1_is_unit(self):
        for sigma in (0.2, 1.0, 5.0):
            np.testing.assert_array_equal(gaussian_kernel(1, sigma), [[1.0]])

    def test_3x3_sigma1_values(self):
        g = gaussian_kernel(3, 1.0)
        np.testing.assert_allclose(g[1, 1], 0.2042, atol=5e-5)
        np.testing.assert_allclose(g[0, 1], 0.1238, atol=5e-5)
        np.testing.assert_allclose(g[0, 0], 0.0751, atol=5e-5)
        np.testing.assert_allclose(g.sum(), 1.0, atol=1e-12)

    def test_3x3_sigma1_against_direct_evaluation(self):
        # Direct evaluation of the formula, then renormalize.
        raw = np.array(
            [
                [math.exp(-(i * i + j * j) / 2.0) for j in (-1, 0, 1)]
                for i in (-1, 0, 1)
            ]
        ) / (2 * math.pi)
        np.testing.assert_allclose(gaussian_kernel(3, 1.0), raw / raw.sum(), rtol=1e-12)

    def test_9x9_sigma_half_is_effectively_compact(self):
        g = gaussian_kernel(9, 0.5)
        r = np.arange(-4, 5, dtype=float)
        rad = np.hypot(r[:, None], r[None, :])
        assert (g[rad >= 3.0] < 1e-7).all()

    @pytest.mark.parametrize("k,sigma", [(3, 1.0), (5, 0.5), (5, 1.0), (7, 2.0), (9, 0.5)])
    def test_invariants(self, k, sigma):
        g = gaussian_kernel(k, sigma)
        assert g.shape == (k, k)
        assert (g > 0).all()
        np.testing.assert_allclose(g.sum(), 1.0, atol=1e-12)
        for img in dihedral_images(g):
            np.testing.assert_allclose(img, g, atol=1e-15)

    def test_center_strictly_decreases_with_sigma(self):
        centers = [gaussian_kernel(5, s)[2, 2] for s in (0.4, 0.7, 1.0, 1.5, 2.5)]
        assert all(a > b for a, b in zip(centers, centers[1:]))

    @pytest.mark.parametrize(
        "k,sigma", [(2, 1.0), (0, 1.0), (3, 0.0), (3, -1.0), (3, math.inf), (3, math.nan)]
    )
    def test_bad_arguments(self, k, sigma):
        with pytest.raises(ConfigError):
            gaussian_kernel(k, sigma)

    @pytest.mark.parametrize("sigma", [1e-300, 1e-170, 1e300])
    def test_non_finite_evaluation_rejected(self, sigma):
        # sigma**2 underflows to 0 or overflows to inf: the formula gives NaN.
        with pytest.raises(ConfigError, match="not finite"):
            gaussian_kernel(5, sigma)


class TestLoG:
    @pytest.mark.parametrize("k,sigma", [(3, 1.0), (5, 0.8), (7, 1.0), (9, 1.3)])
    def test_zero_sum_and_symmetry(self, k, sigma):
        m = log_kernel(k, sigma)
        np.testing.assert_allclose(m.sum(), 0.0, atol=1e-12)
        for img in dihedral_images(m):
            np.testing.assert_allclose(img, m, atol=1e-15)

    def test_3x3_sigma1_preadjustment_values(self):
        m = log_kernel(3, 1.0, zero_dc=False)
        np.testing.assert_allclose(m[1, 1], 1.0 / math.pi, rtol=1e-9)
        # the 1 - r^2/sigma^2 factor vanishes exactly at r = 1
        for i, j in [(0, 1), (1, 0), (1, 2), (2, 1)]:
            assert m[i, j] == 0.0
        np.testing.assert_allclose(m[0, 0], -math.exp(-1.0) / math.pi, rtol=1e-9)
        np.testing.assert_allclose(m[0, 0], -0.1171, atol=5e-5)

    @pytest.mark.parametrize("zero_dc", [True, False])
    @pytest.mark.parametrize("k,sigma", [(3, 1e-300), (7, 1e-170), (3, math.inf)])
    def test_non_finite_evaluation_rejected(self, k, sigma, zero_dc):
        with pytest.raises(ConfigError, match="finite"):
            log_kernel(k, sigma, zero_dc=zero_dc)

    def test_center_is_max_when_kernel_wide_enough(self):
        for k, sigma in [(5, 1.0), (7, 1.0), (9, 1.4), (11, 2.0)]:
            m = log_kernel(k, sigma)
            c = (k - 1) // 2
            assert m[c, c] == m.max()


class TestScharr:
    def test_exact_matrices(self):
        sx, sy = scharr_kernels()
        np.testing.assert_array_equal(
            sx, [[-3.0, 0.0, 3.0], [-10.0, 0.0, 10.0], [-3.0, 0.0, 3.0]]
        )
        np.testing.assert_array_equal(sy, sx.T)

    def test_row_and_column_sums(self):
        sx, _ = scharr_kernels()
        np.testing.assert_array_equal(sx.sum(axis=1), [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(sx.sum(axis=0), [-16.0, 0.0, 16.0])

    def test_zero_response_to_constant_patch(self, rng):
        sx, sy = scharr_kernels()
        x = Tensor(np.full((1, 1, 6, 6), 2.0, dtype=np.float64))
        for k in (sx, sy):
            y = ops.depthwise_conv2d(x, Tensor(k), padding=ops.REPLICATE)
            np.testing.assert_allclose(y.data, 0.0, atol=1e-12)

    def test_flip_symmetries(self):
        sx, _ = scharr_kernels()
        np.testing.assert_array_equal(sx[:, ::-1], -sx)  # horizontal flip negates
        np.testing.assert_array_equal(sx[::-1, :], sx)   # vertical flip preserves


"""Forward semantics of the tensor primitives, checked against naive oracles."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from egnet import autograd as ag
from egnet import ops
from egnet.backbone import FIXED_KERNELS
from egnet.errors import (
    ConfigError,
    ContractError,
    DegenerateInputError,
    DimensionError,
    DomainError,
)
from egnet.kernels import gaussian_kernel
from egnet.tensor import Tensor

from conftest import gelu_probes
from oracles import (
    batchnorm_naive,
    conv1d_naive,
    conv2d_naive,
    depthwise_naive,
    gap_naive,
    maxpool_naive,
)


def _t(a):
    return Tensor(np.asarray(a, dtype=np.float32))


class TestConv2d:
    def test_identity_1x1_kernel(self, rng):
        x = _t(rng.normal(size=(2, 3, 5, 5)))
        w = np.zeros((3, 3, 1, 1), dtype=np.float32)
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        y = ops.conv2d(x, _t(w))
        np.testing.assert_array_equal(y.data, x.data)

    def test_ones_kernel_counts_overlap(self):
        x = _t(np.ones((1, 1, 3, 3)))
        w = _t(np.ones((1, 1, 3, 3)))
        y = ops.conv2d(x, w, padding=ops.ZERO)
        assert y.data[0, 0, 1, 1] == 9.0
        for i, j in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert y.data[0, 0, i, j] == 4.0

    def test_ramp_strided_average_matches_oracle(self):
        x = _t(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        w = _t(np.full((1, 1, 3, 3), 1.0 / 9.0))
        y = ops.conv2d(x, w, stride=2, padding=ops.ZERO)
        expected = conv2d_naive(x.data, w.data, stride=2, padding="zero")
        assert y.shape == (1, 1, 2, 2)
        np.testing.assert_allclose(y.data, expected, rtol=1e-6)

    def test_output_shape_is_ceil_div(self, rng):
        x = _t(rng.normal(size=(1, 2, 7, 5)))
        w = _t(rng.normal(size=(4, 2, 3, 3)))
        assert ops.conv2d(x, w, stride=2).shape == (1, 4, 4, 3)
        # An empty batch or map gives an empty output.
        for shape, k, stride, out in (((0, 2, 7, 5), 3, 2, (0, 4, 4, 3)),
                                      ((1, 2, 0, 5), 3, 1, (1, 4, 0, 5)),
                                      ((1, 2, 0, 0), 1, 1, (1, 4, 0, 0))):
            wk = _t(rng.normal(size=(4, 2, k, k)))
            assert ops.conv2d(_t(np.zeros(shape)), wk, stride=stride).shape == out

    def test_linearity(self, rng):
        x = _t(rng.normal(size=(1, 3, 6, 6)))
        y = _t(rng.normal(size=(1, 3, 6, 6)))
        w = _t(rng.normal(size=(4, 3, 3, 3)))
        a, b = 1.7, -0.3
        lhs = ops.conv2d(_t(a * x.data + b * y.data), w)
        rhs = a * ops.conv2d(x, w).data + b * ops.conv2d(y, w).data
        np.testing.assert_allclose(lhs.data, rhs, rtol=1e-5, atol=1e-5)

    def test_channel_mismatch_names_axis(self, rng):
        x = _t(rng.normal(size=(1, 3, 4, 4)))
        w = _t(rng.normal(size=(2, 4, 3, 3)))
        with pytest.raises(DimensionError) as err:
            ops.conv2d(x, w)
        assert err.value.axis == "c"

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(ConfigError):
            ops.conv2d(_t(rng.normal(size=(1, 1, 4, 4))), _t(rng.normal(size=(1, 1, 2, 2))))

    def test_bad_stride_rejected(self, rng):
        x = _t(rng.normal(size=(1, 1, 4, 4)))
        w = _t(rng.normal(size=(1, 1, 3, 3)))
        with pytest.raises(ConfigError):
            ops.conv2d(x, w, stride=3)


class TestDepthwise:
    def test_sum_one_kernel_preserves_constants_exactly(self):
        x = _t(np.full((1, 2, 6, 6), 3.25))  # exactly representable
        k = gaussian_kernel(5, 1.0).astype(np.float32)
        y = ops.depthwise_conv2d(x, Tensor(k), padding=ops.REPLICATE)
        np.testing.assert_allclose(y.data, x.data, rtol=1e-6)

    def test_channel_separation(self, rng):
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        x[0, 0] = 0.0
        k = rng.normal(size=(2, 1, 3, 3)).astype(np.float32)
        y = ops.depthwise_conv2d(_t(x), _t(k))
        np.testing.assert_array_equal(y.data[0, 0], np.zeros((5, 5), dtype=np.float32))
        assert np.abs(y.data[0, 1]).max() > 0

    def test_gaussian_matches_loop_oracle(self, rng):
        x = _t(rng.normal(size=(1, 3, 8, 8)))
        k = Tensor(gaussian_kernel(5, 1.0).astype(np.float32))
        y = ops.depthwise_conv2d(x, k, padding=ops.REPLICATE)
        expected = depthwise_naive(x.data, k.data, padding="replicate")
        np.testing.assert_allclose(y.data, expected, rtol=1e-5, atol=1e-6)

    def test_channel_isolation_under_perturbation(self, rng):
        x = rng.normal(size=(1, 4, 6, 6)).astype(np.float32)
        k = rng.normal(size=(4, 1, 3, 3)).astype(np.float32)
        base = ops.depthwise_conv2d(_t(x), _t(k)).data
        x2 = x.copy()
        x2[0, 2] += 1.0
        pert = ops.depthwise_conv2d(_t(x2), _t(k)).data
        diff = np.abs(pert - base).reshape(4, -1).max(axis=1)
        assert diff[2] > 0
        assert diff[0] == diff[1] == diff[3] == 0.0

    def test_channel_count_mismatch(self, rng):
        x = _t(rng.normal(size=(1, 3, 4, 4)))
        k = _t(rng.normal(size=(2, 1, 3, 3)))
        with pytest.raises(DimensionError):
            ops.depthwise_conv2d(x, k)


class TestConv2dRowTiles:
    """conv2d over row tiles of its gather (``ops.TILE_BYTES``)."""

    @pytest.mark.parametrize("k", [3, 7])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [ops.ZERO, ops.REPLICATE])
    def test_tiles_match_loop_oracle(self, rng, conv_tiles, k, stride, padding):
        for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-12)):
            x = rng.normal(size=(2, 3, 7, 9)).astype(dtype)
            w = rng.normal(size=(4, 3, k, k)).astype(dtype)
            conv_tiles(x.shape, k, stride, padding, dtype)
            got = ops.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
            ref = conv2d_naive(x, w, stride=stride, padding=padding)
            np.testing.assert_allclose(got.data, ref, rtol=tol, atol=tol)

    def test_stem_conv_never_holds_its_whole_gather(self, rng):
        # The whole gather of this 7x7 conv at 512^2 would be a
        # (1, 147, 512^2) float32 array, 154 MB.
        x = _t(rng.normal(size=(1, 3, 512, 512)))
        w = _t(rng.normal(size=(3, 3, 7, 7)))
        tracemalloc.start()
        try:
            ops.conv2d(x, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


# (n, c_in, c_out, k) on the odd 7x9 map: two shapes that ops._lowers_rows
# takes and one it declines (c_out > c_in), which runs the k^2 gather.
LOWERING_SHAPES = {"k7-3to3": ((2, 3, 3, 7), True), "k3-32to32": ((1, 32, 32, 3), True),
                   "k3-3to16": ((2, 3, 16, 3), False)}


@functools.cache
def _lowering_case(case, padding):
    """Float64 draws for one LOWERING_SHAPES case and the loop oracle's
    forward ``y`` and, under zero padding, input VJP ``gx`` of the
    projection ``g``: the correlation of g with the weight flipped on both
    spatial axes and transposed (Dumoulin & Visin, arXiv 1603.07285)."""
    (n, cin, cout, k), _ = LOWERING_SHAPES[case]
    rng = np.random.default_rng(sorted(LOWERING_SHAPES).index(case))
    x, g = rng.normal(size=(n, cin, 7, 9)), rng.normal(size=(n, cout, 7, 9))
    w = rng.normal(size=(cout, cin, k, k))
    y = conv2d_naive(x, w, padding=padding)
    gx = conv2d_naive(g, w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]) if padding == ops.ZERO else None
    return x, w, g, y, gx


@functools.cache
def _non_finite_case(case, bad):
    """A zero-padding case with ``bad`` at one pixel of x and of g, and
    where the loop oracle's forward and input VJP stay finite."""
    x, w, g, _, _ = _lowering_case(case, ops.ZERO)
    x, g = x.copy(), g.copy()
    x[-1, 0, 3, 5] = g[-1, -1, 3, 5] = bad
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(conv2d_naive(x, w))
        finite_gx = np.isfinite(conv2d_naive(g, w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]))
    assert not (finite.all() or finite_gx.all())
    return x, w, g, finite, finite_gx


def _input_vjp(x, w, g, padding):
    tape = ag.Tape()
    xv = tape.leaf(Tensor(x), name="x")
    return ag.backward(ag.sum_all(ag.mul(ag.conv2d(xv, Tensor(w), padding=padding), Tensor(g))))["x"]


@pytest.mark.parametrize("case", sorted(LOWERING_SHAPES))
class TestConv2dRowLowering:
    """The stride-1 one-axis lowering (``ops._conv2d_rows``), and the shapes
    it declines, against the loop oracle, in one-row and ragged tiles."""

    @staticmethod
    def _tiles(conv_tiles, case, x, padding, dtype):
        (_, _, cout, k), lowered = LOWERING_SHAPES[case]
        assert ops._lowers_rows(x.shape, (cout, x.shape[1], k, k), 1) == lowered
        conv_tiles(x.shape, k, 1, padding, dtype, cout=cout)

    @pytest.mark.parametrize("padding", [ops.ZERO, ops.REPLICATE])
    def test_forward_matches_loop_oracle(self, conv_tiles, case, padding):
        x, w, _, ref, _ = _lowering_case(case, padding)
        for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-12)):
            self._tiles(conv_tiles, case, x, padding, dtype)
            got = ops.conv2d(Tensor(x.astype(dtype)), Tensor(w.astype(dtype)), padding=padding)
            assert got.dtype == dtype
            np.testing.assert_allclose(got.data, ref, rtol=tol, atol=tol * np.abs(ref).max())

    def test_input_vjp_matches_loop_oracle(self, conv_tiles, case):
        x, w, g, _, ref = _lowering_case(case, ops.ZERO)
        for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-12)):
            self._tiles(conv_tiles, case, x, ops.ZERO, dtype)
            got = _input_vjp(*(a.astype(dtype) for a in (x, w, g)), ops.ZERO)
            assert got.dtype == dtype
            np.testing.assert_allclose(got, ref, rtol=tol, atol=tol * np.abs(ref).max())

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_pixel_reaches_exactly_the_oracles_outputs(self, conv_tiles, case, bad):
        # Row 3 of the 7 is inside a middle ragged tile and, with one-row
        # tiles, in the halo of its neighbours, whose reused buffers must
        # not carry it further.
        x, w, g, finite, finite_gx = _non_finite_case(case, bad)
        self._tiles(conv_tiles, case, x, ops.ZERO, x.dtype)
        with np.errstate(invalid="ignore"):
            got = ops.conv2d(Tensor(x), Tensor(w)).data
            gx = _input_vjp(x, w, g, ops.ZERO)
        np.testing.assert_array_equal(np.isfinite(got), finite)
        np.testing.assert_array_equal(np.isfinite(gx), finite_gx)


@pytest.mark.parametrize("shape", [(1, 3, 0, 0), (1, 3, 0, 5)], ids=["0x0", "0x5"])
@pytest.mark.parametrize("op, kshape", [(ops.conv2d, (4, 3, 3, 3)),
                                        (ops.depthwise_conv2d, (3, 1, 3, 3))],
                         ids=["conv2d", "depthwise"])
def test_replicate_padding_of_an_empty_map_is_a_dimension_error(rng, op, kshape, shape):
    with pytest.raises(DimensionError) as err:
        op(_t(np.zeros(shape)), _t(rng.normal(size=kshape)), padding=ops.REPLICATE)
    assert err.value.axis == "h"


@pytest.mark.parametrize("op, kshape, stride", [
    (ops.conv2d, (4, 3, 3, 3), 1), (ops.conv2d, (4, 3, 3, 3), 2), (ops.conv2d, (4, 3, 1, 1), 1),
    (ops.depthwise_conv2d, (3, 1, 3, 3), 1), (ops.depthwise_conv2d, (5, 5), 2),
], ids=["conv2d-k3", "conv2d-k3-s2", "conv2d-k1", "depthwise", "depthwise-shared-s2"])
def test_bias_adds_once_per_output_channel(rng, op, kshape, stride):
    x, kernel = _t(rng.normal(size=(2, 3, 7, 6))), _t(rng.normal(size=kshape))
    plain = op(x, kernel, stride=stride).data
    bias = _t(rng.normal(size=plain.shape[1]))
    got = op(x, kernel, stride=stride, bias=bias).data
    assert got.tobytes() == (plain + bias.data[:, None, None]).tobytes()


SHARED_KERNELS = dict(FIXED_KERNELS)
SHARED_KERNELS["random5"] = np.random.default_rng(7).normal(size=(5, 5))


class TestSharedKernel:
    """Shared (k, k) kernels: 1-D passes where their rank allows, else the dense path."""

    @staticmethod
    def _check_loop_oracle(name, rng, shape=(2, 3, 11, 10), cases=None):
        for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-12)):
            x = rng.normal(size=shape).astype(dtype)
            k = SHARED_KERNELS[name].astype(dtype)
            for stride, padding in cases or itertools.product((1, 2), (ops.ZERO, ops.REPLICATE)):
                got = ops.depthwise_conv2d(Tensor(x), Tensor(k), stride=stride, padding=padding)
                ref = depthwise_naive(x, k, stride=stride, padding=padding)
                np.testing.assert_allclose(got.data, ref, rtol=tol, atol=tol)

    @pytest.mark.parametrize("name", sorted(SHARED_KERNELS))
    def test_matches_loop_oracle(self, name, rng):
        self._check_loop_oracle(name, rng)

    @pytest.mark.parametrize("name", sorted(SHARED_KERNELS))
    def test_band_blocks_match_loop_oracle(self, name, rng, band_blocks):
        self._check_loop_oracle(name, rng)

    def test_map_past_two_default_bands_matches_loop_oracle(self, rng):
        # 130 x 131 outputs at stride 1: two full band blocks and a short one.
        assert ops.BAND == 64
        self._check_loop_oracle("fixed.log7", rng, (1, 1, 130, 131),
                                [(1, ops.REPLICATE), (2, ops.ZERO)])

    @pytest.mark.parametrize("name", sorted(FIXED_KERNELS))
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_input_never_vanishes(self, rng, name, bad):
        x = rng.normal(size=(2, 3, 11, 10))
        x[1, 2, 5, 6] = bad
        k = FIXED_KERNELS[name]
        for stride, padding in itertools.product((1, 2), (ops.ZERO, ops.REPLICATE)):
            with np.errstate(invalid="ignore"):
                got = ops.depthwise_conv2d(Tensor(x), Tensor(k), stride=stride, padding=padding)
                ref = depthwise_naive(x, k, stride=stride, padding=padding)
            assert not np.isfinite(ref).all()
            assert not np.isfinite(got.data[~np.isfinite(ref)]).any()

    @pytest.mark.parametrize(
        "name, rank",
        [
            ("fixed.gauss9_s05", 1),
            ("fixed.gauss5_s05", 1),
            ("fixed.gauss5_s10", 1),
            ("fixed.scharr_x", 1),
            ("fixed.scharr_y", 1),
            ("fixed.log7", 3),
            ("random5", None),
        ],
    )
    def test_detected_rank_float32(self, name, rank):
        k = SHARED_KERNELS[name].astype(np.float32)
        factors = ops._low_rank(k)
        if rank is None:
            assert factors is None
        else:
            cols, rows = factors
            assert cols.shape == rows.shape == (rank, k.shape[0])
            assert cols.dtype == rows.dtype == np.float32

    @pytest.mark.parametrize("size", [3, 5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kernel_takes_dense_path(self, rng, size, bad):
        x = rng.normal(size=(1, 2, 6, 7)).astype(np.float32)
        k = gaussian_kernel(size, 1.0).astype(np.float32)
        k[1, 2] = bad
        assert ops._low_rank(k) is None
        with np.errstate(invalid="ignore"):
            got = ops.depthwise_conv2d(Tensor(x), Tensor(k), padding=ops.REPLICATE)
        np.testing.assert_array_equal(got.data, depthwise_naive(x, k, padding="replicate"))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_all_zero_kernel_has_rank_zero(self, rng, stride):
        k = np.zeros((5, 5), dtype=np.float32)
        cols, rows = ops._low_rank(k)
        assert cols.shape == rows.shape == (0, 5)
        y = ops.depthwise_conv2d(_t(rng.normal(size=(1, 2, 7, 6))), Tensor(k), stride=stride)
        np.testing.assert_array_equal(y.data, np.zeros(y.shape, dtype=np.float32))
        assert y.shape == (1, 2, 7 if stride == 1 else 4, 6 if stride == 1 else 3)


class TestConv1dChannels:
    def test_identity_tap(self, rng):
        v = _t(rng.normal(size=(2, 8)))
        y = ops.conv1d_channels(v, _t([0.0, 1.0, 0.0]))
        np.testing.assert_array_equal(y.data, v.data)

    def test_unit_impulse(self):
        v = _t([[1.0, 0.0, 0.0, 0.0]])
        a, b, c = 0.3, -1.2, 2.5
        y = ops.conv1d_channels(v, _t([a, b, c]))
        np.testing.assert_allclose(y.data, np.array([[b, a, 0.0, 0.0]], dtype=np.float32), rtol=1e-6)

    def test_matches_direct_summation(self, rng):
        v = _t(rng.normal(size=(1, 64)))
        w = _t(rng.normal(size=3))
        y = ops.conv1d_channels(v, w)
        np.testing.assert_allclose(y.data, conv1d_naive(v.data, w.data), rtol=1e-5, atol=1e-6)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            ops.conv1d_channels(_t(np.zeros((1, 8))), _t(np.zeros(4)))

    def test_kernel_longer_than_channels_rejected(self):
        with pytest.raises(DimensionError):
            ops.conv1d_channels(_t(np.zeros((1, 3))), _t(np.zeros(5)))


class TestMaxpool:
    def test_constant(self):
        y = ops.maxpool2d(_t(np.full((1, 2, 4, 4), 2.5)))
        np.testing.assert_array_equal(y.data, np.full((1, 2, 2, 2), 2.5, dtype=np.float32))

    def test_max_of_four(self):
        y = ops.maxpool2d(_t([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert y.shape == (1, 1, 1, 1)
        assert y.data[0, 0, 0, 0] == 4.0

    def test_matches_window_scan(self, rng):
        x = _t(rng.normal(size=(1, 4, 6, 6)))
        np.testing.assert_array_equal(ops.maxpool2d(x).data, maxpool_naive(x.data))

    def test_odd_tail_dropped(self, rng):
        x = _t(rng.normal(size=(1, 1, 5, 7)))
        assert ops.maxpool2d(x).shape == (1, 1, 2, 3)

    def test_too_small_rejected(self):
        with pytest.raises(DimensionError):
            ops.maxpool2d(_t(np.zeros((1, 1, 1, 4))))


class TestGlobalAvgPool:
    def test_constant(self):
        y = ops.global_avg_pool(_t(np.full((2, 3, 4, 4), -1.5)))
        np.testing.assert_array_equal(y.data, np.full((2, 3), -1.5, dtype=np.float32))

    def test_balanced_values(self):
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        x[0, 0, 0, :] = 2.0
        assert ops.global_avg_pool(_t(x)).data[0, 0] == 1.0

    def test_matches_summation(self, rng):
        x = _t(rng.normal(size=(2, 8, 5, 5)))
        np.testing.assert_allclose(
            ops.global_avg_pool(x).data, gap_naive(x.data), rtol=1e-5, atol=1e-6
        )


class TestBatchnorm:
    def test_identity_running_stats(self, rng):
        x = _t(rng.normal(size=(2, 3, 4, 4)))
        y = ops.batchnorm2d(
            x, _t(np.ones(3)), _t(np.zeros(3)),
            mode="running", mean=_t(np.zeros(3)), var=_t(np.ones(3)),
        )
        np.testing.assert_allclose(y.data, x.data, rtol=1e-5)

    def test_constant_batch_input_maps_to_shift(self):
        x = _t(np.full((2, 3, 4, 4), 0.7))
        scale = np.array([2.0, 3.0, 4.0], dtype=np.float32)
        shift = np.array([0.5, -1.0, 2.0], dtype=np.float32)
        y = ops.batchnorm2d(x, _t(scale), _t(shift), mode="batch")
        err = np.abs(y.data - shift[None, :, None, None])
        assert (err <= scale[None, :, None, None] * 1e-3).all()

    def test_batch_mode_matches_two_pass_oracle(self, rng):
        x = _t(rng.normal(size=(4, 3, 4, 4)))
        scale = _t(rng.normal(size=3))
        shift = _t(rng.normal(size=3))
        y = ops.batchnorm2d(x, scale, shift, mode="batch")
        expected = batchnorm_naive(x.data, scale.data, shift.data)
        np.testing.assert_allclose(y.data, expected, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_running_mode_on_batch_statistics_is_batch_mode(self, rng, dtype):
        # One formula: handed the batch's own statistics, running mode
        # rounds exactly as batch mode does.
        x, scale, shift = (rng.normal(size=s).astype(dtype) for s in ((2, 3, 5, 4), 3, 3))
        mean = x.sum(axis=(0, 2, 3)) / 40
        d = x - mean[None, :, None, None]
        var = np.einsum("nchw,nchw->c", d, d) / 40
        args = (Tensor(x), Tensor(scale), Tensor(shift))
        batch = ops.batchnorm2d(*args, mode="batch")
        running = ops.batchnorm2d(*args, mode="running", mean=Tensor(mean), var=Tensor(var))
        assert running.dtype == dtype
        assert running.data.tobytes() == batch.data.tobytes()

    def test_degenerate_input_rejected(self):
        x = Tensor(np.zeros((1, 2, 0, 4), dtype=np.float32))
        with pytest.raises(DegenerateInputError):
            ops.batchnorm2d(x, _t(np.ones(2)), _t(np.zeros(2)), mode="batch")


class TestElementwise:
    def test_gelu_zero(self):
        assert ops.gelu(_t([0.0])).data[0] == 0.0

    def test_gelu_asymptote(self):
        y = ops.gelu(Tensor(np.array([10.0])))
        np.testing.assert_allclose(y.data[0], 10.0, rtol=1e-6)

    def test_gelu_at_one_matches_scalar_formula(self):
        expected = 0.5 * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (1.0 + 0.044715)))
        y = ops.gelu(Tensor(np.array([1.0])))
        np.testing.assert_allclose(y.data[0], expected, rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_bitwise_equals_textbook_formula(self, rng, dtype):
        # Raw arrays keep their strides and rank on the way into the kernel.
        for name, x in gelu_probes(rng, dtype, 1_000_000).items():
            with np.errstate(over="ignore", invalid="ignore"):
                textbook = 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x * x * x)))
                got = ops.gelu(x).data
            assert got.dtype == dtype and got.shape == x.shape, name
            assert got.tobytes() == np.ascontiguousarray(textbook).tobytes(), name

    def test_sigmoid_at_zero(self):
        assert ops.sigmoid(_t([0.0])).data[0] == 0.5

    def test_sigmoid_range_and_stability(self):
        y = ops.sigmoid(Tensor(np.array([-500.0, -30.0, 0.0, 30.0, 500.0])))
        assert np.isfinite(y.data).all()
        assert (y.data >= 0.0).all() and (y.data <= 1.0).all()

    def test_add_mul_identities(self, rng):
        x = _t(rng.normal(size=(1, 2, 3, 3)))
        zeros = Tensor(np.zeros(x.shape, dtype=np.float32))
        np.testing.assert_array_equal(ops.mul(x, zeros).data, zeros.data)
        np.testing.assert_array_equal(ops.add(x, zeros).data, x.data)

    def test_shape_mismatch_names_axis(self, rng):
        a = _t(rng.normal(size=(1, 2, 3, 3)))
        b = _t(rng.normal(size=(1, 2, 4, 3)))
        with pytest.raises(DimensionError) as err:
            ops.add(a, b)
        assert err.value.axis == "h"

    def test_scale_channels(self, rng):
        x = _t(rng.normal(size=(2, 3, 4, 4)))
        g = _t(rng.normal(size=(2, 3)))
        y = ops.scale_channels(x, g)
        np.testing.assert_allclose(y.data, x.data * g.data[:, :, None, None], rtol=1e-6)

    def test_sqrt_eps_value(self):
        y = ops.sqrt_eps(Tensor(np.array([4.0])))
        np.testing.assert_allclose(y.data[0], 2.0, rtol=1e-9)

    def test_sqrt_eps_defined_at_zero(self):
        y = ops.sqrt_eps(Tensor(np.array([0.0])))
        np.testing.assert_allclose(y.data[0], 1e-6, rtol=1e-6)

    def test_sqrt_eps_domain_error(self):
        with pytest.raises(DomainError):
            ops.sqrt_eps(Tensor(np.array([-1.0])))


class TestDropout:
    def test_inference_is_bit_exact_identity(self, rng):
        x = _t(rng.normal(size=(1, 3, 8, 8)))
        y = ops.dropout(x, 0.1)
        assert y.data.tobytes() == x.data.tobytes()

    def test_rate_zero_training(self, rng):
        x = _t(rng.normal(size=(1, 3, 8, 8)))
        y = ops.dropout(x, 0.0, rng=np.random.default_rng(0))
        assert y.data.tobytes() == x.data.tobytes()

    def test_survivor_fraction_concentrates(self):
        x = Tensor(np.ones((1, 1, 1000, 1000), dtype=np.float32))
        y = ops.dropout(x, 0.1, rng=np.random.default_rng(7))
        survivors = np.count_nonzero(y.data) / y.size
        assert abs(survivors - 0.9) <= 0.003

    def test_survivors_are_rescaled(self):
        x = Tensor(np.ones((1, 1, 100, 100), dtype=np.float32))
        y = ops.dropout(x, 0.1, rng=np.random.default_rng(7))
        nz = y.data[y.data != 0]
        np.testing.assert_allclose(nz, 1.0 / 0.9, rtol=1e-6)

    def test_mask_reproducible_from_seed(self, rng):
        x = _t(rng.normal(size=(1, 2, 16, 16)))
        y1 = ops.dropout(x, 0.1, rng=np.random.default_rng(123))
        y2 = ops.dropout(x, 0.1, rng=np.random.default_rng(123))
        assert y1.data.tobytes() == y2.data.tobytes()

    def test_bad_rate_rejected(self, rng):
        x = _t(rng.normal(size=(1, 1, 2, 2)))
        with pytest.raises(ConfigError):
            ops.dropout(x, 1.0, rng=np.random.default_rng(0))


class TestOracleSweep:
    """Vectorized ops agree with naive loop oracles on random shapes."""

    def test_conv_family_f32_and_f64(self, rng):
        for trial in range(25):
            n = int(rng.integers(1, 3))
            c = int(rng.integers(1, 9))
            cout = int(rng.integers(1, 9))
            k = int(rng.choice([1, 3, 5]))
            h = int(rng.integers(k, 13))
            w = int(rng.integers(k, 13))
            stride = int(rng.choice([1, 2]))
            padding = str(rng.choice([ops.ZERO, ops.REPLICATE]))
            dtype = np.float32 if trial % 2 == 0 else np.float64
            tol = 1e-5 if dtype == np.float32 else 1e-12
            x = Tensor(rng.normal(size=(n, c, h, w)).astype(dtype))
            wt = Tensor(rng.normal(size=(cout, c, k, k)).astype(dtype))
            got = ops.conv2d(x, wt, stride=stride, padding=padding)
            ref = conv2d_naive(x.data, wt.data, stride=stride, padding=padding)
            np.testing.assert_allclose(got.data, ref, rtol=tol, atol=tol)
            kd = Tensor(rng.normal(size=(c, 1, k, k)).astype(dtype))
            got = ops.depthwise_conv2d(x, kd, stride=stride, padding=padding)
            ref = depthwise_naive(x.data, kd.data, stride=stride, padding=padding)
            np.testing.assert_allclose(got.data, ref, rtol=tol, atol=tol)
            if h >= 2 and w >= 2:
                np.testing.assert_array_equal(ops.maxpool2d(x).data, maxpool_naive(x.data))

    def test_determinism_byte_identical(self, rng):
        x = Tensor(rng.normal(size=(2, 4, 9, 9)).astype(np.float32))
        w = Tensor(rng.normal(size=(5, 4, 3, 3)).astype(np.float32))
        a = ops.conv2d(x, w, stride=2).data.tobytes()
        b = ops.conv2d(x, w, stride=2).data.tobytes()
        assert a == b
        g = ops.gelu(x).data.tobytes()
        assert g == ops.gelu(x).data.tobytes()


def _z(*shape):
    return np.zeros(shape, dtype=np.float32)


# (id, call, error, the axis a DimensionError names)
BAD_INPUTS = [
    ("mixed-dtypes", lambda: ops.add(_z(1, 1, 2, 2), np.zeros((1, 1, 2, 2))), ContractError, None),
    ("padding-mode", lambda: ops.conv2d(_z(1, 1, 4, 4), _z(1, 1, 3, 3), padding="reflect"),
     ConfigError, None),
    ("conv2d-input-rank", lambda: ops.conv2d(_z(1, 4, 4), _z(1, 1, 3, 3)), DimensionError, "n"),
    ("conv2d-weight-rank", lambda: ops.conv2d(_z(1, 1, 4, 4), _z(1, 3, 3)), DimensionError, "k"),
    ("conv2d-weight-not-square", lambda: ops.conv2d(_z(1, 1, 4, 4), _z(1, 1, 3, 1)),
     DimensionError, "k"),
    ("depthwise-input-rank", lambda: ops.depthwise_conv2d(_z(1, 4, 4), _z(3, 3)),
     DimensionError, "n"),
    ("depthwise-kernel-shape", lambda: ops.depthwise_conv2d(_z(1, 2, 4, 4), _z(2, 2, 3, 3)),
     DimensionError, "k"),
    ("depthwise-shared-not-square", lambda: ops.depthwise_conv2d(_z(1, 2, 4, 4), _z(3, 5)),
     DimensionError, "k"),
    ("depthwise-kernel-rank", lambda: ops.depthwise_conv2d(_z(1, 2, 4, 4), _z(2, 3, 3)),
     DimensionError, "k"),
    ("depthwise-even-kernel", lambda: ops.depthwise_conv2d(_z(1, 2, 4, 4), _z(4, 4)),
     ConfigError, None),
    ("depthwise-stride", lambda: ops.depthwise_conv2d(_z(1, 2, 4, 4), _z(3, 3), stride=3),
     ConfigError, None),
    ("conv2d-bias-shape", lambda: ops.conv2d(_z(1, 2, 4, 4), _z(3, 2, 1, 1), bias=_z(2)),
     DimensionError, "c"),
    ("conv2d-bias-dtype", lambda: ops.conv2d(_z(1, 2, 4, 4), _z(3, 2, 1, 1), bias=np.zeros(3)),
     ContractError, None),
    ("depthwise-bias-shape", lambda: ops.depthwise_conv2d(_z(1, 2, 4, 4), _z(3, 3), bias=_z(2, 1)),
     DimensionError, "c"),
    ("depthwise-bias-dtype", lambda: ops.depthwise_conv2d(_z(1, 2, 4, 4), _z(3, 3), bias=np.zeros(2)),
     ContractError, None),
    ("conv1d-weight-rank", lambda: ops.conv1d_channels(_z(1, 4), _z(1, 3)), DimensionError, "k"),
    ("conv1d-input-rank", lambda: ops.conv1d_channels(_z(1, 4, 1), _z(3)), DimensionError, "c"),
    ("maxpool-rank", lambda: ops.maxpool2d(_z(1, 4, 4)), DimensionError, "n"),
    ("gap-rank", lambda: ops.global_avg_pool(_z(1, 4, 4)), DimensionError, "n"),
    ("gap-empty", lambda: ops.global_avg_pool(_z(1, 2, 0, 4)), DegenerateInputError, None),
    ("batchnorm-mode", lambda: ops.batchnorm2d(_z(1, 2, 4, 4), _z(2), _z(2), mode="group"),
     ConfigError, None),
    ("batchnorm-rank", lambda: ops.batchnorm2d(_z(2, 4, 4), _z(2), _z(2)), DimensionError, "n"),
    ("batchnorm-scale-shape", lambda: ops.batchnorm2d(_z(1, 2, 4, 4), _z(3), _z(2)),
     DimensionError, "c"),
    ("running-without-stats", lambda: ops.batchnorm2d(_z(1, 2, 4, 4), _z(2), _z(2), mode="running"),
     ConfigError, None),
    ("running-mean-shape", lambda: ops.batchnorm2d(
        _z(1, 2, 4, 4), _z(2), _z(2), mode="running", mean=_z(3), var=_z(2)), DimensionError, "c"),
    ("running-var-shape", lambda: ops.batchnorm2d(
        _z(1, 2, 4, 4), _z(2), _z(2), mode="running", mean=_z(2), var=_z(2, 1)),
     DimensionError, "c"),
    ("scale-channels-rank", lambda: ops.scale_channels(_z(1, 2, 4), _z(1, 2)), DimensionError, "n"),
    ("scale-channels-gates", lambda: ops.scale_channels(_z(1, 2, 4, 4), _z(1, 3)),
     DimensionError, "c"),
]


@pytest.mark.parametrize("call, error, axis", [case[1:] for case in BAD_INPUTS],
                         ids=[case[0] for case in BAD_INPUTS])
def test_bad_input_is_rejected(call, error, axis):
    with pytest.raises(error) as err:
        call()
    if error is DimensionError:
        assert err.value.axis == axis

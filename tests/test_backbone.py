"""Backbone architecture: shapes, attention behavior, blocks, and builds."""

import os
import sys
import tracemalloc

import numpy as np
import pytest

from egnet import autograd as ag
from egnet import backbone as bb
from egnet import ops
from egnet.backbone import (
    BackboneConfig,
    FeaturePyramid,
    Mode,
    Param,
    ParamView,
    backbone_forward,
    build_model,
    conv_block_forward,
    drfd_forward,
    eca_kernel_size,
    edge_attention,
    ega_forward,
    gaussian_attention,
    leg_block_forward,
    leg_module_forward,
    log_stem_forward,
    param_breakdown,
    param_specs,
)
from egnet.errors import ConfigError, ContractError, DimensionError
from egnet.kernels import gaussian_kernel, log_kernel, scharr_kernels
from egnet.tensor import Tensor


def benchmark_tracer():
    """The benchmark's ``perfbench/spans.py`` and a tracer of it, not yet installed,
    that records request 0."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    import spans

    tracer = spans.Tracer()
    tracer.request = 0
    return spans, tracer


def tiny(seed=0):
    return build_model(BackboneConfig.for_variant("tiny"), seed=seed)


def small(seed=0):
    return build_model(BackboneConfig.for_variant("small"), seed=seed)


def zero_convs(model, prefixes):
    out = {}
    for name, p in model.params.items():
        if p.frozen or p.is_stat or not name.startswith(tuple(prefixes)):
            continue
        if p.value.ndim == 4 or name.endswith("eca.w"):
            out[name] = np.zeros(p.value.shape, dtype=np.float32)
    return model.with_values(out)


# Norm statistics for the composition tests: every norm gets a non-identity
# scale, shift, mean and var, so a dropped or doubled term of the fold shows.
def with_stats(model, rng, dtype):
    out = {}
    for name, p in model.params.items():
        kind = name.rsplit(".", 1)[1]
        c = p.value.shape[0]
        if kind == "scale":
            out[name] = rng.uniform(0.5, 1.5, c)
        elif kind in ("shift", "mean"):
            out[name] = rng.normal(0.0, 0.5, c)
        elif kind == "var":
            out[name] = rng.uniform(0.5, 2.0, c)
    return model.with_values(out).astype(dtype)


# (stats, dtype) of the composition tests.  Batch statistics run each norm
# as written, so the block functions equal the ops composition bitwise; the
# plain running-statistics forward folds the norms that follow a conv into
# it, which holds to FOLD_TOL[dtype] * max|out|.
COMPOSITION_MODES = [
    pytest.param("batch", np.float32, id="batch"),
    pytest.param("running", np.float32, id="running-float32"),
    pytest.param("running", np.float64, id="running-float64"),
]
FOLD_TOL = {np.float32: 2e-6, np.float64: 1e-12}


def assert_composition(got, expected, stats, dtype):
    assert got.dtype == expected.dtype == dtype
    if stats == "batch":
        np.testing.assert_array_equal(got.data, expected.data)
    else:
        err = np.abs(got.data - expected.data).max()
        assert err <= FOLD_TOL[dtype] * np.abs(expected.data).max(), err


def norm_oracle(P, stats):
    def bn(t, prefix):
        return ops.batchnorm2d(t, P[prefix + ".scale"], P[prefix + ".shift"], mode=stats,
                               mean=P[prefix + ".mean"], var=P[prefix + ".var"])
    return bn


def drfd_oracle(x, P, prefix, stats):
    """A DRFD as a straight line of ``ops`` calls."""
    bn = norm_oracle(P, stats)
    cpath = bn(ops.conv2d(x, P[prefix + ".conv3"], stride=2), prefix + ".norm_conv.norm")
    ppath = bn(ops.conv2d(ops.maxpool2d(x), P[prefix + ".conv1"]), prefix + ".norm_pool.norm")
    return ops.gelu(bn(ops.add(cpath, ppath), prefix + ".an.norm"))


def stem_oracle(x, P, stats):
    """The LoG stem as a straight line of ``ops`` calls, its two 3x3 convs unfolded."""
    bn = norm_oracle(P, stats)
    t = ops.depthwise_conv2d(ops.conv2d(x, P["stem.conv7"]), P["fixed.log7"],
                             padding=ops.REPLICATE)
    f_log = bn(ops.add(x, ops.gelu(bn(t, "stem.an_log.norm"))), "stem.res.norm")
    f1 = ops.conv2d(ops.conv2d(f_log, P["stem.conv3"]), P["stem.convd3"], stride=2)
    t = ops.depthwise_conv2d(f1, P["fixed.gauss9_s05"], padding=ops.REPLICATE)
    t = bn(ops.add(t, f1), "stem.mid.norm")
    t = ops.depthwise_conv2d(t, P["fixed.gauss5_s05"], padding=ops.REPLICATE)
    return drfd_oracle(t, P, "stem.drfd", stats)


def leg_block_oracle(x, P, stats, drop_rng):
    """``s1.b1`` of a tiny model as a straight line of ``ops`` calls."""
    bn = norm_oracle(P, stats)
    gx = ops.depthwise_conv2d(x, P["fixed.scharr_x"], padding=ops.REPLICATE)
    gy = ops.depthwise_conv2d(x, P["fixed.scharr_y"], padding=ops.REPLICATE)
    att = ops.sqrt_eps(ops.add(ops.mul(gx, gx), ops.mul(gy, gy)))
    t = ops.conv2d(ops.add(x, att), P["s1.b1.ega.convblock.c1"])
    t = ops.gelu(bn(t, "s1.b1.ega.convblock.an1.norm"))
    t = ops.depthwise_conv2d(t, P["s1.b1.ega.convblock.c3"])
    t = ops.gelu(bn(t, "s1.b1.ega.convblock.an2.norm"))
    t = ops.conv2d(t, P["s1.b1.ega.convblock.c2"])
    fa = bn(t, "s1.b1.ega.convblock.out.norm")
    f_ega = ops.conv2d(ops.add(ops.mul(x, fa), x), P["s1.b1.ega.conv3"])
    gates = ops.sigmoid(ops.conv1d_channels(ops.global_avg_pool(f_ega), P["s1.b1.eca.w"]))
    f_o = bn(ops.add(ops.scale_channels(f_ega, gates), x), "s1.b1.leg.norm")
    t = ops.conv2d(f_o, P["s1.b1.expand"])
    t = ops.gelu(bn(t, "s1.b1.an.norm"))
    t = ops.conv2d(t, P["s1.b1.reduce"])
    t = ops.dropout(t, BackboneConfig.dropout_rate, rng=drop_rng)
    return ops.add(x, bn(t, "s1.b1.out.norm"))


class TestConfig:
    def test_variants(self):
        assert BackboneConfig.for_variant("tiny").width == 32
        assert BackboneConfig.for_variant("small").width == 64
        assert BackboneConfig.for_variant("tiny").stage_widths == (32, 64, 128, 256)
        assert BackboneConfig.for_variant("small").stage_widths == (64, 128, 256, 512)

    def test_attention_kinds(self):
        assert BackboneConfig.for_variant("tiny").attention_kinds == (
            "edge", "gauss", "gauss", "gauss",
        )

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            BackboneConfig.for_variant("base")


class TestContractErrors:
    def test_unknown_init(self):
        with pytest.raises(ConfigError):
            Param("p", Tensor(np.zeros(2, dtype=np.float32)), "uniform")

    def test_override_of_wrong_shape(self):
        with pytest.raises(DimensionError):
            tiny().with_values({"stem.conv7": np.zeros((3, 3, 5, 5), dtype=np.float32)})

    def test_pyramid_of_three_levels(self):
        with pytest.raises(ContractError):
            FeaturePyramid((1, 2, 3))

    @pytest.mark.parametrize("kwargs", [dict(stats="train"), dict(dropout_seed=-1)],
                             ids=["stats", "dropout-seed"])
    def test_bad_mode(self, kwargs):
        with pytest.raises(ConfigError):
            Mode(**kwargs)

    def test_fd_loss_needs_batch_statistics(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 32, 32)))
        with pytest.raises(ContractError):
            bb._FDLoss(tiny().astype(np.float64), x, Mode())

    def test_gradcheck_rejects_fd_loss_that_diverges_from_tape(self, rng, monkeypatch):
        taped = bb._pyramid_loss
        monkeypatch.setattr(bb, "_pyramid_loss", lambda levels: ag.scale(taped(levels), 2.0))
        x = Tensor(rng.normal(size=(1, 3, 32, 32)).astype(np.float32))
        with pytest.raises(ContractError, match="diverges"):
            bb.backbone_gradcheck(tiny(), x, coords_per_tensor=1)

    def test_gradcheck_under_the_benchmark_tracer(self, rng):
        # The tracer hands finite_diff_check a plain function that calls the
        # backbone's loss object once per probe, so that object must be callable.
        x = Tensor(rng.normal(size=(1, 3, 32, 32)).astype(np.float32))
        _, tracer = benchmark_tracer()
        with tracer:
            report = bb.backbone_gradcheck(tiny(), x, coords_per_tensor=1)
        assert report.passed(1e-4)
        assert any(rec[0] == "autograd.fd.loss" for rec in tracer.spans)

    def test_running_forward_under_the_benchmark_tracer(self, rng):
        # The tracer reads the shapes of every public op's operands, so the folds
        # must hand ops a Tensor input.  The stem's 5x5 conv is an ``other`` op;
        # the spine's other 3x3 convs are the four DRFD stride-2 convs.
        x = Tensor(rng.uniform(0.0, 1.0, size=(1, 3, 64, 64)).astype(np.float32))
        plain = backbone_forward(x, tiny(), Mode(), skip_blocks=True)
        spans, tracer = benchmark_tracer()
        with tracer:
            traced = backbone_forward(x, tiny(), Mode(), skip_blocks=True)
        for a, b in zip(plain.levels, traced.levels):
            assert a.data.tobytes() == b.data.tobytes()
        metrics = spans.layer_metrics(tracer.spans, 1)
        assert (metrics["ops.other.calls"], metrics["ops.conv2d_k3.calls"]) == (1, 4)


class TestEcaKernelSize:
    @pytest.mark.parametrize(
        "channels,expected",
        [(32, 3), (64, 3), (128, 5), (256, 5), (512, 5), (2, 1), (16, 3)],
    )
    def test_values(self, channels, expected):
        assert eca_kernel_size(channels) == expected

    def test_rejects_tiny_channel_count(self):
        with pytest.raises(ConfigError):
            eca_kernel_size(1)


class TestEdgeAttention:
    def test_constant_input_is_silent(self):
        x = Tensor(np.full((1, 3, 10, 10), 4.2, dtype=np.float32))
        a = edge_attention(x)
        assert (a.data <= 1e-5).all()
        assert (a.data >= 0).all()

    def test_vertical_unit_step(self):
        x = np.zeros((1, 1, 8, 8), dtype=np.float64)
        x[:, :, :, 4:] = 1.0
        a = edge_attention(Tensor(x)).data[0, 0]
        np.testing.assert_allclose(a[:, 3], 16.0, atol=1e-4)
        np.testing.assert_allclose(a[:, 4], 16.0, atol=1e-4)
        quiet = np.concatenate([a[:, :3], a[:, 5:]], axis=1)
        assert (quiet <= 1e-5).all()

    def test_rotation_equivariance(self, rng):
        x = rng.normal(size=(1, 2, 9, 9)).astype(np.float32)
        for k in (1, 2, 3):
            rotated_in = np.ascontiguousarray(np.rot90(x, k, axes=(2, 3)))
            lhs = edge_attention(Tensor(rotated_in)).data
            rhs = np.rot90(edge_attention(Tensor(x)).data, k, axes=(2, 3))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-6)

    def test_translation_covariance_on_interior(self, rng):
        big = rng.normal(size=(1, 2, 14, 14)).astype(np.float32)
        a = edge_attention(Tensor(big[:, :, :12, :12])).data
        b = edge_attention(Tensor(big[:, :, 1:13, 1:13])).data
        np.testing.assert_array_equal(a[:, :, 2:11, 2:11], b[:, :, 1:10, 1:10])


class TestGaussianAttention:
    def test_constant_preserved_at_every_pixel(self):
        x = Tensor(np.full((1, 2, 9, 9), -1.7, dtype=np.float32))
        y = gaussian_attention(x)
        np.testing.assert_allclose(y.data, x.data, rtol=1e-6)

    def test_impulse_response_is_the_kernel(self):
        x = np.zeros((1, 1, 11, 11), dtype=np.float64)
        x[0, 0, 5, 5] = 1.0
        y = gaussian_attention(Tensor(x)).data[0, 0]
        k = gaussian_kernel(5, 1.0)
        np.testing.assert_allclose(y[3:8, 3:8], k, rtol=1e-6, atol=1e-12)
        outside = y.copy()
        outside[3:8, 3:8] = 0.0
        assert (outside == 0).all()

    def test_never_amplifies(self, rng):
        for _ in range(5):
            x = Tensor(rng.normal(size=(1, 3, 8, 8)).astype(np.float32))
            y = gaussian_attention(x)
            for c in range(3):
                assert np.abs(y.data[0, c]).max() <= np.abs(x.data[0, c]).max() + 1e-6


@pytest.mark.parametrize("attention", [edge_attention, gaussian_attention])
def test_attention_of_integer_pixels_runs_in_float32(attention):
    # The kernel takes the dtype the ops compute x in, not the integer one.
    x = np.arange(64, dtype=np.uint8).reshape(1, 1, 8, 8)
    y = attention(x)
    assert y.dtype == np.float32
    np.testing.assert_array_equal(y.data, attention(Tensor(x.astype(np.float32))).data)


class TestStemAndDrfd:
    def test_stem_shapes(self):
        x = Tensor(np.zeros((1, 3, 256, 256), dtype=np.float32))
        out = log_stem_forward(x, ParamView(tiny()), tiny().config, Mode())
        assert out.shape == (1, 32, 64, 64)
        x = Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32))
        out = log_stem_forward(x, ParamView(small()), small().config, Mode())
        assert out.shape == (1, 64, 16, 16)

    def test_stem_annihilates_zero_with_zero_convs(self):
        model = zero_convs(tiny(), ("stem.",))
        x = Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32))
        out = log_stem_forward(x, ParamView(model), model.config, Mode())
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))

    def test_stem_rejects_indivisible_input(self):
        x = Tensor(np.zeros((1, 3, 30, 32), dtype=np.float32))
        with pytest.raises(DimensionError):
            log_stem_forward(x, ParamView(tiny()), tiny().config, Mode())

    def test_drfd_shapes(self, rng):
        m = tiny()
        x = Tensor(rng.normal(size=(1, 32, 64, 64)).astype(np.float32))
        assert drfd_forward(x, ParamView(m), "s2.drfd", m.config, Mode()).shape == (1, 64, 32, 32)
        ms = small()
        x = Tensor(rng.normal(size=(1, 256, 8, 8)).astype(np.float32))
        assert drfd_forward(x, ParamView(ms), "s4.drfd", ms.config, Mode()).shape == (1, 512, 4, 4)

    def test_drfd_zero_trace(self):
        model = zero_convs(tiny(), ("s2.drfd",))
        x = Tensor(np.zeros((1, 32, 8, 8), dtype=np.float32))
        out = drfd_forward(x, ParamView(model), "s2.drfd", model.config, Mode())
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))

    @pytest.mark.parametrize("stats, dtype", COMPOSITION_MODES)
    def test_drfd_matches_composition(self, rng, stats, dtype):
        m = with_stats(tiny(), rng, dtype)
        P = {n: p.value for n, p in m.params.items()}
        x = Tensor(rng.normal(size=(2, 32, 8, 8)).astype(dtype))
        got = drfd_forward(x, ParamView(m), "s2.drfd", m.config, Mode(stats=stats))
        assert_composition(got, drfd_oracle(x, P, "s2.drfd", stats), stats, dtype)

    # The plain running-mode stem runs conv3 and convd3 as one 5x5 stride-2 conv and
    # recomputes output row 0 and column 0, where the composition reads padding.
    @pytest.mark.parametrize("shape", [(2, 3, 8, 12), (1, 3, 4, 4), (1, 3, 64, 96)])
    @pytest.mark.parametrize("stats, dtype", COMPOSITION_MODES)
    def test_stem_matches_composition(self, rng, stats, dtype, shape):
        m = with_stats(tiny(), rng, dtype)
        P = {n: p.value for n, p in m.params.items()}
        x = Tensor(rng.normal(size=shape).astype(dtype))
        got = log_stem_forward(x, ParamView(m), m.config, Mode(stats=stats))
        assert_composition(got, stem_oracle(x, P, stats), stats, dtype)

    @pytest.mark.parametrize("taped", ["input", "params"])
    def test_taped_running_stem_is_not_folded(self, rng, taped):
        m = with_stats(tiny(), rng, np.float32)
        P = {n: p.value for n, p in m.params.items()}
        x = Tensor(rng.normal(size=(1, 3, 8, 12)).astype(np.float32))
        tape = ag.Tape()
        xin, pview = (tape.leaf(x), ParamView(m)) if taped == "input" else (x, ParamView(m, tape))
        got = log_stem_forward(xin, pview, m.config, Mode(stats="running"))
        assert got.value.data.tobytes() == stem_oracle(x, P, "running").data.tobytes()

    def test_running_stem_builds_no_full_resolution_16_channel_map(self, rng):
        # One 16-channel float32 map at 512^2 is 16 MiB; the unfolded pair
        # peaked at 43.1 MiB, the folded one at about 24 MiB.
        m = tiny()
        x = Tensor(rng.uniform(0.0, 1.0, size=(1, 3, 512, 512)).astype(np.float32))
        pview = ParamView(m)
        tracemalloc.start()
        try:
            log_stem_forward(x, pview, m.config, Mode())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 << 20, peak / (1 << 20)

    def test_drfd_rejects_odd_input(self, rng):
        m = tiny()
        x = Tensor(rng.normal(size=(1, 32, 7, 8)).astype(np.float32))
        with pytest.raises(DimensionError):
            drfd_forward(x, ParamView(m), "s2.drfd", m.config, Mode())


class TestConvBlock:
    def test_zero_input_zero_output_in_inference(self):
        m = tiny()
        x = Tensor(np.zeros((1, 32, 8, 8), dtype=np.float32))
        out = conv_block_forward(x, ParamView(m), "s1.b1.ega.convblock", Mode())
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))

    def test_shape_preserved(self, rng):
        m = small()
        x = Tensor(rng.normal(size=(1, 64, 32, 32)).astype(np.float32))
        out = conv_block_forward(x, ParamView(m), "s1.b1.ega.convblock", Mode())
        assert out.shape == x.shape

    @pytest.mark.parametrize("stats, dtype", COMPOSITION_MODES)
    def test_matches_straight_line_composition(self, rng, stats, dtype):
        m = with_stats(tiny(), rng, dtype)
        x = Tensor(rng.normal(size=(2, 32, 8, 8)).astype(dtype))
        got = conv_block_forward(x, ParamView(m), "s1.b1.ega.convblock", Mode(stats=stats))

        P = {n: p.value for n, p in m.params.items()}
        pre = "s1.b1.ega.convblock"
        bn = norm_oracle(P, stats)
        t = ops.conv2d(x, P[pre + ".c1"])
        t = ops.gelu(bn(t, pre + ".an1.norm"))
        t = ops.depthwise_conv2d(t, P[pre + ".c3"])
        t = ops.gelu(bn(t, pre + ".an2.norm"))
        t = ops.conv2d(t, P[pre + ".c2"])
        assert_composition(got, bn(t, pre + ".out.norm"), stats, dtype)


class TestEga:
    def test_gaussian_stages_agree(self, rng):
        m = tiny()
        x = Tensor(rng.normal(size=(1, 64, 8, 8)).astype(np.float32))
        a = ega_forward(x, 2, ParamView(m), "s2.b1.ega", Mode())
        b = ega_forward(x, 3, ParamView(m), "s2.b1.ega", Mode())
        assert a.data.tobytes() == b.data.tobytes()

    def test_stage1_uses_edge_attention(self, rng):
        m = tiny()
        x = Tensor(rng.normal(size=(1, 3, 32, 32)).astype(np.float32))
        trace = {}
        backbone_forward(x, m, Mode(stats="batch"), trace=trace)
        stem = log_stem_forward(x, ParamView(m), m.config, Mode(stats="batch"))
        a = trace["s1.b1.ega.attention"]
        np.testing.assert_allclose(a.data, edge_attention(stem).data, rtol=1e-6)

    def test_zero_input_with_zero_final_conv(self):
        m = tiny().with_values({"s1.b1.ega.conv3": np.zeros((32, 32, 3, 3), dtype=np.float32)})
        x = Tensor(np.zeros((1, 32, 8, 8), dtype=np.float32))
        out = ega_forward(x, 1, ParamView(m), "s1.b1.ega", Mode())
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))
        # A zero image reaches the first block as zeros.
        trace = {}
        backbone_forward(np.zeros((1, 3, 32, 32), dtype=np.float32), m, Mode(), trace=trace)
        assert (trace["s1.b1.ega.attention"].data <= 1e-5).all()

    def test_unit_conv_block_doubles_input(self, rng):
        # out.norm with scale 0 / shift 1 pins the conv-block output to ones,
        # so (F * 1) + F = 2F feeds the final conv.
        m = tiny().with_values(
            {
                "s1.b1.ega.convblock.out.norm.scale": np.zeros(32, dtype=np.float32),
                "s1.b1.ega.convblock.out.norm.shift": np.ones(32, dtype=np.float32),
            }
        )
        x = Tensor(rng.normal(size=(1, 32, 8, 8)).astype(np.float32))
        got = ega_forward(x, 1, ParamView(m), "s1.b1.ega", Mode())
        expected = ops.conv2d(
            Tensor(2.0 * x.data), m.params["s1.b1.ega.conv3"].value
        )
        np.testing.assert_allclose(got.data, expected.data, rtol=1e-5, atol=1e-5)

    def test_stage_out_of_range(self, rng):
        m = tiny()
        x = Tensor(rng.normal(size=(1, 32, 8, 8)).astype(np.float32))
        with pytest.raises(ConfigError):
            ega_forward(x, 5, ParamView(m), "s1.b1.ega", Mode())


class TestLegModule:
    def test_gates_in_open_unit_interval(self, rng):
        # gates are sigmoids; reconstruct them from the module's definition
        m = tiny()
        x = Tensor(rng.normal(size=(1, 32, 8, 8)).astype(np.float32))
        f_ega = ega_forward(x, 1, ParamView(m), "s1.b1.ega", Mode(stats="batch"))
        gates = ops.sigmoid(
            ops.conv1d_channels(ops.global_avg_pool(f_ega), m.params["s1.b1.eca.w"].value)
        )
        assert (gates.data > 0).all() and (gates.data < 1).all()

    def test_zero_ega_reduces_to_norm_of_input(self, rng):
        m = tiny().with_values({"s1.b1.ega.conv3": np.zeros((32, 32, 3, 3), dtype=np.float32)})
        x = Tensor(rng.normal(size=(1, 32, 8, 8)).astype(np.float32))
        mode = Mode(stats="batch")
        got = leg_module_forward(x, 1, ParamView(m), "s1.b1", mode)
        expected = ops.batchnorm2d(
            x, m.params["s1.b1.leg.norm.scale"].value, m.params["s1.b1.leg.norm.shift"].value,
            mode="batch",
        )
        np.testing.assert_array_equal(got.data, expected.data)

    def test_shape_preserved(self, rng):
        m = tiny()
        x = Tensor(rng.normal(size=(1, 128, 16, 16)).astype(np.float32))
        out = leg_module_forward(x, 3, ParamView(m), "s3.b2", Mode())
        assert out.shape == (1, 128, 16, 16)


class TestLegBlock:
    def test_zero_reduce_makes_identity(self, rng):
        m = tiny().with_values({"s1.b1.reduce": np.zeros((32, 64, 1, 1), dtype=np.float32)})
        x = Tensor(rng.normal(size=(1, 32, 8, 8)).astype(np.float32))
        out = leg_block_forward(x, 1, ParamView(m), "s1.b1", m.config, Mode())
        np.testing.assert_array_equal(out.data, x.data)

    def test_width_preserved_stage3_small(self, rng):
        m = small()
        x = Tensor(rng.normal(size=(1, 256, 4, 4)).astype(np.float32))
        out = leg_block_forward(x, 3, ParamView(m), "s3.b1", m.config, Mode())
        assert out.shape == (1, 256, 4, 4)

    def test_every_block_preserves_shape_both_variants(self, rng):
        for model in (tiny(), small()):
            widths = model.config.stage_widths
            for i in range(1, 5):
                x = Tensor(rng.normal(size=(1, widths[i - 1], 4, 4)).astype(np.float32))
                for j in range(1, model.config.blocks[i - 1] + 1):
                    out = leg_block_forward(
                        x, i, ParamView(model), f"s{i}.b{j}", model.config, Mode()
                    )
                    assert out.shape == x.shape

    @pytest.mark.parametrize("dropout_seed", [None, 7])
    @pytest.mark.parametrize("stats, dtype", COMPOSITION_MODES)
    def test_matches_composition_oracle(self, rng, stats, dtype, dropout_seed):
        m = with_stats(tiny(), rng, dtype)
        P = {n: p.value for n, p in m.params.items()}
        x = Tensor(rng.normal(size=(1, 32, 8, 8)).astype(dtype))
        mode = Mode(stats=stats, dropout_seed=dropout_seed)
        got = leg_block_forward(x, 1, ParamView(m), "s1.b1", m.config, mode)
        expected = leg_block_oracle(x, P, stats, mode.dropout_rng("s1.b1"))
        assert_composition(got, expected, stats, dtype)

    @pytest.mark.parametrize("dropout_seed", [None, 7])
    def test_taped_running_forward_is_not_folded(self, rng, dropout_seed):
        m = with_stats(tiny(), rng, np.float32)
        P = {n: p.value for n, p in m.params.items()}
        x = Tensor(rng.normal(size=(1, 32, 8, 8)).astype(np.float32))
        mode = Mode(stats="running", dropout_seed=dropout_seed)
        tape = ag.Tape()
        got = leg_block_forward(tape.leaf(x), 1, ParamView(m, tape), "s1.b1", m.config, mode)
        expected = leg_block_oracle(x, P, "running", mode.dropout_rng("s1.b1"))
        assert got.value.data.tobytes() == expected.data.tobytes()


class TestBackboneForward:
    def test_tiny_pyramid_at_256(self):
        m = tiny()
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 256, 256)).astype(np.float32))
        pyr = backbone_forward(x, m, Mode(stats="batch"))
        shapes = [lvl.shape for lvl in pyr.levels]
        assert shapes == [
            (1, 32, 64, 64), (1, 64, 32, 32), (1, 128, 16, 16), (1, 256, 8, 8),
        ]

    def test_small_pyramid_at_64(self):
        m = small()
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 64, 64)).astype(np.float32))
        pyr = backbone_forward(x, m, Mode(stats="batch"))
        shapes = [lvl.shape for lvl in pyr.levels]
        assert shapes == [
            (1, 64, 16, 16), (1, 128, 8, 8), (1, 256, 4, 4), (1, 512, 2, 2),
        ]

    def test_determinism_byte_identical(self, rng):
        m = tiny()
        x = Tensor(rng.normal(size=(1, 3, 64, 64)).astype(np.float32))
        p1 = backbone_forward(x, m, Mode(stats="batch"))
        p2 = backbone_forward(x, m, Mode(stats="batch"))
        for a, b in zip(p1.levels, p2.levels):
            assert a.data.tobytes() == b.data.tobytes()

    def test_trace_collects_attention_per_block(self, rng):
        m = tiny()
        x = Tensor(rng.normal(size=(1, 3, 64, 64)).astype(np.float32))
        trace = {}
        backbone_forward(x, m, Mode(stats="batch"), trace=trace)
        keys = sorted(trace)
        assert len(keys) == sum(m.config.blocks)
        assert "s1.b1.ega.attention" in trace
        assert trace["s1.b1.ega.attention"].shape == (1, 32, 16, 16)
        assert (trace["s1.b1.ega.attention"].data >= 0).all()

    def test_dump_records_each_blocks_own_attention(self, rng):
        # Each block's input comes from running the segments one by one,
        # apart from the walk that fills the trace.
        m = tiny()
        cfg, mode, pview = m.config, Mode(stats="batch"), ParamView(m)
        x = Tensor(rng.normal(size=(1, 3, 64, 64)).astype(np.float32))
        trace = {}
        backbone_forward(x, m, mode, trace=trace)
        t, blocks = x, []
        for i in range(1, 5):
            if i == 1:
                t = log_stem_forward(t, pview, cfg, mode)
            else:
                t = drfd_forward(t, pview, f"s{i}.drfd", cfg, mode)
            attention = edge_attention if i == 1 else gaussian_attention
            for j in range(1, cfg.blocks[i - 1] + 1):
                prefix = f"s{i}.b{j}"
                got = trace[prefix + ".ega.attention"]
                assert got.data.tobytes() == attention(t).data.tobytes(), prefix
                blocks.append(prefix + ".ega.attention")
                t = leg_block_forward(t, i, pview, prefix, cfg, mode)
        assert len(blocks) == 11
        assert sorted(trace) == sorted(blocks)

    def test_zeroed_residual_branches_reduce_to_spine(self, rng):
        m = tiny()
        zeros = {}
        for i in range(1, 5):
            for j in range(1, m.config.blocks[i - 1] + 1):
                p = m.params[f"s{i}.b{j}.reduce"]
                zeros[p.name] = np.zeros(p.value.shape, dtype=np.float32)
        m0 = m.with_values(zeros)
        x = Tensor(rng.normal(size=(1, 3, 64, 64)).astype(np.float32))
        full = backbone_forward(x, m0, Mode())
        spine = backbone_forward(x, m0, Mode(), skip_blocks=True)
        for a, b in zip(full.levels, spine.levels):
            np.testing.assert_allclose(a.data, b.data, atol=1e-6)

    def test_no_nan_over_many_seeds(self):
        # batch-statistics mode: the meaningful regime for seeded random
        # weights (identity running stats leave deep activations unbounded)
        m = tiny()
        for seed in range(100):
            x = Tensor(
                np.random.default_rng(seed).normal(size=(1, 3, 64, 64)).astype(np.float32)
            )
            pyr = backbone_forward(x, m, Mode(stats="batch"))
            for lvl in pyr.levels:
                assert np.isfinite(lvl.data).all(), f"seed {seed}"

    def test_rejects_indivisible_and_bad_channels(self, rng):
        m = tiny()
        with pytest.raises(DimensionError):
            backbone_forward(Tensor(rng.normal(size=(1, 3, 48, 64)).astype(np.float32)), m)
        with pytest.raises(DimensionError):
            backbone_forward(Tensor(rng.normal(size=(1, 4, 64, 64)).astype(np.float32)), m)


class TestBuildModel:
    def test_unique_names_and_stable_order(self):
        # build_model keys its dict by the spec names, so a repeated name
        # would silently overwrite an earlier parameter.
        for variant in ("tiny", "small"):
            specs = [name for name, _, _ in param_specs(BackboneConfig.for_variant(variant))]
            assert len(specs) == len(set(specs)), variant
        names = list(tiny().params)
        assert names[:6] == [
            "fixed.log7", "fixed.gauss9_s05", "fixed.gauss5_s05",
            "fixed.gauss5_s10", "fixed.scharr_x", "fixed.scharr_y",
        ]
        assert names[6] == "stem.conv7"
        assert names == list(build_model(BackboneConfig.for_variant("tiny"), seed=5).params)

    def test_same_seed_reproduces_bytes(self):
        a, b = tiny(seed=9), tiny(seed=9)
        for name in a.params:
            assert a.params[name].value.data.tobytes() == b.params[name].value.data.tobytes()

    def test_different_seeds_differ(self):
        a, b = tiny(seed=1), tiny(seed=2)
        assert a.params["stem.conv7"].value.data.tobytes() != b.params["stem.conv7"].value.data.tobytes()

    def test_parameter_totals_near_reported_sizes(self):
        t = tiny().learnable_count()
        s = small().learnable_count()
        assert t == 3_681_762
        assert s == 14_658_522
        assert 0.7 <= t / 3.6e6 <= 1.3
        assert 0.7 <= s / 12.7e6 <= 1.3

    def test_exactly_six_frozen_kernels(self):
        sx, sy = scharr_kernels()
        generated = {
            "fixed.log7": log_kernel(7, 1.0),
            "fixed.gauss9_s05": gaussian_kernel(9, 0.5),
            "fixed.gauss5_s05": gaussian_kernel(5, 0.5),
            "fixed.gauss5_s10": gaussian_kernel(5, 1.0),
            "fixed.scharr_x": sx,
            "fixed.scharr_y": sy,
        }
        for m in (tiny(), small()):
            frozen = [n for n, p in m.params.items() if p.frozen]
            assert frozen == list(generated)
            for name, kernel in generated.items():
                np.testing.assert_array_equal(
                    m.params[name].value.data, kernel.astype(np.float32), err_msg=name
                )
        for kernel in bb.FIXED_KERNELS.values():
            with pytest.raises(ValueError):
                kernel[0, 0] = 1.0

    def test_norm_layers_start_as_identity(self):
        m = tiny()
        np.testing.assert_array_equal(m.params["s1.b1.leg.norm.scale"].value.data, np.ones(32))
        np.testing.assert_array_equal(m.params["s1.b1.leg.norm.shift"].value.data, np.zeros(32))
        np.testing.assert_array_equal(m.params["s1.b1.leg.norm.mean"].value.data, np.zeros(32))
        np.testing.assert_array_equal(m.params["s1.b1.leg.norm.var"].value.data, np.ones(32))

    def test_breakdown_groups_cover_everything(self):
        m = tiny()
        groups = param_breakdown(m)
        assert set(groups) == {"fixed", "stem", "s1", "s2", "s3", "s4"}
        total = sum(slot["learnable"] for slot in groups.values())
        assert total == m.learnable_count()


class TestBatchedProbes:
    """Stacked-probe losses agree with one-probe-at-a-time evaluation."""

    NAMES = (
        "stem.conv7",
        "stem.an_log.norm.scale",
        "s2.drfd.conv3",
        "s1.b1.ega.convblock.c3",
        "s2.b3.expand",
        "s3.b2.eca.w",
        "s4.b2.out.norm.shift",
    )

    @staticmethod
    def probe_values(base, rng, count):
        values = []
        for _ in range(count):
            v = base.copy()
            v.flat[rng.integers(v.size)] += rng.choice((-1e-3, 1e-3))
            values.append(v)
        return values

    @staticmethod
    def plain_loss(model, x, mode, name, value):
        from egnet.backbone import _pyramid_loss

        pyramid = backbone_forward(x, model.with_values({name: value}), mode)
        return float(_pyramid_loss(pyramid.levels).data)

    # 64x64 input runs the fixed kernels of the stem as shifted copies
    @pytest.mark.parametrize("n, size", [(1, 32), (2, 32), (1, 64)])
    def test_batched_losses_match_single_probe(self, rng, n, size):
        from egnet.backbone import _FDLoss

        m64 = tiny(seed=3).astype(np.float64)
        x = Tensor(rng.normal(size=(n, 3, size, size)))
        mode = Mode(stats="batch", dropout_seed=4)
        fd = _FDLoss(m64, x, mode)
        for name in self.NAMES:
            # five probes per stacked run: two full chunks and a remainder
            fd.CHUNK_ELEMENTS = 5 * fd._inputs[fd._seg_of[name]].size
            values = self.probe_values(m64.params[name].value.data, rng, 12)
            batched = fd.losses(name, iter(values))
            single = np.array([fd.losses(name, [v])[0] for v in values])
            np.testing.assert_allclose(batched, single, rtol=1e-9, err_msg=name)
            plain = self.plain_loss(m64, x, mode, name, values[0])
            assert np.isclose(single[0], plain, rtol=1e-9), name

    @pytest.mark.parametrize("name", ["stem.conv7", "s2.drfd.conv3", "s2.b3.expand"])
    def test_stacked_conv2d_row_tiles(self, rng, monkeypatch, name):
        # One output row per tile: every k x k conv2d on a map more than
        # one row high runs several tiles, stacked probes (P > 1) after the
        # probed consumer.
        from egnet.backbone import _FDLoss

        monkeypatch.setattr(ops, "TILE_BYTES", 1)
        m64 = tiny(seed=3).astype(np.float64)
        x = Tensor(rng.normal(size=(2, 3, 32, 32)))
        mode = Mode(stats="batch", dropout_seed=4)
        fd = _FDLoss(m64, x, mode)
        fd.CHUNK_ELEMENTS = 5 * fd._inputs[fd._seg_of[name]].size
        values = self.probe_values(m64.params[name].value.data, rng, 7)
        batched = fd.losses(name, iter(values))
        single = np.array([fd.losses(name, [v])[0] for v in values])
        np.testing.assert_allclose(batched, single, rtol=1e-9)
        assert np.isclose(single[0], self.plain_loss(m64, x, mode, name, values[0]), rtol=1e-9)

    def test_reused_buffer_probes(self, rng):
        # finite_diff_check hands over one buffer, mutated between draws
        from egnet.backbone import _FDLoss

        m64 = tiny(seed=3).astype(np.float64)
        x = Tensor(rng.normal(size=(1, 3, 32, 32)))
        fd = _FDLoss(m64, x, Mode(stats="batch", dropout_seed=4))
        name = "s1.b1.ega.conv3"
        values = self.probe_values(m64.params[name].value.data, rng, 70)
        buf = np.empty_like(values[0])

        def draws():
            for v in values:
                buf[...] = v
                yield buf

        np.testing.assert_allclose(
            fd.losses(name, draws()), fd.losses(name, values), rtol=1e-9
        )

    @pytest.mark.parametrize("name", ["fixed.log7", "s1.b1.leg.norm.mean", "input"])
    def test_rejects_names_that_are_not_learnable(self, rng, name):
        from egnet.backbone import _FDLoss
        from egnet.errors import ContractError

        m64 = tiny(seed=3).astype(np.float64)
        fd = _FDLoss(m64, Tensor(rng.normal(size=(1, 3, 32, 32))), Mode(stats="batch"))
        with pytest.raises(ContractError):
            fd.losses(name, [np.zeros(1)])

    def test_non_finite_probe_names_parameter_and_first_coordinate(self, rng):
        from egnet.autograd import finite_diff_check
        from egnet.backbone import _FDLoss
        from egnet.errors import VerificationError

        m64 = tiny(seed=3).astype(np.float64)
        x = Tensor(rng.normal(size=(1, 3, 32, 32)))
        fd = _FDLoss(m64, x, Mode(stats="batch", dropout_seed=4))
        name = "s4.b2.out.norm.shift"
        base = m64.params[name].value.data.copy()
        base[7] = np.inf
        coords = np.random.default_rng(0).choice(base.size, size=20, replace=False)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(VerificationError) as err:
                finite_diff_check(fd, {name: base}, {name: np.zeros_like(base)},
                                  seed=0, coords_per_tensor=20)
        assert err.value.param == name
        assert err.value.coord == coords[0]


class TestGradcheckReachesStage4:
    def test_every_tensor_is_checked_on_a_nonzero_gradient_at_64(self):
        # At 32x32 the stage-4 maps are 1x1, where a batch-statistics norm
        # outputs its shift: most stage-4 gradients are exactly zero, and
        # such a tensor passes with error 0.0.  At 64x64 none does.
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 64, 64)).astype(np.float32))
        report = bb.backbone_gradcheck(tiny(), x, seed=0, coords_per_tensor=2)
        assert report.passed(1e-4), report.lines()[-1]
        assert [name for name, err in report.per_param.items() if err == 0.0] == []
        assert report.unseen == []

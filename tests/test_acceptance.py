"""Acceptance gate: the quantitative exit criteria for this library.

Each test prints one ``[acceptance] criterion N <name>: PASS|FAIL`` line;
run ``pytest tests/test_acceptance.py -v -s`` to see them inline.
"""

import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from egnet import ops
from egnet.backbone import (
    BackboneConfig,
    Mode,
    backbone_forward,
    backbone_gradcheck,
    build_model,
    edge_attention,
    gaussian_attention,
    param_breakdown,
)
from egnet.cli import main as cli_main
from egnet.kernels import gaussian_kernel, log_kernel, scharr_kernels
from egnet.tensor import Tensor
from egnet.weights import load_weights, save_weights

from oracles import (
    batchnorm_naive,
    conv2d_naive,
    depthwise_naive,
    gap_naive,
    maxpool_naive,
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} {name}: FAIL", flush=True)
        raise
    print(f"[acceptance] criterion {num} {name}: PASS", flush=True)


def test_criterion_1_shape_pyramid():
    with criterion(1, "shape pyramid"):
        start = time.monotonic()
        expected = {
            ("tiny", 64): [(1, 32, 16, 16), (1, 64, 8, 8), (1, 128, 4, 4), (1, 256, 2, 2)],
            ("tiny", 256): [(1, 32, 64, 64), (1, 64, 32, 32), (1, 128, 16, 16), (1, 256, 8, 8)],
            ("small", 64): [(1, 64, 16, 16), (1, 128, 8, 8), (1, 256, 4, 4), (1, 512, 2, 2)],
            ("small", 256): [(1, 64, 64, 64), (1, 128, 32, 32), (1, 256, 16, 16), (1, 512, 8, 8)],
        }
        for (variant, size), shapes in expected.items():
            model = build_model(BackboneConfig.for_variant(variant), seed=0)
            x = Tensor(np.random.default_rng(0).normal(size=(1, 3, size, size)).astype(np.float32))
            pyramid = backbone_forward(x, model, Mode(stats="batch"))
            assert [lvl.shape for lvl in pyramid.levels] == shapes, (variant, size)
            for lvl, stride in zip(pyramid.levels, (4, 8, 16, 32)):
                assert lvl.shape[2] == size // stride
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"shape pyramid took {elapsed:.1f}s"


def test_criterion_2_parameter_count():
    with criterion(2, "parameter count"):
        targets = {"tiny": 3.6e6, "small": 12.7e6}
        for variant, target in targets.items():
            model = build_model(BackboneConfig.for_variant(variant), seed=0)
            total = model.learnable_count()
            print(f"[acceptance] {variant} learnable total = {total}")
            for group, slot in param_breakdown(model).items():
                print(
                    f"[acceptance]   {variant} {group:<5} learnable={slot['learnable']:>9}"
                    f" stats={slot['stats']:>7} frozen={slot['frozen']:>4}"
                )
            ratio = total / target
            assert 0.7 <= ratio <= 1.3, f"{variant}: {total} vs target {target:.3g}"


def test_criterion_3_fixed_kernel_suite():
    with criterion(3, "fixed kernel suite"):
        for k, sigma in [(3, 1.0), (5, 0.5), (5, 1.0), (7, 1.0), (9, 0.5)]:
            g = gaussian_kernel(k, sigma)
            assert abs(g.sum() - 1.0) <= 1e-12
            cur = g
            for _ in range(4):
                np.testing.assert_allclose(cur, g, atol=1e-12)
                np.testing.assert_allclose(cur.T, g, atol=1e-12)
                cur = np.rot90(cur)
            m = log_kernel(k, sigma)
            assert abs(m.sum()) <= 1e-12
        raw = log_kernel(3, 1.0, zero_dc=False)
        np.testing.assert_allclose(raw[1, 1], 1.0 / math.pi, rtol=1e-9)
        for i, j in [(0, 1), (1, 0), (1, 2), (2, 1)]:
            assert abs(raw[i, j]) <= 1e-9
        sx, sy = scharr_kernels()
        np.testing.assert_array_equal(
            sx, [[-3.0, 0.0, 3.0], [-10.0, 0.0, 10.0], [-3.0, 0.0, 3.0]]
        )
        np.testing.assert_array_equal(
            sy, [[-3.0, -10.0, -3.0], [0.0, 0.0, 0.0], [3.0, 10.0, 3.0]]
        )


def test_criterion_4_edge_attention_physics():
    with criterion(4, "edge attention physics"):
        const = Tensor(np.full((1, 3, 12, 12), 2.5))
        assert (edge_attention(const).data <= 1e-5).all()

        step = np.zeros((1, 1, 10, 10))
        step[:, :, :, 5:] = 1.0
        a = edge_attention(Tensor(step)).data[0, 0]
        np.testing.assert_allclose(a[:, 4], 16.0, atol=1e-4)
        np.testing.assert_allclose(a[:, 5], 16.0, atol=1e-4)

        x = np.random.default_rng(3).normal(size=(1, 2, 11, 11))
        base = edge_attention(Tensor(x)).data
        for k in (1, 2, 3):
            rotated = edge_attention(
                Tensor(np.ascontiguousarray(np.rot90(x, k, axes=(2, 3))))
            ).data
            np.testing.assert_allclose(rotated, np.rot90(base, k, axes=(2, 3)), atol=1e-6)


def test_criterion_5_gaussian_attention_contraction():
    with criterion(5, "gaussian attention contraction"):
        const64 = Tensor(np.full((1, 2, 9, 9), -3.25))
        y = gaussian_attention(const64)
        np.testing.assert_allclose(y.data, const64.data, rtol=1e-12)
        const32 = Tensor(np.full((1, 2, 9, 9), 0.37, dtype=np.float32))
        np.testing.assert_allclose(gaussian_attention(const32).data, const32.data, rtol=1e-6)

        impulse = np.zeros((1, 1, 9, 9))
        impulse[0, 0, 4, 4] = 1.0
        stamp = gaussian_attention(Tensor(impulse)).data[0, 0, 2:7, 2:7]
        np.testing.assert_allclose(stamp, gaussian_kernel(5, 1.0), rtol=1e-6, atol=1e-12)


def test_criterion_6_gradient_correctness():
    with criterion(6, "gradient correctness"):
        start = time.monotonic()
        model = build_model(BackboneConfig.for_variant("tiny"), seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 32, 32)).astype(np.float32))
        report = backbone_gradcheck(model, x, eps=1e-5, seed=0, coords_per_tensor=200)
        print(f"[acceptance] gradcheck max_rel_err={report.max_rel_error:.3e} "
              f"params={len(report.per_param)} coords>=200 dtype={report.dtype}")
        assert report.dtype == "float64"
        assert report.max_rel_error < 1e-4

        frozen = {n for n, p in model.params.items() if p.frozen}
        assert not (frozen & set(report.per_param))
        # synthetic update step over every checked parameter leaves the
        # fixed kernels byte-identical
        m64 = model.astype(np.float64)
        before = {n: model.params[n].value.data.tobytes() for n in frozen}
        from egnet import autograd as ag
        from egnet.autograd import Tape
        from egnet.backbone import ParamView, _pyramid_forward, _pyramid_loss
        tape = Tape()
        pview = ParamView(m64, tape=tape)
        pyr = _pyramid_forward(
            tape.leaf(x.astype(np.float64), name="input"), pview, m64.config,
            Mode(stats="batch", dropout_seed=0),
        )
        grads = ag.backward(_pyramid_loss(pyr.levels))
        stepped = m64.with_values(
            {n: m64.params[n].value.data - 0.01 * g for n, g in grads.items() if n != "input"}
        )
        for n in frozen:
            assert stepped.params[n].value.astype(np.float32).data.tobytes() == before[n]

        elapsed = time.monotonic() - start
        print(f"[acceptance] gradcheck wall time {elapsed:.1f}s")
        assert elapsed < 300.0, f"gradcheck took {elapsed:.1f}s"


def test_criterion_7_residual_identity():
    with criterion(7, "residual identity"):
        model = build_model(BackboneConfig.for_variant("tiny"), seed=0)
        zeros = {}
        for i in range(1, 5):
            for j in range(1, model.config.blocks[i - 1] + 1):
                p = model.params[f"s{i}.b{j}.reduce"]
                zeros[p.name] = np.zeros(p.value.shape, dtype=np.float32)
        m0 = model.with_values(zeros)
        x = Tensor(np.random.default_rng(1).normal(size=(1, 3, 64, 64)).astype(np.float32))
        full = backbone_forward(x, m0, Mode())
        spine = backbone_forward(x, m0, Mode(), skip_blocks=True)
        for a, b in zip(full.levels, spine.levels):
            np.testing.assert_allclose(a.data, b.data, atol=1e-6)

        # per-block exactness on its own input
        from egnet.backbone import ParamView, leg_block_forward
        xb = Tensor(np.random.default_rng(2).normal(size=(1, 32, 8, 8)).astype(np.float32))
        out = leg_block_forward(xb, 1, ParamView(m0), "s1.b1", m0.config, Mode())
        np.testing.assert_array_equal(out.data, xb.data)


def test_criterion_8_oracle_equivalence():
    with criterion(8, "oracle equivalence"):
        rng = np.random.default_rng(1234)
        for trial in range(100):
            n = int(rng.integers(1, 3))
            c = int(rng.integers(1, 9))
            cout = int(rng.integers(1, 9))
            k = int(rng.choice([1, 3, 5]))
            h = int(rng.integers(max(k, 2), 13))
            w = int(rng.integers(max(k, 2), 13))
            stride = int(rng.choice([1, 2]))
            padding = str(rng.choice([ops.ZERO, ops.REPLICATE]))
            x = Tensor(rng.normal(size=(n, c, h, w)).astype(np.float32))
            wt = Tensor(rng.normal(size=(cout, c, k, k)).astype(np.float32))
            got = ops.conv2d(x, wt, stride=stride, padding=padding)
            ref = conv2d_naive(x.data, wt.data, stride=stride, padding=padding)
            np.testing.assert_allclose(got.data, ref, rtol=1e-5, atol=1e-5)

            kd = Tensor(rng.normal(size=(c, 1, k, k)).astype(np.float32))
            got = ops.depthwise_conv2d(x, kd, stride=stride, padding=padding)
            ref = depthwise_naive(x.data, kd.data, stride=stride, padding=padding)
            np.testing.assert_allclose(got.data, ref, rtol=1e-5, atol=1e-5)

            np.testing.assert_array_equal(ops.maxpool2d(x).data, maxpool_naive(x.data))
            np.testing.assert_allclose(
                ops.global_avg_pool(x).data, gap_naive(x.data), rtol=1e-5, atol=1e-5
            )
            scale = Tensor(rng.normal(size=c).astype(np.float32))
            shift = Tensor(rng.normal(size=c).astype(np.float32))
            got = ops.batchnorm2d(x, scale, shift, mode="batch")
            ref = batchnorm_naive(x.data, scale.data, shift.data)
            np.testing.assert_allclose(got.data, ref, rtol=1e-4, atol=1e-5)


def test_criterion_9_determinism_and_persistence(tmp_path):
    with criterion(9, "determinism and persistence"):
        # same seed -> byte-identical weight files
        p1, p2 = str(tmp_path / "a.legw"), str(tmp_path / "b.legw")
        save_weights(build_model(BackboneConfig.for_variant("tiny"), seed=17), p1)
        save_weights(build_model(BackboneConfig.for_variant("tiny"), seed=17), p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

        # save -> load -> save byte-exact
        p3 = str(tmp_path / "c.legw")
        save_weights(load_weights(p1), p3)
        assert Path(p1).read_bytes() == Path(p3).read_bytes()

        # repeated feature extraction is byte-identical
        px = np.zeros((64, 64, 3), dtype=np.uint8)
        px[:, 32:] = 255
        ppm = str(tmp_path / "step.ppm")
        with open(ppm, "wb") as fh:
            fh.write(b"P6\n64 64\n255\n")
            fh.write(px.tobytes())
        d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        for d in (d1, d2):
            assert cli_main(
                ["features", "--weights", p1, "--image", ppm,
                 "--out-dir", d, "--dump-attention"]
            ) == 0
        names1 = sorted(os.listdir(d1))
        assert names1 == sorted(os.listdir(d2)) and len(names1) >= 15
        for name in names1:
            a = Path(os.path.join(d1, name)).read_bytes()
            b = Path(os.path.join(d2, name)).read_bytes()
            assert a == b, name

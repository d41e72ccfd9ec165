"""Tests of the benchmark itself: tracing, generators and calibration.

Run from the repository root with ``python -m pytest perfbench``.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from egnet import backbone as bb  # noqa: E402
from egnet.tensor import Tensor  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def tiny():
    return bb.build_model(bb.BackboneConfig.for_variant("tiny"), seed=3)


def _input(side=64):
    return Tensor(wl.normalized_batch(5, 0, 1, side))


def test_traced_forward_is_byte_identical(tiny):
    x = _input()
    plain = bb.backbone_forward(x, tiny, bb.Mode(stats="batch"))
    tracer = spans.Tracer()
    tracer.request = 0
    with tracer:
        traced = bb.backbone_forward(x, tiny, bb.Mode(stats="batch"))
    for a, b in zip(plain.levels, traced.levels):
        assert a.data.tobytes() == b.data.tobytes()
    names = {rec[0] for rec in tracer.spans}
    assert {"backbone.backbone_forward", "backbone.log_stem_forward", "ops.conv2d",
            "autograd.batchnorm2d"} <= names


def test_every_wrapper_is_removed(tiny):
    before = list(spans.egnet_bindings())
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert list(spans.egnet_bindings()) != before
            raise RuntimeError("request failed inside the traced window")
    assert list(spans.egnet_bindings()) == before


def test_traced_spans_account_for_the_request(tiny):
    import time

    tracer = spans.Tracer()
    tracer.request = 0
    with tracer:
        t0 = time.perf_counter()
        bb.backbone_forward(_input(), tiny, bb.Mode(stats="batch"))
        elapsed = time.perf_counter() - t0
    metrics = spans.layer_metrics(tracer.spans, 1)
    assert metrics["ops.conv2d_k7.calls"] == 1
    assert metrics["ops.depthwise_k9.calls"] == 1
    assert metrics["ops.batchnorm2d.calls"] == 81
    assert set(metrics) == set(spans.per_layer_units())
    assert 0.5 < spans.leaf_share(tracer.spans, elapsed) <= 1.0


def test_self_time_subtracts_children():
    recs = [
        ["cli.main", 0, 100, -1, 0, None],
        ["weights.load_weights", 10, 30, 0, 0, 0],
        ["ops.add", 40, 90, 0, 0, ("eltwise", 1, 1)],
    ]
    assert spans.self_times(recs) == [30, 20, 50]
    assert spans.leaf_flags(recs) == [False, True, True]


@pytest.mark.parametrize("make", [
    lambda seed: wl.synthetic_pixels(seed, 4, 40, 48),
    lambda seed: wl.normalized_batch(seed, 4, 2, 32),
])
def test_generators_depend_only_on_seed(make):
    assert np.array_equal(make(7), make(7))
    assert not np.array_equal(make(7), make(8))


def test_program_receives_only_generated_inputs(tmp_path):
    work = wl.FeaturesWorkload("tiny", 60, 64)
    work.seed, work.workdir = 9, str(tmp_path)
    work.weights, work.out_dir = str(tmp_path / "w.legw"), str(tmp_path / "out")
    argv = work.make_input(3)
    assert argv[0] == "features"
    values = dict(zip(argv[1::2], argv[2::2]))
    assert values.pop("--fit") == "pad"
    assert all(os.path.dirname(p) == str(tmp_path) for p in values.values())
    image = argv[argv.index("--image") + 1]
    with open(image, "rb") as fh:
        assert fh.read() == wl.ppm_bytes(wl.synthetic_pixels(9, 3, 60, 60))

    train = wl.TrainWorkload()
    train.seed = 9
    assert np.array_equal(train.make_input(3), wl.normalized_batch(9, 3, 2, 256))


def test_calibration_matches_batch_statistics():
    x = _input()
    model = wl.features_model("tiny", 3)
    calibrated, batch_levels = wl.calibrate(model, x)
    assert calibrated.params["s4.b2.out.norm.var"] is not model.params["s4.b2.out.norm.var"]
    running = bb.backbone_forward(x, calibrated, bb.Mode())
    for lvl, ref in zip(running.levels, batch_levels):
        assert np.max(np.abs(lvl.data - ref)) <= wl.CALIBRATION_RTOL * np.max(np.abs(ref))

"""Reverse-mode tape: per-op gradient checks and structural contracts."""

import inspect
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from egnet import autograd as ag
from egnet import ops
from egnet.autograd import Tape, finite_diff_check
from egnet.backbone import (
    FIXED_KERNELS,
    BackboneConfig,
    Mode,
    ParamView,
    _pyramid_forward,
    _pyramid_loss,
    build_model,
    eca_kernel_size,
    edge_attention,
    leg_block_forward,
)
from egnet.errors import ConfigError, ContractError, VerificationError
from egnet.tensor import Tensor

from conftest import gelu_probes
from oracles import conv1d_naive, depthwise_naive


def check_op_grads(builder, arrays, *, coords=60, eps=1e-5, tol=1e-6, seed=0):
    """Compare taped gradients of a projected output against central differences.

    ``builder`` maps a dict of values (Var or Tensor) to the op output; the
    loss is a fixed random projection of that output, which exercises every
    output coordinate with a distinct weight.
    """
    arrays = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
    probe = builder({k: Tensor(v) for k, v in arrays.items()})
    proj = Tensor(np.random.default_rng(999).normal(size=probe.shape))

    tape = Tape()
    leaves = {k: tape.leaf(Tensor(v), name=k) for k, v in arrays.items()}
    loss = ag.sum_all(ag.mul(builder(leaves), proj))
    analytic = ag.backward(loss)

    def loss_fn(overrides):
        vals = {k: Tensor(overrides.get(k, arrays[k])) for k in arrays}
        out = builder(vals)
        return float((out.data * proj.data).sum())

    report = finite_diff_check(
        loss_fn, arrays, analytic, eps=eps, seed=seed, coords_per_tensor=coords
    )
    assert report.passed(tol), report.lines()
    return analytic


def assert_dead_taps_zero(grad, hw, stride):
    """Kernel rows/cols that read only zero padding get exactly zero gradient."""
    k = grad.shape[-1]
    p = (k - 1) // 2
    for axis, size in zip((-2, -1), hw):
        out = (size + 2 * p - k) // stride + 1
        dead = [i for i in range(k)
                if not any(0 <= o * stride + i - p < size for o in range(out))]
        assert not np.take(grad, dead, axis=axis).any()


# The odd-sized map under both paddings, and maps so small under zero
# padding that some kernel taps read only padding.
MAPS = pytest.mark.parametrize(
    "padding, hw",
    [(ops.ZERO, (7, 9)), (ops.REPLICATE, (7, 9)), (ops.ZERO, (1, 1)), (ops.ZERO, (2, 2))],
    ids=["zero-7x9", "replicate-7x9", "zero-1x1", "zero-2x2"],
)


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self, rng):
        x = rng.normal(size=(1, 2, 3, 3))
        tape = Tape()
        xv = tape.leaf(Tensor(x), name="x")
        grads = ag.backward(ag.sum_all(xv))
        np.testing.assert_array_equal(grads["x"], np.ones_like(x))

    def test_half_quadratic_gradient_is_x(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        tape = Tape()
        xv = tape.leaf(Tensor(x), name="x")
        loss = ag.scale(ag.sum_all(ag.mul(xv, xv)), 0.5)
        grads = ag.backward(loss)
        np.testing.assert_allclose(grads["x"], x, rtol=1e-12)

    def test_add_splits_and_mul_cross_routes(self):
        a, b = 3.0, -2.0
        tape = Tape()
        av = tape.leaf(Tensor(np.array(a)), name="a")
        bv = tape.leaf(Tensor(np.array(b)), name="b")
        grads = ag.backward(ag.sum_all(ag.add(av, bv)))
        assert grads["a"] == 1.0 and grads["b"] == 1.0
        tape = Tape()
        av = tape.leaf(Tensor(np.array(a)), name="a")
        bv = tape.leaf(Tensor(np.array(b)), name="b")
        grads = ag.backward(ag.sum_all(ag.mul(av, bv)))
        assert grads["a"] == b and grads["b"] == a

    def test_spent_gradients_are_freed(self):
        # Every scale VJP returns a new array; the sweep should hold only
        # the gradients still to be passed on, not one per node.
        x = np.ones(1 << 20)
        tape = Tape()
        v = tape.leaf(Tensor(x), name="x")
        for _ in range(20):
            v = ag.scale(v, 1.01)
        loss = ag.sum_all(v)
        tracemalloc.start()
        try:
            ag.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * x.nbytes

    def test_non_scalar_loss_rejected(self, rng):
        tape = Tape()
        xv = tape.leaf(Tensor(rng.normal(size=(1, 1, 2, 2))), name="x")
        with pytest.raises(ContractError):
            ag.backward(xv)

    def test_unreached_leaf_gets_zeros(self, rng):
        tape = Tape()
        xv = tape.leaf(Tensor(rng.normal(size=(1, 1, 2, 2))), name="x")
        unused = tape.leaf(Tensor(rng.normal(size=(3,))), name="unused")
        grads = ag.backward(ag.sum_all(xv))
        np.testing.assert_array_equal(grads["unused"], np.zeros(3))

    def test_duplicate_leaf_name_rejected(self, rng):
        tape = Tape()
        tape.leaf(Tensor(rng.normal(size=3)), name="x")
        with pytest.raises(ContractError):
            tape.leaf(Tensor(rng.normal(size=3)), name="x")

    def test_untaped_loss_rejected(self, rng):
        with pytest.raises(ContractError):
            ag.backward(ag.sum_all(Tensor(rng.normal(size=3))))

    def test_taped_dropout_rate_one_rejected(self, rng):
        xv = Tape().leaf(Tensor(rng.normal(size=(1, 1, 2, 2))), name="x")
        with pytest.raises(ConfigError):
            ag.dropout(xv, 1.0, rng=np.random.default_rng(0))

    def test_frozen_leaf_absent_from_gradients(self, rng):
        tape = Tape()
        xv = tape.leaf(Tensor(rng.normal(size=(1, 2, 4, 4))), name="x")
        k = tape.leaf(Tensor(np.ones((3, 3)) / 9.0), name="kern", frozen=True)
        grads = ag.backward(ag.sum_all(ag.depthwise_conv2d(xv, k)))
        assert "kern" not in grads
        assert "x" in grads


def _normal(*shape):
    return Tensor(np.random.default_rng(3).normal(size=shape))


# One call of each public op: its operands (all Tensors) and its keyword
# arguments, made fresh per call so that dropout draws from a new generator.
RECORDED_OPS = {
    "conv2d": lambda: ((_normal(1, 2, 5, 5), _normal(3, 2, 3, 3)), {}),
    "depthwise_conv2d": lambda: ((_normal(1, 2, 5, 5), _normal(2, 1, 3, 3)), {}),
    "conv1d_channels": lambda: ((_normal(1, 4), _normal(3)), {}),
    "maxpool2d": lambda: ((_normal(1, 2, 4, 4),), {}),
    "global_avg_pool": lambda: ((_normal(1, 2, 4, 4),), {}),
    "batchnorm2d": lambda: ((_normal(2, 2, 3, 3), _normal(2), _normal(2)), {"mode": "batch"}),
    "gelu": lambda: ((_normal(1, 2, 3, 3),), {}),
    "sigmoid": lambda: ((_normal(1, 2, 3, 3),), {}),
    "add": lambda: ((_normal(1, 2, 3, 3), _normal(1, 2, 3, 3)), {}),
    "mul": lambda: ((_normal(1, 2, 3, 3), _normal(1, 2, 3, 3)), {}),
    "scale_channels": lambda: ((_normal(1, 2, 3, 3), _normal(1, 2)), {}),
    "sqrt_eps": lambda: ((Tensor(np.abs(_normal(1, 2, 3, 3).data)),), {}),
    "dropout": lambda: ((_normal(1, 2, 3, 3),), {"rate": 0.5, "rng": np.random.default_rng(0)}),
    "sum_all": lambda: ((_normal(1, 2, 3, 3),), {}),
    "scale": lambda: ((_normal(1, 2, 3, 3),), {"alpha": 2.0}),
}


class TestRecordingRule:
    """Every op tapes its result exactly when an operand is a Var."""

    def test_table_covers_every_op(self):
        public = {
            name for name, fn in vars(ag).items()
            if inspect.isfunction(fn) and fn.__module__ == ag.__name__ and not name.startswith("_")
        }
        assert public - {"backward", "finite_diff_check"} == set(RECORDED_OPS)

    @pytest.mark.parametrize("name", sorted(RECORDED_OPS))
    def test_op_records_through_one_rule(self, monkeypatch, name):
        operands = RECORDED_OPS[name]()[0]

        def call(*args):
            return getattr(ag, name)(*args, **RECORDED_OPS[name]()[1])

        with monkeypatch.context() as m:
            m.setattr(ag, "_Node", None)  # a tape node would fail to build
            assert type(call(*operands)) is Tensor

        tape = Tape()
        out = call(*(tape.leaf(o, frozen=True) for o in operands))
        assert isinstance(out, ag.Var) and out.tape is tape
        node = tape.nodes[out.index]
        assert node.parents == tuple(range(len(operands)))
        assert node.vjp is None and not node.needs_grad

        if len(operands) > 1:
            first, rest = Tape(), Tape()
            with pytest.raises(ContractError, match="different tapes"):
                call(first.leaf(operands[0]), *(rest.leaf(o) for o in operands[1:]))


class TestTapeMemory:
    """A node keeps only what its needed VJPs read, and backward releases it."""

    def test_backward_releases_every_vjp(self, rng):
        tape = Tape()
        xv = tape.leaf(Tensor(rng.normal(size=(1, 2, 4, 4))), name="x")
        h = ag.scale(xv, 2.0)  # an array made in the forward, read by gelu's VJP
        made = weakref.ref(h.value.data)
        loss = ag.sum_all(ag.gelu(h))
        del h
        assert made() is not None
        ag.backward(loss)
        assert all(node.vjp is None for node in tape.nodes)
        assert made() is None

    def test_second_sweep_rejected(self, rng):
        tape = Tape()
        xv = tape.leaf(Tensor(rng.normal(size=(1, 2, 4, 4))), name="x")
        loss = ag.sum_all(ag.gelu(xv))
        ag.backward(loss)
        with pytest.raises(ContractError, match="swept"):
            ag.backward(loss)

    @staticmethod
    def _norm_freed_behind_gelu(rng, **stats):
        tape = Tape()
        xv = tape.leaf(Tensor(rng.normal(size=(2, 3, 4, 4))), name="x")
        sv = tape.leaf(Tensor(rng.normal(size=3)), name="s")
        bv = tape.leaf(Tensor(rng.normal(size=3)), name="b")
        n = ag.batchnorm2d(xv, sv, bv, **stats)
        y = weakref.ref(n.value.data)
        out = ag.gelu(n)
        del n
        assert y() is None
        assert set(ag.backward(ag.sum_all(out))) == {"x", "s", "b"}

    def test_norm_output_freed_behind_gelu(self, rng):
        self._norm_freed_behind_gelu(rng, mode="batch")

    def test_running_norm_output_freed_behind_gelu(self, rng):
        self._norm_freed_behind_gelu(rng, mode="running", mean=Tensor(rng.normal(size=3)),
                                     var=Tensor(rng.uniform(0.5, 2.0, size=3)))

    def test_frozen_kernel_depthwise_keeps_no_input(self, rng):
        tape = Tape()
        xv = tape.leaf(Tensor(rng.normal(size=(1, 2, 6, 6))), name="x")
        k = tape.leaf(Tensor(FIXED_KERNELS["fixed.scharr_x"]), frozen=True)
        h = ag.scale(xv, 2.0)
        made = weakref.ref(h.value.data)
        out = ag.depthwise_conv2d(h, k, padding=ops.REPLICATE)
        del h
        assert made() is None
        assert ag.backward(ag.sum_all(out))["x"].shape == (1, 2, 6, 6)

    def test_dropout_keeps_bool_mask(self, rng):
        tape = Tape()
        xv = tape.leaf(Tensor(rng.normal(size=(1, 2, 6, 6))), name="x")
        ag.dropout(xv, 0.3, rng=np.random.default_rng(5))
        cells = [c.cell_contents for c in tape.nodes[-1].vjp.__closure__]
        kept = [a for a in cells if isinstance(a, np.ndarray)]
        assert [a.dtype for a in kept] == [np.dtype(bool)]


# (mode, dtype) of a norm; batch mode is the unnamed case.
NORM_CASES = pytest.mark.parametrize("mode, dtype", [
    pytest.param("batch", np.float32, id="float32"),
    pytest.param("batch", np.float64, id="float64"),
    pytest.param("running", np.float32, id="running-float32"),
    pytest.param("running", np.float64, id="running-float64"),
])


class TestNormRemat:
    """A norm's consumers recompute its output from the ``x - mu`` it keeps."""

    @staticmethod
    def _leaves(tape, rng, dtype):
        arrays = dict(x=rng.normal(size=(2, 3, 5, 5)), s=rng.normal(size=3),
                      b=rng.normal(size=3), w=rng.normal(size=(4, 3, 3, 3)),
                      a=rng.normal(size=(2, 3, 5, 5)))
        return {k: tape.leaf(Tensor(v.astype(dtype)), name=k) for k, v in arrays.items()}

    @staticmethod
    def _norm(v, mode):
        if mode == "batch":
            return ag.batchnorm2d(v["x"], v["s"], v["b"], mode="batch")
        dtype = v["x"].value.dtype
        return ag.batchnorm2d(v["x"], v["s"], v["b"], mode="running",
                              mean=Tensor(np.array([0.3, -0.2, 0.1], dtype=dtype)),
                              var=Tensor(np.array([0.5, 1.0, 2.0], dtype=dtype)))

    @NORM_CASES
    def test_remat_is_bitwise_output(self, rng, mode, dtype):
        v = self._leaves(Tape(), rng, dtype)
        out = self._norm(v, mode)
        y = out.remat()
        assert y.dtype == dtype
        assert y.tobytes() == out.value.data.tobytes()

    @NORM_CASES
    @pytest.mark.parametrize("consumer", ["gelu", "conv2d", "mul"])
    def test_consumer_gradients_match_kept_output(self, mode, dtype, consumer):
        consumers = {
            "gelu": lambda n, v: ag.gelu(n),
            "conv2d": lambda n, v: ag.conv2d(n, v["w"]),
            "mul": lambda n, v: ag.mul(v["a"], n),
        }

        def grads(remat):
            tape = Tape()
            v = self._leaves(tape, np.random.default_rng(3), dtype)
            n = self._norm(v, mode)
            assert n.remat is not None
            if not remat:
                n.remat = None  # the consumer keeps y itself
            out = consumers[consumer](n, v)
            proj = Tensor(np.random.default_rng(4).normal(size=out.value.shape).astype(dtype))
            return ag.backward(ag.sum_all(ag.mul(out, proj)))

        ref, got = grads(False), grads(True)
        assert set(ref) == set(got)
        for name in ref:
            assert got[name].tobytes() == ref[name].tobytes(), name


class TestPerOpGradients:
    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("stride", [1, 2])
    @MAPS
    def test_conv2d(self, rng, k, stride, padding, hw):
        grads = check_op_grads(
            lambda v: ag.conv2d(v["x"], v["w"], stride=stride, padding=padding),
            dict(x=rng.normal(size=(2, 3, *hw)), w=rng.normal(size=(4, 3, k, k))),
        )
        if padding == ops.ZERO:
            assert_dead_taps_zero(grads["w"], hw, stride)

    @pytest.mark.parametrize("k", [3, 7])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [ops.ZERO, ops.REPLICATE])
    def test_conv2d_row_tiles(self, rng, conv_tiles, k, stride, padding):
        x = rng.normal(size=(2, 3, 7, 9))
        conv_tiles(x.shape, k, stride, padding, x.dtype)
        check_op_grads(
            lambda v: ag.conv2d(v["x"], v["w"], stride=stride, padding=padding),
            dict(x=x, w=rng.normal(size=(4, 3, k, k))),
        )

    @pytest.mark.parametrize("k", [3, 7])
    @pytest.mark.parametrize("padding", [ops.ZERO, ops.REPLICATE])
    def test_conv2d_row_lowering(self, rng, conv_tiles, k, padding):
        # c_out <= c_in: the forward runs ops._conv2d_rows, and under zero
        # padding so does the input VJP.
        x, w = rng.normal(size=(2, 3, 7, 9)), rng.normal(size=(3, 3, k, k))
        assert ops._lowers_rows(x.shape, w.shape, 1)
        conv_tiles(x.shape, k, 1, padding, x.dtype, cout=3)
        check_op_grads(lambda v: ag.conv2d(v["x"], v["w"], padding=padding), dict(x=x, w=w))

    def test_conv2d_strided_replicate(self, rng):
        check_op_grads(
            lambda v: ag.conv2d(v["x"], v["w"], stride=2, padding=ops.REPLICATE),
            dict(x=rng.normal(size=(1, 2, 6, 6)), w=rng.normal(size=(3, 2, 5, 5))),
        )

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @MAPS
    def test_depthwise_per_channel(self, rng, k, stride, padding, hw):
        grads = check_op_grads(
            lambda v: ag.depthwise_conv2d(v["x"], v["k"], stride=stride, padding=padding),
            dict(x=rng.normal(size=(1, 3, *hw)), k=rng.normal(size=(3, 1, k, k))),
        )
        if padding == ops.ZERO:
            assert_dead_taps_zero(grads["k"], hw, stride)

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [ops.ZERO, ops.REPLICATE])
    def test_depthwise_row_tiles(self, rng, conv_tiles, k, stride, padding):
        x = rng.normal(size=(2, 3, 7, 9))
        conv_tiles(x.shape, k, stride, padding, x.dtype)
        check_op_grads(
            lambda v: ag.depthwise_conv2d(v["x"], v["k"], stride=stride, padding=padding),
            dict(x=x, k=rng.normal(size=(3, 1, k, k))),
        )

    @pytest.mark.parametrize("stride", [1, 2])
    @MAPS
    def test_depthwise_shared_kernel(self, rng, stride, padding, hw):
        check_op_grads(
            lambda v: ag.depthwise_conv2d(v["x"], v["k"], stride=stride, padding=padding),
            dict(x=rng.normal(size=(1, 4, *hw)), k=rng.normal(size=(5, 5))),
        )

    @pytest.mark.parametrize("name", ["fixed.gauss9_s05", "fixed.scharr_y", "fixed.log7"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [ops.ZERO, ops.REPLICATE])
    def test_depthwise_low_rank_fixed_kernel(self, rng, name, stride, padding):
        kern = FIXED_KERNELS[name]
        assert ops._low_rank(kern) is not None
        check_op_grads(
            lambda v: ag.depthwise_conv2d(v["x"], kern, stride=stride, padding=padding),
            dict(x=rng.normal(size=(1, 2, 9, 10))),
        )

    @pytest.mark.parametrize("name", ["fixed.gauss9_s05", "fixed.scharr_y", "fixed.log7"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [ops.ZERO, ops.REPLICATE])
    def test_depthwise_low_rank_fixed_kernel_band_blocks(self, rng, band_blocks, name, stride,
                                                         padding):
        self.test_depthwise_low_rank_fixed_kernel(rng, name, stride, padding)

    # Every ECA width of both variants, each with its own kernel size; stage 4's
    # gradients sit under the whole-model check's floor, so only this test sees them.
    @pytest.mark.parametrize("c", [16, 32, 64, 128, 256, 512])
    def test_conv1d_channels(self, rng, c):
        check_op_grads(
            lambda v: ag.conv1d_channels(v["v"], v["w"]),
            dict(v=rng.normal(size=(2, c)), w=rng.normal(size=eca_kernel_size(c))),
        )

    def test_maxpool(self, rng):
        check_op_grads(
            lambda v: ag.maxpool2d(v["x"]),
            dict(x=rng.normal(size=(2, 3, 6, 6))),
        )

    def test_global_avg_pool(self, rng):
        check_op_grads(
            lambda v: ag.global_avg_pool(v["x"]),
            dict(x=rng.normal(size=(2, 4, 5, 5))),
        )

    @pytest.mark.parametrize("frozen", ["", "s", "b", "sb", "x"],
                             ids=["learnable", "frozen-scale", "frozen-shift", "frozen-both",
                                  "constant-input"])
    @pytest.mark.parametrize("mode", ["batch", "running"])
    def test_batchnorm(self, rng, mode, frozen):
        arrays = dict(x=rng.normal(size=(2, 3, 4, 4)), s=rng.normal(size=3), b=rng.normal(size=3))
        stats = {} if mode == "batch" else dict(
            mean=Tensor(rng.normal(size=3)), var=Tensor(rng.uniform(0.5, 2.0, size=3)))
        const = {k: Tensor(arrays.pop(k)) for k in frozen}  # enter the tape as constants
        grads = check_op_grads(
            lambda v: ag.batchnorm2d(*({**v, **const}[k] for k in "xsb"), mode=mode, **stats),
            arrays, tol=1e-5 if mode == "batch" else 1e-6,
        )
        assert set(grads) == set(arrays)

    def test_gelu(self, rng):
        check_op_grads(lambda v: ag.gelu(v["x"]), dict(x=rng.normal(size=(1, 2, 5, 5))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_vjp_bitwise_equals_textbook_formula(self, rng, dtype):
        c = math.sqrt(2.0 / math.pi)
        grads = gelu_probes(rng, dtype, 100_000)
        for name, x in gelu_probes(rng, dtype, 100_000).items():
            g = grads[name]
            with np.errstate(over="ignore", invalid="ignore"):
                t = np.tanh(c * (x + 0.044715 * x * x * x))
                du = c * (1.0 + 3.0 * 0.044715 * x * x)
                textbook = g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)
                out = ag.gelu(Tape().leaf(Tensor(x), name="x"))
                (got,) = out.tape.nodes[out.index].vjp(g, (True,))
            assert got.dtype == dtype and got.shape == x.shape, name
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(textbook).tobytes(), name

    def test_sigmoid(self, rng):
        check_op_grads(lambda v: ag.sigmoid(v["x"]), dict(x=rng.normal(size=(2, 8))))

    def test_scale_channels(self, rng):
        check_op_grads(
            lambda v: ag.scale_channels(v["x"], v["g"]),
            dict(x=rng.normal(size=(2, 3, 4, 4)), g=rng.normal(size=(2, 3))),
        )

    def test_sqrt_eps(self, rng):
        check_op_grads(
            lambda v: ag.sqrt_eps(v["x"]),
            dict(x=rng.uniform(0.05, 2.0, size=(1, 2, 4, 4))),
        )

    def test_dropout_frozen_mask(self, rng):
        check_op_grads(
            lambda v: ag.dropout(v["x"], 0.3, rng=np.random.default_rng(5)),
            dict(x=rng.normal(size=(1, 2, 6, 6))),
        )


_KERNEL_RNG = np.random.default_rng(17)
ADJOINT_KERNELS = {
    "per-channel-3": _KERNEL_RNG.normal(size=(3, 1, 3, 3)),
    "per-channel-5": _KERNEL_RNG.normal(size=(3, 1, 5, 5)),
    "shared-5": _KERNEL_RNG.normal(size=(5, 5)),
    **FIXED_KERNELS,
}


def assert_adjoint(op, oracle, x, rng):
    """``<A x, g> = <x, A^T g>`` in float64, with ``A x`` from the loop oracle
    and ``A^T g`` from the taped VJP of ``op``."""
    ax = oracle(x)
    g = rng.normal(size=ax.shape)
    tape = Tape()
    xv = tape.leaf(Tensor(x), name="x")
    atg = ag.backward(ag.sum_all(ag.mul(op(xv), Tensor(g))))["x"]
    bound = 1e-12 * np.linalg.norm(ax) * np.linalg.norm(g)
    assert abs(np.vdot(ax, g) - np.vdot(x, atg)) <= bound


class TestAdjoint:
    @pytest.mark.parametrize("name", sorted(ADJOINT_KERNELS))
    @pytest.mark.parametrize("stride", [1, 2])
    @MAPS
    def test_depthwise(self, rng, name, stride, padding, hw):
        kern = ADJOINT_KERNELS[name]
        assert_adjoint(
            lambda v: ag.depthwise_conv2d(v, kern, stride=stride, padding=padding),
            lambda a: depthwise_naive(a, kern, stride=stride, padding=padding),
            rng.normal(size=(2, 3, *hw)),
            rng,
        )

    @pytest.mark.parametrize("shape", [(2, 16)], ids=["2x16"])
    def test_conv1d_channels(self, rng, shape):
        w = rng.normal(size=5)
        assert_adjoint(
            lambda v: ag.conv1d_channels(v, w),
            lambda a: conv1d_naive(a, w),
            rng.normal(size=shape),
            rng,
        )


def _maxpool_input_grad(x, upstream):
    tape = Tape()
    xv = tape.leaf(Tensor(x), name="x")
    return ag.backward(ag.sum_all(ag.mul(ag.maxpool2d(xv), Tensor(upstream))))["x"]


class TestMaxpoolRouting:
    def test_ties_go_to_first_maximum_in_row_major_order(self):
        x = np.array([[[[1.0, 2.0, 5.0, 5.0],
                        [2.0, 0.0, 5.0, 5.0],
                        [3.0, 3.0, 7.0, 0.0],
                        [3.0, 3.0, 1.0, 7.0]]]])
        gx = _maxpool_input_grad(x, np.array([[[[10.0, 20.0], [30.0, 40.0]]]]))
        expected = np.zeros_like(x)
        expected[0, 0, 0, 1] = 10.0
        expected[0, 0, 0, 2] = 20.0
        expected[0, 0, 2, 0] = 30.0
        expected[0, 0, 2, 2] = 40.0
        np.testing.assert_array_equal(gx, expected)

    def test_odd_tail_gets_zero_gradient(self, rng):
        x = rng.normal(size=(2, 3, 5, 7))
        upstream = rng.normal(size=(2, 3, 2, 3))
        gx = _maxpool_input_grad(x, upstream)
        assert not gx[:, :, 4, :].any() and not gx[:, :, :, 6].any()
        windows = gx[:, :, :4, :6].reshape(2, 3, 2, 2, 3, 2)
        np.testing.assert_array_equal(windows.sum(axis=(3, 5)), upstream)
        assert np.count_nonzero(gx) == upstream.size


class TestSqrtEpsAtZero:
    def test_gradient_finite_at_zero_input(self):
        tape = Tape()
        xv = tape.leaf(Tensor(np.zeros((1, 1, 3, 3))), name="x")
        grads = ag.backward(ag.sum_all(ag.sqrt_eps(xv)))
        assert np.isfinite(grads["x"]).all()
        np.testing.assert_allclose(grads["x"], 0.5 / 1e-6, rtol=1e-6)


class TestEdgeAttentionGradient:
    def test_matches_finite_differences(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))

        def builder(v):
            return edge_attention(v["x"])

        # spec-level fragment check: plain sum loss, 64-bit, 1e-4
        tape = Tape()
        xv = tape.leaf(Tensor(x), name="x")
        analytic = ag.backward(ag.sum_all(builder({"x": xv})))

        def loss_fn(overrides):
            return float(builder({"x": Tensor(overrides["x"])}).data.sum())

        report = finite_diff_check(
            loss_fn, {"x": x}, analytic, eps=1e-5, coords_per_tensor=72
        )
        assert report.passed(1e-4), report.lines()


class TestLegBlockGradient:
    def test_stage1_block_matches_finite_differences(self, rng):
        model = build_model(BackboneConfig.for_variant("tiny"), seed=3)
        m64 = model.astype(np.float64)
        x = rng.normal(size=(1, 32, 16, 16))
        mode = Mode(stats="batch", dropout_seed=11)

        tape = Tape()
        pview = ParamView(m64, tape=tape)
        xv = tape.leaf(Tensor(x), name="input")
        out = leg_block_forward(xv, 1, pview, "s1.b1", m64.config, mode)
        analytic = ag.backward(ag.scale(ag.sum_all(out), 1e-6))

        block_params = {
            n: p.value.data for n, p in m64.learnable_items() if n.startswith("s1.b1.")
        }
        block_params["input"] = x

        def loss_fn(overrides):
            xin = Tensor(overrides.get("input", x))
            pv = ParamView(m64.with_values({n: a for n, a in overrides.items() if n != "input"}))
            out = leg_block_forward(xin, 1, pv, "s1.b1", m64.config, mode)
            return 1e-6 * float(out.data.sum())

        report = finite_diff_check(
            loss_fn, block_params, analytic, eps=1e-5, coords_per_tensor=40
        )
        assert report.passed(1e-4), [l for l in report.lines()[-3:]]


class TestZeroBranchResidual:
    def test_input_gradient_is_exactly_upstream(self, rng):
        model = build_model(BackboneConfig.for_variant("tiny"), seed=0)
        model = model.with_values(
            {"s1.b1.reduce": np.zeros((32, 64, 1, 1), dtype=np.float32)}
        ).astype(np.float64)
        x = rng.normal(size=(1, 32, 8, 8))
        tape = Tape()
        pview = ParamView(model, tape=tape)
        xv = tape.leaf(Tensor(x), name="input")
        out = leg_block_forward(xv, 1, pview, "s1.b1", model.config, Mode(stats="batch"))
        grads = ag.backward(ag.sum_all(out))
        np.testing.assert_array_equal(grads["input"], np.ones_like(x))


class TestFrozenKernelContract:
    def test_no_entries_and_bytes_stable_after_update(self, rng):
        model = build_model(BackboneConfig.for_variant("tiny"), seed=1)
        m64 = model.astype(np.float64)
        x = Tensor(rng.normal(size=(1, 3, 32, 32)))
        tape = Tape()
        pview = ParamView(m64, tape=tape)
        pyramid = _pyramid_forward(
            tape.leaf(x, name="input"), pview, m64.config, Mode(stats="batch", dropout_seed=0)
        )
        grads = ag.backward(_pyramid_loss(pyramid.levels))
        frozen = {n for n, p in model.params.items() if p.frozen}
        assert frozen == {
            "fixed.log7", "fixed.gauss9_s05", "fixed.gauss5_s05",
            "fixed.gauss5_s10", "fixed.scharr_x", "fixed.scharr_y",
        }
        assert not (set(grads) & frozen)
        # gradients flow through the frozen ops to their inputs
        assert np.abs(grads["stem.conv7"]).max() > 0
        # synthetic sgd step on every reported gradient
        before = {n: model.params[n].value.data.tobytes() for n in frozen}
        stepped = model.astype(np.float64).with_values(
            {n: m64.params[n].value.data - 0.01 * g for n, g in grads.items() if n != "input"}
        )
        for n in frozen:
            assert stepped.params[n].value.astype(np.float32).data.tobytes() == before[n]


class TestRunningStatistics:
    def test_backward_returns_learnable_names_and_input(self, rng):
        model = build_model(BackboneConfig.for_variant("tiny"), seed=0)
        tape = Tape()
        pview = ParamView(model, tape=tape)
        x = tape.leaf(Tensor(rng.normal(size=(1, 3, 32, 32)).astype(np.float32)), name="input")
        with np.errstate(over="ignore", invalid="ignore"):
            pyramid = _pyramid_forward(x, pview, model.config, Mode())
            grads = ag.backward(_pyramid_loss(pyramid.levels))
        assert set(grads) == {name for name, _ in model.learnable_items()} | {"input"}


class TestNoNaNBackward:
    def test_block_backward_clean_over_many_seeds(self):
        model = build_model(BackboneConfig.for_variant("tiny"), seed=0).astype(np.float64)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(1, 32, 8, 8))
            tape = Tape()
            pview = ParamView(model, tape=tape)
            xv = tape.leaf(Tensor(x), name="input")
            out = leg_block_forward(xv, 1, pview, "s1.b1", model.config,
                                    Mode(stats="batch", dropout_seed=seed))
            grads = ag.backward(ag.sum_all(out))
            for g in grads.values():
                assert np.isfinite(g).all()

    def test_full_backbone_backward_clean(self):
        model = build_model(BackboneConfig.for_variant("tiny"), seed=0).astype(np.float64)
        for seed in range(3):
            x = Tensor(np.random.default_rng(seed).normal(size=(1, 3, 32, 32)))
            tape = Tape()
            pview = ParamView(model, tape=tape)
            pyramid = _pyramid_forward(
                tape.leaf(x, name="input"), pview, model.config,
                Mode(stats="batch", dropout_seed=seed),
            )
            grads = ag.backward(_pyramid_loss(pyramid.levels))
            for g in grads.values():
                assert np.isfinite(g).all()


class TestFiniteDiffCheckApi:
    def test_linear_fragment_is_nearly_exact(self, rng):
        # central differences of a linear map have no truncation term
        x = rng.normal(size=(1, 4, 2, 2))
        w = rng.normal(size=(2, 4, 1, 1))
        arrays = dict(x=x, w=w)
        tape = Tape()
        leaves = {k: tape.leaf(Tensor(v), name=k) for k, v in arrays.items()}
        analytic = ag.backward(ag.sum_all(ag.conv2d(leaves["x"], leaves["w"])))

        def loss_fn(overrides):
            vals = {k: Tensor(overrides.get(k, arrays[k])) for k in arrays}
            return float(ops.conv2d(vals["x"], vals["w"]).data.sum())

        report = finite_diff_check(loss_fn, arrays, analytic, eps=1e-5, coords_per_tensor=60)
        assert report.passed(1e-9), report.lines()

    def test_nan_loss_reports_coordinate(self):
        def loss_fn(overrides):
            return float("nan")

        with pytest.raises(VerificationError) as err:
            finite_diff_check(loss_fn, {"p": np.ones(3)}, {"p": np.zeros(3)})
        assert err.value.param == "p"
        assert err.value.coord is not None

    def test_report_lines_format(self, rng):
        x = rng.normal(size=(1, 1, 3, 3))
        tape = Tape()
        xv = tape.leaf(Tensor(x), name="x")
        analytic = ag.backward(ag.sum_all(ag.gelu(xv)))

        def loss_fn(overrides):
            return float(ops.gelu(Tensor(overrides["x"])).data.sum())

        report = finite_diff_check(loss_fn, {"x": x}, analytic, coords_per_tensor=9)
        lines = report.lines()
        assert any(line.startswith("param=x ") for line in lines)
        assert lines[-1].startswith("gradcheck max_rel_err=")

    @pytest.mark.parametrize(
        "settings",
        [dict(coords_per_tensor=0), dict(coords_per_tensor=-1), dict(eps=0.0),
         dict(eps=-1e-5), dict(eps=float("inf")), dict(eps=float("nan"))],
        ids=["coords=0", "coords=-1", "eps=0", "eps<0", "eps=inf", "eps=nan"],
    )
    def test_rejects_settings_that_check_nothing(self, settings):
        with pytest.raises(ConfigError):
            finite_diff_check(lambda overrides: 0.0, {"p": np.ones(3)}, {"p": np.zeros(3)},
                              **settings)

    def test_rejects_analytic_gradient_of_wrong_shape(self):
        with pytest.raises(VerificationError) as err:
            finite_diff_check(lambda overrides: 0.0, {"p": np.ones(3)}, {"p": np.zeros(4)})
        assert err.value.param == "p"

    def test_batched_loss_reports_first_bad_coordinate_in_sample_order(self):
        sample = np.random.default_rng(0).choice(50, size=20, replace=False)
        bad = {int(sample[11]), int(sample[4])}

        class Batched:
            def __call__(self, overrides):
                raise AssertionError("the batched evaluation should be used")

            def losses(self, name, values):
                return [
                    float("nan") if any(v.flat[c] != 0.0 for c in bad) else float(v.sum())
                    for v in values
                ]

        with pytest.raises(VerificationError) as err:
            finite_diff_check(Batched(), {"p": np.zeros(50)}, {"p": np.ones(50)},
                              seed=0, coords_per_tensor=20)
        assert err.value.param == "p"
        assert err.value.coord == sample[4]

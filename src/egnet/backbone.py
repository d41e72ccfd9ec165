"""The edge-Gaussian backbone: stem, downsampling, and LEG blocks.

Architecture summary (Tiny: C=32, Small: C=64; block counts [1, 4, 4, 2]):

* LoG stem: a learnable 7x7 conv (3->3) filtered by a fixed 7x7
  Laplacian-of-Gaussian, added back onto the image through a residual
  norm; then 3x3 convs down to half resolution, a pair of fixed Gaussian
  smoothers (9x9 and 5x5, sigma 0.5), and a DRFD down to stride 4 / width C.
* DRFD downsampling: a stride-2 3x3 conv branch plus a maxpool + 1x1 conv
  branch, summed and passed through norm + GELU.  Doubles width, halves
  the spatial extent.
* LEG block (shape preserving): an EGA module (edge attention in stage 1,
  Gaussian attention in stages 2-4, fused through a conv block and gated
  multiplication) followed by ECA channel gating, then a 1x1 expand
  (C->2C), 1x1 reduce (2C->C), dropout, norm, and a residual add.

Stage outputs form a four-level feature pyramid at strides 4/8/16/32 with
widths C, 2C, 4C, 8C.

Parameter naming is part of the weight-file contract; see the README for
the full table.  Fixed classical kernels appear once under ``fixed.*``
and are shared by every consumer.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import ops
from .autograd import GradReport, Tape, finite_diff_check
from .errors import ConfigError, ContractError, DimensionError
from .kernels import gaussian_kernel, log_kernel, scharr_kernels
from .tensor import DEFAULT_DTYPE, Tensor

VARIANTS = {"tiny": 32, "small": 64}

INPUT_MULTIPLE = 32  # the pyramid's total stride: input sides must be multiples of it

_INITS = ("he_normal", "ones", "zeros", "fixed_kernel")


@dataclass(frozen=True)
class BackboneConfig:
    """A variant; the paper fixes every other hyper-parameter, so they are constants."""

    variant: str

    blocks = (1, 4, 4, 2)
    bn_eps = ops.BN_EPS
    # ECA kernel-size rule of Wang et al., "ECA-Net" (arXiv 1910.03151).
    eca_gamma = 2
    eca_beta = 1
    dropout_rate = 0.1
    # Edge attention only where the resolution still carries edges.
    attention_kinds = ("edge", "gauss", "gauss", "gauss")

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected tiny or small")

    @classmethod
    def for_variant(cls, variant: str) -> "BackboneConfig":
        return cls(variant)

    @property
    def width(self) -> int:
        return VARIANTS[self.variant]

    @property
    def stage_widths(self) -> tuple[int, int, int, int]:
        c = self.width
        return (c, 2 * c, 4 * c, 8 * c)


@dataclass(frozen=True)
class Param:
    """One named learnable or fixed array."""

    name: str
    value: Tensor
    init: str

    def __post_init__(self):
        if self.init not in _INITS:
            raise ConfigError(f"unknown init {self.init!r}")

    @property
    def frozen(self) -> bool:
        return self.init == "fixed_kernel"

    @property
    def is_stat(self) -> bool:
        # Running statistics ride along with the weights but are neither
        # learnable nor frozen classical kernels.
        return self.name.endswith(".mean") or self.name.endswith(".var")


class Model:
    """A built backbone: config plus ordered named parameters."""

    def __init__(self, config: BackboneConfig, params: dict[str, Param]):
        self.config = config
        self.params = params

    def astype(self, dtype) -> "Model":
        cast = {
            n: Param(p.name, p.value.astype(dtype), p.init)
            for n, p in self.params.items()
        }
        return Model(self.config, cast)

    def with_values(self, overrides: dict[str, np.ndarray]) -> "Model":
        """Copy of the model with some parameter values replaced (tests, surgery)."""
        out = dict(self.params)
        for name, arr in overrides.items():
            p = out[name]
            t = Tensor(np.asarray(arr, dtype=p.value.dtype))
            if t.shape != p.value.shape:
                raise DimensionError(
                    f"override for {name} has shape {t.shape}, expected {p.value.shape}"
                )
            out[name] = Param(p.name, t, p.init)
        return Model(self.config, out)

    def learnable_items(self):
        for name, p in self.params.items():
            if not p.frozen and not p.is_stat:
                yield name, p

    def learnable_count(self) -> int:
        return sum(p.value.size for _, p in self.learnable_items())


@dataclass
class FeaturePyramid:
    """The four stage outputs at strides 4/8/16/32."""

    levels: tuple

    def __post_init__(self):
        if len(self.levels) != 4:
            raise ContractError(f"feature pyramid needs exactly 4 levels, got {len(self.levels)}")


class Mode:
    """Forward-pass mode: which norm statistics and whether dropout is live.

    Dropout masks derive from ``(dropout_seed, block tag)``, so the same
    seed reproduces them exactly, independent of execution order.
    """

    def __init__(self, stats: str = "running", dropout_seed: int | None = None):
        if stats not in ("running", "batch"):
            raise ConfigError(f"mode stats must be 'running' or 'batch', got {stats!r}")
        if dropout_seed is not None and dropout_seed < 0:
            raise ConfigError(f"dropout seed must be non-negative, got {dropout_seed}")
        self.stats = stats
        self.dropout_seed = dropout_seed

    def dropout_rng(self, tag: str) -> np.random.Generator | None:
        if self.dropout_seed is None:
            return None
        return np.random.default_rng([self.dropout_seed, zlib.crc32(tag.encode("ascii"))])


class ParamView:
    """Uniform parameter accessor for plain and taped forwards.

    Taped access registers each parameter exactly once as a (possibly
    frozen) named leaf; repeated lookups return the same Var.  Running
    statistics stay plain values: they are not differentiated.  ``ops`` is
    the op set the block functions run: :mod:`egnet.autograd`, whose ops
    take plain tensors and taped values alike.
    """

    ops = ag

    def __init__(self, model: Model, tape: Tape | None = None):
        self._model = model
        self._tape = tape
        self._cache = {}

    def __call__(self, name: str):
        p = self._model.params[name]
        if self._tape is None or p.is_stat:
            return p.value
        hit = self._cache.get(name)
        if hit is None:
            hit = self._cache[name] = self._tape.leaf(p.value, name=name, frozen=p.frozen)
        return hit


# ---------------------------------------------------------------------------
# Model construction
# ---------------------------------------------------------------------------

# Generated once, in float64, and read-only: every model and attention call shares them.
FIXED_KERNELS = {
    "fixed.log7": log_kernel(7, 1.0),
    "fixed.gauss9_s05": gaussian_kernel(9, 0.5),
    "fixed.gauss5_s05": gaussian_kernel(5, 0.5),
    "fixed.gauss5_s10": gaussian_kernel(5, 1.0),
    "fixed.scharr_x": scharr_kernels()[0],
    "fixed.scharr_y": scharr_kernels()[1],
}
for _kernel in FIXED_KERNELS.values():
    _kernel.setflags(write=False)
del _kernel


def eca_kernel_size(channels: int) -> int:
    """Channel-adaptive 1-D kernel size: log2(C)/gamma + beta/gamma, odd-rounded,
    with ``gamma`` and ``beta`` the :class:`BackboneConfig` constants.

    Rounds to the nearest odd integer, ties toward the larger one.
    """
    if channels < 2:
        raise ConfigError(f"eca_kernel_size needs at least 2 channels, got {channels}")
    gamma, beta = BackboneConfig.eca_gamma, BackboneConfig.eca_beta
    t = math.log2(channels) / gamma + beta / gamma
    lo = 2 * math.floor((t - 1.0) / 2.0) + 1  # t >= 1 for C >= 2, so lo >= 1
    hi = lo + 2
    return hi if (t - lo) >= (hi - t) else lo


def param_specs(config: BackboneConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Every parameter as ``(name, shape, init)``, in construction order.

    This is the table a weight file for ``config`` must match; building it
    draws no random numbers.  The ``fixed_kernel`` entries are the frozen
    ones.
    """
    specs = []

    def put(name, shape, init="he_normal"):
        specs.append((name, shape, init))

    def norm(prefix, c):
        put(prefix + ".scale", (c,), "ones")
        put(prefix + ".shift", (c,), "zeros")
        put(prefix + ".mean", (c,), "zeros")
        put(prefix + ".var", (c,), "ones")

    def drfd(prefix, cin):
        put(prefix + ".conv3", (2 * cin, cin, 3, 3))
        norm(prefix + ".norm_conv.norm", 2 * cin)
        put(prefix + ".conv1", (2 * cin, cin, 1, 1))
        norm(prefix + ".norm_pool.norm", 2 * cin)
        norm(prefix + ".an.norm", 2 * cin)

    for name, kernel in FIXED_KERNELS.items():
        put(name, kernel.shape, "fixed_kernel")

    c = config.width
    half = c // 2
    put("stem.conv7", (3, 3, 7, 7))
    norm("stem.an_log.norm", 3)
    norm("stem.res.norm", 3)
    put("stem.conv3", (half, 3, 3, 3))
    put("stem.convd3", (half, half, 3, 3))
    norm("stem.mid.norm", half)
    drfd("stem.drfd", half)

    widths = config.stage_widths
    for i in range(1, 5):
        w = widths[i - 1]
        if i > 1:
            drfd(f"s{i}.drfd", widths[i - 2])
        k = eca_kernel_size(w)
        for j in range(1, config.blocks[i - 1] + 1):
            b = f"s{i}.b{j}"
            put(b + ".ega.convblock.c1", (w, w, 1, 1))
            norm(b + ".ega.convblock.an1.norm", w)
            put(b + ".ega.convblock.c3", (w, 1, 3, 3))
            norm(b + ".ega.convblock.an2.norm", w)
            put(b + ".ega.convblock.c2", (w, w, 1, 1))
            norm(b + ".ega.convblock.out.norm", w)
            put(b + ".ega.conv3", (w, w, 3, 3))
            put(b + ".eca.w", (k,))
            norm(b + ".leg.norm", w)
            put(b + ".expand", (2 * w, w, 1, 1))
            norm(b + ".an.norm", 2 * w)
            put(b + ".reduce", (w, 2 * w, 1, 1))
            norm(b + ".out.norm", w)

    return specs


def build_model(config: BackboneConfig, seed: int = 0) -> Model:
    """Materialize every layer with named, seeded parameters.

    Learnable conv weights are He-normal (std = sqrt(2 / fan_in)) drawn in
    parameter order from one seeded generator, so a seed fully determines
    the model bytes.  Norm layers start as identity (scale 1, shift 0,
    running mean 0, var 1).  Fixed classical kernels are frozen.
    """
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    params: dict[str, Param] = {}
    for name, shape, init in param_specs(config):
        if init == "he_normal":
            # fan_in is every axis but the output one; the 1-D ECA kernel
            # is its own fan-in.
            std = math.sqrt(2.0 / math.prod(shape[1:] or shape))
            arr = rng.normal(0.0, std, size=shape)
        elif init == "fixed_kernel":
            arr = FIXED_KERNELS[name]
        else:
            arr = np.ones(shape) if init == "ones" else np.zeros(shape)
        params[name] = Param(name, Tensor(np.asarray(arr, dtype=DEFAULT_DTYPE)), init)
    return Model(config, params)


def param_breakdown(model: Model) -> dict[str, dict[str, int]]:
    """Per-group (fixed/stem/s1..s4) counts of learnable, stat, and frozen values."""
    groups: dict[str, dict[str, int]] = {}
    for name, p in model.params.items():
        group = name.split(".", 1)[0]
        slot = groups.setdefault(group, {"learnable": 0, "stats": 0, "frozen": 0})
        if p.frozen:
            slot["frozen"] += p.value.size
        elif p.is_stat:
            slot["stats"] += p.value.size
        else:
            slot["learnable"] += p.value.size
    return groups


# ---------------------------------------------------------------------------
# Forward graph
# ---------------------------------------------------------------------------


def _peek(x) -> Tensor:
    # Underlying value of a plain Tensor, a taped Var or a stacked array.
    return x.value if hasattr(x, "value") else x


def _norm(x, pview, prefix, mode):
    # Batch statistics ignore the stored mean and var.
    return pview.ops.batchnorm2d(
        x, pview(prefix + ".scale"), pview(prefix + ".shift"),
        mode=mode.stats, mean=pview(prefix + ".mean"), var=pview(prefix + ".var"),
    )


def _folds(mode, *operands, rng=None) -> bool:
    # Whether linear layers may be folded together (RepVGG, arXiv 2101.03697): on a
    # running-statistics forward with no dropout generator and no taped operand.
    taped = any(isinstance(a, ag.Var) for a in operands)
    return mode.stats == "running" and rng is None and not taped


def _conv_norm(op, x, pview, prefix, conv, norm, mode, rng=None, **kw):
    """``op`` of ``x`` with parameter ``prefix + conv`` and keywords ``kw``, a dropout
    mask from ``rng`` if given, then the norm ``prefix + norm``.  Where :func:`_folds`
    holds, the norm is folded into the conv: the weight scales by ``a = scale * inv``
    per output channel and ``shift - mean * a`` is its bias."""
    w = pview(prefix + conv)
    if not _folds(mode, x, w, rng=rng):
        t = getattr(pview.ops, op)(x, w, **kw)
        t = t if rng is None else pview.ops.dropout(t, BackboneConfig.dropout_rate, rng)
        return _norm(t, pview, prefix + norm, mode)
    s, b, mean, var = (pview(prefix + norm + k).data for k in (".scale", ".shift", ".mean", ".var"))
    a = s * (1.0 / np.sqrt(var + ops.BN_EPS))  # inv as ops._batchnorm computes it
    return getattr(ops, op)(x, w.data * a[:, None, None, None], bias=b - mean * a, **kw)


def _conv_pair(x, w1, w2) -> Tensor:
    """``conv2d(conv2d(x, w1), w2, stride=2)`` for 3x3 ``w1``, ``w2`` as one 5x5 stride-2 conv,
    its weight composed in float64.  On even sides only output row 0 and column 0 differ (``w2``
    reads the intermediate's zero padding there); the chain on 4-row, 4-column slabs redoes them."""
    taps = np.einsum("mkij,kcab->mcijab", w2, w1, dtype=np.float64)
    w = np.zeros((*taps.shape[:2], 5, 5))
    for i, j in itertools.product(range(3), repeat=2):
        w[:, :, i : i + 3, j : j + 3] += taps[:, :, i, j]
    y = np.array(ops.conv2d(x, w.astype(x.dtype), stride=2).data)  # writable
    chain = lambda s: ops._conv2d_raw(ops._conv2d_raw(s, w1, 1, ops.ZERO), w2, 2, ops.ZERO)
    y[:, :, 0] = chain(x.data[:, :, :4])[:, :, 0]
    y[:, :, :, 0] = chain(x.data[:, :, :, :4])[:, :, :, 0]
    return Tensor._wrap(y)


def _edge_attention(F, x, sx, sy):
    gx = F.depthwise_conv2d(x, sx, padding=ops.REPLICATE)
    gy = F.depthwise_conv2d(x, sy, padding=ops.REPLICATE)
    return F.sqrt_eps(F.add(F.mul(gx, gx), F.mul(gy, gy)))


def _gaussian_attention(F, x, g5):
    return F.depthwise_conv2d(x, g5, padding=ops.REPLICATE)


def edge_attention(x) -> Tensor:
    """Gradient-magnitude map from the Scharr pair, shape preserving."""
    dt = ag._value(x).dtype  # the dtype the ops compute x in
    sx, sy = (FIXED_KERNELS[n].astype(dt) for n in ("fixed.scharr_x", "fixed.scharr_y"))
    return _edge_attention(ag, x, sx, sy)


def gaussian_attention(x) -> Tensor:
    """Fixed 5x5 sigma-1 Gaussian smoothing, one kernel shared per channel."""
    g5 = FIXED_KERNELS["fixed.gauss5_s10"].astype(ag._value(x).dtype)
    return _gaussian_attention(ag, x, g5)


def drfd_forward(x, pview, prefix, cfg, mode):
    """Two-branch downsampling: stride-2 conv + (maxpool, 1x1 conv), summed."""
    F = pview.ops
    h, w = _peek(x).shape[2:4]
    if h % 2 or w % 2:
        raise DimensionError(f"DRFD needs even spatial dims, got {h}x{w}", axis="h")
    cpath = _conv_norm("conv2d", x, pview, prefix, ".conv3", ".norm_conv.norm", mode, stride=2)
    ppath = _conv_norm("conv2d", F.maxpool2d(x), pview, prefix, ".conv1", ".norm_pool.norm", mode)
    return F.gelu(_norm(F.add(cpath, ppath), pview, prefix + ".an.norm", mode))


def log_stem_forward(x, pview, cfg, mode):
    """Stem: LoG-enhanced residual, two 3x3 convs to stride 2, Gaussian pair, DRFD."""
    F = pview.ops
    h, w = _peek(x).shape[2:4]
    if h % 4 or w % 4:
        raise DimensionError(f"stem needs spatial dims divisible by 4, got {h}x{w}", axis="h")
    t = F.conv2d(x, pview("stem.conv7"))
    t = F.depthwise_conv2d(t, pview("fixed.log7"), padding=ops.REPLICATE)
    t = F.gelu(_norm(t, pview, "stem.an_log.norm", mode))
    t = _norm(F.add(x, t), pview, "stem.res.norm", mode)  # f_log; rebinding t frees the GELU map
    w1, w2 = pview("stem.conv3"), pview("stem.convd3")
    if _folds(mode, t, w1, w2):  # no norm or nonlinearity sits between the two convs
        f1 = _conv_pair(t, w1.data, w2.data)
    else:
        f1 = F.conv2d(F.conv2d(t, w1), w2, stride=2)
    t = F.depthwise_conv2d(f1, pview("fixed.gauss9_s05"), padding=ops.REPLICATE)
    t = _norm(F.add(t, f1), pview, "stem.mid.norm", mode)
    t = F.depthwise_conv2d(t, pview("fixed.gauss5_s05"), padding=ops.REPLICATE)
    return drfd_forward(t, pview, "stem.drfd", cfg, mode)


def conv_block_forward(x, pview, prefix, mode):
    """1x1 conv, AN, depthwise 3x3, AN, 1x1 conv, norm; width stays fixed."""
    F = pview.ops
    t = F.gelu(_conv_norm("conv2d", x, pview, prefix, ".c1", ".an1.norm", mode))
    t = F.gelu(_conv_norm("depthwise_conv2d", t, pview, prefix, ".c3", ".an2.norm", mode))
    return _conv_norm("conv2d", t, pview, prefix, ".c2", ".out.norm", mode)


def _stage_attention(x, stage, pview):
    if not 1 <= stage <= 4:
        raise ConfigError(f"stage must be in 1..4, got {stage}")
    if BackboneConfig.attention_kinds[stage - 1] == "edge":
        return _edge_attention(pview.ops, x, pview("fixed.scharr_x"), pview("fixed.scharr_y"))
    return _gaussian_attention(pview.ops, x, pview("fixed.gauss5_s10"))


def ega_forward(x, stage, pview, prefix, mode):
    """Edge/Gaussian attention fused with the input through a conv block."""
    F = pview.ops
    a = _stage_attention(x, stage, pview)
    fa = conv_block_forward(F.add(x, a), pview, prefix + ".convblock", mode)
    return F.conv2d(F.add(F.mul(x, fa), x), pview(prefix + ".conv3"))


def leg_module_forward(x, stage, pview, prefix, mode):
    """EGA features gated per channel (ECA) and folded back onto the input."""
    F = pview.ops
    f_ega = ega_forward(x, stage, pview, prefix + ".ega", mode)
    gates = F.sigmoid(F.conv1d_channels(F.global_avg_pool(f_ega), pview(prefix + ".eca.w")))
    return _norm(F.add(F.scale_channels(f_ega, gates), x), pview, prefix + ".leg.norm", mode)


def leg_block_forward(x, stage, pview, prefix, cfg, mode):
    """Shape-preserving block: LEG module, 1x1 expand/reduce, dropout, residual."""
    F = pview.ops
    t = leg_module_forward(x, stage, pview, prefix, mode)
    t = F.gelu(_conv_norm("conv2d", t, pview, prefix, ".expand", ".an.norm", mode))
    rng = mode.dropout_rng(prefix)
    return F.add(x, _conv_norm("conv2d", t, pview, prefix, ".reduce", ".out.norm", mode, rng))


def _segments(cfg, skip_blocks=False):
    """The network as ``(prefix, stage, tap)`` segments in execution order.

    ``prefix`` names the segment's parameters; ``tap`` marks the last
    segment of a stage, whose output is that stage's pyramid level.
    """
    segs = []
    for i in range(1, 5):
        prefixes = ["stem" if i == 1 else f"s{i}.drfd"]
        if not skip_blocks:
            prefixes += [f"s{i}.b{j}" for j in range(1, cfg.blocks[i - 1] + 1)]
        segs += [(p, i, p == prefixes[-1]) for p in prefixes]
    return segs


def _segment_forward(t, prefix, stage, pview, cfg, mode):
    if prefix == "stem":
        return log_stem_forward(t, pview, cfg, mode)
    if prefix.endswith(".drfd"):
        return drfd_forward(t, pview, prefix, cfg, mode)
    return leg_block_forward(t, stage, pview, prefix, cfg, mode)


def _pyramid_forward(x, pview, cfg, mode, trace=None, skip_blocks=False):
    t, levels = x, []
    for prefix, stage, tap in _segments(cfg, skip_blocks):
        if trace is not None and ".b" in prefix:
            # The block's own attention map: the same op on its input.
            trace[prefix + ".ega.attention"] = _peek(_stage_attention(t, stage, pview))
        t = _segment_forward(t, prefix, stage, pview, cfg, mode)
        if tap:
            levels.append(t)
    return FeaturePyramid(tuple(levels))


def _check_input(shape) -> None:
    """Raise DimensionError unless ``shape`` is ``(n, 3, h, w)`` with n >= 1
    and h, w positive multiples of :data:`INPUT_MULTIPLE`."""
    if len(shape) != 4 or shape[0] < 1 or shape[1] != 3:
        raise DimensionError(
            f"backbone input must be (n, 3, h, w) with n >= 1, got {tuple(shape)}", axis="c"
        )
    h, w = shape[2:]
    if h < 1 or w < 1 or h % INPUT_MULTIPLE or w % INPUT_MULTIPLE:
        raise DimensionError(
            f"backbone input sides must be positive multiples of {INPUT_MULTIPLE}, got {h}x{w}",
            axis="h",
        )


def backbone_forward(x, model: Model, mode: Mode | None = None, trace: dict | None = None,
                     skip_blocks: bool = False) -> FeaturePyramid:
    """Run the full backbone; returns the four-level feature pyramid.

    ``trace`` (optional dict) collects each block's attention map under
    ``s{i}.b{j}.ega.attention``.  ``skip_blocks`` runs only the stem/DRFD
    spine, which is the reference pipeline for residual-identity checks.
    """
    if mode is None:
        mode = Mode()
    x = x if isinstance(x, Tensor) else Tensor(x)
    _check_input(x.shape)
    pview = ParamView(model)
    return _pyramid_forward(x, pview, model.config, mode, trace, skip_blocks)


# ---------------------------------------------------------------------------
# Whole-model gradient checking
# ---------------------------------------------------------------------------


# Scale on the gradcheck loss.  The relative-error metric floors its
# denominator at 1e-8, so two absolute error sources in the central
# difference must sit well below 1e-12 (tolerance 1e-4 times the floor):
# float cancellation noise (~1e-13 for an O(10^3) sum, aliased through
# /2eps to ~1e-8) and O(eps^2) truncation bias on low-gradient/high-
# curvature coordinates (observed up to ~4e-6 unscaled).  Scaling the
# loss scales signal and both error sources alike; 1e-7 parks the errors
# two-plus orders of magnitude under the floor while typical gradients
# stay far above it, where the comparison remains strict.
LOSS_SCALE = 1e-7


def _pyramid_loss(levels) -> object:
    total = None
    for lvl in levels:
        s = ag.sum_all(lvl)
        total = s if total is None else ag.add(total, s)
    return ag.scale(total, LOSS_SCALE)


def _each(param, op):
    # op(param) for an array; for the probed parameter, an iterator of its
    # values, op once per value (on the same, probe-independent operands),
    # stacked on the probe axis.
    if isinstance(param, np.ndarray):
        return op(param)
    return np.concatenate([op(np.asarray(v)) for v in param], axis=-1)


class _StackedOps:
    """The block functions' ops on probe-stacked ``(n, c, h, w, P)`` arrays.

    Each slice along the trailing probe axis is one independent forward of
    the whole ``n``-image batch, so batch statistics are taken per
    (channel, probe) over ``n, h, w`` and stay exact for any ``n``.  With
    the probe axis innermost, slice copies and elementwise passes run over
    long contiguous rows however small the feature map is.  Batch
    statistics only; no validation and no tape.
    """

    # Largest (hw, hw) operator of a fixed depthwise kernel, in entries
    # (2 MB); on larger maps the kernel sums shifted copies instead.
    MAX_OPERATOR = 1 << 18

    add = staticmethod(np.add)
    mul = staticmethod(np.multiply)
    gelu = staticmethod(ops._gelu_raw)
    sigmoid = staticmethod(ops._sigmoid_raw)
    maxpool2d = staticmethod(ops._maxpool_raw)
    global_avg_pool = staticmethod(ops._gap_raw)

    def __init__(self):
        self._operators = {}  # (kernel bytes, padding, h, w) -> (hw, hw) operator

    @staticmethod
    def sqrt_eps(x):
        return np.sqrt(x + ops.SQRT_EPS)

    @staticmethod
    def scale_channels(x, gates):
        return x * gates[:, :, None, None]

    @staticmethod
    def conv1d_channels(v, weight):
        return _each(weight, lambda w: ops._conv1d_raw(v, w))

    @staticmethod
    def dropout(x, rate, rng=None):
        keep = ops._dropout_keep(x.shape[:4], rate, rng)
        return x if keep is None else x * ops._dropout_mask(keep, rate, x.dtype)[..., None]

    @staticmethod
    def batchnorm2d(x, scale, shift, *, mode, mean, var):
        m = x.shape[0] * x.shape[2] * x.shape[3]
        d = x - x.sum(axis=(0, 2, 3), keepdims=True) / m
        inv = 1.0 / np.sqrt(np.square(d).sum(axis=(0, 2, 3), keepdims=True) / m + ops.BN_EPS)
        y = _each(scale, lambda s: d * (inv * s[:, None, None, None]))
        return _each(shift, lambda b: y + b[:, None, None, None])

    @staticmethod
    def conv2d(x, weight, *, stride=1):
        return _each(weight, lambda w: ops._conv2d_raw(x, w, stride, ops.ZERO))

    def depthwise_conv2d(self, x, kernel, *, padding=ops.ZERO):
        if not (isinstance(kernel, np.ndarray) and kernel.ndim == 2):
            return _each(kernel, lambda kern: ops._shifted_sum(x, kern[:, 0], 1, padding))
        # One fixed (k, k) kernel for every channel.  On small maps: one
        # matmul with the (hw, hw) operator it induces, built once per map
        # size by filtering the identity basis.
        n, c, h, w, P = x.shape
        if (h * w) ** 2 > self.MAX_OPERATOR:
            return ops._shifted_sum(x, kernel[None], 1, padding)
        key = (kernel.tobytes(), padding, h, w)
        op = self._operators.get(key)
        if op is None:
            basis = np.eye(h * w, dtype=x.dtype).reshape(1, 1, h, w, h * w)
            op = ops._shifted_sum(basis, kernel[None], 1, padding).reshape(h * w, h * w)
            self._operators[key] = op
        return np.matmul(op, x.reshape(n, c, h * w, P)).reshape(x.shape)


class _ProbeView(dict):
    """The FD loss's parameter view: name -> plain array, and for the probed
    name an iterator of its values.

    Stands in for :class:`ParamView`: the block functions read parameters
    through it and take their ops from its ``ops``.
    """

    __call__ = dict.__getitem__

    def __init__(self, arrays, ops):
        super().__init__(arrays)
        self.ops = ops


class _FDLoss:
    """Finite-difference loss: the block functions on probe-stacked arrays.

    Runs the network's own segment functions through :class:`_ProbeView`,
    so it computes the same math as the taped forward, up to rounding
    order, without touching the tape.  A perturbed parameter only
    influences the network from the op that consumes it onward.  The
    baseline run caches every segment input and the level sums accumulated
    before it, so a probe re-runs only a suffix.  :meth:`losses` evaluates
    many values of one parameter together: the ops before its consumer
    run once, the consumer runs once per value, and its outputs are
    stacked on the probe axis so everything after it runs once per chunk
    of probes, which spreads numpy's per-call overhead across them.
    """

    # Elements of stacked segment input per run: enough probes to amortize
    # numpy's per-call overhead, few enough to keep activations in cache
    # (21 probes of the stem, 256 of a stage-4 block at 32x32 input).
    CHUNK_ELEMENTS = 1 << 16

    def __init__(self, model: Model, x: Tensor, mode: Mode):
        if mode.stats != "batch":
            raise ContractError("the FD loss supports batch-statistics mode only")
        self.cfg = model.config
        self.mode = mode
        self._ops = _StackedOps()  # its operator cache spans all chunks
        self._arrays = {n: p.value.data for n, p in model.params.items()}
        self._segments = _segments(self.cfg)
        self._seg_of = {}  # learnable parameter name -> segment index
        for name, _ in model.learnable_items():
            for index, (prefix, _, _) in enumerate(self._segments):
                if name.startswith(prefix + "."):
                    self._seg_of[name] = index
        self._inputs = []
        self._prefix_sums = []
        view = _ProbeView(self._arrays, self._ops)
        t = x.data[..., None]
        acc = 0.0
        for prefix, stage, tap in self._segments:
            self._inputs.append(t)
            self._prefix_sums.append(acc)
            t = _segment_forward(t, prefix, stage, view, self.cfg, self.mode)
            if tap:
                acc += float(t.sum())
        self.baseline = acc * LOSS_SCALE

    def losses(self, name: str, probes) -> np.ndarray:
        """Loss for each value of learnable parameter ``name`` drawn from ``probes``.

        Values are consumed in order, each before the next is drawn, so
        ``probes`` may yield one buffer mutated in place between draws.
        """
        if name not in self._seg_of:
            raise ContractError(f"{name!r} is not a learnable parameter of this model")
        start = self._seg_of[name]
        size = max(1, self.CHUNK_ELEMENTS // self._inputs[start].size)
        probes = iter(probes)
        out = []
        for head in probes:
            chunk = itertools.chain([head], itertools.islice(probes, size - 1))
            view = _ProbeView({**self._arrays, name: chunk}, self._ops)
            t = self._inputs[start]
            acc = self._prefix_sums[start]
            for prefix, stage, tap in self._segments[start:]:
                t = _segment_forward(t, prefix, stage, view, self.cfg, self.mode)
                if tap:
                    acc = acc + t.sum(axis=(0, 1, 2, 3))
            out.append(acc)
        return np.concatenate(out) * LOSS_SCALE if out else np.zeros(0)

    def __call__(self, overrides: dict) -> float:
        (name, arr), = overrides.items()
        return float(self.losses(name, [arr])[0])


def backbone_gradcheck(
    model: Model,
    x: Tensor,
    *,
    eps: float = 1e-5,
    seed: int = 0,
    coords_per_tensor: int = 200,
) -> GradReport:
    """Verify analytic gradients of sum(pyramid) against central differences.

    Runs in float64 with batch-statistics norms and a frozen, seed-derived
    dropout mask per block, per the verification contract.  Only learnable
    parameters are checked; frozen kernels have no gradient entries to
    check and running statistics are unused in batch mode.
    """
    _check_input(x.shape)
    m64 = model.astype(np.float64)
    x64 = x.astype(np.float64)
    mode = Mode(stats="batch", dropout_seed=seed)

    tape = Tape()
    pview = ParamView(m64, tape=tape)
    xv = tape.leaf(x64, name="input")
    pyramid = _pyramid_forward(xv, pview, m64.config, mode)
    loss = _pyramid_loss(pyramid.levels)
    analytic = ag.backward(loss)

    fd = _FDLoss(m64, x64, mode)
    taped_loss = float(loss.value.data)
    if not math.isclose(fd.baseline, taped_loss, rel_tol=1e-9, abs_tol=1e-9):
        raise ContractError(
            f"FD loss {fd.baseline!r} diverges from taped loss {taped_loss!r}"
        )

    params = {name: p.value.data for name, p in m64.learnable_items()}
    return finite_diff_check(
        fd, params, analytic, eps=eps, seed=seed, coords_per_tensor=coords_per_tensor
    )

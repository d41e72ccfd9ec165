"""Reverse-mode differentiation over the tensor-core op set.

Design: a :class:`Tape` is a linear record (Wengert list) of operations;
it is topologically ordered by construction because nodes are appended in
execution order.  A :class:`Var` is a handle onto one tape slot.

Every wrapper has one rule: it computes its result through
:mod:`egnet.ops`, defines the vector-Jacobian closure of that op, and
hands both to :func:`_record`, which tapes the result when any operand is
a :class:`Var` and returns the plain tensor otherwise.  Model code is
written once and works for inference, training, and gradient checks.

Frozen leaves (the fixed classical kernels) receive no gradient entry,
but gradients still propagate *through* the ops that consume them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import ops
from .errors import ConfigError, ContractError, VerificationError
from .tensor import Tensor


class _Node:
    __slots__ = ("parents", "vjp", "needs_grad", "shape")

    def __init__(self, parents, vjp, needs_grad, shape):
        self.parents = parents
        self.vjp = vjp
        self.needs_grad = needs_grad
        self.shape = shape


class Tape:
    """Linear, append-only record of one forward pass."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self._leaves: dict[str, int] = {}
        self._swept = False

    def leaf(self, value, *, name: str | None = None, frozen: bool = False) -> "Var":
        """Register an input tensor; named leaves are gradient keys."""
        value = value if isinstance(value, Tensor) else Tensor(value)
        if name is not None:
            if name in self._leaves:
                raise ContractError(f"leaf {name!r} already on tape")
            self._leaves[name] = len(self.nodes)
        self.nodes.append(_Node((), None, not frozen, value.shape))
        return Var(self, len(self.nodes) - 1, value)


class Var:
    """Handle to one value on a tape."""

    __slots__ = ("tape", "index", "value", "remat")

    def __init__(self, tape: Tape, index: int, value: Tensor):
        self.tape = tape
        self.index = index
        self.value = value
        self.remat = None  # or a recipe that recomputes value.data bitwise

    def __repr__(self):
        return f"Var(#{self.index}, shape={self.value.shape})"


def _value(x) -> Tensor | None:
    if x is None:
        return None
    return x.value if isinstance(x, Var) else (x if isinstance(x, Tensor) else Tensor(x))


def _needs(x) -> bool:
    return isinstance(x, Var) and x.tape.nodes[x.index].needs_grad


def _kept(x):
    # What a VJP reads of x, as a zero-argument callable.  Tensors are
    # immutable, so a remat recipe stands in for a second copy of a value.
    if isinstance(x, Var) and x.remat is not None:
        return x.remat
    a = _value(x).data
    return lambda: a


def _record(y: Tensor, operands, vjp):
    """``y`` itself for plain operands; else ``y`` taped as the op's node."""
    tape = None
    for x in operands:
        if isinstance(x, Var):
            if tape is not None and x.tape is not tape:
                raise ContractError("operands come from different tapes")
            tape = x.tape
    if tape is None:
        return y
    # Constants enter as anonymous frozen leaves, in operand order: no
    # gradient flows to them.
    parents = tuple((x if isinstance(x, Var) else tape.leaf(x, frozen=True)).index for x in operands)
    needs = any(tape.nodes[i].needs_grad for i in parents)
    # A node no gradient passes through never runs its VJP.
    tape.nodes.append(_Node(parents, vjp if needs else None, needs, y.shape))
    return Var(tape, len(tape.nodes) - 1, y)


def backward(loss: Var) -> dict[str, np.ndarray]:
    """Reverse sweep from a scalar loss.

    Returns gradients keyed by leaf name for every named, non-frozen leaf;
    leaves the loss does not reach get zero gradients.
    """
    if not isinstance(loss, Var):
        raise ContractError("backward requires a taped scalar (Var)")
    if loss.value.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.value.shape}")
    tape = loss.tape
    if tape._swept:
        raise ContractError("tape already swept: backward releases each VJP once it has run")
    tape._swept = True
    nodes = tape.nodes
    grads: list[np.ndarray | None] = [None] * len(nodes)
    grads[loss.index] = np.ones_like(loss.value.data)
    for idx in range(len(nodes) - 1, -1, -1):
        node = nodes[idx]
        vjp, node.vjp = node.vjp, None  # released with the arrays it keeps
        g = grads[idx]
        # Only a node that needs a gradient has a VJP, so a one-input
        # VJP's operand always needs one.
        if g is None or vjp is None:
            continue
        needed = tuple(nodes[p].needs_grad for p in node.parents)
        for p, pg in zip(node.parents, vjp(g, needed)):
            if pg is None:
                continue
            # Out-of-place accumulation: vjp outputs may alias upstream grads.
            grads[p] = pg if grads[p] is None else grads[p] + pg
        # Spent: only named leaves' gradients are returned, and leaves
        # have no VJP, so none reaches this line.
        grads[idx] = g = None
    out: dict[str, np.ndarray] = {}
    for name, idx in tape._leaves.items():
        node = nodes[idx]
        if not node.needs_grad:  # a frozen leaf
            continue
        g = grads[idx]
        if g is None:
            g = np.zeros(node.shape, dtype=loss.value.dtype)
        out[name] = np.ascontiguousarray(g)
    return out


# ---------------------------------------------------------------------------
# Traced wrappers around the forward ops
# ---------------------------------------------------------------------------


def _unpad_grad(gxp, p, padding, h, w):
    if p == 0:
        return gxp
    if padding == ops.ZERO:
        return np.ascontiguousarray(gxp[:, :, p : p + h, p : p + w])
    # Replicate padding: border contributions fold back onto the edge
    # pixels they were copied from (rows first, then columns).
    gxp = gxp.copy()
    gxp[:, :, p, :] += gxp[:, :, :p, :].sum(axis=2)
    gxp[:, :, p + h - 1, :] += gxp[:, :, p + h :, :].sum(axis=2)
    rows = gxp[:, :, p : p + h, :]
    rows[:, :, :, p] += rows[:, :, :, :p].sum(axis=3)
    rows[:, :, :, p + w - 1] += rows[:, :, :, p + w :].sum(axis=3)
    return np.ascontiguousarray(rows[:, :, :, p : p + w])


def _conv2d_input_grad(g, wmat, xshape, grid, k, stride, padding):
    # wmat^T g, one row tile at a time, each tap's slab added onto the
    # window of the padded map it was gathered from.
    n, cout, oh, ow = g.shape
    g3 = g.reshape(n, cout, oh * ow)
    if k == 1 and stride == 1:
        return np.matmul(wmat.T, g3).reshape(xshape)
    h, w = xshape[2:]
    p = (k - 1) // 2
    gxp = np.zeros((*xshape[:2], h + 2 * p, w + 2 * p), dtype=g.dtype)
    for lo, hi, windows, tile in ops._row_tiles(xshape, grid, stride, g.itemsize):
        cols = np.matmul(wmat.T, g3[:, :, lo * ow : hi * ow]).reshape(tile)
        for t, window in enumerate(windows):
            gxp[window] += cols[:, :, t]
    return _unpad_grad(gxp, p, padding, h, w)


def conv2d(x, weight, *, stride: int = 1, padding: str = ops.ZERO):
    xv, wv = _value(x), _value(weight)
    y = ops.conv2d(xv, wv, stride=stride, padding=padding)
    xshape, wa = xv.shape, wv.data
    xk = _kept(x) if _needs(weight) else None

    def vjp(g, needed):
        n, cout, oh, ow = g.shape
        k = wa.shape[2]
        _, _, rows, cols, _ = grid = ops._tap_grid(xshape, k, stride, padding)
        wlive = wa[:, :, rows, cols]
        wmat = wlive.reshape(cout, -1)
        g3 = g.reshape(n, cout, oh * ow)
        gx = gw = None
        if needed[1]:
            glive = np.zeros_like(wmat)
            for lo, hi, patches in ops._patch_tiles(xk(), grid, k, stride, padding):
                cols_t = patches.reshape(n, wmat.shape[1], (hi - lo) * ow).transpose(0, 2, 1)
                glive += np.matmul(g3[:, :, lo * ow : hi * ow], cols_t).sum(axis=0)
            gw = np.zeros_like(wa)
            gw[:, :, rows, cols] = glive.reshape(wlive.shape)
        if needed[0]:
            gx = _conv2d_input_grad(g, wmat, xshape, grid, k, stride, padding)
        return gx, gw

    return _record(y, (x, weight), vjp)


def _depthwise_input_grad(g, ka, xshape, stride, padding):
    # The adjoint of a correlation is the correlation with the flipped
    # kernel over g placed at its stride (Dumoulin & Visin, arXiv
    # 1603.07285), so the forward kernel runs it.  Under replicate
    # padding g sits in the padded frame, whose border folds back onto
    # the edge pixels it was copied from.
    n, c, h, w = xshape
    p = (ka.shape[-1] - 1) // 2 if padding == ops.REPLICATE else 0
    if stride > 1 or p:
        spread = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=g.dtype)
        spread[:, :, p : p + h : stride, p : p + w : stride] = g
        g = spread
    gxp = ops._depthwise_raw(g, ka[..., ::-1, ::-1], 1, ops.ZERO)
    return _unpad_grad(gxp, p, padding, h, w)


def depthwise_conv2d(x, kernel, *, stride: int = 1, padding: str = ops.ZERO):
    xv, kv = _value(x), _value(kernel)
    y = ops.depthwise_conv2d(xv, kv, stride=stride, padding=padding)
    xshape, ka = xv.shape, kv.data
    k = ka.shape[-1]
    xk = _kept(x) if _needs(kernel) else None

    def vjp(g, needed):
        gx = gk = None
        if needed[1]:
            _, _, rows, cols, windows = grid = ops._tap_grid(xshape, k, stride, padding)
            per_tap = np.zeros((xshape[1], len(windows)), dtype=g.dtype)
            for lo, hi, patches in ops._patch_tiles(xk(), grid, k, stride, padding):
                per_tap += np.einsum("nctij,ncij->ct", patches, g[:, :, lo:hi])
            gk = np.zeros_like(ka)
            live = gk[..., rows, cols]
            live[...] = (per_tap if ka.ndim == 4 else per_tap.sum(axis=0)).reshape(live.shape)
        if needed[0]:
            gx = _depthwise_input_grad(g, ka, xshape, stride, padding)
        return gx, gk

    return _record(y, (x, kernel), vjp)


def conv1d_channels(v, weight):
    y = ops.conv1d_channels(_value(v), _value(weight))
    vk = _kept(v) if _needs(weight) else None
    wk = _kept(weight) if _needs(v) else None
    k = _value(weight).shape[0]
    p = k // 2

    def vjp(g, needed):
        gv = gw = None
        if needed[0]:
            # The flipped kernel's correlation, as for depthwise_conv2d.
            gv = ops._conv1d_raw(g, wk()[::-1])
        if needed[1]:
            vp = np.pad(vk(), ((0, 0), (p, p)))
            gw = np.einsum("nck,nc->k", sliding_window_view(vp, k, axis=1), g)
        return gv, gw

    return _record(y, (v, weight), vjp)


def maxpool2d(x):
    y = ops.maxpool2d(_value(x))
    xk, ya = _kept(x), y.data

    def vjp(g, _):
        # Each window's gradient goes to its first maximal element in
        # row-major order (its first NaN, if any), as argmax would pick.
        xa = xk()
        gx = np.zeros_like(xa)
        free = np.ones(g.shape, dtype=bool)
        for rows, cols in ops._pool_slices(*xa.shape[2:]):
            s = xa[:, :, rows, cols]
            hit = free & ((s == ya) | np.isnan(s))
            np.copyto(gx[:, :, rows, cols], g, where=hit)
            free &= ~hit
        return (gx,)

    return _record(y, (x,), vjp)


def global_avg_pool(x):
    y = ops.global_avg_pool(_value(x))
    n, c, h, w = _value(x).shape

    def vjp(g, _):
        return (np.broadcast_to((g / (h * w))[:, :, None, None], (n, c, h, w)).copy(),)

    return _record(y, (x,), vjp)


def batchnorm2d(x, scale, shift, *, mode="batch", mean=None, var=None):
    # Running statistics are constants: they never enter the tape.
    operands = (x, scale, shift)
    if not any(isinstance(o, Var) for o in operands):
        return ops.batchnorm2d(*map(_value, operands), mode=mode, mean=_value(mean), var=_value(var))
    sa, ba = _value(scale).data, _value(shift).data
    ya, d, inv = ops._batchnorm(_value(x).data, sa, ba, mode, _value(mean), _value(var))
    a = sa * inv
    m = d.shape[0] * d.shape[2] * d.shape[3]
    batch = mode == "batch"

    def vjp(g, needed):
        # With batch statistics, x's gradient reads both channel sums.
        sums = batch and needed[0]
        gb = g.sum(axis=(0, 2, 3)) if needed[2] or sums else None
        gs = inv * (g * d).sum(axis=(0, 2, 3)) if needed[1] or sums else None
        if not needed[0]:
            gx = None
        elif not batch:
            gx = g * a[None, :, None, None]
        else:
            # a (g - gb/m - d inv gs/m), with one full-size temporary.
            gx = d * (inv * gs / m)[None, :, None, None]
            gx += (gb / m)[None, :, None, None]
            np.subtract(g, gx, out=gx)
            gx *= a[None, :, None, None]
        return gx, gs if needed[1] else None, gb if needed[2] else None

    out = _record(Tensor._wrap(ya), operands, vjp)
    # y's consumers keep d, which this node keeps anyway, not y itself.
    out.remat = lambda: ops._batchnorm_affine(d, a, ba)
    return out


def gelu(x):
    y = ops.gelu(_value(x))
    xk = _kept(x)

    def vjp(g, _):
        # In place, in the order of g (0.5 (1 + t) + 0.5 x (1 - t t) du)
        # with t = tanh(u) and du = c (1 + 3 (0.044715) x x).
        xa = xk()
        t = ops._gelu_tanh(xa)
        h = np.multiply(t, t, out=np.empty_like(t))
        np.subtract(1.0, h, out=h)
        h *= 0.5 * xa
        du = np.multiply(3.0 * 0.044715, xa, out=np.empty_like(t))
        du *= xa
        du += 1.0
        du *= ops._GELU_C
        h *= du
        t += 1.0
        t *= 0.5
        t += h
        t *= g
        return (t,)

    return _record(y, (x,), vjp)


def sigmoid(x):
    y = ops.sigmoid(_value(x))
    ya = y.data

    def vjp(g, _):
        return (g * ya * (1.0 - ya),)

    return _record(y, (x,), vjp)


def add(a, b):
    y = ops.add(_value(a), _value(b))

    def vjp(g, needed):
        return (g if needed[0] else None, g if needed[1] else None)

    return _record(y, (a, b), vjp)


def mul(a, b):
    y = ops.mul(_value(a), _value(b))
    ak = _kept(a) if _needs(b) else None
    bk = _kept(b) if _needs(a) else None

    def vjp(g, needed):
        return (g * bk() if needed[0] else None, g * ak() if needed[1] else None)

    return _record(y, (a, b), vjp)


def scale_channels(x, gates):
    y = ops.scale_channels(_value(x), _value(gates))
    xk = _kept(x) if _needs(gates) else None
    gk = _kept(gates) if _needs(x) else None

    def vjp(g, needed):
        gx = g * gk()[:, :, None, None] if needed[0] else None
        gg = (g * xk()).sum(axis=(2, 3)) if needed[1] else None
        return gx, gg

    return _record(y, (x, gates), vjp)


def sqrt_eps(x):
    y = ops.sqrt_eps(_value(x))
    ya = y.data  # y = sqrt(x + eps) > 0, so the slope 1/(2y) stays finite

    def vjp(g, _):
        return (g * (0.5 / ya),)

    return _record(y, (x,), vjp)


def dropout(x, rate: float, rng=None):
    if not isinstance(x, Var):
        return ops.dropout(x, rate, rng)
    xa, dtype = x.value.data, x.value.dtype
    keep = ops._dropout_keep(xa.shape, rate, rng)
    if keep is None:
        return x  # the identity, bit-exact

    def vjp(g, _):
        return (g * ops._dropout_mask(keep, rate, dtype),)

    return _record(Tensor._wrap(xa * ops._dropout_mask(keep, rate, dtype)), (x,), vjp)


def sum_all(x):
    y = ops.sum_all(_value(x))
    shape = _value(x).shape

    def vjp(g, _):
        return (np.full(shape, g[()], dtype=g.dtype),)

    return _record(y, (x,), vjp)


def scale(x, alpha: float):
    xa = _value(x).data
    y = Tensor._wrap(xa * xa.dtype.type(alpha))

    def vjp(g, _):
        return (g * alpha,)

    return _record(y, (x,), vjp)


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------

REL_FLOOR = 1e-8  # denominator guard in the relative-error metric


@dataclass
class GradReport:
    """Comparison of analytic gradients against central differences."""

    eps: float
    dtype: str
    coords_per_tensor: int
    per_param: dict[str, float] = field(default_factory=dict)

    @property
    def max_rel_error(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    def passed(self, tol: float) -> bool:
        return self.max_rel_error < tol

    def lines(self) -> list[str]:
        out = [f"param={name} max_rel_err={err:.6e}" for name, err in self.per_param.items()]
        out.append(
            f"gradcheck max_rel_err={self.max_rel_error:.6e} eps={self.eps:g} "
            f"dtype={self.dtype} coords={self.coords_per_tensor}"
        )
        return out


def _probe_values(work: np.ndarray, coords, eps: float):
    # Yields ``work`` with coordinate c at +eps, then -eps, for each c in
    # order; the buffer is restored after each pair.
    for coord in coords:
        orig = work.flat[coord]
        work.flat[coord] = orig + eps
        yield work
        work.flat[coord] = orig - eps
        yield work
        work.flat[coord] = orig


def _check_fd_settings(eps: float, coords_per_tensor: int) -> None:
    # Settings under which a check would compare nothing, or nonsense.
    if coords_per_tensor < 1:
        raise ConfigError(f"coords_per_tensor must be at least 1, got {coords_per_tensor}")
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigError(f"finite-difference eps must be finite and positive, got {eps}")


def finite_diff_check(
    loss_fn,
    params: dict[str, np.ndarray],
    analytic: dict[str, np.ndarray],
    *,
    eps: float = 1e-5,
    seed: int = 0,
    coords_per_tensor: int = 200,
) -> GradReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` is either a per-probe callable, which maps an override
    dict ``{name: array}`` to a float loss, or an object with a method
    ``losses(name, values)``; either must be a pure function of the
    parameter values.  For each parameter tensor a random subsample of
    coordinates (all of them when the tensor is small) is perturbed by
    ``+/- eps``.  All probes of one tensor go through one ``losses`` call:
    it gets an iterator of values for ``name`` (one buffer, mutated
    between draws) and returns their losses in order.  A callable is
    called on each value in turn.  The backbone passes the object form,
    which evaluates the probes together.  This check is the independent
    oracle: it never touches the tape.
    """
    _check_fd_settings(eps, coords_per_tensor)
    rng = np.random.default_rng(seed)
    report = GradReport(eps=eps, dtype=str(next(iter(params.values())).dtype) if params else "float64",
                        coords_per_tensor=coords_per_tensor)
    losses = getattr(loss_fn, "losses", None) or (
        lambda name, probes: [loss_fn({name: w}) for w in probes])
    for name, base in params.items():
        base = np.asarray(base, dtype=np.float64)
        ana = analytic.get(name)
        ana = np.zeros_like(base) if ana is None else np.asarray(ana)
        if ana.shape != base.shape:
            raise VerificationError(
                f"analytic gradient for {name} has shape {ana.shape}, expected {base.shape}",
                param=name,
            )
        size = base.size
        if size <= coords_per_tensor:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=coords_per_tensor, replace=False)
        values = np.asarray(losses(name, _probe_values(base.copy(), coords, eps)), dtype=np.float64)
        lo_hi, lo_lo = values[0::2], values[1::2]
        bad = ~(np.isfinite(lo_hi) & np.isfinite(lo_lo))
        if bad.any():
            coord = int(coords[np.argmax(bad)])
            raise VerificationError(
                f"non-finite loss while perturbing {name}[{coord}]", param=name, coord=coord
            )
        numeric = (lo_hi - lo_lo) / (2.0 * eps)
        a = ana.flat[coords].astype(np.float64)
        rel = np.abs(a - numeric) / np.maximum(np.maximum(np.abs(a), np.abs(numeric)), REL_FLOOR)
        report.per_param[name] = float(rel.max(initial=0.0))
    return report

"""Outside-in span tracing of the egnet layers.

The tracer replaces the public functions of the traced egnet modules with
timing wrappers while it is installed, and puts every original back when it
is removed.  Nothing under ``src/`` changes: the wrappers work because the
library calls across modules through module attributes (``ops.conv2d``,
``ag.batchnorm2d``) or through names it imported (``cli.load_weights``),
and every such binding in every loaded ``egnet`` module is swapped.

A span is ``[name, start_ns, end_ns, parent, request, info]``; ``parent``
is the index of the enclosing span (-1 at the top) and ``request`` the id
the benchmark set for the request in flight.  Spans stay in memory until
:meth:`Tracer.write` puts them in a JSON-lines file.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import types
from contextlib import contextmanager
from time import perf_counter_ns

# The layers, named as the modules of the source.  ``kernels`` only runs
# while a model is built (set-up), ``_fast`` needs numba, and ``errors``
# does no timed work, so none of them is traced.
LAYERS = ("cli", "weights", "imageio", "tensor", "backbone", "ops", "autograd")

# Op kinds of the ``ops`` layer.  Element-wise ops share one kind, the ECA
# gate's pooling and 1-D conv another; a kind not listed here (say, a new
# public op or kernel size) is counted as ``other``.
OP_KINDS = (
    "conv2d_k1", "conv2d_k3", "conv2d_k7",
    "depthwise_k3", "depthwise_k5", "depthwise_k7", "depthwise_k9",
    "batchnorm2d", "gelu", "maxpool2d", "eltwise", "eca", "other",
)
_ELTWISE = ("add", "mul", "scale_channels", "sqrt_eps", "sigmoid", "sum_all", "dropout")

# Floating-point operations per output element, counted from the formulas
# in egnet.ops (tanh and exp count as one).  These and the byte counts are
# computed from shapes, never measured.
_FLOPS_PER_ELEMENT = {
    "add": 1, "mul": 1, "scale_channels": 1, "dropout": 1, "sqrt_eps": 2,
    "sigmoid": 3, "gelu": 9, "maxpool2d": 3,
}
_BN_FLOPS = {"batch": 8, "running": 3}


def _arr(x):
    return getattr(x, "data", x)


def _nbytes(*xs) -> int:
    return sum(getattr(_arr(x), "nbytes", 0) for x in xs if x is not None)


def op_info(fname: str, args, kwargs, out):
    """(kind, flops, bytes) of one ``egnet.ops`` call, from its shapes.

    Bytes count every operand read once and the result written once.
    """
    size = getattr(_arr(out), "size", 1)
    in_size = _arr(args[0]).size
    moved = _nbytes(*args, *kwargs.values(), out)
    second = _arr(args[1] if len(args) > 1 else kwargs.get("weight", kwargs.get("kernel")))
    if fname == "conv2d":
        k = second.shape[2]
        kind, flops = f"conv2d_k{k}", 2 * size * second.shape[1] * k * k
    elif fname == "depthwise_conv2d":
        k = second.shape[-1]
        kind, flops = f"depthwise_k{k}", 2 * size * k * k
    elif fname == "batchnorm2d":
        kind, flops = "batchnorm2d", _BN_FLOPS[kwargs.get("mode", "batch")] * size
    elif fname == "global_avg_pool":
        kind, flops = "eca", in_size
    elif fname == "conv1d_channels":
        kind, flops = "eca", 2 * size * second.shape[0]
    elif fname == "sum_all":
        kind, flops = "eltwise", in_size
    else:
        kind = "eltwise" if fname in _ELTWISE else fname
        flops = _FLOPS_PER_ELEMENT.get(fname, 0) * size
    return (kind if kind in OP_KINDS else "other"), flops, moved


def _prefix_info(fname, args, kwargs, out):
    # Parameter prefix of a stage function, e.g. "s2.b3" or "stem.drfd".
    for a in args:
        if isinstance(a, str):
            return a
    return kwargs.get("prefix")


def _backward_info(fname, args, kwargs, out):
    loss = args[0] if args else kwargs["loss"]
    return len(loss.tape.nodes)


def _file_size(fname, args, kwargs, out):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _save_info(fname, args, kwargs, out):
    return _nbytes(args[0] if args else kwargs["tensor"])


_INFO = {
    "ops": op_info,
    "backbone": _prefix_info,
    "autograd.backward": _backward_info,
    "weights.load_weights": _file_size,
    "tensor.save_raw_tensor": _save_info,
}


def public_functions(layer: str):
    """Public functions defined in ``egnet.<layer>``, by name."""
    module = importlib.import_module(f"egnet.{layer}")
    return {
        name: fn for name, fn in vars(module).items()
        if isinstance(fn, types.FunctionType) and not name.startswith("_")
        and fn.__module__ == module.__name__
    }


def egnet_bindings():
    """Every (module, attribute, function) binding in the loaded egnet modules."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "egnet" or mod_name.startswith("egnet.")):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType):
                yield module, attr, value


class Tracer:
    """Span recorder that wraps the egnet layers while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0, 0, parent, self.request, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a call into a layer."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, fn, name: str, fname: str):
        info = _INFO.get(name) or _INFO.get(name.split(".", 1)[0])
        tracer = self

        if name == "autograd.finite_diff_check":
            @functools.wraps(fn)
            def fd_wrapper(loss_fn, *args, **kwargs):
                @functools.wraps(loss_fn)
                def traced_loss(overrides):
                    with tracer.span("autograd.fd.loss"):
                        return loss_fn(overrides)

                with tracer.span(name):
                    return fn(traced_loss, *args, **kwargs)

            return fd_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if info is not None:
                rec[5] = info(fname, args, kwargs, out)
            return out

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every traced layer, at every binding."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            for fname, fn in public_functions(layer).items():
                wrappers[fn] = self._wrap(fn, f"{layer}.{fname}", fname)
        for module, attr, value in egnet_bindings():
            w = wrappers.get(value)
            if w is not None:
                self._patches.append((module, attr, value))
                setattr(module, attr, w)

    def remove(self) -> None:
        """Put every original function back."""
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- output -----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as JSON lines (times in ns from the first span)."""
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request, info) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_ns": start - t0, "end_ns": end - t0,
                    "parent": parent, "request": request,
                    "info": info if isinstance(info, (int, str, type(None))) else list(info),
                }, separators=(",", ":")) + "\n")


def self_times(spans) -> list[int]:
    """Per-span self time: its duration minus the durations of its children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def leaf_flags(spans) -> list[bool]:
    leaf = [True] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            leaf[rec[3]] = False
    return leaf


_STAGE_FUNCTIONS = {
    "drfd_forward": "drfd",
    "leg_block_forward": "leg_block",
    "ega_forward": "ega",
    "conv_block_forward": "conv_block",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for kind in OP_KINDS:
        units[f"ops.{kind}.ms"] = "ms"
        units[f"ops.{kind}.calls"] = "count"
        units[f"ops.{kind}.gflop"] = "GFLOP-computed"
        units[f"ops.{kind}.mb"] = "MB-computed"
    for part in ("stem", "s1", "s2", "s3", "s4", *_STAGE_FUNCTIONS.values()):
        units[f"backbone.{part}.ms"] = "ms"
    units["backbone.self_ms"] = "ms"
    units["autograd.forward_taped.ms"] = "ms"
    units["autograd.backward.ms"] = "ms"
    units["autograd.tape_nodes"] = "count"
    units["autograd.self_ms"] = "ms"
    units["autograd.fd.check_s"] = "s"
    units["autograd.fd.loss_calls"] = "count"
    units["autograd.fd.ms_per_call"] = "ms"
    units["autograd.fd.coords"] = "count"
    units["weights.load.ms"] = "ms"
    units["weights.load.mb"] = "MB"
    units["imageio.load.ms"] = "ms"
    units["tensor.save.ms"] = "ms"
    units["tensor.save.mb"] = "MB"
    units["cli.self_ms"] = "ms"
    units["trace.latency_p50_ms"] = "ms"
    units["trace.overhead_ms"] = "ms"
    units["trace.leaf_share"] = "ratio"
    return units


def layer_metrics(spans, requests: int) -> dict[str, float]:
    """Per-request layer metrics from the spans of ``requests`` traced requests.

    ``*.ms`` of an op kind or a layer's ``self_ms`` is self time; a stage's
    or stage function's ``ms`` is the whole span, children included.
    """
    out = dict.fromkeys(per_layer_units(), 0.0)
    own = self_times(spans)
    for i, (name, start, end, parent, request, info) in enumerate(spans):
        if request is None:
            continue
        layer, fname = name.split(".", 1)
        dur_ms = (end - start) / 1e6
        own_ms = own[i] / 1e6
        if layer == "ops":
            kind, flops, moved = info
            out[f"ops.{kind}.ms"] += own_ms
            out[f"ops.{kind}.calls"] += 1
            out[f"ops.{kind}.gflop"] += flops / 1e9
            out[f"ops.{kind}.mb"] += moved / 1e6
        elif layer == "backbone":
            out["backbone.self_ms"] += own_ms
            if fname == "log_stem_forward":
                out["backbone.stem.ms"] += dur_ms
            part = _STAGE_FUNCTIONS.get(fname)
            if part is not None:
                out[f"backbone.{part}.ms"] += dur_ms
                if part in ("drfd", "leg_block") and info.startswith("s"):
                    out[f"backbone.{info.split('.', 1)[0]}.ms"] += dur_ms
        elif name == "autograd.forward_taped":
            out["autograd.forward_taped.ms"] += dur_ms
        elif name == "autograd.backward":
            out["autograd.backward.ms"] += dur_ms
            out["autograd.tape_nodes"] += info
        elif name == "autograd.finite_diff_check":
            out["autograd.fd.check_s"] += dur_ms / 1e3
        elif name == "autograd.fd.loss":
            out["autograd.fd.loss_calls"] += 1
        elif layer == "autograd":
            out["autograd.self_ms"] += own_ms
        elif name == "weights.load_weights":
            out["weights.load.ms"] += dur_ms
            out["weights.load.mb"] += info / 1e6
        elif name == "imageio.load_image":
            out["imageio.load.ms"] += dur_ms
        elif name == "tensor.save_raw_tensor":
            out["tensor.save.ms"] += dur_ms
            out["tensor.save.mb"] += info / 1e6
        elif layer == "cli":
            out["cli.self_ms"] += own_ms
    for key in out:
        out[key] /= requests
    calls = out["autograd.fd.loss_calls"]
    out["autograd.fd.coords"] = calls / 2
    out["autograd.fd.ms_per_call"] = out["autograd.fd.check_s"] * 1e3 / calls if calls else 0.0
    return out


def leaf_share(spans, latency_s: float) -> float:
    """Summed self time of the leaf spans over the requests' wall time."""
    own = self_times(spans)
    leaf = leaf_flags(spans)
    total = sum(t for t, is_leaf, rec in zip(own, leaf, spans) if is_leaf and rec[4] is not None)
    return total / 1e9 / latency_s

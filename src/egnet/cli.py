"""Command-line surface: init, summary, kernels, features, gradcheck.

Every command exits 0 on success.  Failures print one machine-parseable
line to stderr (``error category=<cat> message="..."``) and exit nonzero.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from . import __version__
from .autograd import _check_fd_settings
from .backbone import (
    VARIANTS,
    BackboneConfig,
    Mode,
    _check_input,
    backbone_forward,
    backbone_gradcheck,
    build_model,
    param_breakdown,
)
from .errors import ConfigError, EgnetError
from .imageio import NORM_MEAN, NORM_STD, load_image
from .kernels import gaussian_kernel, log_kernel, scharr_kernels
from .tensor import Tensor, save_raw_tensor
from .weights import ChecksumWarning, load_weights, save_weights

MESSAGE_CHARS = 512  # longest message printed; a longer one keeps a prefix and "..."


def _report(kind: str, category: str, message) -> None:
    message = str(message).replace('"', "'")
    if len(message) > MESSAGE_CHARS:
        message = message[: MESSAGE_CHARS - 3] + "..."
    print(f'{kind} category={category} message="{message}"', file=sys.stderr)


def _fail(category: str, message) -> int:
    _report("error", category, message)
    return 1


def _warning_category(cls) -> str:
    return "weights" if issubclass(cls, ChecksumWarning) else "runtime"


def _warn(message, cls, *_) -> None:  # as warnings.showwarning
    _report("warning", _warning_category(cls), message)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _fail("usage", message)
        sys.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="egnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"egnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="build a seeded model and write a weight file")
    p.add_argument("--variant", required=True, choices=tuple(VARIANTS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("summary", help="print config and parameter counts")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--weights")
    src.add_argument("--variant", choices=tuple(VARIANTS))
    p.add_argument("--seed", type=int)  # --variant only; 0 when unset

    p = sub.add_parser("kernels", help="print (and optionally dump) a fixed kernel")
    p.add_argument("--type", required=True, choices=("gaussian", "log", "scharr"))
    p.add_argument("--size", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--out")

    p = sub.add_parser("features", help="run the backbone on an image, dump the pyramid")
    p.add_argument("--weights", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--stage", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--dump-attention", action="store_true")
    p.add_argument("--fit", choices=("pad", "crop", "none"), default="pad")

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--variant", required=True, choices=tuple(VARIANTS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--coords", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--size", type=int, default=32)

    return parser


def _cmd_init(args) -> int:
    model = build_model(BackboneConfig.for_variant(args.variant), seed=args.seed)
    save_weights(model, args.out)
    print(f"wrote {args.out} variant={args.variant} seed={args.seed} "
          f"learnable={model.learnable_count()}")
    return 0


def _cmd_summary(args) -> int:
    if args.weights:
        if args.seed is not None:
            raise ConfigError("--seed applies to --variant only; with --weights it decides nothing")
        model = load_weights(args.weights)
        print(f"source weights={args.weights}")
    else:
        seed = args.seed or 0
        model = build_model(BackboneConfig.for_variant(args.variant), seed=seed)
        print(f"source variant={args.variant} seed={seed}")
    cfg = model.config
    print(
        f"config variant={cfg.variant} width={cfg.width} "
        f"blocks={','.join(str(b) for b in cfg.blocks)} bn_eps={cfg.bn_eps:g} "
        f"eca_gamma={cfg.eca_gamma} eca_beta={cfg.eca_beta} dropout={cfg.dropout_rate:g}"
    )
    print(
        "normalization mean=" + ",".join(f"{m:g}" for m in NORM_MEAN)
        + " std=" + ",".join(f"{s:g}" for s in NORM_STD)
    )
    groups = param_breakdown(model)
    for g, slot in groups.items():
        print(
            f"group {g:<5} learnable={slot['learnable']:>9} "
            f"stats={slot['stats']:>7} frozen={slot['frozen']:>4}"
        )
    kinds = ("learnable", "stats", "frozen")
    print("total " + " ".join(f"{k}={sum(s[k] for s in groups.values())}" for k in kinds))
    frozen_names = [n for n, p in model.params.items() if p.frozen]
    print("frozen_kernels " + " ".join(frozen_names))
    return 0


def _cmd_kernels(args) -> int:
    if args.type == "scharr":
        if args.size is not None or args.sigma is not None:
            raise ConfigError("scharr kernels are fixed 3x3; --size/--sigma do not apply")
        kernels = list(zip(("scharr_x 3x3", "scharr_y 3x3"), scharr_kernels()))
    else:
        size = args.size if args.size is not None else (7 if args.type == "log" else 5)
        sigma = args.sigma if args.sigma is not None else 1.0
        kernel = (gaussian_kernel if args.type == "gaussian" else log_kernel)(size, sigma)
        kernels = [(f"{args.type} {size}x{size} sigma={sigma:g} sum={kernel.sum():.12f}", kernel)]
    for label, kernel in kernels:
        print(label)
        print("\n".join(" ".join(f"{v:12.8f}" for v in row) for row in kernel))
    if args.out:
        stacked = np.stack([kernel for _, kernel in kernels])[:, None].astype(np.float32)
        save_raw_tensor(Tensor(stacked), args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_features(args) -> int:
    model = load_weights(args.weights)
    image = load_image(args.image, fit=args.fit)
    os.makedirs(args.out_dir, exist_ok=True)
    trace: dict | None = {} if args.dump_attention else None
    # Inference mode on untrained (identity) running statistics can swing
    # deep-stage magnitudes past float32 range; the stats lines report it.
    with np.errstate(over="ignore", invalid="ignore"):
        pyramid = backbone_forward(image, model, Mode(), trace=trace)
    stages = (args.stage,) if args.stage else (1, 2, 3, 4)
    dumps = {f"level{i}": pyramid.levels[i - 1] for i in stages}
    tags = tuple(f"s{i}." for i in stages)
    dumps.update((key, trace[key]) for key in sorted(trace or ()) if key.startswith(tags))
    for label, t in dumps.items():
        save_raw_tensor(t, os.path.join(args.out_dir, label.replace(".", "_") + ".rt"))
        a, shape = t.data, "x".join(str(s) for s in t.shape)
        print(f"{label} shape={shape} min={a.min():.6f} max={a.max():.6f} mean={a.mean():.6f}")
    return 0


def _cmd_gradcheck(args) -> int:
    _check_input((1, 3, args.size, args.size))
    if 3 * args.size**2 * 8 > sys.maxsize:  # the float64 input drawn below
        raise ConfigError(f"--size {args.size} is too large for an array")
    _check_fd_settings(args.eps, args.coords)
    if not (np.isfinite(args.tol) and args.tol > 0):
        raise ConfigError(f"--tol must be finite and positive, got {args.tol}")
    model = build_model(BackboneConfig.for_variant(args.variant), seed=args.seed)
    rng = np.random.default_rng(args.seed)
    x = Tensor(rng.normal(0.0, 1.0, size=(1, 3, args.size, args.size)).astype(np.float32))
    report = backbone_gradcheck(
        model, x, eps=args.eps, seed=args.seed, coords_per_tensor=args.coords
    )
    for line in report.lines():
        print(line)
    if report.unseen:
        _report("warning", "verify", f"{len(report.unseen)} tensors have all-zero checked gradients, "
                f"analytic and numeric, so the check cannot see them: {' '.join(report.unseen)}")
    ok = report.passed(args.tol)
    print(f"result {'PASS' if ok else 'FAIL'} tol={args.tol:g}")
    return 0 if ok else 1


_COMMANDS = {
    "init": _cmd_init,
    "summary": _cmd_summary,
    "kernels": _cmd_kernels,
    "features": _cmd_features,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _warn
        try:
            return _COMMANDS[args.command](args)
        except (EgnetError, OSError) as exc:
            return _fail(getattr(exc, "category", "io"), exc)
        except MemoryError as exc:
            return _fail("memory", exc)
        except Warning as exc:  # a warning that a filter turned into an error
            return _fail(_warning_category(type(exc)), exc)


if __name__ == "__main__":
    sys.exit(main())

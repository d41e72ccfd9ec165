"""Command-line surface: init, summary, kernels, features, gradcheck.

Every command exits 0 on success.  Failures print one machine-parseable
line to stderr (``error category=<cat> message="..."``) and exit nonzero.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .autograd import _check_fd_settings
from .backbone import (
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
from .weights import load_weights, save_weights


def _fail(category: str, message) -> int:
    message = str(message).replace('"', "'")
    print(f'error category={category} message="{message}"', file=sys.stderr)
    return 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _fail("usage", message)
        sys.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="egnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"egnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="build a seeded model and write a weight file")
    p.add_argument("--variant", required=True, choices=("tiny", "small"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("summary", help="print config and parameter counts")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--weights")
    src.add_argument("--variant", choices=("tiny", "small"))
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
    p.add_argument("--variant", required=True, choices=("tiny", "small"))
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
    order = ["fixed", "stem", "s1", "s2", "s3", "s4"]
    total_learnable = total_stats = total_frozen = 0
    for g in order:
        slot = groups.get(g, {"learnable": 0, "stats": 0, "frozen": 0})
        print(
            f"group {g:<5} learnable={slot['learnable']:>9} "
            f"stats={slot['stats']:>7} frozen={slot['frozen']:>4}"
        )
        total_learnable += slot["learnable"]
        total_stats += slot["stats"]
        total_frozen += slot["frozen"]
    print(f"total learnable={total_learnable} stats={total_stats} frozen={total_frozen}")
    frozen_names = [n for n, p in model.params.items() if p.frozen]
    print("frozen_kernels " + " ".join(frozen_names))
    return 0


def _format_matrix(m: np.ndarray) -> str:
    return "\n".join(" ".join(f"{v:12.8f}" for v in row) for row in m)


def _cmd_kernels(args) -> int:
    if args.type == "scharr":
        if args.size is not None or args.sigma is not None:
            raise ConfigError("scharr kernels are fixed 3x3; --size/--sigma do not apply")
        sx, sy = scharr_kernels()
        print("scharr_x 3x3")
        print(_format_matrix(sx))
        print("scharr_y 3x3")
        print(_format_matrix(sy))
        if args.out:
            stacked = np.stack([sx, sy])[:, None].astype(np.float32)
            save_raw_tensor(Tensor(stacked), args.out)
            print(f"wrote {args.out}")
        return 0
    size = args.size if args.size is not None else (7 if args.type == "log" else 5)
    sigma = args.sigma if args.sigma is not None else 1.0
    kernel = (gaussian_kernel if args.type == "gaussian" else log_kernel)(size, sigma)
    print(f"{args.type} {size}x{size} sigma={sigma:g} sum={kernel.sum():.12f}")
    print(_format_matrix(kernel))
    if args.out:
        save_raw_tensor(Tensor(kernel[None, None].astype(np.float32)), args.out)
        print(f"wrote {args.out}")
    return 0


def _stats_line(label: str, t: Tensor) -> str:
    a = t.data
    shape = "x".join(str(s) for s in a.shape)
    return (
        f"{label} shape={shape} min={a.min():.6f} max={a.max():.6f} mean={a.mean():.6f}"
    )


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
    for i in stages:
        level = pyramid.levels[i - 1]
        path = os.path.join(args.out_dir, f"level{i}.rt")
        save_raw_tensor(level, path)
        print(_stats_line(f"level{i}", level))
    if trace is not None:
        for key in sorted(trace):
            stage_tag = key.split(".", 1)[0]
            if args.stage and stage_tag != f"s{args.stage}":
                continue
            fname = key.replace(".attention", "_attention").replace(".", "_") + ".rt"
            path = os.path.join(args.out_dir, fname)
            save_raw_tensor(trace[key], path)
            print(_stats_line(key, trace[key]))
    return 0


def _cmd_gradcheck(args) -> int:
    _check_input((1, 3, args.size, args.size))
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (EgnetError, OSError) as exc:
        return _fail(getattr(exc, "category", "io"), exc)


if __name__ == "__main__":
    sys.exit(main())

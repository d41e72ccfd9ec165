"""Run one egnet benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload features-tiny-512 --seed 1 --seconds 10 --trace 0

The library is imported from ``src/`` of the same checkout; nothing is
installed.  With ``--trace 0`` the run sets up several times, measures the
closed loop for ``--seconds`` and reports the end-to-end metrics.  With
``--trace 1`` it sets up once, measures half the time untraced and half
traced, and reports the per-layer metrics and the trace overhead.  The
last line of standard output is one JSON object; the lines before it give
every metric by name with its unit.  Spans and the full result go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# Set-up is timed this many times per untraced run; setup_s is the median.
SETUP_REPEATS = 3

# The traced run must account for the request time with its leaf spans on
# these workloads (the FD loop of gradcheck calls private kernels).
LEAF_SHARE_MIN = 0.9
LEAF_CHECKED = ("features", "train")

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "images_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def import_egnet():
    """Import egnet from this checkout's ``src/``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "egnet", "__init__.py")):
        raise ImportError(f"no egnet package under {src}")
    sys.path.insert(0, src)
    import egnet

    if os.path.dirname(os.path.dirname(os.path.abspath(egnet.__file__))) != src:
        raise ImportError(f"egnet imported from {egnet.__file__}, not {src}")


def blas_threads():
    """OpenBLAS thread count, read from the loaded library, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    import numpy as np

    from egnet import _fast

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "egnet_fast_path_active": bool(_fast.HAVE_NUMBA),
    }


def closed_loop(workload, seconds: float, first: int, tracer=None):
    """One caller, each request sent after the previous one was checked.

    Returns (latencies in s, failed count, next request index).  Input
    generation and checks are outside the timed interval; a request that
    raises or fails its check is counted, never dropped.
    """
    latencies, failed, index = [], 0, first
    span = tracer.span if tracer else None
    deadline = perf_counter() + seconds
    while not latencies or perf_counter() < deadline:
        inp = workload.make_input(index)
        if tracer:
            tracer.request = index
        t0 = perf_counter()
        try:
            out = workload.run(inp, span)
            error = None
        except Exception:  # the loop must go on; the failure is counted
            traceback.print_exc()
            out, error = None, "raised"
        latencies.append(perf_counter() - t0)
        if tracer:
            tracer.request = None
        if error is None:
            error = workload.check(inp, out)
        if error:
            failed += 1
            print(f"request {index} failed: {error}", file=sys.stderr)
        index += 1
    return latencies, failed, index


def tail(latencies):
    """Highest percentile with at least ten samples beyond it, if above p50."""
    n = len(latencies)
    pct = 100.0 * (n - 10) / n if n > 10 else 0.0
    if pct <= 50.0:
        return None, pct
    return sorted(latencies)[n - 11], pct


def measure_untraced(workload, seconds, setups):
    """End-to-end metrics of one closed loop of ``seconds``."""
    lat, failed, _ = closed_loop(workload, seconds, 0)
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "images_per_s": workload.images_per_request * len(lat) / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "latency_tail_ms": None if tail_s is None else tail_s * 1e3,
        "latency_tail_percentile": tail_pct,
        "samples": len(lat),
    }
    if workload.kind == "gradcheck":
        extra["gradcheck_s"] = statistics.median(lat)
        extra["coords_per_s"] = workload.coords_per_request * len(lat) / sum(lat)
    return lat, failed, metrics, END_TO_END_UNITS, extra


def measure_traced(workload, seconds, spans_path):
    """Per-layer metrics: half the time untraced, then half traced."""
    from spans import Tracer, egnet_bindings, layer_metrics, leaf_share, per_layer_units

    lat_u, failed_u, index = closed_loop(workload, seconds / 2, 0)
    before = list(egnet_bindings())
    tracer = Tracer()
    with tracer:
        lat, failed, _ = closed_loop(workload, seconds / 2, index, tracer)
    if list(egnet_bindings()) != before:
        raise RuntimeError("the tracer left wrappers behind")
    tracer.write(spans_path)
    metrics = layer_metrics(tracer.spans, len(lat))
    metrics["trace.latency_p50_ms"] = statistics.median(lat) * 1e3
    metrics["trace.overhead_ms"] = (statistics.median(lat) - statistics.median(lat_u)) * 1e3
    metrics["trace.leaf_share"] = share = leaf_share(tracer.spans, sum(lat))
    if workload.kind not in LEAF_CHECKED:
        verdict = "not checked"
    else:
        verdict = "pass" if share >= LEAF_SHARE_MIN else "fail"
    extra = {"untraced_latencies_s": lat_u, "traced_latencies_s": lat,
             "leaf_share_check": f"{verdict} (>= {LEAF_SHARE_MIN} on {', '.join(LEAF_CHECKED)})"}
    return lat_u + lat, failed_u + failed, metrics, per_layer_units(), extra


def run(args, workload) -> dict:
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = perf_counter()
            workload.setup(args.seed, workdir)
            setups.append(perf_counter() - t0)
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            lat, failed, metrics, units, extra = measure_traced(workload, args.seconds, spans_path)
        else:
            lat, failed, metrics, units, extra = measure_untraced(workload, args.seconds, setups)
        repeats = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in filter(None, repeats):
        print(f"repeated request failed: {error}", file=sys.stderr)
    failed += sum(1 for error in repeats if error)
    attempted = len(lat) + len(repeats)
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "loop": "closed", "clients": 1,
        "machine": machine_facts(), "setup_s_each": setups, **extra, "latencies_s": lat,
        "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def report(result) -> None:
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']} "
          f"loop closed clients 1")
    print("machine " + json.dumps(result["machine"]))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not result["trace"]:
        if result["latency_tail_ms"] is None:
            print(f"latency_tail_ms n/a ms: {result['samples']} samples leave no percentile "
                  f"above p50 with 10 samples beyond it")
        else:
            print(f"latency_tail_ms {result['latency_tail_ms']:.6g} ms "
                  f"(p{result['latency_tail_percentile']:.0f}, {result['samples']} samples)")
        for name, unit in (("gradcheck_s", "s"), ("coords_per_s", "1/s")):
            if name in result:
                print(f"{name} {result[name]:.6g} {unit}")
            else:
                print(f"{name} n/a {unit} (gradcheck workload only)")
    else:
        print(f"trace leaf_share_check {result['leaf_share_check']}")
    print(f"failed_ratio {result['failed_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so that a running calibration child
    # is killed and waited for before this process ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        import_egnet()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    result = run(args, WORKLOADS[args.workload]())
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(result, fh, indent=1)
    report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

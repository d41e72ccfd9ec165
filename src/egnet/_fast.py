"""The library has no JIT kernels; ``perfbench/run.py`` reads this flag."""

HAVE_NUMBA = False

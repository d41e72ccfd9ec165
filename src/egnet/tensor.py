"""Dense real tensor value type and the raw tensor file format.

A :class:`Tensor` is an immutable wrapper around a C-contiguous numpy
array.  Feature maps are rank-4 in NCHW order; convolution weights are
rank-4 ``(c_out, c_in, k, k)``; per-channel vectors and scalars use the
natural lower ranks.  Arrays are frozen after construction so tensors can
be shared freely across threads and between tape nodes.

Default element type is float32; verification paths promote to float64
via :meth:`Tensor.astype`.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

import numpy as np

from .errors import DimensionError, ContractError, ParseError

DEFAULT_DTYPE = np.float32
_ALLOWED_DTYPES = (np.float32, np.float64)
_DTYPE_TAGS = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


class Tensor:
    """Immutable dense array of 32- or 64-bit reals."""

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = np.array(data, copy=True)
        if arr.dtype not in _ALLOWED_DTYPES:
            if not np.issubdtype(arr.dtype, np.number) and arr.dtype != np.bool_:
                raise ContractError(f"tensor data must be numeric, got {arr.dtype}")
            arr = arr.astype(DEFAULT_DTYPE)
        if arr.ndim > 0:  # ascontiguousarray would promote rank-0 to rank-1
            arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self._data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Takes ownership of a freshly computed array: no copy, just freeze.
        t = object.__new__(cls)
        if arr.ndim > 0:
            arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        t._data = arr
        return t

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def shape(self) -> tuple:
        return self._data.shape

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    def astype(self, dtype) -> "Tensor":
        dtype = np.dtype(dtype)
        if dtype == self._data.dtype:
            return self
        return Tensor._wrap(self._data.astype(dtype))

    def __repr__(self) -> str:
        return f"Tensor(shape={self._data.shape}, dtype={self._data.dtype.name})"


def _atomic_write(path: str, payload: bytes) -> None:
    # Write-to-temp + rename so readers never observe a partial file.
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_raw_tensor(tensor: Tensor, path: str) -> None:
    """Write a rank-4 tensor as a header line plus little-endian payload.

    Header: ``{"shape":[n,c,h,w],"dtype":"f32","order":"nchw"}`` followed
    by a newline, then the raw values in row-major NCHW order.  The
    round trip through :func:`load_raw_tensor` is bit-exact.
    """
    if tensor.ndim != 4:
        raise DimensionError(
            f"raw tensor files hold rank-4 NCHW data, got rank {tensor.ndim}", axis="n"
        )
    tag = "f32" if tensor.dtype == np.float32 else "f64"
    header = json.dumps(
        {"shape": list(tensor.shape), "dtype": tag, "order": "nchw"},
        separators=(",", ":"),
    )
    payload = header.encode("ascii") + b"\n" + tensor.data.astype(_DTYPE_TAGS[tag], copy=False).tobytes()
    _atomic_write(path, payload)


def load_raw_tensor(path: str) -> Tensor:
    """Read a file produced by :func:`save_raw_tensor`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    nl = blob.find(b"\n")
    if nl < 0:
        raise ParseError("raw tensor file has no header line", offset=0)
    try:
        header = json.loads(blob[:nl].decode("ascii"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8/JSON, huge ints, deep nesting
        raise ParseError(f"raw tensor header is not valid JSON: {exc}", offset=0) from exc
    if not isinstance(header, dict) or set(header) != {"shape", "dtype", "order"}:
        raise ParseError("raw tensor header must have keys shape/dtype/order", offset=0)
    if header["order"] != "nchw":
        raise ParseError(f"unsupported order {header['order']!r}", offset=0)
    if header["dtype"] not in list(_DTYPE_TAGS):  # compared, not hashed: it may be a list
        raise ParseError(f"unsupported dtype tag {header['dtype']!r}", offset=0)
    shape = header["shape"]
    if (
        not isinstance(shape, list)
        or len(shape) != 4
        or not all(type(s) is int and s >= 0 for s in shape)  # JSON true is an int too
    ):
        raise ParseError(f"bad shape field {shape!r}", offset=0)
    dt = _DTYPE_TAGS[header["dtype"]]
    if math.prod(s for s in shape if s) * dt.itemsize > sys.maxsize:
        raise ParseError(f"shape {tuple(shape)} is too large for an array", offset=0)
    count = math.prod(shape)
    expected = nl + 1 + count * dt.itemsize
    if len(blob) != expected:
        raise ParseError(
            f"payload length {len(blob) - nl - 1} does not match shape "
            f"{tuple(shape)} ({count * dt.itemsize} bytes expected)",
            offset=nl + 1,
        )
    arr = np.frombuffer(blob, dtype=dt, count=count, offset=nl + 1).reshape(shape)
    return Tensor._wrap(arr.astype(dt.newbyteorder("="), copy=True))

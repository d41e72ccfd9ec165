"""Binary weight-file container.

Layout (all integers little-endian):

    bytes 0..3    magic ``LEGW``
    bytes 4..5    format version, u16
    bytes 6..9    header length in bytes, u32
    header        UTF-8 JSON: {"config": {...}, "entries": [...]}
    payload       concatenated float32 little-endian arrays
    trailer       u32 CRC-32 of every preceding byte

Each entry records ``name``, ``shape``, ``frozen``, ``init``, ``offset``
(payload-relative) and ``size`` (element count).  Offsets are contiguous
and in construction order, so save -> load -> save is byte-identical.
The variant fixes the whole header, so a load rebuilds the header its
variant implies and requires the file's to equal it.
A checksum mismatch on load is always a :class:`ChecksumWarning`, not an
error: the structure is still intact, only the payload bytes differ.
``warnings.simplefilter("error", ChecksumWarning)`` makes it fatal.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
import zlib

import numpy as np

from .backbone import VARIANTS, BackboneConfig, Model, Param, param_specs
from .errors import WeightFormatError
from .tensor import Tensor, _atomic_write

MAGIC = b"LEGW"
VERSION = 1
_F32 = np.dtype("<f4")
_ABSENT = object()


class ChecksumWarning(UserWarning):
    """Stored checksum does not match the file contents."""


def _header(config: BackboneConfig, specs) -> dict:
    """The JSON header of a file for ``config`` holding ``(name, shape, init)`` specs."""
    entries, offset = [], 0
    for name, shape, init in specs:
        size = math.prod(shape)
        entries.append({"name": name, "shape": list(shape), "frozen": init == "fixed_kernel",
                        "init": init, "offset": offset, "size": size})
        offset += size * 4
    # The variant fixes every value of the record; bn_momentum is a format
    # constant that nothing reads.
    record = {
        "variant": config.variant,
        "width": config.width,
        "blocks": list(config.blocks),
        "bn_eps": config.bn_eps,
        "bn_momentum": 0.1,
        "eca_gamma": config.eca_gamma,
        "eca_beta": config.eca_beta,
        "dropout_rate": config.dropout_rate,
    }
    return {"config": record, "entries": entries}


def _mismatch(header: dict, expected: dict) -> str:
    """Names the first header key, config key or entry that differs from ``expected``."""
    for key in sorted(header.keys() ^ expected.keys()):
        return f"header key {key!r} is {'missing' if key in expected else 'unexpected'}"
    got, want = header["config"], expected["config"]
    implies = f"variant {want['variant']} implies"
    for key in [*want, *got]:
        if got.get(key, _ABSENT) != want.get(key, _ABSENT):
            return f"config {key} is {got.get(key)!r}; {implies} {want.get(key)!r}"
    got, want = header["entries"], expected["entries"]
    got = got if isinstance(got, list) else []
    for i, w in enumerate(want):
        if i >= len(got) or got[i] != w:
            return f"entry {i} is {got[i] if i < len(got) else None!r}; {implies} {w!r}"
    return f"{len(got)} entries; {implies} {len(want)}"


def save_weights(model: Model, path: str) -> None:
    """Serialize a model; the byte stream is a pure function of its contents."""
    specs = [(name, p.value.shape, p.init) for name, p in model.params.items()]
    header = json.dumps(_header(model.config, specs), separators=(",", ":")).encode("utf-8")
    payload = b"".join(
        p.value.data.astype(_F32, copy=False).tobytes() for p in model.params.values()
    )
    body = MAGIC + struct.pack("<HI", VERSION, len(header)) + header + payload
    _atomic_write(path, body + struct.pack("<I", zlib.crc32(body)))


def load_weights(path: str) -> Model:
    """Read a weight file back into a model.

    A checksum mismatch warns (:class:`ChecksumWarning`).  Structural damage
    (bad magic, truncation, a header other than the one the file's variant
    implies, a payload of the wrong length) always raises
    :class:`WeightFormatError` with the byte offset.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 14:
        raise WeightFormatError(f"file too short ({len(blob)} bytes)", offset=0)
    if blob[:4] != MAGIC:
        raise WeightFormatError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}", offset=0)
    version, header_len = struct.unpack_from("<HI", blob, 4)
    if version != VERSION:
        raise WeightFormatError(f"unsupported version {version}", offset=4)
    header_start = 10
    payload_start = header_start + header_len
    if payload_start + 4 > len(blob):
        raise WeightFormatError("header extends past end of file", offset=6)
    try:
        header = json.loads(blob[header_start:payload_start].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8/JSON, huge ints, deep nesting
        raise WeightFormatError(f"header is not valid JSON: {exc}", offset=header_start) from exc
    record = header.get("config") if isinstance(header, dict) else None
    variant = record.get("variant") if isinstance(record, dict) else None
    if not isinstance(variant, str) or variant not in VARIANTS:
        raise WeightFormatError(
            f"header has no config record naming a known variant (got {variant!r})",
            offset=header_start,
        )
    config = BackboneConfig(variant)
    specs = param_specs(config)
    expected = _header(config, specs)
    if header != expected:
        raise WeightFormatError(_mismatch(header, expected), offset=header_start)
    view = memoryview(blob)
    payload = view[payload_start:-4]
    last = expected["entries"][-1]
    need = last["offset"] + last["size"] * 4
    if len(payload) != need:
        raise WeightFormatError(
            f"payload holds {len(payload)} bytes; the entry table needs {need}", offset=payload_start
        )
    params = {}
    for (name, shape, init), ent in zip(specs, expected["entries"]):
        arr = np.frombuffer(payload, dtype=_F32, count=ent["size"], offset=ent["offset"])
        params[name] = Param(name, Tensor._wrap(arr.reshape(shape).astype(np.float32)), init)
    stored_crc = struct.unpack_from("<I", blob, len(blob) - 4)[0]
    actual_crc = zlib.crc32(view[:-4])
    if stored_crc != actual_crc:
        msg = f"checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        warnings.warn(msg, ChecksumWarning, stacklevel=2)
    return Model(config, params)

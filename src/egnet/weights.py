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
A checksum mismatch on load is reported as a warning, not an error: the
structure is still intact, only the payload bytes differ.
"""

from __future__ import annotations

import json
import struct
import warnings
import zlib

import numpy as np

from .backbone import BackboneConfig, Model, Param, param_specs
from .errors import WeightFormatError
from .tensor import Tensor, _atomic_write

MAGIC = b"LEGW"
VERSION = 1
_F32 = np.dtype("<f4")


class ChecksumWarning(UserWarning):
    """Stored checksum does not match the file contents."""


def _config_record(cfg: BackboneConfig) -> dict:
    return {
        "variant": cfg.variant,
        "width": cfg.width,
        "blocks": list(cfg.blocks),
        "bn_eps": cfg.bn_eps,
        "bn_momentum": cfg.bn_momentum,
        "eca_gamma": cfg.eca_gamma,
        "eca_beta": cfg.eca_beta,
        "dropout_rate": cfg.dropout_rate,
    }


def _config_from_record(rec: dict) -> BackboneConfig:
    try:
        return BackboneConfig(
            variant=rec["variant"],
            width=int(rec["width"]),
            blocks=tuple(int(b) for b in rec["blocks"]),
            bn_eps=float(rec["bn_eps"]),
            bn_momentum=float(rec["bn_momentum"]),
            eca_gamma=int(rec["eca_gamma"]),
            eca_beta=int(rec["eca_beta"]),
            dropout_rate=float(rec["dropout_rate"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WeightFormatError(f"bad config record: {exc}") from exc


def save_weights(model: Model, path: str) -> None:
    """Serialize a model; the byte stream is a pure function of its contents."""
    entries = []
    chunks = []
    offset = 0
    for name, p in model.params.items():
        arr = p.value.data.astype(_F32, copy=False)
        entries.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "frozen": p.frozen,
                "init": p.init,
                "offset": offset,
                "size": int(arr.size),
            }
        )
        chunks.append(arr.tobytes())
        offset += arr.size * 4
    header = json.dumps(
        {"config": _config_record(model.config), "entries": entries},
        separators=(",", ":"),
    ).encode("utf-8")
    body = MAGIC + struct.pack("<HI", VERSION, len(header)) + header + b"".join(chunks)
    _atomic_write(path, body + struct.pack("<I", zlib.crc32(body)))


def load_weights(path: str, *, on_checksum: str = "warn") -> Model:
    """Read a weight file back into a model.

    ``on_checksum`` is one of ``warn`` (default), ``raise``, ``ignore``.
    Structural damage (bad magic, truncation, malformed table) always
    raises :class:`WeightFormatError` with the byte offset, and so does an
    entry table that is not the one the config implies (a missing or
    unknown name, or a wrong shape, init or frozen flag).
    """
    if on_checksum not in ("warn", "raise", "ignore"):
        raise ValueError(f"on_checksum must be warn/raise/ignore, got {on_checksum!r}")
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WeightFormatError(f"header is not valid JSON: {exc}", offset=header_start) from exc
    if not isinstance(header, dict) or "config" not in header or "entries" not in header:
        raise WeightFormatError("header must contain config and entries", offset=header_start)

    cfg = _config_from_record(header["config"])
    expected = {name: (shape, init) for name, shape, init in param_specs(cfg)}
    payload = blob[payload_start : len(blob) - 4]
    params: dict[str, Param] = {}
    cursor = 0
    for ent in header["entries"]:
        try:
            name = ent["name"]
            shape = tuple(int(s) for s in ent["shape"])
            frozen = bool(ent["frozen"])
            init = ent["init"]
            offset = int(ent["offset"])
            size = int(ent["size"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WeightFormatError(f"malformed entry {ent!r}", offset=header_start) from exc
        if name in params:
            raise WeightFormatError(f"duplicate entry name {name!r}", offset=header_start)
        if name not in expected:
            raise WeightFormatError(
                f"entry {name!r} is not a parameter of this config", offset=header_start
            )
        want_shape, want_init = expected[name]
        if shape != want_shape:
            raise WeightFormatError(
                f"entry {name}: shape {shape}, expected {want_shape}", offset=header_start
            )
        if init != want_init or frozen != (want_init == "fixed_kernel"):
            raise WeightFormatError(
                f"entry {name}: init {init!r} frozen={frozen}, expected init {want_init!r} "
                f"frozen={want_init == 'fixed_kernel'}",
                offset=header_start,
            )
        if int(np.prod(shape, dtype=np.int64)) != size:
            raise WeightFormatError(f"entry {name}: shape {shape} does not match size {size}")
        if offset != cursor:
            raise WeightFormatError(
                f"entry {name}: offset {offset} overlaps or leaves a gap (expected {cursor})"
            )
        end = offset + size * 4
        if end > len(payload):
            raise WeightFormatError(
                f"entry {name}: payload out of bounds", offset=payload_start + offset
            )
        arr = np.frombuffer(payload, dtype=_F32, count=size, offset=offset).reshape(shape)
        params[name] = Param(name, Tensor(arr.astype(np.float32)), frozen, init)
        cursor = end
    missing = [name for name in expected if name not in params]
    if missing:
        raise WeightFormatError(
            f"{len(missing)} parameter entries missing, first {missing[0]!r}", offset=header_start
        )
    if cursor != len(payload):
        raise WeightFormatError(
            f"{len(payload) - cursor} trailing payload bytes not covered by the entry table",
            offset=payload_start + cursor,
        )
    stored_crc = struct.unpack_from("<I", blob, len(blob) - 4)[0]
    actual_crc = zlib.crc32(blob[:-4])
    if stored_crc != actual_crc:
        msg = f"checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        if on_checksum == "raise":
            raise WeightFormatError(msg, offset=len(blob) - 4)
        if on_checksum == "warn":
            warnings.warn(msg, ChecksumWarning, stacklevel=2)
    return Model(cfg, params)

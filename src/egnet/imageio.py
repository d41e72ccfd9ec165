"""Image ingestion: binary PPM decoding and input normalization.

PPM pixels are scaled to [0, 1] and standardized per channel with the
usual pretraining constants (recorded in the CLI summary so dumps are
reproducible).  Raw tensor files are taken verbatim, cast to float32 (the
dtype of every weight file): they are assumed to be already prepared
(1, 3, H, W) inputs.
"""

from __future__ import annotations

import numpy as np

from .backbone import INPUT_MULTIPLE
from .errors import ImageFormatError
from .tensor import DEFAULT_DTYPE, Tensor, load_raw_tensor

NORM_MEAN = (0.485, 0.456, 0.406)
NORM_STD = (0.229, 0.224, 0.225)
FIELD_DIGITS = 18  # longest width/height/maxval field read; longer ones are malformed


def _tokenize_ppm_header(blob: bytes):
    # Yields (token, end_offset); '#' starts a comment running to end of line.
    i = 0
    n = len(blob)
    while True:
        while i < n and blob[i : i + 1].isspace():
            i += 1
        if i < n and blob[i : i + 1] == b"#":
            while i < n and blob[i : i + 1] != b"\n":
                i += 1
            continue
        if i >= n:
            raise ImageFormatError("unexpected end of PPM header", offset=i)
        start = i
        while i < n and not blob[i : i + 1].isspace() and blob[i : i + 1] != b"#":
            i += 1
        yield blob[start:i], i


def read_ppm(path: str) -> np.ndarray:
    """Decode a binary (P6) PPM with maxval 255 into a (h, w, 3) uint8 array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    tokens = _tokenize_ppm_header(blob)
    magic, _ = next(tokens)
    if magic != b"P6":
        raise ImageFormatError(f"not a binary PPM (magic {magic[:FIELD_DIGITS]!r})", offset=0)
    fields = []
    end = 0
    for _ in range(3):
        tok, end = next(tokens)
        if not tok.isdigit() or len(tok) > FIELD_DIGITS:
            raise ImageFormatError(f"bad PPM header field {tok[:FIELD_DIGITS]!r}", offset=end)
        fields.append(int(tok))
    width, height, maxval = fields
    if maxval != 255:
        raise ImageFormatError(f"only maxval 255 is supported, got {maxval}", offset=end)
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad dimensions {width}x{height}", offset=end)
    if end == len(blob):
        raise ImageFormatError("unexpected end of PPM header", offset=end)
    data_start = end + 1  # exactly one whitespace byte after maxval
    expected = width * height * 3
    if len(blob) - data_start < expected:
        raise ImageFormatError(
            f"short pixel payload: {len(blob) - data_start} bytes, expected {expected}",
            offset=data_start,
        )
    pixels = np.frombuffer(blob, dtype=np.uint8, count=expected, offset=data_start)
    return pixels.reshape(height, width, 3).copy()


def normalize_pixels(pixels: np.ndarray) -> Tensor:
    """uint8 (h, w, 3) -> normalized float32 (1, 3, h, w)."""
    x = pixels.astype(np.float32) / 255.0
    mean = np.asarray(NORM_MEAN, dtype=np.float32)
    std = np.asarray(NORM_STD, dtype=np.float32)
    x = (x - mean) / std
    return Tensor._wrap(np.ascontiguousarray(x.transpose(2, 0, 1)[None]))


def fit_to_multiple(x: Tensor, fit: str = "pad") -> Tensor:
    """Center-pad (replicate) or center-crop so h and w divide ``INPUT_MULTIPLE``."""
    if fit == "none":
        return x
    if fit not in ("pad", "crop"):
        raise ImageFormatError(f"fit must be pad, crop, or none, got {fit!r}")
    a = x.data
    h, w = a.shape[2], a.shape[3]
    m = INPUT_MULTIPLE
    if fit == "pad":
        th = -(-h // m) * m
        tw = -(-w // m) * m
        ph, pw = th - h, tw - w
        top, left = ph // 2, pw // 2
        a = np.pad(
            a,
            ((0, 0), (0, 0), (top, ph - top), (left, pw - left)),
            mode="edge",
        )
    else:
        th, tw = (h // m) * m, (w // m) * m
        if th < m or tw < m:
            raise ImageFormatError(f"image {h}x{w} too small to crop to a multiple of {m}")
        top, left = (h - th) // 2, (w - tw) // 2
        a = a[:, :, top : top + th, left : left + tw]
    return Tensor._wrap(np.ascontiguousarray(a))


def load_image(path: str, *, fit: str = "pad") -> Tensor:
    """Load a PPM (normalized) or raw tensor file (verbatim, as float32) as (1, 3, h, w)."""
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"P6":
        x = normalize_pixels(read_ppm(path))
    else:
        x = load_raw_tensor(path)
        if x.shape[:2] != (1, 3):
            raise ImageFormatError(
                f"raw tensor input must be (1, 3, h, w), got {x.shape}"
            )
        x = x.astype(DEFAULT_DTYPE)
    return fit_to_multiple(x, fit)

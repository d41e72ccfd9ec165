"""PPM decoding, normalization, and divisibility fitting."""

import numpy as np
import pytest

from egnet.errors import ImageFormatError
from egnet.imageio import (
    NORM_MEAN,
    NORM_STD,
    fit_to_multiple,
    load_image,
    normalize_pixels,
    read_ppm,
)
from egnet.tensor import Tensor, save_raw_tensor


def write_ppm(path, pixels, header=None):
    h, w, _ = pixels.shape
    head = header if header is not None else f"P6\n{w} {h}\n255\n".encode()
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(pixels.astype(np.uint8).tobytes())


def test_zero_image_normalizes_to_minus_mean_over_std(tmp_path):
    path = str(tmp_path / "z.ppm")
    write_ppm(path, np.zeros((8, 8, 3), dtype=np.uint8))
    t = load_image(path, fit="none")
    for c in range(3):
        expected = (0.0 - NORM_MEAN[c]) / NORM_STD[c]
        np.testing.assert_allclose(t.data[0, c], expected, rtol=1e-6)


def test_white_image_normalizes_to_one_minus_mean_over_std(tmp_path):
    path = str(tmp_path / "w.ppm")
    write_ppm(path, np.full((4, 6, 3), 255, dtype=np.uint8))
    t = load_image(path, fit="none")
    assert t.shape == (1, 3, 4, 6)
    for c in range(3):
        expected = (1.0 - NORM_MEAN[c]) / NORM_STD[c]
        np.testing.assert_allclose(t.data[0, c], expected, rtol=1e-6)


def test_channel_order_is_rgb_planes(tmp_path):
    px = np.zeros((2, 2, 3), dtype=np.uint8)
    px[..., 0] = 255  # pure red
    path = str(tmp_path / "r.ppm")
    write_ppm(path, px)
    t = load_image(path, fit="none")
    assert t.data[0, 0].min() > 0  # red plane is bright
    assert t.data[0, 1].max() < 0  # green/blue normalize below zero
    assert t.data[0, 2].max() < 0


def test_header_comments_and_whitespace(tmp_path):
    px = np.full((2, 3, 3), 7, dtype=np.uint8)
    header = b"P6 # a comment\n# another comment\n 3   2 \n255\n"
    path = str(tmp_path / "c.ppm")
    write_ppm(path, px, header=header)
    assert read_ppm(path).shape == (2, 3, 3)


def test_pad_to_multiple_replicates_borders(tmp_path):
    rng = np.random.default_rng(0)
    px = rng.integers(0, 256, size=(300, 300, 3), dtype=np.uint8).astype(np.uint8)
    path = str(tmp_path / "p.ppm")
    write_ppm(path, px)
    t = load_image(path, fit="pad")
    assert t.shape == (1, 3, 320, 320)
    inner = normalize_pixels(px)
    np.testing.assert_allclose(t.data[:, :, 10:310, 10:310], inner.data, rtol=1e-6)
    np.testing.assert_array_equal(t.data[0, :, 0, 10:310], t.data[0, :, 10, 10:310])
    np.testing.assert_array_equal(t.data[0, :, 10:310, 319], t.data[0, :, 10:310, 309])


def test_crop_to_multiple_is_centered(tmp_path):
    px = np.random.default_rng(1).integers(0, 256, size=(70, 100, 3)).astype(np.uint8)
    path = str(tmp_path / "c.ppm")
    write_ppm(path, px)
    t = load_image(path, fit="crop")
    assert t.shape == (1, 3, 64, 96)
    inner = normalize_pixels(px)
    np.testing.assert_allclose(t.data, inner.data[:, :, 3:67, 2:98], rtol=1e-6)


def test_fit_none_keeps_native_size(tmp_path):
    px = np.zeros((30, 50, 3), dtype=np.uint8)
    path = str(tmp_path / "n.ppm")
    write_ppm(path, px)
    assert load_image(path, fit="none").shape == (1, 3, 30, 50)


def test_raw_tensor_input_taken_verbatim(tmp_path):
    x = Tensor(np.random.default_rng(2).normal(size=(1, 3, 32, 32)).astype(np.float32))
    path = str(tmp_path / "x.rt")
    save_raw_tensor(x, path)
    t = load_image(path, fit="none")
    assert t.data.tobytes() == x.data.tobytes()


def test_raw_tensor_input_must_be_image_shaped(tmp_path):
    x = Tensor(np.zeros((2, 3, 8, 8), dtype=np.float32))
    path = str(tmp_path / "x.rt")
    save_raw_tensor(x, path)
    with pytest.raises(ImageFormatError):
        load_image(path)


@pytest.mark.parametrize(
    "header,pixels",
    [
        (b"P5\n4 4\n255\n", np.zeros((4, 4, 3), dtype=np.uint8)),          # wrong magic
        (b"P6\n4 4\n65535\n", np.zeros((4, 4, 3), dtype=np.uint8)),        # wide maxval
        (b"P6\n4 four\n255\n", np.zeros((4, 4, 3), dtype=np.uint8)),       # non-numeric
        (b"P6\n4 4", np.zeros((0, 0, 3), dtype=np.uint8)),                  # ends in the header
        (b"P6\n0 4\n255\n", np.zeros((4, 0, 3), dtype=np.uint8)),         # zero width
        pytest.param(b"P6\n" + b"9" * 5000 + b" 4\n255\n", np.zeros((4, 4, 3), dtype=np.uint8),
                     id="width-5000-digits"),
        pytest.param(b"P6" + b"x" * 100_000 + b"\n4 4\n255\n", np.zeros((4, 4, 3), dtype=np.uint8),
                     id="magic-100kB"),
    ],
)
def test_malformed_headers(tmp_path, header, pixels):
    path = str(tmp_path / "bad.ppm")
    write_ppm(path, pixels, header=header)
    with pytest.raises(ImageFormatError) as err:
        read_ppm(path)
    assert len(str(err.value)) < 100  # a long field is echoed by its prefix only


def test_header_ending_at_maxval_is_truncated(tmp_path):
    path = tmp_path / "cut.ppm"
    path.write_bytes(b"P6\n1 1\n255")
    with pytest.raises(ImageFormatError, match="unexpected end of PPM header") as err:
        read_ppm(str(path))
    assert err.value.offset == 10


def test_short_payload(tmp_path):
    path = str(tmp_path / "short.ppm")
    with open(path, "wb") as fh:
        fh.write(b"P6\n8 8\n255\n")
        fh.write(b"\x00" * 10)
    with pytest.raises(ImageFormatError):
        read_ppm(path)


def test_unknown_fit_rejected():
    with pytest.raises(ImageFormatError):
        fit_to_multiple(Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)), "x")


def test_crop_smaller_than_multiple_rejected():
    x = Tensor(np.zeros((1, 3, 16, 40), dtype=np.float32))
    with pytest.raises(ImageFormatError):
        fit_to_multiple(x, "crop")

"""Tensor value type and the raw tensor file format."""

from pathlib import Path

import numpy as np
import pytest

from egnet.errors import ContractError, DimensionError, ParseError
from egnet.tensor import Tensor, _atomic_write, load_raw_tensor, save_raw_tensor

from conftest import MALFORMED_RT


class TestTensor:
    def test_wraps_and_freezes(self):
        t = Tensor(np.arange(12, dtype=np.float32).reshape(1, 3, 2, 2))
        assert t.shape == (1, 3, 2, 2)
        assert t.dtype == np.float32
        with pytest.raises(ValueError):
            t.data[0, 0, 0, 0] = 5.0

    def test_constructor_copies(self):
        src = np.zeros((1, 1, 2, 2), dtype=np.float32)
        t = Tensor(src)
        src[0, 0, 0, 0] = 7.0
        assert t.data[0, 0, 0, 0] == 0.0

    def test_rejects_non_numeric_data(self):
        with pytest.raises(ContractError):
            Tensor(np.array(["a", "b"]))

    def test_default_dtype_is_f32(self):
        assert Tensor([[1, 2], [3, 4]]).dtype == np.float32

    def test_astype_roundtrip(self):
        t = Tensor(np.linspace(0, 1, 8, dtype=np.float32).reshape(1, 2, 2, 2))
        t64 = t.astype(np.float64)
        assert t64.dtype == np.float64
        assert t64.astype(np.float32).data.tobytes() == t.data.tobytes()


class TestRawTensorFile:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        t = Tensor(rng.normal(size=(2, 3, 5, 4)).astype(np.float32))
        path = str(tmp_path / "t.rt")
        save_raw_tensor(t, path)
        back = load_raw_tensor(path)
        assert back.shape == t.shape
        assert back.data.tobytes() == t.data.tobytes()

    def test_header_layout(self, tmp_path):
        t = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
        path = str(tmp_path / "t.rt")
        save_raw_tensor(t, path)
        blob = Path(path).read_bytes()
        header, payload = blob.split(b"\n", 1)
        assert header == b'{"shape":[1,3,4,4],"dtype":"f32","order":"nchw"}'
        assert len(payload) == 48 * 4

    def test_f64_roundtrip(self, tmp_path, rng):
        t = Tensor(rng.normal(size=(1, 1, 3, 3)))
        assert t.dtype == np.float64
        path = str(tmp_path / "t64.rt")
        save_raw_tensor(t, path)
        assert load_raw_tensor(path).data.tobytes() == t.data.tobytes()

    def test_rejects_non_rank4(self, tmp_path):
        with pytest.raises(DimensionError):
            save_raw_tensor(Tensor(np.zeros(3, dtype=np.float32)), str(tmp_path / "x.rt"))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: b"not json\n" + b[b.find(b"\n") + 1 :],
            lambda b: b[: b.find(b"\n") + 1] + b[b.find(b"\n") + 1 : -4],  # truncated payload
            lambda b: b.replace(b'"nchw"', b'"nhwc"'),
            pytest.param(lambda b: b[: b.find(b"\n")], id="no-newline"),
            pytest.param(lambda b: b.replace(b'"order"', b'"layout"'), id="other-keys"),
            pytest.param(lambda b: b.replace(b'"f32"', b'"f16"'), id="dtype-f16"),
            pytest.param(lambda b: b.replace(b"[1,1,2,2]", b"[1,1,2]"), id="bad-shape"),
            pytest.param(lambda b: b.replace(b"[1,1,2,2]", b"[1,true,2,2]"), id="bool-dim"),
            *(pytest.param(lambda b, blob=blob: blob, id=k) for k, blob in MALFORMED_RT.items()),
        ],
    )
    def test_malformed_files_raise(self, tmp_path, mutate):
        t = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
        path = str(tmp_path / "t.rt")
        save_raw_tensor(t, path)
        blob = mutate(Path(path).read_bytes())
        bad = tmp_path / "bad.rt"
        bad.write_bytes(blob)
        with pytest.raises(ParseError):
            load_raw_tensor(str(bad))


def test_failed_write_leaves_no_temp_file(tmp_path):
    # A binary file takes no str, so the write itself fails.
    with pytest.raises(TypeError):
        _atomic_write(str(tmp_path / "t.rt"), "not bytes")
    assert list(tmp_path.iterdir()) == []

"""Command-line surface: exit codes, outputs, determinism, error lines."""

import json
import os
import re
import struct
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

import egnet
from egnet.autograd import GradReport
from egnet.backbone import BackboneConfig, Model, Param, build_model
from egnet.cli import MESSAGE_CHARS, main
from egnet.kernels import scharr_kernels
from egnet.tensor import Tensor, load_raw_tensor, save_raw_tensor
from egnet.weights import save_weights

from conftest import MALFORMED_RT, assert_error_line

SUMMARY_TINY = """\
source variant=tiny seed=0
config variant=tiny width=32 blocks=1,4,4,2 bn_eps=1e-05 eca_gamma=2 eca_beta=1 dropout=0.1
normalization mean=0.485,0.456,0.406 std=0.229,0.224,0.225
group fixed learnable=        0 stats=      0 frozen= 198
group stem  learnable=     8533 stats=    236 frozen=   0
group s1    learnable=    16099 stats=    448 frozen=   0
group s2    learnable=   272524 stats=   3968 frozen=   0
group s3    learnable=  1077524 stats=   7936 frozen=   0
group s4    learnable=  2307082 stats=   8704 frozen=   0
total learnable=3681762 stats=21292 frozen=198
frozen_kernels fixed.log7 fixed.gauss9_s05 fixed.gauss5_s05 fixed.gauss5_s10 fixed.scharr_x \
fixed.scharr_y
"""

SCHARR = """\
scharr_x 3x3
 -3.00000000   0.00000000   3.00000000
-10.00000000   0.00000000  10.00000000
 -3.00000000   0.00000000   3.00000000
scharr_y 3x3
 -3.00000000 -10.00000000  -3.00000000
  0.00000000   0.00000000   0.00000000
  3.00000000  10.00000000   3.00000000
"""

GAUSSIAN_3 = """\
gaussian 3x3 sigma=1 sum=1.000000000000
  0.07511361   0.12384140   0.07511361
  0.12384140   0.20417996   0.12384140
  0.07511361   0.12384140   0.07511361
"""

CHECKSUM_WARNING = (
    r'warning category=weights message="checksum mismatch: '
    r'stored 0x[0-9a-f]{8}, computed 0x[0-9a-f]{8}"\n'
)


@pytest.fixture(scope="module")
def tiny_weights(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("weights") / "tiny.legw")
    assert main(["init", "--variant", "tiny", "--seed", "0", "--out", path]) == 0
    return path


@pytest.fixture(scope="module")
def flipped_weights(tiny_weights, tmp_path_factory):
    # tiny_weights with one payload byte flipped: intact but for its checksum
    blob = bytearray(Path(tiny_weights).read_bytes())
    blob[-100] ^= 0xFF
    path = tmp_path_factory.mktemp("weights") / "flipped.legw"
    path.write_bytes(bytes(blob))
    return str(path)


def write_step_ppm(path, size=64):
    px = np.zeros((size, size, 3), dtype=np.uint8)
    px[:, size // 2 :] = 255
    with open(path, "wb") as fh:
        fh.write(f"P6\n{size} {size}\n255\n".encode())
        fh.write(px.tobytes())


class TestInitAndSummary:
    def test_init_writes_weights(self, tiny_weights, capsys):
        assert os.path.exists(tiny_weights)

    def test_summary_from_variant(self, capsys):
        assert main(["summary", "--variant", "tiny"]) == 0
        out = capsys.readouterr().out
        expected = build_model(BackboneConfig.for_variant("tiny")).learnable_count()
        assert f"total learnable={expected} " in out
        assert out == SUMMARY_TINY

    def test_summary_from_weights_matches_entry_table(self, tiny_weights, capsys):
        assert main(["summary", "--weights", tiny_weights]) == 0
        out = capsys.readouterr().out
        expected = build_model(BackboneConfig.for_variant("tiny")).learnable_count()
        assert f"total learnable={expected} " in out
        assert "config variant=tiny width=32 blocks=1,4,4,2" in out

    @pytest.mark.filterwarnings("default::egnet.weights.ChecksumWarning")
    def test_checksum_mismatch_is_one_warning_line(self, tiny_weights, flipped_weights, capsys):
        assert main(["summary", "--weights", tiny_weights]) == 0
        clean = capsys.readouterr()
        assert main(["summary", "--weights", flipped_weights]) == 0
        captured = capsys.readouterr()
        assert re.fullmatch(CHECKSUM_WARNING, captured.err), captured.err
        assert captured.out == clean.out.replace(tiny_weights, flipped_weights)
        assert clean.err == ""


class TestKernelsCommand:
    def test_gaussian_prints_and_dumps(self, tmp_path, capsys):
        out_path = str(tmp_path / "g.rt")
        assert main(["kernels", "--type", "gaussian", "--size", "3",
                     "--sigma", "1.0", "--out", out_path]) == 0
        out = capsys.readouterr().out
        assert out == GAUSSIAN_3 + f"wrote {out_path}\n"
        t = load_raw_tensor(out_path)
        assert t.shape == (1, 1, 3, 3)

    def test_log_zero_sum(self, capsys):
        assert main(["kernels", "--type", "log", "--size", "7", "--sigma", "1.0"]) == 0
        assert "sum=0.000000000000" in capsys.readouterr().out

    def test_scharr_prints_pair(self, capsys):
        assert main(["kernels", "--type", "scharr"]) == 0
        assert capsys.readouterr().out == SCHARR

    def test_scharr_dump_is_the_stacked_pair(self, tmp_path, capsys):
        out_path = str(tmp_path / "s.rt")
        assert main(["kernels", "--type", "scharr", "--out", out_path]) == 0
        assert f"wrote {out_path}" in capsys.readouterr().out
        t = load_raw_tensor(out_path)
        expected = np.stack(scharr_kernels())[:, None].astype(np.float32)
        assert t.dtype == np.float32
        np.testing.assert_array_equal(t.data, expected)

    def test_scharr_rejects_size(self, capsys):
        assert main(["kernels", "--type", "scharr", "--size", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error category=config ")
        assert err.count("\n") == 1

    def test_scharr_rejects_sigma(self, capsys):
        assert main(["kernels", "--type", "scharr", "--sigma", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error category=config ")
        assert err.count("\n") == 1


class TestFeaturesCommand:
    def test_pyramid_dump_shapes_and_stats(self, tiny_weights, tmp_path, capsys):
        ppm = str(tmp_path / "img.ppm")
        write_step_ppm(ppm, 64)
        out_dir = str(tmp_path / "out")
        assert main(["features", "--weights", tiny_weights, "--image", ppm,
                     "--out-dir", out_dir]) == 0
        stdout = capsys.readouterr().out
        expected = {
            "level1.rt": (1, 32, 16, 16),
            "level2.rt": (1, 64, 8, 8),
            "level3.rt": (1, 128, 4, 4),
            "level4.rt": (1, 256, 2, 2),
        }
        for fname, shape in expected.items():
            assert load_raw_tensor(os.path.join(out_dir, fname)).shape == shape
        for i in (1, 2, 3, 4):
            assert f"level{i} shape=" in stdout

    def test_repeat_runs_byte_identical(self, tiny_weights, tmp_path):
        ppm = str(tmp_path / "img.ppm")
        write_step_ppm(ppm, 64)
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        for d in (d1, d2):
            assert main(["features", "--weights", tiny_weights, "--image", ppm,
                         "--out-dir", d]) == 0
        for fname in os.listdir(d1):
            a = Path(os.path.join(d1, fname)).read_bytes()
            b = Path(os.path.join(d2, fname)).read_bytes()
            assert a == b, fname

    def test_stage1_attention_peaks_at_step(self, tiny_weights, tmp_path):
        ppm = str(tmp_path / "step.ppm")
        write_step_ppm(ppm, 64)
        out_dir = str(tmp_path / "att")
        assert main(["features", "--weights", tiny_weights, "--image", ppm,
                     "--out-dir", out_dir, "--stage", "1", "--dump-attention"]) == 0
        names = sorted(os.listdir(out_dir))
        assert names == ["level1.rt", "s1_b1_ega_attention.rt"]
        att = load_raw_tensor(os.path.join(out_dir, "s1_b1_ega_attention.rt"))
        col_energy = att.data[0].sum(axis=(0, 1))
        step_col = att.shape[3] // 2
        assert abs(int(col_energy.argmax()) - step_col) <= 1

    @pytest.mark.parametrize(
        "stage, labels",
        [(["--stage", "2"], ["level2", *(f"s2.b{j}.ega.attention" for j in (1, 2, 3, 4))]),
         ([], ["level1", "level2", "level3", "level4", "s1.b1.ega.attention",
               *(f"s{i}.b{j}.ega.attention" for i in (2, 3) for j in (1, 2, 3, 4)),
               "s4.b1.ega.attention", "s4.b2.ega.attention"])],
        ids=["stage-2", "all-stages"],
    )
    def test_attention_dump_names_and_order(self, stage, labels, tiny_weights, tmp_path, capsys):
        # Levels first, then the attention maps in sorted order; a label's
        # file name is the label with "." replaced by "_".
        ppm = str(tmp_path / "step.ppm")
        write_step_ppm(ppm, 64)
        out_dir = str(tmp_path / "att")
        assert main(["features", "--weights", tiny_weights, "--image", ppm,
                     "--out-dir", out_dir, "--dump-attention", *stage]) == 0
        printed = [line.split(" ", 1)[0] for line in capsys.readouterr().out.splitlines()]
        assert printed == labels
        assert sorted(os.listdir(out_dir)) == sorted(
            label.replace(".", "_") + ".rt" for label in labels
        )

    @pytest.mark.filterwarnings("default::egnet.weights.ChecksumWarning")
    def test_checksum_mismatch_is_one_warning_line(self, flipped_weights, tmp_path, capsys):
        ppm = str(tmp_path / "img.ppm")
        write_step_ppm(ppm, 32)
        assert main(["features", "--weights", flipped_weights, "--image", ppm,
                     "--out-dir", str(tmp_path / "out"), "--stage", "1"]) == 0
        captured = capsys.readouterr()
        assert re.fullmatch(CHECKSUM_WARNING, captured.err), captured.err
        assert captured.out.startswith("level1 shape=1x32x8x8 ")
        assert captured.out.count("\n") == 1

    def test_full_resolution_pyramid(self, tiny_weights, tmp_path):
        ppm = str(tmp_path / "big.ppm")
        write_step_ppm(ppm, 256)
        out_dir = str(tmp_path / "out")
        assert main(["features", "--weights", tiny_weights, "--image", ppm,
                     "--out-dir", out_dir]) == 0
        expected = {
            "level1.rt": (1, 32, 64, 64),
            "level2.rt": (1, 64, 32, 32),
            "level3.rt": (1, 128, 16, 16),
            "level4.rt": (1, 256, 8, 8),
        }
        for fname, shape in expected.items():
            assert load_raw_tensor(os.path.join(out_dir, fname)).shape == shape

    def test_pads_non_multiple_images(self, tiny_weights, tmp_path, capsys):
        ppm = str(tmp_path / "odd.ppm")
        write_step_ppm(ppm, 48)  # pads to 64
        out_dir = str(tmp_path / "out")
        assert main(["features", "--weights", tiny_weights, "--image", ppm,
                     "--out-dir", out_dir]) == 0
        assert load_raw_tensor(os.path.join(out_dir, "level1.rt")).shape == (1, 32, 16, 16)

    def test_float64_raw_input_runs_as_float32(self, tiny_weights, tmp_path):
        values = np.random.default_rng(3).normal(size=(1, 3, 64, 64))
        dirs = []
        for dtype in ("float64", "float32"):
            path = str(tmp_path / f"{dtype}.rt")
            save_raw_tensor(Tensor(values.astype(dtype)), path)
            dirs.append(str(tmp_path / dtype))
            assert main(["features", "--weights", tiny_weights, "--image", path,
                         "--out-dir", dirs[-1]]) == 0
        for i in (1, 2, 3, 4):
            a, b = (Path(os.path.join(d, f"level{i}.rt")).read_bytes() for d in dirs)
            assert a == b, i


class TestGradcheckCommand:
    def test_reduced_sweep_passes(self, capsys):
        rc = main(["gradcheck", "--variant", "tiny", "--seed", "0",
                   "--coords", "2", "--size", "32"])
        out, err = capsys.readouterr()
        assert rc == 0
        assert "result PASS tol=0.0001" in out
        assert "gradcheck max_rel_err=" in out
        assert "param=stem.conv7 max_rel_err=" in out
        # At 32x32 the stage-4 maps are 1x1, where a batch-statistics norm
        # outputs its shift: every stage-4 tensor but the three shifts that
        # reach a level has zero gradient, so the check cannot see it.
        seen = {"s4.drfd.an.norm.shift", "s4.b1.out.norm.shift", "s4.b2.out.norm.shift"}
        unseen = [name for name, _ in build_model(BackboneConfig.for_variant("tiny")).learnable_items()
                  if name.startswith("s4.") and name not in seen]
        assert len(unseen) == 43
        line = re.fullmatch(r'warning category=verify message="43 tensors have all-zero checked '
                            r'gradients, analytic and numeric, so the check cannot see them: '
                            r'([^"\n]*)"\n', err)
        assert line, err
        assert len(line[0]) <= len('warning category=verify message=""\n') + MESSAGE_CHARS
        *names, last = line[1].removesuffix("...").split(" ")
        assert names == unseen[: len(names)] and unseen[len(names)].startswith(last)

    def test_no_warning_when_every_tensor_is_seen(self, capsys, monkeypatch):
        # TestGradcheckReachesStage4 checks that at 64x64 no tensor is unseen.
        report = GradReport(eps=1e-3, dtype="float64", coords_per_tensor=2,
                            per_param={"stem.conv7": 1e-9})
        monkeypatch.setattr("egnet.cli.backbone_gradcheck", lambda *a, **k: report)
        rc = main(["gradcheck", "--variant", "tiny", "--size", "32"])
        out, err = capsys.readouterr()
        assert rc == 0 and "result PASS tol=0.0001" in out
        assert err == ""


class TestErrorSurface:
    def test_missing_weights_file(self, tmp_path, capsys):
        rc = main(["summary", "--weights", str(tmp_path / "nope.legw")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error category=")
        assert err.count("\n") == 1

    def test_image_divisibility_error(self, tiny_weights, tmp_path, capsys):
        ppm = str(tmp_path / "odd.ppm")
        write_step_ppm(ppm, 48)
        rc = main(["features", "--weights", tiny_weights, "--image", ppm,
                   "--out-dir", str(tmp_path / "o"), "--fit", "none"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error category=shape ")

    @pytest.mark.parametrize("fit", ["pad", "none"])
    def test_empty_raw_tensor_is_a_shape_error(self, fit, tiny_weights, tmp_path, capsys):
        path = str(tmp_path / "empty.rt")
        save_raw_tensor(Tensor(np.zeros((1, 3, 0, 0), dtype=np.float32)), path)
        rc = main(["features", "--weights", tiny_weights, "--image", path,
                   "--out-dir", str(tmp_path / "o"), "--fit", fit])
        assert rc == 1
        assert_error_line(capsys.readouterr().err, "shape")

    @pytest.mark.parametrize("command", ["init", "summary", "gradcheck"])
    def test_negative_seed_is_one_error_line(self, command, tmp_path, capsys):
        args = [command, "--variant", "tiny", "--seed", "-1"]
        if command == "init":
            args += ["--out", str(tmp_path / "m.legw")]
        rc = main(args)
        captured = capsys.readouterr()
        assert rc == 1
        assert_error_line(captured.err, "config")
        assert captured.out == ""
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("seed", ["0", "-7"])
    def test_summary_seed_with_weights_is_one_error_line(self, seed, tiny_weights, capsys):
        # A weight file holds every value; the seed would decide nothing.
        rc = main(["summary", "--weights", tiny_weights, "--seed", seed])
        captured = capsys.readouterr()
        assert rc == 1
        assert_error_line(captured.err, "config")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "blob",
        [b'{"shape":[1,3,32,32],"dtype":"f16","order":"nchw"}\n' + bytes(6144),
         *MALFORMED_RT.values()],
        ids=["dtype-f16", *MALFORMED_RT],
    )
    def test_malformed_raw_tensor_image_is_one_error_line(
        self, blob, tiny_weights, tmp_path, capsys
    ):
        path = tmp_path / "bad.rt"
        path.write_bytes(blob)
        rc = main(["features", "--weights", tiny_weights, "--image", str(path),
                   "--out-dir", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 1
        assert_error_line(captured.err, "parse")
        assert captured.out == ""
        assert not os.path.exists(tmp_path / "o")

    def test_bool_dimension_in_raw_tensor_image_is_one_error_line(
        self, tiny_weights, tmp_path, capsys
    ):
        # JSON true would pass an isinstance(int) check and reach numpy's reshape.
        path = tmp_path / "bad.rt"
        path.write_bytes(b'{"shape":[1,3,true,32],"dtype":"f32","order":"nchw"}\n' + bytes(384))
        rc = main(["features", "--weights", tiny_weights, "--image", str(path),
                   "--out-dir", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 1
        assert_error_line(captured.err, "parse")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "args, category",
        [(["--size", "0"], "shape"), (["--size", "-32"], "shape"),
         (["--coords", "0"], "config"), (["--coords", "-1"], "config"),
         (["--eps", "0"], "config"), (["--eps=-1e-5"], "config"),
         (["--eps", "inf"], "config"), (["--eps", "nan"], "config"),
         (["--tol", "inf"], "config"), (["--tol", "nan"], "config"),
         (["--tol", "0"], "config"), (["--tol=-1"], "config"),
         (["--size", "32000000000000000000000"], "config")],
        ids=["size=0", "size=-32", "coords=0", "coords=-1", "eps=0", "eps<0", "eps=inf",
             "eps=nan", "tol=inf", "tol=nan", "tol=0", "tol<0", "size-past-array-limit"],
    )
    def test_gradcheck_that_would_check_nothing_is_one_error_line(
        self, args, category, capsys, monkeypatch
    ):
        # The settings are rejected before any model is built.
        def no_model(*_, **__):
            raise AssertionError("gradcheck built a model before checking its settings")

        monkeypatch.setattr("egnet.cli.build_model", no_model)
        rc = main(["gradcheck", "--variant", "tiny", *args])
        captured = capsys.readouterr()
        assert rc == 1
        assert_error_line(captured.err, category)
        assert captured.out == ""

    def test_bad_kernel_config(self, capsys):
        rc = main(["kernels", "--type", "gaussian", "--size", "4", "--sigma", "1.0"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error category=config ")

    @pytest.mark.parametrize(
        "args",
        [["gaussian", "--sigma", "inf"], ["gaussian", "--sigma", "1e-300"],
         ["log", "--size", "3", "--sigma", "1e-300"],
         ["gaussian", "--size", "99999999999"], ["log", "--size", "1000000000000000000001"]],
        ids=["gaussian-inf", "gaussian-tiny", "log-tiny",
             "gaussian-size-past-array-limit", "log-size-past-array-limit"],
    )
    def test_non_finite_kernel_is_one_error_line(self, args, tmp_path, capsys):
        out = str(tmp_path / "k.rt")
        rc = main(["kernels", "--type", *args, "--out", out])
        captured = capsys.readouterr()
        assert rc == 1
        assert_error_line(captured.err, "config")
        assert captured.out == ""
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "args, allocation",
        [(["kernels", "--type", "gaussian", "--size", "999999"], "egnet.kernels._grid"),
         (["gradcheck", "--variant", "tiny", "--size", "3200000"], "egnet.cli.build_model")],
        ids=["kernels-size-999999", "gradcheck-size-3200000"],
    )
    def test_out_of_memory_is_one_error_line(self, args, allocation, capsys, monkeypatch):
        # These sizes fit an array index but not this machine's memory. The
        # allocation is faked so that no test asks for terabytes.
        def no_memory(*_, **__):
            raise MemoryError("Unable to allocate 14.6 TiB for an array")

        monkeypatch.setattr(allocation, no_memory)
        rc = main(args)
        captured = capsys.readouterr()
        assert rc == 1
        assert_error_line(captured.err, "memory")
        assert "14.6 TiB" in captured.err
        assert captured.out == ""

    def test_checksum_warning_made_an_error_is_one_error_line(self, flipped_weights, capsys):
        # README's way to make a checksum mismatch fatal: warnings as errors.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["summary", "--weights", flipped_weights])
        captured = capsys.readouterr()
        assert rc == 1
        assert_error_line(captured.err, "weights")
        assert "checksum mismatch" in captured.err
        assert captured.out == ""

    def test_other_warning_made_an_error_is_one_runtime_error_line(self, capsys, monkeypatch):
        def overflow(*_, **__):
            warnings.warn("overflow encountered in multiply", RuntimeWarning)

        monkeypatch.setattr("egnet.cli.build_model", overflow)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["summary", "--variant", "tiny"])
        captured = capsys.readouterr()
        assert rc == 1
        assert_error_line(captured.err, "runtime")
        assert "overflow encountered" in captured.err
        assert captured.out == ""

    def test_long_message_keeps_a_prefix(self, tmp_path, capsys):
        # argparse echoes the bad choice whole; the line keeps its start.
        with pytest.raises(SystemExit):
            main(["init", "--variant", "x" * 100_000, "--out", str(tmp_path / "m.legw")])
        err = capsys.readouterr().err
        assert_error_line(err, "usage")
        assert err.startswith("error category=usage message=\"argument --variant: invalid choice: 'xxx")
        assert err.endswith("xxx...\"\n")
        assert len(err) == len('error category=usage message=""\n') + MESSAGE_CHARS

    @staticmethod
    def edit_entry(path, entry, **fields):
        # Rewrites one entry of the table, keeping the container valid
        # (header length, checksum).
        blob = Path(path).read_bytes()
        header_len = struct.unpack_from("<I", blob, 6)[0]
        header = json.loads(blob[10 : 10 + header_len])
        for ent in header["entries"]:
            if ent["name"] == entry:
                ent.update(fields)
        table = json.dumps(header, separators=(",", ":")).encode()
        body = blob[:6] + struct.pack("<I", len(table)) + table + blob[10 + header_len : -4]
        with open(path, "wb") as fh:
            fh.write(body + struct.pack("<I", zlib.crc32(body)))

    @pytest.mark.parametrize("defect", ["missing", "shape", "frozen", "unknown"])
    def test_weight_table_mismatch_is_one_error_line(self, defect, tmp_path, capsys):
        model = build_model(BackboneConfig.for_variant("tiny"), seed=0)
        params = dict(model.params)
        if defect == "missing":
            del params["s2.b1.expand"]
        elif defect == "shape":
            params["s1.b1.eca.w"] = Param(
                "s1.b1.eca.w", Tensor(np.full(5, 0.1, dtype=np.float32)), "he_normal"
            )
        path = str(tmp_path / "bad.legw")
        save_weights(Model(model.config, params), path)
        if defect == "frozen":
            self.edit_entry(path, "s1.b1.expand", frozen=True)
        elif defect == "unknown":
            self.edit_entry(path, "s1.b1.expand", name="s1.b1.widen")
        ppm = str(tmp_path / "img.ppm")
        write_step_ppm(ppm, 32)
        rc = main(["features", "--weights", path, "--image", ppm,
                   "--out-dir", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 1
        assert_error_line(captured.err, "weights")
        assert captured.out == ""
        assert not os.path.exists(tmp_path / "o")

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["features", "--weights", "w"])  # missing required args
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error category=usage ")

    def test_usage_error_with_a_quote_is_one_parseable_line(self, capsys, tmp_path):
        # argparse echoes the bad choice, quote and all
        with pytest.raises(SystemExit) as exc:
            main(["init", "--variant", 'ti"ny', "--out", str(tmp_path / "x.legw")])
        assert exc.value.code == 2
        assert_error_line(capsys.readouterr().err, "usage")


def test_module_entry_point_version():
    # The child imports the same egnet as this process, however that one
    # was put on the path.
    src = os.path.dirname(os.path.dirname(os.path.abspath(egnet.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "egnet", "--version"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("egnet ")

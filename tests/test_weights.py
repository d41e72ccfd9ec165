"""Weight-file container: round trips, checksums, structural validation."""

import hashlib
import json
import re
import struct
import warnings
import zlib

import numpy as np
import pytest

from egnet.backbone import BackboneConfig, build_model
from egnet.cli import main
from egnet.errors import WeightFormatError
from egnet.weights import ChecksumWarning, load_weights, save_weights

from conftest import assert_error_line


@pytest.fixture(scope="module")
def model():
    return build_model(BackboneConfig.for_variant("tiny"), seed=4)


def test_roundtrip_restores_everything(model, tmp_path):
    path = str(tmp_path / "m.legw")
    save_weights(model, path)
    back = load_weights(path)
    assert back.config == model.config
    assert list(back.params) == list(model.params)
    for name, p in model.params.items():
        q = back.params[name]
        assert q.frozen == p.frozen
        assert q.init == p.init
        assert q.value.shape == p.value.shape
        assert q.value.data.tobytes() == p.value.data.tobytes()


def test_save_load_save_is_byte_identical(model, tmp_path):
    p1, p2 = str(tmp_path / "a.legw"), str(tmp_path / "b.legw")
    save_weights(model, p1)
    save_weights(load_weights(p1), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_same_seed_builds_identical_files(tmp_path):
    p1, p2 = str(tmp_path / "a.legw"), str(tmp_path / "b.legw")
    save_weights(build_model(BackboneConfig.for_variant("tiny"), seed=11), p1)
    save_weights(build_model(BackboneConfig.for_variant("tiny"), seed=11), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_file_size_arithmetic(model, tmp_path):
    path = str(tmp_path / "m.legw")
    save_weights(model, path)
    blob = open(path, "rb").read()
    header_len = struct.unpack_from("<I", blob, 6)[0]
    total_values = sum(p.value.size for p in model.params.values())
    assert len(blob) == 10 + header_len + 4 * total_values + 4


def test_corrupted_payload_warns_but_loads(model, tmp_path):
    path = str(tmp_path / "m.legw")
    save_weights(model, path)
    blob = bytearray(open(path, "rb").read())
    blob[-100] ^= 0xFF  # flip one payload byte
    bad = tmp_path / "bad.legw"
    bad.write_bytes(bytes(blob))
    with pytest.warns(ChecksumWarning):
        back = load_weights(str(bad))
    assert len(back.params) == len(model.params)
    with warnings.catch_warnings():  # the documented way to make it fatal
        warnings.simplefilter("error", ChecksumWarning)
        with pytest.raises(ChecksumWarning):
            load_weights(str(bad))


def test_bad_magic(tmp_path, model):
    path = str(tmp_path / "m.legw")
    save_weights(model, path)
    blob = bytearray(open(path, "rb").read())
    blob[:4] = b"NOPE"
    bad = tmp_path / "bad.legw"
    bad.write_bytes(bytes(blob))
    with pytest.raises(WeightFormatError) as err:
        load_weights(str(bad))
    assert err.value.offset == 0


def test_bad_version(tmp_path, model):
    path = str(tmp_path / "m.legw")
    save_weights(model, path)
    blob = bytearray(open(path, "rb").read())
    struct.pack_into("<H", blob, 4, 99)
    bad = tmp_path / "bad.legw"
    bad.write_bytes(bytes(blob))
    with pytest.raises(WeightFormatError):
        load_weights(str(bad))


def test_truncated_file(tmp_path, model):
    path = str(tmp_path / "m.legw")
    save_weights(model, path)
    blob = open(path, "rb").read()
    bad = tmp_path / "bad.legw"
    bad.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(WeightFormatError):
        load_weights(str(bad))


def test_tiny_file_shorter_than_header(tmp_path):
    bad = tmp_path / "bad.legw"
    bad.write_bytes(b"LEGW\x01")
    with pytest.raises(WeightFormatError):
        load_weights(str(bad))


def rewrite(path, edit_header=lambda header: None, edit_payload=lambda payload: payload):
    # Edits the parsed header in place and/or replaces the payload, keeping
    # the header length and checksum valid so that only the edit can fail
    # the load.
    blob = open(path, "rb").read()
    header_len = struct.unpack_from("<I", blob, 6)[0]
    header = json.loads(blob[10 : 10 + header_len])
    edit_header(header)
    table = json.dumps(header, separators=(",", ":")).encode()
    payload = edit_payload(blob[10 + header_len : -4])
    body = blob[:6] + struct.pack("<I", len(table)) + table + payload
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", zlib.crc32(body)))


def set_config(**fields):
    return lambda header: header["config"].update(fields)


# edit of the header -> a word the error message must contain
MALFORMED = {
    "eca_gamma-0": (set_config(eca_gamma=0), "eca_gamma"),
    "blocks-three": (set_config(blocks=[1, 4, 4]), "blocks"),
    "bn_eps-negative": (set_config(bn_eps=-1), "bn_eps"),
    "dropout-2": (set_config(dropout_rate=2.0), "dropout_rate"),
    "bn_momentum-nan": (set_config(bn_momentum=float("nan")), "bn_momentum"),
    "blocks-string": (set_config(blocks="1442"), "blocks"),
    "variant-base": (set_config(variant="base"), "variant"),
    "variant-list": (set_config(variant=["tiny"]), "variant"),
    "config-not-dict": (lambda header: header.update(config=["tiny"]), "variant"),
    "extra-header-key": (lambda header: header.update(comment="x"), "comment"),
    "extra-entry": (lambda h: h["entries"].append(dict(h["entries"][-1])), "entries"),
    # values an error message echoes, 100 kB long
    "variant-100kB": (set_config(variant="v" * 100_000), "variant"),
    "eca_gamma-100kB": (set_config(eca_gamma="g" * 100_000), "eca_gamma"),
    "header-key-100kB": (lambda header: header.update({"k" * 100_000: 1}), "header key"),
    "entry-name-100kB": (lambda h: h["entries"][0].update(name="n" * 100_000), "entry 0"),
}


@pytest.mark.parametrize("edit,needle", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_record_is_one_error_line(edit, needle, model, tmp_path, capsys):
    path = str(tmp_path / "m.legw")
    save_weights(model, path)
    rewrite(path, edit)
    with pytest.raises(WeightFormatError, match=needle):
        load_weights(path)
    rc = main(["summary", "--weights", path])
    captured = capsys.readouterr()
    assert rc == 1
    assert_error_line(captured.err, "weights")
    assert captured.out == ""


def replace_header(edit):
    # An edit of the whole file that swaps its header bytes for edit(header).
    def apply(blob):
        end = 10 + struct.unpack_from("<I", blob, 6)[0]
        header = edit(blob[10:end])
        return blob[:6] + struct.pack("<I", len(header)) + header + blob[end:]
    return apply


# edit of the file bytes -> a word the error message must contain
BROKEN_CONTAINER = {
    "header-past-eof": (lambda blob: blob[:6] + struct.pack("<I", len(blob)) + blob[10:],
                        "past end"),
    "header-not-json": (lambda blob: blob[:10] + b"x" + blob[11:], "JSON"),
    "header-int-over-digit-limit": (
        replace_header(lambda h: h.replace(b'"offset":0', b'"offset":' + b"9" * 5000, 1)), "JSON"),
    "header-nested-past-recursion-limit": (replace_header(lambda h: b"[" * 100_000), "JSON"),
}


@pytest.mark.parametrize("edit,needle", BROKEN_CONTAINER.values(), ids=BROKEN_CONTAINER.keys())
def test_broken_container_is_one_error_line(edit, needle, model, tmp_path, capsys):
    path = tmp_path / "m.legw"
    save_weights(model, str(path))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(WeightFormatError, match=needle):
        load_weights(str(path))
    rc = main(["summary", "--weights", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert_error_line(captured.err, "weights")
    assert captured.out == ""


def test_mismatch_names_the_first_differing_entry(model, tmp_path):
    path = str(tmp_path / "m.legw")
    save_weights(model, path)
    rewrite(path, lambda header: header["entries"][7].update(offset=0))
    with pytest.raises(WeightFormatError) as err:
        load_weights(path)
    assert re.match(r"entry 7 is .*'stem.an_log.norm.scale'.*'offset': 0,", str(err.value))


@pytest.mark.parametrize(
    "edit", [lambda payload: payload[:-4], lambda payload: payload + bytes(4)], ids=["short", "long"]
)
def test_payload_must_have_the_length_the_table_implies(edit, model, tmp_path):
    path = str(tmp_path / "m.legw")
    save_weights(model, path)
    rewrite(path, edit_payload=edit)
    with pytest.raises(WeightFormatError, match="payload"):
        load_weights(path)


# sha256 of the JSON header that version-1 files of each variant carry.
HEADER_SHA256 = {
    "tiny": "52c7bed86b985d114ee378ebb23adb0df38fec3f0135034ad86643a3ad64ce43",
    "small": "64b3efdc6783ae3d955f8a606a358787d16203f430a3dae83336c6e001497a51",
}


@pytest.mark.parametrize("variant", HEADER_SHA256)
def test_header_bytes_are_pinned(variant, tmp_path):
    path = str(tmp_path / "m.legw")
    save_weights(build_model(BackboneConfig.for_variant(variant), seed=0), path)
    blob = open(path, "rb").read()
    header_len = struct.unpack_from("<I", blob, 6)[0]
    assert hashlib.sha256(blob[10 : 10 + header_len]).hexdigest() == HEADER_SHA256[variant]

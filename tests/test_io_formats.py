"""Container formats: round-trips, hostile inputs, PGM export, manifests."""

import errno
import json
import struct

import numpy as np
import pytest

import sinoquad.io_formats as io_formats
from sinoquad.geometry import Image, Sinogram
from sinoquad.io_formats import (
    MAGIC,
    BadMagicError,
    DimensionError,
    RawImportError,
    TomoFormatError,
    TruncatedFileError,
    UnsupportedVersionError,
    export_pgm,
    import_raw,
    read_manifest,
    read_tomo,
    write_manifest,
    write_tomo,
)
from sinoquad.trainer import TrainHistory
from sinoquad.unet import UNet, UNetConfig, save_checkpoint


def sample_image():
    rng = np.random.default_rng(5)
    return Image(rng.random((9, 7)).astype(np.float32), pixel_size=2.5)


def sample_sinogram():
    rng = np.random.default_rng(6)
    return Sinogram(
        rng.random((4, 11)).astype(np.float32),
        start_angle_deg=15.0,
        angular_range_deg=180.0,
        bin_width=0.5,
    )


class TestTomoRoundTrip:
    def test_image_round_trip(self, tmp_path):
        path = tmp_path / "img.sptb"
        img = sample_image()
        write_tomo(path, img)
        back = read_tomo(path)
        assert isinstance(back, Image)
        np.testing.assert_array_equal(back.data, img.data)
        assert back.pixel_size == 2.5

    def test_sinogram_round_trip(self, tmp_path):
        path = tmp_path / "sino.sptb"
        sino = sample_sinogram()
        write_tomo(path, sino)
        back = read_tomo(path)
        assert isinstance(back, Sinogram)
        np.testing.assert_array_equal(back.data, sino.data)
        assert (back.start_angle_deg, back.angular_range_deg, back.bin_width) == (
            15.0,
            180.0,
            0.5,
        )

    def test_rewrite_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.sptb"
        second = tmp_path / "b.sptb"
        write_tomo(first, sample_sinogram())
        write_tomo(second, read_tomo(first))
        assert first.read_bytes() == second.read_bytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "img.sptb"
        write_tomo(path, sample_image())
        blob = path.read_bytes()
        assert blob[:8] == MAGIC
        assert struct.unpack_from("<BBBB", blob, 8) == (0, 0, 2, 0)
        assert struct.unpack_from("<2I", blob, 12) == (9, 7)
        assert len(blob) == 44 + 4 * 9 * 7

    def test_rejects_other_types(self, tmp_path):
        with pytest.raises(TypeError, match="Image or Sinogram"):
            write_tomo(tmp_path / "x.sptb", np.zeros((2, 2)))


def valid_blob():
    data = np.arange(6, dtype="<f4").reshape(2, 3)
    header = MAGIC + struct.pack("<BBBB", 0, 0, 2, 0)
    header += struct.pack("<2I", 2, 3) + struct.pack("<3d", 1.0, 0.0, 0.0)
    return header + data.tobytes()


class TestTomoHostileInputs:
    def write(self, tmp_path, blob):
        path = tmp_path / "hostile.sptb"
        path.write_bytes(blob)
        return path

    def test_empty_file(self, tmp_path):
        with pytest.raises(TruncatedFileError, match="0 bytes"):
            read_tomo(self.write(tmp_path, b""))

    def test_bad_magic(self, tmp_path):
        blob = b"JUNK" + valid_blob()[4:]
        with pytest.raises(BadMagicError, match="magic"):
            read_tomo(self.write(tmp_path, blob))

    def test_future_version(self, tmp_path):
        blob = b"SPTB0002" + valid_blob()[8:]
        with pytest.raises(UnsupportedVersionError, match="0002"):
            read_tomo(self.write(tmp_path, blob))

    @pytest.mark.parametrize("offset,value,err,hint", [
        (8, 7, TomoFormatError, "kind"),
        (9, 3, TomoFormatError, "dtype"),
        (10, 3, DimensionError, "ndim"),
        (11, 1, TomoFormatError, "pad"),
    ])
    def test_bad_layout_bytes(self, tmp_path, offset, value, err, hint):
        blob = bytearray(valid_blob())
        blob[offset] = value
        with pytest.raises(err, match=hint):
            read_tomo(self.write(tmp_path, bytes(blob)))

    def test_header_cut_short(self, tmp_path):
        with pytest.raises(TruncatedFileError, match="header"):
            read_tomo(self.write(tmp_path, valid_blob()[:20]))

    def test_zero_dim(self, tmp_path):
        blob = bytearray(valid_blob())
        struct.pack_into("<2I", blob, 12, 0, 3)
        with pytest.raises(DimensionError, match="dim"):
            read_tomo(self.write(tmp_path, bytes(blob)))

    def test_absurd_dim_rejected_before_allocation(self, tmp_path):
        blob = bytearray(valid_blob())
        struct.pack_into("<2I", blob, 12, 2**31, 2**31)
        with pytest.raises(DimensionError, match="out of bounds"):
            read_tomo(self.write(tmp_path, bytes(blob)))

    def test_payload_truncated(self, tmp_path):
        with pytest.raises(TruncatedFileError, match="payload"):
            read_tomo(self.write(tmp_path, valid_blob()[:-4]))

    def test_trailing_bytes(self, tmp_path):
        with pytest.raises(TomoFormatError, match="trailing"):
            read_tomo(self.write(tmp_path, valid_blob() + b"\x00\x00"))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("make,slot", [
        (sample_image, 0), (sample_sinogram, 0), (sample_sinogram, 1), (sample_sinogram, 2),
    ])
    def test_non_finite_geometry(self, tmp_path, make, slot, value):
        path = tmp_path / "good.sptb"
        write_tomo(path, make())
        blob = bytearray(path.read_bytes())
        struct.pack_into("<d", blob, 20 + 8 * slot, value)
        with pytest.raises(TomoFormatError, match="finite.*offset 20"):
            read_tomo(self.write(tmp_path, bytes(blob)))

    @pytest.mark.parametrize("value", [np.inf, np.nan, -1.0])
    def test_bad_payload_sample(self, tmp_path, value):
        path = tmp_path / "good.sptb"
        write_tomo(path, sample_sinogram())
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, 44 + 4 * 5, value)
        with pytest.raises(TomoFormatError, match="offset 44"):
            read_tomo(self.write(tmp_path, bytes(blob)))


class TestImportRaw:
    def test_f32_import(self, tmp_path):
        path = tmp_path / "dump.raw"
        data = np.abs(np.random.default_rng(1).standard_normal((3, 5))).astype("<f4")
        path.write_bytes(data.tobytes())
        sino = import_raw(path, 3, 5)
        np.testing.assert_array_equal(sino.data, data)

    def test_u16_import(self, tmp_path):
        path = tmp_path / "dump.raw"
        data = np.arange(15, dtype="<u2").reshape(3, 5)
        path.write_bytes(data.tobytes())
        sino = import_raw(path, 3, 5, dtype="u16")
        np.testing.assert_array_equal(sino.data, data.astype(np.float32))

    def test_wrong_length_reports_both_sizes(self, tmp_path):
        path = tmp_path / "dump.raw"
        path.write_bytes(b"\x00" * 10)
        with pytest.raises(RawImportError, match="expected 60 bytes.*found 10"):
            import_raw(path, 3, 5)

    def test_negative_f32_rejected(self, tmp_path):
        path = tmp_path / "dump.raw"
        path.write_bytes(np.array([[-1.0, 1.0]], dtype="<f4").tobytes())
        with pytest.raises(RawImportError, match="negative"):
            import_raw(path, 1, 2)

    def test_unknown_dtype(self, tmp_path):
        with pytest.raises(ValueError, match="dtype"):
            import_raw(tmp_path / "x.raw", 1, 2, dtype="f64")


class TestExportPgm:
    def test_header_and_scaling(self, tmp_path):
        path = tmp_path / "out.pgm"
        export_pgm(path, np.array([[0.0, 1.0], [2.0, 4.0]]))
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n2 2\n65535\n")
        samples = np.frombuffer(blob[len(b"P5\n2 2\n65535\n"):], dtype=">u2")
        np.testing.assert_array_equal(samples, [0, 16384, 32768, 65535])

    def test_constant_maps_to_mid_grey(self, tmp_path):
        path = tmp_path / "flat.pgm"
        export_pgm(path, np.full((2, 3), 7.0))
        samples = np.frombuffer(path.read_bytes().split(b"\n65535\n", 1)[1], dtype=">u2")
        assert (samples == 32768).all()

    def test_accepts_image_objects(self, tmp_path):
        export_pgm(tmp_path / "img.pgm", sample_image())
        assert (tmp_path / "img.pgm").read_bytes().startswith(b"P5\n7 9\n")

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            export_pgm(tmp_path / "x.pgm", np.zeros(5))

    def test_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            export_pgm(tmp_path / "x.pgm", np.array([[np.nan, 0.0]]))


class TestManifest:
    ROW = {"input": "i.sptb", "target": "t.sptb", "phantom": "p.sptb", "seed": 1, "noise": "low"}

    def test_round_trip_sorted_keys(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_manifest(path, [self.ROW, dict(self.ROW, seed=2, index=1)])
        text = path.read_text()
        first = text.splitlines()[0]
        assert first == json.dumps(self.ROW, sort_keys=True)
        rows = read_manifest(path)
        assert len(rows) == 2
        assert rows[1]["index"] == 1

    def test_write_rejects_missing_keys(self, tmp_path):
        with pytest.raises(ValueError, match="missing keys.*noise"):
            write_manifest(tmp_path / "m.jsonl", [{k: v for k, v in self.ROW.items() if k != "noise"}])

    def test_read_rejects_bad_json_with_line_number(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(self.ROW, sort_keys=True) + "\n{oops\n")
        with pytest.raises(TomoFormatError, match=":2:"):
            read_manifest(path)

    def test_read_rejects_missing_keys_with_line_number(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"input": "i", "target": "t"}\n')
        with pytest.raises(TomoFormatError, match=":1:.*missing"):
            read_manifest(path)

    @pytest.mark.parametrize("line", ["5", "[1, 2]", '"row"', "null"])
    def test_read_rejects_non_object_row_with_line_number(self, tmp_path, line):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(self.ROW) + "\n" + line + "\n")
        with pytest.raises(TomoFormatError, match=":2:.*JSON object"):
            read_manifest(path)

    @pytest.mark.parametrize("key", ["input", "target", "phantom"])
    @pytest.mark.parametrize("value", [5, None, ["i.sptb"]])
    def test_read_rejects_non_string_file_name(self, tmp_path, key, value):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(dict(self.ROW, **{key: value})) + "\n")
        with pytest.raises(TomoFormatError, match=f":1:.*{key}"):
            read_manifest(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("\n" + json.dumps(self.ROW, sort_keys=True) + "\n\n")
        assert len(read_manifest(path)) == 1


_ROW = {"input": "i.sptb", "target": "t.sptb", "phantom": "p.sptb", "seed": 1, "noise": "low"}
_WRITERS = {
    "write_tomo": lambda p: write_tomo(p, sample_sinogram()),
    "export_pgm": lambda p: export_pgm(p, sample_image()),
    "write_manifest": lambda p: write_manifest(p, [_ROW]),
    "save_checkpoint": lambda p: save_checkpoint(UNet(UNetConfig(base_channels=1)), p),
    "history": lambda p: TrainHistory(train_loss=[0.5]).save(p),
}


class _HalfWriter:
    """A file that stores half of what it is asked to write, then runs out of space."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        return False

    def write(self, data):
        self._fh.write(bytes(data[: len(data) // 2]))
        raise OSError(errno.ENOSPC, "No space left on device")


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", sorted(_WRITERS))
    def test_replaces_contents_and_leaves_nothing_else(self, tmp_path, writer):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old contents")
        _WRITERS[writer](path)
        fresh = tmp_path / "fresh.bin"
        _WRITERS[writer](fresh)
        assert path.read_bytes() == fresh.read_bytes() != b"old contents"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.bin", "out.bin"]

    @pytest.mark.parametrize("writer", sorted(_WRITERS))
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old contents")
        real_open = open
        monkeypatch.setattr(io_formats, "open", lambda *a, **k: _HalfWriter(real_open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            _WRITERS[writer](path)
        assert path.read_bytes() == b"old contents"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_failed_rename_removes_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old contents")

        def refuse(src, dst):
            raise OSError(errno.EXDEV, "rename refused")

        monkeypatch.setattr(io_formats.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            io_formats.write_atomic(path, b"new contents")
        assert path.read_bytes() == b"old contents"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

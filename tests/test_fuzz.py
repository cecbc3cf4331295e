"""Property tests: damaged SPTB and SPTC files load or fail as format errors.

Each example truncates a valid file or changes one of its bytes. Readers
must either load the result or raise a TomoFormatError subclass, and the
CLI commands that read these files must never report an internal fault
(exit 3). Runs are derandomized, but hypothesis also draws from literal
constants it finds in the project's source, so its examples move when a
literal does. The enumerated floor does not: every value of every fixed
header byte, every truncation of the SPTB file, and, for the checkpoint,
six values of every JSON header byte, every truncation inside the header
and every cut next to an array boundary, on every run.
"""

import itertools
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinoquad.cli import main
from sinoquad.geometry import Sinogram
from sinoquad.io_formats import TomoFormatError, read_tomo, write_tomo
from sinoquad.unet import UNet, UNetConfig, load_checkpoint, save_checkpoint

FUZZ = settings(max_examples=200, derandomize=True, deadline=None)
SINO_HEADER = 44  # SPTB header length for 2-D payloads


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(3)
    write_tomo(root / "good.sptb", Sinogram(rng.random((16, 16)).astype(np.float32) * 50.0))
    save_checkpoint(UNet(UNetConfig(base_channels=1), seed=1), root / "good.sptc")
    ckpt = (root / "good.sptc").read_bytes()
    (header_len,) = struct.unpack_from("<I", ckpt, 8)
    sino = (root / "good.sptb").read_bytes()
    return {"root": root, "sino": sino, "ckpt": ckpt, "ckpt_header": 12 + header_len}


def damaged(blob: bytes, header_len: int):
    """A truncation of blob, or blob with one byte changed; half the changes hit the header."""
    cut = st.integers(0, len(blob) - 1).map(lambda n: blob[:n])
    where = st.one_of(st.integers(0, header_len - 1), st.integers(0, len(blob) - 1))
    change = st.tuples(where, st.integers(0, 255)).map(
        lambda t: blob[: t[0]] + bytes([t[1]]) + blob[t[0] + 1 :]
    )
    return st.one_of(cut, change)


def byte_changes(blob: bytes, n: int):
    """(label, blob with one of its first n bytes set to one of the 256 values), each once."""
    for offset in range(n):
        for value in range(256):
            yield f"byte {offset} = {value}", blob[:offset] + bytes([value]) + blob[offset + 1 :]


def byte_damage(blob: bytes, start: int, end: int):
    """(label, blob with one byte of [start, end) set to 0x00, 0x20, 0x7f, 0xff or its value +- 1)."""
    for offset in range(start, end):
        near = {(blob[offset] + 1) % 256, (blob[offset] - 1) % 256}
        for value in sorted({0x00, 0x20, 0x7F, 0xFF} | near):
            yield f"byte {offset} = {value}", blob[:offset] + bytes([value]) + blob[offset + 1 :]


def truncations(blob: bytes):
    return ((f"first {n} bytes", blob[:n]) for n in range(len(blob)))


def boundary_cuts(blob: bytes, header_end: int):
    """(label, blob cut one byte before, at and after each checkpoint array's start and end)."""
    arrays = json.loads(blob[12:header_end])["arrays"]
    bounds = itertools.accumulate((4 * math.prod(shape) for _, shape in arrays), initial=header_end)
    cuts = sorted({n + d for n in bounds for d in (-1, 0, 1)} & set(range(len(blob))))
    return ((f"first {n} bytes", blob[:n]) for n in cuts)


def escapes(read, path, cases) -> list[str]:
    """The cases read(path) neither loads nor refuses with a TomoFormatError."""
    found = []
    for label, blob in cases:
        path.write_bytes(blob)
        try:
            read(path)
        except TomoFormatError:
            pass
        except Exception as exc:
            found.append(f"{label}: {exc!r}")
    return found


class TestEnumeratedFloor:
    def test_every_sptb_header_byte_value_and_truncation(self, work):
        cases = [*byte_changes(work["sino"], SINO_HEADER), *truncations(work["sino"])]
        assert len(cases) == 44 * 256 + 44 + 16 * 16 * 4
        assert escapes(read_tomo, work["root"] / "floor.sptb", cases) == []

    def test_every_sptc_fixed_header_byte_value(self, work):
        cases = list(byte_changes(work["ckpt"], 12))
        assert escapes(load_checkpoint, work["root"] / "floor.sptc", cases) == []

    def test_sptc_json_header_bytes_truncations_and_array_boundaries(self, work):
        blob, end = work["ckpt"], work["ckpt_header"]
        counts = [sum(1 for _ in cases) for cases in (byte_damage(blob, 12, end),
                                                      truncations(blob[:end]), boundary_cuts(blob, end))]
        assert counts[0] >= 5 * (end - 12) and counts[1] == end
        # three cuts at each array's start and at the last one's end, which is the file's
        assert counts[2] == 3 * (len(json.loads(blob[12:end])["arrays"]) + 1) - 2
        cases = itertools.chain(byte_damage(blob, 12, end), truncations(blob[:end]),
                                boundary_cuts(blob, end))
        assert escapes(load_checkpoint, work["root"] / "floor.sptc", cases) == []


class TestSinogramFuzz:
    @FUZZ
    @given(data=st.data())
    def test_read_tomo_loads_or_raises_format_error(self, work, data):
        blob = data.draw(damaged(work["sino"], SINO_HEADER))
        path = work["root"] / "read.sptb"
        path.write_bytes(blob)
        try:
            read_tomo(path)
        except TomoFormatError:
            pass

    @FUZZ
    @given(data=st.data())
    def test_recon_never_exits_internal(self, work, data):
        blob = data.draw(damaged(work["sino"], SINO_HEADER))
        path = work["root"] / "recon.sptb"
        path.write_bytes(blob)
        code = main(["recon", "--in", str(path), "--size", "16", "--iters", "1",
                     "--out", str(work["root"] / "rec.sptb")])
        assert code in (0, 2)


class TestCheckpointFuzz:
    @FUZZ
    @given(data=st.data())
    def test_load_checkpoint_loads_or_raises_format_error(self, work, data):
        blob = data.draw(damaged(work["ckpt"], work["ckpt_header"]))
        path = work["root"] / "read.sptc"
        path.write_bytes(blob)
        try:
            load_checkpoint(path)
        except TomoFormatError:
            pass

    @FUZZ
    @given(data=st.data())
    def test_infer_never_exits_internal(self, work, data):
        blob = data.draw(damaged(work["ckpt"], work["ckpt_header"]))
        model = work["root"] / "infer.sptc"
        model.write_bytes(blob)
        sino = work["root"] / "in.sptb"
        sino.write_bytes(work["sino"])
        code = main(["infer", "--model", str(model), "--in", str(sino),
                     "--out", str(work["root"] / "out.sptb")])
        assert code in (0, 2)

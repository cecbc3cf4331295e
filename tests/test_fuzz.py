"""Property tests: damaged SPTB and SPTC files load or fail as format errors.

Each example truncates a valid file or changes one of its bytes. Readers
must either load the result or raise a TomoFormatError subclass, and the
CLI commands that read these files must never report an internal fault
(exit 3). Runs are derandomized, so every run checks the same examples.
"""

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

"""Bit-exact file formats: tomographic binaries, raw imports, PGM, manifests.

The native container is SPTB ("SPECT tomographic binary"), a little-endian
layout with a fixed 44-byte header for 2-D payloads:

    offset  size  field
    0       8     magic, ASCII "SPTB0001" (last four bytes are the version)
    8       1     kind: 0 = image, 1 = sinogram
    9       1     dtype: 0 = float32 little-endian
    10      1     ndim (2 for everything this package writes)
    11      1     padding, must be 0
    12      4*nd  dims, uint32 each (rows first; row-major payload follows)
    ...     24    geometry, 3 float64:
                    image:    pixel_size, 0, 0
                    sinogram: start_angle_deg, angular_range_deg, bin_width
    header_end    dims-product float32 samples

Readers never trust the dims on faith: bounds and the exact payload size
are validated against the real file length before anything is allocated.
"""

from __future__ import annotations

import json
import os
import struct
import uuid
from pathlib import Path

import numpy as np

from .geometry import GeometryError, Image, Sinogram

__all__ = [
    "TomoFormatError",
    "BadMagicError",
    "UnsupportedVersionError",
    "TruncatedFileError",
    "DimensionError",
    "RawImportError",
    "write_atomic",
    "write_tomo",
    "read_container",
    "read_tomo",
    "read_tomo_as",
    "import_raw",
    "export_pgm",
    "write_manifest",
    "read_manifest",
]

MAGIC = b"SPTB0001"
KIND_IMAGE = 0
KIND_SINOGRAM = 1
DTYPE_F32 = 0
_MAX_DIM = 1 << 27  # 134M per axis; far beyond anything this pipeline writes


class TomoFormatError(Exception):
    """Base class for malformed tomographic container files."""


class BadMagicError(TomoFormatError):
    pass


class UnsupportedVersionError(TomoFormatError):
    pass


class TruncatedFileError(TomoFormatError):
    pass


class DimensionError(TomoFormatError):
    pass


class RawImportError(TomoFormatError):
    """Raw import rejected: wrong byte count or invalid sample values."""


def write_atomic(path, data: bytes) -> None:
    """Replace path's contents with data in one step.

    The bytes go to a temporary file in the same directory, which
    os.replace then renames over path; a failed write leaves any old file
    untouched and removes the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_tomo(path, obj) -> None:
    """Write an Image or Sinogram to an SPTB file."""
    if isinstance(obj, Image):
        kind = KIND_IMAGE
        geom = (float(obj.pixel_size), 0.0, 0.0)
    elif isinstance(obj, Sinogram):
        kind = KIND_SINOGRAM
        geom = (
            float(obj.start_angle_deg),
            float(obj.angular_range_deg),
            float(obj.bin_width),
        )
    else:
        raise TypeError(f"write_tomo expects Image or Sinogram, got {type(obj).__name__}")
    data = np.ascontiguousarray(obj.data, dtype="<f4")
    d0, d1 = data.shape
    header = MAGIC + struct.pack("<BBBB", kind, DTYPE_F32, 2, 0)
    header += struct.pack("<2I", d0, d1)
    header += struct.pack("<3d", *geom)
    write_atomic(path, header + data.tobytes())


def read_container(path, magic: bytes) -> bytes:
    """path's bytes, once they hold a 12-byte fixed header starting with magic.

    magic is eight ASCII bytes: a four-byte format tag, then the four-byte
    version this reader supports. SPTB files and SPTC checkpoints share it.
    """
    blob = Path(path).read_bytes()
    if len(blob) < 12:
        raise TruncatedFileError(
            f"{path}: only {len(blob)} bytes, fixed header needs 12 (offset 0)"
        )
    if blob[:4] != magic[:4]:
        raise BadMagicError(f"{path}: bad magic {blob[:8]!r} at offset 0")
    if blob[4:8] != magic[4:8]:
        raise UnsupportedVersionError(
            f"{path}: version {blob[4:8]!r} at offset 4, this reader supports "
            f"{magic[4:8].decode('ascii')}"
        )
    return blob


def read_tomo(path):
    """Read an SPTB file back into an Image or Sinogram."""
    blob = read_container(path, MAGIC)
    kind, dtype, ndim, pad = struct.unpack_from("<BBBB", blob, 8)
    if kind not in (KIND_IMAGE, KIND_SINOGRAM):
        raise TomoFormatError(f"{path}: unknown kind {kind} at offset 8")
    if dtype != DTYPE_F32:
        raise TomoFormatError(f"{path}: unknown dtype code {dtype} at offset 9")
    if ndim != 2:
        raise DimensionError(f"{path}: ndim {ndim} at offset 10, expected 2")
    if pad != 0:
        raise TomoFormatError(f"{path}: nonzero pad byte at offset 11")
    header_len = 12 + 4 * ndim + 24
    if len(blob) < header_len:
        raise TruncatedFileError(
            f"{path}: {len(blob)} bytes, header needs {header_len} (offset 12)"
        )
    dims = struct.unpack_from("<2I", blob, 12)
    for axis, d in enumerate(dims):
        if d == 0 or d > _MAX_DIM:
            raise DimensionError(
                f"{path}: dim[{axis}] = {d} out of bounds (offset {12 + 4 * axis})"
            )
    geom = struct.unpack_from("<3d", blob, 12 + 4 * ndim)
    expected = 4 * dims[0] * dims[1]
    actual = len(blob) - header_len
    if actual < expected:
        raise TruncatedFileError(
            f"{path}: payload is {actual} bytes, dims {dims} require {expected} "
            f"(offset {header_len})"
        )
    if actual > expected:
        raise TomoFormatError(
            f"{path}: {actual - expected} trailing bytes after payload "
            f"(offset {header_len + expected})"
        )
    data = np.frombuffer(blob, dtype="<f4", count=dims[0] * dims[1], offset=header_len)
    data = data.reshape(dims).astype(np.float32)
    try:
        if kind == KIND_IMAGE:
            return Image(data, pixel_size=geom[0])
        return Sinogram(
            data, start_angle_deg=geom[0], angular_range_deg=geom[1], bin_width=geom[2]
        )
    except GeometryError as exc:
        raise TomoFormatError(f"{path}: {exc} (geometry at offset {12 + 4 * ndim})") from None
    except ValueError as exc:  # non-finite or negative samples
        raise TomoFormatError(f"{path}: {exc} (payload at offset {header_len})") from None


_KIND_NAMES = {Image: "an image", Sinogram: "a sinogram"}


def read_tomo_as(path, kind: type):
    """Read an SPTB file that must hold `kind`, Image or Sinogram."""
    obj = read_tomo(path)
    if not isinstance(obj, kind):
        got, want = _KIND_NAMES[type(obj)], _KIND_NAMES[kind]
        raise TomoFormatError(f"{path}: holds {got}, expected {want}")
    return obj


def import_raw(
    path,
    n_angles: int,
    n_bins: int,
    dtype: str = "f32",
    start_angle_deg: float = 0.0,
    angular_range_deg: float = 360.0,
    bin_width: float = 1.0,
) -> Sinogram:
    """Import a headerless little-endian sinogram dump (f32 or u16 samples)."""
    codes = {"f32": ("<f4", 4), "u16": ("<u2", 2)}
    if dtype not in codes:
        raise ValueError(f"dtype must be one of {sorted(codes)}, got {dtype!r}")
    np_dtype, item = codes[dtype]
    blob = Path(path).read_bytes()
    expected = n_angles * n_bins * item
    if len(blob) != expected:
        raise RawImportError(
            f"{path}: expected {expected} bytes for {n_angles}x{n_bins} {dtype}, "
            f"found {len(blob)}"
        )
    data = np.frombuffer(blob, dtype=np_dtype).reshape(n_angles, n_bins)
    if dtype == "f32" and (data < 0).any():
        raise RawImportError(f"{path}: raw sinogram contains negative samples")
    return Sinogram(
        data.astype(np.float32),
        start_angle_deg=start_angle_deg,
        angular_range_deg=angular_range_deg,
        bin_width=bin_width,
    )


def export_pgm(path, data) -> None:
    """Write a 16-bit binary PGM (P5, maxval 65535, big-endian samples).

    Values are min-max scaled to the full range; a constant input maps to
    mid-grey 32768 everywhere.
    """
    arr = np.asarray(getattr(data, "data", data), dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"PGM export needs a 2-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("PGM export needs finite values")
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        samples = np.full(arr.shape, 32768, dtype=">u2")
    else:
        scaled = np.rint((arr - lo) / (hi - lo) * 65535.0)
        samples = np.clip(scaled, 0, 65535).astype(">u2")
    h, w = arr.shape
    header = f"P5\n{w} {h}\n65535\n".encode("ascii")
    write_atomic(path, header + samples.tobytes())


_MANIFEST_KEYS = ("input", "target", "phantom", "seed", "noise")


def write_manifest(path, rows) -> None:
    """Write dataset rows as JSON lines with deterministic key order."""
    lines = []
    for row in rows:
        missing = [k for k in _MANIFEST_KEYS if k not in row]
        if missing:
            raise ValueError(f"manifest row missing keys {missing}: {row}")
        lines.append(json.dumps(row, sort_keys=True))
    write_atomic(path, ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8"))


def read_manifest(path) -> list[dict]:
    rows = []
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as err:
            raise TomoFormatError(f"{path}:{ln}: bad manifest JSON: {err}") from None
        if not isinstance(row, dict):
            raise TomoFormatError(f"{path}:{ln}: manifest row is not a JSON object")
        missing = [k for k in _MANIFEST_KEYS if k not in row]
        if missing:
            raise TomoFormatError(f"{path}:{ln}: manifest row missing keys {missing}")
        bad = [k for k in ("input", "target", "phantom") if not isinstance(row[k], str)]
        if bad:
            raise TomoFormatError(f"{path}:{ln}: manifest file names {bad} are not strings")
        rows.append(row)
    return rows

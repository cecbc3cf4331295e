"""Encoder-decoder network that maps a sparse-view sinogram to one with
four times as many view angles, same detector extent.

Layout: four contracting blocks (two 3x3 conv+ReLU, then 2x2 average
pool) widening 1 -> base -> 2*base -> 4*base -> 8*base; a two-conv
bottleneck; four expanding blocks (2x2 transposed conv, concat of the
matching contracting feature map, two 3x3 conv+ReLU) narrowing back to
base; two more expanding blocks whose transposed convs stride only the
angle axis (no matching resolution exists, so no skips); and a final 1x1
linear conv down to one channel. Outputs are clamped at zero only at
inference; training sees the linear head.

Where the prose underdetermines the design (bottleneck width, up-path
ladder, which axis the last two upsamplings act on), the choices here
are reconstructions: the only stride assignment consistent with 2x2
pooling and an angle-quadrupling output, plus a channel-doubling
bottleneck. README carries the same caveat.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autograd as ag
from .io_formats import TomoFormatError, TruncatedFileError, read_container, write_atomic
from .rng import PURPOSE_INIT, stream

CHECKPOINT_MAGIC = b"SPTC0001"
# header fields with the one value every checkpoint holds: the payload's
# sample type and the input scaling the weights were trained under
_FIXED_HEADER = {"dtype": "f32", "normalization": "per_sinogram_max"}
# UNetConfig fields that older checkpoints carry; read for their types only
_DROPPED_CONFIG_KEYS = ("in_angles", "out_angles", "detector_bins", "bottleneck_channels")


@dataclass(frozen=True)
class UNetConfig:
    """The network's width; its input extents come from the data."""

    base_channels: int = 32

    def __post_init__(self):
        if self.base_channels < 1:
            raise ValueError(f"base_channels must be >= 1, got {self.base_channels}")


# The last two expanding blocks stride only the angle axis, each doubling
# the views: together they set the network's view factor.
_ANGLE_UPSAMPLINGS = (4, 5)
VIEW_FACTOR = 2 ** len(_ANGLE_UPSAMPLINGS)


def check_extents(angles: int, bins: int) -> None:
    """Raise ShapeMismatchError unless both extents survive four 2x2 poolings."""
    if angles % 16 or bins % 16:
        raise ag.ShapeMismatchError(
            f"input extents {angles}x{bins} must be divisible by 16 (four 2x2 poolings)"
        )


def _layer_table(config: UNetConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) for every parameter, in creation order."""
    base = config.base_channels
    down = [base * (1 << i) for i in range(4)]  # 32,64,128,256 at default
    bott = 16 * base
    table: list[tuple[str, tuple[int, ...]]] = []

    def conv(tag, c_in, c_out, k):
        table.append((f"{tag}_w", (c_out, c_in, k, k)))
        table.append((f"{tag}_b", (c_out,)))

    def convt(tag, c_in, c_out):
        table.append((f"{tag}_w", (c_in, c_out, 2, 2)))
        table.append((f"{tag}_b", (c_out,)))

    prev = 1
    for i, c in enumerate(down):
        conv(f"down{i}_conv1", prev, c, 3)
        conv(f"down{i}_conv2", c, c, 3)
        prev = c
    conv("bottleneck_conv1", prev, bott, 3)
    conv("bottleneck_conv2", bott, bott, 3)
    prev = bott
    for j, c in enumerate(reversed(down)):  # 256,128,64,32
        convt(f"up{j}_convt", prev, c)
        conv(f"up{j}_conv1", 2 * c, c, 3)  # concat doubles the input
        conv(f"up{j}_conv2", c, c, 3)
        prev = c
    for j in _ANGLE_UPSAMPLINGS:
        convt(f"up{j}_convt", prev, base)
        conv(f"up{j}_conv1", base, base, 3)
        conv(f"up{j}_conv2", base, base, 3)
        prev = base
    conv("head", base, 1, 1)
    return table


def _he_uniform(gen, shape: tuple[int, ...]) -> np.ndarray:
    fan_in = shape[1] * shape[2] * shape[3] if len(shape) == 4 else shape[0]
    limit = np.sqrt(6.0 / fan_in)
    return gen.uniform(-limit, limit, size=shape).astype(np.float32)


class UNet:
    """The assembled model; immutable once trained, cheap to rebuild."""

    def __init__(self, config: UNetConfig | None = None, seed: int = 0,
                 weights: dict[str, np.ndarray] | None = None):
        """Weights are He-uniform draws from seed's stream and biases zero,
        unless weights maps every parameter name to its array, which is
        copied and nothing is drawn."""
        self.config = config or UNetConfig()
        self.seed = int(seed)
        gen = stream(self.seed, 0, PURPOSE_INIT)
        self.params: dict[str, ag.Parameter] = {}
        for name, shape in _layer_table(self.config):
            if weights is not None:
                data = np.array(weights[name], dtype=np.float32)
                if data.shape != shape:
                    raise ag.ShapeMismatchError(
                        f"weight {name!r} has shape {data.shape}, expected {shape}"
                    )
            elif name.endswith("_b"):
                data = np.zeros(shape, dtype=np.float32)
            else:
                data = _he_uniform(gen, shape)
            self.params[name] = ag.Parameter(name, data)

    def parameters(self) -> list[ag.Parameter]:
        return list(self.params.values())

    def _pair(self, tag):
        return self.params[f"{tag}_w"], self.params[f"{tag}_b"]

    def forward(self, x, training: bool = False) -> ag.Tensor:
        """[B,1,A,D] -> [B,1,VIEW_FACTOR*A,D]; see check_extents for A and D."""
        t = x if isinstance(x, ag.Tensor) else ag.Tensor(np.asarray(x, dtype=np.float32))
        if t.data.ndim != 4 or t.shape[1] != 1:
            raise ag.ShapeMismatchError(
                f"expected input shaped [B,1,angles,bins], got {t.shape}"
            )
        check_extents(t.shape[2], t.shape[3])

        def block(h, tag):
            w, b = self._pair(tag)
            return ag.conv2d(h, w, b, relu=True)

        h = t
        skips = []
        for i in range(4):
            h = block(h, f"down{i}_conv1")
            h = block(h, f"down{i}_conv2")
            skips.append(h)
            h = ag.avgpool2x2(h)
        h = block(h, "bottleneck_conv1")
        h = block(h, "bottleneck_conv2")
        for j in range(4):
            w, b = self._pair(f"up{j}_convt")
            h = ag.conv_transpose2d(h, w, b, stride=(2, 2))
            h = ag.concat_channels(h, skips[3 - j])
            h = block(h, f"up{j}_conv1")
            h = block(h, f"up{j}_conv2")
        for j in _ANGLE_UPSAMPLINGS:
            w, b = self._pair(f"up{j}_convt")
            h = ag.conv_transpose2d(h, w, b, stride=(2, 1))
            h = block(h, f"up{j}_conv1")
            h = block(h, f"up{j}_conv2")
        w, b = self._pair("head")
        out = ag.conv2d(h, w, b)
        if not training:
            out = ag.Tensor(np.maximum(out.data, 0.0))
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference convenience: clamped forward, plain float32 array."""
        with ag.no_grad():
            out = self.forward(x, training=False)
        return out.data.astype(np.float32, copy=False)


def save_checkpoint(model: UNet, path) -> None:
    arrays = [(name, list(p.data.shape)) for name, p in model.params.items()]
    header = {"config": asdict(model.config), **_FIXED_HEADER, "arrays": arrays}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", len(blob)), blob]
    parts += [np.ascontiguousarray(p.data, dtype="<f4").tobytes() for p in model.params.values()]
    write_atomic(path, b"".join(parts))


def load_checkpoint(path) -> UNet:
    blob = read_container(path, CHECKPOINT_MAGIC)
    (header_len,) = struct.unpack_from("<I", blob, 8)
    if len(blob) < 12 + header_len:
        raise TruncatedFileError(f"checkpoint {path} truncated inside the header")
    try:
        header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TomoFormatError(f"checkpoint {path} header is not valid JSON: {exc}") from exc
    config = header.get("config") if isinstance(header, dict) else None
    if not (
        isinstance(config, dict)
        and set(config) <= {"base_channels", *_DROPPED_CONFIG_KEYS}
        and all(type(v) is int or (k == "bottleneck_channels" and v is None)
                for k, v in config.items())
    ):
        raise TomoFormatError(f"checkpoint {path} header has no valid UNetConfig object")
    for key, value in _FIXED_HEADER.items():
        if header.get(key) != value:
            raise TomoFormatError(
                f"checkpoint {path} header has {key} {header.get(key)!r}, expected {value!r}"
            )
    # the dropped keys were fixed by the data or by base_channels; a
    # non-default bottleneck shows up below as a mismatched array table
    config = UNetConfig(**{k: v for k, v in config.items() if k not in _DROPPED_CONFIG_KEYS})
    expected = [[name, list(shape)] for name, shape in _layer_table(config)]
    if header.get("arrays") != expected:
        raise TomoFormatError(
            f"checkpoint {path} array table does not match its embedded config"
        )
    offset = 12 + header_len
    arrays = {}  # read all before building the model, so a short file allocates nothing
    for name, shape in expected:
        n = int(np.prod(shape))
        end = offset + 4 * n
        if end > len(blob):
            raise TruncatedFileError(
                f"checkpoint {path} payload truncated in array {name!r}"
            )
        arrays[name] = np.frombuffer(blob, "<f4", count=n, offset=offset).reshape(shape)
        offset = end
    if offset != len(blob):
        raise TomoFormatError(f"checkpoint {path} has {len(blob) - offset} trailing bytes")
    return UNet(config, weights=arrays)

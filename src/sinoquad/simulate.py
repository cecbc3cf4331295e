"""Phantom generation, count-limited Poisson noise, and dataset assembly.

Randomised phantoms are additive mixtures of rotated ellipses plus a few
Gaussian blobs, sized in proportion to the image, supported strictly inside
a circular field of view and max-normalised to 1.0. Every item is generated
from its own Philox stream keyed by (dataset seed, item index), so
regeneration is bit-identical and independent of worker count or ordering.
Counting noise is drawn with numpy's Poisson sampler, which, like
gen.random(), is deterministic for a given Philox state within one numpy
version.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng as rng_mod
from .geometry import Image, Sinogram, fov_mask, fov_radius
from .io_formats import write_manifest, write_tomo
from .projector import project

__all__ = [
    "NOISE_LEVELS",
    "PhantomRecipe",
    "generate_phantom",
    "shepp_logan",
    "apply_poisson",
    "subsample_views",
    "make_dataset",
    "ZeroMassError",
]


class ZeroMassError(ValueError):
    """Raised when an operation needs positive total activity and finds none."""


# Count budgets: label -> (expected total counts, noise stream purpose). The
# sinogram is scaled so its total equals the expected counts before sampling.
NOISE_LEVELS = {
    "low": (1e6, rng_mod.PURPOSE_NOISE_LOW),
    "medium": (2.5e5, rng_mod.PURPOSE_NOISE_MEDIUM),
    "high": (5e4, rng_mod.PURPOSE_NOISE_HIGH),
}


def _noise_level(label: str) -> tuple[float, int]:
    if label not in NOISE_LEVELS:
        raise ValueError(f"unknown noise level {label!r}, expected one of {sorted(NOISE_LEVELS)}")
    return NOISE_LEVELS[label]


# The phantom distribution. Lengths are in pixels of a 128-pixel image and
# scale with the image size; ranges are (low, high).
_REFERENCE_SIZE = 128
_N_ELLIPSES = (2, 10)
_CENTER_FRACTION = 0.8  # of the FOV radius
_AXES_PX = (4.0, 40.0)
_ROTATION_DEG = (0.0, 180.0)
_INTENSITY = (0.2, 1.0)
_N_BLOBS = (0, 3)
_BLOB_SIGMA_PX = (2.0, 8.0)
_BLOB_INTENSITY = (0.2, 1.0)


@dataclass(frozen=True)
class PhantomRecipe:
    """A randomised phantom stream: the dataset seed and the image size."""

    seed: int = 0
    size: int = 128

    def __post_init__(self):
        if self.size < 16:
            raise ValueError(f"size must be >= 16, got {self.size}")


_SUPERSAMPLE = 2


def _supergrid(size: int, factor: int):
    """Pixel-centre coordinates of a factor-times-oversampled grid."""
    n = size * factor
    c = (size - 1) / 2.0
    coords = (np.arange(n) + 0.5) / factor - 0.5  # in full-resolution pixel units
    return coords - c  # centred on the rotation centre


def _render_ellipses(size: int, ellipses, factor: int = _SUPERSAMPLE) -> np.ndarray:
    """Additively render (cx, cy, ax, ay, rot_deg, value) ellipses, antialiased."""
    g = _supergrid(size, factor)
    xx = g[None, :]
    yy = g[:, None]
    acc = np.zeros((size * factor, size * factor), dtype=np.float64)
    for cx, cy, ax, ay, rot, val in ellipses:
        th = np.deg2rad(rot)
        xr = (xx - cx) * np.cos(th) + (yy - cy) * np.sin(th)
        yr = -(xx - cx) * np.sin(th) + (yy - cy) * np.cos(th)
        acc += np.where((xr / ax) ** 2 + (yr / ay) ** 2 <= 1.0, val, 0.0)
    return acc.reshape(size, factor, size, factor).mean(axis=(1, 3))


def generate_phantom(recipe: PhantomRecipe, index: int = 0) -> Image:
    """Draw one randomised phantom; bit-identical for a given (seed, index)."""
    gen = rng_mod.stream(recipe.seed, index, rng_mod.PURPOSE_PHANTOM)
    size = recipe.size
    scale = size / _REFERENCE_SIZE
    axes_px = (_AXES_PX[0] * scale, _AXES_PX[1] * scale)
    sigma_px = (_BLOB_SIGMA_PX[0] * scale, _BLOB_SIGMA_PX[1] * scale)
    r_fov = fov_radius(size)
    r_center = _CENTER_FRACTION * r_fov

    for _attempt in range(32):
        n_ell = int(gen.integers(_N_ELLIPSES[0], _N_ELLIPSES[1] + 1))
        ellipses = []
        for _ in range(n_ell):
            for _try in range(500):
                rr = r_center * np.sqrt(gen.random())
                phi = 2.0 * np.pi * gen.random()
                cx, cy = rr * np.cos(phi), rr * np.sin(phi)
                ax = gen.uniform(*axes_px)
                ay = gen.uniform(*axes_px)
                rot = gen.uniform(*_ROTATION_DEG)
                val = gen.uniform(*_INTENSITY)
                # keep the whole ellipse strictly inside the field of view
                if rr + max(ax, ay) <= r_fov - 1.0:
                    ellipses.append((cx, cy, ax, ay, rot, val))
                    break
            else:
                raise RuntimeError("could not fit an ellipse inside the field of view")

        data = _render_ellipses(size, ellipses)

        n_blob = int(gen.integers(_N_BLOBS[0], _N_BLOBS[1] + 1))
        if n_blob:
            c = (size - 1) / 2.0
            yy, xx = np.mgrid[0:size, 0:size]
            for _ in range(n_blob):
                rr = r_center * np.sqrt(gen.random())
                phi = 2.0 * np.pi * gen.random()
                bx, by = c + rr * np.cos(phi), c + rr * np.sin(phi)
                sigma = gen.uniform(*sigma_px)
                amp = gen.uniform(*_BLOB_INTENSITY)
                d2 = (xx - bx) ** 2 + (yy - by) ** 2
                data = data + amp * np.exp(-0.5 * d2 / (sigma * sigma))

        data[~fov_mask(size, size)] = 0.0
        peak = data.max()
        if peak > 0:
            data = data / peak  # the peak pixel becomes exactly 1.0
            return Image(data.astype(np.float32))
    raise RuntimeError("phantom generation kept producing empty images")


# Shepp-Logan head phantom, the canonical ten-ellipse parameter table:
# (value, x semi-axis, y semi-axis, x centre, y centre, rotation deg),
# coordinates in [-1, 1] with y up, composed additively.
_SHEPP_LOGAN = (
    (2.00, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.98, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.02, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.02, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.01, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.01, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.01, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.01, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.01, 0.023, 0.023, 0.0, -0.605, 0.0),
    (0.01, 0.023, 0.046, 0.06, -0.605, 0.0),
)


def shepp_logan(size: int = 128, _table=None) -> Image:
    """Shepp-Logan head phantom, clipped to >= 0 and max-normalised.

    Rendered with 4x antialiasing so the pixel mass tracks the analytic
    ellipse areas closely. Row 0 is the top of the head. _table overrides
    the ellipse parameters (testing hook).
    """
    if size < 16:
        raise ValueError(f"size must be >= 16, got {size}")
    factor = 4
    scale = size / 2.0  # unit coordinates to pixels
    ellipses = []
    for val, a, b, x0, y0, rot in (_SHEPP_LOGAN if _table is None else _table):
        # y axis points up in the parameter table, down in array rows
        ellipses.append((x0 * scale, -y0 * scale, a * scale, b * scale, -rot, val))
    data = _render_ellipses(size, ellipses, factor=factor)
    data = np.clip(data, 0.0, None)
    peak = data.max()
    if peak <= 0:
        raise ZeroMassError("degenerate phantom rendering")
    return Image((data / peak).astype(np.float32))


def apply_poisson(sino: Sinogram, level: str, seed: int, index: int = 0) -> Sinogram:
    """Simulate photon counting at a noise level's count budget.

    level is a NOISE_LEVELS label. The sinogram is scaled so its total
    equals the level's expected counts, each bin is replaced by a Poisson
    draw, and the scale is divided back out, so the output stays in the
    input's intensity units. Zero bins stay exactly zero. Deterministic for
    a given (seed, index, level).
    """
    expected_counts, purpose = _noise_level(level)
    total = float(np.sum(sino.data, dtype=np.float64))
    if total <= 0:
        raise ZeroMassError("cannot add counting noise to a sinogram with zero total")
    scale = expected_counts / total
    lam = sino.data.astype(np.float64) * scale
    gen = rng_mod.stream(seed, index, purpose)
    counts = rng_mod.sample_poisson(lam, gen)
    return dataclasses.replace(sino, data=(counts / scale).astype(np.float32))


def subsample_views(sino: Sinogram, factor: int) -> Sinogram:
    """Keep every factor-th view; exact rows of the input, no interpolation."""
    if factor < 1 or sino.n_angles % factor:
        raise ValueError(
            f"factor {factor} must divide the view count {sino.n_angles}"
        )
    return dataclasses.replace(sino, data=sino.data[::factor].copy())


def _level_for_index(noise: str, index: int) -> str:
    if noise == "mixed":
        return ("low", "medium", "high")[index % 3]
    return noise


def _dataset_item(recipe: PhantomRecipe, index: int, noise: str, out_dir: str,
                  in_views: int, out_views: int) -> dict:
    label = _level_for_index(noise, index)
    phantom = generate_phantom(recipe, index)
    target = project(phantom, out_views)
    clean_in = subsample_views(target, out_views // in_views)
    noisy_in = apply_poisson(clean_in, label, seed=recipe.seed, index=index)

    names = {
        "phantom": f"phantom_{index:05d}.sptb",
        "target": f"target_{index:05d}.sptb",
        "input": f"input_{index:05d}.sptb",
    }
    out = Path(out_dir)
    write_tomo(out / names["phantom"], phantom)
    write_tomo(out / names["target"], target)
    write_tomo(out / names["input"], noisy_in)
    return {
        "index": index,
        "input": names["input"],
        "target": names["target"],
        "phantom": names["phantom"],
        "seed": recipe.seed,
        "noise": label,
    }


def make_dataset(
    recipe: PhantomRecipe,
    count: int,
    noise: str,
    out_dir,
    jobs: int = 1,
    in_views: int = 32,
    out_views: int = 128,
) -> Path:
    """Generate (noisy input, clean target, phantom) triples plus a manifest.

    noise is "low", "medium", "high", or "mixed" (cycling the three levels
    by index). Items are independent, so they are split across
    min(jobs, count, CPUs) processes with the same output bytes.
    Returns the manifest path (out_dir/manifest.jsonl).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if in_views < 1 or out_views < 1:
        raise ValueError(f"in_views and out_views must be >= 1, got {in_views} and {out_views}")
    if noise != "mixed":
        _noise_level(noise)  # validates the label
    if out_views % in_views:
        raise ValueError(f"in_views {in_views} must divide out_views {out_views}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    item = functools.partial(
        _dataset_item, recipe, noise=noise, out_dir=str(out), in_views=in_views,
        out_views=out_views,
    )
    workers = min(jobs, count, os.cpu_count() or 1)
    if workers <= 1:
        rows = list(map(item, range(count)))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(item, range(count), chunksize=max(1, count // (4 * workers))))
    manifest = out / "manifest.jsonl"
    write_manifest(manifest, rows)
    return manifest

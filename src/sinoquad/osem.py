"""Ordered-subset expectation maximization reconstruction.

Multiplicative updates with a matched forward/adjoint projector pair:

    x_j <- x_j / (sum_{i in S} a_ij) * sum_{i in S} a_ij * y_i / (Ax)_i

Subsets interleave view angles (subset k takes views k, k+n_subsets, ...)
in a fixed order, so reconstructions are reproducible. Each subset's
forward and adjoint come from the projector's `subset_operators`, and its
sensitivity is the adjoint of a sinogram of ones. The start image is
uniform 1.0 inside the field of view and 0 outside; pixels with zero
subset sensitivity are pinned to 0. Where a forward-projected bin is 0
the data ratio is set to 0 (with noiseless-consistent data this only
happens when the measured bin is also 0). The projector works in pixel
units, so the data are divided by the sinogram's bin width, which is also
the reconstruction's pixel size.

A multiplicative update keeps a 0 at 0, so the iterate holds only the
field-of-view pixels, the projector's `fov_pixels`, over which its subset
operators work.
The columns dropped would only add +0.0 terms to each bin's sum, and every
kept pixel backprojects the same rows in the same order, so the image and
every callback frame are bit for bit those of the loop over the whole
grid, with about a quarter fewer nonzeros per product at 128 px.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Image, Sinogram
from .projector import get_projector

_RATIO_EPS = 1e-12


@dataclass(frozen=True)
class ReconConfig:
    """Reconstruction settings; image_size fixes the projector geometry."""

    n_subsets: int = 4
    n_iterations: int = 20
    image_size: int = 128

    def __post_init__(self):
        if self.n_subsets < 1:
            raise ValueError(f"n_subsets must be >= 1, got {self.n_subsets}")
        if self.n_iterations < 1:
            raise ValueError(f"n_iterations must be >= 1, got {self.n_iterations}")
        if self.image_size < 16:
            raise ValueError(f"image_size must be >= 16, got {self.image_size}")


def _projector(sino: Sinogram, height: int, width: int):
    """The cached projector for a sinogram's geometry and an image grid."""
    geometry = (sino.start_angle_deg, sino.angular_range_deg, sino.n_bins)
    return get_projector(height, width, sino.n_angles, *geometry)


def osem(sino: Sinogram, cfg: ReconConfig | None = None, callback=None) -> Image:
    """Reconstruct an image from a nonnegative parallel-beam sinogram.

    callback, when given, is invoked after every full iteration as
    callback(iteration_index, image_array) with a float64 copy of the
    current estimate; handy for convergence monitoring.
    """
    if cfg is None:
        cfg = ReconConfig()
    with np.errstate(over="ignore"):  # refused below, naming the bin width
        y = np.asarray(sino.data, dtype=np.float64) / sino.bin_width  # to pixel-unit integrals
    if np.any(y < 0):
        raise ValueError("sinogram has negative entries")
    if not np.isfinite(y).all():
        raise ValueError(f"bin_width {sino.bin_width} takes the data past the float64 range")
    if sino.n_angles % cfg.n_subsets != 0:
        raise ValueError(
            f"n_subsets={cfg.n_subsets} does not divide n_angles={sino.n_angles}"
        )

    size = cfg.image_size
    proj = _projector(sino, size, size)
    pixels = proj.fov_pixels

    subsets = []
    for k in range(cfg.n_subsets):
        views = np.arange(k, sino.n_angles, cfg.n_subsets)
        a, a_t = proj.subset_operators(views)
        sens = a_t @ np.ones(views.size * sino.n_bins)
        inv_sens = np.divide(1.0, sens, out=np.zeros_like(sens), where=sens > 0)
        subsets.append((a, a_t, inv_sens, y[views].ravel()))

    def on_grid(values):
        img = np.zeros(size * size)
        img[pixels] = values
        return img.reshape(size, size)

    x = np.ones(pixels.size)
    for it in range(cfg.n_iterations):
        for a, a_t, inv_sens, y_k in subsets:
            fp = a @ x
            ratio = np.divide(y_k, fp, out=np.zeros_like(fp), where=fp > _RATIO_EPS)
            x = x * (a_t @ ratio) * inv_sens
        if callback is not None:
            callback(it, on_grid(x))

    out = on_grid(np.maximum(x, 0.0))
    if out.max() > np.finfo(np.float32).max:
        raise ValueError(f"at bin_width {sino.bin_width} the image exceeds the float32 range")
    return Image(out.astype(np.float32), pixel_size=sino.bin_width)


def mlem(sino: Sinogram, n_iterations: int = 20, image_size: int = 128, callback=None) -> Image:
    """Plain EM: the single-subset special case of osem."""
    cfg = ReconConfig(n_subsets=1, n_iterations=n_iterations, image_size=image_size)
    return osem(sino, cfg, callback=callback)


def log_likelihood(sino: Sinogram, image: Image) -> float:
    """Poisson data log-likelihood sum(y*ln(Ax) - Ax), up to the y! constant.

    Bins with Ax == 0 contribute -inf when y > 0 and 0 when y == 0. The
    projector's bins are one pixel wide, so the image's pixel size must be
    the sinogram's bin width.
    """
    if image.pixel_size != sino.bin_width:
        raise ValueError(
            f"image pixel_size {image.pixel_size} does not match sinogram "
            f"bin_width {sino.bin_width}"
        )
    y = np.asarray(sino.data, dtype=np.float64).ravel()
    fp = _projector(sino, image.height, image.width).forward(image.data).ravel() * sino.bin_width
    if np.any((fp <= 0) & (y > 0)):
        return float("-inf")
    pos = fp > 0
    return float((y[pos] * np.log(fp[pos])).sum() - fp.sum())

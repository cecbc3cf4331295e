"""Ordered-subset expectation maximization reconstruction.

Multiplicative updates with a matched forward/adjoint projector pair:

    x_j <- x_j / (sum_{i in S} a_ij) * sum_{i in S} a_ij * y_i / (Ax)_i

Subsets interleave view angles (subset k takes views k, k+n_subsets, ...)
in a fixed order, so reconstructions are reproducible. The start image is
uniform 1.0 inside the field of view and 0 outside; pixels with zero
subset sensitivity are pinned to 0. Where a forward-projected bin is 0
the data ratio is set to 0 (with noiseless-consistent data this only
happens when the measured bin is also 0). The projector works in pixel
units, so the data are divided by the sinogram's bin width, which is also
the reconstruction's pixel size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Image, Sinogram, fov_mask
from .projector import get_projector

_RATIO_EPS = 1e-12


@dataclass(frozen=True)
class ReconConfig:
    """Reconstruction settings; image_size fixes the projector geometry."""

    n_subsets: int = 4
    n_iterations: int = 20
    stop_epsilon: float | None = None
    image_size: int = 128

    def __post_init__(self):
        if self.n_subsets < 1:
            raise ValueError(f"n_subsets must be >= 1, got {self.n_subsets}")
        if self.n_iterations < 1:
            raise ValueError(f"n_iterations must be >= 1, got {self.n_iterations}")
        if self.stop_epsilon is not None and not self.stop_epsilon > 0:
            raise ValueError("stop_epsilon must be positive when set")
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
    y = np.asarray(sino.data, dtype=np.float64) / sino.bin_width  # to pixel-unit integrals
    if np.any(y < 0):
        raise ValueError("sinogram has negative entries")
    if sino.n_angles % cfg.n_subsets != 0:
        raise ValueError(
            f"n_subsets={cfg.n_subsets} does not divide n_angles={sino.n_angles}"
        )

    size = cfg.image_size
    proj = _projector(sino, size, size)

    subsets = []
    for k in range(cfg.n_subsets):
        views = np.arange(k, sino.n_angles, cfg.n_subsets)
        a, a_adj = proj.subset_operators(views)
        sens = np.asarray(a.sum(axis=0)).ravel()
        subsets.append((a, a_adj, sens, y[views].ravel()))

    x = fov_mask(size, size).astype(np.float64).ravel()
    for it in range(cfg.n_iterations):
        if cfg.stop_epsilon is not None:
            prev = x.copy()
        for a, a_adj, sens, y_k in subsets:
            fp = a @ x
            ratio = np.where(fp > _RATIO_EPS, y_k / np.where(fp > _RATIO_EPS, fp, 1.0), 0.0)
            back = a_adj @ ratio
            x = np.where(sens > 0, x * back / np.where(sens > 0, sens, 1.0), 0.0)
        if callback is not None:
            callback(it, x.reshape(size, size).copy())
        if cfg.stop_epsilon is not None:
            denom = np.abs(prev).sum()
            if denom > 0 and np.abs(x - prev).sum() / denom < cfg.stop_epsilon:
                break

    out = np.maximum(x, 0.0).reshape(size, size).astype(np.float32)
    return Image(out, pixel_size=sino.bin_width)


def mlem(sino: Sinogram, n_iterations: int = 20, image_size: int = 128, callback=None) -> Image:
    """Plain EM: the single-subset special case of osem."""
    cfg = ReconConfig(n_subsets=1, n_iterations=n_iterations, image_size=image_size)
    return osem(sino, cfg, callback=callback)


def log_likelihood(sino: Sinogram, image: Image) -> float:
    """Poisson data log-likelihood sum(y*ln(Ax) - Ax), up to the y! constant.

    Bins with Ax == 0 contribute -inf when y > 0 and 0 when y == 0.
    """
    y = np.asarray(sino.data, dtype=np.float64)
    proj = _projector(sino, image.height, image.width)
    fp = proj.forward(image.data) * sino.bin_width
    if np.any((fp <= 0) & (y > 0)):
        return float("-inf")
    pos = fp > 0
    return float((y[pos] * np.log(fp[pos])).sum() - fp.sum())

"""Image and sinogram containers with their acquisition geometry."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["GeometryError", "Image", "Sinogram", "fov_radius", "fov_mask", "view_angles_deg"]

FOV_FRACTION = 0.48


def _validate_2d(data: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(data)
    if arr.ndim != 2:
        raise ValueError(f"{what} data must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{what} data is empty, got shape {arr.shape}")
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} data contains non-finite values")
    if (arr < 0).any():
        raise ValueError(f"{what} data contains negative values")
    return arr


class GeometryError(ValueError):
    """A geometry field of an Image or Sinogram is non-finite or out of range."""


def _check_geometry(name: str, value: float, positive: bool = True) -> None:
    if not math.isfinite(value) or (positive and not value > 0):
        kind = "finite and positive" if positive else "finite"
        raise GeometryError(f"{name} must be {kind}, got {value}")


def view_angles_deg(n_angles: int, start_deg: float = 0.0, range_deg: float = 360.0) -> np.ndarray:
    """Evenly spaced view angles, endpoint excluded."""
    if n_angles < 1:
        raise ValueError(f"n_angles must be >= 1, got {n_angles}")
    _check_geometry("start_angle_deg", start_deg, positive=False)
    _check_geometry("angular_range_deg", range_deg)
    return start_deg + np.arange(n_angles) * (range_deg / n_angles)


@dataclass
class Image:
    """A nonnegative 2-D activity map on a square pixel grid."""

    data: np.ndarray
    pixel_size: float = 1.0

    def __post_init__(self):
        self.data = _validate_2d(self.data, "image")
        _check_geometry("pixel_size", self.pixel_size)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass
class Sinogram:
    """Projection data, rows indexed by view angle and columns by detector bin.

    View i sits at start_angle_deg + i * angular_range_deg / n_angles; the
    endpoint is excluded, so 128 views over 360 degrees step by 2.8125 and
    a 32-view set shares every fourth angle with a 128-view set. bin_width
    is both the detector bin size and the pixel size of a reconstruction.
    """

    data: np.ndarray
    start_angle_deg: float = 0.0
    angular_range_deg: float = 360.0
    bin_width: float = 1.0

    def __post_init__(self):
        self.data = _validate_2d(self.data, "sinogram")
        _check_geometry("start_angle_deg", self.start_angle_deg, positive=False)
        _check_geometry("angular_range_deg", self.angular_range_deg)
        _check_geometry("bin_width", self.bin_width)

    @property
    def n_angles(self) -> int:
        return self.data.shape[0]

    @property
    def n_bins(self) -> int:
        return self.data.shape[1]

    def angles_deg(self) -> np.ndarray:
        return view_angles_deg(self.n_angles, self.start_angle_deg, self.angular_range_deg)


def fov_radius(width: int) -> float:
    """Radius in pixels of the circular field of view for a given grid width."""
    return FOV_FRACTION * width


def fov_mask(height: int, width: int, radius: float | None = None) -> np.ndarray:
    """Boolean mask of pixels inside the field-of-view circle.

    The circle is centred on the pixel grid centre ((h-1)/2, (w-1)/2),
    which is also the projector's rotation centre.
    """
    if radius is None:
        radius = fov_radius(width)
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    yy, xx = np.ogrid[:height, :width]
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius

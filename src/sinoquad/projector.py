"""Parallel-beam forward projector and its exact adjoint.

Joseph-style interpolating ray-driven line integrals: one ray per detector
bin, sampled along its length at a fixed sub-pixel step with bilinear
interpolation and midpoint quadrature. Detector bins span the image width
and rotation is about the pixel-grid centre; view i of n covers
start + i * range / n degrees with the endpoint excluded, so coarse view
sets are nested in finer ones whenever the counts divide.

The operator works in pixel units: detector bins are one pixel wide and
one pixel apart, and line integrals are measured in pixel lengths. The
callers carry the physical scale: `project` multiplies by the pixel size,
and OSEM divides the data by the sinogram's bin width.

Each view is materialised once as a sparse matrix and cached, which makes
repeated projection, backprojection and iterative reconstruction cheap and
makes the adjoint exact by construction (the transpose view, never a copy).

In parallel beam the view at theta + 180 degrees is the view at theta with
its bins reversed. So a projector over a full 360-degree turn with an even
view count stores only the first half-turn's views: `forward` appends their
bin-reversed copies, `adjoint` folds the second half-turn onto the first,
and `fold` does the same for any set of views. Every other geometry stores
all of its views.

Raw bilinear ray sampling gives a per-pixel detector sensitivity (column
sum) that wobbles by a few percent at diagonal angles, which would leak
into per-view mass totals. Rescaling whole columns would fix the totals
but bends bin values away from true line integrals near the wobble's
spatial frequency. Instead each view is balanced in two steps that leave
bin values essentially untouched: the whole view is scaled by one constant
so no pixel exceeds unit sensitivity, then each pixel's remaining deficit
is deposited across a small binomial-weighted window of detector bins
centred on the pixel's detector coordinate. The window average restores
locally exact mass while the binomial taper cancels the wobble instead of
re-aliasing it. Every pixel the detector can see ends up with a column sum
of exactly 1, so per-view mass conservation holds to float round-off and
all matrix entries stay nonnegative.

The window is the same fixed binomial filter C for every pixel, so the
matrix stores it once per pixel, not once per tap: each view has n_bins
core rows (the scaled ray sampling) and n_bins centre rows holding each
pixel's deficit at its centre bin, and a view's projection is
core + C(centre), with C applied along the detector axis after the matrix
product (`views_from_rows`; the adjoint's `rows_from_views` is its
transpose). A pixel whose window the detector edge clips keeps its
renormalised top-up taps as explicit entries in the core rows instead.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np
import scipy.sparse as sp

from .geometry import Image, Sinogram, fov_radius, view_angles_deg

__all__ = ["ParallelProjector", "get_projector", "project", "view_angles_deg"]

SAMPLE_STEP = 0.25  # pixels along the ray; contract requires <= 0.5
_BALANCE_ORDER = 6  # binomial window spans _BALANCE_ORDER + 1 detector bins
_TAPER = np.array([comb(_BALANCE_ORDER, k) for k in range(_BALANCE_ORDER + 1)], dtype=np.float64)
_TAPER /= _TAPER.sum()  # taps k/64: a whole window sums to exactly 1.0


@lru_cache(maxsize=8)
def _filter_matrix(n_bins: int) -> sp.csr_matrix:
    """The binomial filter C along a detector: row b holds _TAPER[k] at bin b + k - half."""
    taps = np.flatnonzero(np.abs(np.arange(_TAPER.size) - _BALANCE_ORDER // 2) < n_bins)
    c = sp.diags(list(_TAPER[taps]), taps - _BALANCE_ORDER // 2, shape=(n_bins, n_bins)).tocsr()
    c.sort_indices()
    return c


def _spread(bins: np.ndarray) -> np.ndarray:
    """C along the last (detector) axis of [views, n_bins], zero past its edges.

    A CSR product sums each row in column order, so bin b sums
    _TAPER[k] * bins[b + k - half] in tap order k = 0, 1, ... C is
    symmetric, so this is also its transpose.
    """
    return (_filter_matrix(bins.shape[-1]) @ bins.T).T


def _view_matrix(theta_deg: float, height: int, width: int, n_bins: int) -> sp.csr_matrix:
    """Sparse [2 * n_bins, height*width] operator for one view: core rows, then centre rows."""
    theta = np.deg2rad(theta_deg)
    es = (np.cos(theta), np.sin(theta))  # detector axis
    et = (-np.sin(theta), np.cos(theta))  # ray direction
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0

    offsets = np.arange(n_bins) - (n_bins - 1) / 2.0
    half_diag = 0.5 * float(np.hypot(height, width))
    n_steps = int(np.ceil(2.0 * half_diag / SAMPLE_STEP))
    n_steps += n_steps % 2  # even count: the sample lattice is symmetric about 0
    ts = (np.arange(n_steps) - (n_steps - 1) / 2.0) * SAMPLE_STEP

    px = cx + offsets[:, None] * es[0] + ts[None, :] * et[0]
    py = cy + offsets[:, None] * es[1] + ts[None, :] * et[1]

    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    fx = px - x0
    fy = py - y0

    bin_idx = np.broadcast_to(np.arange(n_bins)[:, None], px.shape)

    rows = []
    cols = []
    vals = []
    for dx, wx in ((0, 1.0 - fx), (1, fx)):
        xi = x0 + dx
        ok_x = (xi >= 0) & (xi < width)
        for dy, wy in ((0, 1.0 - fy), (1, fy)):
            yi = y0 + dy
            ok = ok_x & (yi >= 0) & (yi < height)
            rows.append(bin_idx[ok])
            cols.append((yi[ok] * width + xi[ok]))
            vals.append((wx[ok] * wy[ok]) * SAMPLE_STEP)

    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_bins, height * width),
    ).tocsr()
    return _balance_columns(mat, theta, height, width, n_bins)


def _balance_columns(
    mat: sp.csr_matrix, theta: float, height: int, width: int, n_bins: int
) -> sp.csr_matrix:
    """Pin every covered pixel's column sum to 1, gently.

    One uniform scale brings all sensitivities at or below target, then the
    per-pixel shortfall is spread over a binomial window of bins around the
    pixel's detector coordinate. Uniform scale + windowed top-up perturbs
    line-integral values far less than rescaling columns individually.

    Returns the [2 * n_bins] rows of the stored layout: the scaled view plus
    the top-up taps of windows the detector edge clips, then each other
    pixel's deficit at its centre bin, which the filter C spreads later.
    """
    col_sums = np.asarray(mat.sum(axis=0)).ravel()
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    yy, xx = np.divmod(np.arange(height * width), width)
    s_pix = (xx - cx) * np.cos(theta) + (yy - cy) * np.sin(theta)
    r_pix = np.hypot(xx - cx, yy - cy)

    # reference sensitivity: the largest over anything the rotation covers
    covered = (r_pix <= fov_radius(width) + 2.0) & (col_sums > 0)
    ref = float(col_sums[covered].max()) if covered.any() else float(col_sums.max())
    if ref <= 0.0:  # no ray meets the image: no column has anything to balance
        ref = 1.0
    mat = mat * (1.0 / ref)
    mat.resize(2 * n_bins, height * width)

    deficit = 1.0 - col_sums / ref
    centre = np.rint(s_pix + (n_bins - 1) / 2.0).astype(np.int64)
    half = _BALANCE_ORDER // 2

    # [taps, pixels] detector bin of each window tap; inside: the tap is on the detector
    bins = centre[None, :] + np.arange(-half, half + 1)[:, None]
    inside = (bins >= 0) & (bins < n_bins)
    avail = np.where(inside, _TAPER[:, None], 0.0).sum(axis=0)
    fixable = (deficit > 1e-12) & (col_sums > 0) & (avail > 0)
    whole = fixable & inside.all(axis=0)

    tap, pix = np.nonzero(inside & (fixable & ~whole)[None, :])
    (cen,) = np.nonzero(whole)
    topup = sp.coo_matrix(
        (
            np.concatenate([deficit[pix] * (_TAPER[tap] / avail[pix]), deficit[cen]]),
            (np.concatenate([bins[tap, pix], n_bins + centre[cen]]), np.concatenate([pix, cen])),
        ),
        shape=(2 * n_bins, height * width),
    ).tocsr()
    return mat + topup


class ParallelProjector:
    """Matched forward/adjoint projection pair for a fixed geometry, in pixel units."""

    def __init__(
        self,
        height: int,
        width: int,
        n_angles: int,
        start_angle_deg: float = 0.0,
        angular_range_deg: float = 360.0,
        n_bins: int | None = None,
    ):
        if height < 1 or width < 1:
            raise ValueError(f"bad image shape {(height, width)}")
        self.height = height
        self.width = width
        self.n_bins = width if n_bins is None else n_bins
        self.n_angles = n_angles
        angles = view_angles_deg(n_angles, start_angle_deg, angular_range_deg)
        if angular_range_deg == 360.0 and n_angles % 2 == 0:
            angles = angles[: n_angles // 2]  # the rest are these, bin-reversed
        blocks = [_view_matrix(theta, height, width, self.n_bins) for theta in angles]
        self.matrix = sp.vstack(blocks, format="csr")

    @property
    def _stored_views(self) -> int:
        """Views the matrix holds: the first half-turn's when folded, else all."""
        return self.matrix.shape[0] // (2 * self.n_bins)

    def views_from_rows(self, rows: np.ndarray) -> np.ndarray:
        """Stored views' bins [views, n_bins] from a product of their matrix rows.

        Each view's bins are its core rows plus the filter C of its centre rows.
        """
        rows = np.reshape(rows, (-1, 2, self.n_bins))
        return rows[:, 0] + _spread(rows[:, 1])

    def rows_from_views(self, views: np.ndarray) -> np.ndarray:
        """Transpose of views_from_rows: the matrix-row vector of views' bins.

        C is symmetric, so each view's centre rows read C of its bins.
        """
        views = np.reshape(views, (-1, self.n_bins))
        return np.stack([views, _spread(views)], axis=1).ravel()

    def forward(self, image: np.ndarray) -> np.ndarray:
        img = np.asarray(image, dtype=np.float64)
        if img.shape != (self.height, self.width):
            raise ValueError(
                f"image shape {img.shape} does not match projector {(self.height, self.width)}"
            )
        half = self._stored_views
        out = self.views_from_rows(self.matrix @ img.ravel())
        if half != self.n_angles:
            out = np.concatenate([out, out[:, ::-1]])
        return out

    def adjoint(self, sinogram: np.ndarray) -> np.ndarray:
        sino = np.asarray(sinogram, dtype=np.float64)
        if sino.shape != (self.n_angles, self.n_bins):
            raise ValueError(
                f"sinogram shape {sino.shape} does not match projector "
                f"{(self.n_angles, self.n_bins)}"
            )
        half = self._stored_views
        if half != self.n_angles:
            sino = sino[:half] + sino[half:, ::-1]
        out = self.matrix.T @ self.rows_from_views(sino)
        return out.reshape(self.height, self.width)

    def fold(self, angle_indices, rows: np.ndarray):
        """Fold the rows of some views onto the stored views they read.

        A view past the stored half-turn reads stored view `v - n_angles // 2`
        with its bins reversed. Returns the stored views (sorted), their data
        [len(stored), n_bins] with the reversed rows added in, and how many of
        the given views read each stored view.
        """
        idx = np.asarray(angle_indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_angles):
            raise ValueError(f"view indices out of range [0, {self.n_angles})")
        rows = np.asarray(rows, dtype=np.float64).reshape(idx.size, self.n_bins)
        second = idx >= self._stored_views
        stored, inverse, counts = np.unique(
            idx % self._stored_views, return_inverse=True, return_counts=True
        )
        out = np.zeros((stored.size, self.n_bins))
        np.add.at(out, inverse, np.where(second[:, None], rows[:, ::-1], rows))
        return stored, out, counts

    def subset_operators(self, stored_views):
        """(forward, adjoint) sparse matrices restricted to some stored views.

        Their products go through views_from_rows and rows_from_views like the
        full matrix's. The adjoint is a transpose view sharing the forward
        matrix's arrays."""
        idx = np.asarray(stored_views, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self._stored_views):
            raise ValueError(f"stored view indices out of range [0, {self._stored_views})")
        per_view = 2 * self.n_bins
        a = self.matrix[(idx[:, None] * per_view + np.arange(per_view)).ravel()]
        return a, a.T


_cached = lru_cache(maxsize=8)(ParallelProjector)


def get_projector(
    height: int,
    width: int,
    n_angles: int,
    start_angle_deg: float = 0.0,
    angular_range_deg: float = 360.0,
    n_bins: int | None = None,
) -> ParallelProjector:
    """Cached projector lookup; geometries are built once per process."""
    return _cached(
        int(height),
        int(width),
        int(n_angles),
        float(start_angle_deg),
        float(angular_range_deg),
        int(width if n_bins is None else n_bins),
    )


def project(
    image: Image,
    n_angles: int,
    start_angle_deg: float = 0.0,
    angular_range_deg: float = 360.0,
) -> Sinogram:
    """Forward-project an image into an n_angles-view sinogram.

    Detector bins equal the image width and are one pixel wide, so the
    sinogram's bin size is the pixel size and a coarse view set is exactly
    the matching rows of a finer one.
    """
    proj = get_projector(
        image.height, image.width, n_angles, start_angle_deg, angular_range_deg
    )
    data = proj.forward(image.data) * image.pixel_size
    data = np.maximum(data, 0.0)  # interpolation cannot go negative; guard round-off
    return Sinogram(data.astype(np.float32), start_angle_deg, angular_range_deg, image.pixel_size)

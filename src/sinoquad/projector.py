"""Parallel-beam forward projector and its exact adjoint.

Joseph-style interpolating ray-driven line integrals: one ray per detector
bin, sampled along its length at a fixed sub-pixel step with bilinear
interpolation and midpoint quadrature. Detector bins span the image width
and rotation is about the pixel-grid centre; view i of n covers
start + i * range / n degrees with the endpoint excluded, so coarse view
sets are nested in finer ones whenever the counts divide.

Each view's raw ray sampling is summed without a sort. Along any ray, a
sample's four bilinear taps land within sqrt(2) detector bins of the
tapped pixel's own detector coordinate, so every (pixel, bin) entry is one
of five slots in a window around the bin that coordinate falls in. One
bincount over pixel-slot keys sums each entry's taps in an order the code
fixes, tap by tap and each in sample order; the pixel-major sums are
sparse columns, which convert to rows with sorted columns.

The operator works in pixel units: detector bins are one pixel wide and
one pixel apart, and line integrals are measured in pixel lengths. The
callers carry the physical scale: `project` multiplies by the pixel size,
and OSEM divides the data by the sinogram's bin width.

Each view is materialised once as a sparse matrix, which makes repeated
projection, backprojection and iterative reconstruction cheap and makes the
adjoint exact by construction (the transpose view, never a copy).

In parallel beam the view at theta + 180 degrees is the view at theta with
its bins reversed. So a projector over a full 360-degree turn with an even
view count stores only the first half-turn's views, and a view of the
second half-turn reads its stored partner's bins in reverse. Every other
geometry stores all of its views.

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
matrix stores it once per pixel, not once per tap: each stored view has
n_bins core rows (the scaled ray sampling) and n_bins centre rows holding
each pixel's deficit at its centre bin, and a view's projection is
core + C(centre). A pixel whose window the detector edge clips keeps its
renormalised top-up taps as explicit entries in the core rows instead.

What the detector reads from the stored rows, the half-turn fold and the
filter C together, is one fixed sparse matrix D per geometry, built with
the matrix: `forward` is D @ (matrix @ x), `adjoint` is
matrix.T @ (D.T @ s), and `subset_operators` gives the same pair for any
set of views, so callers never see the stored layout. It can also drop all
but a sorted set of pixel columns, and it memoises what it builds on the
projector, within the bytes of the projector's own matrix. So a projector
owns all it builds from its geometry, which goes when the projector goes.
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
_SLOTS = 5  # detector bins a pixel's bilinear taps can reach along any ray


def _detector_matrix(n_angles: int, n_stored: int, n_bins: int) -> sp.csr_matrix:
    """D: what each view's bins read from the stored rows, [n_angles * n_bins, matrix rows].

    View v reads stored view v % n_stored, with its bins reversed when v is
    past the stored half-turn. Row (v, b) holds the filter C's taps on that
    view's centre rows around the bin b reads, in tap order k = 0, 1, ...
    (zero past the detector edges), then 1.0 on its core row. A CSR product
    sums each row in column order, so bin b is core + C(centre) of the
    stored view's bins.
    """
    views = np.arange(n_angles)
    bins = np.arange(n_bins)
    read = np.where((views >= n_stored)[:, None], bins[::-1], bins)  # [views, bins]
    first = (views % n_stored * 2 * n_bins)[:, None, None]  # the view's first stored row
    taps = read[..., None] + np.arange(_TAPER.size) - _BALANCE_ORDER // 2
    cols = np.concatenate([first + n_bins + taps, first + read[..., None]], axis=-1)
    vals = np.broadcast_to(np.append(_TAPER, 1.0), cols.shape)
    keep = np.concatenate([(taps >= 0) & (taps < n_bins), np.ones_like(taps[..., :1], bool)], -1)
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=-1).ravel())])
    shape = (n_angles * n_bins, n_stored * 2 * n_bins)
    return sp.csr_matrix((vals[keep], cols[keep], indptr), shape=shape)


class _Product:
    """The operator outer @ inner of two sparse matrices; .T is its transpose view."""

    def __init__(self, outer, inner):
        self.factors = (outer, inner)

    def __matmul__(self, vec):
        outer, inner = self.factors
        return outer @ (inner @ vec)

    @property
    def T(self):
        outer, inner = self.factors
        return _Product(inner.T, outer.T)

    @property
    def nnz(self) -> int:
        return sum(f.nnz for f in self.factors)


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

    x0 = np.floor(px)
    y0 = np.floor(py)
    # samples whose cell touches the image; their taps land in the image or
    # in a one-pixel ring around it, which the padded grid below absorbs
    keep = (x0 >= -1) & (x0 < width) & (y0 >= -1) & (y0 < height)
    b = np.broadcast_to(np.arange(n_bins)[:, None], px.shape)[keep]
    x0, y0 = x0[keep], y0[keep]
    fx = px[keep] - x0
    fy = py[keep] - y0

    # pixels of the padded [height + 2, width + 2] grid, and each one's slot
    # base: the detector bin its own coordinate falls in, less 2
    pw = width + 2
    yy, xx = np.divmod(np.arange((height + 2) * pw), pw)
    s_pix = (xx - 1 - cx) * es[0] + (yy - 1 - cy) * es[1]
    base = np.floor(s_pix + (n_bins - 1) / 2.0).astype(np.int64) - 2

    # [4, samples] padded pixel and weight of each tap, (dx, dy) = 00, 01, 10, 11
    corner = ((y0 + 1) * pw + (x0 + 1)).astype(np.int64)
    pix = corner + np.array([0, pw, 1, pw + 1])[:, None]
    wx, wy = 1.0 - fx, 1.0 - fy
    vals = np.empty(pix.shape)
    for tap, (u, v) in enumerate(((wx, wy), (wx, fy), (fx, wy), (fx, fy))):
        np.multiply(u, v, out=vals[tap])
    vals *= SAMPLE_STEP
    slot = b - base[pix]
    if slot.size and (slot.min() < 0 or slot.max() >= _SLOTS):
        raise RuntimeError(f"a ray tap falls outside its pixel's {_SLOTS}-bin slot window")

    # one sum per (padded pixel, slot), the taps added tap by tap, each in
    # sample order; every in-image tap makes an entry, weight 0 included
    grid = (height + 2, pw, _SLOTS)
    keys = (pix * _SLOTS + slot).ravel()
    sums = np.bincount(keys, vals.ravel(), np.prod(grid)).reshape(grid)[1:-1, 1:-1].ravel()
    taps = np.bincount(keys, None, np.prod(grid)).reshape(grid)[1:-1, 1:-1].ravel()
    (nz,) = np.nonzero(taps)  # pixel-major: one sparse column per image pixel
    col = nz // _SLOTS
    rows = base.reshape(grid[:2])[1:-1, 1:-1].ravel()[col] + nz % _SLOTS
    indptr = np.searchsorted(col, np.arange(height * width + 1))
    mat = sp.csc_matrix((sums[nz], rows, indptr), shape=(n_bins, height * width)).tocsr()
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
        if n_bins is not None and n_bins < 1:
            raise ValueError(f"bad detector bin count n_bins {n_bins}")
        self.height = height
        self.width = width
        self.n_bins = width if n_bins is None else n_bins
        self.n_angles = n_angles
        angles = view_angles_deg(n_angles, start_angle_deg, angular_range_deg)
        if angular_range_deg == 360.0 and n_angles % 2 == 0:
            angles = angles[: n_angles // 2]  # the rest are these, bin-reversed
        blocks = [_view_matrix(theta, height, width, self.n_bins) for theta in angles]
        self.matrix = sp.vstack(blocks, format="csr")
        del blocks  # before D's temporaries, which would otherwise raise the build's peak
        self._n_stored = len(angles)  # stored views: the first half-turn's when folded
        self._detector = _detector_matrix(n_angles, self._n_stored, self.n_bins)
        self._operators = {}  # (views, pixels) as bytes -> memoised forward operator

    def forward(self, image: np.ndarray) -> np.ndarray:
        img = np.asarray(image, dtype=np.float64)
        if img.shape != (self.height, self.width):
            raise ValueError(
                f"image shape {img.shape} does not match projector {(self.height, self.width)}"
            )
        out = self._detector @ (self.matrix @ img.ravel())
        return out.reshape(self.n_angles, self.n_bins)

    def adjoint(self, sinogram: np.ndarray) -> np.ndarray:
        sino = np.asarray(sinogram, dtype=np.float64)
        if sino.shape != (self.n_angles, self.n_bins):
            raise ValueError(
                f"sinogram shape {sino.shape} does not match projector "
                f"{(self.n_angles, self.n_bins)}"
            )
        out = self.matrix.T @ (self._detector.T @ sino.ravel())
        return out.reshape(self.height, self.width)

    def subset_operators(self, views, pixels=None):
        """(forward, adjoint) operators restricted to some views, and optionally pixels.

        The forward maps an image to those views' bins, concatenated in the
        given order, exactly as `forward` computes them; the adjoint is its
        transpose view, sharing the same arrays. Each is the product of the
        views' rows of the detector matrix and the stored rows they read.

        pixels, when given, are sorted flat pixel indices: the forward then
        takes the image's values at those pixels only, and the adjoint
        returns only those pixels. Dropping the other columns drops only
        their terms, and every kept pixel accumulates the same rows in the
        same order, so for an image that is +0.0 off those pixels the bins
        and the kept adjoint values are bit for bit the full operator's.

        views and pixels are 1-D integer sequences, or empty. The operators
        are built once per (views, pixels) and memoised on this projector, in
        arrays within its matrix's bytes: an insert past that clears the memo first.
        """
        idx = _indices(views, "view")
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_angles):
            raise ValueError(f"view indices out of range [0, {self.n_angles})")
        if pixels is not None:
            pixels = _indices(pixels, "pixel")
            n_pix = self.height * self.width
            if pixels.size and (pixels.min() < 0 or pixels.max() >= n_pix):
                raise ValueError(f"pixel indices out of range [0, {n_pix})")
            step = np.diff(pixels)
            if (step < 0).any():
                raise ValueError("pixel indices are not sorted")
            if (step == 0).any():
                raise ValueError("pixel indices repeat")
        key = (idx.tobytes(), None if pixels is None else pixels.tobytes())
        forward = self._operators.get(key)
        if forward is None:
            forward = self._restricted(idx, pixels)
            # bytes each operator adds to what the projector already holds
            held = [sum(_nbytes(f) for f in op.factors if f is not self.matrix)
                    for op in (forward, *self._operators.values())]
            limit = _nbytes(self.matrix)
            if held[0] <= limit:
                if sum(held) > limit:
                    self._operators.clear()
                self._operators[key] = forward
        return forward, forward.T

    def _restricted(self, idx, pixels):
        """The product operator of `subset_operators`, built without the memo."""
        n, per_view = self.n_bins, 2 * self.n_bins
        stored = np.unique(idx % self._n_stored)
        rows = (stored[:, None] * per_view + np.arange(per_view)).ravel()
        # fancy indexing keeps each row's entries in order, so bins sum as in forward
        d = self._detector[(idx[:, None] * n + np.arange(n)).ravel()][:, rows]
        a = self.matrix if stored.size == self._n_stored else self.matrix[rows]
        if pixels is not None:
            a = a[:, pixels]
        return _Product(d, a)


def _nbytes(mat) -> int:
    return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes


def _indices(values, name: str) -> np.ndarray:
    """values as 1-D int64, rejecting what a cast would silently rewrite."""
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise ValueError(f"{name} indices are not 1-D integers ({arr.ndim}-D {arr.dtype})")
    return arr.astype(np.int64)


_cached = lru_cache(maxsize=8)(ParallelProjector)


def get_projector(
    height: int,
    width: int,
    n_angles: int,
    start_angle_deg: float = 0.0,
    angular_range_deg: float = 360.0,
    n_bins: int | None = None,
) -> ParallelProjector:
    """Cached projector lookup; geometries are built once per process.

    Keeps the 8 most recently used projectors, each at most 2 x matrix + D
    bytes (its memo stays within the matrix's bytes): about 83 MB each at
    128x128 px and 128 views.
    """
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

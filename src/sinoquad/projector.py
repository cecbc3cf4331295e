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
of five slots in a window around the bin that coordinate falls in. A
bincount over pixel-slot keys sums each entry's taps in an order the code
fixes, tap by tap and each in sample order; the pixel-major sums are
sparse columns, which convert to rows with sorted columns. The rays are
sampled 32 bins at a time, which bounds a view's working memory; every
entry sums the samples of one bin's ray, so the chunks change no bit.

The operator works in pixel units: detector bins are one pixel wide and
one pixel apart, and line integrals are measured in pixel lengths. The
callers carry the physical scale: `project` multiplies by the pixel size,
and OSEM divides the data by the sinogram's bin width.

Each view is materialised once as sparse rows, which makes repeated
projection, backprojection and iterative reconstruction cheap and makes the
adjoint exact by construction (transpose views, never a copy).

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
rows store it once per pixel, not once per tap: each stored view has
n_bins core rows (the scaled ray sampling) and n_bins centre rows holding
each pixel's deficit at its centre bin, and a view's projection is
core + C(centre). A pixel whose window the detector edge clips keeps its
renormalised top-up taps as explicit entries in the core rows instead.

One stored copy per geometry. When the stored view count is a power of
two, the stored views are in bit-reversed order; otherwise in natural
order. In bit-reversed order every interleaved subset of a power-of-two
subset count (views k, k + s, k + 2s, ...) is one contiguous run of
stored views, and a coarser power-of-two view set is a prefix of them.
The stored rows are two CSR blocks over the columns of the field-of-view
pixels (`fov_pixels`) and of the rest, written view by view straight into
arrays sized by an upper bound on their entries (`stored_bytes_bound`),
then trimmed in place, so a build holds one copy of its rows. A geometry
whose bound, plus a fixed allowance per pixel for a view's build, exceeds
a fixed byte budget is refused before anything is allocated.

What the detector reads from the stored rows, the half-turn fold and the
filter C together, is one sparse matrix D per geometry, built with the
projector: `forward` is D @ (fov rows @ x_fov + other rows @ x_rest), and
`adjoint` scatters both blocks' transposes of D.T @ s. `subset_operators`
gives the same pair for any set of views over the field-of-view pixels,
as the product of that set's own D and a row range of the field-of-view
block, which shares the stored arrays, so callers never see the stored
layout. A projector whose geometry is nested in one `get_projector`
holds (the same geometry at a power-of-two fraction of its power-of-two
view count) is built as a prefix of that projector's rows, with its own
D: `get_projector(128, 128, 32)` after `get_projector(128, 128, 128)`
stores nothing new but D. So a projector owns all it builds from its
geometry, and keeps alive what it shares with a finer projector.
"""

from __future__ import annotations

from collections import OrderedDict
from math import comb, hypot, sqrt

import numpy as np
import scipy.sparse as sp

from .geometry import Image, Sinogram, fov_mask, fov_radius, view_angles_deg

__all__ = ["ParallelProjector", "get_projector", "project", "view_angles_deg"]

SAMPLE_STEP = 0.25  # pixels along the ray; contract requires <= 0.5
_BALANCE_ORDER = 6  # binomial window spans _BALANCE_ORDER + 1 detector bins
_TAPER = np.array([comb(_BALANCE_ORDER, k) for k in range(_BALANCE_ORDER + 1)], dtype=np.float64)
_TAPER /= _TAPER.sum()  # taps k/64: a whole window sums to exactly 1.0
_SLOTS = 5  # detector bins a pixel's bilinear taps can reach along any ray
_CHUNK_BINS = 32  # rays sampled at once by a view's build
# Refuse a geometry whose stored arrays and build could exceed 1 GiB. The
# paper's geometry (128 x 128 px, 128 views) is bounded at 71 MB, so the
# budget leaves room for a 256-px, 256-view geometry (bounded at 487 MB)
# and refuses what a host with a few GB free could not build. The largest
# square image accepted is 1223 px at one or two views, 857 px at 32 views
# and 525 px at 128 views, with one bin per pixel column. Entry counts
# under it fit int32 indices.
_BYTES_BUDGET = 1 << 30
# A build's working memory besides its stored arrays: one view's sampling,
# balancing and row split, and the previous view's rows. tracemalloc read
# at most 651, 561, 525 and 509 bytes per pixel at 128, 256, 512 and
# 1024 px, over 2 and 8 views and 32 bins or one per pixel column.
_BUILD_BYTES_PER_PIXEL = 660
_CACHE_SIZE = 8


def _is_power_of_two(n: int) -> bool:
    return n > 0 and not n & (n - 1)


def _storage_positions(n: int) -> np.ndarray:
    """Stored position of each of n views: bit-reversed when n is a power of two.

    Other counts keep natural order. Bit reversal is its own inverse, so
    the array also gives the view stored at each position.
    """
    views = np.arange(n)
    if not _is_power_of_two(n):
        return views
    bits = n.bit_length() - 1
    positions = np.zeros(n, dtype=np.int64)
    for bit in range(bits):
        positions |= ((views >> bit) & 1) << (bits - 1 - bit)
    return positions


def _entry_bounds(n_stored: int, height: int, width: int, n_fov: int) -> list[int]:
    """Upper bounds on the stored entries of the field-of-view block and of the rest.

    Along any ray a pixel's bilinear taps lie within |cos| + |sin| <= sqrt(2)
    bins of its detector coordinate, so a view's core rows hold at most 3
    ray entries per pixel, one per bin its taps reach, and its centre rows
    one deficit: 4. A pixel whose balancing window the detector edge clips
    has no centre entry but up to 6 core entries, all in its window. Its centre
    bin lies in one of two 6-bin strips at the detector edges, and the unit
    squares of the pixels in a strip lie in the strip widened by sqrt(2)/2
    on either side and in the image, so each strip holds at most
    (6 + sqrt(2)) diagonals' worth. Each block may hold all of them.
    """
    clipped = int(2 * (6 + sqrt(2)) * hypot(height, width)) + 1
    n_pix = height * width
    return [n_stored * (4 * p + 2 * clipped) for p in (n_fov, n_pix - n_fov)]


def _stored_bytes_bound(n_angles: int, n_stored: int, height: int, width: int, n_bins: int) -> int:
    """Upper bound on the bytes a projector stores; the build sizes its arrays by it.

    The two blocks' entries (float64 value, int32 column) and row pointers,
    D's at most 8 entries per bin and its row pointers, and the int64
    pixel indices of the two blocks' columns and storage positions.
    """
    entries = sum(_entry_bounds(n_stored, height, width, 0))  # the sum holds for any split
    entries += n_angles * n_bins * (_TAPER.size + 1)
    pointers = 2 * (n_stored * 2 * n_bins + 1) + n_angles * n_bins + 1
    return 12 * entries + 4 * pointers + 8 * (height * width + n_stored)


def _compressed(kind, data, indices, indptr, shape):
    """A sparse matrix of kind (csr_matrix or csc_matrix) over exactly these arrays.

    scipy's constructor copies an array that views less than half of its
    base (check_format, then prune), which would copy every row range of
    the stored blocks and every transpose of one.
    """
    mat = kind(shape)
    mat.data, mat.indices, mat.indptr = data, indices, indptr
    return mat


def _transposed(mat):
    """The transpose of a CSR or CSC matrix, over the same arrays."""
    kind = sp.csc_matrix if mat.format == "csr" else sp.csr_matrix
    return _compressed(kind, mat.data, mat.indices, mat.indptr, mat.shape[::-1])


def _row_range(mat, start: int, stop: int):
    """Rows [start, stop) of a CSR matrix, sharing its data and indices."""
    lo, hi = mat.indptr[start], mat.indptr[stop]
    indptr = mat.indptr[start : stop + 1] - lo
    return _compressed(sp.csr_matrix, mat.data[lo:hi], mat.indices[lo:hi], indptr,
                       (stop - start, mat.shape[1]))


def _detector_matrix(blocks, reverse, n_bins: int, n_blocks: int) -> sp.csr_matrix:
    """D: what each view's bins read from stored rows, [views * n_bins, n_blocks * 2 * n_bins].

    View i reads the stored view in row block blocks[i], with its bins
    reversed where reverse[i] (a view past the stored half-turn). Row (i, b)
    holds the filter C's taps on that block's centre rows around the bin b
    reads, in tap order k = 0, 1, ... (zero past the detector edges), then
    1.0 on its core row. A CSR product sums each row in entry order, so bin
    b is core + C(centre) of the stored view's bins, wherever it is stored.
    """
    bins = np.arange(n_bins)
    read = np.stack([bins, bins[::-1]])  # the bins a view reads, then a reversed view
    taps = read[..., None] + np.arange(_TAPER.size) - _BALANCE_ORDER // 2
    cols = np.concatenate([n_bins + taps, read[..., None]], axis=-1)  # from the block's first row
    vals = np.broadcast_to(np.append(_TAPER, 1.0), cols.shape)
    keep = np.concatenate([(taps >= 0) & (taps < n_bins), np.ones_like(taps[..., :1], bool)], -1)
    # both orders keep the same number of entries, so the views stack as [views, entries]
    side = reverse.astype(np.intp)
    cols = np.stack([cols[r][keep[r]] for r in (0, 1)])[side] + (blocks * 2 * n_bins)[:, None]
    vals = np.stack([vals[r][keep[r]] for r in (0, 1)])[side]
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=-1)[side])]).astype(np.int32)
    shape = (side.size * n_bins, n_blocks * 2 * n_bins)
    return _compressed(sp.csr_matrix, vals.ravel(), cols.ravel().astype(np.int32), indptr, shape)


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
        return _Product(_transposed(inner), _transposed(outer))

    @property
    def nnz(self) -> int:
        return sum(f.nnz for f in self.factors)


def _view_matrix(theta_deg: float, height: int, width: int, n_bins: int) -> sp.csr_matrix:
    """Sparse [2 * n_bins, height*width] operator for one view: core rows, then centre rows."""
    theta = np.deg2rad(theta_deg)
    es = (np.cos(theta), np.sin(theta))  # detector axis
    et = (-np.sin(theta), np.cos(theta))  # ray direction
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0

    half_diag = 0.5 * float(np.hypot(height, width))
    n_steps = int(np.ceil(2.0 * half_diag / SAMPLE_STEP))
    n_steps += n_steps % 2  # even count: the sample lattice is symmetric about 0
    ts = (np.arange(n_steps) - (n_steps - 1) / 2.0) * SAMPLE_STEP

    # pixels of the padded [height + 2, width + 2] grid, and each one's slot
    # base: the detector bin its own coordinate falls in, less 2
    pw = width + 2
    yy, xx = np.divmod(np.arange((height + 2) * pw), pw)
    s_pix = (xx - 1 - cx) * es[0] + (yy - 1 - cy) * es[1]
    base = np.floor(s_pix + (n_bins - 1) / 2.0).astype(np.int64) - 2

    # one sum per (padded pixel, slot), the taps added tap by tap, each in
    # sample order; a nonzero sum, one with a nonzero tap, makes an entry.
    # A slot belongs to one bin, so its sum comes from one chunk of rays.
    grid = (height + 2, pw, _SLOTS)
    sums = np.zeros(np.prod(grid))
    for first in range(0, n_bins, _CHUNK_BINS):
        bins = np.arange(first, min(first + _CHUNK_BINS, n_bins))
        offsets = bins - (n_bins - 1) / 2.0
        px = cx + offsets[:, None] * es[0] + ts[None, :] * et[0]
        py = cy + offsets[:, None] * es[1] + ts[None, :] * et[1]

        x0 = np.floor(px)
        y0 = np.floor(py)
        # samples whose cell touches the image; their taps land in the image
        # or in a one-pixel ring around it, which the padded grid absorbs
        keep = (x0 >= -1) & (x0 < width) & (y0 >= -1) & (y0 < height)
        b = np.broadcast_to(bins[:, None], px.shape)[keep]
        x0, y0 = x0[keep], y0[keep]
        fx = px[keep] - x0
        fy = py[keep] - y0

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
        keys = (pix * _SLOTS + slot).ravel()
        sums += np.bincount(keys, vals.ravel(), sums.size)

    sums = sums.reshape(grid)[1:-1, 1:-1].ravel()
    (nz,) = np.nonzero(sums)  # pixel-major: one column per pixel
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


def _stored_rows(thetas, height: int, width: int, n_bins: int, fov: np.ndarray):
    """The rows of the views at angles thetas, in that order: (fov block, rest block).

    Each view's rows are written straight into arrays sized by
    `_entry_bounds`; pages past the entries written are never touched, and
    the arrays are trimmed in place at the end.
    """
    n_pix = height * width
    inside = np.zeros(n_pix, dtype=bool)
    inside[fov] = True
    column = np.empty(n_pix, dtype=np.int32)  # each pixel's column in its block
    column[inside] = np.arange(fov.size)
    column[~inside] = np.arange(n_pix - fov.size)
    per_view = 2 * n_bins
    n_rows = len(thetas) * per_view
    blocks = [(np.empty(cap), np.empty(cap, dtype=np.int32), np.zeros(n_rows + 1, dtype=np.int32))
              for cap in _entry_bounds(len(thetas), height, width, fov.size)]
    for v, theta in enumerate(thetas):
        view = _view_matrix(theta, height, width, n_bins)
        side = inside.take(view.indices)
        cols = column.take(view.indices)
        ahead = np.searchsorted(np.flatnonzero(side), view.indptr)  # fov entries before each row
        rows = slice(v * per_view + 1, (v + 1) * per_view + 1)
        for (data, indices, indptr), keep, before in zip(blocks, (side, ~side),
                                                         (ahead, view.indptr - ahead)):
            start = indptr[v * per_view]
            stop = start + before[-1]
            if stop > data.size:
                raise RuntimeError("a view's entries exceed the stored-entry bound")
            data[start:stop] = view.data[keep]
            indices[start:stop] = cols[keep]
            indptr[rows] = start + before[1:]
    out = []
    for (data, indices, indptr), n_cols in zip(blocks, (fov.size, n_pix - fov.size)):
        # in place: nothing else refers to these arrays, and no view of them is alive
        data.resize(indptr[-1], refcheck=False)
        indices.resize(indptr[-1], refcheck=False)
        out.append(_compressed(sp.csr_matrix, data, indices, indptr, (n_rows, n_cols)))
    return out


def _finer(height, width, n_angles, start_angle_deg, angular_range_deg, n_bins):
    """A cached projector whose stored rows begin with this geometry's, or None.

    Same image, start, range and bins, and a power-of-two view count that
    is a power-of-two multiple of n_angles: then this geometry's stored
    views, in their own bit-reversed order, are the finer one's first.
    """
    if not _is_power_of_two(n_angles):
        return None
    same = (height, width, start_angle_deg, angular_range_deg, n_bins)
    for (h, w, n, start, span, bins), proj in _cache.items():
        if (h, w, start, span, bins) == same and n > n_angles and _is_power_of_two(n):
            return proj
    return None


class ParallelProjector:
    """Matched forward/adjoint projection pair for a fixed geometry, in pixel units.

    A geometry nested in a projector that `get_projector` holds is built
    as a prefix of that projector's stored rows, so it pins that
    projector's arrays while it lives, even after the cache lets go of
    the finer projector. `stored_bytes_bound` bounds the bytes of every
    array a projector holds; when that and a view's build memory could
    exceed 1 GiB, the constructor raises ValueError before it allocates.
    """

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
        # stored views: the first half-turn's when folded, the rest being these bin-reversed
        folded = angular_range_deg == 360.0 and n_angles % 2 == 0
        self._n_stored = n_angles // 2 if folded else n_angles
        self.stored_bytes_bound = _stored_bytes_bound(n_angles, self._n_stored, height, width,
                                                      self.n_bins)
        build_bytes = self.stored_bytes_bound + _BUILD_BYTES_PER_PIXEL * height * width
        if build_bytes > _BYTES_BUDGET:
            raise ValueError(
                f"a {height}x{width} projector with {n_angles} views of {self.n_bins} bins "
                f"may store {self.stored_bytes_bound / 2**20:.0f} MiB and build with "
                f"{build_bytes / 2**20:.0f} MiB, over the {_BYTES_BUDGET / 2**20:.0f} MiB budget"
            )
        angles = view_angles_deg(n_angles, start_angle_deg, angular_range_deg)[: self._n_stored]
        self._positions = _storage_positions(self._n_stored)
        inside = fov_mask(height, width).ravel()
        self.fov_pixels = np.flatnonzero(inside)  # the columns of the field-of-view block
        self._outside = np.flatnonzero(~inside)  # the columns of the other block
        finer = _finer(height, width, n_angles, start_angle_deg, angular_range_deg, self.n_bins)
        if finer is None:
            # bit reversal is its own inverse: position p holds view positions[p]
            rows = _stored_rows(angles[self._positions], height, width, self.n_bins,
                                self.fov_pixels)
        else:
            n_rows = self._n_stored * 2 * self.n_bins
            rows = [_row_range(block, 0, n_rows) for block in (finer._fov, finer._rest)]
        self._fov, self._rest = rows
        views = np.arange(n_angles)
        self._detector = _detector_matrix(self._positions[views % self._n_stored],
                                          views >= self._n_stored, self.n_bins, self._n_stored)

    def forward(self, image: np.ndarray) -> np.ndarray:
        img = np.asarray(image, dtype=np.float64)
        if img.shape != (self.height, self.width):
            raise ValueError(
                f"image shape {img.shape} does not match projector {(self.height, self.width)}"
            )
        x = img.ravel()
        stored = self._fov @ x[self.fov_pixels] + self._rest @ x[self._outside]
        return (self._detector @ stored).reshape(self.n_angles, self.n_bins)

    def adjoint(self, sinogram: np.ndarray) -> np.ndarray:
        sino = np.asarray(sinogram, dtype=np.float64)
        if sino.shape != (self.n_angles, self.n_bins):
            raise ValueError(
                f"sinogram shape {sino.shape} does not match projector "
                f"{(self.n_angles, self.n_bins)}"
            )
        stored = _transposed(self._detector) @ sino.ravel()
        out = np.empty(self.height * self.width)
        out[self.fov_pixels] = _transposed(self._fov) @ stored
        out[self._outside] = _transposed(self._rest) @ stored
        return out.reshape(self.height, self.width)

    def subset_operators(self, views):
        """(forward, adjoint) operators of some views over the field-of-view pixels.

        The forward maps the image's values at `fov_pixels` to those views'
        bins, concatenated in the given order; for an image that is +0.0
        outside the field of view they are bit for bit what `forward`
        computes. The adjoint is its transpose view, over the same arrays,
        and returns values at `fov_pixels`. Each is the product of the
        views' own detector matrix and the stored field-of-view rows they
        read: a row range sharing the stored arrays when those rows are
        contiguous, as every interleaved subset of a power-of-two subset
        count is, and a gathered copy otherwise.

        views is a 1-D integer sequence, or empty.
        """
        idx = _indices(views, "view")
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_angles):
            raise ValueError(f"view indices out of range [0, {self.n_angles})")
        per_view = 2 * self.n_bins
        positions = self._positions[idx % self._n_stored]
        held = np.unique(positions)  # the stored views read, in stored order
        if held.size and held[-1] - held[0] + 1 == held.size:
            rows = _row_range(self._fov, held[0] * per_view, (held[-1] + 1) * per_view)
        else:
            rows = self._fov[(held[:, None] * per_view + np.arange(per_view)).ravel()]
        # a view reads its stored view wherever the rows above put it
        d = _detector_matrix(np.searchsorted(held, positions), idx >= self._n_stored,
                             self.n_bins, held.size)
        forward = _Product(d, rows)
        return forward, forward.T


def _indices(values, name: str) -> np.ndarray:
    """values as 1-D int64, rejecting what a cast would silently rewrite."""
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise ValueError(f"{name} indices are not 1-D integers ({arr.ndim}-D {arr.dtype})")
    return arr.astype(np.int64)


_cache: OrderedDict = OrderedDict()  # geometry -> projector, least recently used first


def get_projector(
    height: int,
    width: int,
    n_angles: int,
    start_angle_deg: float = 0.0,
    angular_range_deg: float = 360.0,
    n_bins: int | None = None,
) -> ParallelProjector:
    """Cached projector lookup; geometries are built once per process.

    Keeps the 8 most recently used projectors. At 128x128 px and 128 views
    one holds about 43 MB: 40.9 MB of stored rows and 1.6 MB of D. A
    nested view set served from a cached finer projector, such as its
    32-view subset, adds only its own D (0.4 MB).
    """
    key = (
        int(height),
        int(width),
        int(n_angles),
        float(start_angle_deg),
        float(angular_range_deg),
        int(width if n_bins is None else n_bins),
    )
    proj = _cache.pop(key, None)
    if proj is None:
        proj = ParallelProjector(*key)
    _cache[key] = proj
    if len(_cache) > _CACHE_SIZE:
        _cache.popitem(last=False)
    return proj


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
    return Sinogram(data.astype(np.float32), start_angle_deg, angular_range_deg, image.pixel_size)

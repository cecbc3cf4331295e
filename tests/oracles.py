"""Independent reference computations the tests compare the package against.

Everything here is built from first principles with none of the package's
projection or autograd machinery: brute-force fine-step line integrals,
analytic disk profiles, an antialiased disk rasteriser, loop forms of the
two convolutions, a per-tap loop form of the projector's column
balancing, a loop form of the detector filter and the forward projection
through it, the explicit matrix of the projector's stored rows and
detector filter, and its full-turn operator with a plain OSEM loop over it.
"""

from math import comb

import numpy as np
import scipy.sparse as sp


def binomial_taps(order: int) -> np.ndarray:
    """The (order + 1) binomial coefficients of `order`, normalised to sum 1."""
    taper = np.array([comb(order, k) for k in range(order + 1)], dtype=np.float64)
    return taper / taper.sum()


def brute_force_view(img: np.ndarray, theta_deg: float, n_bins: int, step: float = 0.01) -> np.ndarray:
    """Line integrals of the bilinearly interpolated image, tiny fixed step.

    One ray per detector bin through the bin centre, rotation about the
    pixel-grid centre, midpoint quadrature at `step` pixels. Slow and
    simple on purpose.
    """
    theta = np.deg2rad(theta_deg)
    es = (np.cos(theta), np.sin(theta))
    et = (-np.sin(theta), np.cos(theta))
    h, w = img.shape
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    offsets = np.arange(n_bins) - (n_bins - 1) / 2.0
    half_diag = 0.5 * float(np.hypot(h, w))
    n_steps = int(np.ceil(2.0 * half_diag / step))
    n_steps += n_steps % 2
    ts = (np.arange(n_steps) - (n_steps - 1) / 2.0) * step

    px = cx + offsets[:, None] * es[0] + ts[None, :] * et[0]
    py = cy + offsets[:, None] * es[1] + ts[None, :] * et[1]
    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    fx = px - x0
    fy = py - y0
    bin_idx = np.broadcast_to(np.arange(n_bins)[:, None], px.shape)

    rows, cols, vals = [], [], []
    for dx, wx in ((0, 1.0 - fx), (1, fx)):
        xi = x0 + dx
        ok_x = (xi >= 0) & (xi < w)
        for dy, wy in ((0, 1.0 - fy), (1, fy)):
            yi = y0 + dy
            ok = ok_x & (yi >= 0) & (yi < h)
            rows.append(bin_idx[ok])
            cols.append(yi[ok] * w + xi[ok])
            vals.append((wx[ok] * wy[ok]) * step)
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_bins, h * w),
    ).tocsr()
    return mat @ img.astype(np.float64).ravel()


def disk_image(size: int, radius: float, supersample: int = 4) -> np.ndarray:
    """Antialiased unit disk centred on the pixel grid centre."""
    n = size * supersample
    c = (size - 1) / 2.0
    coords = (np.arange(n) + 0.5) / supersample - 0.5 - c
    xx, yy = np.meshgrid(coords, coords)
    fine = ((xx * xx + yy * yy) <= radius * radius).astype(np.float64)
    return fine.reshape(size, supersample, size, supersample).mean(axis=(1, 3))


def disk_profile(radius: float, s: np.ndarray) -> np.ndarray:
    """Chord length 2*sqrt(r^2 - s^2) of a unit disk, zero outside."""
    s = np.asarray(s, dtype=np.float64)
    inside = np.abs(s) < radius
    out = np.zeros_like(s)
    out[inside] = 2.0 * np.sqrt(radius * radius - s[inside] ** 2)
    return out


def conv2d_same(x: np.ndarray, w: np.ndarray, b=None) -> np.ndarray:
    """Zero-padded "same" cross-correlation, one output pixel and tap at a time.

    out[:, o, i, j] = b[o] + sum over (c, u, v) of
    w[o, c, u, v] * x[:, c, i + u - k//2, j + v - k//2], zero outside x.
    """
    n, _, h, wd = x.shape
    c_out, _, k, _ = w.shape
    p = k // 2
    out = np.zeros((n, c_out, h, wd))
    for i in range(h):
        for j in range(wd):
            for u in range(k):
                for v in range(k):
                    ii, jj = i + u - p, j + v - p
                    if 0 <= ii < h and 0 <= jj < wd:
                        out[:, :, i, j] += x[:, :, ii, jj] @ w[:, :, u, v].T
    if b is not None:
        out += b[None, :, None, None]
    return out


def conv_transpose2d_2x2(x: np.ndarray, w: np.ndarray, b, stride) -> np.ndarray:
    """2x2 transposed convolution by scattering one input pixel at a time.

    Input pixel (i, j) adds x[:, :, i, j] @ w[:, :, di, dj] to output pixel
    (sh*i + di, sw*j + dj); taps that land past the output edge are dropped.
    """
    sh, sw = stride
    n, _, h, wd = x.shape
    out = np.zeros((n, w.shape[1], sh * h, sw * wd))
    for i in range(h):
        for j in range(wd):
            for di in range(2):
                for dj in range(2):
                    oi, oj = sh * i + di, sw * j + dj
                    if oi < sh * h and oj < sw * wd:
                        out[:, :, oi, oj] += x[:, :, i, j] @ w[:, :, di, dj]
    if b is not None:
        out += b[None, :, None, None]
    return out


def balance_columns_loop(mat, theta, height, width, n_bins, fov_radius, order=6):
    """The projector's column balancing, one window tap at a time.

    Scale the view so the largest covered column sum is 1, then
    spread each pixel's deficit over the binomial window of `order` + 1
    bins around its detector coordinate, renormalized over the taps that
    land on the detector.
    """
    col_sums = np.asarray(mat.sum(axis=0)).ravel()
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    yy, xx = np.divmod(np.arange(height * width), width)
    s_pix = (xx - cx) * np.cos(theta) + (yy - cy) * np.sin(theta)
    covered = (np.hypot(xx - cx, yy - cy) <= fov_radius + 2.0) & (col_sums > 0)
    ref = float(col_sums[covered].max()) if covered.any() else float(col_sums.max())
    if ref <= 0.0:
        return mat
    mat = mat * (1.0 / ref)
    deficit = 1.0 - col_sums / ref
    centre = np.rint(s_pix + (n_bins - 1) / 2.0).astype(np.int64)
    taper = binomial_taps(order)
    offsets = range(-(order // 2), order // 2 + 1)

    avail = np.zeros(height * width)
    for k, off in enumerate(offsets):
        b = centre + off
        avail += np.where((b >= 0) & (b < n_bins), taper[k], 0.0)
    fixable = (deficit > 1e-12) & (col_sums > 0) & (avail > 0)
    rows, cols, vals = [], [], []
    for k, off in enumerate(offsets):
        b = centre + off
        sel = fixable & (b >= 0) & (b < n_bins)
        rows.append(b[sel])
        cols.append(np.flatnonzero(sel))
        vals.append(deficit[sel] * (taper[k] / avail[sel]))
    if not sum(len(r) for r in rows):
        return mat
    topup = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_bins, height * width),
    ).tocsr()
    return mat + topup


def effective_view(rows: sp.csr_matrix, n_bins: int, order=6) -> sp.csr_matrix:
    """One stored view's [core; centre] rows as the matrix core + C centre.

    C is the (order + 1)-tap binomial window along the detector, normalised
    to sum 1 and cut off at the detector edges.
    """
    taper = binomial_taps(order)
    c = sp.diags(list(taper), range(-(order // 2), order // 2 + 1), shape=(n_bins, n_bins))
    return (rows[:n_bins] + c.tocsr() @ rows[n_bins:]).tocsr()


def effective_operator(proj) -> sp.csr_matrix:
    """The [stored views * n_bins, pixels] matrix a projector's stored rows apply."""
    n = proj.n_bins
    n_views = proj.matrix.shape[0] // (2 * n)
    views = [effective_view(proj.matrix[2 * n * v : 2 * n * (v + 1)], n) for v in range(n_views)]
    return sp.vstack(views, format="csr")


def filter_loop(bins: np.ndarray, order=6) -> np.ndarray:
    """C applied to one view's bins: a loop over bins, summing taps in order.

    Bin b accumulates taper[k] * bins[b + k - order // 2] for k = 0, 1, ...,
    starting from 0 and reading 0 past the detector edges.
    """
    taper, n = binomial_taps(order), len(bins)
    out = np.zeros(n)
    for b in range(n):
        acc = 0.0
        for k in range(order + 1):
            j = b + k - order // 2
            acc += taper[k] * (bins[j] if 0 <= j < n else 0.0)
        out[b] = acc
    return out


def forward_by_views(proj, image: np.ndarray) -> np.ndarray:
    """A projector's sinogram computed one stored view at a time.

    Each view is its core rows' product plus `filter_loop` of its centre
    rows' product, then a half-turn projector appends its views with the
    bins reversed: the order of operations `forward` promises.
    """
    n, x = proj.n_bins, np.asarray(image, dtype=np.float64).ravel()
    views = []
    for v in range(proj.matrix.shape[0] // (2 * n)):
        core = proj.matrix[2 * n * v : 2 * n * v + n] @ x
        centre = proj.matrix[2 * n * v + n : 2 * n * (v + 1)] @ x
        views.append(core + filter_loop(centre))
    out = np.array(views)
    if len(views) != proj.n_angles:
        out = np.concatenate([out, out[:, ::-1]])
    return out


def stacked_operator(proj) -> sp.csr_matrix:
    """The operator of all of a projector's views, [A; R A] for a half-turn A.

    R reverses the bins within each view, so row block v + n/2 is row
    block v read from the far side of the detector.
    """
    half, n_bins = effective_operator(proj), proj.n_bins
    n_half = half.shape[0] // n_bins
    if n_half == proj.n_angles:
        return half
    reversed_rows = (np.arange(n_half)[:, None] * n_bins + np.arange(n_bins)[::-1]).ravel()
    return sp.vstack([half, half[reversed_rows]], format="csr")


def osem_loop(matrix, y, n_bins, n_subsets, n_iterations, x0, eps=1e-12):
    """Textbook OSEM on an explicit matrix: interleaved view subsets, one row per bin."""
    n_views = matrix.shape[0] // n_bins
    x = np.array(x0, dtype=np.float64)
    for _ in range(n_iterations):
        for k in range(n_subsets):
            rows = (np.arange(k, n_views, n_subsets)[:, None] * n_bins + np.arange(n_bins)).ravel()
            a = matrix[rows]
            fp = a @ x
            ratio = np.where(fp > eps, y[rows] / np.where(fp > eps, fp, 1.0), 0.0)
            sens = np.asarray(a.sum(axis=0)).ravel()
            x = np.where(sens > 0, x * (a.T @ ratio) / np.where(sens > 0, sens, 1.0), 0.0)
    return x

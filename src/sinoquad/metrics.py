"""Quality figures for sinogram and image pairs: MAPE, MSE, SSIM, PSNR.

Conventions fixed here so scores are comparable across noise levels:
PSNR uses dynamic range L = 1.0; MetricsReport.from_pair max-normalizes
both inputs before scoring; MAPE masks background-dominated bins, those
below 1% of the reference max. Count-limited sinograms taper through
arbitrarily small values at the object boundary, where percentage error
is ill-defined (a bin whose true mean is a millionth of the peak carries
no measurable signal at clinical count levels), so relative error is
scored only where the reference is meaningfully populated.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import ndimage

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03
_PEAK = 1.0
_MAPE_TAU_FRACTION = 0.01

# MetricsReport's scores in table order: name -> (column title, cell format)
SCORES = {
    "mape": ("MAPE (%)", ".2f"),
    "mse": ("MSE", ".4f"),
    "ssim": ("SSIM", ".3f"),
    "psnr": ("PSNR (dB)", ".2f"),
}


def _as_pair(ref, est) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(getattr(ref, "data", ref), dtype=np.float64)
    b = np.asarray(getattr(est, "data", est), dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: reference {a.shape} vs estimate {b.shape}")
    return a, b


def mse(ref, est) -> float:
    a, b = _as_pair(ref, est)
    return float(np.mean((a - b) ** 2))


def psnr(ref, est) -> float:
    m = mse(ref, est)
    if m == 0.0:
        return math.inf
    return float(10.0 * math.log10(_PEAK * _PEAK / m))


def _mape_with_count(ref, est) -> tuple[float, int]:
    a, b = _as_pair(ref, est)
    tau = _MAPE_TAU_FRACTION * float(a.max()) if a.size else 0.0
    keep = a > tau
    n_masked = int(a.size - keep.sum())
    if not keep.any():
        raise ValueError("reference effectively zero: every bin is masked")
    pct = float(np.mean(np.abs(b[keep] - a[keep]) / a[keep]) * 100.0)
    return pct, n_masked


def mape(ref, est) -> float:
    """Mean absolute percentage error over meaningfully populated bins.

    Only bins above 1% of the reference peak are scored.
    """
    return _mape_with_count(ref, est)[0]


def _gaussian_taps(n: int, sigma: float) -> np.ndarray:
    x = np.arange(n, dtype=np.float64) - (n - 1) / 2.0
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return g / g.sum()


def _window_mean(img: np.ndarray, taps: np.ndarray) -> np.ndarray:
    half = taps.size // 2
    out = ndimage.correlate1d(img, taps, axis=0, mode="constant")
    out = ndimage.correlate1d(out, taps, axis=1, mode="constant")
    return out[half:-half, half:-half]


def ssim(ref, est) -> float:
    """Mean structural similarity over valid (fully interior) windows."""
    a, b = _as_pair(ref, est)
    if a.ndim != 2 or min(a.shape) < _SSIM_WINDOW:
        raise ValueError(f"ssim needs 2-D inputs of at least {_SSIM_WINDOW}x{_SSIM_WINDOW}")
    taps = _gaussian_taps(_SSIM_WINDOW, _SSIM_SIGMA)
    c1 = (_SSIM_K1 * _PEAK) ** 2
    c2 = (_SSIM_K2 * _PEAK) ** 2
    mu_a = _window_mean(a, taps)
    mu_b = _window_mean(b, taps)
    var_a = _window_mean(a * a, taps) - mu_a * mu_a
    var_b = _window_mean(b * b, taps) - mu_b * mu_b
    cov = _window_mean(a * b, taps) - mu_a * mu_b
    score = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(score.mean())


def _normalized(arr: np.ndarray) -> np.ndarray:
    peak = float(arr.max()) if arr.size else 0.0
    return arr / peak if peak > 0 else arr


@dataclass(frozen=True)
class MetricsReport:
    """One scored pair. psnr is +inf exactly when mse is 0."""

    mape: float
    mse: float
    ssim: float
    psnr: float
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_pair(cls, ref, est):
        """Score est against ref after max-normalizing each."""
        a, b = _as_pair(ref, est)
        a, b = _normalized(a), _normalized(b)
        pct, n_masked = _mape_with_count(a, b)
        return cls(mape=pct, mse=mse(a, b), ssim=ssim(a, b), psnr=psnr(a, b),
                   metadata={"masked_bins": n_masked})

    def to_dict(self) -> dict:
        return asdict(self)

    def row(self) -> list[str]:
        """Formatted cell values in SCORES order."""
        return [format(getattr(self, name), spec) for name, (_, spec) in SCORES.items()]


def format_table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    """Aligned text table: first column left-justified, the rest right."""
    cells = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[c]) for row in cells) for c in range(len(headers))]
    lines = [] if not title else [title]
    for i, row in enumerate(cells):
        parts = [row[0].ljust(widths[0])]
        parts += [cell.rjust(w) for cell, w in zip(row[1:], widths[1:])]
        lines.append("  ".join(parts).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)

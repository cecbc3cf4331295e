"""Deterministic random streams and Poisson sampling.

Every stochastic component in the package draws from a Philox4x64-10
counter-based generator keyed by (seed, index, purpose). Streams for
different items are independent by construction, so work can be split
across processes and still produce bit-identical results in any order.
Draws come from numpy's own samplers (``gen.random()``, ``gen.poisson()``,
...), which are deterministic for a given Philox state within one numpy
version.

Key packing: key word 0 = seed, key word 1 = index * 256 + purpose, both
reduced mod 2**64.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "sample_poisson"]

_MASK64 = (1 << 64) - 1

# purpose codes (documented, stable)
PURPOSE_PHANTOM = 0
PURPOSE_NOISE_LOW = 1
PURPOSE_NOISE_MEDIUM = 2
PURPOSE_NOISE_HIGH = 3
PURPOSE_SPLIT = 8
PURPOSE_INIT = 9
PURPOSE_SHUFFLE = 10


def stream(seed: int, index: int = 0, purpose: int = 0) -> np.random.Generator:
    """Independent Philox stream for (seed, index, purpose)."""
    if not 0 <= purpose < 256:
        raise ValueError(f"purpose must be in [0, 256), got {purpose}")
    key = np.array(
        [seed & _MASK64, ((index << 8) | purpose) & _MASK64], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


def sample_poisson(lam: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Draw Poisson counts for an array (or scalar) of rates with gen.poisson.

    Rates must be finite and nonnegative; a rate of exactly 0 yields 0.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if (lam < 0).any() or not np.isfinite(lam).all():
        raise ValueError("Poisson rates must be finite and nonnegative")
    return gen.poisson(lam)

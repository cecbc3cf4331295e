"""Counter-based streams and the Poisson sampler.

Distribution checks compare the empirical CDF against scipy.stats.poisson,
an implementation numpy's sampler shares no code with.
"""

import numpy as np
import pytest
from scipy import stats

from sinoquad.rng import (
    PURPOSE_INIT,
    PURPOSE_NOISE_LOW,
    PURPOSE_PHANTOM,
    sample_poisson,
    stream,
)


class TestStream:
    def test_deterministic(self):
        a = stream(42, 3, PURPOSE_PHANTOM).random(8)
        b = stream(42, 3, PURPOSE_PHANTOM).random(8)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("other", [
        (43, 3, PURPOSE_PHANTOM),
        (42, 4, PURPOSE_PHANTOM),
        (42, 3, PURPOSE_NOISE_LOW),
        (42, 3, PURPOSE_INIT),
    ])
    def test_decorrelated(self, other):
        base = stream(42, 3, PURPOSE_PHANTOM).random(64)
        alt = stream(*other).random(64)
        assert not np.array_equal(base, alt)

    def test_large_index_does_not_collide_with_purpose(self):
        # index is shifted past the purpose byte, so (index=1, purpose=0)
        # and (index=0, purpose=1) must differ
        a = stream(0, 1, 0).random(16)
        b = stream(0, 0, 1).random(16)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("purpose", [-1, 256, 1000])
    def test_purpose_bounds(self, purpose):
        with pytest.raises(ValueError, match="purpose"):
            stream(0, 0, purpose)


class TestSamplePoisson:
    def test_zero_rate_yields_zero(self):
        gen = stream(7)
        out = sample_poisson(np.zeros(100), gen)
        assert (out == 0).all()

    def test_scalar_input(self):
        gen = stream(7)
        value = sample_poisson(5.0, gen)
        assert np.isscalar(value) or value.shape == ()
        assert float(value) >= 0

    def test_output_is_integral_and_nonnegative(self):
        gen = stream(11)
        out = sample_poisson(np.full(1000, 17.3), gen)
        assert (out >= 0).all()
        np.testing.assert_array_equal(out, np.round(out))

    @pytest.mark.parametrize("bad", [[-1.0], [np.nan], [np.inf]])
    def test_rejects_invalid_rates(self, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            sample_poisson(np.array(bad), stream(0))

    def test_deterministic_given_stream(self):
        a = sample_poisson(np.full(50, 4.0), stream(3, 1))
        b = sample_poisson(np.full(50, 4.0), stream(3, 1))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("lam,seed", [(3.5, 101), (50.0, 102)])
    def test_distribution_matches_reference_cdf(self, lam, seed):
        # covers both of numpy's regimes: multiplication below a rate of
        # 10, transformed rejection (PTRS) above
        n = 20000
        draws = sample_poisson(np.full(n, lam), stream(seed))
        ks = np.arange(0, int(lam + 8 * np.sqrt(lam)) + 1)
        empirical = np.searchsorted(np.sort(draws), ks, side="right") / n
        reference = stats.poisson.cdf(ks, lam)
        assert np.abs(empirical - reference).max() < 0.02

    def test_mixed_regimes_in_one_call(self):
        lam = np.array([0.0, 0.5, 3.0, 9.99, 10.0, 40.0, 500.0])
        out = sample_poisson(lam, stream(13))
        assert out.shape == lam.shape
        assert out[0] == 0

    def test_moments_large_rate(self):
        n = 40000
        lam = 120.0
        draws = sample_poisson(np.full(n, lam), stream(21))
        assert abs(draws.mean() - lam) < 4 * np.sqrt(lam / n)
        assert 0.9 < draws.var() / lam < 1.1

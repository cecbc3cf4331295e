"""Quality metrics: closed-form cases, invariants, report plumbing."""

import math

import numpy as np
import pytest

from sinoquad.metrics import MetricsReport, format_table, mape, mse, psnr, ssim

# frozen reference pair: a tabulated MSE rounded to 4 decimals and the
# dB figure quoted next to it
REFERENCE_MSE_PSNR = (0.0018, 27.51)


def checker(size=32, period=4):
    yy, xx = np.indices((size, size))
    return (((yy // period) + (xx // period)) % 2).astype(np.float64)


class TestMseAndPsnr:
    def test_identical_inputs(self):
        x = checker()
        assert mse(x, x) == 0.0
        assert psnr(x, x) == math.inf

    def test_known_values(self):
        ref = np.zeros((2, 2))
        est = np.full((2, 2), 0.5)
        assert mse(ref, est) == pytest.approx(0.25)
        assert psnr(ref, est) == pytest.approx(10 * math.log10(1 / 0.25))

    def test_psnr_20db_at_mse_0p01(self):
        ref = np.zeros((4, 4))
        est = np.full((4, 4), 0.1)
        assert psnr(ref, est) == pytest.approx(20.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            mse(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_psnr_infinite_iff_mse_zero(self):
        ref = checker()
        almost = ref.copy()
        almost[0, 0] += 1e-9
        assert math.isinf(psnr(ref, ref))
        assert not math.isinf(psnr(ref, almost))

    def test_psnr_strictly_decreasing_in_noise_amplitude(self):
        ref = checker(64)
        noise = np.random.default_rng(0).standard_normal(ref.shape)
        values = [psnr(ref, ref + sigma * noise) for sigma in (0.01, 0.02, 0.05, 0.1)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rounded_mse_interval_contains_quoted_psnr(self):
        # a 4-decimal MSE of 0.0018 only pins PSNR to the interval induced
        # by the rounding; the paired dB figure has to land inside it
        m, db = REFERENCE_MSE_PSNR
        lo = 10 * math.log10(1.0 / (m + 0.00005))
        hi = 10 * math.log10(1.0 / (m - 0.00005))
        assert lo < db < hi


class TestMape:
    def test_exact_example(self):
        assert mape(np.array([[1.0, 2.0, 4.0]]), np.array([[1.1, 1.8, 4.4]])) == pytest.approx(10.0)

    def test_identical_is_zero(self):
        x = checker() + 1.0
        assert mape(x, x) == 0.0

    def test_zero_reference_bins_masked(self):
        assert mape(np.array([[0.0, 1.0]]), np.array([[5.0, 1.0]])) == 0.0

    def test_all_masked_raises(self):
        with pytest.raises(ValueError, match="effectively zero"):
            mape(np.zeros((3, 3)), np.ones((3, 3)))

    def test_background_bins_below_one_percent_masked(self):
        # bin at 0.5% of peak is background, bin at 5% is signal
        ref = np.array([[100.0, 5.0, 0.5]])
        est = np.array([[100.0, 10.0, 50.0]])
        assert mape(ref, est) == pytest.approx(50.0)

    def test_masked_count_in_report(self):
        ref = checker(16) + 1.0
        ref[0, 0] = ref[3, 5] = 0.0
        report = MetricsReport.from_pair(ref, ref)
        assert report.metadata["masked_bins"] == 2


class TestSsim:
    def test_self_similarity_is_one(self):
        x = checker(24)
        assert ssim(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_constant_images_closed_form(self):
        a = np.full((16, 16), 0.5)
        b = np.full((16, 16), 0.6)
        expected = (2 * 0.5 * 0.6 + 1e-4) / (0.5**2 + 0.6**2 + 1e-4)
        assert ssim(a, b) == pytest.approx(expected, abs=1e-9)
        assert ssim(a, b) == pytest.approx(0.98361, abs=5e-6)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(2)
        a, b = rng.random((20, 20)), rng.random((20, 20))
        assert ssim(a, b) == pytest.approx(ssim(b, a), rel=1e-12)

    def test_invariant_under_shared_flip(self):
        rng = np.random.default_rng(3)
        a, b = rng.random((20, 20)), rng.random((20, 20))
        assert ssim(a[::-1], b[::-1]) == pytest.approx(ssim(a, b), rel=1e-12)
        assert ssim(a[:, ::-1], b[:, ::-1]) == pytest.approx(ssim(a, b), rel=1e-12)

    def test_at_most_one(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a, b = rng.random((16, 16)), rng.random((16, 16))
            assert ssim(a, b) <= 1.0

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="11"):
            ssim(np.zeros((10, 12)), np.zeros((10, 12)))

    def test_memory_layout_irrelevant(self):
        rng = np.random.default_rng(5)
        a, b = rng.random((18, 18)), rng.random((18, 18))
        assert ssim(np.asfortranarray(a), np.asfortranarray(b)) == ssim(a, b)
        assert mse(np.asfortranarray(a), np.asfortranarray(b)) == mse(a, b)


class TestMetricsReport:
    def test_from_pair_normalizes_each_input(self):
        ref = checker() + 1.0
        report = MetricsReport.from_pair(ref * 2.0, ref * 7.0)
        assert report.mse == pytest.approx(0.0)
        assert report.ssim == pytest.approx(1.0, abs=1e-12)
        assert math.isinf(report.psnr)

    def test_to_dict_round_trip_fields(self):
        ref = checker() + 1.0
        est = ref + 0.05
        d = MetricsReport.from_pair(ref, est).to_dict()
        assert set(d) == {"mape", "mse", "ssim", "psnr", "metadata"}
        assert d["metadata"] == {"masked_bins": 0}

    def test_row_formatting(self):
        report = MetricsReport(mape=2.639, mse=0.00058, ssim=0.9771, psnr=32.514)
        assert report.row() == ["2.64", "0.0006", "0.977", "32.51"]

    def test_row_formats_infinite_psnr(self):
        report = MetricsReport(mape=0.0, mse=0.0, ssim=1.0, psnr=math.inf)
        assert report.row()[-1] == "inf"


class TestFormatTable:
    def test_alignment(self):
        text = format_table(
            ["Noise", "MAPE (%)", "MSE"],
            [["low", "2.64", "0.0006"], ["medium", "4.13", "0.0009"]],
            title="Denoising",
        )
        lines = text.splitlines()
        assert lines[0] == "Denoising"
        assert lines[1].startswith("Noise")
        assert set(lines[2]) <= {"-", " "}
        assert lines[3].startswith("low")
        # numeric columns right-aligned under their headers
        assert lines[3].rstrip().endswith("0.0006")

"""Iterative reconstruction: fixed points, monotonicity, subset plumbing.

The 50-iteration single-subset run on the head phantom is shared by
several properties (likelihood climb, residual decay, count matching),
so it runs once as a module fixture.
"""

import numpy as np
import pytest

from oracles import osem_full_grid, osem_loop, stacked_operator, stored_matrix
from sinoquad.geometry import Image, Sinogram, fov_mask
from sinoquad.metrics import ssim
from sinoquad.osem import ReconConfig, log_likelihood, mlem, osem
from sinoquad.projector import get_projector, project
from sinoquad.simulate import apply_poisson, shepp_logan


@pytest.fixture(scope="module")
def head_sino_128():
    return project(shepp_logan(128), n_angles=128)


@pytest.fixture(scope="module")
def mlem_trace(head_sino_128):
    """50 plain-EM iterations; returns (per-iteration images, sinogram)."""
    frames = []
    mlem(head_sino_128, n_iterations=50, callback=lambda it, img: frames.append(img))
    return frames, head_sino_128


class TestConfig:
    def test_defaults(self):
        cfg = ReconConfig()
        assert (cfg.n_subsets, cfg.n_iterations, cfg.image_size) == (4, 20, 128)

    @pytest.mark.parametrize("kwargs,hint", [
        ({"n_subsets": 0}, "n_subsets"),
        ({"n_iterations": 0}, "n_iterations"),
        ({"image_size": 8}, "image_size"),
    ])
    def test_rejects_bad_fields(self, kwargs, hint):
        with pytest.raises(ValueError, match=hint):
            ReconConfig(**kwargs)


class TestBasics:
    def test_zero_sinogram_gives_zero_image(self):
        sino = Sinogram(np.zeros((32, 64), dtype=np.float32))
        img = osem(sino, ReconConfig(n_subsets=4, n_iterations=1, image_size=64))
        assert (img.data == 0).all()

    def test_negative_entries_rejected(self):
        sino = Sinogram(np.ones((4, 64), dtype=np.float32))
        sino.data[1, 3] = -0.5
        with pytest.raises(ValueError, match="negative"):
            osem(sino, ReconConfig(n_subsets=1, n_iterations=1, image_size=64))

    def test_subset_count_must_divide_views(self):
        sino = Sinogram(np.ones((10, 64), dtype=np.float32))
        with pytest.raises(ValueError, match="divide"):
            osem(sino, ReconConfig(n_subsets=4, n_iterations=1, image_size=64))

    def test_outside_fov_stays_zero(self):
        phantom = shepp_logan(64)
        sino = project(phantom, n_angles=32)
        img = osem(sino, ReconConfig(n_subsets=4, n_iterations=3, image_size=64))
        assert (img.data[~fov_mask(64, 64)] == 0).all()

    def test_nonnegative_and_float32(self):
        sino = project(shepp_logan(64), n_angles=32)
        img = osem(sino, ReconConfig(n_subsets=4, n_iterations=2, image_size=64))
        assert img.data.dtype == np.float32
        assert (img.data >= 0).all()

    def test_deterministic(self):
        sino = project(shepp_logan(64), n_angles=32)
        cfg = ReconConfig(n_subsets=4, n_iterations=3, image_size=64)
        np.testing.assert_array_equal(osem(sino, cfg).data, osem(sino, cfg).data)


class TestHotPixel:
    def test_recovers_point_source_location(self):
        data = np.zeros((128, 128), dtype=np.float32)
        data[40, 70] = 1.0
        sino = project(Image(data), n_angles=128)
        img = osem(sino, ReconConfig(n_subsets=4, n_iterations=20, image_size=128))
        assert np.unravel_index(np.argmax(img.data), img.data.shape) == (40, 70)


class TestMlem:
    def test_equals_single_subset_osem(self):
        sino = project(shepp_logan(64), n_angles=32)
        a = mlem(sino, n_iterations=5, image_size=64)
        b = osem(sino, ReconConfig(n_subsets=1, n_iterations=5, image_size=64))
        np.testing.assert_array_equal(a.data, b.data)

    def test_log_likelihood_never_decreases(self, mlem_trace):
        frames, sino = mlem_trace
        values = [log_likelihood(sino, Image(np.maximum(f, 0.0))) for f in frames]
        assert all(b >= a - 1e-9 * abs(a) for a, b in zip(values, values[1:]))

    def test_data_residual_decays(self, mlem_trace):
        frames, sino = mlem_trace
        proj = get_projector(128, 128, sino.n_angles, n_bins=sino.n_bins)
        y = np.asarray(sino.data, dtype=np.float64)
        res = [np.abs(proj.forward(f) - y).sum() / y.sum() for f in frames]
        assert all(b <= a + 1e-12 for a, b in zip(res, res[1:]))
        assert res[-1] < res[0] / 10

    def test_counts_match_after_50_iterations(self, mlem_trace):
        frames, sino = mlem_trace
        proj = get_projector(128, 128, sino.n_angles, n_bins=sino.n_bins)
        total_fp = proj.forward(frames[-1]).sum()
        total_y = float(np.asarray(sino.data, dtype=np.float64).sum())
        assert abs(total_fp - total_y) / total_y <= 0.01

    def test_every_iterate_nonnegative(self, mlem_trace):
        frames, _ = mlem_trace
        assert all((f >= 0).all() for f in frames)


class TestViewCountQuality:
    def test_more_views_reconstruct_better(self):
        phantom = shepp_logan(128)
        cfg = ReconConfig(n_subsets=4, n_iterations=20, image_size=128)
        rec_many = osem(project(phantom, n_angles=128), cfg)
        rec_few = osem(project(phantom, n_angles=32), cfg)
        score_many = ssim(phantom.data, rec_many.data)
        score_few = ssim(phantom.data, rec_few.data)
        assert score_many > score_few


class TestPhysicalUnits:
    def test_pixel_size_does_not_change_the_reconstruction(self):
        # the data scale with the pixel size; OSEM must undo exactly that
        cfg = ReconConfig(n_subsets=4, n_iterations=10, image_size=64)
        scores = {}
        for pixel_size in (1.0, 0.5, 2.0):
            phantom = Image(shepp_logan(64).data, pixel_size=pixel_size)
            rec = osem(project(phantom, n_angles=64), cfg)
            assert rec.pixel_size == pixel_size
            scores[pixel_size] = ssim(phantom.data, rec.data)
        assert scores[1.0] > 0.9
        assert abs(scores[0.5] - scores[1.0]) <= 0.005
        assert abs(scores[2.0] - scores[1.0]) <= 0.005

    def test_log_likelihood_is_in_data_units(self):
        # the true image's forward model is the data itself: sum(y ln y - y)
        phantom = Image(shepp_logan(64).data, pixel_size=2.0)
        sino = project(phantom, n_angles=16)
        y = np.asarray(sino.data, dtype=np.float64)
        pos = y > 0
        expected = float((y[pos] * np.log(y[pos])).sum() - y.sum())
        assert log_likelihood(sino, phantom) == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("counts,expected", [(0.0, 0.0), (50.0, float("-inf"))])
    def test_log_likelihood_of_an_empty_image(self, counts, expected):
        # a bin the image projects nothing into adds 0 without counts, -inf with them
        sino = Sinogram(np.full((16, 16), counts, dtype=np.float32))
        assert log_likelihood(sino, Image(np.zeros((16, 16), dtype=np.float32))) == expected

    @pytest.mark.parametrize("bin_width,hint", [(3.6e-304, "float32"), (1e-310, "float64")])
    def test_tiny_bin_width_is_refused(self, bin_width, hint):
        # pixel-unit data past float64, or an image past float32, is a data error
        sino = Sinogram(np.full((16, 16), 50.0, dtype=np.float32), bin_width=bin_width)
        with pytest.raises(ValueError, match=f"bin_width {bin_width}.*{hint}"):
            osem(sino, ReconConfig(n_iterations=1, image_size=16))

    @pytest.mark.parametrize("pixel_size", [0.5, 2.0])
    def test_log_likelihood_rejects_a_pixel_size_unlike_the_bin_width(self, pixel_size):
        sino = project(shepp_logan(64), n_angles=16)
        image = Image(shepp_logan(64).data, pixel_size=pixel_size)
        with pytest.raises(ValueError, match=f"pixel_size {pixel_size}.*bin_width 1.0"):
            log_likelihood(sino, image)


class TestHalfTurnFold:
    @pytest.mark.parametrize("n_views,n_subsets,size", [
        (128, 4, 64),  # every subset holds both views of each opposite pair
        (8, 8, 32),  # one view per subset: opposite views in different subsets
        (16, 16, 32),
    ])
    def test_matches_osem_on_the_stacked_operator(self, n_views, n_subsets, size):
        # noisy data, so opposite views carry different counts
        sino = apply_poisson(project(shepp_logan(size), n_angles=n_views), "low", seed=4)
        frames = []
        cfg = ReconConfig(n_subsets=n_subsets, n_iterations=5, image_size=size)
        osem(sino, cfg, callback=lambda it, img: frames.append(img))

        proj = get_projector(size, size, n_views)
        assert stored_matrix(proj).shape[0] == n_views // 2 * 2 * size
        y = np.asarray(sino.data, dtype=np.float64).ravel()
        ref = osem_loop(stacked_operator(proj), y, size, n_subsets, 5,
                        fov_mask(size, size).astype(np.float64).ravel())
        assert np.abs(frames[-1].ravel() - ref).max() <= 1e-9 * ref.max()


def bits(a):
    """The raw bits of a float array, so that -0.0 and 0.0 compare as different."""
    return a.view(f"u{a.itemsize}")


class TestFieldOfViewIterate:
    @pytest.mark.parametrize("n_views,n_subsets,size,angles", [
        pytest.param(128, 4, 64, (0.0, 360.0), id="folded-128"),
        pytest.param(9, 3, 32, (0.0, 360.0), id="unfolded-9"),
        pytest.param(16, 4, 32, (15.0, 180.0), id="half-turn-16"),
        pytest.param(32, 1, 64, (0.0, 360.0), id="mlem-32"),
    ])
    def test_bits_match_the_full_grid_loop(self, n_views, n_subsets, size, angles):
        phantom = Image(shepp_logan(size).data, pixel_size=1.5)
        sino = apply_poisson(project(phantom, n_views, *angles), "low", seed=9)
        frames, ref_frames = [], []
        if n_subsets == 1:
            out = mlem(sino, n_iterations=4, image_size=size,
                       callback=lambda it, img: frames.append(img))
        else:
            cfg = ReconConfig(n_subsets=n_subsets, n_iterations=4, image_size=size)
            out = osem(sino, cfg, callback=lambda it, img: frames.append(img))
        ref = osem_full_grid(sino, n_subsets, 4, size,
                             callback=lambda it, img: ref_frames.append(img))
        assert out.data.dtype == ref.dtype
        np.testing.assert_array_equal(bits(out.data), bits(ref))
        assert len(frames) == len(ref_frames) == 4
        for frame, ref_frame in zip(frames, ref_frames):
            assert frame.dtype == ref_frame.dtype and frame.shape == ref_frame.shape
            np.testing.assert_array_equal(bits(frame), bits(ref_frame))

    def test_subset_operators_share_the_stored_rows(self):
        # every interleaved subset of a power-of-two subset count reads one
        # run of stored views, so each call's operators are row ranges of
        # the stored block, built anew and holding no copy of it
        size, n_views = 40, 16
        proj = get_projector(size, size, n_views)
        stored = proj._fov
        for n_subsets in (1, 2, 4, 8, 16):
            starts = []
            for k in range(n_subsets):
                a, a_t = proj.subset_operators(np.arange(k, n_views, n_subsets))
                rows = a.factors[1]
                for m in (rows, a_t.factors[0]):
                    assert np.shares_memory(m.data, stored.data)
                    assert np.shares_memory(m.indices, stored.indices)
                starts.append(rows.data.__array_interface__["data"][0])
                assert rows.shape[0] * min(n_subsets, 8) == stored.shape[0]
            # 8 stored views: views k and k + 8 read the same one
            assert len(set(starts)) == min(n_subsets, 8)

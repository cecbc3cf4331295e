"""Forward projector accuracy, geometry, and adjoint contracts."""

import numpy as np
import pytest
import scipy.sparse as sp

import sinoquad.projector as projector_mod
from oracles import balance_columns_loop, brute_force_view, disk_image, disk_profile
from sinoquad.geometry import GeometryError, Image, fov_mask, fov_radius
from sinoquad.projector import ParallelProjector, get_projector, project, view_angles_deg
from sinoquad.simulate import PhantomRecipe, generate_phantom, shepp_logan


class TestViewAngles:
    def test_values_endpoint_excluded(self):
        got = view_angles_deg(4, 0.0, 360.0)
        np.testing.assert_array_equal(got, [0.0, 90.0, 180.0, 270.0])

    def test_nested_sets_are_float_exact(self):
        fine = view_angles_deg(128)
        coarse = view_angles_deg(32)
        assert (fine[::4] == coarse).all()

    def test_start_offset(self):
        got = view_angles_deg(2, 15.0, 180.0)
        np.testing.assert_allclose(got, [15.0, 105.0])

    def test_bad_count(self):
        with pytest.raises(ValueError, match="n_angles"):
            view_angles_deg(0)

    @pytest.mark.parametrize("args,field", [
        ((4, np.nan), "start_angle_deg"),
        ((4, np.inf), "start_angle_deg"),
        ((4, 0.0, np.nan), "angular_range_deg"),
        ((4, 0.0, np.inf), "angular_range_deg"),
        ((4, 0.0, -90.0), "angular_range_deg"),
        ((4, 0.0, 0.0), "angular_range_deg"),
    ])
    def test_bad_geometry(self, args, field):
        with pytest.raises(GeometryError, match=field):
            view_angles_deg(*args)


class TestLineIntegralAccuracy:
    @pytest.mark.parametrize("theta", [0.0, 30.9375, 45.0, 61.875, 135.0])
    def test_disk_matches_brute_force(self, theta):
        disk = disk_image(128, 32.0)
        proj = get_projector(128, 128, 1, start_angle_deg=theta)
        mine = proj.forward(disk)[0]
        ref = brute_force_view(disk, theta, 128)
        assert np.abs(mine - ref).max() <= 0.01 * ref.max()

    @pytest.mark.parametrize("theta", [0.0, 45.0, 87.1875, 160.3125])
    def test_shepp_logan_matches_brute_force(self, theta):
        img = shepp_logan(128).data.astype(np.float64)
        proj = get_projector(128, 128, 1, start_angle_deg=theta)
        mine = proj.forward(img)[0]
        ref = brute_force_view(img, theta, 128)
        assert np.abs(mine - ref).max() <= 0.01 * ref.max()

    def test_disk_central_bins_and_profile(self):
        disk = disk_image(128, 32.0)
        row = get_projector(128, 128, 1).forward(disk)[0]
        assert row[63] == pytest.approx(64.0, rel=0.01)
        assert row[64] == pytest.approx(64.0, rel=0.01)
        s = np.arange(128) - 63.5
        ref = disk_profile(32.0, s)
        core = np.abs(s) <= 0.9 * 32.0  # the rim itself is resolution-limited
        assert np.abs(row[core] - ref[core]).max() <= 0.01 * ref.max()

    def test_zero_image_projects_to_zero(self):
        sino = project(Image(np.zeros((64, 64), dtype=np.float32)), 16)
        assert sino.data.shape == (16, 64)
        assert not sino.data.any()

    def test_linearity(self):
        rng = np.random.default_rng(7)
        x = rng.random((64, 64))
        y = rng.random((64, 64))
        proj = get_projector(64, 64, 12)
        lhs = proj.forward(2.5 * x - 0.5 * y)
        rhs = 2.5 * proj.forward(x) - 0.5 * proj.forward(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestMassConservation:
    @pytest.mark.parametrize("size,pixel", [(129, (64, 64)), (128, (63, 63)), (128, (64, 64))])
    def test_near_centre_pixel_row_sums(self, size, pixel):
        img = np.zeros((size, size))
        img[pixel] = 1.0
        rows = get_projector(size, size, 16).forward(img).sum(axis=1)
        assert np.abs(rows - 1.0).max() <= 1e-3

    def test_random_phantom_per_view_mass(self):
        proj = get_projector(128, 128, 32)
        for seed in range(25):
            ph = generate_phantom(PhantomRecipe(seed=seed)).data.astype(np.float64)
            rows = proj.forward(ph).sum(axis=1)
            assert np.abs(rows - ph.sum()).max() <= 0.005 * ph.sum()

    @pytest.mark.parametrize("theta,size,n_bins", [
        (0.0, 32, 32), (30.9375, 32, 32), (45.0, 24, 40), (200.0, 16, 12),
    ])
    def test_balance_matches_tap_loop(self, monkeypatch, theta, size, n_bins):
        calls = []
        real = projector_mod._balance_columns
        monkeypatch.setattr(projector_mod, "_balance_columns",
                            lambda *args: calls.append(args) or real(*args))
        got = projector_mod._view_matrix(theta, size, size, n_bins)
        (args,) = calls
        ref = balance_columns_loop(*args, fov_radius=fov_radius(size))
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, attr), getattr(ref, attr))

    def test_every_covered_pixel_is_balanced(self):
        # column sums inside the field of view are pinned to 1
        proj = get_projector(128, 128, 32)
        sens = proj.adjoint(np.ones((32, 128)))
        inside = fov_mask(128, 128, fov_radius(128))
        np.testing.assert_allclose(sens[inside], 32.0, rtol=1e-12)


class TestGeometry:
    def test_opposite_views_reverse(self):
        img = shepp_logan(128).data.astype(np.float64)
        sino = get_projector(128, 128, 128).forward(img)
        np.testing.assert_allclose(sino[64], sino[0][::-1], atol=1e-9)

    def test_rotation_consistency_smooth_image(self):
        # spline-rotate a smooth blob image; its sinogram must shift by views
        from scipy.ndimage import rotate

        n = 128
        yy, xx = np.mgrid[0:n, 0:n]
        img = np.zeros((n, n))
        for cy, cx, sig, amp in ((50, 40, 6, 1.0), (80, 75, 10, 0.7), (75, 45, 8, 0.9)):
            img += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * sig**2))
        img *= fov_mask(n, n, fov_radius(n))
        proj = get_projector(n, n, 128)
        base = proj.forward(img)
        turned = np.clip(rotate(img, 11.25, reshape=False, order=3), 0.0, None)
        assert np.abs(proj.forward(turned) - np.roll(base, -4, axis=0)).max() <= 0.01 * base.max()

    def test_coarse_views_are_rows_of_fine(self):
        img = shepp_logan(128)
        fine = project(img, 128)
        coarse = project(img, 32)
        np.testing.assert_array_equal(fine.data[::4], coarse.data)

    def test_project_metadata(self):
        sino = project(shepp_logan(64), 8)
        assert sino.data.dtype == np.float32
        assert (sino.data >= 0).all()
        assert sino.start_angle_deg == 0.0
        assert sino.angular_range_deg == 360.0
        assert sino.bin_width == 1.0
        np.testing.assert_allclose(sino.angles_deg(), np.arange(8) * 45.0)


class TestAdjointAndSubsets:
    def test_adjoint_dot_products(self):
        proj = get_projector(64, 64, 16)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal((64, 64))
            y = rng.standard_normal((16, 64))
            lhs = float((proj.forward(x) * y).sum())
            rhs = float((x * proj.adjoint(y)).sum())
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
        np.testing.assert_array_equal(
            proj.adjoint(y), (proj.matrix.T @ y.ravel()).reshape(64, 64)
        )

    def test_stores_only_the_forward_matrix(self):
        proj = ParallelProjector(32, 32, 4)
        assert [name for name, v in vars(proj).items() if sp.issparse(v)] == ["matrix"]
        assert set(vars(proj)) == {"height", "width", "n_bins", "n_angles", "matrix"}

    def test_subset_rows_match_full_matrix(self):
        proj = get_projector(64, 64, 16)
        idx = [1, 5, 9, 13]
        a_sub, a_sub_t = proj.subset_operators(idx)
        img = np.random.default_rng(11).random((64, 64))
        full = proj.forward(img)
        np.testing.assert_array_equal((a_sub @ img.ravel()).reshape(4, 64), full[idx])
        assert (a_sub_t != a_sub.T).nnz == 0
        assert np.shares_memory(a_sub_t.data, a_sub.data)  # a view, not a copy
        # the view's matvec sums in the same order as a transposed copy's
        r = np.random.default_rng(12).random(4 * 64)
        np.testing.assert_array_equal(a_sub_t @ r, a_sub.T.tocsr() @ r)

    def test_view_rows_bounds(self):
        proj = get_projector(64, 64, 16)
        with pytest.raises(ValueError, match="out of range"):
            proj.view_rows([16])

    @pytest.mark.parametrize(
        "shape,n_angles,bad",
        [((64, 64), 8, (63, 64)), ((64, 64), 8, (64, 63))],
    )
    def test_forward_shape_check(self, shape, n_angles, bad):
        proj = get_projector(*shape, n_angles)
        with pytest.raises(ValueError, match="shape"):
            proj.forward(np.zeros(bad))

    def test_adjoint_shape_check(self):
        proj = get_projector(64, 64, 8)
        with pytest.raises(ValueError, match="shape"):
            proj.adjoint(np.zeros((7, 64)))


class TestCachingAndDeterminism:
    def test_get_projector_caches(self):
        assert get_projector(64, 64, 16) is get_projector(64, 64, 16)

    def test_rebuild_is_bit_identical(self):
        a = ParallelProjector(64, 64, 9)
        b = ParallelProjector(64, 64, 9)
        assert (a.matrix != b.matrix).nnz == 0
        np.testing.assert_array_equal(a.matrix.data, b.matrix.data)

    def test_matrix_entries_nonnegative(self):
        assert ParallelProjector(64, 64, 9).matrix.min() >= 0.0

"""Forward projector accuracy, geometry, and adjoint contracts."""

import numpy as np
import pytest
import scipy.sparse as sp

import sinoquad.projector as projector_mod
from oracles import (
    balance_columns_loop,
    brute_force_view,
    disk_image,
    disk_profile,
    effective_view,
    forward_by_views,
    stacked_operator,
)
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
        (0.0, 128, 128), (45.0, 128, 128),
    ])
    def test_balance_matches_tap_loop(self, monkeypatch, theta, size, n_bins):
        calls = []
        real = projector_mod._balance_columns
        monkeypatch.setattr(projector_mod, "_balance_columns",
                            lambda *args: calls.append(args) or real(*args))
        got = effective_view(projector_mod._view_matrix(theta, size, size, n_bins), n_bins)
        (args,) = calls
        ref = balance_columns_loop(*args, fov_radius=fov_radius(size))
        # every entry bit for bit; the loop also keeps bilinear weights that
        # are exactly 0 as stored entries in a view with no top-up
        np.testing.assert_array_equal(got.toarray(), ref.toarray())

    def test_every_covered_pixel_is_balanced(self):
        # column sums inside the field of view are pinned to 1
        proj = get_projector(128, 128, 32)
        sens = proj.adjoint(np.ones((32, 128)))
        inside = fov_mask(128, 128)
        np.testing.assert_allclose(sens[inside], 32.0, rtol=1e-12)


class TestGeometry:
    def test_opposite_views_reverse(self):
        img = shepp_logan(128).data.astype(np.float64)
        sino = get_projector(128, 128, 128).forward(img)
        np.testing.assert_array_equal(sino[64:], sino[:64, ::-1])

    @pytest.mark.parametrize("size,n_angles,start", [(128, 32, 0.0), (64, 16, 15.0)])
    def test_folded_views_are_exact_reversals(self, size, n_angles, start):
        proj = get_projector(size, size, n_angles, start_angle_deg=start)
        assert proj.matrix.shape[0] == n_angles // 2 * 2 * size  # only the first half-turn
        img = np.random.default_rng(5).random((size, size))
        sino = proj.forward(img)
        np.testing.assert_array_equal(sino[n_angles // 2:], sino[: n_angles // 2, ::-1])

    @pytest.mark.parametrize("args", [(64, 64, 9), (64, 64, 16, 15.0, 180.0), (32, 32, 3, 7.0),
                                      (32, 32, 1)])
    def test_other_geometries_store_every_view(self, args):
        proj = get_projector(*args)
        assert proj.matrix.shape[0] == proj.n_angles * 2 * proj.n_bins

    @pytest.mark.parametrize("theta", [225.0, 315.0])
    def test_folded_diagonal_views_match_brute_force(self, theta):
        # these views are the reversed 45 and 135 degree blocks, whose
        # balancing window rounds exact ties differently from their own
        proj = get_projector(128, 128, 128)
        view = int(theta / 360.0 * 128)
        for img in (disk_image(128, 32.0), shepp_logan(128).data.astype(np.float64)):
            mine = proj.forward(img)[view]
            ref = brute_force_view(img, theta, 128)
            assert np.abs(mine - ref).max() <= 0.01 * ref.max()

    def test_rotation_consistency_smooth_image(self):
        # spline-rotate a smooth blob image; its sinogram must shift by views
        from scipy.ndimage import rotate

        n = 128
        yy, xx = np.mgrid[0:n, 0:n]
        img = np.zeros((n, n))
        for cy, cx, sig, amp in ((50, 40, 6, 1.0), (80, 75, 10, 0.7), (75, 45, 8, 0.9)):
            img += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * sig**2))
        img *= fov_mask(n, n)
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


class TestStoredLayout:
    @pytest.mark.parametrize("n_angles,max_nnz", [(128, 3_500_000), (32, 820_000)])
    def test_nonzero_budget(self, n_angles, max_nnz):
        matrix = get_projector(128, 128, n_angles).matrix
        assert matrix.nnz <= max_nnz
        assert matrix.data.min() >= 0.0

    @pytest.mark.parametrize("args", [(128, 128, 32), (32, 32, 3, 7.0, 360.0, 20)])
    def test_deficit_is_stored_once_per_pixel(self, args):
        # a pixel keeps its deficit at its centre bin or as clipped top-up
        # taps in the core rows, never both: both would sum to 1 + deficit
        proj = get_projector(*args)
        n, half = proj.n_bins, projector_mod._BALANCE_ORDER // 2
        for v in range(proj.matrix.shape[0] // (2 * n)):
            core = proj.matrix[2 * n * v : 2 * n * v + n]
            centre = proj.matrix[2 * n * v + n : 2 * n * (v + 1)].tocsc()
            cols = np.flatnonzero(np.diff(centre.indptr))
            assert (np.diff(centre.indptr)[cols] == 1).all()  # one deficit per pixel
            bins = centre.indices[centre.indptr[cols]]
            assert ((bins >= half) & (bins < n - half)).all()  # its window is on the detector
            total = np.asarray(core.sum(axis=0)).ravel()[cols] + centre.data[centre.indptr[cols]]
            np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)


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
        # bit for bit against the same sums, taken one view and one tap at a time
        np.testing.assert_array_equal(proj.forward(x), forward_by_views(proj, x))
        full = stacked_operator(proj)
        # the explicit operator sums each bin in another order
        np.testing.assert_allclose(proj.forward(x).ravel(), full @ x.ravel(), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            proj.adjoint(y), (full.T @ y.ravel()).reshape(64, 64), rtol=1e-12, atol=1e-12
        )

    def test_stores_only_the_forward_matrix(self):
        proj = ParallelProjector(32, 32, 4)
        assert [name for name, v in vars(proj).items() if sp.issparse(v)] == ["matrix"]
        assert set(vars(proj)) == {"height", "width", "n_bins", "n_angles", "matrix"}

    def test_subset_rows_match_full_matrix(self):
        proj = get_projector(64, 64, 16)
        full = stacked_operator(proj)
        idx = [1, 5, 9, 13]
        rows = np.random.default_rng(13).random((4, 64))
        stored, folded, reads = proj.fold(idx, rows)
        np.testing.assert_array_equal(stored, [1, 5])
        np.testing.assert_array_equal(reads, [2, 2])
        a_sub, a_sub_t = proj.subset_operators(stored)
        img = np.random.default_rng(11).random((64, 64))
        np.testing.assert_array_equal(
            proj.views_from_rows(a_sub @ img.ravel()), proj.forward(img)[stored]
        )
        # the folded data back-project as the stacked operator's rows of every view
        full_sub = full[(np.array(idx)[:, None] * 64 + np.arange(64)).ravel()]
        np.testing.assert_allclose(
            a_sub_t @ proj.rows_from_views(folded), full_sub.T @ rows.ravel(), rtol=1e-12
        )
        assert (a_sub_t != a_sub.T).nnz == 0
        assert np.shares_memory(a_sub_t.data, a_sub.data)  # a view, not a copy
        # the view's matvec sums in the same order as a transposed copy's
        r = np.random.default_rng(12).random(2 * 2 * 64)
        np.testing.assert_array_equal(a_sub_t @ r, a_sub.T.tocsr() @ r)

    def test_fold_leaves_unfolded_views_alone(self):
        proj = get_projector(64, 64, 9)
        rows = np.random.default_rng(14).random((3, 64))
        stored, folded, reads = proj.fold([2, 5, 8], rows)
        np.testing.assert_array_equal(stored, [2, 5, 8])
        np.testing.assert_array_equal(folded, rows)
        np.testing.assert_array_equal(reads, [1, 1, 1])

    def test_subset_operators_bounds(self):
        proj = get_projector(64, 64, 16)
        with pytest.raises(ValueError, match="out of range"):
            proj.subset_operators([8])  # view 8 is stored as view 0, reversed
        with pytest.raises(ValueError, match="out of range"):
            proj.fold([16], np.zeros((1, 64)))

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

"""Forward projector accuracy, geometry, and adjoint contracts."""

import gc
import tracemalloc
import weakref
from collections import OrderedDict

import numpy as np
import pytest
import scipy.sparse as sp

import sinoquad.projector as projector_mod
from oracles import (
    balance_columns_loop,
    bilinear_ray_matrix,
    bit_reversed,
    brute_force_view,
    disk_image,
    disk_profile,
    effective_view,
    forward_by_views,
    stacked_operator,
    stored_matrix,
    view_matrix_single_pass,
)
from sinoquad.geometry import GeometryError, Image, fov_mask, fov_radius
from sinoquad.osem import ReconConfig, osem
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

    @pytest.mark.parametrize("args,kwargs,message", [
        ((0, 16, 4), {}, r"image shape \(0, 16\)"),
        ((16, 16, 4), {"n_bins": 0}, "n_bins 0"),
        ((16, 16, 4), {"n_bins": -3}, "n_bins -3"),
    ])
    def test_bad_projector_geometry(self, args, kwargs, message):
        with pytest.raises(ValueError, match=message):
            get_projector(*args, **kwargs)


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


def raw_views(monkeypatch, *args):
    """The raw sampling matrix of each stored view, as `_balance_columns` receives it."""
    calls = []
    real = projector_mod._balance_columns
    monkeypatch.setattr(projector_mod, "_balance_columns",
                        lambda *a: calls.append(a[0]) or real(*a))
    ParallelProjector(*args)
    return calls


class TestRaySampling:
    """The sort-free per-view build against the sorting COO-to-CSR oracle.

    The build keeps no zero-weight entry, so the oracle's explicit zeros are
    eliminated first; then the same pattern, and each entry's sum of taps
    equal up to the order the duplicates are added in.
    """

    @staticmethod
    def assert_same_sampling(got, ref):
        ref = ref.copy()
        ref.eliminate_zeros()
        np.testing.assert_array_equal(got.indptr, ref.indptr)
        np.testing.assert_array_equal(got.indices, ref.indices)
        np.testing.assert_allclose(got.data, ref.data, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("theta", [0.0, 30.9375, 45.0, 90.0, 135.0])
    @pytest.mark.parametrize("size,n_bins", [(128, 128), (24, 40), (16, 12)])
    def test_view_matches_oracle(self, monkeypatch, theta, size, n_bins):
        (got,) = raw_views(monkeypatch, size, size, 1, theta, 360.0, n_bins)
        ref = bilinear_ray_matrix(theta, size, size, n_bins, projector_mod.SAMPLE_STEP)
        self.assert_same_sampling(got, ref)

    @pytest.mark.parametrize("n_angles,start,span,n_bins", [(1, 7.0, 360.0, 24),
                                                            (6, 15.0, 180.0, 20)])
    def test_geometry_matches_oracle(self, monkeypatch, n_angles, start, span, n_bins):
        views = raw_views(monkeypatch, 24, 24, n_angles, start, span, n_bins)
        thetas = view_angles_deg(n_angles, start, span)
        assert len(views) == len(thetas) == n_angles  # neither geometry folds
        for got, theta in zip(views, thetas):
            ref = bilinear_ray_matrix(theta, 24, 24, n_bins, projector_mod.SAMPLE_STEP)
            self.assert_same_sampling(got, ref)


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
        assert stored_matrix(proj).shape[0] == n_angles // 2 * 2 * size  # only the first half-turn
        img = np.random.default_rng(5).random((size, size))
        sino = proj.forward(img)
        np.testing.assert_array_equal(sino[n_angles // 2:], sino[: n_angles // 2, ::-1])

    @pytest.mark.parametrize("args", [(64, 64, 9), (64, 64, 16, 15.0, 180.0), (32, 32, 3, 7.0),
                                      (32, 32, 1)])
    def test_other_geometries_store_every_view(self, args):
        proj = get_projector(*args)
        assert stored_matrix(proj).shape[0] == proj.n_angles * 2 * proj.n_bins

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

    def test_coarse_matrix_is_rows_of_fine(self, monkeypatch):
        # each view is built from its angle alone, so a nested view set
        # stores the very same rows, bit for bit: built alone, the 16-view
        # projector's rows are the 64-view one's stored views 0, 4, ..., 28,
        # and in storage order they are its first 8 stored views
        monkeypatch.setattr(projector_mod, "_cache", OrderedDict())
        fine = ParallelProjector(64, 64, 64)
        coarse = ParallelProjector(64, 64, 16)
        per_view = 2 * 64
        rows = (np.arange(0, 32, 4)[:, None] * per_view + np.arange(per_view)).ravel()
        picked, alone = stored_matrix(fine)[rows], stored_matrix(coarse)
        np.testing.assert_array_equal(picked.indptr, alone.indptr)
        np.testing.assert_array_equal(picked.indices, alone.indices)
        np.testing.assert_array_equal(picked.data, alone.data)
        for f, c in ((fine._fov, coarse._fov), (fine._rest, coarse._rest)):
            prefix = f[: 8 * per_view]
            np.testing.assert_array_equal(prefix.indptr, c.indptr)
            np.testing.assert_array_equal(prefix.indices, c.indices)
            np.testing.assert_array_equal(prefix.data, c.data)

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
        np.testing.assert_allclose(
            view_angles_deg(8, sino.start_angle_deg, sino.angular_range_deg), np.arange(8) * 45.0
        )


class TestStoredLayout:
    @pytest.mark.parametrize("n_angles,max_nnz", [(128, 3_500_000), (32, 820_000)])
    def test_nonzero_budget(self, n_angles, max_nnz):
        matrix = stored_matrix(get_projector(128, 128, n_angles))
        assert matrix.nnz <= max_nnz
        assert matrix.data.min() >= 0.0

    @pytest.mark.parametrize("args", [(128, 128, 32), (32, 32, 3, 7.0, 360.0, 20)])
    def test_deficit_is_stored_once_per_pixel(self, args):
        # a pixel keeps its deficit at its centre bin or as clipped top-up
        # taps in the core rows, never both: both would sum to 1 + deficit
        proj = get_projector(*args)
        n, half = proj.n_bins, projector_mod._BALANCE_ORDER // 2
        matrix = stored_matrix(proj)
        for v in range(matrix.shape[0] // (2 * n)):
            core = matrix[2 * n * v : 2 * n * v + n]
            centre = matrix[2 * n * v + n : 2 * n * (v + 1)].tocsc()
            cols = np.flatnonzero(np.diff(centre.indptr))
            assert (np.diff(centre.indptr)[cols] == 1).all()  # one deficit per pixel
            bins = centre.indices[centre.indptr[cols]]
            assert ((bins >= half) & (bins < n - half)).all()  # its window is on the detector
            total = np.asarray(core.sum(axis=0)).ravel()[cols] + centre.data[centre.indptr[cols]]
            np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)


def held_bytes(proj) -> int:
    """The bytes of every array a projector holds, sparse ones by their three arrays."""
    total = 0
    for value in vars(proj).values():
        if sp.issparse(value):
            total += value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
        elif isinstance(value, np.ndarray):
            total += value.nbytes
    return total


def rows_share(a, b) -> bool:
    return np.shares_memory(a.data, b.data) and np.shares_memory(a.indices, b.indices)


class TestStorage:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 64])
    def test_power_of_two_counts_are_stored_bit_reversed(self, n):
        np.testing.assert_array_equal(projector_mod._storage_positions(n), bit_reversed(n))

    @pytest.mark.parametrize("n", [3, 6, 9, 20])
    def test_other_counts_are_stored_in_order(self, n):
        np.testing.assert_array_equal(projector_mod._storage_positions(n), np.arange(n))

    @pytest.mark.parametrize("args", [
        pytest.param((128, 128, 128, 0.0, 360.0, 128), id="128x128-128"),
        pytest.param((24, 24, 8, 0.0, 360.0, 40), id="24x24-40-bins"),
        pytest.param((16, 16, 6, 0.0, 360.0, 12), id="16x16-12-bins"),
        pytest.param((24, 24, 1, 7.0, 360.0, 24), id="one-view"),
        pytest.param((24, 24, 6, 15.0, 180.0, 20), id="half-turn"),
    ])
    def test_stored_rows_match_the_single_pass_build(self, monkeypatch, args):
        # chunked sampling, the two column blocks, the storage order and the
        # in-place writes together keep every stored row of every view
        monkeypatch.setattr(projector_mod, "_cache", OrderedDict())
        proj = ParallelProjector(*args)
        h, w, n_angles, *geometry = args
        thetas = view_angles_deg(n_angles, *geometry[:2])
        stored, per_view = stored_matrix(proj), 2 * proj.n_bins
        n_stored = stored.shape[0] // per_view
        assert n_stored == (n_angles // 2 if n_angles % 2 == 0 and geometry[1] == 360.0 else n_angles)
        for v, theta in enumerate(thetas[:n_stored]):
            got = stored[v * per_view : (v + 1) * per_view]
            ref = view_matrix_single_pass(theta, h, w, proj.n_bins)
            np.testing.assert_array_equal(got.indptr, ref.indptr)
            np.testing.assert_array_equal(got.indices, ref.indices)
            np.testing.assert_array_equal(got.data, ref.data)

    @pytest.mark.parametrize("args", [(16, 16, 6, 0.0, 360.0, 12), (24, 24, 8, 0.0, 360.0, 40),
                                      (40, 32, 9, 3.0, 180.0, 48)])
    def test_stored_bytes_bound_holds(self, args):
        proj = ParallelProjector(*args)
        assert held_bytes(proj) <= proj.stored_bytes_bound

    def test_stored_bytes_bound_at_the_papers_geometry(self):
        proj = get_projector(128, 128, 128)
        assert held_bytes(proj) <= proj.stored_bytes_bound <= 1.5 * held_bytes(proj)

    def test_refused_before_anything_is_allocated(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("a projector over the budget started to allocate")

        monkeypatch.setattr(projector_mod, "fov_mask", no_build)
        monkeypatch.setattr(projector_mod, "_view_matrix", no_build)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="over the 1024 MiB budget"):
                ParallelProjector(20000, 20000, 8, n_bins=32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_build_peak_is_below_two_copies(self, monkeypatch):
        # the rows are written in place: a build holds its arrays, sized by
        # the bound and trimmed at the end, and one view's working memory,
        # never the rows twice, as stacking per-view blocks did
        monkeypatch.setattr(projector_mod, "_cache", OrderedDict())
        tracemalloc.start()
        try:
            proj = ParallelProjector(128, 128, 128)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.8 * held_bytes(proj)


class TestSharedStorage:
    def test_subsets_are_row_ranges_of_the_stored_block(self):
        proj = get_projector(128, 128, 128)
        for n_subsets in (1, 2, 4, 8, 16, 32, 64, 128):
            for k in range(n_subsets):
                a, a_t = proj.subset_operators(np.arange(k, 128, n_subsets))
                assert rows_share(a.factors[1], proj._fov), (n_subsets, k)
                assert rows_share(a_t.factors[0], proj._fov), (n_subsets, k)

    def test_nested_projector_is_a_prefix_and_equals_one_built_alone(self, monkeypatch):
        monkeypatch.setattr(projector_mod, "_cache", OrderedDict())
        alone = ParallelProjector(128, 128, 32)  # nothing finer is cached yet
        fine = get_projector(128, 128, 128)
        nested = get_projector(128, 128, 32)
        assert nested is not alone
        for block in ("_fov", "_rest"):
            assert rows_share(getattr(nested, block), getattr(fine, block))
            assert not rows_share(getattr(alone, block), getattr(fine, block))

        rng = np.random.default_rng(21)
        img, sino = rng.random((128, 128)), rng.random((32, 128))
        np.testing.assert_array_equal(nested.forward(img), alone.forward(img))
        np.testing.assert_array_equal(nested.adjoint(sino), alone.adjoint(sino))
        noisy = project(shepp_logan(128), 32)
        cfg = ReconConfig(n_subsets=4, n_iterations=3, image_size=128)
        from_nested = osem(noisy, cfg)
        key = (128, 128, 32, 0.0, 360.0, 128)
        monkeypatch.setattr(projector_mod, "_cache", OrderedDict({key: alone}))
        from_alone = osem(noisy, cfg)
        assert get_projector(128, 128, 32) is alone
        np.testing.assert_array_equal(from_nested.data.view(np.uint32),
                                      from_alone.data.view(np.uint32))

    @pytest.mark.parametrize("coarse,nests", [
        ((48, 48, 16), True),
        ((48, 48, 1), True),
        ((48, 48, 2), True),
        ((48, 48, 16, 1.0), False),  # another start angle
        ((48, 48, 16, 0.0, 360.0, 40), False),  # another bin count
        ((48, 48, 12), False),  # not a power of two
        ((48, 40, 16), False),  # another image
    ])
    def test_only_power_of_two_fractions_of_the_same_geometry_nest(self, monkeypatch, coarse, nests):
        monkeypatch.setattr(projector_mod, "_cache", OrderedDict())
        fine = get_projector(48, 48, 64)
        proj = get_projector(*coarse)
        assert rows_share(proj._fov, fine._fov) == nests
        if nests:
            img = np.random.default_rng(2).random(coarse[:2])
            np.testing.assert_array_equal(proj.forward(img), ParallelProjector(*coarse).forward(img))


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

    def test_holds_only_the_matrix_and_the_detector_matrix(self):
        # the stored rows as two column blocks, and D, all built with the
        # projector; forward and adjoint add nothing, and the adjoint reads
        # transpose views, so no transposed copy is ever held
        proj = ParallelProjector(32, 32, 5)
        before = dict(vars(proj))
        proj.adjoint(proj.forward(np.ones((32, 32))))
        assert vars(proj).keys() == before.keys()
        assert all(vars(proj)[name] is value for name, value in before.items())
        held = [v for v in vars(proj).values() if sp.issparse(v)]
        assert len(held) == 3 and all(m.format == "csr" for m in held)
        n_rows, n_fov = 5 * 2 * 32, proj.fov_pixels.size
        np.testing.assert_array_equal(proj.fov_pixels, np.flatnonzero(fov_mask(32, 32)))
        assert proj._fov.shape == (n_rows, n_fov)
        assert proj._rest.shape == (n_rows, 32 * 32 - n_fov)
        assert proj._detector.shape == (5 * 32, n_rows)
        # besides: the two blocks' pixel indices and the storage order
        arrays = [v for v in vars(proj).values() if isinstance(v, np.ndarray)]
        assert sum(x.nbytes for x in arrays) == 8 * (32 * 32 + 5)

    @pytest.mark.parametrize("args,subsets,shared", [
        # views from both half-turns, an opposite pair, one second-half view, all views
        pytest.param((64, 64, 16), [[1, 5, 9, 13], [3, 11], [12], list(range(16))],
                     [True] * 4, id="folded-16"),
        pytest.param((64, 64, 9), [[2, 5, 8], [7], list(range(9))], [False, True, True],
                     id="unfolded-9"),
        pytest.param((64, 64, 16, 15.0, 180.0), [[0, 4, 8, 12], [15]], [True, True],
                     id="half-turn-16"),
    ])
    def test_subset_operators_contract(self, args, subsets, shared):
        proj = get_projector(*args)
        full = stacked_operator(proj)
        n, fov = proj.n_bins, proj.fov_pixels
        rng = np.random.default_rng(13)
        img = rng.random((64, 64)) * fov_mask(64, 64)  # +0.0 outside the field of view
        x = img.ravel()[fov]
        for views, share in zip(subsets, shared):
            a, a_t = proj.subset_operators(views)
            # the views' bins exactly as forward computes them, in the given order
            np.testing.assert_array_equal(a @ x, proj.forward(img)[views].ravel())
            y = rng.standard_normal(len(views) * n)
            lhs, rhs = float((a @ x) @ y), float(x @ (a_t @ y))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            # the adjoint back-projects as the stacked operator's rows of those
            # views, and for sorted distinct views as adjoint does, bit for bit
            rows = full[(np.array(views)[:, None] * n + np.arange(n)).ravel()]
            np.testing.assert_allclose(a_t @ y, (rows.T @ y)[fov], rtol=1e-12, atol=1e-12)
            sino = np.zeros((proj.n_angles, n))
            sino[views] = y.reshape(len(views), n)
            np.testing.assert_array_equal(a_t @ y, proj.adjoint(sino).ravel()[fov])
            # the transpose views sum in the same order as transposed copies
            d, m = a.factors
            np.testing.assert_array_equal(a_t @ y, m.T.tocsr() @ (d.T.tocsr() @ y))
            # a transpose view of the same arrays, not a copy
            for f, g in zip(a.factors, reversed(a_t.factors)):
                assert np.shares_memory(f.data, g.data) and np.shares_memory(f.indices, g.indices)
            assert a.nnz == a_t.nnz == sum(f.nnz for f in a.factors)
            # contiguous stored views are a row range of the stored block itself
            assert np.shares_memory(m.data, proj._fov.data) == share
            assert m.shape[1] == fov.size

    def test_subset_operators_bounds(self):
        proj = get_projector(64, 64, 16)
        for views in ([16], [-1], [0, 16]):
            with pytest.raises(ValueError, match="out of range"):
                proj.subset_operators(views)
        # what a cast to integers would silently rewrite: fractions, masks, 2-D
        for bad in ([0.5, 1.7], [True, False], np.array([[0, 1]]), 3):
            with pytest.raises(ValueError, match="view indices are not 1-D integers"):
                proj.subset_operators(bad)
        # empty sequences are float64 to numpy, and ranges are integers
        a, _ = proj.subset_operators([])
        assert [f.shape for f in a.factors] == [(0, 0), (0, proj.fov_pixels.size)]
        a, _ = proj.subset_operators(range(16))
        mask = fov_mask(64, 64)
        np.testing.assert_array_equal(a @ np.ones(proj.fov_pixels.size),
                                      proj.forward(mask.astype(np.float64)).ravel())

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

    def test_cache_keeps_the_8_most_recently_used(self, monkeypatch):
        monkeypatch.setattr(projector_mod, "_cache", OrderedDict())
        first = get_projector(16, 16, 3)
        others = [get_projector(16, 16, n) for n in range(5, 12)]
        assert get_projector(16, 16, 3) is first  # used again: now the most recent
        get_projector(16, 16, 13)  # a ninth: the least recently used, 5 views, goes
        assert get_projector(16, 16, 3) is first
        assert get_projector(16, 16, 6) is others[1]
        assert get_projector(16, 16, 5) is not others[0]

    def test_rebuild_is_bit_identical(self):
        a = ParallelProjector(64, 64, 9)
        b = ParallelProjector(64, 64, 9)
        for block in ("_fov", "_rest", "_detector"):
            m, n = getattr(a, block), getattr(b, block)
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(m, part), getattr(n, part))

    def test_matrix_entries_nonnegative(self):
        proj = ParallelProjector(64, 64, 9)
        assert proj._fov.data.min() >= 0.0 and proj._rest.data.min() >= 0.0

    def test_nothing_outlives_a_projector(self):
        # everything a projector builds from its geometry is freed with it
        proj = ParallelProjector(24, 24, 6)
        proj.forward(np.ones((24, 24)))
        forward, adjoint = proj.subset_operators([1, 4])
        refs = [weakref.ref(x) for x in (proj, proj._detector, *forward.factors)]
        del proj, forward, adjoint
        gc.collect()
        assert [r() for r in refs] == [None] * len(refs)

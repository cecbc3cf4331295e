"""Phantoms, counting noise, and dataset generation."""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from sinoquad import rng as rng_mod
from sinoquad import simulate
from sinoquad.geometry import Sinogram, fov_mask
from sinoquad.io_formats import read_manifest, read_tomo
from sinoquad.projector import project
from sinoquad.simulate import (
    NOISE_LEVELS,
    PhantomRecipe,
    ZeroMassError,
    apply_poisson,
    generate_phantom,
    make_dataset,
    shepp_logan,
    subsample_views,
)
from sinoquad.simulate import _SHEPP_LOGAN

# the default geometry, and one that differs from it in every field
GEOMETRIES = [{}, {"start_angle_deg": 15.0, "angular_range_deg": 180.0, "bin_width": 0.5}]


def geometry_of(sino):
    return (sino.start_angle_deg, sino.angular_range_deg, sino.bin_width)


class TestRecipe:
    def test_defaults_valid(self):
        recipe = PhantomRecipe()
        assert recipe.size == 128

    def test_fields_are_seed_and_size(self):
        assert [f.name for f in dataclasses.fields(PhantomRecipe)] == ["seed", "size"]

    @pytest.mark.parametrize("kwargs", [{"size": 8}, {"size": 2591}])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            PhantomRecipe(**kwargs)


class TestGeneratePhantom:
    def test_deterministic_per_seed_and_index(self):
        a = generate_phantom(PhantomRecipe(seed=5), index=3)
        b = generate_phantom(PhantomRecipe(seed=5), index=3)
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_indices_differ(self):
        a = generate_phantom(PhantomRecipe(seed=5), index=0)
        b = generate_phantom(PhantomRecipe(seed=5), index=1)
        assert (a.data != b.data).any()

    @pytest.mark.parametrize("seed", range(12))
    def test_normalised_nonnegative_and_inside_fov(self, seed):
        img = generate_phantom(PhantomRecipe(seed=seed))
        assert img.data.dtype == np.float32
        assert img.data.min() >= 0.0
        assert img.data.max() == np.float32(1.0)
        outside = ~fov_mask(128, 128)
        assert not img.data[outside].any()

    @pytest.mark.parametrize("size", range(16, 65, 4))
    def test_every_valid_small_size_fits(self, size):
        # ellipse axes and blob widths scale with the image size
        for index in range(10):
            img = generate_phantom(PhantomRecipe(seed=0, size=size), index)
            assert img.data.shape == (size, size)
            assert img.data.max() == np.float32(1.0)
            assert not img.data[~fov_mask(size, size)].any()


class TestSheppLogan:
    def test_centre_positive_corners_zero(self):
        img = shepp_logan(128).data
        assert img[64, 64] > 0.0
        assert img[0, 0] == 0.0 and img[-1, -1] == 0.0

    def test_mass_matches_analytic_ellipse_areas(self):
        img = shepp_logan(128).data
        # ellipse areas in pixels; rendering is max-normalised and the peak value is 2.0
        r = 128 / 2.0
        expect = sum(v * np.pi * (a * r) * (b * r) for v, a, b, _, _, _ in _SHEPP_LOGAN) / 2.0
        assert abs(float(img.sum()) - expect) <= 0.01 * expect

    def test_mirrored_table_renders_mirrored_image(self, monkeypatch):
        # the canonical table is not left-right symmetric (the two lateral
        # cavities and the three small bottom blobs differ), so symmetry is
        # checked through the renderer: mirror the parameters, get fliplr
        mirrored = tuple(
            (val, a, b, -x0, y0, -rot) for val, a, b, x0, y0, rot in _SHEPP_LOGAN
        )
        base = shepp_logan(128).data
        monkeypatch.setattr(simulate, "_SHEPP_LOGAN", mirrored)
        flipped = shepp_logan(128).data
        np.testing.assert_allclose(np.fliplr(base), flipped, atol=1e-6)

    def test_canonical_table_is_actually_asymmetric(self):
        img = shepp_logan(128).data
        assert np.abs(img - np.fliplr(img)).max() > 1e-3

    def test_small_size_ok(self):
        img = shepp_logan(64).data
        assert img.shape == (64, 64)
        assert img.max() == np.float32(1.0)

    @pytest.mark.parametrize("size", [8, 15])
    def test_size_below_16_is_refused(self, size):
        with pytest.raises(ValueError, match=">= 16"):
            shepp_logan(size)

    def test_size_past_the_render_budget_is_refused(self):
        # 4x supersampling: 1296 px would render with more than 1 GiB
        with pytest.raises(ValueError, match="size 1296 .* budget"):
            shepp_logan(1296)


class TestNoiseLevels:
    def test_count_budgets(self):
        assert NOISE_LEVELS["low"][0] == 1e6
        assert NOISE_LEVELS["medium"][0] == 2.5e5
        assert NOISE_LEVELS["high"][0] == 5e4

    def test_unknown_label(self):
        sino = project(shepp_logan(16), 4)
        with pytest.raises(ValueError, match=r"unknown noise level 'extreme'.*\['high', 'low', 'medium'\]"):
            apply_poisson(sino, "extreme", 0)

    @pytest.mark.parametrize("level,counts,purpose", [
        ("low", 1e6, rng_mod.PURPOSE_NOISE_LOW),
        ("medium", 2.5e5, rng_mod.PURPOSE_NOISE_MEDIUM),
        ("high", 5e4, rng_mod.PURPOSE_NOISE_HIGH),
    ])
    def test_draws_from_the_level_stream(self, level, counts, purpose):
        # pins each label's (seed, index, purpose) stream key and count budget
        sino = project(shepp_logan(32), 8)
        scale = counts / float(np.sum(sino.data, dtype=np.float64))
        counts = rng_mod.stream(7, 5, purpose).poisson(sino.data.astype(np.float64) * scale)
        expect = (counts / scale).astype(np.float32)
        np.testing.assert_array_equal(apply_poisson(sino, level, 7, 5).data, expect)


class TestApplyPoisson:
    def make_sino(self):
        return project(shepp_logan(64), 16)

    def test_deterministic(self):
        sino = self.make_sino()
        a = apply_poisson(sino, "medium", seed=9, index=2)
        b = apply_poisson(sino, "medium", seed=9, index=2)
        np.testing.assert_array_equal(a.data, b.data)

    def test_seeds_indices_and_levels_decorrelate(self):
        sino = self.make_sino()
        base = apply_poisson(sino, "medium", seed=9, index=2)
        for other in (
            apply_poisson(sino, "medium", seed=10, index=2),
            apply_poisson(sino, "medium", seed=9, index=3),
            apply_poisson(sino, "high", seed=9, index=2),
        ):
            assert (base.data != other.data).any()

    def test_zero_bins_stay_zero(self):
        sino = self.make_sino()
        noisy = apply_poisson(sino, "high", seed=1)
        assert not noisy.data[sino.data == 0.0].any()

    def test_geometry_preserved_and_units_restored(self):
        for geometry in GEOMETRIES:
            sino = dataclasses.replace(self.make_sino(), **geometry)
            noisy = apply_poisson(sino, "low", seed=4)
            assert noisy.data.dtype == np.float32
            assert geometry_of(noisy) == geometry_of(sino)
            # a million counts leave the total within a percent of the original
            assert float(noisy.data.sum()) == pytest.approx(float(sino.data.sum()), rel=0.01)

    def test_zero_mass_rejected(self):
        empty = Sinogram(np.zeros((4, 8), dtype=np.float32))
        with pytest.raises(ZeroMassError):
            apply_poisson(empty, "low", seed=0)

    @pytest.mark.parametrize("lam", [0.8, 5.0, 40.0, 400.0])
    def test_sampler_moments(self, lam):
        # covers both of numpy's regimes: multiplication below a rate of 10,
        # transformed rejection above
        gen = rng_mod.stream(123, 0, rng_mod.PURPOSE_NOISE_LOW)
        n = 10_000
        draws = rng_mod.sample_poisson(np.full(n, lam), gen)
        mean = draws.mean()
        assert abs(mean - lam) <= 4.0 * np.sqrt(lam / n)
        assert 0.9 <= draws.var() / mean <= 1.1


class TestSubsampleViews:
    def test_exact_rows(self):
        for geometry in GEOMETRIES:
            sino = dataclasses.replace(project(shepp_logan(64), 16), **geometry)
            sub = subsample_views(sino, 4)
            np.testing.assert_array_equal(sub.data, sino.data[::4])
            assert sub.n_angles == 4
            assert geometry_of(sub) == geometry_of(sino)

    @pytest.mark.parametrize("factor", [0, 3, 5])
    def test_non_dividing_factor_rejected(self, factor):
        sino = project(shepp_logan(64), 16)
        with pytest.raises(ValueError, match="divide"):
            subsample_views(sino, factor)


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestMakeDataset:
    def test_layout_and_shapes(self, tmp_path):
        recipe = PhantomRecipe(seed=77, size=64)
        manifest = make_dataset(recipe, 4, "mixed", tmp_path, in_views=8, out_views=32)
        rows = read_manifest(manifest)
        assert len(rows) == 4
        assert [r["noise"] for r in rows] == ["low", "medium", "high", "low"]
        for row in rows:
            target = read_tomo(tmp_path / row["target"])
            noisy = read_tomo(tmp_path / row["input"])
            phantom = read_tomo(tmp_path / row["phantom"])
            assert target.data.shape == (32, 64)
            assert noisy.data.shape == (8, 64)
            assert phantom.data.shape == (64, 64)

    def test_rows_reproduce_the_pipeline(self, tmp_path):
        recipe = PhantomRecipe(seed=3, size=64)
        manifest = make_dataset(recipe, 2, "high", tmp_path, in_views=8, out_views=32)
        row = read_manifest(manifest)[1]
        phantom = generate_phantom(recipe, index=1)
        target = project(phantom, 32)
        noisy = apply_poisson(subsample_views(target, 4), "high", seed=3, index=1)
        np.testing.assert_array_equal(read_tomo(tmp_path / row["target"]).data, target.data)
        np.testing.assert_array_equal(read_tomo(tmp_path / row["input"]).data, noisy.data)

    def test_regeneration_is_bit_identical(self, tmp_path):
        recipe = PhantomRecipe(seed=11, size=64)
        first = tmp_path / "a"
        second = tmp_path / "b"
        make_dataset(recipe, 3, "medium", first, in_views=8, out_views=32)
        make_dataset(recipe, 3, "medium", second, in_views=8, out_views=32)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert file_digest(first / name) == file_digest(second / name), name

    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        # two real workers, whatever the host reports
        started = []

        class RecordingPool(simulate.ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        recipe = PhantomRecipe(seed=19, size=64)
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        make_dataset(recipe, 4, "mixed", serial, jobs=1, in_views=8, out_views=32)
        make_dataset(recipe, 4, "mixed", parallel, jobs=3, in_views=8, out_views=32)
        assert started == [2]
        for path in sorted(serial.iterdir()):
            assert file_digest(path) == file_digest(parallel / path.name), path.name

    @pytest.mark.parametrize("jobs,count,cpus,workers", [
        (100_000, 2, 64, 2),  # never more workers than items
        (100_000, 50, 4, 4),  # nor than CPUs
        (3, 50, 8, 3),
        (8, 3, None, None),  # cpu_count() unknown: one CPU, run serially
        (1, 50, 8, None),
    ])
    def test_worker_count_is_capped(self, tmp_path, monkeypatch, jobs, count, cpus, workers):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(simulate, "_dataset_item", lambda recipe, index, **kw: {
            "index": index, "input": "i", "target": "t", "phantom": "p", "seed": 0, "noise": "low",
        })
        manifest = make_dataset(PhantomRecipe(size=16), count, "low", tmp_path, jobs=jobs,
                                in_views=4, out_views=16)
        assert started == ([] if workers is None else [workers])
        assert [row["index"] for row in read_manifest(manifest)] == list(range(count))

    def test_manifest_is_json_lines_with_required_keys(self, tmp_path):
        recipe = PhantomRecipe(seed=1, size=64)
        manifest = make_dataset(recipe, 2, "low", tmp_path, in_views=8, out_views=32)
        lines = manifest.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            row = json.loads(line)
            assert {"input", "target", "phantom", "seed", "noise"} <= set(row)

    @pytest.mark.parametrize("count", [0, -2])
    def test_bad_count(self, tmp_path, count):
        with pytest.raises(ValueError, match="count"):
            make_dataset(PhantomRecipe(), count, "low", tmp_path)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_bad_jobs(self, tmp_path, jobs):
        with pytest.raises(ValueError, match="jobs"):
            make_dataset(PhantomRecipe(size=16), 1, "low", tmp_path / "ds", jobs=jobs)
        assert not (tmp_path / "ds").exists()

    def test_bad_noise_label(self, tmp_path):
        with pytest.raises(ValueError, match="noise"):
            make_dataset(PhantomRecipe(), 1, "loud", tmp_path)

    @pytest.mark.parametrize("views", [(0, 128), (32, 0), (-1, 128), (32, -4)])
    def test_bad_view_count(self, tmp_path, views):
        with pytest.raises(ValueError, match="views"):
            make_dataset(PhantomRecipe(), 1, "low", tmp_path / "ds",
                         in_views=views[0], out_views=views[1])
        assert not (tmp_path / "ds").exists()

    def test_non_dividing_views_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="divide"):
            make_dataset(PhantomRecipe(), 1, "low", tmp_path, in_views=24, out_views=128)

"""Training loop and evaluation harness on desk-size datasets.

Geometry is kept small (64px images, 16 -> 64 views, narrow models) so
the whole file runs in well under a minute on one core.
"""

import dataclasses
import json
import types

import numpy as np
import pytest

import sinoquad.trainer as trainer_mod
from sinoquad.io_formats import read_manifest, read_tomo, write_manifest, write_tomo
from sinoquad.geometry import Sinogram
from sinoquad.simulate import PhantomRecipe, make_dataset
from sinoquad.trainer import (
    EvalResult,
    TrainConfig,
    _load_pairs,
    _split_indices,
    compare,
    denormalize,
    evaluate,
    load_train_config,
    model_predictor,
    normalize,
    replication_predictor,
    train,
)
from sinoquad.unet import UNet, UNetConfig, load_checkpoint


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    make_dataset(
        PhantomRecipe(seed=11, size=64), count=4, noise="low", out_dir=out,
        in_views=16, out_views=64,
    )
    return out / "manifest.jsonl"


@pytest.fixture(scope="module")
def hundred_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("hundred")
    make_dataset(
        PhantomRecipe(seed=12, size=64), count=100, noise="low", out_dir=out,
        in_views=16, out_views=64,
    )
    return out / "manifest.jsonl"


class TestNormalize:
    def test_unit_max(self):
        arr = np.array([[2.0, 4.0]], dtype=np.float32)
        scaled, scale = normalize(arr)
        assert scale == 4.0
        assert scaled.max() == 1.0

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        arr = rng.random((16, 64)).astype(np.float32) * 37.0
        scaled, scale = normalize(arr)
        back = denormalize(scaled, scale)
        np.testing.assert_allclose(back, arr, rtol=1e-6)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            normalize(np.zeros((4, 4), dtype=np.float32))

    def test_accepts_sinogram_objects(self):
        sino = Sinogram(np.array([[1.0, 5.0]], dtype=np.float32))
        _, scale = normalize(sino)
        assert scale == 5.0


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs,hint", [
        ({"epochs": 0}, "epochs"),
        ({"batch_size": 0}, "batch_size"),
        ({"split_fraction": 1.0}, "split_fraction"),
        ({"split_fraction": 0.0}, "split_fraction"),
        ({"learning_rate": 0.0}, "learning_rate"),
        ({"base_channels": 0}, "base_channels"),
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"learning_rate": float("nan")}, "learning_rate"),
    ])
    def test_rejects_bad_fields(self, kwargs, hint):
        with pytest.raises(ValueError, match=hint):
            TrainConfig(manifest="m.jsonl", **kwargs)

    def test_flat_file_parsing(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text(
            "# training settings\n"
            "manifest = data/manifest.jsonl\n"
            "epochs=3\n"
            "learning_rate = 5e-4  # smaller steps\n"
            "base_channels = 8\n"
            "\n"
        )
        cfg = load_train_config(path)
        assert cfg.manifest == "data/manifest.jsonl"
        assert cfg.epochs == 3
        assert cfg.learning_rate == 5e-4
        assert cfg.base_channels == 8
        assert cfg.batch_size == 16  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("manifest=m\nmomentum=0.9\n")
        with pytest.raises(ValueError, match="unknown config key 'momentum'"):
            load_train_config(path)

    def test_missing_manifest_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("epochs=2\n")
        with pytest.raises(ValueError, match="manifest"):
            load_train_config(path)

    def test_non_assignment_line_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("manifest m\n")
        with pytest.raises(ValueError, match=":1:"):
            load_train_config(path)


class TestSplit:
    def test_deterministic(self):
        a = _split_indices(100, 0.9, seed=5)
        b = _split_indices(100, 0.9, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_sizes_and_disjoint(self):
        tr, va = _split_indices(100, 0.9, seed=1)
        assert len(tr) == 90 and len(va) == 10
        assert not set(tr) & set(va)
        assert set(tr) | set(va) == set(range(100))

    def test_two_items_keep_one_for_validation(self):
        tr, va = _split_indices(2, 0.9, seed=0)
        assert len(tr) == 1 and len(va) == 1

    def test_single_item_all_train(self):
        tr, va = _split_indices(1, 0.9, seed=0)
        assert len(tr) == 1 and len(va) == 0


class TestTraining:
    @pytest.mark.slow
    def test_overfits_single_pair(self, tmp_path):
        # capacity sanity: the default-width network must memorize one
        # pair in 500 steps at lr 1e-3. The slowest test in the suite
        # (about two minutes on one core). Asserts the achieved train
        # MSE: with a constant lr the final step oscillates in a small
        # Adam limit cycle, so the minimum is the stable quantity.
        make_dataset(
            PhantomRecipe(seed=11, size=128), count=1, noise="low",
            out_dir=tmp_path, in_views=32, out_views=128,
        )
        cfg = TrainConfig(
            manifest=str(tmp_path / "manifest.jsonl"), epochs=500, batch_size=1,
            learning_rate=1e-3, base_channels=32, seed=0,
        )
        _, history = train(cfg, verbose=False)
        assert min(history.train_loss) <= 1e-4

    def test_same_seed_same_loss_curve(self, tiny_dataset):
        cfg = TrainConfig(
            manifest=str(tiny_dataset), epochs=3, batch_size=2,
            base_channels=2, seed=7,
        )
        _, h1 = train(cfg, verbose=False)
        _, h2 = train(cfg, verbose=False)
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss

    def test_loss_mostly_non_increasing_over_50_steps(self, tiny_dataset):
        # full-batch steps, so one epoch == one step
        cfg = TrainConfig(
            manifest=str(tiny_dataset), epochs=50, batch_size=4,
            base_channels=2, seed=3,
        )
        _, history = train(cfg, verbose=False)
        steps = history.train_loss
        drops = sum(b <= a for a, b in zip(steps, steps[1:]))
        assert drops / (len(steps) - 1) >= 0.8

    def test_one_epoch_beats_untrained(self, hundred_dataset):
        cfg = TrainConfig(
            manifest=str(hundred_dataset), epochs=1, batch_size=16,
            base_channels=4, seed=2,
        )
        model, history = train(cfg, verbose=False)
        inputs, targets = _load_pairs(cfg)
        _, val_idx = _split_indices(len(inputs), cfg.split_fraction, cfg.seed)
        x, y = inputs[val_idx][:, None], targets[val_idx][:, None]
        fresh = UNet(UNetConfig(base_channels=4), seed=cfg.seed)
        untrained = float(np.mean((fresh.predict(x) - y) ** 2))
        assert history.val_loss[0] < untrained

    def test_best_checkpoint_tracks_min_val(self, tiny_dataset, tmp_path):
        ckpt = tmp_path / "best.sptc"
        hist_path = tmp_path / "history.json"
        cfg = TrainConfig(
            manifest=str(tiny_dataset), epochs=5, batch_size=2, base_channels=2,
            seed=1, checkpoint_path=str(ckpt), history_path=str(hist_path),
        )
        model, history = train(cfg, verbose=False)
        assert history.best_val_loss == min(history.val_loss)
        assert history.val_loss[history.best_epoch] == history.best_val_loss
        loaded = load_checkpoint(ckpt)
        for name in loaded.params:
            np.testing.assert_array_equal(
                loaded.params[name].data, model.params[name].data
            )
        saved = json.loads(hist_path.read_text())
        assert len(saved["train_loss"]) == 5
        assert len(saved["val_loss"]) == 5
        assert len(saved["val_metrics"]) == 5

    def test_noise_filter_selects_rows(self, tmp_path):
        out = tmp_path / "mixed"
        make_dataset(
            PhantomRecipe(seed=13, size=64), count=6, noise="mixed", out_dir=out,
            in_views=16, out_views=64,
        )
        cfg = TrainConfig(manifest=str(out / "manifest.jsonl"), noise="medium")
        inputs, _ = _load_pairs(cfg)
        assert len(inputs) == 2  # levels cycle low/medium/high
        assert inputs.max(axis=(1, 2)).tolist() == [1.0, 1.0]  # scaled as read

    def test_empty_dataset_rejected(self, tmp_path):
        write_manifest(tmp_path / "manifest.jsonl", [])
        with pytest.raises(ValueError, match="no pairs in"):
            train(TrainConfig(manifest=str(tmp_path / "manifest.jsonl")), verbose=False)

    def test_inconsistent_shapes_rejected(self, tiny_dataset, tmp_path):
        rows = read_manifest(tiny_dataset)
        root = tiny_dataset.parent
        bad = tmp_path / "bad"
        bad.mkdir()
        for row in rows[:2]:
            for key in ("input", "target", "phantom"):
                write_tomo(bad / row[key], read_tomo(root / row[key]))
        # swap one target for a wrong-size sinogram
        write_tomo(bad / rows[1]["target"], Sinogram(np.ones((32, 64), dtype=np.float32)))
        write_manifest(bad / "manifest.jsonl", rows[:2])
        with pytest.raises(ValueError, match="inconsistent|4x-angle"):
            train(TrainConfig(manifest=str(bad / "manifest.jsonl")), verbose=False)


class TestKeepFreedHeap:
    """train's allocator setting, against fake libcs; the real heap is never changed."""

    @pytest.fixture
    def use_libc(self, monkeypatch):
        def install(libc):
            monkeypatch.setattr(trainer_mod, "_libc", lambda: libc)
            trainer_mod._keep_freed_heap.cache_clear()

        yield install
        trainer_mod._keep_freed_heap.cache_clear()

    @staticmethod
    def train_twice(manifest):
        cfg = TrainConfig(manifest=str(manifest), epochs=1, batch_size=4, base_channels=2)
        for _ in range(2):
            _, history = train(cfg, verbose=False)
            assert np.isfinite(history.train_loss).all()

    def test_sets_both_thresholds_once_per_process(self, tiny_dataset, use_libc):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        use_libc(types.SimpleNamespace(mallopt=mallopt))
        self.train_twice(tiny_dataset)
        # M_TRIM_THRESHOLD is -1 and M_MMAP_THRESHOLD is -3 in glibc's malloc.h
        assert calls == [(-1, 1 << 30), (-3, 32 << 20)]

    def test_no_op_without_mallopt(self, tiny_dataset, use_libc):
        use_libc(object())
        self.train_twice(tiny_dataset)


class TestEvaluate:
    def test_perfect_stub_scores_perfectly(self, tiny_dataset):
        rows = read_manifest(tiny_dataset)
        root = tiny_dataset.parent
        lookup = {
            read_tomo(root / r["input"]).data.tobytes(): read_tomo(root / r["target"]).data
            for r in rows
        }
        result = evaluate(lambda noisy: lookup[noisy.tobytes()], tiny_dataset)
        assert result.sinogram.mse == 0.0
        assert result.sinogram.ssim == pytest.approx(1.0, abs=1e-12)
        assert result.sinogram.mape == 0.0
        assert np.isinf(result.sinogram.psnr)

    def test_replication_baseline_runs(self, tiny_dataset):
        result = evaluate(replication_predictor(), tiny_dataset)
        assert isinstance(result, EvalResult)
        assert result.sinogram.mse > 0
        assert result.sinogram.metadata["n_pairs"] == 4
        assert result.recon is None

    def test_model_predictor_read_only(self, tiny_dataset):
        model = UNet(UNetConfig(base_channels=2))
        before = {k: p.data.copy() for k, p in model.params.items()}
        evaluate(model_predictor(model), tiny_dataset)
        for k, p in model.params.items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_recon_arms_present_when_requested(self, tiny_dataset):
        from sinoquad.osem import ReconConfig

        result = evaluate(
            replication_predictor(),
            tiny_dataset,
            include_recon=True,
            recon_config=ReconConfig(n_subsets=4, n_iterations=2, image_size=64),
        )
        assert result.recon is not None and result.recon_standard is not None
        assert result.recon.metadata["n_pairs"] == 4
        d = result.to_dict()
        assert set(d) == {"sinogram", "recon", "recon_standard"}

    def test_rows_per_noise_level(self, tmp_path):
        out = tmp_path / "mixed"
        make_dataset(
            PhantomRecipe(seed=14, size=64), count=6, noise="mixed", out_dir=out,
            in_views=16, out_views=64,
        )
        manifest = out / "manifest.jsonl"
        for level in ("low", "medium", "high"):
            result = evaluate(replication_predictor(), manifest, noise=level)
            assert result.sinogram.metadata["noise"] == level
            assert result.sinogram.metadata["n_pairs"] == 2

    def test_missing_level_rejected(self, tiny_dataset):
        with pytest.raises(ValueError, match="noise=high"):
            evaluate(replication_predictor(), tiny_dataset, noise="high")

    def test_compare_keeps_geometry_and_reconstructs_both_arms(self, tiny_dataset):
        from sinoquad.metrics import MetricsReport
        from sinoquad.osem import ReconConfig, osem

        row = read_manifest(tiny_dataset)[0]
        root = tiny_dataset.parent
        # one geometry that differs from the default in every field
        geometry = {"start_angle_deg": 15.0, "angular_range_deg": 180.0, "bin_width": 0.5}
        noisy = dataclasses.replace(read_tomo(root / row["input"]), **geometry)
        target = dataclasses.replace(read_tomo(root / row["target"]), **geometry)
        phantom = read_tomo(root / row["phantom"])
        cfg = ReconConfig(n_subsets=4, n_iterations=2, image_size=64)

        predicted, scores, recons = compare(replication_predictor(), noisy, target, phantom, cfg)
        assert (predicted.start_angle_deg, predicted.angular_range_deg, predicted.bin_width) == (
            15.0, 180.0, 0.5)
        np.testing.assert_array_equal(predicted.data, np.repeat(noisy.data, 4, axis=0))
        np.testing.assert_array_equal(recons[0].data, osem(predicted, cfg).data)
        np.testing.assert_array_equal(recons[1].data, osem(noisy, cfg).data)
        assert scores.recon == MetricsReport.from_pair(phantom.data, recons[0].data)
        assert scores.recon_standard == MetricsReport.from_pair(phantom.data, recons[1].data)

        _, sino_only, none = compare(replication_predictor(), noisy, target)
        assert none is None and sino_only.recon is None
        assert sino_only.sinogram == scores.sinogram

    def test_wrong_prediction_shape_rejected(self, tiny_dataset):
        with pytest.raises(ValueError, match="prediction shape"):
            evaluate(lambda noisy: noisy, tiny_dataset)

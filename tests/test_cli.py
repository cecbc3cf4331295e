"""Command line behavior: exit codes, chaining, structured errors."""

import dataclasses
import json
import os
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sinoquad
from sinoquad import projector
from sinoquad.cli import main
from sinoquad.geometry import Image, Sinogram
from sinoquad.io_formats import read_manifest, read_tomo, write_tomo
from sinoquad.simulate import PhantomRecipe, make_dataset
from sinoquad.trainer import TrainConfig, train
from sinoquad.unet import UNet, UNetConfig, save_checkpoint


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A dataset and a small trained checkpoint shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    make_dataset(
        PhantomRecipe(seed=21, size=64), count=4, noise="low",
        out_dir=root / "data", in_views=16, out_views=64,
    )
    ckpt = root / "model.sptc"
    train(
        TrainConfig(
            manifest=str(root / "data" / "manifest.jsonl"), epochs=1,
            batch_size=2, base_channels=2, seed=0, checkpoint_path=str(ckpt),
        ),
        verbose=False,
    )
    return root


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error: usage:" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["project"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "--angles" in err

    def test_bad_choice(self, capsys):
        assert main(["phantom", "cube"]) == 1

    def test_unknown_dataset_noise_is_usage_error(self, tmp_path, capsys):
        assert main(["dataset", "--count", "1", "--noise", "loud", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "loud" in err
        assert not (tmp_path / "manifest.jsonl").exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "phantom" in capsys.readouterr().out

    @pytest.mark.parametrize("args,code,err", [(["--help"], 0, ""),
                                               (["frobnicate"], 1, "error: usage:")])
    def test_runs_as_a_module(self, args, code, err):
        src = str(Path(sinoquad.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "sinoquad", *args], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith(err)

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        code = main(["project", "--in", str(tmp_path / "nope.sptb"),
                     "--angles", "8", "--out", str(tmp_path / "s.sptb")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:")
        assert "\n" not in err.strip()

    def test_wrong_container_kind_is_data_error(self, tmp_path, capsys):
        img = tmp_path / "img.sptb"
        write_tomo(img, Image(np.ones((16, 16), dtype=np.float32)))
        code = main(["noise", "--in", str(img), "--level", "low",
                     "--out", str(tmp_path / "n.sptb")])
        assert code == 2
        assert "expected a sinogram" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_geometry_is_data_error(self, tmp_path, capsys, value):
        path = tmp_path / "sino.sptb"
        write_tomo(path, Sinogram(np.ones((16, 64), dtype=np.float32)))
        blob = bytearray(path.read_bytes())
        struct.pack_into("<d", blob, 20, value)  # start angle
        path.write_bytes(bytes(blob))
        code = main(["recon", "--in", str(path), "--size", "64", "--iters", "1",
                     "--out", str(tmp_path / "rec.sptb")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "start_angle_deg" in err
        assert "\n" not in err.strip()

    # (command, integer flag); each is set to 0 and to -1 on an otherwise valid call
    INTEGER_FLAGS = [
        ("phantom", "--size"), ("phantom", "--seed"), ("phantom", "--index"),
        ("project", "--angles"),
        ("dataset", "--count"), ("dataset", "--seed"), ("dataset", "--size"),
        ("dataset", "--in-views"), ("dataset", "--out-views"), ("dataset", "--jobs"),
        ("recon", "--subsets"), ("recon", "--iters"), ("recon", "--size"),
        ("import", "--angles"), ("import", "--bins"),
        ("reproduce", "--seed"), ("reproduce", "--size"), ("reproduce", "--subsets"),
        ("reproduce", "--iters"), ("reproduce", "--pairs"), ("reproduce", "--epochs"),
        ("reproduce", "--base-channels"),
    ]

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command,flag", INTEGER_FLAGS)
    def test_integer_flag_sweep(self, workspace, tmp_path, capsys, command, flag, value):
        img, sino, raw = tmp_path / "img.sptb", tmp_path / "sino.sptb", tmp_path / "raw.f32"
        write_tomo(img, Image(np.ones((16, 16), dtype=np.float32)))
        write_tomo(sino, Sinogram(np.ones((16, 16), dtype=np.float32)))
        raw.write_bytes(np.ones(16, dtype="<f4").tobytes())
        # reproduce trains its own model without --model; its training flags need that path
        trains = flag in ("--pairs", "--epochs", "--base-channels")
        base = {
            "phantom": ["random", "--size", "16"],
            "project": ["--in", str(img), "--angles", "4"],
            "dataset": ["--count", "1", "--size", "16", "--in-views", "4", "--out-views", "16"],
            "recon": ["--in", str(sino), "--subsets", "4", "--iters", "1", "--size", "16"],
            "import": ["--in", str(raw), "--angles", "4", "--bins", "4"],
            "reproduce": ["--noise", "low", "--size", "16", "--iters", "1"]
            + (["--pairs", "2", "--epochs", "1", "--base-channels", "1"] if trains
               else ["--model", str(workspace / "model.sptc")]),
        }[command]
        if flag in base:
            i = base.index(flag)
            base = base[:i] + base[i + 2:]
        code = main([command] + base + [flag, value, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), err
        assert err.count("error:") <= 1

    def test_key_error_is_internal(self, tmp_path, capsys, monkeypatch):
        # every reader checks its keys first, so a KeyError is a bug, not bad data
        def buggy(args):
            raise KeyError("noise")

        monkeypatch.setattr(sinoquad.cli, "cmd_phantom", buggy)
        assert main(["phantom", "random", "--out", str(tmp_path / "p.sptb")]) == 3
        assert capsys.readouterr().err.startswith("error: internal:")

    def test_huge_bin_width_reconstructs(self, tmp_path):
        path = tmp_path / "sino.sptb"
        write_tomo(path, Sinogram(np.ones((16, 16), dtype=np.float32), bin_width=1e9))
        out = tmp_path / "rec.sptb"
        assert main(["recon", "--in", str(path), "--size", "16", "--iters", "1",
                     "--out", str(out)]) == 0
        rec = read_tomo(out)
        assert rec.pixel_size == 1e9
        assert np.isfinite(rec.data).all() and (rec.data >= 0).all()

    def test_recon_size_over_the_memory_budget_is_data_error(self, tmp_path, capsys, monkeypatch):
        def no_build(*args):
            raise AssertionError("a projector over the budget started to allocate")

        # the refusal must come before the first per-pixel array
        monkeypatch.setattr(projector, "fov_mask", no_build)
        monkeypatch.setattr(projector, "_view_matrix", no_build)
        # 20000 px stores over the budget; 4000 px at one stored view may store
        # 858 MiB, under it, but its per-pixel build allowance adds 9.8 GiB
        for n_views, flags in ((8, ["--size", "20000"]), (2, ["--size", "4000", "--subsets", "2"])):
            path = tmp_path / "sino.sptb"
            write_tomo(path, Sinogram(np.ones((n_views, 32), dtype=np.float32)))
            out = tmp_path / "rec.sptb"
            assert main(["recon", "--in", str(path), *flags, "--out", str(out)]) == 2, flags
            err = capsys.readouterr().err
            assert err.startswith("error: data:") and "budget" in err
            assert not out.exists()

    @pytest.mark.parametrize("flags,field", [
        (["--start", "nan"], "start_angle_deg"),
        (["--start", "inf"], "start_angle_deg"),
        (["--range", "nan"], "angular_range_deg"),
        (["--range", "-90"], "angular_range_deg"),
    ])
    def test_bad_project_geometry_is_data_error(self, tmp_path, capsys, monkeypatch, flags, field):
        img = tmp_path / "img.sptb"
        write_tomo(img, Image(np.ones((16, 16), dtype=np.float32)))

        def no_build(*args):
            raise AssertionError("a projector view was built from invalid geometry")

        monkeypatch.setattr(projector, "_view_matrix", no_build)
        out = tmp_path / "s.sptb"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["project", "--in", str(img), "--angles", "1", "--out", str(out)] + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and field in err
        assert "\n" not in err.strip()
        assert not caught
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda h: {**h, "config": {**h["config"], "extra": 1}},
        lambda h: {**h, "config": {**h["config"], "base_channels": "1"}},
        lambda h: {**h, "arrays": 5},
        lambda h: [h],
        lambda h: {**h, "dtype": "f16"},
        lambda h: {**h, "normalization": "none"},
    ], ids=["extra-config-key", "string-base-channels", "arrays-not-a-list", "header-is-a-list",
            "f16-dtype", "unknown-normalization"])
    def test_malformed_checkpoint_header_is_data_error(self, tmp_path, capsys, edit):
        good = tmp_path / "good.sptc"
        save_checkpoint(UNet(UNetConfig(base_channels=1)), good)
        blob = good.read_bytes()
        (size,) = struct.unpack_from("<I", blob, 8)
        header = json.dumps(edit(json.loads(blob[12 : 12 + size]))).encode()
        bad = tmp_path / "bad.sptc"
        bad.write_bytes(blob[:8] + struct.pack("<I", len(header)) + header + blob[12 + size :])
        sino = tmp_path / "sino.sptb"
        write_tomo(sino, Sinogram(np.ones((16, 64), dtype=np.float32)))
        code = main(["infer", "--model", str(bad), "--in", str(sino),
                     "--out", str(tmp_path / "out.sptb")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: data:")


class TestPipelineChain:
    def test_phantom_then_project_shapes(self, tmp_path, capsys):
        img = tmp_path / "head.sptb"
        sino = tmp_path / "head_sino.sptb"
        assert main(["phantom", "shepp-logan", "--size", "128", "--out", str(img)]) == 0
        assert main(["project", "--in", str(img), "--angles", "128",
                     "--out", str(sino)]) == 0
        out = read_tomo(sino)
        assert isinstance(out, Sinogram)
        assert out.data.shape == (128, 128)

    def test_random_phantom_seeded(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.sptb", "b.sptb", "c.sptb"))
        assert main(["phantom", "random", "--size", "64", "--seed", "5", "--out", str(a)]) == 0
        assert main(["phantom", "random", "--size", "64", "--seed", "5", "--out", str(b)]) == 0
        assert main(["phantom", "random", "--size", "64", "--seed", "6", "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_noise_seeded(self, tmp_path):
        img = tmp_path / "p.sptb"
        sino = tmp_path / "s.sptb"
        main(["phantom", "shepp-logan", "--size", "64", "--out", str(img)])
        main(["project", "--in", str(img), "--angles", "16", "--out", str(sino)])
        n1, n2, n3 = (tmp_path / n for n in ("n1.sptb", "n2.sptb", "n3.sptb"))
        for out, seed in [(n1, "3"), (n2, "3"), (n3, "4")]:
            assert main(["noise", "--in", str(sino), "--level", "medium",
                         "--seed", seed, "--out", str(out)]) == 0
        assert n1.read_bytes() == n2.read_bytes()
        assert n1.read_bytes() != n3.read_bytes()

    def test_dataset_writes_manifest(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["dataset", "--count", "2", "--noise", "low", "--seed", "1",
                     "--size", "64", "--in-views", "16", "--out-views", "64",
                     "--out", str(out)]) == 0
        rows = read_manifest(out / "manifest.jsonl")
        assert len(rows) == 2
        assert (out / rows[0]["input"]).exists()

    def test_recon_produces_image(self, workspace, tmp_path):
        rows = read_manifest(workspace / "data" / "manifest.jsonl")
        noisy = workspace / "data" / rows[0]["input"]
        out = tmp_path / "rec.sptb"
        assert main(["recon", "--in", str(noisy), "--subsets", "4", "--iters", "2",
                     "--size", "64", "--out", str(out)]) == 0
        img = read_tomo(out)
        assert isinstance(img, Image)
        assert img.data.shape == (64, 64)

    def test_infer_quadruples_views(self, workspace, tmp_path):
        rows = read_manifest(workspace / "data" / "manifest.jsonl")
        noisy = read_tomo(workspace / "data" / rows[0]["input"])
        # the default geometry, and one that differs from it in every field
        for geometry in ({}, {"start_angle_deg": 15.0, "angular_range_deg": 180.0,
                              "bin_width": 0.5}):
            given = dataclasses.replace(noisy, **geometry)
            write_tomo(tmp_path / "noisy.sptb", given)
            out = tmp_path / "denoised.sptb"
            assert main(["infer", "--model", str(workspace / "model.sptc"),
                         "--in", str(tmp_path / "noisy.sptb"), "--out", str(out)]) == 0
            sino = read_tomo(out)
            assert sino.data.shape == (64, 64)
            assert sino.data.min() >= 0
            assert (sino.start_angle_deg, sino.angular_range_deg, sino.bin_width) == (
                given.start_angle_deg, given.angular_range_deg, given.bin_width)


class TestTrainCommand:
    def test_train_writes_checkpoint_and_history(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            f"manifest = {workspace / 'data' / 'manifest.jsonl'}\n"
            "epochs = 1\n"
            "batch_size = 2\n"
            "base_channels = 2\n"
            f"checkpoint_path = {tmp_path / 'm.sptc'}\n"
            f"history_path = {tmp_path / 'h.json'}\n"
        )
        assert main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "m.sptc").exists()
        history = json.loads((tmp_path / "h.json").read_text())
        assert len(history["train_loss"]) == 1
        out = capsys.readouterr().out
        assert "epoch 0" in out and "best epoch" in out

    def test_bad_config_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("manifest=m\nwarp_speed=9\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("line,hint", [
        ("checkpoint_path =", "'checkpoint_path' has no value"),
        ("epochs = two", "'epochs': cannot read 'two' as int"),
        ("learning_rate = fast", "'learning_rate': cannot read 'fast' as float"),
    ], ids=["empty", "bad-int", "bad-float"])
    def test_unreadable_config_value_is_data_error(self, tmp_path, capsys, line, hint):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"manifest = m.jsonl\n{line}\n")
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and f"{cfg}:2:" in err and hint in err
        assert not (tmp_path / "model.sptc").exists()

    @pytest.mark.parametrize("rate", ["inf", "nan"])
    def test_non_finite_learning_rate_is_data_error(self, tmp_path, capsys, rate):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"manifest = m.jsonl\nlearning_rate = {rate}\n")
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "learning_rate" in err
        assert "\n" not in err.strip()

    @pytest.mark.parametrize("kind", ["image", "all-zero"])
    def test_bad_input_sinograms_are_data_errors(self, workspace, tmp_path, capsys, kind):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        for row in read_manifest(data / "manifest.jsonl"):
            sino = read_tomo(data / row["input"])
            bad = Image(sino.data) if kind == "image" else Sinogram(np.zeros_like(sino.data))
            write_tomo(data / row["input"], bad)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"manifest = {data / 'manifest.jsonl'}\nbase_channels = 2\n"
                       f"checkpoint_path = {tmp_path / 'm.sptc'}\nhistory_path = {tmp_path / 'h.json'}\n")
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "input_" in err
        assert ("expected a sinogram" if kind == "image" else "all-zero") in err
        assert not (tmp_path / "m.sptc").exists()

    def test_targets_not_four_times_the_views_are_data_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["dataset", "--count", "2", "--size", "16", "--in-views", "16",
                     "--out-views", "32", "--out", str(data)]) == 0
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"manifest = {data / 'manifest.jsonl'}\nbase_channels = 2\n"
                       f"checkpoint_path = {tmp_path / 'm.sptc'}\n")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "4x-angle partner" in err
        assert not (tmp_path / "m.sptc").exists()

    @pytest.mark.parametrize("line", [
        "5",
        '{"input": 5, "target": "t.sptb", "phantom": "p.sptb", "seed": 0, "noise": "low"}',
    ], ids=["row-not-an-object", "input-not-a-string"])
    def test_malformed_manifest_row_is_data_error(self, tmp_path, capsys, line):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(line + "\n")
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"manifest = {manifest}\n")
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and f"{manifest}:1:" in err
        assert "\n" not in err.strip()


class TestEvalCommand:
    def test_identical_pair_json(self, tmp_path, capsys):
        path = tmp_path / "x.sptb"
        write_tomo(path, Image(np.random.default_rng(0).random((32, 32)).astype(np.float32)))
        assert main(["eval", "--ref", str(path), "--est", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mse"] == 0.0
        assert report["ssim"] == pytest.approx(1.0, abs=1e-12)
        assert report["psnr"] == float("inf")

    def test_table_output(self, tmp_path, capsys):
        a = tmp_path / "a.sptb"
        b = tmp_path / "b.sptb"
        rng = np.random.default_rng(1)
        ref = rng.random((32, 32)).astype(np.float32) + 0.5
        write_tomo(a, Image(ref))
        write_tomo(b, Image(ref + 0.01))
        assert main(["eval", "--ref", str(a), "--est", str(b), "--table"]) == 0
        out = capsys.readouterr().out
        assert "MAPE (%)" in out and "PSNR (dB)" in out

    def test_kind_mismatch_is_data_error(self, tmp_path, capsys):
        img, sino = tmp_path / "img.sptb", tmp_path / "sino.sptb"
        write_tomo(img, Image(np.ones((16, 16), dtype=np.float32)))
        write_tomo(sino, Sinogram(np.ones((16, 16), dtype=np.float32)))
        assert main(["eval", "--ref", str(img), "--est", str(sino)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and str(sino) in err

    def test_shape_mismatch_is_data_error(self, tmp_path, capsys):
        a = tmp_path / "a.sptb"
        b = tmp_path / "b.sptb"
        write_tomo(a, Image(np.ones((16, 16), dtype=np.float32)))
        write_tomo(b, Image(np.ones((16, 32), dtype=np.float32)))
        assert main(["eval", "--ref", str(a), "--est", str(b)]) == 2
        assert "shape" in capsys.readouterr().err


class TestImportCommand:
    def test_round_trip(self, tmp_path):
        raw = tmp_path / "dump.raw"
        data = np.abs(np.random.default_rng(2).standard_normal((8, 16))).astype("<f4")
        raw.write_bytes(data.tobytes())
        out = tmp_path / "imported.sptb"
        assert main(["import", "--in", str(raw), "--angles", "8", "--bins", "16",
                     "--out", str(out)]) == 0
        np.testing.assert_array_equal(read_tomo(out).data, data)

    def test_length_mismatch_is_data_error(self, tmp_path, capsys):
        raw = tmp_path / "dump.raw"
        raw.write_bytes(b"\x00" * 10)
        assert main(["import", "--in", str(raw), "--angles", "8", "--bins", "16",
                     "--out", str(tmp_path / "x.sptb")]) == 2
        assert "expected" in capsys.readouterr().err

    def test_empty_dump_is_data_error(self, tmp_path, capsys):
        raw = tmp_path / "empty.raw"
        raw.write_bytes(b"")
        out = tmp_path / "x.sptb"
        assert main(["import", "--in", str(raw), "--angles", "0", "--bins", "8",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "empty" in err
        assert not out.exists()


class TestDataDirEnv:
    def test_default_output_lands_in_data_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SINOQUAD_DATA_DIR", str(tmp_path))
        assert main(["phantom", "shepp-logan", "--size", "32"]) == 0
        assert (tmp_path / "phantom.sptb").exists()


class TestReproduce:
    def test_end_to_end_with_model(self, workspace, tmp_path, capsys):
        out = tmp_path / "rep"
        code = main(["reproduce", "--noise", "low", "--seed", "3",
                     "--model", str(workspace / "model.sptc"),
                     "--iters", "4", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "Sinogram denoising (noise=low)" in stdout
        assert "OSEM reconstruction (noise=low)" in stdout
        assert "proposed" in stdout and "standard" in stdout
        payload = json.loads((out / "metrics.json").read_text())
        assert set(payload["denoising"]) == {"replicated", "proposed"}
        assert set(payload["reconstruction"]) == {"standard", "proposed"}
        for name in ("phantom", "noisy_32", "denoised_128", "recon_standard",
                     "recon_proposed", "reference_128"):
            assert (out / f"{name}.sptb").exists()
            assert (out / f"{name}.pgm").exists()

    @pytest.mark.parametrize("flags,hint", [
        (["--subsets", "3", "--size", "48"], "n_subsets=3"),
        (["--size", "40"], "divisible by 16"),
    ])
    def test_bad_flags_fail_before_any_work(self, tmp_path, capsys, flags, hint):
        out = tmp_path / "rep"
        code = main(["reproduce", "--noise", "low", "--pairs", "2", "--epochs", "1",
                     "--out", str(out)] + flags)
        assert code == 2
        assert hint in capsys.readouterr().err
        assert not out.exists()

    def test_bit_reproducible(self, workspace, tmp_path):
        outs = []
        for run in ("r1", "r2"):
            out = tmp_path / run
            assert main(["reproduce", "--noise", "medium", "--seed", "9",
                         "--model", str(workspace / "model.sptc"),
                         "--iters", "2", "--out", str(out)]) == 0
            outs.append(out)
        for name in ("metrics.json", "noisy_32.sptb", "denoised_128.sptb",
                     "recon_proposed.sptb", "recon_standard.pgm"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

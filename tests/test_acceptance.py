"""Shipping gate: every release criterion, one verdict line each.

Run scale is controlled by SINOQUAD_ACCEPT_SCALE:
  reduced (default)  corpus sized for a single-core sandbox, ~6 minutes total
  full               desk-scale corpus (4000 train / 200 held-out pairs);
                     hours on one core, comfortably under 4 h on a desktop

The learning criteria train one compact model on a mixed-noise corpus and
reuse it; margins below were calibrated at reduced scale and only widen
with the full corpus.
"""

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import sinoquad.autograd as ag
from oracles import brute_force_view, disk_image
from sinoquad.cli import main
from sinoquad.geometry import Image, Sinogram, fov_mask, fov_radius
from sinoquad.io_formats import (
    BadMagicError,
    TruncatedFileError,
    read_tomo,
    write_tomo,
    export_pgm,
)
from sinoquad.metrics import MetricsReport, ssim
from sinoquad.osem import ReconConfig, log_likelihood, mlem, osem
from sinoquad.projector import get_projector, project
from sinoquad.simulate import (
    PhantomRecipe,
    apply_poisson,
    generate_phantom,
    shepp_logan,
    subsample_views,
)
from sinoquad.trainer import (
    TrainConfig,
    evaluate,
    model_predictor,
    replication_predictor,
    train,
)
from sinoquad.unet import UNet, UNetConfig

_SCALES = {
    "reduced": dict(train_pairs=240, test_pairs=60, epochs=25),
    "full": dict(train_pairs=4000, test_pairs=200, epochs=40),
}
SCALE = _SCALES[os.environ.get("SINOQUAD_ACCEPT_SCALE", "reduced")]
LEVELS = ("low", "medium", "high")

RESULTS: list[str] = []


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    RESULTS.append(line)
    print(line)
    assert ok, line


@dataclass(frozen=True)
class LearnedBundle:
    model: UNet
    checkpoint: Path
    train_manifest: Path
    test_manifest: Path


@pytest.fixture(scope="module")
def learned(tmp_path_factory) -> LearnedBundle:
    """One mixed-noise corpus and one trained model shared by criteria 6-8."""
    from sinoquad.simulate import make_dataset

    root = tmp_path_factory.mktemp("accept")
    train_man = make_dataset(
        PhantomRecipe(seed=100, size=128), count=SCALE["train_pairs"],
        noise="mixed", out_dir=root / "train",
    )
    test_man = make_dataset(
        PhantomRecipe(seed=200, size=128), count=SCALE["test_pairs"],
        noise="mixed", out_dir=root / "test",
    )
    ckpt = root / "model.sptc"
    cfg = TrainConfig(
        manifest=str(train_man), epochs=SCALE["epochs"], batch_size=8,
        learning_rate=1e-3, base_channels=8, seed=0, checkpoint_path=str(ckpt),
    )
    model, _ = train(cfg, verbose=False)
    return LearnedBundle(model, ckpt, Path(train_man), Path(test_man))


class TestCriterion1GradientIntegrity:
    def test_every_op_passes_finite_difference(self):
        t0 = time.time()
        rng = np.random.default_rng(7)
        worst = {}

        def scalar(fn, tensors, key):
            worst[key] = ag.gradient_check(fn, tensors, h=1e-5)

        x = ag.Tensor(rng.standard_normal((2, 3, 6, 7)), requires_grad=True)
        w = ag.Tensor(0.4 * rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        b = ag.Tensor(0.2 * rng.standard_normal(4), requires_grad=True)
        tgt = ag.Tensor(rng.standard_normal((2, 4, 6, 7)))
        scalar(lambda: ag.mse_loss(ag.conv2d(x, w, b), tgt), [x, w, b], "conv2d")

        xt = ag.Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
        wt = ag.Tensor(0.4 * rng.standard_normal((3, 2, 2, 2)), requires_grad=True)
        bt = ag.Tensor(0.2 * rng.standard_normal(2), requires_grad=True)
        t22 = ag.Tensor(rng.standard_normal((2, 2, 8, 10)))
        scalar(lambda: ag.mse_loss(ag.conv_transpose2d(xt, wt, bt, stride=(2, 2)), t22),
               [xt, wt, bt], "conv_transpose2d s22")
        t21 = ag.Tensor(rng.standard_normal((2, 2, 8, 5)))
        scalar(lambda: ag.mse_loss(ag.conv_transpose2d(xt, wt, bt, stride=(2, 1)), t21),
               [xt, wt, bt], "conv_transpose2d s21")

        xp = ag.Tensor(rng.standard_normal((2, 3, 6, 8)), requires_grad=True)
        tp = ag.Tensor(rng.standard_normal((2, 3, 3, 4)))
        scalar(lambda: ag.mse_loss(ag.avgpool2x2(xp), tp), [xp], "avgpool2x2")

        # keep activations away from the relu kink so the FD stencil is valid
        xr_data = rng.standard_normal((3, 2, 5, 5))
        xr_data[np.abs(xr_data) < 1e-2] += 0.1
        xr = ag.Tensor(xr_data, requires_grad=True)
        tr = ag.Tensor(rng.standard_normal((3, 2, 5, 5)))
        scalar(lambda: ag.mse_loss(ag.relu(xr), tr), [xr], "relu")

        ca = ag.Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
        cb = ag.Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        tc = ag.Tensor(rng.standard_normal((2, 5, 4, 4)))
        scalar(lambda: ag.mse_loss(ag.concat_channels(ca, cb), tc), [ca, cb], "concat")

        mp = ag.Tensor(rng.standard_normal((4, 9)), requires_grad=True)
        mt = ag.Tensor(rng.standard_normal((4, 9)))
        scalar(lambda: ag.mse_loss(mp, mt), [mp], "mse_loss")

        # composite: a small down/up path exercising the ops together
        cx = ag.Tensor(rng.standard_normal((1, 1, 8, 8)), requires_grad=True)
        cw1 = ag.Tensor(0.4 * rng.standard_normal((2, 1, 3, 3)), requires_grad=True)
        cwt = ag.Tensor(0.4 * rng.standard_normal((2, 1, 2, 2)), requires_grad=True)
        ct = ag.Tensor(rng.standard_normal((1, 1, 8, 8)))

        def chain():
            h = ag.relu(ag.conv2d(cx, cw1))
            h = ag.avgpool2x2(h)
            return ag.mse_loss(ag.conv_transpose2d(h, cwt, stride=(2, 2)), ct)

        scalar(chain, [cx, cw1, cwt], "composite")

        elapsed = time.time() - t0
        peak = max(worst.values())
        ok = peak <= 1e-4 and elapsed < 120.0
        verdict(1, "gradient integrity", ok,
                f"max rel err {peak:.2e} across {len(worst)} checks, {elapsed:.1f}s")


class TestCriterion2Adjointness:
    def test_inner_products_match_to_1e10(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for trial in range(100):
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            h = int(rng.integers(2, 7))
            wd = int(rng.integers(2, 7))
            if trial % 2 == 0:
                k = int(rng.choice([1, 3, 5]))
                x = ag.Tensor(rng.standard_normal((2, cin, h + k, wd + k)),
                              requires_grad=True)
                weight = ag.Tensor(rng.standard_normal((cout, cin, k, k)))
                out = ag.conv2d(x, weight)
                coty = rng.standard_normal(out.shape)
                lhs = float((out.data * coty).sum())
                out.backward(coty)
                rhs = float((x.data * x.grad).sum())
            else:
                stride = (2, 2) if trial % 4 == 1 else (2, 1)
                x = ag.Tensor(rng.standard_normal((2, cin, h, wd)), requires_grad=True)
                weight = ag.Tensor(rng.standard_normal((cin, cout, 2, 2)))
                out = ag.conv_transpose2d(x, weight, stride=stride)
                coty = rng.standard_normal(out.shape)
                lhs = float((out.data * coty).sum())
                rhs = float(
                    (x.data * ag.conv_transpose2d_adjoint(coty, weight.data, stride)).sum()
                )
            gap = abs(lhs - rhs) / max(1.0, abs(lhs))
            worst = max(worst, gap)
        verdict(2, "conv adjointness", worst <= 1e-10,
                f"worst inner-product gap {worst:.2e} over 100 trials")


class TestCriterion3ProjectorCorrectness:
    def test_oracle_agreement_and_mass(self):
        worst_rel = 0.0
        disk = disk_image(128, 32.0)
        sl = shepp_logan(128).data.astype(np.float64)
        for img in (disk, sl):
            for theta in (0.0, 30.9375, 45.0, 87.1875, 135.0):
                mine = get_projector(128, 128, 1, start_angle_deg=theta).forward(img)[0]
                ref = brute_force_view(img, theta, 128, step=0.01)
                worst_rel = max(worst_rel, float(np.abs(mine - ref).max() / ref.max()))

        proj = get_projector(128, 128, 32)
        worst_mass = 0.0
        for seed in range(100):
            ph = generate_phantom(PhantomRecipe(seed=seed)).data.astype(np.float64)
            rows = proj.forward(ph).sum(axis=1)
            worst_mass = max(worst_mass, float(np.abs(rows - ph.sum()).max() / ph.sum()))

        ok = worst_rel <= 0.01 and worst_mass <= 0.005
        verdict(3, "projector correctness", ok,
                f"oracle max bin err {100 * worst_rel:.3f}% of max, "
                f"mass err {100 * worst_mass:.4f}% over 100 phantoms")


class TestCriterion4NestedAngles:
    def test_coarse_rows_are_exact_subset(self):
        img = shepp_logan(128)
        fine = project(img, n_angles=128).data
        coarse = project(img, n_angles=32).data
        ok = np.array_equal(fine[::4], coarse)
        verdict(4, "nested-angle consistency", ok, "rows 0,4,8,... bit-equal")


class TestCriterion5OsemSanity:
    def test_likelihood_localization_and_view_count(self):
        phantom = shepp_logan(128)
        sino = project(phantom, n_angles=128)

        frames = []
        mlem(sino, n_iterations=50, callback=lambda it, im: frames.append(im))
        lls = [log_likelihood(sino, Image(f.astype(np.float32))) for f in frames]
        slack = [1e-9 * max(1.0, abs(a)) for a in lls[:-1]]
        ll_ok = all(b >= a - s for a, b, s in zip(lls, lls[1:], slack))

        hot = np.zeros((128, 128), dtype=np.float32)
        hot[40, 70] = 1.0
        hot_sino = project(Image(hot), n_angles=128)
        rec = osem(hot_sino, ReconConfig(n_subsets=4, n_iterations=20)).data
        hot_ok = np.unravel_index(np.argmax(rec), rec.shape) == (40, 70)

        rec128 = osem(sino, ReconConfig()).data
        rec32 = osem(subsample_views(sino, 4), ReconConfig()).data
        s128 = MetricsReport.from_pair(phantom.data, rec128).ssim
        s32 = MetricsReport.from_pair(phantom.data, rec32).ssim
        views_ok = s128 > s32

        ok = ll_ok and hot_ok and views_ok
        verdict(5, "OSEM sanity", ok,
                f"LL monotone={ll_ok}, hot pixel={hot_ok}, "
                f"ssim 128v {s128:.3f} > 32v {s32:.3f}={views_ok}")


class TestCriterion6DeskScaleLearning:
    @pytest.mark.slow
    def test_beats_replication_and_degrades_monotonically(self, learned):
        man = learned.test_manifest
        model_agg = evaluate(model_predictor(learned.model), man).sinogram
        rep_agg = evaluate(replication_predictor(), man).sinogram
        beats_mse = model_agg.mse < rep_agg.mse
        beats_ssim = model_agg.ssim > rep_agg.ssim

        mapes = [
            evaluate(model_predictor(learned.model), man, noise=lv).sinogram.mape
            for lv in LEVELS
        ]
        monotone = mapes[0] < mapes[1] < mapes[2]

        ok = beats_mse and beats_ssim and monotone
        verdict(6, "desk-scale learning", ok,
                f"mse {model_agg.mse:.5f} vs {rep_agg.mse:.5f}, "
                f"ssim {model_agg.ssim:.3f} vs {rep_agg.ssim:.3f}, "
                f"mape {mapes[0]:.1f}<{mapes[1]:.1f}<{mapes[2]:.1f}={monotone}")


class TestCriterion7ReconstructionDirection:
    @pytest.mark.slow
    def test_model_recon_beats_sparse_recon_per_level(self, learned):
        phantom = shepp_logan(128)
        dense = project(phantom, n_angles=128)
        sparse = subsample_views(dense, 4)
        predict = model_predictor(learned.model)
        cfg = ReconConfig()
        details = []
        ok = True
        for level in LEVELS:
            noisy = apply_poisson(sparse, level, seed=5)
            upsampled = Sinogram(
                np.maximum(predict(noisy.data), 0.0),
                start_angle_deg=dense.start_angle_deg,
                angular_range_deg=dense.angular_range_deg,
                bin_width=dense.bin_width,
            )
            prop = MetricsReport.from_pair(phantom.data, osem(upsampled, cfg).data)
            std = MetricsReport.from_pair(phantom.data, osem(noisy, cfg).data)
            margin = prop.ssim - std.ssim
            level_ok = prop.ssim > std.ssim and prop.psnr > std.psnr
            if level == "low":
                level_ok = level_ok and margin >= 0.02
            ok = ok and level_ok
            details.append(f"{level} ssim {std.ssim:.3f}->{prop.ssim:.3f} "
                           f"psnr {std.psnr:.1f}->{prop.psnr:.1f}")
        verdict(7, "reconstruction direction", ok, "; ".join(details))


class TestCriterion8Determinism:
    @pytest.mark.slow
    def test_dataset_train_reproduce_bit_identical(self, learned, tmp_path):
        def tree_bytes(root: Path) -> dict:
            return {
                p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()
            }

        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        for d in (d1, d2):
            assert main(["dataset", "--count", "4", "--noise", "mixed", "--seed", "7",
                         "--size", "64", "--in-views", "16", "--out-views", "64",
                         "--out", str(d)]) == 0
        dataset_ok = tree_bytes(d1) == tree_bytes(d2)

        # 16 pairs -> 14 train rows -> 2 steps/epoch at batch 8; 5 epochs = 10 steps
        tdir = tmp_path / "tds"
        main(["dataset", "--count", "16", "--noise", "mixed", "--seed", "8",
              "--size", "64", "--in-views", "16", "--out-views", "64",
              "--out", str(tdir)])
        ckpts = []
        for run in ("t1", "t2"):
            cfg = tmp_path / f"{run}.cfg"
            cfg.write_text(
                f"manifest = {tdir / 'manifest.jsonl'}\n"
                "epochs = 5\nbatch_size = 8\nbase_channels = 4\nseed = 3\n"
                f"checkpoint_path = {tmp_path / run}.sptc\n"
                f"history_path = {tmp_path / run}.json\n"
            )
            assert main(["train", "--config", str(cfg)]) == 0
            ckpts.append((tmp_path / f"{run}.sptc").read_bytes())
        train_ok = ckpts[0] == ckpts[1]
        h1 = json.loads((tmp_path / "t1.json").read_text())
        h2 = json.loads((tmp_path / "t2.json").read_text())
        del h1["seconds"], h2["seconds"]  # wall time is the one non-artifact field
        train_ok = train_ok and h1 == h2

        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        for r in (r1, r2):
            assert main(["reproduce", "--noise", "medium", "--seed", "4",
                         "--model", str(learned.checkpoint), "--out", str(r)]) == 0
        reproduce_ok = tree_bytes(r1) == tree_bytes(r2)

        ok = dataset_ok and train_ok and reproduce_ok
        verdict(8, "determinism", ok,
                f"dataset={dataset_ok}, train 10 steps={train_ok}, reproduce={reproduce_ok}")


class TestCriterion9FormatRobustness:
    def test_round_trip_rejection_and_pgm(self, tmp_path):
        sino = project(shepp_logan(64), n_angles=16)
        p1, p2 = tmp_path / "a.sptb", tmp_path / "b.sptb"
        write_tomo(p1, sino)
        write_tomo(p2, read_tomo(p1))
        round_ok = p1.read_bytes() == p2.read_bytes()

        blob = p1.read_bytes()
        trunc = tmp_path / "t.sptb"
        trunc.write_bytes(blob[:-3])
        try:
            read_tomo(trunc)
            trunc_ok = False
        except TruncatedFileError:
            trunc_ok = True
        bad = tmp_path / "m.sptb"
        bad.write_bytes(b"XYZW" + blob[4:])
        try:
            read_tomo(bad)
            magic_ok = False
        except BadMagicError:
            magic_ok = True

        pgm = tmp_path / "p.pgm"
        export_pgm(pgm, shepp_logan(64))
        raw = pgm.read_bytes()
        header, payload = raw.split(b"\n", 3)[:3], raw.split(b"\n", 3)[3]
        pgm_ok = (
            header[0] == b"P5"
            and header[1] == b"64 64"
            and header[2] == b"65535"
            and len(payload) == 64 * 64 * 2
            and np.frombuffer(payload, dtype=">u2").max() == 65535
        )

        ok = round_ok and trunc_ok and magic_ok and pgm_ok
        verdict(9, "format robustness", ok,
                f"round trip={round_ok}, truncated={trunc_ok}, "
                f"magic={magic_ok}, pgm={pgm_ok}")

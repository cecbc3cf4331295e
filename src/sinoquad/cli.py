"""Command line front end for the sinogram upsampling pipeline.

Exit codes: 0 success, 1 usage, 2 data or validation problems, 3
internal faults. Every failure is one structured line on stderr:
"error: <category>: <message>".
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .geometry import Image, Sinogram
from .io_formats import TomoFormatError, export_pgm, import_raw, read_tomo, read_tomo_as
from .io_formats import write_atomic, write_tomo
from .metrics import SCORES, MetricsReport, format_table
from .osem import ReconConfig, osem
from .simulate import (
    NOISE_LEVELS,
    PhantomRecipe,
    apply_poisson,
    generate_phantom,
    make_dataset,
    shepp_logan,
    subsample_views,
)
from .trainer import (
    TrainConfig,
    compare,
    load_train_config,
    model_predictor,
    replication_predictor,
    train,
)
from .unet import VIEW_FACTOR, check_extents, load_checkpoint

_DATA_DIR_ENV = "SINOQUAD_DATA_DIR"
_DENSE_VIEWS = 128  # reproduce's reference and its sparse arm's view counts
_SPARSE_VIEWS = _DENSE_VIEWS // VIEW_FACTOR
_SCORE_TITLES = [title for title, _ in SCORES.values()]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage to 1
        raise UsageError(f"{self.prog}: {message}")


def _data_dir() -> Path:
    return Path(os.environ.get(_DATA_DIR_ENV, "."))


def _default_path(name: str) -> Path:
    return _data_dir() / name


def cmd_phantom(args) -> int:
    if args.kind == "shepp-logan":
        image = shepp_logan(args.size)
    else:
        image = generate_phantom(PhantomRecipe(seed=args.seed, size=args.size), args.index)
    write_tomo(args.out, image)
    print(f"wrote {args.out}")
    return 0


def cmd_project(args) -> int:
    from .projector import project

    image = read_tomo_as(getattr(args, "in"), Image)
    sino = project(
        image, args.angles, start_angle_deg=args.start, angular_range_deg=args.range
    )
    write_tomo(args.out, sino)
    print(f"wrote {args.out}")
    return 0


def cmd_noise(args) -> int:
    sino = read_tomo_as(getattr(args, "in"), Sinogram)
    noisy = apply_poisson(sino, args.level, args.seed, args.index)
    write_tomo(args.out, noisy)
    print(f"wrote {args.out}")
    return 0


def cmd_dataset(args) -> int:
    recipe = PhantomRecipe(seed=args.seed, size=args.size)
    manifest = make_dataset(
        recipe,
        count=args.count,
        noise=args.noise,
        out_dir=args.out,
        jobs=args.jobs,
        in_views=args.in_views,
        out_views=args.out_views,
    )
    print(f"wrote {manifest}")
    return 0


def cmd_train(args) -> int:
    cfg = load_train_config(args.config)
    fills = {}
    if cfg.checkpoint_path is None:
        fills["checkpoint_path"] = str(_default_path("model.sptc"))
    if cfg.history_path is None:
        fills["history_path"] = str(_default_path("history.json"))
    if fills:
        cfg = dataclasses.replace(cfg, **fills)
    _, history = train(cfg, verbose=True)
    print(
        f"best epoch {history.best_epoch} val {history.best_val_loss:.6f}; "
        f"checkpoint {cfg.checkpoint_path}; history {cfg.history_path}"
    )
    return 0


def cmd_infer(args) -> int:
    model = load_checkpoint(args.model)
    sino = read_tomo_as(getattr(args, "in"), Sinogram)
    out = dataclasses.replace(sino, data=model_predictor(model)(sino.data))
    write_tomo(args.out, out)
    print(f"wrote {args.out}")
    return 0


def cmd_recon(args) -> int:
    sino = read_tomo_as(getattr(args, "in"), Sinogram)
    cfg = ReconConfig(
        n_subsets=args.subsets, n_iterations=args.iters, image_size=args.size
    )
    write_tomo(args.out, osem(sino, cfg))
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    ref = read_tomo(args.ref)
    est = read_tomo_as(args.est, type(ref))
    report = MetricsReport.from_pair(ref.data, est.data)
    if args.table:
        print(
            format_table(
                ["", *_SCORE_TITLES],
                [["pair"] + report.row()],
            )
        )
    else:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_import(args) -> int:
    sino = import_raw(
        getattr(args, "in"),
        args.angles,
        args.bins,
        dtype=args.dtype,
        start_angle_deg=args.start,
        angular_range_deg=args.range,
    )
    write_tomo(args.out, sino)
    print(f"wrote {args.out}")
    return 0


def _train_config(out_dir: Path, args) -> TrainConfig:
    """The training run reproduce makes when it is not handed a model."""
    if args.pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {args.pairs}")
    return TrainConfig(
        manifest=str(out_dir / "train_data" / "manifest.jsonl"),
        epochs=args.epochs,
        batch_size=8,
        base_channels=args.base_channels,
        seed=args.seed,
        checkpoint_path=str(out_dir / "model.sptc"),
    )


def _self_train(cfg: TrainConfig, args) -> str:
    """Train a compact model when reproduce is not handed one.

    The corpus mixes all three count levels; a level-specialized model
    scores better on sinograms but leaves structured residuals that cost
    reconstruction SSIM, so one mixed model serves every level.
    """
    make_dataset(
        PhantomRecipe(seed=cfg.seed + 1, size=args.size),
        count=args.pairs,
        noise="mixed",
        out_dir=Path(cfg.manifest).parent,
        in_views=_SPARSE_VIEWS,
        out_views=_DENSE_VIEWS,
    )
    print(f"no --model given; training {cfg.base_channels}-channel model "
          f"on {args.pairs} pairs ({cfg.epochs} epochs)")
    train(cfg, verbose=True)
    return cfg.checkpoint_path


def cmd_reproduce(args) -> int:
    # every flag is checked before data is generated or a model trained
    recon_cfg = ReconConfig(
        n_subsets=args.subsets, n_iterations=args.iters, image_size=args.size
    )
    if _SPARSE_VIEWS % recon_cfg.n_subsets:  # then it divides the dense views too
        raise ValueError(f"n_subsets={recon_cfg.n_subsets} does not divide n_angles={_SPARSE_VIEWS}")
    check_extents(_SPARSE_VIEWS, args.size)
    out_dir = Path(args.out) if args.out else _default_path("reproduce")
    train_cfg = None if args.model else _train_config(out_dir, args)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = args.model or _self_train(train_cfg, args)
    model = load_checkpoint(model_path)

    from .projector import project

    phantom = shepp_logan(args.size)
    reference = project(phantom, n_angles=_DENSE_VIEWS)
    sparse = subsample_views(reference, VIEW_FACTOR)
    noisy = apply_poisson(sparse, args.noise, args.seed)

    predicted, proposed, (rec_proposed, rec_standard) = compare(
        model_predictor(model), noisy, reference, phantom, recon_cfg
    )
    _, replicated, _ = compare(replication_predictor(), noisy, reference)
    denoise_rows = {"replicated": replicated.sinogram, "proposed": proposed.sinogram}
    recon_rows = {"standard": proposed.recon_standard, "proposed": proposed.recon}

    for name, obj in [
        ("phantom", phantom),
        ("reference_128", reference),
        ("noisy_32", noisy),
        ("denoised_128", predicted),
        ("recon_standard", rec_standard),
        ("recon_proposed", rec_proposed),
    ]:
        write_tomo(out_dir / f"{name}.sptb", obj)
        export_pgm(out_dir / f"{name}.pgm", obj.data)

    denoise_table = format_table(
        ["Method", *_SCORE_TITLES],
        [[name] + r.row() for name, r in denoise_rows.items()],
        title=f"Sinogram denoising (noise={args.noise})",
    )
    recon_table = format_table(
        ["Method", *_SCORE_TITLES[1:]],  # MAPE is a sinogram score only
        [[name] + r.row()[1:] for name, r in recon_rows.items()],
        title=f"OSEM reconstruction (noise={args.noise})",
    )
    print(denoise_table)
    print()
    print(recon_table)

    payload = {
        "noise": args.noise,
        "seed": args.seed,
        "model": str(model_path),
        "denoising": {k: r.to_dict() for k, r in denoise_rows.items()},
        "reconstruction": {k: r.to_dict() for k, r in recon_rows.items()},
    }
    metrics = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
    write_atomic(out_dir / "metrics.json", metrics)
    print(f"\nartifacts in {out_dir}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="sinoquad", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("phantom", help="synthesize a phantom image")
    p.add_argument("kind", choices=["random", "shepp-logan"])
    p.add_argument("--size", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--out", default=str(_default_path("phantom.sptb")))
    p.set_defaults(fn=cmd_phantom)

    p = sub.add_parser("project", help="forward-project an image")
    p.add_argument("--in", default=str(_default_path("phantom.sptb")))
    p.add_argument("--angles", type=int, required=True)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--range", type=float, default=360.0)
    p.add_argument("--out", default=str(_default_path("sinogram.sptb")))
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("noise", help="apply count-limited counting noise")
    p.add_argument("--in", default=str(_default_path("sinogram.sptb")))
    p.add_argument("--level", choices=sorted(NOISE_LEVELS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--out", default=str(_default_path("noisy.sptb")))
    p.set_defaults(fn=cmd_noise)

    p = sub.add_parser("dataset", help="generate a training dataset + manifest")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--noise", choices=sorted(NOISE_LEVELS) + ["mixed"], default="mixed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=128)
    p.add_argument("--in-views", type=int, default=32)
    p.add_argument("--out-views", type=int, default=128)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=str(_default_path("dataset")))
    p.set_defaults(fn=cmd_dataset)

    p = sub.add_parser("train", help="train the upsampling network")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("infer", help="denoise + quadruple a sinogram's views")
    p.add_argument("--model", required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--out", default=str(_default_path("denoised.sptb")))
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("recon", help="OSEM-reconstruct a sinogram")
    p.add_argument("--in", required=True)
    p.add_argument("--subsets", type=int, default=4)
    p.add_argument("--iters", type=int, default=20)
    p.add_argument("--size", type=int, default=128)
    p.add_argument("--out", default=str(_default_path("recon.sptb")))
    p.set_defaults(fn=cmd_recon)

    p = sub.add_parser("eval", help="score an estimate against a reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--table", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("import", help="import a raw detector dump as a sinogram")
    p.add_argument("--in", required=True)
    p.add_argument("--angles", type=int, required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--dtype", choices=["f32", "u16"], default="f32")
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--range", type=float, default=360.0)
    p.add_argument("--out", default=str(_default_path("imported.sptb")))
    p.set_defaults(fn=cmd_import)

    p = sub.add_parser("reproduce", help="end-to-end comparison on the head phantom")
    p.add_argument("--noise", choices=sorted(NOISE_LEVELS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", default=None)
    p.add_argument("--size", type=int, default=128)
    p.add_argument("--subsets", type=int, default=4)
    p.add_argument("--iters", type=int, default=20)
    p.add_argument("--pairs", type=int, default=240, help="self-training pairs when no --model")
    p.add_argument("--epochs", type=int, default=25)
    p.add_argument("--base-channels", type=int, default=8)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_reproduce)

    return parser


def _one_line(exc: BaseException) -> str:
    return " ".join(str(exc).split()) or exc.__class__.__name__


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: usage: {_one_line(exc)}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (TomoFormatError, ValueError, OSError) as exc:
        print(f"error: data: {_one_line(exc)}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {_one_line(exc)}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Training loop, per-sinogram normalization, and held-out evaluation.

Each input sinogram is divided by its own max before entering the
network; the paired target is divided by the same scale so the model
maps relative intensities and outputs return to counts by multiplying
the scale back. Training pairs are scaled once, as they are read.
Split, shuffling, and weight init all come off seeded counter-based
streams, so a run is reproducible end to end.
"""

from __future__ import annotations

import ctypes
import functools
import json
import time
import typing
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autograd as ag
from .geometry import Image, Sinogram
from .io_formats import read_manifest, read_tomo_as, write_atomic
from .metrics import SCORES, MetricsReport
from .osem import ReconConfig, osem
from .rng import PURPOSE_SHUFFLE, PURPOSE_SPLIT, stream
from .unet import VIEW_FACTOR, UNet, UNetConfig, save_checkpoint


def normalize(sino: np.ndarray) -> tuple[np.ndarray, float]:
    """Scale to unit max; returns (scaled array, the max it was divided by)."""
    arr = np.asarray(getattr(sino, "data", sino), dtype=np.float32)
    scale = float(arr.max()) if arr.size else 0.0
    if scale <= 0.0:
        raise ValueError("cannot normalize an all-zero sinogram")
    return arr / scale, scale


def denormalize(sino: np.ndarray, scale: float) -> np.ndarray:
    return np.asarray(sino, dtype=np.float32) * np.float32(scale)


@dataclass(frozen=True)
class TrainConfig:
    manifest: str
    epochs: int = 1
    batch_size: int = 16
    learning_rate: float = 1e-3
    split_fraction: float = 0.9
    seed: int = 0
    base_channels: int = UNetConfig.base_channels
    noise: str | None = None  # train on one label only; None = all rows
    checkpoint_path: str | None = None
    history_path: str | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError("split_fraction must be in (0, 1)")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        UNetConfig(self.base_channels)  # checks the width


def load_train_config(path) -> TrainConfig:
    """Parse a flat key=value file ('#' starts a comment) into TrainConfig.

    The keys are TrainConfig's fields; a value is read as its field's type,
    T for a field typed T | None.
    """
    kinds = {key: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
             for key, hint in typing.get_type_hints(TrainConfig).items()}
    values: dict[str, object] = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in kinds:
            raise ValueError(f"{path}:{ln}: unknown config key {key!r}")
        if not value:
            raise ValueError(f"{path}:{ln}: config key {key!r} has no value")
        kind = kinds[key]
        try:
            values[key] = kind(value)
        except ValueError:
            raise ValueError(
                f"{path}:{ln}: config key {key!r}: cannot read {value!r} as {kind.__name__}"
            ) from None
    if "manifest" not in values:
        raise ValueError(f"{path}: config must set manifest=<path>")
    return TrainConfig(**values)


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_metrics: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, path) -> None:
        write_atomic(path, json.dumps(self.to_dict(), indent=2, sort_keys=True).encode("utf-8"))


def _select_rows(manifest, noise: str | None) -> list[dict]:
    """The manifest's rows, only those of one noise label when given; never empty."""
    rows = read_manifest(manifest)
    if noise is not None:
        rows = [r for r in rows if r.get("noise") == noise]
    if not rows:
        raise ValueError(f"no pairs in {manifest}" + (f" for noise={noise}" if noise else ""))
    return rows


def _load_pairs(cfg: TrainConfig):
    """Stacked (inputs, targets), each pair divided by its input's max as it is read."""
    root = Path(cfg.manifest).parent
    inputs, targets = [], []
    for row in _select_rows(cfg.manifest, cfg.noise):
        path = root / row["input"]
        noisy = read_tomo_as(path, Sinogram)
        try:
            x, scale = normalize(noisy)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        inputs.append(x)
        targets.append(read_tomo_as(root / row["target"], Sinogram).data / scale)
    in_shape = inputs[0].shape
    out_shape = targets[0].shape
    if any(a.shape != in_shape for a in inputs) or any(
        t.shape != out_shape for t in targets
    ):
        raise ValueError("manifest pairs have inconsistent shapes")
    if out_shape != (VIEW_FACTOR * in_shape[0], in_shape[1]):
        raise ValueError(
            f"target shape {out_shape} is not the {VIEW_FACTOR}x-angle partner of {in_shape}"
        )
    return np.stack(inputs), np.stack(targets)


def _split_indices(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    order = stream(seed, 0, PURPOSE_SPLIT).permutation(n)
    n_train = n if n == 1 else min(n - 1, max(1, int(round(fraction * n))))
    return order[:n_train], order[n_train:]


def _batches(inputs, targets, order, batch_size):
    """(x, y) of each run of batch_size indices of order, as [B, 1, H, W] stacks."""
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        yield inputs[idx][:, None], targets[idx][:, None]


# glibc's mallopt parameters (malloc.h) and the values train sets
_M_TRIM_THRESHOLD, _TRIM_THRESHOLD = -1, 1 << 30
_M_MMAP_THRESHOLD, _MMAP_THRESHOLD = -3, 32 << 20


def _libc():
    return ctypes.CDLL(None)


@functools.cache
def _keep_freed_heap() -> None:
    """Keep the heap a training step frees for the next step, once per process.

    A step frees nearly all it allocates. With glibc's default thresholds the
    freed top of the heap is returned to the OS after every step and faulted
    back in by the next, thousands of minor page faults a step; fixed
    thresholds keep it mapped. A libc without mallopt is left as it is.
    """
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def train(cfg: TrainConfig, verbose: bool = True) -> tuple[UNet, TrainHistory]:
    """Fit the network on manifest pairs; returns (model, history).

    The checkpoint at cfg.checkpoint_path always holds the weights of the
    best-validation epoch seen so far. On glibc, the process keeps freed
    heap for reuse from the first call on. numpy's BLAS runs on one thread
    from here on, so the weights do not depend on the thread count.
    """
    t0 = time.perf_counter()
    _keep_freed_heap()
    ag.use_one_blas_thread()
    inputs, targets = _load_pairs(cfg)
    n = len(inputs)
    train_idx, val_idx = _split_indices(n, cfg.split_fraction, cfg.seed)
    model = UNet(UNetConfig(cfg.base_channels), seed=cfg.seed)
    history = TrainHistory()
    best_weights = None
    for epoch in range(cfg.epochs):
        order = train_idx[stream(cfg.seed, epoch, PURPOSE_SHUFFLE).permutation(len(train_idx))]
        losses = []
        for x, y in _batches(inputs, targets, order, cfg.batch_size):
            out = model.forward(x, training=True)
            loss = ag.mse_loss(out, ag.Tensor(y))
            loss.backward()
            ag.adam_step(model.parameters(), lr=cfg.learning_rate)
            losses.append(float(loss.data))
        train_loss = float(np.mean(losses))
        val_loss, val_report = _validate(model, inputs, targets, val_idx, cfg.batch_size)
        if val_loss is None:
            val_loss = train_loss  # single-pair runs have no held-out data
        history.train_loss.append(train_loss)
        history.val_loss.append(val_loss)
        history.val_metrics.append(val_report)
        if val_loss < history.best_val_loss:
            history.best_val_loss = val_loss
            history.best_epoch = epoch
            best_weights = {k: p.data.copy() for k, p in model.params.items()}
            if cfg.checkpoint_path:
                save_checkpoint(model, cfg.checkpoint_path)
        if verbose:
            print(f"epoch {epoch}: train {train_loss:.6f} val {val_loss:.6f}")
    if best_weights is not None:
        for k, p in model.params.items():
            p.data = best_weights[k]
    history.seconds = time.perf_counter() - t0
    if cfg.history_path:
        history.save(cfg.history_path)
    return model, history


def _validate(model, inputs, targets, val_idx, batch_size):
    if len(val_idx) == 0:
        return None, {}
    losses, reports = [], []
    for x, y in _batches(inputs, targets, val_idx, batch_size):
        pred = model.predict(x)
        losses.append(float(np.mean((pred - y) ** 2)))
        reports += [MetricsReport.from_pair(y[k, 0], pred[k, 0]) for k in range(len(y))]
    return float(np.mean(losses)), _mean_scores(reports)


def _mean_scores(reports: list[MetricsReport]) -> dict[str, float]:
    """Each score's mean over reports, keyed by its name."""
    return {key: float(np.mean([getattr(r, key) for r in reports])) for key in SCORES}


def model_predictor(model: UNet):
    """predict(noisy sinogram array) -> denoised 4x-angle array, count units."""

    def predict(noisy: np.ndarray) -> np.ndarray:
        x, scale = normalize(noisy)
        out = model.predict(x[None, None])[0, 0]
        return denormalize(out, scale)

    return predict


def replication_predictor():
    """Baseline: each measured view fills its own slot and the next VIEW_FACTOR - 1."""

    def predict(noisy: np.ndarray) -> np.ndarray:
        return np.repeat(np.asarray(noisy, dtype=np.float32), VIEW_FACTOR, axis=0)

    return predict


@dataclass(frozen=True)
class EvalResult:
    sinogram: MetricsReport
    recon: MetricsReport | None = None
    recon_standard: MetricsReport | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def compare(
    predict,
    noisy: Sinogram,
    target: Sinogram,
    phantom: Image | None = None,
    recon_config: ReconConfig | None = None,
) -> tuple[Sinogram, EvalResult, tuple[Image, Image] | None]:
    """The paper's comparison for one noisy sparse-view sinogram.

    Returns (predicted sinogram, scores vs the clean target, recons). Given
    a phantom, recons is (OSEM of the prediction, OSEM of the noisy input),
    scored against it as scores.recon and scores.recon_standard.
    """
    pred = np.asarray(predict(noisy.data), dtype=np.float32)
    if pred.shape != target.data.shape:
        raise ValueError(
            f"prediction shape {pred.shape} does not match target {target.data.shape}"
        )
    predicted = replace(target, data=np.maximum(pred, 0.0))
    sino_report = MetricsReport.from_pair(target.data, pred)
    if phantom is None:
        return predicted, EvalResult(sino_report), None
    cfg = recon_config or ReconConfig(image_size=phantom.data.shape[0])
    recons = (osem(predicted, cfg), osem(noisy, cfg))
    recon, standard = (MetricsReport.from_pair(phantom.data, r.data) for r in recons)
    return predicted, EvalResult(sino_report, recon, standard), recons


def evaluate(
    predict,
    manifest,
    noise: str | None = None,
    include_recon: bool = False,
    recon_config: ReconConfig | None = None,
) -> EvalResult:
    """Score predict() over manifest pairs; read-only on the predictor.

    Sinogram-space: prediction vs the clean dense-view target. With
    include_recon, image-space too: OSEM of the prediction and OSEM of
    the raw sparse-view input, each scored against the phantom.
    """
    root = Path(manifest).parent
    pair_reports = []  # per pair: the sinogram, recon and recon_standard reports
    for row in _select_rows(manifest, noise):
        phantom = read_tomo_as(root / row["phantom"], Image) if include_recon else None
        _, result, _ = compare(
            predict,
            read_tomo_as(root / row["input"], Sinogram),
            read_tomo_as(root / row["target"], Sinogram),
            phantom,
            recon_config,
        )
        pair_reports.append((result.sinogram, result.recon, result.recon_standard))
    meta = {"noise": noise or "all", "n_pairs": len(pair_reports)}
    return EvalResult(*(
        None if reports[0] is None else MetricsReport(**_mean_scores(reports), metadata=dict(meta))
        for reports in zip(*pair_reports)
    ))

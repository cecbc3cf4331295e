"""Sinogram-domain view synthesis for count-limited parallel-beam tomography.

The package covers the full loop: phantom simulation, forward projection,
Poisson degradation, a convolutional view-upsampling network trained with a
self-contained autograd, OSEM reconstruction, and image quality metrics.
"""

from .geometry import Image, Sinogram, fov_mask, fov_radius
from .io_formats import (
    BadMagicError,
    RawImportError,
    TomoFormatError,
    TruncatedFileError,
    UnsupportedVersionError,
    export_pgm,
    import_raw,
    read_manifest,
    read_tomo,
    write_manifest,
    write_tomo,
)
from .metrics import MetricsReport, format_table, mape, mse, psnr, ssim
from .osem import ReconConfig, log_likelihood, mlem, osem
from .projector import ParallelProjector, get_projector, project
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
    EvalResult,
    TrainConfig,
    TrainHistory,
    compare,
    denormalize,
    evaluate,
    load_train_config,
    model_predictor,
    normalize,
    replication_predictor,
    train,
)
from .unet import UNet, UNetConfig, load_checkpoint, save_checkpoint

__version__ = "0.1.0"

__all__ = [
    "BadMagicError",
    "EvalResult",
    "Image",
    "MetricsReport",
    "NOISE_LEVELS",
    "ParallelProjector",
    "PhantomRecipe",
    "RawImportError",
    "ReconConfig",
    "Sinogram",
    "TomoFormatError",
    "TrainConfig",
    "TrainHistory",
    "TruncatedFileError",
    "UNet",
    "UNetConfig",
    "UnsupportedVersionError",
    "apply_poisson",
    "compare",
    "denormalize",
    "evaluate",
    "export_pgm",
    "format_table",
    "fov_mask",
    "fov_radius",
    "generate_phantom",
    "get_projector",
    "import_raw",
    "load_checkpoint",
    "load_train_config",
    "log_likelihood",
    "make_dataset",
    "mape",
    "mlem",
    "model_predictor",
    "mse",
    "normalize",
    "osem",
    "project",
    "psnr",
    "read_manifest",
    "read_tomo",
    "replication_predictor",
    "save_checkpoint",
    "shepp_logan",
    "ssim",
    "subsample_views",
    "train",
    "write_manifest",
    "write_tomo",
    "__version__",
]

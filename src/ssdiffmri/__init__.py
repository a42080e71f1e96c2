"""Self-supervised consistency-guided diffusion toolkit for CS-MRI phantoms."""

from .diffusion import NoiseSchedule, make_schedule
from .kspace import EncodingOperator, encode, fft2c, ifft2c, zero_filled
from .masks import MaskPartition, SamplingMask, apply_mask, make_random_mask, partition_mask
from .metrics import nmse, psnr, ssim
from .pipeline import ReconResult, SliceData, TrainConfig, Trainer, dc_project, reconstruct
from .stats import anova_oneway, bootstrap_ci, tukey_hsd
from .tensorio import generate_phantom, generate_sensitivities, read_tensor, write_tensor

__version__ = "0.1.0"

__all__ = [
    "EncodingOperator", "MaskPartition", "NoiseSchedule", "ReconResult",
    "SamplingMask", "SliceData", "TrainConfig", "Trainer",
    "anova_oneway", "apply_mask", "bootstrap_ci", "dc_project", "encode",
    "fft2c", "generate_phantom", "generate_sensitivities",
    "ifft2c", "make_random_mask", "make_schedule", "nmse", "partition_mask",
    "psnr", "read_tensor", "reconstruct", "ssim", "tukey_hsd", "write_tensor",
    "zero_filled",
]

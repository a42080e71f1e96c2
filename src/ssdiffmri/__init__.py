"""Self-supervised consistency-guided diffusion toolkit for CS-MRI phantoms."""

import ctypes

from .diffusion import NoiseSchedule, make_schedule
from .kspace import EncodingOperator, encode, fft2c, ifft2c, zero_filled
from .masks import SamplingMask, make_random_mask, partition_mask
from .metrics import nmse, psnr, ssim
from .pipeline import ReconResult, SliceData, TrainConfig, Trainer, dc_project, reconstruct
from .stats import anova_oneway, bootstrap_ci, tukey_hsd
from .tensorio import generate_phantom, generate_sensitivities, read_tensor, write_tensor

__version__ = "0.1.0"

__all__ = [
    "EncodingOperator", "NoiseSchedule", "ReconResult",
    "SamplingMask", "SliceData", "TrainConfig", "Trainer",
    "anova_oneway", "bootstrap_ci", "dc_project", "encode",
    "fft2c", "generate_phantom", "generate_sensitivities",
    "ifft2c", "make_random_mask", "make_schedule", "nmse", "partition_mask",
    "psnr", "read_tensor", "reconstruct", "ssim", "tukey_hsd", "write_tensor",
    "zero_filled",
]

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _fix_malloc_thresholds():
    """On glibc, serve blocks under 4 MiB from the heap and hand its free
    top back to the system only beyond 8 MiB; elsewhere a no-op.

    glibc's defaults raise both thresholds only when a mapped block is
    freed, so whether a step's temporaries fault in again on every call
    depended on which arrays the process had freed before: a desk
    reconstruction (64x64, 4 coils, hidden 24) peaks 1.7 MB above its
    inputs and faulted 650-1050 pages back in per call, or a few dozen
    after some 3.2 MB array had been freed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 8 << 20)


_fix_malloc_thresholds()

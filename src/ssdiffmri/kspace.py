"""Centered orthonormal 2-D Fourier operators and the coil encoding operator.

The encoding operator A maps images ``(..., H, W)`` to coil k-space
``(..., coils, H, W)``: ``A x = mask * fft2c(S * x)``. Its adjoint
``A^H y = sum_c conj(S_c) * ifft2c(mask * y_c)`` combines coil k-space back
into images. The column mask broadcasts over the trailing axis, so one
``(W,)`` mask serves a single slice and a stacked ``(B, 1, 1, W)`` mask
gives every slice of a batch its own. With orthonormal FFT scaling the
adjoint equals the inverse on a full mask, which keeps the operator tests
exact. These two functions are the only code that pairs the sensitivities
with an FFT.
"""

from dataclasses import dataclass

import numpy as np

from .masks import SamplingMask

_AXES = (-2, -1)


def fft2c(img):
    """Centered, orthonormally scaled 2-D DFT over the trailing two axes."""
    img = np.asarray(img)
    if img.ndim < 2:
        raise ValueError(f"fft2c expects at least 2 axes, got shape {img.shape}")
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(img, axes=_AXES), norm="ortho"),
                           axes=_AXES)


def ifft2c(ks):
    """Exact inverse of :func:`fft2c` under the same scaling."""
    ks = np.asarray(ks)
    if ks.ndim < 2:
        raise ValueError(f"ifft2c expects at least 2 axes, got shape {ks.shape}")
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(ks, axes=_AXES), norm="ortho"),
                           axes=_AXES)


def forward_op(x, sens, cols=None):
    """A: images (..., H, W) to coil k-space (..., coils, H, W), zero outside
    the sampled columns ``cols`` (a boolean column mask; None keeps all)."""
    ks = fft2c(sens * np.asarray(x)[..., None, :, :])
    return ks if cols is None else np.where(cols, ks, 0)


def adjoint_op(y, sens, cols=None):
    """A^H: coil k-space (..., coils, H, W) to images (..., H, W).

    The coil sum starts from zero and adds the coils in order, so its
    rounding matches a sequential per-coil accumulation.
    """
    if cols is not None:
        y = np.where(cols, y, 0)
    return np.sum(np.conj(sens) * ifft2c(y), axis=-3, initial=0.0)


@dataclass(frozen=True)
class EncodingOperator:
    """Coil sensitivities plus a column mask, tied to one image geometry."""

    sens: np.ndarray             # complex, (coils, rows, cols)
    mask: SamplingMask
    rows: int
    cols: int

    def __post_init__(self):
        sens = np.asarray(self.sens, dtype=np.complex128)
        object.__setattr__(self, "sens", sens)
        if sens.ndim != 3 or sens.shape[1:] != (self.rows, self.cols):
            raise ValueError(
                f"sens shape {sens.shape} does not match {self.rows}x{self.cols}"
            )
        if self.mask.width != self.cols:
            raise ValueError(
                f"mask width {self.mask.width} does not match cols {self.cols}"
            )


def encode(x, op):
    """Forward encoding: masked coil k-space of one image or a stack."""
    x = np.asarray(x)
    if x.shape[-2:] != (op.rows, op.cols):
        raise ValueError(f"image shape {x.shape} does not match operator")
    return forward_op(x, op.sens, op.mask.sampled)


def zero_filled(y, op):
    """Adjoint encoding sum_c conj(S_c) * ifft2c(mask * y_c): the zero-filled
    SENSE combine of masked k-space (the no-learning baseline)."""
    y = np.asarray(y)
    if y.shape[-3:] != op.sens.shape:
        raise ValueError(f"k-space shape {y.shape} does not match operator")
    return adjoint_op(y, op.sens, op.mask.sampled)


def add_measurement_noise(y, std, seed=0):
    """Add complex Gaussian noise with per-component standard deviation `std`."""
    if std < 0:
        raise ValueError("noise std must be >= 0")
    if std == 0:
        return np.asarray(y, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    y = np.asarray(y, dtype=np.complex128)
    noise = rng.normal(scale=std, size=y.shape) + 1j * rng.normal(scale=std, size=y.shape)
    return y + noise

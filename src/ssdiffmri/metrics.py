"""Image quality metrics: NMSE, PSNR, and windowed SSIM.

Complex images are compared on their magnitudes. SSIM uses a Gaussian
11x11 window (sigma 1.5) over the valid interior, with the stabilizing
constants ``(0.01 * peak)^2`` and ``(0.03 * peak)^2``. The window is the
outer product of its normalized 1-D taps, so the window means are two 1-D
passes, along rows and then along columns.
"""

import numpy as np

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5


def _magnitudes(y, y_hat):
    y = np.asarray(y)
    y_hat = np.asarray(y_hat)
    if y.shape != y_hat.shape:
        raise ValueError(f"shape mismatch {y.shape} vs {y_hat.shape}")
    # complex64 is widened first: its np.abs would run in float32
    return np.abs(np.asarray(y, np.complex128)), np.abs(np.asarray(y_hat, np.complex128))


def nmse(y, y_hat):
    """Squared error of the magnitudes normalized by the reference energy."""
    ym, yhm = _magnitudes(y, y_hat)
    denom = float(np.sum(ym**2))
    if denom == 0.0:
        raise ValueError("reference image has zero norm")
    return float(np.sum((ym - yhm) ** 2)) / denom


def psnr(y, y_hat):
    """Peak signal-to-noise ratio in dB; identical images give +inf."""
    ym, yhm = _magnitudes(y, y_hat)
    peak = float(ym.max())
    if peak <= 0.0:
        raise ValueError("reference maximum must be positive")
    mse = float(np.mean((ym - yhm) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak**2 / mse))


def _gaussian_taps(size, sigma):
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2.0 * sigma**2))
    return g / g.sum()


def _window_means(maps, taps):
    """Weighted window means of each (..., H, W) map over all fully interior
    positions: the 1-D taps along rows, then along columns."""
    k = taps.size
    rows = np.lib.stride_tricks.sliding_window_view(maps, k, axis=-1) @ taps
    return np.lib.stride_tricks.sliding_window_view(rows, k, axis=-2) @ taps


def ssim(y, y_hat):
    """Mean structural similarity over Gaussian-weighted sliding windows."""
    ym, yhm = _magnitudes(y, y_hat)
    if ym.ndim != 2:
        raise ValueError("ssim expects 2-D images")
    if min(ym.shape) < SSIM_WINDOW:
        raise ValueError(
            f"images must be at least {SSIM_WINDOW}x{SSIM_WINDOW} for ssim"
        )
    peak = float(ym.max())
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2

    taps = _gaussian_taps(SSIM_WINDOW, SSIM_SIGMA)
    mu_y, mu_h, ey2, eh2, eyh = _window_means(
        np.stack([ym, yhm, ym * ym, yhm * yhm, ym * yhm]), taps)
    var_y = ey2 - mu_y**2
    var_h = eh2 - mu_h**2
    cov = eyh - mu_y * mu_h

    num = (2.0 * mu_y * mu_h + c1) * (2.0 * cov + c2)
    den = (mu_y**2 + mu_h**2 + c1) * (var_y + var_h + c2)
    return float(np.mean(num / den))

import numpy as np
import pytest

from ssdiffmri.metrics import SSIM_SIGMA, SSIM_WINDOW, nmse, psnr, ssim


def naive_ssim(y, yh):
    """Loop-based windowed SSIM written independently of the implementation."""
    y = np.abs(np.asarray(y, dtype=float))
    yh = np.abs(np.asarray(yh, dtype=float))
    k, sig = SSIM_WINDOW, SSIM_SIGMA
    half = (k - 1) / 2.0
    g = np.exp(-((np.arange(k) - half) ** 2) / (2 * sig**2))
    w = np.outer(g, g)
    w /= w.sum()
    peak = y.max()
    c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2
    vals = []
    for i in range(y.shape[0] - k + 1):
        for j in range(y.shape[1] - k + 1):
            a = y[i:i + k, j:j + k]
            b = yh[i:i + k, j:j + k]
            mu_a = (w * a).sum()
            mu_b = (w * b).sum()
            var_a = (w * a * a).sum() - mu_a**2
            var_b = (w * b * b).sum() - mu_b**2
            cov = (w * a * b).sum() - mu_a * mu_b
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                        / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)))
    return float(np.mean(vals))


def window2d_ssim(y, yh):
    """SSIM with the 11x11 window applied as one 2-D weighted sum per
    position, in vectorized form (the reference for the two 1-D passes)."""
    y, yh = np.abs(y), np.abs(yh)
    k, sig = SSIM_WINDOW, SSIM_SIGMA
    half = (k - 1) / 2.0
    g = np.exp(-((np.arange(k) - half) ** 2) / (2 * sig**2))
    w = np.outer(g, g)
    w /= w.sum()

    def means(img):
        win = np.lib.stride_tricks.sliding_window_view(img, (k, k))
        return np.einsum("hwij,ij->hw", win, w)

    peak = y.max()
    c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2
    mu_a, mu_b = means(y), means(yh)
    var_a, var_b = means(y * y) - mu_a**2, means(yh * yh) - mu_b**2
    cov = means(y * yh) - mu_a * mu_b
    return float(np.mean(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                         / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))))


class TestNMSE:
    def test_identical(self):
        y = np.arange(12.0).reshape(3, 4) + 1
        assert nmse(y, y) == 0.0

    def test_zero_estimate(self):
        y = np.arange(12.0).reshape(3, 4) + 1
        assert nmse(y, np.zeros_like(y)) == pytest.approx(1.0)

    def test_hand_values(self):
        assert nmse(np.array([3.0, 4.0]), np.array([0.0, 0.0])) == pytest.approx(1.0)
        assert nmse(np.array([3.0, 4.0]), np.array([3.0, 0.0])) == pytest.approx(0.64)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((8, 8)) + 2
        yh = y + 0.1 * rng.standard_normal((8, 8))
        for c in (2.0, -3.5, 0.01):
            assert nmse(c * y, c * yh) == pytest.approx(nmse(y, yh), rel=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            nmse(np.zeros((2, 2)), np.ones((2, 2)))

    def test_complex_magnitudes(self):
        y = np.array([3.0 + 4.0j, 0.0])
        yh = np.array([5.0, 0.0])
        # |3+4i| == 5, so magnitudes agree exactly
        assert nmse(y, yh) == pytest.approx(0.0, abs=1e-15)


class TestPSNR:
    def test_mse_equals_peak_squared(self):
        y = np.array([[1.0, 1.0], [1.0, 1.0]])
        yh = np.array([[0.0, 2.0], [0.0, 2.0]])
        assert psnr(y, yh) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value_20db(self):
        y = np.zeros((10, 10))
        y[0, 0] = 1.0
        yh = y.copy()
        yh += 0.1  # MSE 0.01 with peak 1
        assert psnr(y, yh) == pytest.approx(20.0, rel=1e-9)

    def test_identical_infinite(self):
        y = np.random.default_rng(1).random((4, 4)) + 0.5
        assert psnr(y, y) == float("inf")

    def test_shift_leaves_mse_unchanged(self):
        rng = np.random.default_rng(2)
        y = rng.random((6, 6)) + 1
        yh = y + 0.05 * rng.standard_normal((6, 6))
        mse_a = np.mean((np.abs(y) - np.abs(yh)) ** 2)
        mse_b = np.mean((np.abs(y + 3) - np.abs(yh + 3)) ** 2)
        assert mse_a == pytest.approx(mse_b, rel=1e-12)


class TestSSIM:
    def test_identical_unity(self):
        rng = np.random.default_rng(3)
        y = rng.random((16, 16)) + 0.1
        assert ssim(y, y) == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated_negative(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((16, 16))
        y -= y.mean()
        # compare on signed values is not possible (magnitudes); build an
        # anticorrelated pair directly in magnitude space instead
        a = np.abs(y) + 1.0
        b = 2 * a.mean() - a  # reflected around the mean, same range
        assert ssim(a, b) < 0.5
        # covariance term sign: structural similarity must drop well below 1
        assert ssim(a, b) < ssim(a, a)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            y = rng.random((16, 16)) + 0.2
            yh = y + 0.08 * rng.standard_normal((16, 16))
            assert ssim(y, yh) == pytest.approx(naive_ssim(y, yh), abs=1e-4)

    @pytest.mark.parametrize("shape", [(64, 64), (40, 64), (64, 40), (11, 11), (11, 30)])
    def test_separable_passes_match_the_2d_window(self, shape):
        rng = np.random.default_rng(sum(shape))
        for noise in (0.02, 0.3):
            y = rng.random(shape) + 0.2 * np.exp(1j * rng.uniform(0, 6, shape))
            yh = y + noise * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            want = window2d_ssim(y, yh)
            assert abs(ssim(y, yh) - want) <= 1e-12 * abs(want)

    def test_small_image_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.ones((8, 8)), np.ones((8, 8)))

    def test_zero_mean_anticorrelation_sign(self):
        # pure anticorrelated textures push the covariance term negative
        rng = np.random.default_rng(7)
        base = rng.standard_normal((20, 20))
        base -= base.mean()
        y = np.abs(base) + 0.5
        yh = 1.0 + (1.0 - y)
        cov = np.cov(y.ravel(), yh.ravel())[0, 1]
        assert cov < 0
        assert ssim(y, yh) < 0


@pytest.mark.parametrize("metric", [nmse, psnr, ssim])
def test_complex64_pair_scores_as_its_complex128_upcast(metric):
    rng = np.random.default_rng(12)
    y, y_hat = [(rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24)))
                .astype(np.complex64) for _ in range(2)]
    assert metric(y, y_hat) == metric(y.astype(np.complex128), y_hat.astype(np.complex128))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdiffmri.kspace import (EncodingOperator, add_measurement_noise, adjoint_op,
                              encode, encode_adjoint, fft2c, forward_op, ifft2c,
                              zero_filled)
from ssdiffmri.masks import make_random_mask, stack_columns
from ssdiffmri.metrics import nmse
from ssdiffmri.tensorio import generate_phantom, generate_sensitivities


def _rand_image(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _dft2_reference(x):
    """Direct O(N^4) centered orthonormal DFT summation, the independent oracle."""
    rows, cols = x.shape
    r = np.arange(rows) - rows // 2
    c = np.arange(cols) - cols // 2
    out = np.zeros((rows, cols), complex)
    for ki in range(rows):
        for kj in range(cols):
            kr = ki - rows // 2
            kc = kj - cols // 2
            ph = np.exp(-2j * np.pi * (kr * r[:, None] / rows + kc * c[None, :] / cols))
            out[ki, kj] = np.sum(x * ph) / np.sqrt(rows * cols)
    return out


class TestFFT:
    def test_center_impulse_to_constant(self):
        for n in (16, 17):
            img = np.zeros((n, n), complex)
            img[n // 2, n // 2] = 1.0
            K = fft2c(img)
            np.testing.assert_allclose(K, 1.0 / n, atol=1e-12)

    def test_zero_to_zero(self):
        assert np.all(fft2c(np.zeros((8, 8), complex)) == 0)
        assert np.all(ifft2c(np.zeros((8, 8), complex)) == 0)

    def test_matches_direct_dft(self):
        rng = np.random.default_rng(0)
        x = _rand_image(rng, 8, 8)
        np.testing.assert_allclose(fft2c(x), _dft2_reference(x), atol=1e-10)

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_unitarity(self, n):
        rng = np.random.default_rng(n)
        x = _rand_image(rng, n, n)
        assert abs(np.linalg.norm(fft2c(x)) - np.linalg.norm(x)) < 1e-6 * np.linalg.norm(x)

    def test_inverse(self):
        rng = np.random.default_rng(1)
        x = _rand_image(rng, 32, 24)
        np.testing.assert_allclose(ifft2c(fft2c(x)), x, atol=1e-10)

    def test_constant_kspace_to_center_impulse(self):
        c = 0.7 - 0.2j
        img = ifft2c(np.full((16, 16), c))
        assert img[8, 8] == pytest.approx(c * 16, abs=1e-10)
        off = img.copy()
        off[8, 8] = 0
        assert np.max(np.abs(off)) < 1e-10

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            fft2c(np.zeros(8, complex))
        with pytest.raises(ValueError):
            ifft2c(np.zeros(8, complex))

    def test_batched_equals_per_image(self):
        # the trailing two axes are transformed, leading axes are a batch
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 4, 16, 12)) + 1j * rng.standard_normal((3, 4, 16, 12))
        for fn in (fft2c, ifft2c):
            per = np.stack([[fn(x[b, c]) for c in range(4)] for b in range(3)])
            assert np.array_equal(fn(x), per)


@pytest.fixture
def operator():
    rows = cols = 32
    sens = generate_sensitivities(4, rows, cols, seed=2)
    mask = make_random_mask(cols, 4, 0.04, seed=3)
    return EncodingOperator(sens, mask, rows, cols)


class TestEncoding:
    def test_full_mask_single_coil_reduces_to_fft(self):
        rows = cols = 16
        sens = np.ones((1, rows, cols), complex)
        mask = make_random_mask(cols, 1, 0.04, seed=0)
        op = EncodingOperator(sens, mask, rows, cols)
        rng = np.random.default_rng(0)
        x = _rand_image(rng, rows, cols)
        np.testing.assert_allclose(encode(x, op)[0], fft2c(x), atol=1e-12)
        np.testing.assert_allclose(encode_adjoint(encode(x, op), op), ifft2c(fft2c(x)),
                                   atol=1e-12)

    def test_zero_image(self, operator):
        y = encode(np.zeros((32, 32), complex), operator)
        assert np.all(y == 0)
        assert np.all(encode_adjoint(np.zeros((4, 32, 32), complex), operator) == 0)

    def test_unsampled_columns_zero(self, operator):
        rng = np.random.default_rng(4)
        y = encode(_rand_image(rng, 32, 32), operator)
        unsampled = ~operator.mask.sampled
        assert np.all(y[..., unsampled] == 0)

    def test_adjoint_inner_product(self):
        # <encode(x), y> == <x, encode_adjoint(y)> over random draws
        rng = np.random.default_rng(5)
        worst = 0.0
        for trial in range(100):
            sens = generate_sensitivities(4, 64, 64, seed=trial)
            mask = make_random_mask(64, 4, 0.04, seed=trial)
            op = EncodingOperator(sens, mask, 64, 64)
            x = _rand_image(rng, 64, 64)
            y = rng.standard_normal((4, 64, 64)) + 1j * rng.standard_normal((4, 64, 64))
            lhs = np.vdot(y, encode(x, op))
            rhs = np.vdot(encode_adjoint(y, op), x)
            worst = max(worst, abs(lhs - rhs) / (np.linalg.norm(x) * np.linalg.norm(y)))
        assert worst < 1e-6

    def test_linearity(self, operator):
        rng = np.random.default_rng(6)
        x = _rand_image(rng, 32, 32)
        z = _rand_image(rng, 32, 32)
        a, b = 1.7 - 0.3j, -0.4 + 2.2j
        np.testing.assert_allclose(encode(a * x + b * z, operator),
                                   a * encode(x, operator) + b * encode(z, operator),
                                   atol=1e-10)

    def test_shape_mismatch(self, operator):
        with pytest.raises(ValueError):
            encode(np.zeros((16, 16), complex), operator)
        with pytest.raises(ValueError):
            encode_adjoint(np.zeros((2, 32, 32), complex), operator)


class TestBatchedOperator:
    def test_per_slice_masks_match_single_slice_calls(self):
        # a stacked (B, 1, 1, W) mask gives each slice its own columns, and
        # the batched A and A^H equal per-slice calls bit for bit
        rows = cols = 32
        rng = np.random.default_rng(8)
        sens = generate_sensitivities(4, rows, cols, seed=8)
        masks = [make_random_mask(cols, 4, 0.06, seed=s) for s in range(3)]
        x = rng.standard_normal((3, rows, cols)) + 1j * rng.standard_normal((3, rows, cols))
        y = (rng.standard_normal((3, 4, rows, cols))
             + 1j * rng.standard_normal((3, 4, rows, cols)))
        ops = [EncodingOperator(sens, m, rows, cols) for m in masks]
        batch_cols = stack_columns(masks)
        assert np.array_equal(forward_op(x, sens, batch_cols),
                              np.stack([encode(x[b], op) for b, op in enumerate(ops)]))
        assert np.array_equal(adjoint_op(y, sens, batch_cols),
                              np.stack([encode_adjoint(y[b], op)
                                        for b, op in enumerate(ops)]))

    @settings(max_examples=40, deadline=None)
    @given(batch=st.integers(1, 3), coils=st.integers(1, 4),
           rows=st.integers(4, 16), cols=st.integers(4, 16),
           seed=st.integers(0, 2**32 - 1))
    def test_adjoint_identity(self, batch, coils, rows, cols, seed):
        # <A x, y> == <x, A^H y> on (B, coils, H, W) k-space, per-slice masks
        rng = np.random.default_rng(seed)
        sens = (rng.standard_normal((coils, rows, cols))
                + 1j * rng.standard_normal((coils, rows, cols)))
        mask = rng.random((batch, 1, 1, cols)) < 0.5
        x = (rng.standard_normal((batch, rows, cols))
             + 1j * rng.standard_normal((batch, rows, cols)))
        y = (rng.standard_normal((batch, coils, rows, cols))
             + 1j * rng.standard_normal((batch, coils, rows, cols)))
        lhs = np.vdot(y, forward_op(x, sens, mask))
        rhs = np.vdot(adjoint_op(y, sens, mask), x)
        scale = np.linalg.norm(x) * np.linalg.norm(y) * np.max(np.abs(sens))
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestZeroFilled:
    def test_full_mask_recovers_phantom(self):
        rows = cols = 32
        ph = generate_phantom(rows, cols, 4, seed=0)
        sens = generate_sensitivities(4, rows, cols, seed=1)
        mask = make_random_mask(cols, 1, 0.04, seed=0)
        op = EncodingOperator(sens, mask, rows, cols)
        rec = zero_filled(encode(ph, op), op)
        assert np.max(np.abs(rec - ph)) < 1e-5

    def test_undersampled_is_worse(self):
        rows = cols = 64
        ph = generate_phantom(rows, cols, 6, seed=3)
        sens = generate_sensitivities(4, rows, cols, seed=3)
        full = EncodingOperator(sens, make_random_mask(cols, 1, 0.04, seed=1),
                                rows, cols)
        under = EncodingOperator(sens, make_random_mask(cols, 4, 0.04, seed=1),
                                 rows, cols)
        nmse_full = nmse(ph, zero_filled(encode(ph, full), full))
        nmse_under = nmse(ph, zero_filled(encode(ph, under), under))
        assert nmse_under > nmse_full

    def test_zero_input(self, operator):
        assert np.all(zero_filled(np.zeros((4, 32, 32), complex), operator) == 0)


class TestNoise:
    def test_zero_std_is_identity(self):
        y = np.ones((2, 4, 4), complex)
        assert np.array_equal(add_measurement_noise(y, 0.0, seed=1), y)

    def test_noise_statistics(self):
        y = np.zeros((64, 64), complex)
        noisy = add_measurement_noise(y, 0.5, seed=2)
        assert np.std(noisy.real) == pytest.approx(0.5, rel=0.1)
        assert np.std(noisy.imag) == pytest.approx(0.5, rel=0.1)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            add_measurement_noise(np.zeros((2, 2)), -1.0)

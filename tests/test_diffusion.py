import numpy as np
import pytest

from ssdiffmri.diffusion import (forward_step, loss_weight, make_schedule,
                                 posterior_params, posterior_params_strided,
                                 sample_forward_jump, sample_yt)


@pytest.fixture
def tiny():
    return make_schedule(2, 1e-4, 0.02)


@pytest.fixture
def sched100():
    return make_schedule(100, 1e-4, 0.02)


class TestSchedule:
    def test_tiny_products(self, tiny):
        assert tiny.alpha_bar[1] == pytest.approx(0.9999, abs=1e-15)
        assert tiny.alpha_bar[2] == pytest.approx((1 - 1e-4) * (1 - 0.02), abs=1e-15)

    def test_sigma_q_sq_t1_zero(self, tiny):
        # alpha_bar_0 == 1 convention forces a zero posterior variance at t=1
        assert tiny.sigma_q_sq[1] == 0.0

    def test_alpha_bar_monotone_and_consistent(self, sched100):
        ab = sched100.alpha_bar
        assert np.all(np.diff(ab[1:]) < 0)
        direct = np.cumprod(1 - sched100.beta[1:])
        np.testing.assert_allclose(ab[1:], direct, rtol=1e-12)

    def test_beta_range_and_monotone(self, sched100):
        b = sched100.beta[1:]
        assert np.all(b > 0) and np.all(b < 1)
        assert np.all(np.diff(b) >= 0)

    def test_sigma_bounded_by_beta(self, sched100):
        s = sched100.sigma_q_sq[1:]
        assert np.all(s >= 0)
        assert np.all(s <= sched100.beta[1:] + 1e-15)

    def test_sigma_definition(self, sched100):
        # recompute the posterior variance from the raw arrays
        for t in (2, 17, 100):
            a = sched100.alpha[t]
            expect = (1 - a) * (1 - sched100.alpha_bar[t - 1]) / (1 - sched100.alpha_bar[t])
            assert sched100.sigma_q_sq[t] == pytest.approx(expect, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            make_schedule(1, 1e-4, 0.02)
        with pytest.raises(ValueError):
            make_schedule(10, 0.0, 0.02)
        with pytest.raises(ValueError):
            make_schedule(10, 0.03, 0.02)


class TestForward:
    def test_zero_noise(self, sched100):
        y = np.array([1.0, -2.0])
        out = forward_step(y, 5, np.zeros(2), sched100)
        np.testing.assert_allclose(out, np.sqrt(1 - sched100.beta[5]) * y)

    def test_pure_noise(self, sched100):
        out = forward_step(np.zeros(3), 7, np.ones(3), sched100)
        np.testing.assert_allclose(out, np.sqrt(sched100.beta[7]))

    def test_hand_value_beta_half(self):
        sched = make_schedule(2, 0.5, 0.5)
        out = forward_step(np.array(2.0), 1, np.array(1.0), sched)
        assert out == pytest.approx(2.1213203435596424, abs=1e-12)

    def test_shape_mismatch(self, sched100):
        with pytest.raises(ValueError):
            forward_step(np.zeros(2), 1, np.zeros(3), sched100)

    def test_complex_channels_independent(self, sched100):
        # complex arithmetic must equal per-channel real arithmetic
        rng = np.random.default_rng(0)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        e = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        out = forward_step(y, 3, e, sched100)
        np.testing.assert_allclose(out.real, forward_step(y.real, 3, e.real, sched100))
        np.testing.assert_allclose(out.imag, forward_step(y.imag, 3, e.imag, sched100))


class TestSampleYt:
    def test_small_noise_limit(self, sched100):
        y0 = np.full(8, 1.0 / np.sqrt(8))
        yt = sample_yt(y0, 1, np.zeros(8), sched100)
        assert np.linalg.norm(yt - y0) / np.linalg.norm(y0) < 1e-2

    def test_zero_eps(self, sched100):
        y0 = np.array([2.0, 3.0])
        np.testing.assert_allclose(sample_yt(y0, 40, np.zeros(2), sched100),
                                   np.sqrt(sched100.alpha_bar[40]) * y0)

    def test_monte_carlo_matches_iterated_chain(self, sched100):
        # Eq-by-eq equivalence: iterating single steps t times must match the
        # closed-form marginal in mean and variance
        rng = np.random.default_rng(1234)
        y0_val, t, n = 1.7, 50, 10**4
        y = np.full(n, y0_val)
        for step in range(1, t + 1):
            y = forward_step(y, step, rng.standard_normal(n), sched100)
        mean_target = np.sqrt(sched100.alpha_bar[t]) * y0_val
        var_target = 1 - sched100.alpha_bar[t]
        assert abs(y.mean() - mean_target) / mean_target < 0.02
        assert abs(y.var() - var_target) / var_target < 0.02

    def test_forward_jump_consistency(self, sched100):
        # jumping 0 -> t equals the closed form from y0
        y0 = np.array([0.3, -1.1])
        eps = np.array([0.5, 0.25])
        np.testing.assert_allclose(sample_forward_jump(y0, 0, 30, eps, sched100),
                                   sample_yt(y0, 30, eps, sched100), rtol=1e-12)


class TestPosterior:
    def test_zero_case(self, tiny):
        mu, var = posterior_params(np.zeros(3), np.zeros(3), 2, tiny)
        assert np.all(mu == 0)
        assert var > 0

    def test_scalar_oracle(self, tiny):
        # frozen from an independent scalar script (Bayes-consistent form)
        mu, var = posterior_params(np.array(1.0), np.array(1.0), 2, tiny)
        assert float(mu) == pytest.approx(0.9999997474557077, abs=1e-12)
        assert var == pytest.approx(9.951238929245574e-05, abs=1e-15)

    def test_grid_bayes_identity(self, tiny):
        # q(y_{t-1} | y_t, y0) must equal q(y_t|y_{t-1}) q(y_{t-1}|y0) / q(y_t|y0)
        def normpdf(x, m, v):
            return np.exp(-((x - m) ** 2) / (2 * v)) / np.sqrt(2 * np.pi * v)

        y0, yt = 0.7, -0.4
        grid = np.linspace(-5, 5, 2001)
        a2 = tiny.alpha[2]
        num = (normpdf(yt, np.sqrt(a2) * grid, tiny.beta[2])
               * normpdf(grid, np.sqrt(tiny.alpha_bar[1]) * y0, 1 - tiny.alpha_bar[1]))
        den = normpdf(yt, np.sqrt(tiny.alpha_bar[2]) * y0, 1 - tiny.alpha_bar[2])
        mu, var = posterior_params(np.array(yt), np.array(y0), 2, tiny)
        closed = normpdf(grid, float(mu), var)
        assert np.max(np.abs(num / den - closed)) < 1e-8

    def test_grid_bayes_identity_t50(self, sched100):
        def normpdf(x, m, v):
            return np.exp(-((x - m) ** 2) / (2 * v)) / np.sqrt(2 * np.pi * v)

        y0, yt, t = -0.2, 1.3, 50
        grid = np.linspace(-6, 6, 4001)
        ab, ab1 = sched100.alpha_bar[t], sched100.alpha_bar[t - 1]
        num = (normpdf(yt, np.sqrt(sched100.alpha[t]) * grid, sched100.beta[t])
               * normpdf(grid, np.sqrt(ab1) * y0, 1 - ab1))
        den = normpdf(yt, np.sqrt(ab) * y0, 1 - ab)
        mu, var = posterior_params(np.array(yt), np.array(y0), t, sched100)
        assert np.max(np.abs(num / den - normpdf(grid, float(mu), var))) < 1e-8

    def test_t_below_2_rejected(self, sched100):
        with pytest.raises(ValueError):
            posterior_params(np.zeros(2), np.zeros(2), 1, sched100)

    def test_strided_reduces_to_single_step(self, sched100):
        rng = np.random.default_rng(3)
        yt = rng.standard_normal(5)
        y0 = rng.standard_normal(5)
        mu_a, var_a = posterior_params(yt, y0, 10, sched100)
        mu_b, var_b = posterior_params_strided(yt, y0, 10, 9, sched100)
        assert np.array_equal(mu_a, mu_b)
        assert var_a == var_b


class TestMuFromPrediction:
    def test_perfect_prediction_bit_exact(self, sched100):
        rng = np.random.default_rng(4)
        yt = rng.standard_normal(6)
        y0 = rng.standard_normal(6)
        mu_q, _ = posterior_params(yt, y0, 30, sched100)
        mu_phi = posterior_params_strided(yt, y0, 30, 29, sched100)[0]
        assert np.array_equal(mu_q, mu_phi)

    def test_zero_prediction_drops_term(self, sched100):
        t = 20
        yt = np.array([1.0, 2.0])
        a_eff = sched100.alpha_bar[t] / sched100.alpha_bar[t - 1]
        expect = (np.sqrt(a_eff) * (1 - sched100.alpha_bar[t - 1]) * yt
                  / (1 - sched100.alpha_bar[t]))
        np.testing.assert_allclose(posterior_params_strided(yt, np.zeros(2), t, t - 1,
                                                            sched100)[0],
                                   expect, rtol=1e-12)

    def test_linear_in_prediction(self, sched100):
        rng = np.random.default_rng(5)
        yt = rng.standard_normal(4)
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        a, b = 0.3, -1.2

        def mu(y0):
            return posterior_params_strided(yt, y0, 15, 14, sched100)[0]

        lhs = mu(a * u + b * v)
        shared = mu(np.zeros(4))
        rhs = a * (mu(u) - shared) + b * (mu(v) - shared) + shared
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestLossWeight:
    def test_positive_over_default_schedule(self, sched100):
        for t in range(2, 101):
            assert loss_weight(t, sched100) > 0

    def test_scalar_oracle(self, tiny):
        # frozen from the independent scalar script
        assert loss_weight(2, tiny) == pytest.approx(102.04081632654196, rel=1e-12)

    def test_definition_recomputed(self, sched100):
        for t in (2, 33, 100):
            a = sched100.alpha[t]
            ab = sched100.alpha_bar[t]
            expect = (1 - a) ** 2 / ((1 - ab) * a) / (2 * sched100.sigma_q_sq[t])
            assert loss_weight(t, sched100) == pytest.approx(expect, rel=1e-12)

    def test_t1_rejected(self, sched100):
        with pytest.raises(ValueError):
            loss_weight(1, sched100)

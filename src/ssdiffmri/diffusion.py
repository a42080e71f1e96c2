"""Forward/reverse diffusion mathematics on a linear noise schedule.

Arrays are indexed directly by the step number t in [1, T]; index 0 holds
the conventional limits (alpha_bar_0 = 1) so t = 1 edge cases are
well-defined. All operations act elementwise and treat the real and
imaginary parts of complex inputs as independent channels, which the
complex arithmetic realizes directly. A step may be an integer array shaped
to broadcast over the data, e.g. (B, 1, 1) for one step per image of a
batch.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step variance plan beta with derived alpha products and posterior variance."""

    T: int
    beta: np.ndarray         # (T+1,), beta[0] unused placeholder 0
    alpha: np.ndarray        # 1 - beta, alpha[0] = 1
    alpha_bar: np.ndarray    # cumulative product, alpha_bar[0] = 1
    sigma_q_sq: np.ndarray   # posterior variance, sigma_q_sq[t] for t >= 1

    def check_t(self, t, lowest=1):
        if np.any(np.asarray(t) < lowest) or np.any(np.asarray(t) > self.T):
            raise ValueError(f"step t={t} outside [{lowest}, {self.T}]")


def make_schedule(T, beta_1=1e-4, beta_T=0.02):
    """Linear beta schedule from beta_1 to beta_T over T steps."""
    if T < 2:
        raise ValueError("T must be >= 2")
    if not 0 < beta_1 <= beta_T < 1:
        raise ValueError(f"need 0 < beta_1 <= beta_T < 1, got ({beta_1}, {beta_T})")
    beta = np.zeros(T + 1)
    beta[1:] = np.linspace(beta_1, beta_T, T)
    alpha = 1.0 - beta
    alpha[0] = 1.0
    alpha_bar = np.cumprod(alpha)
    sigma_q_sq = np.zeros(T + 1)
    sigma_q_sq[1:] = (1 - alpha[1:]) * (1 - alpha_bar[:-1]) / (1 - alpha_bar[1:])
    return NoiseSchedule(T=T, beta=beta, alpha=alpha, alpha_bar=alpha_bar,
                         sigma_q_sq=sigma_q_sq)


def _check_order(s, t):
    if not np.all((0 <= np.asarray(s)) & (np.asarray(s) < t)):
        raise ValueError(f"need 0 <= s < t, got s={s}, t={t}")


def _check_shapes(a, b, what):
    if np.shape(a) != np.shape(b):
        raise ValueError(f"{what}: shape mismatch {np.shape(a)} vs {np.shape(b)}")


def forward_step(y_prev, t, eps, sched):
    """One forward Markov step: sqrt(1-beta_t) y_prev + sqrt(beta_t) eps."""
    sched.check_t(t)
    _check_shapes(y_prev, eps, "forward_step")
    b = sched.beta[t]
    return np.sqrt(1.0 - b) * np.asarray(y_prev) + np.sqrt(b) * np.asarray(eps)


def sample_yt(y0, t, eps, sched):
    """Closed-form jump to step t: sqrt(abar_t) y0 + sqrt(1-abar_t) eps."""
    sched.check_t(t)
    _check_shapes(y0, eps, "sample_yt")
    ab = sched.alpha_bar[t]
    return np.sqrt(ab) * np.asarray(y0) + np.sqrt(1.0 - ab) * np.asarray(eps)


def sample_forward_jump(y_s, s, t, eps, sched):
    """Jump the forward chain from step s to step t > s in closed form.

    Marginalizing the intermediate steps gives
    ``y_t = sqrt(abar_t/abar_s) y_s + sqrt(1 - abar_t/abar_s) eps``.
    """
    sched.check_t(t)
    _check_order(s, t)
    _check_shapes(y_s, eps, "sample_forward_jump")
    a_eff = sched.alpha_bar[t] / sched.alpha_bar[s]
    return np.sqrt(a_eff) * np.asarray(y_s) + np.sqrt(1.0 - a_eff) * np.asarray(eps)


def posterior_params_strided(y_t, y0, t, s, sched):
    """Gaussian posterior of y_s given (y_t, y0) for any earlier step s < t.

    Bayes on the two forward-jump Gaussians gives mean
    ``[sqrt(a_eff)(1-abar_s) y_t + sqrt(abar_s)(1-a_eff) y0] / (1-abar_t)``
    with ``a_eff = abar_t/abar_s``, and variance
    ``(1-a_eff)(1-abar_s)/(1-abar_t)``. With s = t-1 this is the standard
    single-step denoising posterior.
    """
    sched.check_t(t)
    _check_order(s, t)
    _check_shapes(y_t, y0, "posterior")
    ab_t = sched.alpha_bar[t]
    ab_s = sched.alpha_bar[s]
    a_eff = ab_t / ab_s
    denom = 1.0 - ab_t
    mu = (np.sqrt(a_eff) * (1.0 - ab_s) * np.asarray(y_t)
          + np.sqrt(ab_s) * (1.0 - a_eff) * np.asarray(y0)) / denom
    var = (1.0 - a_eff) * (1.0 - ab_s) / denom
    return mu, var


def posterior_params(y_t, y0, t, sched):
    """Exact single-step denoising posterior mean and variance at step t >= 2."""
    sched.check_t(t, lowest=2)
    return posterior_params_strided(y_t, y0, t, t - 1, sched)


def mu_from_prediction(y_t, y0_hat, t, sched, s=None):
    """Model-side posterior mean with the prediction standing in for y0.

    Shares the posterior code path, so a perfect prediction reproduces the
    true posterior mean bit-for-bit.
    """
    if s is None:
        sched.check_t(t, lowest=2)
        s = t - 1
    mu, _ = posterior_params_strided(y_t, y0_hat, t, s, sched)
    return mu


def loss_weight(t, sched):
    """Step-dependent coefficient of the noise-space reconstruction loss."""
    sched.check_t(t, lowest=2)
    a = sched.alpha[t]
    ab = sched.alpha_bar[t]
    return (1.0 / (2.0 * sched.sigma_q_sq[t])) * (1.0 - a) ** 2 / ((1.0 - ab) * a)

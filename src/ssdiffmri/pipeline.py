"""Data-consistency projection, self-supervised training loop, and sampler.

Training never lets the model see the loss-mask columns: the model input
path is built from the train-mask data only, while the measured loss-mask
columns enter through the loss target. The training loss is the k-space
residual of the prediction on the loss columns, ``M_loss (A y0 - y)``,
with A the coil encoding operator of :mod:`kspace`. A training step runs
on the whole batch at once, each slice with its own masks. Data
consistency keeps the measured values at acquired columns and the
prediction elsewhere. Inference runs the reverse grid from a partially
noised zero-filled image, applying data consistency with the full acquired
mask at every step.
"""

import math
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .diffusion import (loss_weight, make_schedule, posterior_params_strided,
                        sample_forward_jump, sample_yt)
from .kspace import EncodingOperator, adjoint_op, forward_op, zero_filled
from .losses import LossReport, disc_loss, gen_loss, total_loss
from .masks import SamplingMask, partition_mask, stack_columns
from .metrics import nmse, psnr, ssim
from .nets import Denoiser, DenoiserSpec, Discriminator, DiscriminatorSpec, adam_step
from .stats import MetricReport


def complex_to_channels(x):
    """(..., H, W) complex -> (..., H, W, 2) float channels."""
    x = np.asarray(x)
    return np.stack([x.real, x.imag], axis=-1)


def channels_to_complex(c):
    c = np.asarray(c)
    return c[..., 0] + 1j * c[..., 1]


@dataclass
class TrainConfig:
    """Knobs of the self-supervised training and inference runs."""

    R: float = 4.0
    rho: float = 0.5
    lr: float = 2e-4
    batch_size: int = 4
    epochs: int = 25
    T: int = 100
    stride_k: int = 25
    adv_weight: float = 0.1
    init_noise_var: float = 0.1
    seed: int = 0
    beta_1: float = 1e-4
    beta_T: float = 0.02
    hidden: int = 24
    disc_width: int = 10
    dtype: str = "float32"
    t_start: int = 0                 # 0 means T // 4
    max_steps: int = 0               # 0 means no cap
    checkpoint_every: int = 500

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = (int, float) if f.type is float else f.type
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise TypeError(f"{f.name} must be {f.type.__name__}, got {value!r}")
            if f.type is float and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        if not 0 < self.rho < 1:
            raise ValueError("rho must lie in (0, 1)")
        for name in ("R", "lr", "batch_size", "epochs", "T", "stride_k", "hidden",
                     "disc_width"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("init_noise_var", "adv_weight", "seed", "max_steps",
                     "checkpoint_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if self.stride_k < 2 or 2 * self.stride_k > self.T:
            raise ValueError("stride_k must satisfy 2 <= k and 2k <= T")
        if self.T % self.stride_k != 0:
            raise ValueError("stride_k must divide T so the step grid is regular")
        if not 0 <= self.t_start <= self.T:
            raise ValueError(f"t_start must lie in [0, T={self.T}]")
        make_schedule(self.T, self.beta_1, self.beta_T)  # checks the beta bounds

    @property
    def train_grid(self):
        """Steps t with t + k still inside the schedule."""
        return list(range(self.stride_k, self.T - self.stride_k + 1, self.stride_k))

    @property
    def inference_start(self):
        return self.t_start if self.t_start else max(2, self.T // 4)

    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    def to_dict(self):
        return asdict(self)


@dataclass
class SliceData:
    """One acquired slice: masked k-space plus its sampling mask."""

    slice_id: int
    kspace: np.ndarray        # (coils, rows, cols), zero at unsampled columns
    acquired: SamplingMask


@dataclass
class ReconResult:
    image: np.ndarray
    model_calls: int
    wall_time: float
    config: dict
    final_kspace: np.ndarray = None


def build_models(cfg, n_cond_channels=2):
    den_spec = DenoiserSpec(
        channels=(2 + 1 + n_cond_channels,) + (cfg.hidden,) * 4 + (2,))
    disc_spec = DiscriminatorSpec(width=cfg.disc_width)
    dtype = cfg.np_dtype()
    return (Denoiser(den_spec, seed=cfg.seed, dtype=dtype),
            Discriminator(disc_spec, seed=cfg.seed + 1, dtype=dtype))


def _columns(mask):
    """Boolean column mask of a SamplingMask, or of a list of per-slice
    masks stacked to broadcast over a batch."""
    return mask.sampled if isinstance(mask, SamplingMask) else stack_columns(mask)


def dc_project_kspace(pred_img, measured_ks, sens, mask):
    """Coil k-space of the prediction with the measured columns swapped in.

    `mask` is one SamplingMask, or a list of them for a batch of
    predictions (B, H, W) with measurements (B, coils, H, W).
    """
    return np.where(_columns(mask), measured_ks, forward_op(pred_img, sens))


def dc_project(pred_img, measured_ks, sens, mask):
    """Data-consistency projection returned as coil-combined images."""
    pred_img = np.asarray(pred_img)
    measured_ks = np.asarray(measured_ks)
    expect = pred_img.shape[:-2] + (sens.shape[0],) + pred_img.shape[-2:]
    if measured_ks.shape != expect:
        raise ValueError("measured k-space shape does not match sens/prediction")
    return adjoint_op(dc_project_kspace(pred_img, measured_ks, sens, mask), sens)


def dc_backward(grad_img, sens, mask):
    """Adjoint of the linear part of the DC projection.

    The projection is affine in the prediction with a self-adjoint linear
    part, the normal operator A^H A of the complement mask, so the backward
    pass applies that operator to the upstream gradient.
    """
    outside = ~_columns(mask)
    return adjoint_op(forward_op(grad_img, sens, outside), sens)


def recon_loss_and_grad(y0_pred, measured_ks, sens, loss_mask, t, sched):
    """Loss-column k-space residual loss and its gradient w.r.t. the prediction.

    With ``r = M_loss (A y0_pred - y)``, the loss of each slice is
    ``w(t) abar_t / (1 - abar_t) ||r||^2 / n_kept``, which equals the
    noise-prediction loss ``recon_loss_masked`` of the loss columns (the
    noise and y_t cancel), and its gradient is
    ``2 w(t) abar_t / (1 - abar_t) / n_kept * A^H r``. For one slice `t` is
    a scalar and `loss_mask` a SamplingMask; for a batch `t` is (B, 1, 1)
    and `loss_mask` a list of masks. The loss has the shape of `t`.
    """
    cols = _columns(loss_mask)
    ab = sched.alpha_bar[t]
    n_kept = sens.shape[0] * sens.shape[1] * np.count_nonzero(cols, axis=-1)
    scale = 2.0 * loss_weight(t, sched) * (ab / (1.0 - ab)) / n_kept
    r = forward_op(y0_pred, sens, cols) - np.where(cols, measured_ks, 0)
    sq = np.reshape(np.sum(np.abs(r) ** 2, axis=(-3, -2, -1)), np.shape(t))
    return 0.5 * scale * sq, scale * adjoint_op(r, sens)


class Trainer:
    """Owns both model states and advances them one batch at a time."""

    def __init__(self, denoiser, disc, sens, cfg):
        self.denoiser = denoiser
        self.disc = disc
        self.sens = np.asarray(sens, dtype=np.complex128)
        self.cfg = cfg
        self.sched = make_schedule(cfg.T, cfg.beta_1, cfg.beta_T)

    @property
    def global_step(self):
        """Completed training steps: the denoiser's Adam step count."""
        return self.denoiser.state.step

    def _rng(self, *tags):
        return np.random.default_rng([self.cfg.seed & 0x7FFFFFFF, *tags])

    def train_step(self, batch):
        """One discriminator + generator update over a batch of slices.

        Each slice draws its partition seed, step t, and noise from its own
        stream ``[seed, 1, slice_id, step]`` (and the posterior noise from
        ``[seed, 2, slice_id, step]``); everything after the draws runs on
        the whole batch at once.

        A step is all or nothing: if it raises, both nets are restored to
        their state before it (params, Adam moments, buffers and step
        counts, so global_step too) with zero gradients, and the exception
        propagates.
        """
        states = (self.denoiser.state, self.disc.state)
        saved = [state.snapshot() for state in states]
        try:
            return self._update(batch)
        except BaseException:
            for state, snap in zip(states, saved):
                state.restore(snap)
            raise

    def _update(self, batch):
        cfg, sched, sens = self.cfg, self.sched, self.sens
        grid = cfg.train_grid
        step = self.global_step
        B = len(batch)
        k = cfg.stride_k
        shape = sens.shape[1:]

        parts, t_list, eps, eps2, z = [], [], [], [], []
        for item in batch:
            rng = self._rng(1, item.slice_id, step)
            parts.append(partition_mask(item.acquired, cfg.rho,
                                        seed=int(rng.integers(2**31))))
            t_list.append(int(grid[rng.integers(len(grid))]))
            eps.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            eps2.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            rng = self._rng(2, item.slice_id, step)
            z.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        t = np.array(t_list)[:, None, None]
        train_masks = [p.train for p in parts]
        kspace = np.stack([item.kspace for item in batch])
        ks_train = np.where(stack_columns(train_masks), kspace, 0)

        y0_in = adjoint_op(ks_train, sens)
        y_t = sample_yt(y0_in, t, np.stack(eps), sched)
        y_tk = sample_forward_jump(y_t, t, t + k, np.stack(eps2), sched)
        y_t_ch = complex_to_channels(y_t)
        y_tk_ch = complex_to_channels(y_tk)

        # generator predicts the clean image from y_t, consistency on the
        # train mask; the later step y_{t+k} anchors the fake-sample posterior
        # and conditions the discriminator
        pred_raw = self.denoiser.forward(y_t_ch, t[:, 0, 0] / cfg.T,
                                         complex_to_channels(y0_in),
                                         train=True, keep_cache=True)
        if not np.all(np.isfinite(pred_raw)):
            raise FloatingPointError(
                f"non-finite generator output at step {step} "
                f"(slices {[b.slice_id for b in batch]})")
        pred_c = channels_to_complex(np.asarray(pred_raw, np.float64))
        y0_pred = dc_project(pred_c, ks_train, sens, train_masks)
        mu, var = posterior_params_strided(y_tk, y0_pred, t + k, t, sched)
        y_hat_ch = complex_to_channels(mu + np.sqrt(var) * np.stack(z))
        ab_tk, ab_t = sched.alpha_bar[t + k], sched.alpha_bar[t]
        c_pred = np.sqrt(ab_t) * (1.0 - ab_tk / ab_t) / (1.0 - ab_tk)

        # discriminator phase: real pair, fake pair, input-gradient penalty
        d_real = self.disc.forward(y_t_ch, y_tk_ch, train=True, keep_cache=True)
        self.disc.backward(-1.0 / (B * np.clip(d_real, 1e-12, None)), input_grad=False)
        d_fake = self.disc.forward(y_hat_ch, y_tk_ch, train=True, keep_cache=True)
        self.disc.backward(1.0 / (B * np.clip(1.0 - d_fake, 1e-12, None)),
                           input_grad=False)
        # the penalty's input gradient reuses the d_fake forward cache: the
        # parameters, the batch and the train-mode BN statistics are the same
        gi = self.disc.backward(np.ones(B, self.disc.dtype), accumulate=False)[..., :2]
        pen = np.sum(np.asarray(gi, np.float64) ** 2, axis=(1, 2, 3))
        self.disc.penalty_param_grads(y_hat_ch, y_tk_ch, gi, scale=1.0 / B,
                                      train=True)
        l_d = disc_loss(d_real, d_fake, pen)
        adam_step(self.disc.state, cfg.lr)

        # generator phase against the updated, frozen discriminator
        d_fake2 = self.disc.forward(y_hat_ch, y_tk_ch, train=False, keep_cache=True)
        l_g = gen_loss(d_fake2)
        g_adv_ch = self.disc.backward(
            -cfg.adv_weight / (B * np.clip(d_fake2, 1e-12, None)),
            accumulate=False)[..., :2]
        g_adv = channels_to_complex(np.asarray(g_adv_ch, np.float64))

        l_rec, g_rec = recon_loss_and_grad(y0_pred, kspace, sens,
                                           [p.loss for p in parts], t, sched)
        l_recon = float(np.sum(l_rec)) / B
        g_y0 = g_rec / B + c_pred * g_adv
        self.denoiser.backward(complex_to_channels(dc_backward(g_y0, sens, train_masks)))
        adam_step(self.denoiser.state, cfg.lr)

        l_final = total_loss(l_recon, l_d, l_g, cfg.adv_weight)
        if not np.isfinite(l_final):
            raise FloatingPointError(
                f"non-finite loss at step {step}: recon={l_recon} d={l_d} g={l_g}")
        report = LossReport(l_recon=l_recon, l_disc=float(l_d),
                            l_gen=float(l_g), l_final=float(l_final),
                            t=t_list[0], slice_id=batch[0].slice_id, step=step)
        return report

    def fit(self, slices, log=None):
        """Epoch loop with a seeded slice order; stops at max_steps if set.

        Each step's epoch and batch follow from global_step, so a resumed
        run continues the schedule of an uninterrupted one exactly.
        """
        cfg = self.cfg
        reports = []
        n = len(slices)
        steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
        last = min(cfg.epochs * steps_per_epoch, cfg.max_steps or np.inf)
        while self.global_step < last:
            epoch, bi = divmod(self.global_step, steps_per_epoch)
            order = self._rng(3, epoch).permutation(n)
            lo = bi * cfg.batch_size
            rep = self.train_step([slices[i] for i in order[lo:lo + cfg.batch_size]])
            reports.append(rep)
            if log is not None:
                log(rep)
        return reports


def reconstruct(measured_ks, acquired, sens, model, sched, cfg, seed=0,
                allow_untrained=False):
    """Reverse-grid sampler from a partially noised zero-filled start.

    Each grid step predicts the clean image, projects it onto the measured
    data with the full acquired mask, and draws the next iterate from the
    strided posterior (mean only on the final step). A closing projection
    pins the acquired columns exactly.
    """
    state = getattr(model, "state", None)
    if state is not None and state.step == 0 and not allow_untrained:
        raise RuntimeError("model has no training steps; pass allow_untrained=True "
                           "to sample from an untrained model")
    t0 = time.perf_counter()
    sens = np.asarray(sens, dtype=np.complex128)
    op = EncodingOperator(sens, acquired, sens.shape[1], sens.shape[2])
    zf = zero_filled(measured_ks, op)
    rng = np.random.default_rng([seed & 0x7FFFFFFF, 4])
    std = np.sqrt(cfg.init_noise_var)
    y = zf + std * (rng.standard_normal(zf.shape) + 1j * rng.standard_normal(zf.shape))
    cond_ch = complex_to_channels(zf[None])

    ts = list(range(cfg.inference_start, 1, -cfg.stride_k))
    calls = 0
    for t in ts:
        pred_ch = model.forward(complex_to_channels(y[None]), np.array([t / cfg.T]),
                                cond_ch, train=False)
        calls += 1
        pred = channels_to_complex(np.asarray(pred_ch, np.float64))[0]
        y0_hat = dc_project(pred, measured_ks, sens, acquired)
        s = t - cfg.stride_k if t - cfg.stride_k >= 2 else 0
        if s == 0:
            y = y0_hat
            break
        mu, var = posterior_params_strided(y, y0_hat, t, s, sched)
        z = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
        y = mu + np.sqrt(var) * z
        if not np.all(np.isfinite(y)):
            raise FloatingPointError(f"non-finite sampler state at step {t}")

    final_ks = dc_project_kspace(y, measured_ks, sens, acquired)
    image = adjoint_op(final_ks, sens)
    if not (np.all(np.isfinite(final_ks)) and np.all(np.isfinite(image))):
        raise FloatingPointError("non-finite reconstruction")
    return ReconResult(image=image, model_calls=calls,
                       wall_time=time.perf_counter() - t0,
                       config=cfg.to_dict(), final_kspace=final_ks)


def evaluate_run(recons, truths, method="recon", n_boot=10000, seed=0):
    """Per-slice metrics plus bootstrap aggregates for paired image lists."""
    if len(recons) != len(truths):
        raise ValueError(f"got {len(recons)} recons for {len(truths)} truths")
    nm, ps, ss = [], [], []
    for r, t in zip(recons, truths):
        nm.append(nmse(t, r))
        ps.append(psnr(t, r))
        ss.append(ssim(t, r))
    report = MetricReport(method=method, nmse=np.array(nm), psnr=np.array(ps),
                          ssim=np.array(ss))
    return report.finalize(n_boot=n_boot, seed=seed)

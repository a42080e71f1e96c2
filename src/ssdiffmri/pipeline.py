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

from .diffusion import (loss_weight, make_schedule, posterior_coefficients,
                        posterior_params_strided, sample_forward_jump, sample_yt)
from .kspace import adjoint_op, forward_op
from .losses import LossReport, disc_loss, gen_loss, total_loss
from .masks import partition_mask
from .metrics import nmse, psnr, ssim
from .nets import Denoiser, Discriminator, adam_step
from .stats import MetricReport


def complex_normal(rng, shape):
    """Standard complex Gaussian noise: the real parts drawn from `rng`
    before the imaginary ones."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@dataclass
class TrainConfig:
    """Knobs of the self-supervised training and inference runs. A bad
    value raises TypeError or ValueError whose message starts with the
    field's name."""

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
    t_start: int = 0                 # 0 means T // 4; else at least 2
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
        if not (self.t_start == 0 or 2 <= self.t_start <= self.T):
            raise ValueError(f"t_start must be 0 (T // 4) or lie in [2, T={self.T}]")
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


class SliceData:
    """One acquired slice: its measured k-space columns and sampling mask.

    Only what was measured is stored: ``columns`` is the (coils, rows,
    n_acquired) copy of ``kspace[..., acquired.sampled]`` in the dtype it was
    given, next to the full ``shape``. Each read of ``kspace`` rebuilds the
    zero-filled (coils, rows, cols) array in complex128, read-only. A
    non-zero value outside the acquired columns, which would be dropped, is
    a ValueError, as is a last axis that does not match the mask width.
    """

    def __init__(self, slice_id, kspace, acquired):
        kspace = np.asarray(kspace)
        cols = acquired.sampled
        if kspace.shape[-1:] != cols.shape:
            raise ValueError(f"slice {slice_id}: k-space of shape {kspace.shape} "
                             f"does not match the mask width {cols.size}")
        if np.any(kspace[..., ~cols]):
            raise ValueError(f"slice {slice_id}: k-space is non-zero outside "
                             "the acquired columns")
        self.slice_id = slice_id
        self.acquired = acquired
        self.columns = kspace[..., cols]
        self.shape = kspace.shape

    @property
    def kspace(self):
        """The zero-filled k-space, (coils, rows, cols) complex128."""
        ks = np.zeros(self.shape, np.complex128)
        ks[..., self.acquired.sampled] = self.columns
        ks.flags.writeable = False
        return ks


@dataclass
class ReconResult:
    image: np.ndarray
    model_calls: int
    wall_time: float
    final_kspace: np.ndarray


def build_models(cfg):
    dtype = cfg.np_dtype()
    return (Denoiser(cfg.hidden, seed=cfg.seed, dtype=dtype),
            Discriminator(cfg.disc_width, seed=cfg.seed + 1, dtype=dtype))


def dc_project_kspace(pred_img, measured_ks, sens, cols):
    """Coil k-space of the prediction with the measured columns swapped in.

    `cols` is a boolean column mask: (W,) for one prediction (H, W), or
    (B, 1, 1, W), one row per slice, for a batch of predictions (B, H, W)
    with measurements (B, coils, H, W).
    """
    return np.where(cols, measured_ks, forward_op(pred_img, sens))


def dc_project(pred_img, measured_ks, sens, cols):
    """Data-consistency projection returned as coil-combined images."""
    pred_img = np.asarray(pred_img)
    measured_ks = np.asarray(measured_ks)
    expect = pred_img.shape[:-2] + (sens.shape[0],) + pred_img.shape[-2:]
    if measured_ks.shape != expect:
        raise ValueError("measured k-space shape does not match sens/prediction")
    return adjoint_op(dc_project_kspace(pred_img, measured_ks, sens, cols), sens)


def dc_backward(grad_img, sens, cols):
    """Adjoint of the linear part of the DC projection with the column
    mask `cols`, shaped as for `dc_project_kspace`.

    The projection is affine in the prediction with a self-adjoint linear
    part, the normal operator A^H A of the complement mask, so the backward
    pass applies that operator to the upstream gradient.
    """
    return adjoint_op(forward_op(grad_img, sens, ~cols), sens)


def predict_clean(model, y, t_frac, cond, measured_ks, sens, cols, keep_cache=False):
    """The generator: the model's clean image from noisy images `y` (B, H, W)
    at step fractions `t_frac` given images `cond`, projected onto
    `measured_ks` (B, coils, H, W) at the train or acquired columns `cols`."""
    pred = model.forward(y, t_frac, cond, keep_cache=keep_cache)
    return dc_project(pred, measured_ks, sens, cols)


def recon_loss_and_grad(y0_pred, measured_ks, sens, loss_cols, t, sched):
    """Loss-column k-space residual loss and its gradient w.r.t. the prediction.

    With ``r = M_loss (A y0_pred - y)``, the loss of each slice is
    ``w(t) abar_t / (1 - abar_t) ||r||^2 / n_kept``, which equals the
    noise-prediction loss ``recon_loss_masked`` of the loss columns (the
    noise and y_t cancel), and its gradient is
    ``2 w(t) abar_t / (1 - abar_t) / n_kept * A^H r``. For one slice `t` is
    a scalar and `loss_cols` a (W,) column mask; for a batch `t` is
    (B, 1, 1) and `loss_cols` (B, 1, 1, W). The loss
    has the shape of `t`.
    """
    ab = sched.alpha_bar[t]
    n_kept = sens.shape[0] * sens.shape[1] * np.count_nonzero(loss_cols, axis=-1)
    scale = 2.0 * loss_weight(t, sched) * (ab / (1.0 - ab)) / n_kept
    r = forward_op(y0_pred, sens, loss_cols) - np.where(loss_cols, measured_ks, 0)
    sq = np.reshape(np.sum(np.abs(r) ** 2, axis=(-3, -2, -1)), np.shape(t))
    return 0.5 * scale * sq, scale * adjoint_op(r, sens)


@dataclass
class StepDraws:
    """The random draws of one training step, stacked over the batch."""
    train_cols: np.ndarray   # (B, 1, 1, W): the columns the model sees
    loss_cols: np.ndarray    # (B, 1, 1, W): the columns the loss scores
    t: np.ndarray            # (B, 1, 1) integer steps
    eps: np.ndarray          # (B, H, W) complex noise of the jump to y_t
    eps2: np.ndarray         # noise of the jump from y_t to y_{t+k}
    z: np.ndarray            # noise of the fake sample's posterior draw


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

        A step is all or nothing: if it raises, both nets are restored to
        their state before it (params, Adam moments, buffers and step
        counts, so global_step too) with zero gradients, and the exception
        propagates. Either way both nets drop their activation caches, so
        no step's activations outlive it.
        """
        states = (self.denoiser.state, self.disc.state)
        saved = [state.snapshot() for state in states]
        try:
            return self._update(batch)
        except BaseException:
            for state, snap in zip(states, saved):
                state.restore(snap)
            raise
        finally:
            self.denoiser.release_caches()
            self.disc.release_caches()

    def _update(self, batch):
        step = self.global_step
        draws = self._draw(batch, step)
        kspace = np.stack([item.kspace for item in batch])
        real, fake, cond, y0_pred = self._generate(batch, kspace, draws, step)
        l_d = self._disc_phase(real, fake, cond)
        l_recon, l_g = self._gen_phase(fake, cond, y0_pred, kspace, draws)
        if not np.all(np.isfinite((l_recon, l_d, l_g))):
            raise FloatingPointError(
                f"non-finite loss at step {step}: recon={l_recon} d={l_d} g={l_g}")
        l_final = total_loss(l_recon, l_d, l_g, self.cfg.adv_weight)
        return LossReport(l_recon=l_recon, l_disc=l_d, l_gen=l_g, l_final=l_final,
                          t=int(draws.t[0, 0, 0]), slice_id=batch[0].slice_id, step=step)

    def _draw(self, batch, step):
        """Each slice's partition, t and noises from the stream ``[seed, 1,
        slice_id, step]``, its posterior noise from ``[seed, 2, slice_id, step]``."""
        grid, shape = self.cfg.train_grid, self.sens.shape[1:]
        parts, t, eps, eps2, z = [], [], [], [], []
        for item in batch:
            rng = self._rng(1, item.slice_id, step)
            parts.append(partition_mask(item.acquired, self.cfg.rho,
                                        seed=int(rng.integers(2**31))))
            t.append(grid[rng.integers(len(grid))])
            eps.append(complex_normal(rng, shape))
            eps2.append(complex_normal(rng, shape))
            z.append(complex_normal(self._rng(2, item.slice_id, step), shape))
        train_cols, loss_cols = (np.stack(cols)[:, None, None, :] for cols in zip(*parts))
        return StepDraws(train_cols, loss_cols, np.array(t)[:, None, None],
                         *map(np.stack, (eps, eps2, z)))

    def _generate(self, batch, kspace, draws, step):
        """Noise the train-column image to y_t and y_{t+k}, predict from y_t
        and draw the fake from the posterior at y_{t+k}. Returns y_t, the
        fake, y_{t+k} and the prediction."""
        cfg, sched, sens = self.cfg, self.sched, self.sens
        t, tk = draws.t, draws.t + cfg.stride_k
        y0_in = adjoint_op(kspace, sens, draws.train_cols)
        y_t = sample_yt(y0_in, t, draws.eps, sched)
        y_tk = sample_forward_jump(y_t, t, tk, draws.eps2, sched)
        y0_pred = predict_clean(self.denoiser, y_t, t[:, 0, 0] / cfg.T, y0_in, kspace,
                                sens, draws.train_cols, keep_cache=True)
        if not np.all(np.isfinite(y0_pred)):
            raise FloatingPointError(
                f"non-finite generator output at step {step} "
                f"(slices {[b.slice_id for b in batch]})")
        mu, var = posterior_params_strided(y_tk, y0_pred, tk, t, sched)
        return y_t, mu + np.sqrt(var) * draws.z, y_tk, y0_pred

    def _disc_phase(self, real, fake, cond):
        """Adam step of the discriminator on the real pair, the fake pair and
        the input-gradient penalty at the fake pair; returns its loss."""
        disc, B = self.disc, len(real)
        d_real = disc.forward(real, cond, train=True)
        disc.backward(-1.0 / (B * np.clip(d_real, 1e-12, None)))
        d_fake = disc.forward(fake, cond, train=True)
        disc.backward(1.0 / (B * np.clip(1.0 - d_fake, 1e-12, None)))
        # the penalty's input gradient reuses the d_fake forward cache: the
        # parameters, the batch and the train-mode BN statistics are the same
        pen = disc.penalty_param_grads(fake, cond, scale=1.0 / B)
        l_d = disc_loss(d_real, d_fake, pen)
        adam_step(disc.state, self.cfg.lr)
        return l_d

    def _gen_phase(self, fake, cond, y0_pred, kspace, draws):
        """Adam step of the denoiser on the loss-column residual plus the
        adversarial loss of the fake against the updated, frozen discriminator;
        the fake moves with the prediction through the posterior mean."""
        cfg, sched, sens, B = self.cfg, self.sched, self.sens, len(fake)
        d_fake = self.disc.forward(fake, cond, train=False)
        l_g = gen_loss(d_fake)
        g_adv = self.disc.backward(-cfg.adv_weight / (B * np.clip(d_fake, 1e-12, None)),
                                   accumulate=False)
        l_rec, g_rec = recon_loss_and_grad(y0_pred, kspace, sens, draws.loss_cols,
                                           draws.t, sched)
        _, w_y0, denom, _ = posterior_coefficients(draws.t + cfg.stride_k, draws.t, sched)
        c_pred = w_y0 / denom  # d mu / d y0
        g_y0 = g_rec / B + c_pred * g_adv
        self.denoiser.backward(dc_backward(g_y0, sens, draws.train_cols))
        adam_step(self.denoiser.state, cfg.lr)
        return float(np.sum(l_rec)) / B, l_g

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
    zf = adjoint_op(measured_ks, sens, acquired.sampled)
    rng = np.random.default_rng([seed & 0x7FFFFFFF, 4])
    y = zf + np.sqrt(cfg.init_noise_var) * complex_normal(rng, zf.shape)
    ts = range(cfg.inference_start, 1, -cfg.stride_k)
    grid = list(zip(ts, [*ts[1:], 0]))
    for t, s in grid:
        y0_hat = predict_clean(model, y[None], np.array([t / cfg.T]), zf[None],
                               measured_ks[None], sens, acquired.sampled)[0]
        if s == 0:
            y = y0_hat
        else:
            mu, var = posterior_params_strided(y, y0_hat, t, s, sched)
            y = mu + np.sqrt(var) * complex_normal(rng, y.shape)
            if not np.all(np.isfinite(y)):
                raise FloatingPointError(f"non-finite sampler state at step {t}")

    final_ks = dc_project_kspace(y, measured_ks, sens, acquired.sampled)
    image = adjoint_op(final_ks, sens)
    if not (np.all(np.isfinite(final_ks)) and np.all(np.isfinite(image))):
        raise FloatingPointError("non-finite reconstruction")
    return ReconResult(image=image, model_calls=len(grid),
                       wall_time=time.perf_counter() - t0, final_kspace=final_ks)


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

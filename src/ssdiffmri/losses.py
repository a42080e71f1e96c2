"""Adversarial and mask-restricted reconstruction objectives.

All losses are batch-averaged so the adversarial weight keeps its meaning
across batch sizes.
"""

from dataclasses import dataclass

import numpy as np

from .diffusion import loss_weight
from .kspace import fft2c

DEFAULT_ADV_WEIGHT = 0.1


@dataclass(frozen=True)
class LossReport:
    """Per-step loss breakdown; the total is recomputed from the parts."""

    l_recon: float
    l_disc: float
    l_gen: float
    l_final: float
    t: int
    slice_id: int = -1
    step: int = -1

    @staticmethod
    def csv_header():
        return "step,slice,t,l_recon,l_disc,l_gen,l_final"

    def csv_row(self):
        return (f"{self.step},{self.slice_id},{self.t},"
                f"{self.l_recon:.8g},{self.l_disc:.8g},{self.l_gen:.8g},"
                f"{self.l_final:.8g}")


def _check_scores(scores, what):
    s = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(s)) or np.any(s <= 0.0) or np.any(s >= 1.0):
        raise ValueError(f"{what} scores must lie strictly inside (0, 1)")
    return s


def disc_loss(d_real, d_fake, input_grad_sq_norm=0.0):
    """Discriminator objective: real/fake cross-entropy plus half the
    squared input-gradient norm, averaged over the batch."""
    real = _check_scores(d_real, "d_real")
    fake = _check_scores(d_fake, "d_fake")
    pen = np.asarray(input_grad_sq_norm, dtype=float)
    if np.any(pen < 0):
        raise ValueError("input_grad_sq_norm must be >= 0")
    return float(np.mean(-np.log(real)) + np.mean(-np.log(1.0 - fake))
                 + 0.5 * np.mean(pen))


def gen_loss(d_fake):
    """Generator objective: -log of the discriminator score on fakes."""
    fake = _check_scores(d_fake, "d_fake")
    return float(np.mean(-np.log(fake)))


def recon_loss_masked(eps_true, eps_pred, loss_mask, t, sched):
    """Noise-prediction loss restricted to the loss-mask columns in k-space.

    Both noise tensors are transformed to k-space (over the trailing two
    axes), restricted to the sampled columns of `loss_mask`, and compared in
    squared L2, scaled by the step weight and normalized by the number of
    retained samples. Entries may be coil-stacked.
    """
    eps_true = np.asarray(eps_true)
    eps_pred = np.asarray(eps_pred)
    if eps_true.shape != eps_pred.shape:
        raise ValueError("eps tensors must have identical shapes")
    cols = loss_mask.indices()
    if len(cols) == 0:
        raise ValueError("loss mask has no sampled columns")

    d = fft2c(eps_true - eps_pred)[..., cols]
    total = float(np.sum(np.abs(d) ** 2))
    n_kept = d.size
    return loss_weight(t, sched) * total / n_kept


def total_loss(l_recon, l_disc, l_gen, adv_weight=DEFAULT_ADV_WEIGHT):
    """Weighted combination of the reconstruction and adversarial losses."""
    for v in (l_recon, l_disc, l_gen, adv_weight):
        if not np.isfinite(v):
            raise ValueError("total_loss requires finite inputs")
    return float(l_recon + adv_weight * (l_disc + l_gen))

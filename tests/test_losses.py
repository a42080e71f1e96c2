import numpy as np
import pytest

from ssdiffmri.diffusion import loss_weight, make_schedule
from ssdiffmri.kspace import fft2c, ifft2c
from ssdiffmri.losses import (LossReport, disc_loss, gen_loss,
                              recon_loss_masked, total_loss)
from ssdiffmri.masks import make_random_mask, partition_mask


@pytest.fixture
def sched():
    return make_schedule(100)


class TestDiscLoss:
    def test_coin_flip_scores(self):
        assert disc_loss(0.5, 0.5, 0.0) == pytest.approx(2 * np.log(2.0), rel=1e-12)

    def test_optimal_limit(self):
        assert disc_loss(1 - 1e-12, 1e-12, 0.0) < 1e-10

    def test_hand_value_with_penalty(self):
        assert disc_loss(0.8, 0.3, 0.2) == pytest.approx(0.6798184952529421, rel=1e-12)

    def test_batch_averaging(self):
        val = disc_loss([0.6, 0.8], [0.3, 0.1], [0.0, 0.4])
        expect = (-np.log(0.6) - np.log(0.8)) / 2 + (-np.log(0.7) - np.log(0.9)) / 2 + 0.1
        assert val == pytest.approx(expect, rel=1e-12)

    def test_monotone_in_scores(self):
        # improving the discriminator on either target lowers the loss
        assert disc_loss(0.9, 0.2) < disc_loss(0.6, 0.2)
        assert disc_loss(0.9, 0.1) < disc_loss(0.9, 0.4)

    def test_out_of_range_rejected(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                disc_loss(bad, 0.5)
            with pytest.raises(ValueError):
                disc_loss(0.5, bad)
        with pytest.raises(ValueError):
            disc_loss(0.5, 0.5, -1.0)


class TestGenLoss:
    def test_coin_flip(self):
        assert gen_loss(0.5) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_fooled_limit(self):
        assert gen_loss(1 - 1e-12) < 1e-10

    def test_hand_value(self):
        assert gen_loss(0.25) == pytest.approx(1.3862943611198906, rel=1e-12)

    def test_monotone(self):
        assert gen_loss(0.8) < gen_loss(0.5) < gen_loss(0.2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gen_loss(0.0)


class TestReconLossUpsilon:
    def _setup(self, seed=0, width=32):
        acquired = make_random_mask(width, 2, 0.1, seed=seed)
        part = partition_mask(acquired, 0.5, seed=seed + 1)
        rng = np.random.default_rng(seed)
        eps = rng.standard_normal((width, width)) + 1j * rng.standard_normal((width, width))
        return part, eps

    def test_perfect_prediction_zero(self, sched):
        part, eps = self._setup()
        assert recon_loss_masked(eps, eps.copy(), part.loss, 10, sched) == 0.0

    def test_train_only_difference_masked_out(self, sched):
        # a difference supported on train-exclusive columns must not leak in
        part, eps = self._setup()
        train_only = np.setdiff1d(part.train.outer_indices(),
                                  part.loss.outer_indices())
        assert train_only.size > 0
        bump = np.zeros_like(eps)
        bump_k = np.zeros_like(eps)
        bump_k[:, train_only] = 1.0 + 0.5j
        bump = ifft2c(bump_k)
        val = recon_loss_masked(eps, eps + bump, part.loss, 10, sched)
        assert val < 1e-24

    def test_single_column_oracle(self, sched):
        part, eps = self._setup(seed=3)
        col = int(part.loss.outer_indices()[0])
        width = part.loss.width
        diff_k = np.zeros((width, width), complex)
        diff_k[:, col] = 2.0 - 1.0j
        pred = eps + ifft2c(diff_k)
        val = recon_loss_masked(eps, pred, part.loss, 7, sched)
        # direct two-line computation: column energy over the retained count
        n_kept = width * len(part.loss.indices())
        expect = loss_weight(7, sched) * np.sum(np.abs(diff_k[:, col]) ** 2) / n_kept
        assert val == pytest.approx(expect, rel=1e-9)

    def test_invariant_outside_loss_columns(self, sched):
        part, eps = self._setup(seed=4)
        rng = np.random.default_rng(9)
        pred = eps + 0.1 * (rng.standard_normal(eps.shape)
                            + 1j * rng.standard_normal(eps.shape))
        base = recon_loss_masked(eps, pred, part.loss, 5, sched)
        # modify the prediction only on non-loss columns (in k-space)
        pk = fft2c(pred)
        pk[:, ~part.loss.sampled] += 3.0
        pred2 = ifft2c(pk)
        again = recon_loss_masked(eps, pred2, part.loss, 5, sched)
        assert again == pytest.approx(base, rel=1e-9)

    def test_coil_stacked_inputs(self, sched):
        part, eps = self._setup(seed=5)
        stack_t = np.stack([eps, 2 * eps])
        stack_p = np.stack([eps, 2 * eps])
        assert recon_loss_masked(stack_t, stack_p, part.loss, 10, sched) == 0.0

    def test_shape_mismatch(self, sched):
        part, eps = self._setup()
        with pytest.raises(ValueError):
            recon_loss_masked(eps, eps[:-1], part.loss, 10, sched)


class TestTotalLoss:
    def test_zero_weight(self):
        assert total_loss(1.5, 9.9, 9.9, 0.0) == 1.5

    def test_hand_value(self):
        assert total_loss(1.0, 0.5, 0.5, 0.1) == pytest.approx(1.1, rel=1e-12)

    def test_linearity(self):
        base = total_loss(1.0, 2.0, 3.0, 0.1)
        assert total_loss(2.0, 2.0, 3.0, 0.1) - base == pytest.approx(1.0)
        assert total_loss(1.0, 3.0, 3.0, 0.1) - base == pytest.approx(0.1)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            total_loss(np.nan, 0.0, 0.0, 0.1)


class TestLossReport:
    def test_total_identity(self):
        rep = LossReport(l_recon=0.5, l_disc=1.0, l_gen=0.7,
                         l_final=total_loss(0.5, 1.0, 0.7, 0.1), t=25)
        assert rep.l_final == pytest.approx(rep.l_recon + 0.1 * (rep.l_disc + rep.l_gen),
                                            abs=1e-12)

    def test_csv_row(self):
        rep = LossReport(l_recon=0.5, l_disc=1.0, l_gen=0.7, l_final=0.67,
                         t=25, slice_id=3, step=11)
        assert rep.csv_row().startswith("11,3,25,0.5,1,0.7,0.67")
        assert LossReport.csv_header() == "step,slice,t,l_recon,l_disc,l_gen,l_final"

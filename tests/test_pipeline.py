import platform
import resource
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdiffmri.diffusion import make_schedule, sample_yt
from ssdiffmri.kspace import (EncodingOperator, adjoint_op, encode, forward_op, ifft2c,
                              zero_filled)
from ssdiffmri.losses import recon_loss_masked
from ssdiffmri.masks import SamplingMask, make_random_mask, partition_mask
from ssdiffmri.metrics import nmse, ssim
from ssdiffmri import pipeline
from ssdiffmri.nets import Denoiser
from ssdiffmri.pipeline import (ReconResult, SliceData, TrainConfig, Trainer,
                                build_models, dc_backward, dc_project,
                                dc_project_kspace, evaluate_run,
                                recon_loss_and_grad, reconstruct)
from ssdiffmri.tensorio import generate_phantom, generate_sensitivities


def make_fixture(rows=32, coils=1, R=4.0, seed=0, n=4):
    sens = generate_sensitivities(coils, rows, rows, seed=seed)
    slices, phantoms = [], []
    for i in range(n):
        ph = generate_phantom(rows, rows, 5, seed=100 + seed + i)
        om = make_random_mask(rows, R, 0.06, seed=200 + seed + i)
        op = EncodingOperator(sens, om, rows, rows)
        # the exact operator, unrounded, so the oracle's loss vanishes
        slices.append(SliceData(i, forward_op(ph, sens, om.sampled), om))
        phantoms.append(ph)
    return sens, slices, phantoms


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.train_grid == [25, 50, 75]
        assert cfg.inference_start == 25

    def test_rho_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(rho=0.0)
        with pytest.raises(ValueError):
            TrainConfig(rho=1.0)

    def test_stride_constraints(self):
        with pytest.raises(ValueError):
            TrainConfig(T=100, stride_k=60)
        with pytest.raises(ValueError):
            TrainConfig(T=100, stride_k=30)  # does not divide T
        with pytest.raises(ValueError):
            TrainConfig(T=100, stride_k=1)

    def test_round_trip_dict(self):
        cfg = TrainConfig(rho=0.3, hidden=8)
        assert TrainConfig(**cfg.to_dict()) == cfg

    def test_field_types(self):
        assert TrainConfig(R=4, lr=1).R == 4  # int is accepted for float fields
        for bad in (dict(lr=True), dict(hidden=True), dict(hidden=8.0), dict(R="4"),
                    dict(dtype=32)):
            with pytest.raises(TypeError, match=next(iter(bad))):
                TrainConfig(**bad)

    @pytest.mark.parametrize("bad", [
        dict(hidden=0), dict(disc_width=0), dict(batch_size=0), dict(epochs=0),
        dict(max_steps=-1), dict(checkpoint_every=-1), dict(seed=-1),
        dict(init_noise_var=-0.1), dict(t_start=-1), dict(t_start=1), dict(t_start=101),
        dict(dtype="float16"), dict(beta_1=0.0), dict(beta_1=0.03),
        dict(beta_T=1.0), dict(lr=float("nan")), dict(R=float("inf")),
    ], ids=repr)
    def test_out_of_range_values(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)

    def test_range_edges_accepted(self):
        TrainConfig(t_start=100, init_noise_var=0.0, max_steps=0, checkpoint_every=0,
                    seed=0, beta_1=0.02, dtype="float64")


class TestSliceData:
    @settings(max_examples=60, deadline=None)
    @given(sampled=st.lists(st.booleans(), min_size=1, max_size=12),
           coils=st.integers(1, 4), rows=st.integers(1, 6),
           dtype=st.sampled_from([np.complex64, np.complex128]),
           seed=st.integers(0, 2**31 - 1))
    def test_keeps_the_acquired_columns_exactly(self, sampled, coils, rows, dtype, seed):
        mask = SamplingMask(len(sampled), np.array(sampled), (0, 0))
        rng = np.random.default_rng(seed)
        shape = (coils, rows, mask.width)
        ks = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
        ks[..., ~mask.sampled] = 0
        item = SliceData(5, ks, mask)
        assert item.columns.dtype == dtype
        assert item.columns.shape == (coils, rows, int(mask.sampled.sum()))
        out = item.kspace
        assert out.dtype == np.complex128
        assert out.tobytes() == ks.astype(np.complex128).tobytes()
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[...] = 0
        ks[...] = 1.0  # the slice holds a copy
        assert np.array_equal(item.kspace, out) and item.kspace is not out

        off = np.flatnonzero(~mask.sampled)
        if off.size:
            bad = np.zeros(shape, dtype)
            bad[coils - 1, rows - 1, off[-1]] = 1e-30j
            with pytest.raises(ValueError, match="slice 5"):
                SliceData(5, bad, mask)

    def test_width_must_match_the_mask(self):
        mask = make_random_mask(16, 4.0, 0.1, seed=0)
        with pytest.raises(ValueError, match="slice 2"):
            SliceData(2, np.zeros((2, 16, 15), complex), mask)


class TestDCProjection:
    def test_fixed_point_single_coil(self):
        sens, slices, phantoms = make_fixture(coils=1)
        item, ph = slices[0], phantoms[0]
        out = dc_project(ph, item.kspace, sens, item.acquired.sampled)
        assert np.max(np.abs(out - ph)) < 1e-6

    def test_idempotent_single_coil(self):
        sens, slices, phantoms = make_fixture(coils=1)
        rng = np.random.default_rng(1)
        pred = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        item = slices[0]
        once = dc_project(pred, item.kspace, sens, item.acquired.sampled)
        twice = dc_project(once, item.kspace, sens, item.acquired.sampled)
        assert np.max(np.abs(twice - once)) < 1e-6 * max(1.0, np.max(np.abs(once)))

    def test_kspace_equality_single_coil(self):
        sens, slices, phantoms = make_fixture(coils=1)
        rng = np.random.default_rng(2)
        pred = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        item = slices[0]
        out = dc_project(pred, item.kspace, sens, item.acquired.sampled)
        op = EncodingOperator(sens, item.acquired, 32, 32)
        re_enc = encode(out, op)
        cols = item.acquired.indices()
        err = (np.linalg.norm(re_enc[..., cols] - item.kspace[..., cols])
               / np.linalg.norm(item.kspace[..., cols]))
        assert err < 1e-6

    def test_projected_kspace_equals_measurement_any_coils(self):
        # the replaced per-coil k-space carries the measurement bit-for-bit
        sens, slices, phantoms = make_fixture(coils=4)
        rng = np.random.default_rng(3)
        pred = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        item = slices[0]
        ks = dc_project_kspace(pred, item.kspace, sens, item.acquired.sampled)
        cols = item.acquired.indices()
        assert np.array_equal(ks[..., cols], item.kspace[..., cols])

    def test_multicoil_contraction(self):
        # after coil combination the multicoil projection is a contraction:
        # applying it twice moves less than the first application
        sens, slices, phantoms = make_fixture(coils=4)
        rng = np.random.default_rng(4)
        pred = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        item = slices[0]
        once = dc_project(pred, item.kspace, sens, item.acquired.sampled)
        twice = dc_project(once, item.kspace, sens, item.acquired.sampled)
        assert np.linalg.norm(twice - once) <= np.linalg.norm(once - pred) + 1e-12

    def test_backward_is_self_adjoint(self):
        sens, slices, _ = make_fixture(coils=4)
        item = slices[0]
        rng = np.random.default_rng(6)
        u = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        v = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        lhs = np.vdot(v, dc_backward(u, sens, item.acquired.sampled))
        rhs = np.vdot(dc_backward(v, sens, item.acquired.sampled), u)
        assert abs(lhs - rhs) / (np.linalg.norm(u) * np.linalg.norm(v)) < 1e-10

    def test_backward_matches_affine_difference(self):
        # DC(x) - DC(0) must equal the linear operator dc_backward applies
        sens, slices, _ = make_fixture(coils=4)
        item = slices[0]
        rng = np.random.default_rng(7)
        x = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        lin = (dc_project(x, item.kspace, sens, item.acquired.sampled)
               - dc_project(np.zeros_like(x), item.kspace, sens, item.acquired.sampled))
        np.testing.assert_allclose(lin, dc_backward(x, sens, item.acquired.sampled),
                                   atol=1e-10)

    def test_shape_mismatch(self):
        sens, slices, _ = make_fixture(coils=2)
        with pytest.raises(ValueError):
            dc_project(np.zeros((16, 16), complex), slices[0].kspace, sens,
                       slices[0].acquired.sampled)

    def test_batch_matches_per_slice(self):
        # stacked per-slice columns project a batch exactly as slice by slice
        sens, slices, _ = make_fixture(coils=4, n=3)
        rng = np.random.default_rng(8)
        pred = rng.standard_normal((3, 32, 32)) + 1j * rng.standard_normal((3, 32, 32))
        meas = np.stack([item.kspace for item in slices])
        masks = [item.acquired for item in slices]
        cols = np.stack([m.sampled for m in masks])[:, None, None, :]
        for fn in (dc_project, dc_project_kspace):
            assert np.array_equal(
                fn(pred, meas, sens, cols),
                np.stack([fn(pred[i], meas[i], sens, masks[i].sampled) for i in range(3)]))
        assert np.array_equal(
            dc_backward(pred, sens, cols),
            np.stack([dc_backward(pred[i], sens, masks[i].sampled) for i in range(3)]))


class TestReconLoss:
    def _setup(self):
        sens, slices, _ = make_fixture(coils=4, n=1)
        item = slices[0]
        train, loss = partition_mask(item.acquired, 0.5, seed=1)
        rng = np.random.default_rng(9)
        y0_pred = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        return sens, item, train, loss, y0_pred, make_schedule(100, 1e-4, 0.02)

    @pytest.mark.parametrize("t", [25, 50, 75])
    def test_direct_loss_matches_noise_oracle(self, t):
        # the noise-prediction loss of the loss columns, built from the noise
        # pair of a y_t draw, equals the direct residual loss: eps and y_t
        # cancel
        sens, item, train, loss_cols, y0_pred, sched = self._setup()
        y0_in = adjoint_op(item.kspace, sens, train)
        rng = np.random.default_rng(t)
        eps = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        y_t = sample_yt(y0_in, t, eps, sched)
        ab = sched.alpha_bar[t]
        coef = np.sqrt(ab) / np.sqrt(1.0 - ab)
        eps_pred = sens * ((y_t - np.sqrt(ab) * y0_pred) / np.sqrt(1.0 - ab))
        eps_true = (sens * (eps + coef * y0_in)
                    - coef * ifft2c(np.where(loss_cols, item.kspace, 0)))
        oracle = recon_loss_masked(eps_true, eps_pred, loss_cols, t, sched)
        loss, _ = recon_loss_and_grad(y0_pred, item.kspace, sens, loss_cols, t, sched)
        assert oracle > 0
        assert abs(loss - oracle) <= 1e-12 * oracle

    def test_gradient_matches_finite_difference(self):
        # d loss / d Re(y0_pred) + i d loss / d Im(y0_pred); the loss is
        # quadratic, so central differences carry rounding error only
        sens, item, _, loss_cols, y0_pred, sched = self._setup()
        t = 50
        _, grad = recon_loss_and_grad(y0_pred, item.kspace, sens, loss_cols, t, sched)

        def loss_at(x):
            return float(recon_loss_and_grad(x, item.kspace, sens, loss_cols, t, sched)[0])

        rng = np.random.default_rng(10)
        h = 1e-3
        for flat in rng.choice(y0_pred.size, 12, replace=False):
            i, j = np.unravel_index(flat, y0_pred.shape)
            for unit, part_of in ((1.0, np.real), (1j, np.imag)):
                step = np.zeros_like(y0_pred)
                step[i, j] = h * unit
                fd = (loss_at(y0_pred + step) - loss_at(y0_pred - step)) / (2 * h)
                assert fd == pytest.approx(part_of(grad[i, j]), rel=1e-6, abs=1e-12)


def small_cfg(**kw):
    base = dict(R=4, rho=0.5, epochs=5, seed=3, hidden=6, disc_width=4,
                batch_size=2, lr=1e-3, dtype="float64")
    base.update(kw)
    return TrainConfig(**base)


class TestTrainStep:
    def test_deterministic_reports(self):
        sens, slices, _ = make_fixture(coils=2, n=4)
        reports = []
        for _ in range(2):
            cfg = small_cfg()
            den, disc = build_models(cfg)
            tr = Trainer(den, disc, sens, cfg)
            reports.append([tr.train_step(slices[:2]), tr.train_step(slices[2:])])
        assert reports[0] == reports[1]

    def test_loss_report_identity(self):
        sens, slices, _ = make_fixture(coils=2, n=2)
        cfg = small_cfg()
        den, disc = build_models(cfg)
        tr = Trainer(den, disc, sens, cfg)
        rep = tr.train_step(slices)
        assert rep.l_final == pytest.approx(
            rep.l_recon + cfg.adv_weight * (rep.l_disc + rep.l_gen), abs=1e-12)

    def test_perfect_oracle_zero_recon_loss(self):
        # a generator that always returns the true image: the loss-mask
        # residual vanishes because noiseless data is coil-consistent
        sens, slices, phantoms = make_fixture(coils=1, n=2)
        cfg = small_cfg(adv_weight=0.0)
        den, disc = build_models(cfg)

        class Oracle:
            state = den.state

            def forward(self, y_t, t_frac, cond, keep_cache=False):
                return np.stack(phantoms[:y_t.shape[0]]).astype(np.complex128)

            def backward(self, upstream):
                return np.zeros_like(upstream)

            def release_caches(self):
                pass

        tr = Trainer(Oracle(), disc, sens, cfg)
        rep = tr.train_step(slices[:2])
        assert rep.l_recon < 1e-20

    def test_information_hiding(self):
        # perturbing loss-exclusive measured columns leaves every model input
        # bit-identical and changes only the loss value
        sens, slices, _ = make_fixture(coils=2, n=1, rows=32)
        cfg = small_cfg(batch_size=1)

        seen = []

        class Recorder(Denoiser):
            def forward(self, y_t, t_frac, cond, keep_cache=False):
                seen.append((np.asarray(y_t).copy(), np.asarray(t_frac).copy(),
                             np.asarray(cond).copy()))
                return super().forward(y_t, t_frac, cond, keep_cache)

        def run(data):
            den, disc = build_models(cfg)
            rec = Recorder(cfg.hidden, seed=cfg.seed, dtype=np.float64)
            rec.state = den.state
            rec.convs = den.convs
            tr = Trainer(rec, disc, sens, cfg)
            return tr.train_step([data])

        item = slices[0]
        rep_a = run(item)
        inputs_a = seen.pop()

        # find this step's partition by reproducing the trainer's seed stream
        rng = np.random.default_rng([cfg.seed & 0x7FFFFFFF, 1, item.slice_id, 0])
        train, loss = partition_mask(item.acquired, cfg.rho, seed=int(rng.integers(2**31)))
        loss_only = np.flatnonzero(loss & ~train)
        assert loss_only.size > 0
        ks2 = item.kspace.copy()
        ks2[..., loss_only] += 0.37 - 0.81j
        rep_b = run(SliceData(item.slice_id, ks2, item.acquired))
        inputs_b = seen.pop()

        for a, b in zip(inputs_a, inputs_b):
            assert np.array_equal(a, b)
        assert rep_a.l_recon != rep_b.l_recon

    def test_complex64_inputs_train_like_their_complex128_upcast(self):
        # file-precision k-space and sensitivities promote exactly: the same
        # steps on their complex128 upcasts give byte-identical results
        sens, slices, _ = make_fixture(coils=2, n=2)
        sens64 = sens.astype(np.complex64)
        ks64 = [item.kspace.astype(np.complex64) for item in slices]
        runs = []
        for wide in (False, True):
            cfg = small_cfg(dtype="float32")
            den, disc = build_models(cfg)
            data = [SliceData(item.slice_id, ks.astype(np.complex128) if wide else ks,
                              item.acquired) for item, ks in zip(slices, ks64)]
            assert data[0].columns.dtype == (np.complex128 if wide else np.complex64)
            tr = Trainer(den, disc, sens64.astype(np.complex128) if wide else sens64, cfg)
            reports = [tr.train_step(data) for _ in range(2)]
            runs.append((reports, den.state.params.tobytes(), disc.state.params.tobytes()))
        assert runs[0] == runs[1]

    def test_overfit_single_slice_loss_decreases(self):
        # adv_weight 0 isolates the optimized reconstruction objective; the
        # adversarial terms seek an equilibrium and cannot promise descent
        sens, slices, _ = make_fixture(coils=1, n=1, rows=32)
        cfg = small_cfg(batch_size=1, lr=5e-3, adv_weight=0.0, stride_k=50,
                        hidden=8)
        den, disc = build_models(cfg)
        tr = Trainer(den, disc, sens, cfg)
        losses = [tr.train_step([slices[0]]).l_final for _ in range(50)]
        smooth = np.convolve(losses, np.ones(10) / 10, mode="valid")
        assert smooth[-1] < 0.6 * smooth[0]
        # monotone after smoothing, allowing jitter well below the total drop
        rng_tol = 0.1 * (smooth.max() - smooth.min())
        assert np.all(np.diff(smooth) < rng_tol)

    def test_failed_step_restores_both_nets(self, monkeypatch):
        # the NaN reaches the denoiser's Adam update after the
        # discriminator's update has been applied
        sens, slices, _ = make_fixture(coils=2, n=4)
        cfg = small_cfg()
        den, disc = build_models(cfg)
        tr = Trainer(den, disc, sens, cfg)
        tr.train_step(slices[:2])
        before = [(st.params.copy(), st.m.copy(), st.v.copy(),
                   {k: b.copy() for k, b in st.buffers.items()}, st.step)
                  for st in (den.state, disc.state)]
        backward = Denoiser.backward

        def nan_grads(self, upstream):
            backward(self, upstream)
            self.state.grads[-1] = np.nan

        monkeypatch.setattr(Denoiser, "backward", nan_grads)
        with pytest.raises(FloatingPointError):
            tr.train_step(slices[2:])
        monkeypatch.undo()
        for st, (params, m, v, buffers, step) in zip((den.state, disc.state), before):
            for a, b in ((st.params, params), (st.m, m), (st.v, v)):
                assert np.array_equal(a, b)
            for k, b in buffers.items():
                assert np.array_equal(st.buffers[k], b)
            assert st.step == step == 1 and not st.grads.any()
        assert tr.global_step == 1
        # the retried step is the step an uninterrupted trainer takes
        den2, disc2 = build_models(cfg)
        tr2 = Trainer(den2, disc2, sens, cfg)
        tr2.train_step(slices[:2])
        assert tr.train_step(slices[2:]) == tr2.train_step(slices[2:])
        assert np.array_equal(den.state.params, den2.state.params)
        assert np.array_equal(disc.state.v, disc2.state.v)

    def test_infinite_loss_raises_and_restores_both_nets(self, monkeypatch):
        sens, slices, _ = make_fixture(rows=16, coils=2, n=2)
        cfg = small_cfg(hidden=4, disc_width=4)
        den, disc = build_models(cfg)
        tr = Trainer(den, disc, sens, cfg)
        tr.train_step(slices)
        before = [st.snapshot() for st in (den.state, disc.state)]

        def infinite_loss(*args):
            loss, grad = recon_loss_and_grad(*args)
            return np.full_like(loss, np.inf), grad

        monkeypatch.setattr(pipeline, "recon_loss_and_grad", infinite_loss)
        with pytest.raises(FloatingPointError, match="non-finite loss at step 1"):
            tr.train_step(slices)
        for st, (arrays, step) in zip((den.state, disc.state), before):
            assert st.step == step == 1 and not st.grads.any()
            now = (st.params, st.m, st.v, *st.buffers.values())
            assert all(np.array_equal(a, b) for a, b in zip(now, arrays))

    @pytest.mark.parametrize("fails", [False, True])
    def test_no_activation_cache_outlives_a_step(self, fails, monkeypatch):
        sens, slices, _ = make_fixture(coils=2, n=2)
        cfg = small_cfg()
        den, disc = build_models(cfg)
        tr = Trainer(den, disc, sens, cfg)
        if fails:
            def nan_params(state, lr):
                state.params[0] = np.nan
                state.require_finite("params")

            monkeypatch.setattr(pipeline, "adam_step", nan_params)
            with pytest.raises(FloatingPointError):
                tr.train_step(slices)
        else:
            tr.train_step(slices)
        layers = (*den.convs, *disc.convs, *disc.relus, *disc.bns, disc)
        assert all(layer._cache is None for layer in layers)
        with pytest.raises(RuntimeError, match="without cached forward"):
            den.backward(np.zeros((2, 32, 32), complex))

    def test_discriminator_caches_end_before_the_denoiser_backward(self, monkeypatch):
        # the adversarial input gradient is their last reader
        sens, slices, _ = make_fixture(coils=2, n=2)
        cfg = small_cfg()
        den, disc = build_models(cfg)
        held = []
        backward = den.backward

        def spy(upstream):
            layers = (*disc.convs, *disc.relus, *disc.bns, disc)
            held.append([layer for layer in layers if layer._cache is not None])
            return backward(upstream)

        monkeypatch.setattr(den, "backward", spy)
        Trainer(den, disc, sens, cfg).train_step(slices)
        assert held == [[]]

    def test_step_leaves_no_memory_behind(self):
        sens, slices, _ = make_fixture(coils=2, n=2)
        cfg = small_cfg()
        tr = Trainer(*build_models(cfg), sens, cfg)
        tr.train_step(slices)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tr.train_step(slices)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before < 64 << 10

    def test_step_peak_memory(self):
        # the traced heap of one step peaks in the discriminator's penalty:
        # 1.96 MB above its start here (2.09 MB when the discriminator's
        # caches outlived the adversarial gradient and each denoiser ReLU
        # kept a mask)
        sens, slices, _ = make_fixture(coils=2, n=2)
        cfg = small_cfg()
        tr = Trainer(*build_models(cfg), sens, cfg)
        tr.train_step(slices)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tr.train_step(slices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 1.05 * 1.96e6

    def test_denoiser_gradient_matches_fd_end_to_end(self, monkeypatch):
        # the phases composed: with the draws and the updated discriminator
        # held fixed, the gradient the step hands to Adam is the derivative
        # of l_recon + adv_weight * l_g through the DC projection, the
        # posterior mean and the discriminator
        sens, slices, _ = make_fixture(rows=16, coils=2, n=2)
        cfg = small_cfg(hidden=4, disc_width=4)
        tr = Trainer(*build_models(cfg), sens, cfg)
        draws = tr._draw(slices, 0)
        kspace = np.stack([item.kspace for item in slices])
        tr._disc_phase(*tr._generate(slices, kspace, draws, 0)[:3])
        handed = []

        def record(state, lr):
            handed.append(state.grads.copy())
            state.zero_grads()

        monkeypatch.setattr(pipeline, "adam_step", record)

        def loss():
            _, fake, cond, y0_pred = tr._generate(slices, kspace, draws, 0)
            l_recon, l_g = tr._gen_phase(fake, cond, y0_pred, kspace, draws)
            return l_recon + cfg.adv_weight * l_g

        loss()
        grads, params = handed[0], tr.denoiser.state.params
        rng, h, errs = np.random.default_rng(0), 1e-6, []
        for i in rng.choice(params.size, 30, replace=False):
            p0 = params[i]
            params[i] = p0 + h
            lp = loss()
            params[i] = p0 - h
            lm = loss()
            params[i] = p0
            fd = (lp - lm) / (2 * h)
            errs.append(abs(fd - grads[i]) / max(abs(fd), abs(grads[i]), 1e-8))
        assert max(errs) < 1e-4

    def test_fit_continues_from_global_step(self):
        sens, slices, _ = make_fixture(coils=1, n=3)
        cfg = small_cfg(epochs=2)
        whole = Trainer(*build_models(cfg), sens, cfg).fit(slices)
        assert [r.step for r in whole] == [0, 1, 2, 3]
        capped = small_cfg(epochs=2, max_steps=3)
        first = Trainer(*build_models(capped), sens, capped)
        head = first.fit(slices)
        assert first.fit(slices) == []  # already at max_steps
        first.cfg = cfg
        assert head + first.fit(slices) == whole

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts(self):
        sens, slices, _ = make_fixture(coils=1, n=1, rows=32)
        cfg = small_cfg(batch_size=1)
        den, disc = build_models(cfg)
        den.state.params[:] = np.inf
        tr = Trainer(den, disc, sens, cfg)
        with pytest.raises(FloatingPointError):
            tr.train_step([slices[0]])


class TestMeasurementPrecision:
    @settings(max_examples=12, deadline=None)
    @given(dtype=st.sampled_from([np.complex64, np.complex128]),
           coils=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
    def test_measurement_gives_the_outputs_of_its_complex128_upcast(self, dtype, coils,
                                                                    seed):
        # each consumer of a measurement promotes it to complex128 first, so
        # encode's complex64 and its upcast give the same bytes
        rows = 16
        sens = generate_sensitivities(coils, rows, rows, seed=seed)
        om = make_random_mask(rows, 4, 0.1, seed=seed)
        op = EncodingOperator(sens, om, rows, rows)
        meas = encode(generate_phantom(rows, rows, 4, seed=seed), op).astype(dtype)
        wide = meas.astype(np.complex128)
        assert zero_filled(meas, op).tobytes() == zero_filled(wide, op).tobytes()
        rng = np.random.default_rng(seed)
        pred = rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows))
        assert (dc_project(pred, meas, sens, om.sampled).tobytes()
                == dc_project(pred, wide, sens, om.sampled).tobytes())
        cfg = small_cfg(hidden=4, t_start=50)
        den = build_models(cfg)[0]
        sched = make_schedule(cfg.T, cfg.beta_1, cfg.beta_T)
        a, b = (reconstruct(m, om, sens, den, sched, cfg, seed=seed, allow_untrained=True)
                for m in (meas, wide))
        assert a.image.tobytes() == b.image.tobytes()
        assert a.final_kspace.tobytes() == b.final_kspace.tobytes()


class _TruthOracle:
    """Stub generator returning a fixed image regardless of input."""

    def __init__(self, truth):
        self.truth = truth

    def forward(self, y_t, t_frac, cond, keep_cache=False):
        return self.truth[None].astype(np.complex128).repeat(y_t.shape[0], axis=0)


class TestReconstruct:
    def test_full_mask_untrained_model_recovers_truth(self):
        rows = 32
        sens = generate_sensitivities(2, rows, rows, seed=0)
        ph = generate_phantom(rows, rows, 5, seed=1)
        full = make_random_mask(rows, 1, 0.06, seed=0)
        op = EncodingOperator(sens, full, rows, rows)
        meas = encode(ph, op)
        cfg = small_cfg()
        den, _ = build_models(cfg)
        sched = make_schedule(cfg.T, cfg.beta_1, cfg.beta_T)
        res = reconstruct(meas, full, sens, den, sched, cfg, seed=0,
                          allow_untrained=True)
        assert nmse(ph, res.image) < 1e-3

    def test_untrained_flag_raises(self):
        rows = 32
        sens = generate_sensitivities(1, rows, rows, seed=0)
        ph = generate_phantom(rows, rows, 4, seed=2)
        om = make_random_mask(rows, 4, 0.06, seed=1)
        op = EncodingOperator(sens, om, rows, rows)
        cfg = small_cfg()
        den, _ = build_models(cfg)
        sched = make_schedule(cfg.T, cfg.beta_1, cfg.beta_T)
        with pytest.raises(RuntimeError):
            reconstruct(encode(ph, op), om, sens, den, sched, cfg, seed=0)

    def test_deterministic(self):
        rows = 32
        sens = generate_sensitivities(2, rows, rows, seed=3)
        ph = generate_phantom(rows, rows, 4, seed=3)
        om = make_random_mask(rows, 4, 0.06, seed=3)
        op = EncodingOperator(sens, om, rows, rows)
        meas = encode(ph, op)
        cfg = small_cfg()
        den, _ = build_models(cfg)
        sched = make_schedule(cfg.T, cfg.beta_1, cfg.beta_T)
        a = reconstruct(meas, om, sens, den, sched, cfg, seed=5, allow_untrained=True)
        b = reconstruct(meas, om, sens, den, sched, cfg, seed=5, allow_untrained=True)
        assert np.array_equal(a.image, b.image)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
    def test_desk_reconstruction_reuses_its_memory(self):
        # 64x64, 4 coils, hidden 24: the temporaries peak 1.7 MB, which
        # glibc's default thresholds handed back and faulted in on every call
        rows = 64
        sens = generate_sensitivities(4, rows, rows, seed=3)
        om = make_random_mask(rows, 4, 0.04, seed=3)
        meas = encode(generate_phantom(rows, rows, 8, seed=3),
                      EncodingOperator(sens, om, rows, rows))
        cfg = TrainConfig(T=100, stride_k=25, hidden=24, disc_width=10, t_start=50)
        den, _ = build_models(cfg)
        sched = make_schedule(cfg.T, cfg.beta_1, cfg.beta_T)
        for seed in range(3):
            reconstruct(meas, om, sens, den, sched, cfg, seed=seed, allow_untrained=True)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        reconstruct(meas, om, sens, den, sched, cfg, seed=3, allow_untrained=True)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100

    @pytest.mark.parametrize("stride", [10, 25, 50])
    def test_perfect_oracle_full_mask_any_stride(self, stride):
        rows = 32
        sens = generate_sensitivities(1, rows, rows, seed=4)
        ph = generate_phantom(rows, rows, 5, seed=4)
        full = make_random_mask(rows, 1, 0.06, seed=0)
        op = EncodingOperator(sens, full, rows, rows)
        meas = encode(ph, op)
        cfg = TrainConfig(R=1, rho=0.5, seed=0, stride_k=stride, T=100,
                          t_start=2 * stride if 2 * stride <= 100 else stride)
        sched = make_schedule(cfg.T, cfg.beta_1, cfg.beta_T)
        res = reconstruct(meas, full, sens, _TruthOracle(ph), sched, cfg, seed=1)
        assert nmse(ph, res.image) < 1e-3

    def test_final_kspace_consistent_at_acquired_columns(self):
        rows = 32
        sens = generate_sensitivities(4, rows, rows, seed=5)
        ph = generate_phantom(rows, rows, 5, seed=5)
        om = make_random_mask(rows, 4, 0.06, seed=5)
        op = EncodingOperator(sens, om, rows, rows)
        meas = encode(ph, op)
        cfg = small_cfg()
        sched = make_schedule(cfg.T, cfg.beta_1, cfg.beta_T)
        res = reconstruct(meas, om, sens, _TruthOracle(ph), sched, cfg, seed=2)
        cols = om.indices()
        assert np.array_equal(res.final_kspace[..., cols], meas[..., cols])
        assert isinstance(res, ReconResult)
        assert res.model_calls >= 1


    @pytest.mark.parametrize("t_start", [1, 2, 26, 50, 100])
    def test_grid_edges(self, t_start):
        # one model call per grid step, from t_start down by stride_k while
        # t >= 2, and the acquired columns pinned; t_start 1, whose grid
        # would be empty, is refused
        ph, meas, om, sens, cfg, sched = self._two_step_problem()
        if t_start == 1:
            with pytest.raises(ValueError, match="t_start"):
                TrainConfig(**{**cfg.to_dict(), "t_start": t_start})
            return
        cfg = TrainConfig(**{**cfg.to_dict(), "t_start": t_start})
        seen = []

        class Recorder(_TruthOracle):
            def forward(self, y_t, t_frac, cond, keep_cache=False):
                seen.append(round(float(t_frac[0]) * cfg.T))
                return super().forward(y_t, t_frac, cond)

        res = reconstruct(meas, om, sens, Recorder(ph), sched, cfg, seed=0)
        steps = list(range(t_start, 1, -cfg.stride_k))
        assert res.model_calls == len(steps) and seen == steps
        assert np.array_equal(res.final_kspace[..., om.sampled], meas[..., om.sampled])

    def _two_step_problem(self):
        # grid [50, 25]: the second step is the last, which ends the loop
        rows = 32
        sens = generate_sensitivities(2, rows, rows, seed=6)
        ph = generate_phantom(rows, rows, 5, seed=6)
        om = make_random_mask(rows, 4, 0.06, seed=6)
        meas = encode(ph, EncodingOperator(sens, om, rows, rows))
        cfg = TrainConfig(R=4, rho=0.5, seed=0, stride_k=25, T=100, t_start=50)
        return ph, meas, om, sens, cfg, make_schedule(cfg.T, cfg.beta_1, cfg.beta_T)

    @pytest.mark.parametrize("part", [0, 1])
    def test_non_finite_last_prediction_raises(self, part):
        ph, meas, om, sens, cfg, sched = self._two_step_problem()

        class LastCallNaN(_TruthOracle):
            calls = 0

            def forward(self, y_t, t_frac, cond, keep_cache=False):
                out = super().forward(y_t, t_frac, cond)
                self.calls += 1
                if self.calls == 2:
                    (out.real, out.imag)[part][0, 3, 4] = np.nan
                return out

        with pytest.raises(FloatingPointError, match="non-finite reconstruction"):
            reconstruct(meas, om, sens, LastCallNaN(ph), sched, cfg, seed=0)

    def test_non_finite_imaginary_sampler_state_raises(self, monkeypatch):
        ph, meas, om, sens, cfg, sched = self._two_step_problem()
        posterior = pipeline.posterior_params_strided

        def inf_imag_posterior(*args):
            mu, var = posterior(*args)
            mu = mu.copy()
            mu[3, 4] = complex(1.0, np.inf)
            return mu, var

        monkeypatch.setattr(pipeline, "posterior_params_strided", inf_imag_posterior)
        with pytest.raises(FloatingPointError, match="sampler state at step 50"):
            reconstruct(meas, om, sens, _TruthOracle(ph), sched, cfg, seed=0)


class TestEvaluateRun:
    def test_identical_pairs(self):
        phs = [generate_phantom(32, 32, 4, seed=s) for s in range(3)]
        rep = evaluate_run(phs, [p.copy() for p in phs], n_boot=100)
        assert np.all(rep.nmse == 0)
        assert np.all(rep.ssim == pytest.approx(1.0, abs=1e-12))

    def test_matches_manual_composition(self):
        rng = np.random.default_rng(8)
        truths = [generate_phantom(32, 32, 4, seed=s) for s in range(4)]
        recons = [t + 0.02 * rng.standard_normal((32, 32)) for t in truths]
        rep = evaluate_run(recons, truths, n_boot=100)
        for i in range(4):
            assert rep.nmse[i] == nmse(truths[i], recons[i])
            assert rep.ssim[i] == ssim(truths[i], recons[i])

    def test_deterministic_order(self):
        truths = [generate_phantom(32, 32, 4, seed=s) for s in range(3)]
        a = evaluate_run(truths, truths, n_boot=50)
        b = evaluate_run(truths, truths, n_boot=50)
        assert np.array_equal(a.nmse, b.nmse)

    def test_length_mismatch(self):
        ph = generate_phantom(32, 32, 4, seed=0)
        with pytest.raises(ValueError):
            evaluate_run([ph], [ph, ph])

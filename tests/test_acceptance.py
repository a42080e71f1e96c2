"""Acceptance suite: one test per release criterion, each at its stated
tolerance and runtime budget. A summary line per criterion is printed in the
terminal summary section."""

import time

import numpy as np
import pytest

from ssdiffmri.diffusion import (forward_step, make_schedule, posterior_params,
                                 posterior_params_strided)
from ssdiffmri.kspace import EncodingOperator, encode, fft2c, zero_filled
from ssdiffmri.masks import make_random_mask, partition_mask
from ssdiffmri.metrics import nmse, psnr, ssim
from ssdiffmri.nets import Denoiser, Discriminator
from ssdiffmri.pipeline import (SliceData, TrainConfig, Trainer, build_models,
                                dc_project, reconstruct)
from ssdiffmri.stats import anova_oneway, bootstrap_ci, studentized_range_sf, tukey_hsd
from ssdiffmri.tensorio import generate_phantom, generate_sensitivities

from conftest import record_criterion
from test_metrics import naive_ssim

# desk-scale training profile for criterion 6: data geometry pinned by the
# criterion (200 slices, 64x64, 4 coils, R=4, rho=0.5, T=100, k=25,
# <= 2000 steps); optimizer and model width are free desk choices
DESK = dict(R=4.0, rho=0.5, T=100, stride_k=25, batch_size=4, lr=1e-3,
            adv_weight=0.1, hidden=24, disc_width=10, seed=7,
            epochs=40, max_steps=1800, t_start=50)
DESK_SIZE = 64
DESK_COILS = 4
DESK_TRAIN = 200
DESK_HELD = 40


def test_criterion_1_operator_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_adj = 0.0
    for trial in range(100):
        sens = generate_sensitivities(4, 64, 64, seed=trial)
        mask = make_random_mask(64, 4, 0.04, seed=trial)
        op = EncodingOperator(sens, mask, 64, 64)
        x = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        y = rng.standard_normal((4, 64, 64)) + 1j * rng.standard_normal((4, 64, 64))
        gap = abs(np.vdot(y, encode(x, op)) - np.vdot(zero_filled(y, op), x))
        worst_adj = max(worst_adj, gap / (np.linalg.norm(x) * np.linalg.norm(y)))
    worst_uni = 0.0
    for n in (16, 64, 128):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        worst_uni = max(worst_uni,
                        abs(np.linalg.norm(fft2c(x)) - np.linalg.norm(x))
                        / np.linalg.norm(x))
    dt = time.perf_counter() - t0
    ok = worst_adj < 1e-6 and worst_uni < 1e-6 and dt < 5.0
    record_criterion(1, ok, f"adjoint {worst_adj:.2e}, unitarity {worst_uni:.2e}, "
                            f"{dt:.1f}s")
    assert worst_adj < 1e-6
    assert worst_uni < 1e-6
    assert dt < 5.0


def test_criterion_2_diffusion_identities():
    t0 = time.perf_counter()
    sched = make_schedule(100, 1e-4, 0.02)

    # closed form vs iterated chain, Monte Carlo on scalars
    rng = np.random.default_rng(1234)
    y0, t, n = 1.7, 50, 10**4
    y = np.full(n, y0)
    for step in range(1, t + 1):
        y = forward_step(y, step, rng.standard_normal(n), sched)
    mean_err = abs(y.mean() - np.sqrt(sched.alpha_bar[t]) * y0) / (
        np.sqrt(sched.alpha_bar[t]) * y0)
    var_err = abs(y.var() - (1 - sched.alpha_bar[t])) / (1 - sched.alpha_bar[t])

    # grid Bayes identity on scalar cases
    def normpdf(x, m, v):
        return np.exp(-((x - m) ** 2) / (2 * v)) / np.sqrt(2 * np.pi * v)

    # y_t values sit inside each step's noise scale so the conditional
    # densities stay representable
    bayes_err = 0.0
    grid = np.linspace(-6, 6, 4001)
    for tt, y0v, ytv in [(2, 0.7, 0.72), (50, -0.2, 1.3), (100, 1.0, 0.5)]:
        ab, ab1 = sched.alpha_bar[tt], sched.alpha_bar[tt - 1]
        num = (normpdf(ytv, np.sqrt(sched.alpha[tt]) * grid, sched.beta[tt])
               * normpdf(grid, np.sqrt(ab1) * y0v, 1 - ab1))
        den = normpdf(ytv, np.sqrt(ab) * y0v, 1 - ab)
        assert den > 0
        mu, var = posterior_params(np.array(ytv), np.array(y0v), tt, sched)
        gap = float(np.max(np.abs(num / den - normpdf(grid, float(mu), var))))
        assert np.isfinite(gap)
        bayes_err = max(bayes_err, gap)

    # perfect prediction reproduces the posterior mean bit for bit
    rng2 = np.random.default_rng(5)
    yt = rng2.standard_normal((8, 8))
    y0a = rng2.standard_normal((8, 8))
    exact = np.array_equal(posterior_params(yt, y0a, 30, sched)[0],
                           posterior_params_strided(yt, y0a, 30, 29, sched)[0])
    dt = time.perf_counter() - t0
    ok = mean_err < 0.02 and var_err < 0.02 and bayes_err < 1e-8 and exact and dt < 30
    record_criterion(2, ok, f"MC mean {mean_err:.3%}, var {var_err:.3%}, "
                            f"Bayes {bayes_err:.1e}, bit-exact {exact}, {dt:.1f}s")
    assert mean_err < 0.02 and var_err < 0.02
    assert bayes_err < 1e-8
    assert exact
    assert dt < 30


def test_criterion_3_gradient_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    B, H, W = 2, 8, 8

    def probe(state, loss_fn, grads, n_probe, h=1e-6):
        errs = []
        for i in rng.choice(state.params.size, n_probe, replace=False):
            p0 = state.params[i]
            state.params[i] = p0 + h
            lp = loss_fn()
            state.params[i] = p0 - h
            lm = loss_fn()
            state.params[i] = p0
            fd = (lp - lm) / (2 * h)
            errs.append(abs(fd - grads[i]) / max(abs(fd), abs(grads[i]), 1e-8))
        return max(errs)

    def cplx(x):
        return x[..., 0] + 1j * x[..., 1]

    den = Denoiser(6, seed=1)
    assert den.state.params.size <= 5000
    y = cplx(rng.standard_normal((B, H, W, 2)))
    cond = cplx(rng.standard_normal((B, H, W, 2)))
    tfrac = np.array([0.3, 0.7])
    target = cplx(rng.standard_normal((B, H, W, 2)))

    def den_loss():
        out = den.forward(y, tfrac, cond)
        return 0.5 * float(np.sum(np.abs(out - target) ** 2))

    out = den.forward(y, tfrac, cond, keep_cache=True)
    den.state.zero_grads()
    den.backward(out - target)
    err_den = probe(den.state, den_loss, den.state.grads.copy(), 20)

    disc = Discriminator(6, seed=2)
    assert disc.state.params.size <= 5000
    s = cplx(rng.standard_normal((B, H, W, 2)))
    c = cplx(rng.standard_normal((B, H, W, 2)))

    def disc_loss_fn():
        sc = disc.forward(s, c, train=True, update_running=False)
        return float(np.sum(-np.log(sc)))

    sc = disc.forward(s, c, train=True, update_running=False)
    disc.state.zero_grads()
    disc.backward(-1.0 / sc)
    err_disc = probe(disc.state, disc_loss_fn, disc.state.grads.copy(), 20)

    # input gradient (the penalty path), eval mode for a per-sample function
    disc.forward(s, c, train=False)
    g_in = disc.backward(np.ones(B), accumulate=False).view(np.float64)
    errs = []
    flat = s.view(np.float64).ravel()  # (real, imag) of each pixel in turn
    h = 1e-5
    for i in rng.choice(flat.size, 20, replace=False):
        p0 = flat[i]
        flat[i] = p0 + h
        lp = float(np.sum(disc.forward(s, c)))
        flat[i] = p0 - h
        lm = float(np.sum(disc.forward(s, c)))
        flat[i] = p0
        fd = (lp - lm) / (2 * h)
        errs.append(abs(fd - g_in.ravel()[i]) / max(abs(fd), abs(g_in.ravel()[i]), 1e-8))
    err_inp = max(errs)

    dt = time.perf_counter() - t0
    ok = err_den < 1e-3 and err_disc < 1e-3 and err_inp < 1e-3 and dt < 30
    record_criterion(3, ok, f"denoiser {err_den:.1e}, disc {err_disc:.1e}, "
                            f"input {err_inp:.1e}, {dt:.1f}s")
    assert err_den < 1e-3
    assert err_disc < 1e-3
    assert err_inp < 1e-3
    assert dt < 30


def test_criterion_4_partition_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    for _ in range(1000):
        width = int(rng.choice([64, 128, 256]))
        R = float(rng.choice([2, 4, 8]))
        rho = float(rng.choice([0.3, 0.5, 0.7]))
        seed = int(rng.integers(2**31))
        acquired = make_random_mask(width, R, 0.04, seed=seed)
        train, loss = partition_mask(acquired, rho, seed=seed + 1)
        assert np.array_equal(train | loss, acquired.sampled)
        center = np.zeros(width, bool)
        center[slice(*acquired.center)] = True
        assert np.array_equal(train & loss, center)
        n_outer = acquired.outer_indices().size
        assert abs(np.count_nonzero(train & ~center) - rho * n_outer) <= 1
    dt = time.perf_counter() - t0
    record_criterion(4, dt < 5.0, f"1000 draws clean, {dt:.1f}s")
    assert dt < 5.0


def test_criterion_5_dc_projection():
    t0 = time.perf_counter()
    rows = 64
    # exactness in the single-coil configuration where the per-coil
    # replacement after coil combination is an exact projection
    sens1 = generate_sensitivities(1, rows, rows, seed=0)
    ph = generate_phantom(rows, rows, 6, seed=1)
    om = make_random_mask(rows, 4, 0.04, seed=2)
    op = EncodingOperator(sens1, om, rows, rows)
    meas = encode(ph, op)
    rng = np.random.default_rng(3)
    pred = rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows))
    once = dc_project(pred, meas, sens1, om.sampled)
    twice = dc_project(once, meas, sens1, om.sampled)
    idem = np.max(np.abs(twice - once)) / max(1.0, np.max(np.abs(once)))
    re_enc = encode(once, op)
    cols = om.indices()
    ks_err = (np.linalg.norm(re_enc[..., cols] - meas[..., cols])
              / np.linalg.norm(meas[..., cols]))

    # full-mask reconstruction with an untrained model
    sens4 = generate_sensitivities(DESK_COILS, rows, rows, seed=4)
    full = make_random_mask(rows, 1, 0.04, seed=0)
    opf = EncodingOperator(sens4, full, rows, rows)
    cfg = TrainConfig(R=1, rho=0.5, seed=0, hidden=6, disc_width=4)
    den, _ = build_models(cfg)
    sched = make_schedule(cfg.T, cfg.beta_1, cfg.beta_T)
    res = reconstruct(encode(ph, opf), full, sens4, den, sched, cfg, seed=0,
                      allow_untrained=True)
    full_nmse = nmse(ph, res.image)
    dt = time.perf_counter() - t0
    ok = idem < 1e-6 and ks_err < 1e-6 and full_nmse < 1e-3 and dt < 5.0
    record_criterion(5, ok, f"idempotence {idem:.1e}, k-space {ks_err:.1e}, "
                            f"full-mask NMSE {full_nmse:.1e}, {dt:.1f}s")
    assert idem < 1e-6
    assert ks_err < 1e-6
    assert full_nmse < 1e-3
    assert dt < 5.0


def _desk_dataset():
    sens = generate_sensitivities(DESK_COILS, DESK_SIZE, DESK_SIZE, seed=99)
    train = []
    for i in range(DESK_TRAIN):
        ph = generate_phantom(DESK_SIZE, DESK_SIZE, 8, seed=1000 + i)
        om = make_random_mask(DESK_SIZE, DESK["R"], 0.04, seed=2000 + i)
        op = EncodingOperator(sens, om, DESK_SIZE, DESK_SIZE)
        train.append(SliceData(i, encode(ph, op), om))
    held = []
    for i in range(DESK_HELD):
        ph = generate_phantom(DESK_SIZE, DESK_SIZE, 8, seed=50000 + i)
        om = make_random_mask(DESK_SIZE, DESK["R"], 0.04, seed=60000 + i)
        held.append((ph, om))
    return sens, train, held


@pytest.mark.slow
def test_criterion_6_desk_scale_training():
    sens, train, held = _desk_dataset()
    cfg = TrainConfig(**DESK)
    den, disc = build_models(cfg)
    trainer = Trainer(den, disc, sens, cfg)
    t0 = time.perf_counter()
    reports = trainer.fit(train)
    train_minutes = (time.perf_counter() - t0) / 60.0
    assert len(reports) <= 2000

    gains_p, gains_s = [], []
    for i, (ph, om) in enumerate(held):
        op = EncodingOperator(sens, om, DESK_SIZE, DESK_SIZE)
        meas = encode(ph, op)
        zf = zero_filled(meas, op)
        res = reconstruct(meas, om, sens, den, trainer.sched, cfg, seed=i)
        gains_p.append(psnr(ph, res.image) - psnr(ph, zf))
        gains_s.append(ssim(ph, res.image) - ssim(ph, zf))
    med_p = float(np.median(gains_p))
    med_s = float(np.median(gains_s))
    ok = med_p >= 3.0 and med_s >= 0.05 and train_minutes < 20.0
    record_criterion(6, ok, f"{len(reports)} steps in {train_minutes:.1f} min; "
                            f"median dPSNR {med_p:+.2f} dB, dSSIM {med_s:+.3f} "
                            f"over {DESK_HELD} held-out slices")
    assert train_minutes < 20.0
    assert med_p >= 3.0
    assert med_s >= 0.05


def test_criterion_7_information_hiding():
    rows = 32
    sens = generate_sensitivities(2, rows, rows, seed=0)
    ph = generate_phantom(rows, rows, 5, seed=1)
    om = make_random_mask(rows, 4, 0.06, seed=2)
    op = EncodingOperator(sens, om, rows, rows)
    meas = encode(ph, op)
    cfg = TrainConfig(R=4, rho=0.5, seed=3, hidden=6, disc_width=4,
                      batch_size=1, dtype="float64")

    seen = []

    class Recorder(Denoiser):
        def forward(self, y_t, t_frac, cond, keep_cache=False):
            seen.append((np.asarray(y_t).copy(), np.asarray(t_frac).copy(),
                         np.asarray(cond).copy()))
            return super().forward(y_t, t_frac, cond, keep_cache)

    def one_step(ks):
        den, disc = build_models(cfg)
        rec = Recorder(cfg.hidden, seed=cfg.seed, dtype=np.float64)
        rec.state = den.state
        rec.convs = den.convs
        trainer = Trainer(rec, disc, sens, cfg)
        return trainer.train_step([SliceData(0, ks, om)])

    rep_a = one_step(meas)
    inputs_a = seen.pop()
    rng = np.random.default_rng([cfg.seed & 0x7FFFFFFF, 1, 0, 0])
    train, loss = partition_mask(om, cfg.rho, seed=int(rng.integers(2**31)))
    loss_only = np.flatnonzero(loss & ~train)
    assert loss_only.size > 0
    ks2 = meas.copy()
    noise_rng = np.random.default_rng(9)
    shape = ks2[..., loss_only].shape
    ks2[..., loss_only] = (noise_rng.standard_normal(shape)
                           + 1j * noise_rng.standard_normal(shape))
    rep_b = one_step(ks2)
    inputs_b = seen.pop()

    same_inputs = all(np.array_equal(a, b) for a, b in zip(inputs_a, inputs_b))
    loss_changed = rep_a.l_recon != rep_b.l_recon
    record_criterion(7, same_inputs and loss_changed,
                     f"model inputs bit-identical {same_inputs}, "
                     f"loss changed {loss_changed}")
    assert same_inputs
    assert loss_changed


def _brute_nmse(y, yh):
    num = den = 0.0
    for a, b in zip(np.abs(y).ravel(), np.abs(yh).ravel()):
        num += (a - b) ** 2
        den += a * a
    return num / den


def _brute_psnr(y, yh):
    import math
    ya = np.abs(y).ravel()
    yb = np.abs(yh).ravel()
    mse = sum((a - b) ** 2 for a, b in zip(ya, yb)) / ya.size
    return 10.0 * math.log10(max(ya) ** 2 / mse)


def test_criterion_8_metrics_oracle():
    rng = np.random.default_rng(8)
    worst = {"nmse": 0.0, "psnr": 0.0, "ssim": 0.0}
    for _ in range(10):
        y = rng.random((16, 16)) + 0.2
        yh = y + 0.07 * rng.standard_normal((16, 16))
        worst["nmse"] = max(worst["nmse"], abs(nmse(y, yh) - _brute_nmse(y, yh)))
        worst["psnr"] = max(worst["psnr"], abs(psnr(y, yh) - _brute_psnr(y, yh)))
        worst["ssim"] = max(worst["ssim"], abs(ssim(y, yh) - naive_ssim(y, yh)))
    y = rng.random((16, 16)) + 0.5
    yh = y + 0.05 * rng.standard_normal((16, 16))
    scale_gap = max(abs(nmse(c * y, c * yh) - nmse(y, yh)) for c in (2.0, 0.03, -5.0))
    self_sim = ssim(y, y)
    ok = (worst["nmse"] < 1e-6 and worst["psnr"] < 1e-6 and worst["ssim"] < 1e-4
          and scale_gap < 1e-12 and self_sim == pytest.approx(1.0, abs=1e-12))
    record_criterion(8, ok, f"nmse {worst['nmse']:.1e}, psnr {worst['psnr']:.1e}, "
                            f"ssim {worst['ssim']:.1e}, scale {scale_gap:.1e}, "
                            f"ssim(y,y)={self_sim}")
    assert worst["nmse"] < 1e-6
    assert worst["psnr"] < 1e-6
    assert worst["ssim"] < 1e-4
    assert scale_gap < 1e-12
    assert self_sim == pytest.approx(1.0, abs=1e-12)


def test_criterion_9_statistics():
    fixture = [(6, 8, 4, 5, 3, 4), (8, 12, 9, 11, 6, 8), (13, 9, 11, 8, 7, 12)]
    f, _ = anova_oneway(fixture)
    anova_gap = abs(f - 9.264705882352942)

    rng = np.random.default_rng(9)
    tsq_gap = 0.0
    from scipy import stats as sps
    for _ in range(10):
        a = rng.standard_normal(7)
        b = rng.standard_normal(9) + 0.4
        fv, _ = anova_oneway([a, b])
        tv, _ = sps.ttest_ind(a, b)
        tsq_gap = max(tsq_gap, abs(fv - tv**2))

    base = rng.standard_normal(8)
    ps = [tukey_hsd([base, base + gap])[0][3] for gap in (0.5, 1.0, 2.0, 4.0)]
    monotone = all(x > y for x, y in zip(ps, ps[1:]))

    x = np.random.default_rng(42).standard_normal(1000)
    lo, hi = bootstrap_ci(x, n_boot=10000, level=0.95, seed=7)
    width_gap = abs((hi - lo) - 2 * 1.96 / np.sqrt(1000)) / (2 * 1.96 / np.sqrt(1000))

    g = [1.0, 2.0, 3.0]
    f_id, p_id = anova_oneway([g, g, g])
    tuk_id = tukey_hsd([g, g, g])
    ident_ok = p_id == 1.0 and all(p == 1.0 for *_, p in tuk_id)

    # quadrature vs the independent high-resolution implementation
    quad_gap = max(abs(studentized_range_sf(q, 3, 15) - sps.studentized_range.sf(q, 3, 15))
                   for q in (1.15, 3.0, 4.6, 5.75))

    ok = (anova_gap < 1e-8 and tsq_gap < 1e-10 and monotone
          and width_gap < 0.2 and ident_ok and quad_gap < 1e-3)
    record_criterion(9, ok, f"ANOVA {anova_gap:.1e}, F-t2 {tsq_gap:.1e}, "
                            f"monotone {monotone}, BCa width {width_gap:.1%}, "
                            f"identical p=1 {ident_ok}, quadrature {quad_gap:.1e}")
    assert anova_gap < 1e-8
    assert tsq_gap < 1e-10
    assert monotone
    assert width_gap < 0.2
    assert ident_ok
    assert quad_gap < 1e-3


@pytest.mark.slow
def test_criterion_10_rho_sweep(tmp_path):
    from ssdiffmri.cli import run as cli_run

    data = tmp_path / "phantoms"
    assert cli_run(["phantom", "--n", "16", "--size", "64", "--coils", "4",
                    "--seed", "21", "--out", str(data)]) == 0
    out = tmp_path / "sweep"
    code = cli_run(["sweep", "--data", str(data), "--out", str(out),
                    "--rho-grid", "0.3", "0.5", "0.7", "--R-grid", "2", "4",
                    "--max-steps", "30", "--hidden", "8", "--disc-width", "4",
                    "--batch-size", "4", "--epochs", "10", "--lr", "1e-3",
                    "--n-boot", "200", "--seed", "5"])
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().split("\n")
    header_ok = rows[0] == "R,rho,slice,nmse,psnr,ssim"
    combos = set()
    finite = True
    for row in rows[1:]:
        R, rho, idx, a, b, c = row.split(",")
        combos.add((float(R), float(rho)))
        finite &= all(np.isfinite(float(v)) for v in (a, b, c))
    expect = {(R, rho) for R in (2.0, 4.0) for rho in (0.3, 0.5, 0.7)}
    ok = header_ok and combos == expect and finite and len(rows) == 1 + 6 * 16
    record_criterion(10, ok, f"6 runs, {len(rows) - 1} rows, finite {finite}")
    assert header_ok
    assert combos == expect
    assert finite
    assert len(rows) == 1 + 6 * 16

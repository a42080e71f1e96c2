import os

import numpy as np
import pytest

from ssdiffmri import tensorio
from ssdiffmri.nets import (BN_EPS, Denoiser, DenoiserSpec, Discriminator,
                            DiscriminatorSpec, ModelState, _BatchNorm,
                            _channel_sum, _Conv3x3, _im2col_blocks, _pad, adam_step,
                            load_checkpoint, load_state, save_checkpoint, save_state)


def fd_param_check(state, loss_fn, grads, rng, n_probe=20, h=1e-6):
    """Central finite differences on randomly probed parameters."""
    errs = []
    idx = rng.choice(state.params.size, n_probe, replace=False)
    for i in idx:
        p0 = state.params[i]
        state.params[i] = p0 + h
        lp = loss_fn()
        state.params[i] = p0 - h
        lm = loss_fn()
        state.params[i] = p0
        fd = (lp - lm) / (2 * h)
        errs.append(abs(fd - grads[i]) / max(abs(fd), abs(grads[i]), 1e-8))
    return max(errs)


@pytest.fixture
def tiny_denoiser():
    return Denoiser(DenoiserSpec(channels=(5, 6, 6, 2)), seed=1)


@pytest.fixture
def tiny_disc():
    return Discriminator(DiscriminatorSpec(width=6), seed=2)


class TestSpecs:
    def test_denoiser_param_count(self):
        spec = DenoiserSpec(channels=(5, 8, 2))
        # 9*5*8 + 8 + 9*8*2 + 2
        assert spec.param_count == 360 + 8 + 144 + 2
        den = Denoiser(spec, seed=0)
        assert den.state.blocks[-1].stop == den.state.params.size == spec.param_count

    def test_discriminator_param_count(self):
        spec = DiscriminatorSpec(width=6)
        disc = Discriminator(spec, seed=0)
        assert disc.state.blocks[-1].stop == disc.state.params.size == spec.param_count

    def test_blocks_tile_the_flat_arrays_in_layer_order(self):
        disc = Discriminator(DiscriminatorSpec(width=3, n_layers=2), seed=0)
        names = [b.name for b in disc.state.blocks]
        assert names == ["conv0.w", "conv0.b", "bn0.gamma", "bn0.beta",
                         "conv1.w", "conv1.b", "bn1.gamma", "bn1.beta",
                         "head.w", "head.b"]
        assert [b.start for b in disc.state.blocks[1:]] == [
            b.stop for b in disc.state.blocks[:-1]]
        assert list(disc.state.buffers) == ["bn0.run_mean", "bn0.run_var",
                                            "bn1.run_mean", "bn1.run_var"]

    def test_layer_views_share_the_flat_arrays(self, tiny_disc):
        conv, bn = tiny_disc.convs[1], tiny_disc.bns[1]
        tiny_disc.state.params[:] = 2.0
        tiny_disc.state.grads[:] = 3.0
        assert np.all(conv.w == 2.0) and np.all(bn.gamma == 2.0)
        assert np.all(conv.dw == 3.0) and np.all(tiny_disc.head_db == 3.0)
        assert bn.run_var is tiny_disc.state.buffers["bn1.run_var"]


class TestDenoiser:
    def test_residual_identity_at_zero_weights(self, tiny_denoiser):
        rng = np.random.default_rng(1)
        tiny_denoiser.state.params[:] = 0.0
        y = rng.standard_normal((2, 8, 8, 2))
        out = tiny_denoiser.forward(y, np.array([0.1, 0.9]))
        np.testing.assert_array_equal(out, y)

    def test_eval_determinism(self, tiny_denoiser):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((2, 8, 8, 2))
        c = rng.standard_normal((2, 8, 8, 2))
        t = np.array([0.2, 0.4])
        a = tiny_denoiser.forward(y, t, c)
        b = tiny_denoiser.forward(y, t, c)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("size", [32, 64])
    def test_output_shape(self, tiny_denoiser, size):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((1, size, size, 2))
        out = tiny_denoiser.forward(y, np.array([0.5]))
        assert out.shape == (1, size, size, 2)

    def test_param_gradients_match_fd(self, tiny_denoiser):
        rng = np.random.default_rng(4)
        den = tiny_denoiser
        y = rng.standard_normal((2, 8, 8, 2))
        c = rng.standard_normal((2, 8, 8, 2))
        t = np.array([0.3, 0.7])
        target = rng.standard_normal((2, 8, 8, 2))

        def loss():
            out = den.forward(y, t, c, train=True)
            return 0.5 * float(np.sum((out - target) ** 2))

        out = den.forward(y, t, c, train=True, keep_cache=True)
        den.state.zero_grads()
        den.backward(out - target)
        err = fd_param_check(den.state, loss, den.state.grads.copy(), rng,
                             n_probe=25)
        assert err < 1e-3

    def test_zero_upstream_zero_grads(self, tiny_denoiser):
        rng = np.random.default_rng(5)
        den = tiny_denoiser
        y = rng.standard_normal((1, 8, 8, 2))
        den.forward(y, np.array([0.5]), train=True, keep_cache=True)
        den.state.zero_grads()
        den.backward(np.zeros((1, 8, 8, 2)))
        assert np.all(den.state.grads == 0)

    def test_backward_linearity(self, tiny_denoiser):
        rng = np.random.default_rng(6)
        den = tiny_denoiser
        y = rng.standard_normal((1, 8, 8, 2))
        g1 = rng.standard_normal((1, 8, 8, 2))
        g2 = rng.standard_normal((1, 8, 8, 2))
        den.forward(y, np.array([0.5]), train=True, keep_cache=True)
        den.state.zero_grads()
        den.backward(g1)
        a = den.state.grads.copy()
        den.state.zero_grads()
        den.backward(g2)
        b = den.state.grads.copy()
        den.state.zero_grads()
        den.backward(g1 + g2)
        np.testing.assert_allclose(den.state.grads, a + b, atol=1e-10)

    def test_first_conv_skips_its_input_gradient(self, tiny_denoiser):
        # nothing reads the gradient w.r.t. the assembled input, so the
        # first conv forms only its parameter gradients
        rng = np.random.default_rng(19)
        den = tiny_denoiser
        den.forward(rng.standard_normal((2, 8, 8, 2)), np.array([0.2, 0.6]),
                    train=True, keep_cache=True)
        assert den.backward(rng.standard_normal((2, 8, 8, 2))) is None
        conv0 = den.convs[0]
        g = rng.standard_normal((2, 8, 8, conv0.cout))
        den.state.zero_grads()
        assert conv0.backward(g, input_grad=False) is None
        skipped = den.state.grads.copy()
        den.state.zero_grads()
        assert conv0.backward(g).shape == (2, 8, 8, conv0.cin)
        assert np.array_equal(den.state.grads, skipped)

    def test_backward_without_forward_raises(self, tiny_denoiser):
        with pytest.raises(RuntimeError):
            tiny_denoiser.backward(np.zeros((1, 8, 8, 2)))

    def test_channel_mismatch_rejected(self, tiny_denoiser):
        with pytest.raises(ValueError):
            tiny_denoiser.forward(np.zeros((1, 8, 8, 3)), np.array([0.5]))


class TestDiscriminator:
    def test_zero_weights_score_half(self, tiny_disc):
        rng = np.random.default_rng(7)
        tiny_disc.state.params[:] = 0.0
        s = rng.standard_normal((3, 8, 8, 2))
        c = rng.standard_normal((3, 8, 8, 2))
        np.testing.assert_array_equal(tiny_disc.forward(s, c), 0.5)

    def test_scores_strictly_inside_unit_interval(self, tiny_disc):
        rng = np.random.default_rng(8)
        for trial in range(5):
            s = 10 * rng.standard_normal((2, 8, 8, 2))
            c = 10 * rng.standard_normal((2, 8, 8, 2))
            scores = tiny_disc.forward(s, c, train=trial % 2 == 0,
                                       update_running=False)
            assert np.all(scores > 0) and np.all(scores < 1)

    def test_eval_determinism(self, tiny_disc):
        rng = np.random.default_rng(9)
        s = rng.standard_normal((2, 8, 8, 2))
        c = rng.standard_normal((2, 8, 8, 2))
        assert np.array_equal(tiny_disc.forward(s, c), tiny_disc.forward(s, c))

    def test_param_gradients_match_fd_train_mode(self, tiny_disc):
        rng = np.random.default_rng(10)
        disc = tiny_disc
        s = rng.standard_normal((2, 8, 8, 2))
        c = rng.standard_normal((2, 8, 8, 2))

        def loss():
            sc = disc.forward(s, c, train=True, update_running=False)
            return float(np.sum(-np.log(sc)))

        sc = disc.forward(s, c, train=True, keep_cache=True, update_running=False)
        disc.state.zero_grads()
        disc.backward(-1.0 / sc)
        err = fd_param_check(disc.state, loss, disc.state.grads.copy(), rng,
                             n_probe=25)
        assert err < 1e-3

    def test_input_gradient_matches_fd(self, tiny_disc):
        rng = np.random.default_rng(11)
        # eval mode: frozen normalization makes the scores a per-sample
        # function, so coordinate-wise finite differences are well posed
        disc = tiny_disc
        s = rng.standard_normal((2, 8, 8, 2))
        c = rng.standard_normal((2, 8, 8, 2))
        g = disc.input_grad(s, c, train=False)
        h = 1e-5
        errs = []
        flat = s.ravel()
        for i in rng.choice(flat.size, 25, replace=False):
            p0 = flat[i]
            flat[i] = p0 + h
            lp = float(np.sum(disc.forward(s, c)))
            flat[i] = p0 - h
            lm = float(np.sum(disc.forward(s, c)))
            flat[i] = p0
            fd = (lp - lm) / (2 * h)
            errs.append(abs(fd - g.ravel()[i]) / max(abs(fd), abs(g.ravel()[i]), 1e-8))
        assert max(errs) < 1e-3

    def test_input_grad_zero_for_constant_disc(self, tiny_disc):
        rng = np.random.default_rng(12)
        tiny_disc.state.params[:] = 0.0
        s = rng.standard_normal((2, 8, 8, 2))
        g = tiny_disc.input_grad(s, s.copy())
        assert np.all(g == 0)

    def test_input_grad_shape(self, tiny_disc):
        rng = np.random.default_rng(13)
        s = rng.standard_normal((3, 8, 8, 2))
        assert tiny_disc.input_grad(s, s.copy()).shape == s.shape

    def test_input_grad_leaves_param_grads_alone(self, tiny_disc):
        rng = np.random.default_rng(14)
        s = rng.standard_normal((2, 8, 8, 2))
        tiny_disc.state.zero_grads()
        tiny_disc.input_grad(s, s.copy(), train=True)
        assert np.all(tiny_disc.state.grads == 0)

    def test_cached_backward_equals_input_grad_train_mode(self, tiny_disc):
        # the train step takes the penalty's input gradient from the cache
        # of the fake-pair forward and backward instead of a fresh forward
        rng = np.random.default_rng(5)
        s = rng.standard_normal((3, 8, 8, 2))
        c = rng.standard_normal((3, 8, 8, 2))
        tiny_disc.forward(s, c, train=True, keep_cache=True)
        tiny_disc.backward(rng.standard_normal(3))
        cached = tiny_disc.backward(np.ones(3), accumulate=False)[..., :2]
        assert np.array_equal(cached, tiny_disc.input_grad(s, c, train=True))

    @pytest.mark.parametrize("train", [True, False])
    def test_backward_without_input_grad_keeps_param_grads(self, tiny_disc, train):
        rng = np.random.default_rng(6)
        s = rng.standard_normal((3, 8, 8, 2))
        c = rng.standard_normal((3, 8, 8, 2))
        dscore = rng.standard_normal(3)
        grads = []
        for input_grad in (True, False):
            tiny_disc.state.zero_grads()
            tiny_disc.forward(s, c, train=train, keep_cache=True, update_running=False)
            got = tiny_disc.backward(dscore, input_grad=input_grad)
            assert (got is None) == (not input_grad)
            grads.append(tiny_disc.state.grads.tobytes())
        assert grads[0] == grads[1]

    def test_penalty_param_grads_match_fd(self, tiny_disc):
        rng = np.random.default_rng(15)
        disc = tiny_disc
        s = rng.standard_normal((2, 8, 8, 2))
        c = rng.standard_normal((2, 8, 8, 2))

        def penalty():
            g = disc.input_grad(s, c)
            return 0.5 * float(np.sum(g**2))

        disc.state.zero_grads()
        gi = disc.input_grad(s, c)
        disc.penalty_param_grads(s, c, gi, scale=1.0, h=1e-4)
        grads = disc.state.grads.copy()
        err = fd_param_check(disc.state, penalty, grads, rng, n_probe=12, h=1e-5)
        assert err < 1e-2  # finite-difference-of-backward approximation

    def test_running_stats_update_only_when_asked(self, tiny_disc):
        rng = np.random.default_rng(16)
        s = rng.standard_normal((2, 8, 8, 2))
        before = {k: v.copy() for k, v in tiny_disc.state.buffers.items()}
        tiny_disc.forward(s, s.copy(), train=True, update_running=False)
        for k in before:
            assert np.array_equal(tiny_disc.state.buffers[k], before[k])
        tiny_disc.forward(s, s.copy(), train=True, update_running=True)
        assert any(not np.array_equal(tiny_disc.state.buffers[k], before[k])
                   for k in before)


def _rel_err(got, want):
    return float(np.max(np.abs(np.asarray(got, np.float64) - want)) / np.max(np.abs(want)))


def _ref_im2col(x):
    """The whole (B*H*W, 9*C) im2col of a same-padded 3x3 conv in one array."""
    B, H, W, C = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(B * H * W, 9 * C)


def _textbook_bn(x, g, gamma, beta, mean, var, train):
    """Batch norm forward and backward from the defining formulas, in float64."""
    x, g = x.astype(np.float64), g.astype(np.float64)
    gamma, beta = gamma.astype(np.float64), beta.astype(np.float64)
    axes = (0, 1, 2)
    if train:
        mean, var = x.mean(axis=axes), x.var(axis=axes)
    ivar = 1.0 / np.sqrt(np.asarray(var, np.float64) + BN_EPS)
    xhat = (x - mean) * ivar
    y = gamma * xhat + beta
    dgamma, dbeta = (g * xhat).sum(axis=axes), g.sum(axis=axes)
    if train:
        n = x.size // x.shape[-1]
        dx = gamma * ivar / n * (n * g - dbeta - xhat * dgamma)
    else:
        dx = g * gamma * ivar
    return y, dx, dgamma, dbeta


class TestChannelOps:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("C", [1, 2, 10, 24])
    @pytest.mark.parametrize("W", [1, 8])
    def test_channel_sum_is_the_sum_over_leading_axes(self, dtype, C, W):
        x = np.random.default_rng(C * W).standard_normal((3, 5, W, C)).astype(dtype)
        got = _channel_sum(x, C)
        assert got.shape == (C,) and got.dtype == dtype
        rtol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(got, x.astype(np.float64).sum(axis=(0, 1, 2)),
                                   rtol=rtol, atol=rtol * np.sqrt(x.size))

    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("train", [True, False])
    def test_batch_norm_matches_the_textbook_formula(self, dtype, rtol, train):
        rng = np.random.default_rng(20)
        C = 10
        state = ModelState(2 * C, dtype)
        bn = _BatchNorm(state, "bn", C)
        bn.gamma[:] = rng.uniform(0.5, 1.5, C)
        bn.beta[:] = rng.standard_normal(C)
        bn.run_mean[:] = rng.standard_normal(C)
        bn.run_var[:] = rng.uniform(0.5, 2.0, C)
        # a ReLU output: non-negative, with a non-zero mean per channel
        x = np.maximum(rng.standard_normal((4, 16, 16, C)), 0.0).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)
        want = _textbook_bn(x, g, bn.gamma, bn.beta, bn.run_mean.copy(),
                            bn.run_var.copy(), train)
        y = bn.forward(x, train, keep_cache=True, update_running=False)
        dx = bn.backward(g, accumulate=True)
        assert y.dtype == dx.dtype == dtype
        assert y.shape == dx.shape == x.shape
        for got, ref in zip((y, dx, bn.dgamma, bn.dbeta), want):
            assert _rel_err(got, ref) <= rtol

    def test_batch_norm_updates_running_stats_with_batch_stats(self):
        rng = np.random.default_rng(21)
        bn = _BatchNorm(ModelState(8, np.float64), "bn", 4)
        x = rng.standard_normal((2, 6, 6, 4)) + 3.0
        bn.forward(x, train=True, keep_cache=False)
        np.testing.assert_allclose(bn.run_mean, 0.1 * x.mean(axis=(0, 1, 2)), rtol=1e-12)
        np.testing.assert_allclose(bn.run_var, 0.9 + 0.1 * x.var(axis=(0, 1, 2)),
                                   rtol=1e-12)

    @pytest.mark.parametrize("train", [False, True])
    def test_batch_norm_input_gradient_matches_fd(self, train):
        rng = np.random.default_rng(22)
        C = 3
        bn = _BatchNorm(ModelState(2 * C, np.float64), "bn", C)
        bn.gamma[:] = rng.uniform(0.5, 1.5, C)
        bn.beta[:] = rng.standard_normal(C)
        bn.run_mean[:] = rng.standard_normal(C)
        bn.run_var[:] = rng.uniform(0.5, 2.0, C)
        x = rng.standard_normal((2, 4, 5, C))
        r = rng.standard_normal(x.shape)

        def loss():
            return float(np.sum(r * bn.forward(x, train, keep_cache=False,
                                               update_running=False)))

        bn.forward(x, train, keep_cache=True, update_running=False)
        dx = bn.backward(r, accumulate=False)
        h = 1e-6
        flat = x.ravel()
        for i in rng.choice(flat.size, 20, replace=False):
            p0 = flat[i]
            flat[i] = p0 + h
            lp = loss()
            flat[i] = p0 - h
            lm = loss()
            flat[i] = p0
            assert (lp - lm) / (2 * h) == pytest.approx(dx.ravel()[i], rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv_forward_is_bitwise_the_gemm_plus_bias(self, dtype):
        rng = np.random.default_rng(23)
        state = ModelState(9 * 5 * 7 + 7, dtype)
        conv = _Conv3x3(state, "conv", 5, 7, rng)
        conv.b[:] = rng.standard_normal(7)
        x = rng.standard_normal((2, 6, 9, 5)).astype(dtype)
        want = (_ref_im2col(x) @ conv.w + conv.b).reshape(2, 6, 9, 7)
        assert conv.forward(x, keep_cache=False).tobytes() == want.tobytes()

    @pytest.mark.parametrize("cin,cout", [(4, 10), (10, 10), (24, 24), (24, 2)])
    def test_conv_input_gradient_is_the_adjoint(self, cin, cout):
        """<conv(x) - b, g> == <x, backward(g)> on a non-square image, and the
        float32 input gradient agrees with the float64 one."""
        rng = np.random.default_rng(24)
        x = rng.standard_normal((2, 6, 9, cin))
        g = rng.standard_normal((2, 6, 9, cout))
        b = rng.standard_normal(cout)
        dx = {}
        for dtype in (np.float64, np.float32):
            conv = _Conv3x3(ModelState(9 * cin * cout + cout, dtype), "conv", cin, cout,
                            np.random.default_rng(25))
            conv.b[:] = b
            y = conv.forward(x.astype(dtype), keep_cache=True) - conv.b
            dx[dtype] = conv.backward(g.astype(dtype), accumulate=False)
            assert dx[dtype].shape == x.shape and dx[dtype].dtype == dtype
            if dtype == np.float64:
                lhs, rhs = np.vdot(y, g), np.vdot(x, dx[dtype])
                assert abs(lhs - rhs) <= 1e-12 * (np.abs(y).ravel() @ np.abs(g).ravel())
        assert _rel_err(dx[np.float32], dx[np.float64]) <= 1e-5


class TestBlockedConv:
    """The conv forms im2col in blocks of image rows; every result must
    equal the single-GEMM im2col reference."""

    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("shape,several", [((4, 64, 64), True), ((2, 6, 9), False)])
    @pytest.mark.parametrize("cin,cout", [(4, 10), (10, 10), (5, 24), (24, 24), (24, 2)])
    def test_matches_the_single_gemm(self, cin, cout, shape, several, dtype, rtol):
        rng = np.random.default_rng(cin * 100 + cout)
        conv = _Conv3x3(ModelState(9 * cin * cout + cout, dtype), "conv", cin, cout, rng)
        conv.b[:] = rng.standard_normal(cout)
        x = rng.standard_normal(shape + (cin,)).astype(dtype)
        g = rng.standard_normal(shape + (cout,)).astype(dtype)
        assert (len(list(_im2col_blocks(_pad(x)))) > 1) == several
        # float64 references from the same (possibly float32) values
        x64, g64 = x.astype(np.float64), g.astype(np.float64)
        w64, b64 = conv.w.astype(np.float64), conv.b.astype(np.float64)
        w_flip = (w64.reshape(3, 3, cin, cout)[::-1, ::-1]
                  .transpose(0, 1, 3, 2).reshape(9 * cout, cin))
        gmat = g64.reshape(-1, cout)

        y = conv.forward(x, keep_cache=True)
        dx = conv.backward(g)
        assert y.dtype == dx.dtype == dtype
        assert _rel_err(y, (_ref_im2col(x64) @ w64 + b64).reshape(y.shape)) <= rtol
        assert _rel_err(conv.dw, _ref_im2col(x64).T @ gmat) <= rtol
        assert _rel_err(conv.db, gmat.sum(axis=0)) <= rtol
        assert _rel_err(dx, (_ref_im2col(g64) @ w_flip).reshape(x.shape)) <= rtol

    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("shape", [(4, 64, 64), (2, 6, 9)])
    @pytest.mark.parametrize("cin,cout", [(5, 24), (4, 10), (24, 2)])
    def test_weight_gradient_without_input_gradient(self, cin, cout, shape, dtype, rtol):
        """A parameter-only backward gives the same bytes of dw as a full one
        (widening layers take dw from the input's im2col, the others from
        g's), and both match the single-GEMM reference."""
        rng = np.random.default_rng(cin * 100 + cout + 1)
        conv = _Conv3x3(ModelState(9 * cin * cout + cout, dtype), "conv", cin, cout, rng)
        x = rng.standard_normal(shape + (cin,)).astype(dtype)
        g = rng.standard_normal(shape + (cout,)).astype(dtype)
        dws = []
        for input_grad in (True, False):
            conv.state.zero_grads()
            conv.forward(x, keep_cache=True)
            assert (conv.backward(g, input_grad=input_grad) is None) == (not input_grad)
            dws.append(conv.dw.copy())
        assert dws[0].tobytes() == dws[1].tobytes()
        want = _ref_im2col(x.astype(np.float64)).T @ g.astype(np.float64).reshape(-1, cout)
        assert _rel_err(dws[1], want) <= rtol

    def test_cache_is_no_larger_than_the_padded_input(self):
        rng = np.random.default_rng(26)
        conv = _Conv3x3(ModelState(9 * 24 * 24 + 24, np.float32), "conv", 24, 24, rng)
        x = rng.standard_normal((4, 64, 64, 24)).astype(np.float32)
        conv.forward(x, keep_cache=True)
        held = [a for a in vars(conv).values() if isinstance(a, np.ndarray)]
        assert conv._cache is not None
        assert max(a.nbytes for a in held) <= _pad(x).nbytes


class TestAdam:
    def test_first_step_bias_corrected(self):
        den = Denoiser(DenoiserSpec(channels=(5, 2, 2)), seed=0)
        den.state.params[:] = 1.0
        den.state.grads[:] = 1.0
        adam_step(den.state, lr=0.1)
        np.testing.assert_allclose(den.state.params, 0.9, atol=1e-8)
        assert np.all(den.state.grads == 0)
        assert den.state.step == 1

    def test_zero_gradient_no_move(self):
        den = Denoiser(DenoiserSpec(channels=(5, 2, 2)), seed=3)
        before = den.state.params.copy()
        den.state.grads[:] = 0.0
        adam_step(den.state)
        np.testing.assert_array_equal(den.state.params, before)

    def test_deterministic_updates(self):
        rng = np.random.default_rng(17)
        a = Denoiser(DenoiserSpec(channels=(5, 4, 2)), seed=7)
        b = Denoiser(DenoiserSpec(channels=(5, 4, 2)), seed=7)
        g = rng.standard_normal(a.state.params.size)
        a.state.grads[:] = g
        b.state.grads[:] = g
        adam_step(a.state, lr=1e-3)
        adam_step(b.state, lr=1e-3)
        assert np.array_equal(a.state.params, b.state.params)

    def test_nonfinite_gradient_names_block(self):
        den = Denoiser(DenoiserSpec(channels=(5, 4, 2)), seed=0)
        blk = den.state.blocks[2]
        den.state.grads[blk.start] = np.nan
        with pytest.raises(FloatingPointError, match=blk.name):
            adam_step(den.state)


class TestCheckpoint:
    def test_round_trip_exact_at_training_dtype(self, tmp_path):
        rng = np.random.default_rng(18)
        # float32 states round-trip bit-exactly through the c64 container
        disc = Discriminator(DiscriminatorSpec(width=6), seed=2, dtype=np.float32)
        s = rng.standard_normal((2, 8, 8, 2)).astype(np.float32)
        disc.forward(s, s.copy(), train=True, keep_cache=True)
        disc.backward(np.ones(2, np.float32))
        adam_step(disc.state, lr=1e-3)
        save_state(disc.state, tmp_path, "disc")

        other = Discriminator(DiscriminatorSpec(width=6), seed=99, dtype=np.float32)
        load_state(other.state, tmp_path, "disc")
        assert np.array_equal(other.state.params, disc.state.params)
        assert np.array_equal(other.state.m, disc.state.m)
        assert other.state.step == disc.state.step
        for k in disc.state.buffers:
            assert np.array_equal(other.state.buffers[k], disc.state.buffers[k])

    def test_round_trip_float64_within_storage_precision(self, tmp_path, tiny_disc):
        disc = tiny_disc
        save_state(disc.state, tmp_path, "disc")
        other = Discriminator(DiscriminatorSpec(width=6), seed=99)
        load_state(other.state, tmp_path, "disc")
        np.testing.assert_allclose(other.state.params, disc.state.params, atol=1e-6)

    def test_loaded_state_drives_the_layers(self, tmp_path, tiny_disc):
        s = np.random.default_rng(6).standard_normal((2, 8, 8, 2))
        tiny_disc.forward(s, s.copy(), train=True, keep_cache=True)
        tiny_disc.backward(np.ones(2))
        adam_step(tiny_disc.state, lr=1e-2)
        save_state(tiny_disc.state, tmp_path, "disc")
        other = Discriminator(DiscriminatorSpec(width=6), seed=99)
        load_state(other.state, tmp_path, "disc")
        np.testing.assert_allclose(other.forward(s, s.copy()),
                                   tiny_disc.forward(s, s.copy()), atol=1e-5)
        assert len(list(tmp_path.iterdir())) == 3 * len(other.state.blocks) + 8 + 1

    def test_save_failing_partway_leaves_earlier_checkpoints(self, tmp_path, tiny_denoiser,
                                                             tiny_disc, monkeypatch):
        save_checkpoint(tmp_path / "a", tiny_denoiser.state, tiny_disc.state)
        before = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
        write, calls = tensorio.write_tensor, []

        def fail_at_fifth(*args):
            calls.append(None)
            if len(calls) == 5:
                raise OSError("disk full")
            write(*args)

        monkeypatch.setattr(tensorio, "write_tensor", fail_at_fifth)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(tmp_path / "b", tiny_denoiser.state, tiny_disc.state)
        assert os.listdir(tmp_path) == ["a"]
        assert {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()} == before

    def test_save_clears_stale_temporary_and_round_trips(self, tmp_path, tiny_denoiser,
                                                         tiny_disc):
        stale = tmp_path / "ckpt.tmp"
        stale.mkdir()
        (stale / "denoiser.conv0.w.cksp").write_bytes(b"half-written")
        (stale / "leftover").write_bytes(b"")
        tiny_disc.state.step = tiny_denoiser.state.step = 3
        save_checkpoint(tmp_path / "ckpt", tiny_denoiser.state, tiny_disc.state)
        assert os.listdir(tmp_path) == ["ckpt"]
        n_files = sum(3 * len(st.blocks) + len(st.buffers) + 1
                      for st in (tiny_denoiser.state, tiny_disc.state))
        assert len(os.listdir(tmp_path / "ckpt")) == n_files
        den = Denoiser(DenoiserSpec(channels=(5, 6, 6, 2)), seed=50)
        disc = Discriminator(DiscriminatorSpec(width=6), seed=51)
        load_checkpoint(tmp_path / "ckpt", den.state, disc.state)
        assert den.state.step == disc.state.step == 3
        np.testing.assert_allclose(den.state.params, tiny_denoiser.state.params, atol=1e-6)


class TestSnapshot:
    def test_restore_returns_every_array_and_keeps_layer_views(self, tiny_disc):
        state = tiny_disc.state
        rng = np.random.default_rng(20)
        s = rng.standard_normal((2, 8, 8, 2))
        snap = state.snapshot()
        copies = [a.copy() for a in (state.params, state.m, state.v)]
        buffers = {k: v.copy() for k, v in state.buffers.items()}
        tiny_disc.forward(s, s.copy(), train=True, keep_cache=True)
        tiny_disc.backward(np.ones(2))
        adam_step(state, lr=1e-2)
        tiny_disc.backward(np.ones(2))
        state.restore(snap)
        for a, b in zip((state.params, state.m, state.v), copies):
            assert np.array_equal(a, b)
        for k, v in buffers.items():
            assert np.array_equal(state.buffers[k], v)
        assert state.step == 0 and not state.grads.any()
        assert tiny_disc.bns[0].run_mean is state.buffers["bn0.run_mean"]

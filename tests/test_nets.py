import numpy as np
import pytest

from ssdiffmri.nets import (Denoiser, DenoiserSpec, Discriminator,
                            DiscriminatorSpec, adam_step, load_state,
                            save_state)

RNG = np.random.default_rng(20240801)


def fd_param_check(state, loss_fn, grads, n_probe=20, h=1e-6, rng=RNG):
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
        tiny_denoiser.state.params[:] = 0.0
        y = RNG.standard_normal((2, 8, 8, 2))
        out = tiny_denoiser.forward(y, np.array([0.1, 0.9]))
        np.testing.assert_array_equal(out, y)

    def test_eval_determinism(self, tiny_denoiser):
        y = RNG.standard_normal((2, 8, 8, 2))
        c = RNG.standard_normal((2, 8, 8, 2))
        t = np.array([0.2, 0.4])
        a = tiny_denoiser.forward(y, t, c)
        b = tiny_denoiser.forward(y, t, c)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("size", [32, 64])
    def test_output_shape(self, tiny_denoiser, size):
        y = RNG.standard_normal((1, size, size, 2))
        out = tiny_denoiser.forward(y, np.array([0.5]))
        assert out.shape == (1, size, size, 2)

    def test_param_gradients_match_fd(self, tiny_denoiser):
        den = tiny_denoiser
        y = RNG.standard_normal((2, 8, 8, 2))
        c = RNG.standard_normal((2, 8, 8, 2))
        t = np.array([0.3, 0.7])
        target = RNG.standard_normal((2, 8, 8, 2))

        def loss():
            out = den.forward(y, t, c, train=True)
            return 0.5 * float(np.sum((out - target) ** 2))

        out = den.forward(y, t, c, train=True, keep_cache=True)
        den.state.zero_grads()
        den.backward(out - target)
        err = fd_param_check(den.state, loss, den.state.grads.copy(), n_probe=25)
        assert err < 1e-3

    def test_zero_upstream_zero_grads(self, tiny_denoiser):
        den = tiny_denoiser
        y = RNG.standard_normal((1, 8, 8, 2))
        den.forward(y, np.array([0.5]), train=True, keep_cache=True)
        den.state.zero_grads()
        den.backward(np.zeros((1, 8, 8, 2)))
        assert np.all(den.state.grads == 0)

    def test_backward_linearity(self, tiny_denoiser):
        den = tiny_denoiser
        y = RNG.standard_normal((1, 8, 8, 2))
        g1 = RNG.standard_normal((1, 8, 8, 2))
        g2 = RNG.standard_normal((1, 8, 8, 2))
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

    def test_backward_without_forward_raises(self, tiny_denoiser):
        with pytest.raises(RuntimeError):
            tiny_denoiser.backward(np.zeros((1, 8, 8, 2)))

    def test_channel_mismatch_rejected(self, tiny_denoiser):
        with pytest.raises(ValueError):
            tiny_denoiser.forward(np.zeros((1, 8, 8, 3)), np.array([0.5]))


class TestDiscriminator:
    def test_zero_weights_score_half(self, tiny_disc):
        tiny_disc.state.params[:] = 0.0
        s = RNG.standard_normal((3, 8, 8, 2))
        c = RNG.standard_normal((3, 8, 8, 2))
        np.testing.assert_array_equal(tiny_disc.forward(s, c), 0.5)

    def test_scores_strictly_inside_unit_interval(self, tiny_disc):
        for trial in range(5):
            s = 10 * RNG.standard_normal((2, 8, 8, 2))
            c = 10 * RNG.standard_normal((2, 8, 8, 2))
            scores = tiny_disc.forward(s, c, train=trial % 2 == 0,
                                       update_running=False)
            assert np.all(scores > 0) and np.all(scores < 1)

    def test_eval_determinism(self, tiny_disc):
        s = RNG.standard_normal((2, 8, 8, 2))
        c = RNG.standard_normal((2, 8, 8, 2))
        assert np.array_equal(tiny_disc.forward(s, c), tiny_disc.forward(s, c))

    def test_param_gradients_match_fd_train_mode(self, tiny_disc):
        disc = tiny_disc
        s = RNG.standard_normal((2, 8, 8, 2))
        c = RNG.standard_normal((2, 8, 8, 2))

        def loss():
            sc = disc.forward(s, c, train=True, update_running=False)
            return float(np.sum(-np.log(sc)))

        sc = disc.forward(s, c, train=True, keep_cache=True, update_running=False)
        disc.state.zero_grads()
        disc.backward(-1.0 / sc)
        err = fd_param_check(disc.state, loss, disc.state.grads.copy(), n_probe=25)
        assert err < 1e-3

    def test_input_gradient_matches_fd(self, tiny_disc):
        # eval mode: frozen normalization makes the scores a per-sample
        # function, so coordinate-wise finite differences are well posed
        disc = tiny_disc
        s = RNG.standard_normal((2, 8, 8, 2))
        c = RNG.standard_normal((2, 8, 8, 2))
        g = disc.input_grad(s, c, train=False)
        h = 1e-5
        errs = []
        flat = s.ravel()
        for i in RNG.choice(flat.size, 25, replace=False):
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
        tiny_disc.state.params[:] = 0.0
        s = RNG.standard_normal((2, 8, 8, 2))
        g = tiny_disc.input_grad(s, s.copy())
        assert np.all(g == 0)

    def test_input_grad_shape(self, tiny_disc):
        s = RNG.standard_normal((3, 8, 8, 2))
        assert tiny_disc.input_grad(s, s.copy()).shape == s.shape

    def test_input_grad_leaves_param_grads_alone(self, tiny_disc):
        s = RNG.standard_normal((2, 8, 8, 2))
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

    def test_penalty_param_grads_match_fd(self, tiny_disc):
        disc = tiny_disc
        s = RNG.standard_normal((2, 8, 8, 2))
        c = RNG.standard_normal((2, 8, 8, 2))

        def penalty():
            g = disc.input_grad(s, c)
            return 0.5 * float(np.sum(g**2))

        disc.state.zero_grads()
        gi = disc.input_grad(s, c)
        disc.penalty_param_grads(s, c, gi, scale=1.0, h=1e-4)
        grads = disc.state.grads.copy()
        err = fd_param_check(disc.state, penalty, grads, n_probe=12, h=1e-5)
        assert err < 1e-2  # finite-difference-of-backward approximation

    def test_running_stats_update_only_when_asked(self, tiny_disc):
        s = RNG.standard_normal((2, 8, 8, 2))
        before = {k: v.copy() for k, v in tiny_disc.state.buffers.items()}
        tiny_disc.forward(s, s.copy(), train=True, update_running=False)
        for k in before:
            assert np.array_equal(tiny_disc.state.buffers[k], before[k])
        tiny_disc.forward(s, s.copy(), train=True, update_running=True)
        assert any(not np.array_equal(tiny_disc.state.buffers[k], before[k])
                   for k in before)


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
        a = Denoiser(DenoiserSpec(channels=(5, 4, 2)), seed=7)
        b = Denoiser(DenoiserSpec(channels=(5, 4, 2)), seed=7)
        g = RNG.standard_normal(a.state.params.size)
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
        # float32 states round-trip bit-exactly through the c64 container
        disc = Discriminator(DiscriminatorSpec(width=6), seed=2, dtype=np.float32)
        s = RNG.standard_normal((2, 8, 8, 2)).astype(np.float32)
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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdiffmri.kspace import adjoint_op, forward_op
from ssdiffmri.masks import SamplingMask, center_range, make_random_mask, partition_mask
from ssdiffmri.tensorio import generate_sensitivities


class TestRandomMask:
    def test_center_always_sampled_width_100(self):
        # 4% of 100 columns -> 4 central columns on for every seed
        for seed in range(20):
            m = make_random_mask(100, 4, 0.04, seed=seed)
            assert m.center[1] - m.center[0] == 4
            assert m.sampled[slice(*m.center)].all()

    def test_r1_full(self):
        m = make_random_mask(64, 1, 0.04, seed=0)
        assert m.sampled.all()

    def test_expected_count_binomial(self):
        # width 256, R 4, cf 0.04: 10 center lines, p = 54/246, mean count 64
        counts = [make_random_mask(256, 4, 0.04, seed=s).indices().size
                  for s in range(1000)]
        p = (256 / 4 - 10) / (256 - 10)
        sd = np.sqrt((256 - 10) * p * (1 - p))
        assert abs(np.mean(counts) - 64.0) < 3 * sd / np.sqrt(1000)

    def test_deterministic(self):
        a = make_random_mask(128, 4, 0.04, seed=11)
        b = make_random_mask(128, 4, 0.04, seed=11)
        assert np.array_equal(a.sampled, b.sampled)

    def test_r_too_high_errors(self):
        # width/R below the center count makes the outer probability negative
        with pytest.raises(ValueError):
            make_random_mask(100, 50, 0.04, seed=0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            make_random_mask(4, 2, 0.04)
        with pytest.raises(ValueError):
            make_random_mask(64, 0.5, 0.04)
        with pytest.raises(ValueError):
            make_random_mask(64, float("nan"), 0.04)
        with pytest.raises(ValueError):
            make_random_mask(64, 2, 0.0)

    def test_json_round_trip(self):
        m = make_random_mask(64, 4, 0.04, seed=3)
        back = SamplingMask.from_json(m.to_json())
        assert back.width == m.width
        assert back.center == m.center
        assert np.array_equal(back.sampled, m.sampled)


def _rand(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestApplyMask:
    # a mask's boolean columns as the encoding operator applies them:
    # forward_op zeroes k-space outside them, adjoint_op masks its input

    def test_center_only_mask(self):
        lo, hi = center_range(32, 0.1)
        sampled = np.zeros(32, bool)
        sampled[lo:hi] = True
        cols = SamplingMask(32, sampled, (lo, hi)).sampled
        sens = np.ones((1, 32, 32), complex)
        x = _rand(np.random.default_rng(0), (32, 32))
        full, out = forward_op(x, sens), forward_op(x, sens, cols)
        assert np.array_equal(out[..., lo:hi], full[..., lo:hi])
        assert not np.any(out[..., :lo])
        assert not np.any(out[..., hi:])

    def test_idempotent_and_linear(self):
        cols = make_random_mask(48, 4, 0.04, seed=1).sampled
        rng = np.random.default_rng(1)
        sens = generate_sensitivities(2, 48, 48, seed=1)
        a, b = _rand(rng, (48, 48)), _rand(rng, (48, 48))
        masked = forward_op(a, sens, cols)
        assert np.array_equal(adjoint_op(masked, sens, cols), adjoint_op(masked, sens))
        np.testing.assert_allclose(forward_op(2 * a + 3j * b, sens, cols),
                                   2 * masked + 3j * forward_op(b, sens, cols), atol=1e-10)
        y, z = _rand(rng, (2, 48, 48)), _rand(rng, (2, 48, 48))
        np.testing.assert_allclose(adjoint_op(2 * y + 3j * z, sens, cols),
                                   2 * adjoint_op(y, sens, cols)
                                   + 3j * adjoint_op(z, sens, cols), atol=1e-10)

    def test_sampled_columns_bit_exact(self):
        m = make_random_mask(48, 4, 0.04, seed=2)
        rng = np.random.default_rng(2)
        sens = generate_sensitivities(4, 48, 48, seed=2)
        x, y = _rand(rng, (48, 48)), _rand(rng, (4, 48, 48))
        idx = m.indices()
        assert np.array_equal(forward_op(x, sens, m.sampled)[..., idx],
                              forward_op(x, sens)[..., idx])
        kept = np.zeros_like(y)
        kept[..., idx] = y[..., idx]
        assert np.array_equal(adjoint_op(y, sens, m.sampled), adjoint_op(kept, sens))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_projection_property(self, seed):
        rng = np.random.default_rng(seed)
        cols = make_random_mask(64, 4, 0.04, seed=seed).sampled
        sens = generate_sensitivities(2, 64, 64, seed=seed % 97)
        x = _rand(rng, (64, 64))
        full, once = forward_op(x, sens), forward_op(x, sens, cols)
        assert np.array_equal(once[..., cols], full[..., cols])
        assert not np.any(once[..., ~cols])
        assert np.array_equal(adjoint_op(once, sens, cols), adjoint_op(once, sens))


def center_columns(acquired):
    center = np.zeros(acquired.width, bool)
    center[slice(*acquired.center)] = True
    return center


class TestPartition:
    def test_half_split_counts(self):
        # 40 outer samples at rho 0.5 -> 20/20 within rounding
        sampled = np.zeros(100, bool)
        lo, hi = center_range(100, 0.04)
        sampled[lo:hi] = True
        rng = np.random.default_rng(0)
        outer = rng.choice(np.setdiff1d(np.arange(100), np.arange(lo, hi)), 40,
                           replace=False)
        sampled[outer] = True
        acquired = SamplingMask(100, sampled, (lo, hi))
        train, loss = partition_mask(acquired, 0.5, seed=1)
        center = center_columns(acquired)
        n_train = np.count_nonzero(train & ~center)
        n_loss = np.count_nonzero(loss & ~center)
        assert n_train + n_loss == 40
        assert abs(n_train - 20) <= 1

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
    def test_union_and_intersection(self, rho):
        acquired = make_random_mask(128, 4, 0.04, seed=5)
        train, loss = partition_mask(acquired, rho, seed=9)
        assert train.dtype == loss.dtype == bool
        assert train.shape == loss.shape == (128,)
        assert np.array_equal(train | loss, acquired.sampled)
        assert np.array_equal(train & loss, center_columns(acquired))

    def test_partition_property_sweep(self):
        # union, intersection, and the rho share over many random draws
        rng = np.random.default_rng(2)
        for _ in range(1000):
            width = int(rng.choice([64, 128, 256]))
            R = float(rng.choice([2, 4, 8]))
            rho = float(rng.choice([0.3, 0.5, 0.7]))
            seed = int(rng.integers(2**31))
            acquired = make_random_mask(width, R, 0.04, seed=seed)
            train, loss = partition_mask(acquired, rho, seed=seed + 1)
            assert np.array_equal(train | loss, acquired.sampled)
            center = center_columns(acquired)
            assert np.array_equal(train & loss, center)
            n_outer = acquired.outer_indices().size
            assert abs(np.count_nonzero(train & ~center) - rho * n_outer) <= 1

    @pytest.mark.parametrize("mask_seed,seed,train_cols,loss_cols", [
        (3, 11, [4, 28, 29, 30, 31, 32, 33, 47, 60],
         [0, 7, 9, 20, 29, 30, 31, 32, 33, 51]),
        (17, 5, [9, 12, 15, 29, 30, 31, 32, 33, 42, 46, 60],
         [1, 18, 19, 20, 29, 30, 31, 32, 33, 44, 56, 58]),
        (123, 4567, [4, 21, 29, 30, 31, 32, 33, 46, 47, 50, 52],
         [1, 3, 24, 25, 29, 30, 31, 32, 33, 40, 44]),
    ])
    def test_pinned_draws(self, mask_seed, seed, train_cols, loss_cols):
        # the columns each seed gives are fixed, so a training run's split
        # cannot drift between versions
        acquired = make_random_mask(64, 4.0, 0.08, seed=mask_seed)
        train, loss = partition_mask(acquired, 0.5, seed=seed)
        assert np.flatnonzero(train).tolist() == train_cols
        assert np.flatnonzero(loss).tolist() == loss_cols

    def test_fresh_seed_changes_split(self):
        acquired = make_random_mask(128, 4, 0.04, seed=0)
        assert acquired.outer_indices().size >= 10
        base, _ = partition_mask(acquired, 0.5, seed=0)
        changed = sum(not np.array_equal(partition_mask(acquired, 0.5, seed=s)[0], base)
                      for s in range(1, 101))
        assert changed >= 99

    def test_no_outer_samples_errors(self):
        lo, hi = center_range(64, 0.1)
        sampled = np.zeros(64, bool)
        sampled[lo:hi] = True
        acquired = SamplingMask(64, sampled, (lo, hi))
        with pytest.raises(ValueError):
            partition_mask(acquired, 0.5, seed=0)

    def test_bad_rho(self):
        acquired = make_random_mask(64, 2, 0.04, seed=0)
        for rho in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                partition_mask(acquired, rho)

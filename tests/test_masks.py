import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdiffmri.masks import (SamplingMask, apply_mask,
                             center_range, make_random_mask, partition_mask)


class TestRandomMask:
    def test_center_always_sampled_width_100(self):
        # 4% of 100 columns -> 4 central columns on for every seed
        for seed in range(20):
            m = make_random_mask(100, 4, 0.04, seed=seed)
            assert m.n_center == 4
            assert m.sampled[m.center_slice].all()

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
            make_random_mask(64, 2, 0.0)

    def test_json_round_trip(self):
        m = make_random_mask(64, 4, 0.04, seed=3)
        back = SamplingMask.from_json(m.to_json())
        assert back.width == m.width
        assert back.center == m.center
        assert np.array_equal(back.sampled, m.sampled)


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
        part = partition_mask(acquired, 0.5, seed=1)
        n_train = part.train.outer_indices().size
        n_loss = part.loss.outer_indices().size
        assert n_train + n_loss == 40
        assert abs(n_train - 20) <= 1

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
    def test_union_and_intersection(self, rho):
        acquired = make_random_mask(128, 4, 0.04, seed=5)
        part = partition_mask(acquired, rho, seed=9)
        assert np.array_equal(part.train.sampled | part.loss.sampled,
                              acquired.sampled)
        center = np.zeros(128, bool)
        center[acquired.center_slice] = True
        assert np.array_equal(part.train.sampled & part.loss.sampled, center)

    def test_partition_property_sweep(self):
        # union, intersection, and the rho share over many random draws
        rng = np.random.default_rng(2)
        for _ in range(1000):
            width = int(rng.choice([64, 128, 256]))
            R = float(rng.choice([2, 4, 8]))
            rho = float(rng.choice([0.3, 0.5, 0.7]))
            seed = int(rng.integers(2**31))
            acquired = make_random_mask(width, R, 0.04, seed=seed)
            part = partition_mask(acquired, rho, seed=seed + 1)
            assert np.array_equal(part.train.sampled | part.loss.sampled,
                                  acquired.sampled)
            center = np.zeros(width, bool)
            center[acquired.center_slice] = True
            assert np.array_equal(part.train.sampled & part.loss.sampled, center)
            n_outer = acquired.outer_indices().size
            assert abs(part.train.outer_indices().size - rho * n_outer) <= 1

    def test_fresh_seed_changes_split(self):
        acquired = make_random_mask(128, 4, 0.04, seed=0)
        assert acquired.outer_indices().size >= 10
        base = partition_mask(acquired, 0.5, seed=0)
        changed = sum(
            not np.array_equal(partition_mask(acquired, 0.5, seed=s).train.sampled,
                               base.train.sampled)
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


class TestApplyMask:
    def test_full_mask_identity(self):
        m = make_random_mask(32, 1, 0.04, seed=0)
        rng = np.random.default_rng(0)
        ks = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        assert np.array_equal(apply_mask(ks, m), ks)

    def test_center_only_mask(self):
        lo, hi = center_range(32, 0.1)
        sampled = np.zeros(32, bool)
        sampled[lo:hi] = True
        m = SamplingMask(32, sampled, (lo, hi))
        ks = np.ones((32, 32), complex)
        out = apply_mask(ks, m)
        assert np.all(out[:, lo:hi] == 1)
        assert np.all(out[:, :lo] == 0)
        assert np.all(out[:, hi:] == 0)

    def test_idempotent_and_linear(self):
        m = make_random_mask(48, 4, 0.04, seed=1)
        rng = np.random.default_rng(1)
        a = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        b = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        assert np.array_equal(apply_mask(apply_mask(a, m), m), apply_mask(a, m))
        np.testing.assert_allclose(apply_mask(2 * a + 3j * b, m),
                                   2 * apply_mask(a, m) + 3j * apply_mask(b, m))

    def test_sampled_columns_bit_exact(self):
        m = make_random_mask(48, 4, 0.04, seed=2)
        rng = np.random.default_rng(2)
        ks = rng.standard_normal((4, 48, 48)) + 1j * rng.standard_normal((4, 48, 48))
        out = apply_mask(ks, m)
        cols = m.indices()
        assert np.array_equal(out[..., cols], ks[..., cols])

    def test_width_mismatch(self):
        m = make_random_mask(32, 2, 0.04, seed=0)
        with pytest.raises(ValueError):
            apply_mask(np.zeros((16, 16), complex), m)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_projection_property(self, seed):
        rng = np.random.default_rng(seed)
        m = make_random_mask(64, 4, 0.04, seed=seed)
        ks = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        once = apply_mask(ks, m)
        assert np.array_equal(apply_mask(once, m), once)

import tracemalloc

import numpy as np
import pytest
from scipy import special
from scipy import stats as sps

from ssdiffmri import stats
from ssdiffmri.stats import (MetricReport, anova_oneway, bootstrap_ci,
                             compare_methods, studentized_range_sf, tukey_hsd)

# classic three-group teaching fixture; F frozen from a hand sum-of-squares
# decomposition (SSB 84, SSW 68, df (2, 15))
FIXTURE = [(6, 8, 4, 5, 3, 4), (8, 12, 9, 11, 6, 8), (13, 9, 11, 8, 7, 12)]
FIXTURE_F = 9.264705882352942


class TestSpecialFunctions:
    """The numpy/standard-library replacements against scipy.special."""

    def test_fdtrc_matches_scipy(self):
        worst = 0.0
        for d1 in range(1, 11):
            for d2 in (5, 6, 9, 15, 30, 57, 100, 398, 1000):
                for f in np.geomspace(0.01, 300.0, 60):
                    want = special.fdtrc(d1, d2, f)
                    if want > 0.0:
                        worst = max(worst, abs(stats._fdtrc(d1, d2, float(f)) - want) / want)
        assert worst <= 1e-10

    def test_fdtrc_ends(self):
        assert stats._fdtrc(2, 15, 0.0) == 1.0
        assert stats._fdtrc(2, 15, float("inf")) == 0.0
        assert np.isnan(stats._fdtrc(2, 15, float("nan")))

    def test_ndtr_matches_scipy(self):
        x = np.linspace(-40.0, 40.0, 20001).reshape(1, -1, 1)
        got = stats._ndtr(x)
        assert got.shape == x.shape
        assert np.max(np.abs(got - special.ndtr(x))) <= 1e-15

    def test_ndtri_matches_scipy(self):
        p = np.linspace(1e-4, 1.0 - 1e-4, 20001)
        got = np.array([stats._ndtri(v) for v in p])
        assert np.max(np.abs(got - special.ndtri(p))) <= 1e-14


class TestAnova:
    def test_identical_groups(self):
        g = [1.0, 2.0, 3.0]
        f, p = anova_oneway([g, g, g])
        assert f == 0.0
        assert p == 1.0

    def test_textbook_fixture(self):
        f, p = anova_oneway(FIXTURE)
        assert f == pytest.approx(FIXTURE_F, abs=1e-8)
        assert p == pytest.approx(sps.f.sf(FIXTURE_F, 2, 15), rel=1e-10)

    def test_p_matches_scipy(self):
        rng = np.random.default_rng(12)
        for k, n in [(2, 4), (2, 200), (3, 6), (5, 40)]:
            groups = [rng.standard_normal(n) + 0.2 * i for i in range(k)]
            f, p = anova_oneway(groups)
            assert p == pytest.approx(sps.f.sf(f, k - 1, k * n - k), rel=1e-10)

    def test_two_groups_f_equals_t_squared(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal(rng.integers(3, 12))
            b = rng.standard_normal(rng.integers(3, 12)) + rng.uniform(-1, 1)
            f, _ = anova_oneway([a, b])
            t, _ = sps.ttest_ind(a, b)
            assert f == pytest.approx(t**2, abs=1e-10 * max(1.0, t**2))

    def test_shift_invariance(self):
        f0, _ = anova_oneway(FIXTURE)
        shifted = [np.asarray(g, float) + 123.456 for g in FIXTURE]
        f1, _ = anova_oneway(shifted)
        assert f1 == pytest.approx(f0, abs=1e-10)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            anova_oneway([[1.0, 2.0]])
        with pytest.raises(ValueError):
            anova_oneway([[1.0], [2.0, 3.0]])


class TestStudentizedRange:
    def test_matches_scipy(self):
        # scipy is the independent high-resolution oracle for the quadrature
        for q, k, df in [(1.15, 3, 15), (3.0, 3, 15), (4.6, 3, 15),
                         (2.5, 4, 30), (5.0, 5, 10), (0.5, 2, 8)]:
            assert studentized_range_sf(q, k, df) == pytest.approx(
                sps.studentized_range.sf(q, k, df), abs=1e-3)

    def test_bounds(self):
        assert studentized_range_sf(0.0, 3, 10) == 1.0
        assert studentized_range_sf(50.0, 3, 10) < 1e-6

    def test_monotone_in_q(self):
        vals = [studentized_range_sf(q, 4, 20) for q in np.linspace(0.1, 8, 25)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestTukey:
    def test_identical_groups_p_one(self):
        g = [1.0, 2.0, 3.0]
        table = tukey_hsd([g, g, g])
        assert all(p == 1.0 for *_, p in table)
        assert all(q == 0.0 for _, _, q, p in table)

    def test_fixture_q_and_p(self):
        # q frozen from the hand computation diff / sqrt(MSW / n)
        table = tukey_hsd(FIXTURE)
        expect = {("0", "1"): 4.6017899330842225,
                  ("0", "2"): 5.752237416355278,
                  ("1", "2"): 1.1504474832710556}
        for a, b, q, p in table:
            assert q == pytest.approx(expect[(a, b)], rel=1e-10)
            assert p == pytest.approx(sps.studentized_range.sf(q, 3, 15), abs=1e-3)

    def test_covers_all_pairs(self):
        table = tukey_hsd([[1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6]],
                          labels=list("abcd"))
        pairs = {(a, b) for a, b, _, _ in table}
        assert pairs == {("a", "b"), ("a", "c"), ("a", "d"),
                         ("b", "c"), ("b", "d"), ("c", "d")}

    def test_p_monotone_in_effect_size(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal(8)
        gaps = [0.5, 1.0, 2.0, 4.0]
        ps = []
        for gap in gaps:
            table = tukey_hsd([base, base + gap])
            ps.append(table[0][3])
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_unequal_sizes_harmonic_mean(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([3.0, 4.0, 5.0])
        table = tukey_hsd([a, b])
        msw = (np.sum((a - a.mean()) ** 2) + np.sum((b - b.mean()) ** 2)) / 5
        nh = 2 / (1 / 4 + 1 / 3)
        q_expect = abs(a.mean() - b.mean()) / np.sqrt(msw / nh)
        assert table[0][2] == pytest.approx(q_expect, rel=1e-12)

    def test_nan_q_gives_nan_p(self):
        # inf - inf makes the within-group variance NaN, as anova_oneway's
        with np.errstate(invalid="ignore"):
            [(a, b, q, p)] = tukey_hsd([[np.inf, np.inf, np.inf], [1, 2, 3]])
            assert np.isnan(anova_oneway([[np.inf, np.inf, np.inf], [1, 2, 3]])[1])
        assert (a, b) == ("0", "1") and np.isnan(q) and np.isnan(p)

    def test_no_within_group_spread_different_means_p_zero(self):
        [(_, _, q, p)] = tukey_hsd([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        assert q == np.inf and p == 0.0


class TestBootstrap:
    def test_constant_samples_degenerate(self):
        lo, hi = bootstrap_ci(np.full(10, 3.3))
        assert lo == hi == pytest.approx(3.3)

    def test_seeded_normal_width(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(1000)
        lo, hi = bootstrap_ci(x, n_boot=10000, level=0.95, seed=7)
        assert lo < 0 < hi
        width_theory = 2 * 1.96 / np.sqrt(1000)
        assert abs((hi - lo) - width_theory) / width_theory < 0.2

    def test_deterministic(self):
        x = np.random.default_rng(3).standard_normal(50)
        assert bootstrap_ci(x, seed=5, n_boot=500) == bootstrap_ci(x, seed=5, n_boot=500)

    def test_width_shrinks_like_sqrt_n(self):
        rng = np.random.default_rng(9)
        widths = {}
        for n in (100, 400, 1600):
            x = rng.standard_normal(n)
            lo, hi = bootstrap_ci(x, n_boot=4000, seed=n)
            widths[n] = hi - lo
        # each 4x sample increase should halve the width, within 30%
        assert widths[400] / widths[100] == pytest.approx(0.5, rel=0.3)
        assert widths[1600] / widths[400] == pytest.approx(0.5, rel=0.3)

    def test_skewed_data_interval_brackets_mean_estimate(self):
        rng = np.random.default_rng(10)
        x = rng.exponential(size=300)
        lo, hi = bootstrap_ci(x, n_boot=5000, seed=1)
        assert lo < np.mean(x) < hi

    def test_preconditions(self):
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([1.0]))
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([1.0, 2.0]), level=1.5)
        with pytest.raises(ValueError, match="n_boot"):
            bootstrap_ci(np.array([1.0, 2.0]), n_boot=1)
        rep = MetricReport(method="m", nmse=np.ones(3), psnr=np.ones(3), ssim=np.ones(3))
        with pytest.raises(ValueError, match="n_boot"):
            rep.finalize(n_boot=1)


class TestReports:
    def test_metric_report_ci_brackets_mean(self):
        rng = np.random.default_rng(11)
        rep = MetricReport(method="m", nmse=rng.random(30),
                           psnr=20 + rng.random(30), ssim=rng.random(30))
        rep.finalize(n_boot=500, seed=2)
        for name in MetricReport.METRICS:
            lo, hi = rep.ci[name]
            assert lo <= rep.means[name] <= hi

    @pytest.mark.parametrize("n", [7, 200])
    def test_finalize_equals_separate_bootstrap_calls(self, n):
        rng = np.random.default_rng(13)
        # ssim constant: a degenerate interval between two drawn ones
        rep = MetricReport(method="m", nmse=rng.random(n), psnr=20 + rng.random(n),
                           ssim=np.full(n, 0.5))
        rep.finalize(n_boot=3000, level=0.9, seed=4)
        for name in MetricReport.METRICS:
            want = bootstrap_ci(getattr(rep, name), n_boot=3000, level=0.9, seed=4)
            assert np.array(rep.ci[name]).tobytes() == np.array(want).tobytes()

    def test_gather_chunks_leave_the_interval_unchanged(self, monkeypatch):
        x = np.random.default_rng(14).exponential(size=200)
        got = []
        for gather in (1 << 30, 1 << 16, 1):  # one chunk, the default, one row at a time
            monkeypatch.setattr(stats, "_GATHER", gather)
            got.append(np.array(bootstrap_ci(x, n_boot=2000, seed=6)).tobytes())
        assert got[0] == got[1] == got[2]

    @pytest.mark.parametrize("n, n_boot", [(2, 3000), (7, 3000), (200, 3000),
                                           (stats._GATHER + 5, 20)])
    def test_streamed_index_equals_one_whole_draw(self, n, n_boot):
        # the reference draws the whole (n_boot, n) index at once
        rng = np.random.default_rng(15)
        vals = {"nmse": rng.exponential(size=n), "psnr": np.full(n, 31.0),
                "ssim": rng.random(n)}   # a degenerate metric between two live ones
        idx = np.random.default_rng(8).integers(0, n, size=(n_boot, n))

        def reference(x):
            if np.ptp(x) == 0.0:
                return float(np.mean(x)), float(np.mean(x))
            return stats._bca_interval(x, 0.9, np.mean(x[idx], axis=1))

        rep = MetricReport(method="m", **vals).finalize(n_boot=n_boot, level=0.9, seed=8)
        for name, x in vals.items():
            want = np.array(reference(x)).tobytes()
            assert np.array(rep.ci[name]).tobytes() == want
            assert np.array(bootstrap_ci(x, n_boot=n_boot, level=0.9, seed=8)).tobytes() == want

    def test_finalize_peak_memory_is_one_block(self):
        # the whole (10000, 200) int64 index alone would be 16 MB
        rng = np.random.default_rng(16)
        rep = MetricReport(method="m", nmse=rng.random(200), psnr=20 + rng.random(200),
                           ssim=rng.random(200))
        tracemalloc.start()
        try:
            rep.finalize(n_boot=10000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_csv_rows_shape(self):
        rep = MetricReport(method="m", nmse=np.array([0.1]),
                           psnr=np.array([30.0]), ssim=np.array([0.9]))
        text = rep.csv_rows()
        lines = text.strip().split("\n")
        assert lines[0] == "slice,method,nmse,psnr,ssim"
        assert lines[1].startswith("0,m,0.1,30,0.9")

    def test_compare_methods_identical(self):
        g = np.array([1.0, 2.0, 3.0, 4.0])
        res = compare_methods({"a": g, "b": g.copy(), "c": g.copy()})
        assert res.anova_p == 1.0
        assert all(entry["p"] == 1.0 for entry in res.to_dict()["pairwise"])

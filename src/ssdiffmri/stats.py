"""Statistical machinery: BCa bootstrap intervals, one-way ANOVA, Tukey HSD.

The studentized range distribution behind the Tukey p-values is evaluated
by Gauss-Legendre quadrature rather than pulled from a statistics package,
so the implementation can be cross-checked against an independent one.

Only numpy and the standard library are used: the normal CDF is
``math.erfc``, its inverse ``statistics.NormalDist().inv_cdf``, log-gamma
``math.lgamma``, and the F survival function a regularized incomplete beta
evaluated by Lentz's continued fraction (``_fdtrc``).

The bootstrap's ``(n_boot, n)`` resample index is never formed whole: it is
drawn in blocks of rows, one after another from one ``default_rng(seed)``,
which gives the same index as one draw, and each block is averaged for
every metric before the next is drawn. Memory is one block, not n_boot rows.
"""

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

_ndtri = statistics.NormalDist().inv_cdf
# resampled values drawn and gathered at a time when averaging bootstrap resamples
_GATHER = 1 << 16
# Gauss-Legendre nodes of the studentized range's outer (scale) and inner
# (normal) integrals
_SR_OUTER, _SR_INNER = 64, 128


@dataclass
class MetricReport:
    """Per-slice metric arrays with bootstrap confidence intervals."""

    method: str
    nmse: np.ndarray
    psnr: np.ndarray
    ssim: np.ndarray
    means: dict = field(default_factory=dict)
    ci: dict = field(default_factory=dict)

    METRICS = ("nmse", "psnr", "ssim")

    def finalize(self, n_boot=10000, level=0.95, seed=0):
        """Means and BCa intervals; the metrics share one resample index,
        so each interval equals ``bootstrap_ci`` with the same arguments."""
        vals = [_check_samples(getattr(self, name), level, n_boot) for name in self.METRICS]
        for name, x, ci in zip(self.METRICS, vals, _bca_intervals(vals, level, n_boot, seed)):
            self.means[name] = float(np.mean(x))
            self.ci[name] = ci
        return self

    def to_aggregate(self):
        return {name: {"mean": self.means[name],
                       "ci": [self.ci[name][0], self.ci[name][1]]}
                for name in self.METRICS}

    def csv_rows(self):
        lines = ["slice,method,nmse,psnr,ssim"]
        for i, (a, b, c) in enumerate(zip(self.nmse, self.psnr, self.ssim)):
            lines.append(f"{i},{self.method},{a:.10g},{b:.10g},{c:.10g}")
        return "\n".join(lines) + "\n"


@dataclass
class TestResult:
    """ANOVA F/p plus the Tukey pairwise table."""

    anova_f: float
    anova_p: float
    pairwise: list   # (label_a, label_b, q, p) tuples

    def to_dict(self):
        return {"anova_f": self.anova_f, "anova_p": self.anova_p,
                "pairwise": [{"pair": [a, b], "q": q, "p": p}
                             for a, b, q, p in self.pairwise]}


def _ndtr(x):
    """Standard normal CDF, elementwise."""
    x = np.asarray(x, dtype=float)
    r2 = math.sqrt(2.0)
    vals = [0.5 * math.erfc(-v / r2) for v in x.ravel().tolist()]
    return np.array(vals).reshape(x.shape)


def _betainc_cf(a, b, x):
    """Continued fraction of the regularized incomplete beta I_x(a, b), by
    the modified Lentz method; converges fast for x < (a + 1) / (a + b + 2)."""
    tiny, eps = 1e-300, 2.0**-52
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < eps:
            return h
    raise ArithmeticError(f"incomplete beta did not converge at a={a}, b={b}, x={x}")


def _fdtrc(d1, d2, f):
    """Survival function of the F(d1, d2) distribution:
    I_x(d2/2, d1/2) with x = d2 / (d2 + d1*f)."""
    if math.isnan(f):
        return math.nan
    if f <= 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    a, b = d2 / 2.0, d1 / 2.0
    x, y = d2 / (d2 + d1 * f), d1 * f / (d2 + d1 * f)   # y = 1 - x without cancellation
    front = math.exp(a * math.log(x) + b * math.log(y) + math.lgamma(a + b)
                     - math.lgamma(a) - math.lgamma(b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betainc_cf(a, b, x) / a
    return 1.0 - front * _betainc_cf(b, a, y) / b


def _check_samples(samples, level, n_boot):
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if n_boot < 2:
        raise ValueError(f"n_boot must be at least 2, got {n_boot}")
    return x


def bootstrap_ci(samples, n_boot=10000, level=0.95, seed=0):
    """Bias-corrected and accelerated bootstrap interval for the mean.

    Constant samples yield a degenerate zero-width interval rather than an
    error. Deterministic given the seed.
    """
    return _bca_intervals([_check_samples(samples, level, n_boot)], level, n_boot, seed)[0]


def _bca_intervals(xs, level, n_boot, seed):
    """BCa intervals of the means of checked samples `xs` of one length,
    all from the resample index of `seed`. Constant (or infinite-sentinel)
    samples get a degenerate interval and are not resampled."""
    live = [bool(np.all(np.isfinite(x)) and np.ptp(x) > 0.0) for x in xs]
    boots = iter(_resample_means([x for x, ok in zip(xs, live) if ok], n_boot, seed))
    return [_bca_interval(x, level, next(boots)) if ok else (float(np.mean(x)),) * 2
            for x, ok in zip(xs, live)]


def _resample_means(xs, n_boot, seed):
    """Means of n_boot resamples of each of the samples `xs` (one length n),
    by the rows of the (n_boot, n) index ``default_rng(seed).integers(0, n,
    size=(n_boot, n))``. The index is drawn `_GATHER // n` rows at a time;
    drawing the rows in blocks from one generator gives the same index."""
    if not xs:
        return []
    n = xs[0].size
    if any(x.size != n for x in xs):
        raise ValueError("resampled metrics must have one length")
    rng = np.random.default_rng(seed)
    boots = [np.empty(n_boot) for _ in xs]
    rows = max(1, _GATHER // n)
    for r in range(0, n_boot, rows):
        idx = rng.integers(0, n, size=(min(rows, n_boot - r), n))
        for x, boot in zip(xs, boots):
            boot[r:r + rows] = np.mean(x[idx], axis=1)
    return boots


def _bca_interval(x, level, boot):
    """BCa interval of the mean of non-constant checked samples `x` from
    their resample means `boot`."""
    theta = float(np.mean(x))
    n, n_boot = x.size, boot.size
    boot.sort()

    # bias correction from the proportion of resamples below the estimate
    frac = np.count_nonzero(boot < theta) / n_boot
    frac = min(max(frac, 1.0 / n_boot), 1.0 - 1.0 / n_boot)
    z0 = _ndtri(frac)

    # acceleration from the jackknife skewness
    jack = (np.sum(x) - x) / (n - 1)
    jmean = jack.mean()
    d = jmean - jack
    denom = 6.0 * np.sum(d**2) ** 1.5
    accel = float(np.sum(d**3) / denom) if denom > 0 else 0.0

    alpha = 1.0 - level
    lo_hi = []
    for a in (alpha / 2.0, 1.0 - alpha / 2.0):
        z = _ndtri(a)
        adj = float(_ndtr(z0 + (z0 + z) / (1.0 - accel * (z0 + z))))
        pos = min(max(int(np.floor(adj * n_boot)), 0), n_boot - 1)
        lo_hi.append(float(boot[pos]))
    return lo_hi[0], lo_hi[1]


def anova_oneway(groups):
    """One-way ANOVA F statistic and p-value via sum-of-squares decomposition."""
    groups = [np.asarray(g, dtype=float) for g in groups]
    if len(groups) < 2:
        raise ValueError("need at least 2 groups")
    if any(g.size < 2 for g in groups):
        raise ValueError("each group needs at least 2 samples")
    allv = np.concatenate(groups)
    grand = allv.mean()
    ssb = sum(g.size * (g.mean() - grand) ** 2 for g in groups)
    ssw = sum(float(np.sum((g - g.mean()) ** 2)) for g in groups)
    k = len(groups)
    n = allv.size
    if ssw == 0.0 and ssb == 0.0:
        return 0.0, 1.0
    if ssw == 0.0:
        return float("inf"), 0.0
    f = (ssb / (k - 1)) / (ssw / (n - k))
    p = _fdtrc(k - 1, n - k, float(f))
    return float(f), p


def _gauss_legendre(a, b, n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def studentized_range_sf(q, k, df):
    """Survival function of the studentized range by double quadrature.

    Integrates the range CDF of k standard normals against the chi
    distribution of the pooled scale estimate with `df` degrees of freedom.
    """
    if q <= 0:
        return 1.0
    k = int(k)
    df = float(df)

    z, wz = _gauss_legendre(-8.5, 8.5, _SR_INNER)
    phi = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)

    def range_cdf(w):
        # P(range of k iid N(0,1) <= w), w broadcastable against z
        upper = _ndtr(z) - _ndtr(z - w[..., None])
        upper = np.clip(upper, 0.0, 1.0)
        return k * np.sum(wz * phi * upper ** (k - 1), axis=-1)

    # chi density of s = sigma_hat / sigma with df degrees of freedom
    s, ws = _gauss_legendre(1e-9, 1.0 + 10.0 / np.sqrt(df), _SR_OUTER)
    log_c = (df / 2.0) * np.log(df) - math.lgamma(df / 2.0) - (df / 2.0 - 1.0) * np.log(2.0)
    dens = np.exp(log_c + (df - 1.0) * np.log(s) - df * s**2 / 2.0)
    cdf = float(np.sum(ws * dens * range_cdf(q * s)))
    return float(min(max(1.0 - cdf, 0.0), 1.0))


def tukey_hsd(groups, labels=None):
    """All-pairs Tukey HSD table using the harmonic mean of group sizes."""
    groups = [np.asarray(g, dtype=float) for g in groups]
    if len(groups) < 2:
        raise ValueError("need at least 2 groups")
    if any(g.size < 2 for g in groups):
        raise ValueError("each group needs at least 2 samples")
    if labels is None:
        labels = [str(i) for i in range(len(groups))]
    k = len(groups)
    n = sum(g.size for g in groups)
    df = n - k
    msw = sum(float(np.sum((g - g.mean()) ** 2)) for g in groups) / df

    table = []
    for i in range(k):
        for j in range(i + 1, k):
            nh = 2.0 / (1.0 / groups[i].size + 1.0 / groups[j].size)
            diff = abs(groups[i].mean() - groups[j].mean())
            if msw == 0.0:
                q = 0.0 if diff == 0.0 else float("inf")
            else:
                q = diff / np.sqrt(msw / nh)
            if q == np.inf:       # no spread within groups, different means
                p = 0.0
            elif np.isnan(q):     # a NaN sample or variance decides nothing
                p = float("nan")
            else:
                p = studentized_range_sf(q, k, df)
            table.append((labels[i], labels[j], float(q), float(p)))
    return table


def compare_methods(named_groups):
    """ANOVA plus Tukey HSD over a {label: samples} mapping."""
    labels = list(named_groups)
    groups = [named_groups[m] for m in labels]
    f, p = anova_oneway(groups)
    pairwise = tukey_hsd(groups, labels=labels)
    return TestResult(anova_f=f, anova_p=p, pairwise=pairwise)

"""Nonparametric tests for the absence and nature of a drift in the trend.

Works on the demeaned first differences of the estimated wave effects.  The
zero-drift t-test is judged against a normal or t(T-1) distribution; the two
stochastic-drift statistics are judged against simulated distributions of
the squared Brownian bridge and Wiener integrals over a discretised walk,
drawn from the walk's eigen-series.  Long-run variances come either from
the sample autocovariances of the differenced series (homoskedastic) or
from the first-stage sampling covariance (HAC).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc, fdtrc, ndtr, ndtri, stdtr

from .errors import InvalidArgumentError, NumericalError
from .trend import TrendSeries

__all__ = [
    "bartlett_weight",
    "DemeanedDiffSeries",
    "demean_diff_transform",
    "VarianceEstimate",
    "long_run_variance",
    "hac_variance",
    "TrendTStats",
    "t_statistics",
    "FTestResult",
    "f_statistic",
    "CriticalValueTable",
    "simulate_critical_values",
    "TrendTestReport",
    "run_trend_tests",
]


def bartlett_weight(tau: int, m: int) -> float:
    """Bartlett kernel weight 1 - tau/(m+1)."""
    return 1.0 - tau / (m + 1.0)


@dataclass
class DemeanedDiffSeries:
    """First differences of the trend, demeaned, with their covariance."""

    values: np.ndarray
    psi: np.ndarray
    omega: np.ndarray


def demean_diff_transform(beta, cov) -> DemeanedDiffSeries:
    """Apply the (T-1) x T demean-difference map and transform the covariance."""
    beta = np.asarray(beta, dtype=float)
    cov = np.asarray(cov, dtype=float)
    T = beta.size
    if T < 3:
        raise InvalidArgumentError(f"need at least 3 waves, got {T}")
    diff = np.eye(T - 1, T, 1) - np.eye(T - 1, T)
    center = np.eye(T - 1) - np.ones((T - 1, T - 1)) / (T - 1)
    psi = center @ diff
    values = psi @ beta
    omega = psi @ cov @ psi.T
    return DemeanedDiffSeries(values=values, psi=psi, omega=omega)


@dataclass
class VarianceEstimate:
    value: float
    negative: bool = False


def _check_lags(m: int, n: int) -> None:
    if not 0 <= m < n:
        raise InvalidArgumentError(f"lag length {m} must lie in [0, {n}) for a series of length {n}")


def long_run_variance(series, m: int) -> VarianceEstimate:
    """Bartlett long-run variance gamma(0) + 2 sum_tau w(tau,m) gamma(tau).

    Autocovariances use the 1/n divisor.  In small samples the estimate can
    come out negative; it is returned as-is with a flag rather than clipped.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    _check_lags(m, n)
    xc = x - x.mean()
    gamma0 = float(np.sum(xc * xc) / n)
    total = gamma0
    for tau in range(1, m + 1):
        g = float(np.sum(xc[tau:] * xc[:-tau]) / n)
        total += 2.0 * bartlett_weight(tau, m) * g
    return VarianceEstimate(value=total, negative=total < 0)


def hac_variance(omega, m: int, double_offdiag: bool = False) -> float:
    """HAC variance from a transformed sampling covariance matrix.

        (1/n) sum_k omega_kk + (1/n) sum_{tau<=m} sum_{k>tau} w(tau,m) omega_{k,k-tau}

    with n the dimension of omega and w Bartlett's.  The off-diagonal sum is
    implemented verbatim without a factor 2; ``double_offdiag=True`` doubles
    it, which makes the estimator coincide with :func:`long_run_variance` on
    Toeplitz input built from the same autocovariances.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise InvalidArgumentError("omega must be a square matrix")
    n = omega.shape[0]
    _check_lags(m, n)
    total = float(np.trace(omega)) / n
    factor = 2.0 if double_offdiag else 1.0
    for tau in range(1, m + 1):
        off = float(np.sum(np.diagonal(omega, offset=-tau)))
        total += factor * bartlett_weight(tau, m) * off / n
    return total


@dataclass
class TrendTStats:
    t_nu: float
    t_sd: float
    t_s: float


def t_statistics(beta, sigma_hat: float) -> TrendTStats:
    """The three trend statistics given a long-run standard deviation.

        t_nu  = T^{-1/2} sigma^{-1} (b_T - b_1)
        t_sd  = T^{-2} sigma^{-2} sum_k (b_k - b_1 - (k/T)(b_T - b_1))^2
        t_s   = T^{-2} sigma^{-2} sum_k (b_k - b_1)^2

    All three are invariant to adding a constant to the whole series.
    """
    if not sigma_hat > 0:
        raise InvalidArgumentError(f"sigma_hat must be positive, got {sigma_hat}")
    b = np.asarray(beta, dtype=float)
    T = b.size
    rng = b[-1] - b[0]
    t_nu = rng / (math.sqrt(T) * sigma_hat)
    k = np.arange(1, T + 1)
    bridge = b - b[0] - (k / T) * rng
    t_sd = float(np.sum(bridge**2)) / (T**2 * sigma_hat**2)
    t_s = float(np.sum((b - b[0]) ** 2)) / (T**2 * sigma_hat**2)
    return TrendTStats(t_nu=float(t_nu), t_sd=t_sd, t_s=t_s)


@dataclass
class FTestResult:
    statistic: float
    p_chi2: float
    p_f: float
    df1: int
    df2: int
    used_pinv: bool = False


def f_statistic(beta, cov, n: int) -> FTestResult:
    """Joint test that all wave effects are zero: beta' cov^{-1} beta / T.

    p-values are reported under both conventions, F(T-1, n-T-2) and
    chi2(T-1), where n counts individual transitions.  A singular
    covariance falls back to the pseudo-inverse with a flag.
    """
    b = np.asarray(beta, dtype=float)
    cov = np.asarray(cov, dtype=float)
    T = b.size
    if T < 2:
        raise InvalidArgumentError(f"the joint test needs at least 2 waves, got {T}")
    used_pinv = False
    try:
        sol = np.linalg.solve(cov, b)
    except np.linalg.LinAlgError:
        sol = np.linalg.pinv(cov, hermitian=True) @ b
        used_pinv = True
    stat = float(b @ sol) / T
    df1 = T - 1
    df2 = max(int(n) - T - 2, 1)
    # a covariance that is semidefinite only to round-off can make the
    # statistic negative, below the support, where both tails are 1
    x = max(stat, 0.0)
    return FTestResult(
        statistic=stat,
        p_chi2=float(chdtrc(df1, x)),
        p_f=float(fdtrc(df1, df2, x)),
        df1=df1,
        df2=df2,
        used_pinv=used_pinv,
    )


# ---------------------------------------------------------------------------
# Monte-Carlo critical values


@dataclass
class CriticalValueTable:
    """Simulated quantiles of a squared-path integral functional, and its sorted draws."""

    functional: str
    n_grid: int
    reps: int
    seed: int
    quantiles: dict
    draws: np.ndarray = field(repr=False, default=None)

    def p_value(self, stat: float) -> float:
        """Right-tail probability of ``stat`` under the simulated null."""
        pos = np.searchsorted(self.draws, stat, side="right")
        return float(1.0 - pos / self.draws.size)


# float64 elements in _draw_functionals' work buffer (512 KiB); a block holds
# max(1, _BLOCK_ELEMENTS // K) replications of K normals each
_BLOCK_ELEMENTS = 1 << 16
# the largest sd the series terms a draw leaves out may have: the 95% values
# of 20,000-replication tables spread over seeds with sd 0.002 (bridge) and
# 0.005 (Wiener), so a cut this small does not show in a table
_TAIL_SD = 1e-4


def _eigen_series(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Descending weights of the Riemann-sum functionals as sums of w_i Z_i^2.

    With W_k the partial sums of n N(0, 1/n) increments, (1/n) sum_k
    (W_k - (k/n) W_n)^2 and (1/n) sum_k W_k^2 have the eigenvalues of
    (min(j, k) - jk/n) / n^2 and min(j, k) / n^2 as weights; the inverses of
    both matrices are tridiagonal (Anderson & Darling 1952 for the limits).
    """
    bridge = 1.0 / (2.0 * n * np.sin(np.arange(1, n) * (np.pi / (2 * n)))) ** 2
    wiener = 1.0 / (2.0 * n * np.sin(np.arange(1, 2 * n, 2) * (np.pi / (2 * (2 * n + 1))))) ** 2
    return bridge, wiener


def _truncate(weights: np.ndarray) -> tuple[np.ndarray, float]:
    """The fewest leading weights whose dropped tail has sd <= ``_TAIL_SD``, and its mean."""
    tail_sq = np.cumsum((weights * weights)[::-1])[::-1]
    keep = int(np.count_nonzero(2.0 * tail_sq > _TAIL_SD**2))
    return weights[:keep], float(np.sum(weights[keep:]))


def _draw_functionals(n_grid: int, reps: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Unsorted (int B^2, int W^2) draws, one pair per replication.

    Each is a Riemann sum over an ``n_grid``-step walk, drawn from its exact
    spectral form (:func:`_eigen_series`) cut by :func:`_truncate` plus the
    tail's mean.  The leading term, 92% of the bridge's variance and 99% of
    the Wiener's, takes one chi2(1) draw from each of ``reps`` equal-probability
    strata in random order: each draw keeps its law, and a table's quantiles
    spread 2-4 times less over seeds.  After both strata, ``default_rng(seed)``
    gives row ``rep`` of the other terms' normals, the bridge's first, so a
    replication's two draws are independent and no draw depends on the block size.
    """
    (v, v_tail), (w, w_tail) = (_truncate(s) for s in _eigen_series(n_grid))
    rng = np.random.default_rng(seed)
    # upper-tail probability q in stratum (k/reps, (k+1)/reps]; chi2(1)'s is ndtri(q/2)^2
    bridge, wiener = (
        lead * np.square(ndtri((rng.permutation(reps) + 1.0 - rng.random(reps)) / (2 * reps))) + tail
        for lead, tail in ((v[0], v_tail), (w[0], w_tail)))
    split, width = v.size - 1, v.size + w.size - 2
    rows = max(1, _BLOCK_ELEMENTS // width)
    work = np.empty((rows, width))
    for start in range(0, reps, rows):
        stop = min(start + rows, reps)
        x = work[: stop - start]
        rng.standard_normal(out=x)
        np.multiply(x, x, out=x)
        bridge[start:stop] += np.sum(x[:, :split] * v[1:], axis=1)
        wiener[start:stop] += np.sum(x[:, split:] * w[1:], axis=1)
    return bridge, wiener


def _critical_tables(n_grid: int, reps: int, seed: int, levels) -> dict:
    """Both functionals' tables from one pass of :func:`_draw_functionals`."""
    if n_grid < 2:
        raise InvalidArgumentError("n_grid must be >= 2")
    if reps < 1000:
        raise InvalidArgumentError("need at least 1000 replications")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    levels = tuple(levels)
    if any(not 0 < lv < 1 for lv in levels):
        raise InvalidArgumentError("levels must lie strictly inside (0, 1)")
    tables = {}
    for functional, draws in zip(("bridge", "wiener"), _draw_functionals(n_grid, reps, seed)):
        draws.sort()
        tables[functional] = CriticalValueTable(
            functional=functional, n_grid=n_grid, reps=reps, seed=seed,
            quantiles={float(lv): float(np.quantile(draws, lv)) for lv in levels},
            draws=draws,
        )
    return tables


def simulate_critical_values(
    functional: str,
    n_grid: int = 1000,
    reps: int = 100_000,
    seed: int = 0,
    levels=(0.90, 0.95, 0.99),
) -> CriticalValueTable:
    """Simulate quantiles of int B(r)^2 dr ("bridge") or int W(r)^2 dr ("wiener").

    Each replication is the Riemann sum of the squared path over an
    ``n_grid``-step walk of N(0, 1/n_grid) increments, drawn from the sum's
    eigen-series rather than from the path, its leading term stratified
    (:func:`_draw_functionals`).  The draws come from one
    ``default_rng(seed)`` stream in a fixed layout and are sorted before
    quantile extraction, so the result is deterministic.
    """
    if functional not in ("bridge", "wiener"):
        raise InvalidArgumentError("functional must be 'bridge' or 'wiener'")
    return _critical_tables(n_grid, reps, seed, levels)[functional]


# ---------------------------------------------------------------------------
# composition


@dataclass
class TrendTestReport:
    t_nu: float
    t_nu_p_normal: float
    t_nu_p_t: float
    t_sd: float
    t_sd_critical: float
    t_sd_p: float
    t_s: float
    t_s_critical: float
    t_s_p: float
    f_test: FTestResult | None
    estimator: str
    lags: int
    sigma2: float
    sigma2_negative: bool
    n_waves: int
    mc_settings: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        doc = {
            "T": self.n_waves,
            "estimator": self.estimator,
            "lags": self.lags,
            "sigma2": self.sigma2,
            "sigma2_negative": self.sigma2_negative,
            "t_nu": {"stat": self.t_nu, "p_normal": self.t_nu_p_normal, "p_t": self.t_nu_p_t},
            "t_sd": {"stat": self.t_sd, "critical_95": self.t_sd_critical, "p": self.t_sd_p},
            "t_s": {"stat": self.t_s, "critical_95": self.t_s_critical, "p": self.t_s_p},
            "mc": self.mc_settings,
        }
        if self.f_test is not None:
            doc["f"] = {
                "stat": self.f_test.statistic,
                "p_chi2": self.f_test.p_chi2,
                "p_f": self.f_test.p_f,
                "df1": self.f_test.df1,
                "df2": self.f_test.df2,
                "used_pinv": self.f_test.used_pinv,
            }
        return doc


def run_trend_tests(
    series: TrendSeries,
    lags: int = 3,
    estimator: str = "hac",
    mc_grid: int = 1000,
    mc_reps: int = 20_000,
    seed: int = 0,
    double_offdiag: bool = False,
) -> TrendTestReport:
    """Full drift-testing report for an estimated trend series.

    ``estimator`` picks the long-run variance: "hac" uses the transformed
    first-stage covariance, "long_run" the sample autocovariances of the
    demeaned differences.  The zero-drift statistic gets p-values from both
    the normal and the t reference distribution.  Critical values and
    p-values for the two stochastic-drift statistics come from the bridge
    and Wiener tables :func:`simulate_critical_values` gives for ``seed``.
    """
    if estimator not in ("hac", "long_run"):
        raise InvalidArgumentError("estimator must be 'hac' or 'long_run'")
    # a trend or covariance near an end of the float range is refused below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        transformed = demean_diff_transform(series.beta, series.cov)
        if estimator == "hac":
            sigma2 = hac_variance(transformed.omega, lags, double_offdiag=double_offdiag)
            negative = sigma2 < 0
        else:
            est = long_run_variance(transformed.values, lags)
            sigma2, negative = est.value, est.negative
        if not sigma2 > 0:
            raise InvalidArgumentError(
                f"long-run variance estimate {sigma2:.3e} is not positive; cannot form t-statistics"
            )
        stats = t_statistics(series.beta, math.sqrt(sigma2))
    if not all(map(math.isfinite, (sigma2, *vars(stats).values()))):
        raise NumericalError("a trend statistic or its variance overflows a float; check the scale")

    T = series.n_waves
    p_normal = 2.0 * float(ndtr(-abs(stats.t_nu)))
    p_t = 2.0 * float(stdtr(T - 1, -abs(stats.t_nu)))

    tables = _critical_tables(mc_grid, mc_reps, seed, levels=(0.90, 0.95, 0.99))
    bridge, wiener = tables["bridge"], tables["wiener"]

    ftest = None
    if series.n_transitions is not None:
        ftest = f_statistic(series.beta, series.cov, series.n_transitions)

    return TrendTestReport(
        t_nu=stats.t_nu,
        t_nu_p_normal=p_normal,
        t_nu_p_t=p_t,
        t_sd=stats.t_sd,
        t_sd_critical=bridge.quantiles[0.95],
        t_sd_p=bridge.p_value(stats.t_sd),
        t_s=stats.t_s,
        t_s_critical=wiener.quantiles[0.95],
        t_s_p=wiener.p_value(stats.t_s),
        f_test=ftest,
        estimator=estimator,
        lags=lags,
        sigma2=sigma2,
        sigma2_negative=negative,
        n_waves=T,
        mc_settings={
            "grid": mc_grid,
            "reps": mc_reps,
            "seed": seed,
            "bridge_quantiles": bridge.quantiles,
            "wiener_quantiles": wiener.quantiles,
        },
    )

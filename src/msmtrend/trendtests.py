"""Nonparametric tests for the absence and nature of a drift in the trend.

Works on the demeaned first differences of the estimated wave effects.  The
zero-drift t-test is judged against a normal or t(T-1) distribution; the two
stochastic-drift statistics are judged against simulated distributions of
the squared Brownian bridge and Wiener integrals, both drawn from one set of
Wiener paths, one per (seed, replication) substream, seeded as arrays and
bit-identical to ``default_rng([seed, replication])``.  Long-run variances come
either from the sample autocovariances of the differenced series
(homoskedastic) or from the first-stage sampling covariance (HAC).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import chi2, f as f_dist, norm, t as t_dist

from .errors import InvalidArgumentError
from .substreams import generators
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
    diff = np.zeros((T - 1, T))
    for k in range(T - 1):
        diff[k, k] = -1.0
        diff[k, k + 1] = 1.0
    center = np.eye(T - 1) - np.ones((T - 1, T - 1)) / (T - 1)
    psi = center @ diff
    values = psi @ beta
    omega = psi @ cov @ psi.T
    return DemeanedDiffSeries(values=values, psi=psi, omega=omega)


@dataclass
class VarianceEstimate:
    value: float
    negative: bool = False


def long_run_variance(series, m: int, kernel=bartlett_weight) -> VarianceEstimate:
    """Kernel long-run variance gamma(0) + 2 sum_tau w(tau,m) gamma(tau).

    Autocovariances use the 1/n divisor.  In small samples the estimate can
    come out negative; it is returned as-is with a flag rather than clipped.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    if m >= n:
        raise InvalidArgumentError(f"lag length {m} must be below series length {n}")
    if m < 0:
        raise InvalidArgumentError("lag length must be nonnegative")
    xc = x - x.mean()
    gamma0 = float(np.sum(xc * xc) / n)
    total = gamma0
    for tau in range(1, m + 1):
        g = float(np.sum(xc[tau:] * xc[:-tau]) / n)
        total += 2.0 * kernel(tau, m) * g
    return VarianceEstimate(value=total, negative=total < 0)


def hac_variance(omega, m: int, kernel=bartlett_weight, double_offdiag: bool = False) -> float:
    """HAC variance from a transformed sampling covariance matrix.

        (1/n) sum_k omega_kk + (1/n) sum_{tau<=m} sum_{k>tau} w(tau,m) omega_{k,k-tau}

    with n the dimension of omega.  The off-diagonal sum is implemented
    verbatim without a factor 2; ``double_offdiag=True`` doubles it, which
    makes the estimator coincide with :func:`long_run_variance` on Toeplitz
    input built from the same autocovariances.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise InvalidArgumentError("omega must be a square matrix")
    n = omega.shape[0]
    if m >= n:
        raise InvalidArgumentError(f"lag length {m} must be below dimension {n}")
    total = float(np.trace(omega)) / n
    factor = 2.0 if double_offdiag else 1.0
    for tau in range(1, m + 1):
        off = float(np.sum(np.diagonal(omega, offset=-tau)))
        total += factor * kernel(tau, m) * off / n
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
    used_pinv = False
    try:
        sol = np.linalg.solve(cov, b)
    except np.linalg.LinAlgError:
        sol = np.linalg.pinv(cov, hermitian=True) @ b
        used_pinv = True
    stat = float(b @ sol) / T
    df1 = T - 1
    df2 = max(int(n) - T - 2, 1)
    return FTestResult(
        statistic=stat,
        p_chi2=float(chi2.sf(stat, df1)),
        p_f=float(f_dist.sf(stat, df1, df2)),
        df1=df1,
        df2=df2,
        used_pinv=used_pinv,
    )


# ---------------------------------------------------------------------------
# Monte-Carlo critical values


@dataclass
class CriticalValueTable:
    """Simulated quantiles of a squared-path integral functional."""

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


# float64 elements in each of _draw_functionals' two work buffers (512 KiB);
# a block holds max(1, _BLOCK_ELEMENTS // n_grid) replications
_BLOCK_ELEMENTS = 1 << 16


def _draw_functionals(n_grid: int, reps: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Unsorted (int B^2, int W^2) draws, one pair per replication.

    Replication ``rep`` draws its ``n_grid`` increments from the substream
    ``default_rng([seed, rep])``, seeded for all replications at once as
    arrays (:func:`substreams.generators`).  The Wiener path is their partial
    sums and the bridge is that path less r times its end point, so one draw
    serves both functionals.  Replications are processed in blocks of rows with
    the arithmetic done in place, element by element in the same order as
    for a single path, and each row sum runs along the contiguous axis, so
    it is the same pairwise sum ``np.sum`` takes of one path: every draw is
    independent of the block size.
    """
    grid_weight = 1.0 / n_grid
    scale = math.sqrt(grid_weight)
    r = np.arange(1, n_grid + 1) / n_grid
    rows = max(1, _BLOCK_ELEMENTS // n_grid)
    work, paths = np.empty((rows, n_grid)), np.empty((rows, n_grid))
    bridge, wiener = np.empty(reps), np.empty(reps)
    streams = generators(seed, reps)
    for start in range(0, reps, rows):
        stop = min(start + rows, reps)
        x, w = work[: stop - start], paths[: stop - start]
        for row in x:
            next(streams).standard_normal(out=row)
        x *= scale
        np.cumsum(x, axis=1, out=w)
        np.multiply(w, w, out=x)
        np.sum(x, axis=1, out=wiener[start:stop])
        np.multiply(r, w[:, -1:], out=x)
        np.subtract(w, x, out=x)
        np.multiply(x, x, out=x)
        np.sum(x, axis=1, out=bridge[start:stop])
    bridge *= grid_weight
    wiener *= grid_weight
    return bridge, wiener


def _critical_tables(n_grid: int, reps: int, seed: int, levels) -> dict:
    """Both functionals' tables from one pass over the (seed, rep) substreams."""
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

    Each replication discretizes a Wiener path as scaled partial sums of
    N(0, 1/n_grid) increments and approximates the integral by a Riemann
    sum.  Replications use substreams keyed by (seed, index) and the draws
    are sorted before quantile extraction, so the result is deterministic
    regardless of evaluation order; both functionals come from the same
    paths, so a bridge and a Wiener table with one seed share their draws.
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
    dist: str = "normal",
    mc_grid: int = 1000,
    mc_reps: int = 20_000,
    seed: int = 0,
    double_offdiag: bool = False,
) -> TrendTestReport:
    """Full drift-testing report for an estimated trend series.

    ``estimator`` picks the long-run variance: "hac" uses the transformed
    first-stage covariance, "long_run" the sample autocovariances of the
    demeaned differences.  ``dist`` picks the reference distribution for the
    zero-drift statistic ("normal" or "t").  Critical values and p-values
    for the two stochastic-drift statistics come from simulated integral
    functionals: one set of ``(seed, rep)`` substreams gives each
    replication's Wiener path, which serves both the bridge and the Wiener
    table, as :func:`simulate_critical_values` would draw them.
    """
    if estimator not in ("hac", "long_run"):
        raise InvalidArgumentError("estimator must be 'hac' or 'long_run'")
    if dist not in ("normal", "t"):
        raise InvalidArgumentError("dist must be 'normal' or 't'")
    transformed = demean_diff_transform(series.beta, series.cov)
    if estimator == "hac":
        sigma2 = hac_variance(transformed.omega, lags, double_offdiag=double_offdiag)
        negative = sigma2 < 0
    else:
        est = long_run_variance(transformed.values, lags)
        sigma2, negative = est.value, est.negative
    if sigma2 <= 0:
        raise InvalidArgumentError(
            f"long-run variance estimate {sigma2:.3e} is not positive; cannot form t-statistics"
        )
    stats = t_statistics(series.beta, math.sqrt(sigma2))

    T = series.n_waves
    p_normal = 2.0 * float(norm.sf(abs(stats.t_nu)))
    p_t = 2.0 * float(t_dist.sf(abs(stats.t_nu), T - 1))

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

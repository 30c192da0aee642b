"""Nonparametric tests for the absence and nature of a drift in the trend.

Works on the demeaned first differences of the estimated wave effects.  The
zero-drift t-test is judged against a normal or t(T-1) distribution; the two
stochastic-drift statistics are judged against simulated distributions of
the squared Brownian bridge and Wiener integrals over a discretised walk,
drawn from the walk's eigen-series.  Long-run variances come either from
the sample autocovariances of the differenced series (homoskedastic) or
from the first-stage sampling covariance (HAC).

:func:`run_trend_tests` returns the ``tests.json`` document itself, a dict
that ``test-trend`` writes as it is.  The helpers return plain values:
:func:`demean_diff_transform` the triple ``(values, psi, omega)``,
:func:`long_run_variance` and :func:`hac_variance` a float,
:func:`t_statistics` the triple ``(t_nu, t_sd, t_s)`` and
:func:`f_statistic` the document's ``"f"`` block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NumericalError
from .trend import TrendSeries

__all__ = [
    "bartlett_weight",
    "demean_diff_transform",
    "long_run_variance",
    "hac_variance",
    "t_statistics",
    "f_statistic",
    "CriticalValueTable",
    "simulate_critical_values",
    "run_trend_tests",
]


def bartlett_weight(tau: int, m: int) -> float:
    """Bartlett kernel weight 1 - tau/(m+1)."""
    return 1.0 - tau / (m + 1.0)


def demean_diff_transform(beta, cov) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The demeaned first differences ``psi @ beta``, the (T-1) x T map ``psi``
    and the transformed covariance ``psi @ cov @ psi.T``."""
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
    return values, psi, omega


def _check_lags(m: int, n: int) -> None:
    if not 0 <= m < n:
        raise InvalidArgumentError(f"lag length {m} must lie in [0, {n}) for a series of length {n}")


def long_run_variance(series, m: int) -> float:
    """Bartlett long-run variance gamma(0) + 2 sum_tau w(tau,m) gamma(tau).

    Autocovariances use the 1/n divisor.  With that divisor and Bartlett
    weights the estimate is never negative (Newey & West 1987): it is the
    periodogram of the centred series smoothed by the nonnegative Fejer kernel.
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
    return total


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


def t_statistics(beta, sigma_hat: float) -> tuple[float, float, float]:
    """The three trend statistics ``(t_nu, t_sd, t_s)`` given a long-run standard deviation.

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
    return float(t_nu), t_sd, t_s


def f_statistic(beta, cov, n: int) -> dict:
    """Joint test that all wave effects are zero: beta' cov^{-1} beta / T.

    Returns the ``"f"`` block of the ``tests.json`` document: ``stat``, its
    p-values under both conventions, ``p_chi2`` from chi2(T-1) and ``p_f``
    from F(T-1, n-T-2) with n counting individual transitions, ``df1``,
    ``df2``, and ``used_pinv``, set when a singular covariance falls back
    to the pseudo-inverse.
    """
    b = np.asarray(beta, dtype=float)
    cov = np.asarray(cov, dtype=float)
    T = b.size
    if T < 2:
        raise InvalidArgumentError(f"the joint test needs at least 2 waves, got {T}")
    # imported here, so that importing the package loads no SciPy
    from scipy.special import chdtrc, fdtrc
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
    return {"stat": stat, "p_chi2": float(chdtrc(df1, x)), "p_f": float(fdtrc(df1, df2, x)),
            "df1": df1, "df2": df2, "used_pinv": used_pinv}


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
# the largest sd the series terms a draw leaves out may have.  Their mean
# stands in for them, which moves a quantile q by about (s^2 / 2) |f'/f|(q),
# s their sd and f the functional's density: second order in s.  |f'/f| at
# the 90, 95 and 99% points is 6.9, 6.3 and 5.7 for the bridge (tending to
# pi^2/2 in the tail) and 1.7, 1.6 and 1.4 for the Wiener integral (tending
# to pi^2/8); bounded by 7 and 1.7, at s = 3e-3 the three points move by at
# most 3.1e-5, 2.8e-5 and 2.6e-5 (bridge) and 7.6e-6, 7.0e-6 and 6.4e-6
# (Wiener), under 2% of the sd with which a 20,000-replication table's 95%
# value spreads over seeds, 0.002 and 0.005.  At n_grid = 1000 a draw keeps
# 9 + 10 terms, 17 normals beside the two stratified leading terms
_TAIL_SD = 3e-3
# the levels at which every table gives its quantiles
_LEVELS = (0.90, 0.95, 0.99)


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
    from scipy.special import ndtri
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


def _critical_tables(n_grid: int, reps: int, seed: int) -> dict:
    """Both functionals' tables from one pass of :func:`_draw_functionals`."""
    if n_grid < 2:
        raise InvalidArgumentError("n_grid must be >= 2")
    if reps < 1000:
        raise InvalidArgumentError("need at least 1000 replications")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    tables = {}
    for functional, draws in zip(("bridge", "wiener"), _draw_functionals(n_grid, reps, seed)):
        draws.sort()
        tables[functional] = CriticalValueTable(
            functional=functional, n_grid=n_grid, reps=reps, seed=seed,
            quantiles={lv: float(np.quantile(draws, lv)) for lv in _LEVELS},
            draws=draws,
        )
    return tables


def simulate_critical_values(
    functional: str,
    n_grid: int = 1000,
    reps: int = 100_000,
    seed: int = 0,
) -> CriticalValueTable:
    """Simulate quantiles of int B(r)^2 dr ("bridge") or int W(r)^2 dr ("wiener").

    Each replication is the Riemann sum of the squared path over an
    ``n_grid``-step walk of N(0, 1/n_grid) increments, drawn from the sum's
    eigen-series rather than from the path, its leading term stratified
    (:func:`_draw_functionals`).  The draws come from one
    ``default_rng(seed)`` stream in a fixed layout and are sorted before
    quantile extraction, so the result is deterministic.  ``quantiles``
    maps each level of 0.90, 0.95 and 0.99 to its quantile.
    """
    if functional not in ("bridge", "wiener"):
        raise InvalidArgumentError("functional must be 'bridge' or 'wiener'")
    return _critical_tables(n_grid, reps, seed)[functional]


# ---------------------------------------------------------------------------
# composition


def run_trend_tests(
    series: TrendSeries,
    lags: int = 3,
    estimator: str = "hac",
    mc_grid: int = 1000,
    mc_reps: int = 20_000,
    seed: int = 0,
    double_offdiag: bool = False,
) -> dict:
    """The ``tests.json`` document for an estimated trend series.

    ``estimator`` picks the long-run variance: "hac" uses the transformed
    first-stage covariance, "long_run" the sample autocovariances of the
    demeaned differences.  The zero-drift statistic gets p-values from both
    the normal and the t reference distribution.  Critical values and
    p-values for the two stochastic-drift statistics come from the bridge
    and Wiener tables :func:`simulate_critical_values` gives for ``seed``,
    whose quantiles the document's ``"mc"`` block holds.  The ``"f"`` block
    (:func:`f_statistic`) is there when the series counts its transitions.
    """
    if estimator not in ("hac", "long_run"):
        raise InvalidArgumentError("estimator must be 'hac' or 'long_run'")
    # a trend or covariance near an end of the float range is refused below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        values, _, omega = demean_diff_transform(series.beta, series.cov)
        if estimator == "hac":
            sigma2 = hac_variance(omega, lags, double_offdiag=double_offdiag)
        else:
            sigma2 = long_run_variance(values, lags)
        if not sigma2 > 0:
            raise InvalidArgumentError(
                f"long-run variance estimate {sigma2:.3e} is not positive; cannot form t-statistics"
            )
        t_nu, t_sd, t_s = t_statistics(series.beta, math.sqrt(sigma2))
    if not all(map(math.isfinite, (sigma2, t_nu, t_sd, t_s))):
        raise NumericalError("a trend statistic or its variance overflows a float; check the scale")

    from scipy.special import ndtr, stdtr
    T = series.n_waves
    tables = _critical_tables(mc_grid, mc_reps, seed)
    bridge, wiener = tables["bridge"], tables["wiener"]
    doc = {
        "T": T,
        "estimator": estimator,
        "lags": lags,
        "sigma2": sigma2,
        # a variance that is not positive is refused above
        "sigma2_negative": False,
        "t_nu": {"stat": t_nu, "p_normal": 2.0 * float(ndtr(-abs(t_nu))),
                 "p_t": 2.0 * float(stdtr(T - 1, -abs(t_nu)))},
        "t_sd": {"stat": t_sd, "critical_95": bridge.quantiles[0.95], "p": bridge.p_value(t_sd)},
        "t_s": {"stat": t_s, "critical_95": wiener.quantiles[0.95], "p": wiener.p_value(t_s)},
        "mc": {"grid": mc_grid, "reps": mc_reps, "seed": seed,
               "bridge_quantiles": bridge.quantiles, "wiener_quantiles": wiener.quantiles},
    }
    if series.n_transitions is not None:
        doc["f"] = f_statistic(series.beta, series.cov, series.n_transitions)
    return doc

"""Correctness oracles and checks for the benchmark.

Every oracle here is computed apart from the code it judges:

- the likelihood oracle runs a per-individual forward recursion with
  ``scipy.linalg.expm`` of the generator from ``markov.build_intensity`` and
  this module's own misclassification matrix, instead of the closed-form
  vectorized kernel in ``estimator.PanelDesign``;
- the filter oracle is a grid search over the free filter parameters with
  this module's own vectorized Kalman recursion;
- the power oracle is the large-k closed form
  theta(x) = Phi(-x sqrt(s / (1 + K_inf))), K_inf = (-s + sqrt(s^2 + 4s))/2;
- the critical-value oracle is the pair of theoretical means
  E int B^2 = 1/6 and E int W^2 = 1/2.

Each ``check_*`` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm
from scipy.special import expit
from scipy.stats import norm

from msmtrend import markov

LOG2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# first-stage likelihood


def params_from_vector(gamma, structure) -> markov.HazardParams:
    """HazardParams from the flat vector, in the documented parameter order."""
    g = np.asarray(gamma, dtype=float)
    T, nb = structure.n_waves, structure.n_basis
    rest = g[T + 1 + 2 * nb:]
    return markov.HazardParams(
        beta=g[:T],
        female_12=float(g[T]),
        age_spline_12=g[T + 1: T + 1 + nb],
        age_spline_f_12=g[T + 1 + nb: T + 1 + 2 * nb],
        log_q13_0=float(rest[0]), female_13=float(rest[1]),
        age_13=float(rest[2]), trend_13=float(rest[3]),
        log_q23_0=float(rest[4]), female_23=float(rest[5]),
        age_23=float(rest[6]), trend_23=float(rest[7]),
        logit_e12=float(rest[8]), logit_e21=float(rest[9]), logit_p2=float(rest[10]),
    )


def _emission(e12: float, e21: float) -> np.ndarray:
    # E[true, observed]; death is observed exactly
    return np.array([[1.0 - e12, e12, 0.0], [e21, 1.0 - e21, 0.0], [0.0, 0.0, 1.0]])


def forward_loglik_oracle(ids, times, states, ages, female, structure, gamma) -> float:
    """Sum of per-individual forward-recursion log likelihoods, via expm."""
    params = params_from_vector(gamma, structure)
    emis = _emission(float(expit(params.logit_e12)), float(expit(params.logit_e21)))
    p2 = float(expit(params.logit_p2))
    init = np.array([1.0 - p2, p2, 0.0])
    wave_times = np.asarray(structure.wave_times)
    order = np.lexsort((times, ids))
    ids, times, states, ages, female = (a[order] for a in (ids, times, states, ages, female))
    total = 0.0
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    for lo, hi in zip(starts, np.r_[starts[1:], ids.size]):
        alpha = init * emis[:, states[lo] - 1]
        ll = math.log(alpha.sum())
        alpha = alpha / alpha.sum()
        for j in range(lo, hi - 1):
            wave = int(np.flatnonzero(np.isclose(wave_times, times[j], rtol=0, atol=1e-9))[0]) + 1
            z = markov.Covariates(age=float(ages[j]), female=int(female[j]))
            q = markov.build_intensity(structure, params, z, wave).matrix
            alpha = (alpha @ expm((times[j + 1] - times[j]) * q)) * emis[:, states[j + 1] - 1]
            ll += math.log(alpha.sum())
            alpha = alpha / alpha.sum()
        total += ll
    return total


def check_loglik(program: float, oracle: float, rtol: float = 1e-9, what: str = "loglik") -> list:
    diff = abs(program - oracle)
    if not diff <= rtol * max(1.0, abs(oracle)):
        return [f"{what}: program {program!r} vs oracle {oracle!r} (|diff| {diff:.3e})"]
    return []


# ---------------------------------------------------------------------------
# step-two filter


def filter_loglik(y, h, variant, sigma_eta, nu=0.0, sigma_xi=0.0) -> np.ndarray:
    """Diffuse-start Kalman log likelihood, vectorized over parameter arrays.

    ``h`` is the measurement variance per wave, shape (T,) or (T, G).
    """
    y = np.asarray(y, dtype=float)
    q = np.asarray(sigma_eta, dtype=float) ** 2
    h = np.asarray(h, dtype=float)
    shape = np.broadcast_shapes(q.shape, np.shape(nu), np.shape(sigma_xi), h.shape[1:])
    ll = np.zeros(shape)
    if variant == "stoch_drift":
        qx = np.asarray(sigma_xi, dtype=float) ** 2
        m0 = np.full(shape, y[1])
        m1 = np.full(shape, y[1] - y[0])
        p00 = np.zeros(shape)
        p01 = np.zeros(shape)
        p11 = q + qx + np.zeros(shape)
        for k in range(2, y.size):
            m0 = m0 + m1
            a00 = p00 + 2.0 * p01 + p11 + q
            a01 = p01 + p11
            a11 = p11 + qx
            f = a00 + h[k]
            v = y[k] - m0
            ll = ll - 0.5 * (LOG2PI + np.log(f) + v * v / f)
            k0, k1 = a00 / f, a01 / f
            m0, m1 = m0 + k0 * v, m1 + k1 * v
            p00, p01, p11 = a00 - k0 * a00, a01 - k0 * a01, a11 - k1 * a01
        return ll
    drift = np.asarray(nu, dtype=float) if variant == "const_drift" else 0.0
    m = np.full(shape, y[0])
    p = np.zeros(shape)
    for k in range(1, y.size):
        pm = m + drift
        pv = p + q
        f = pv + h[k]
        v = y[k] - pm
        ll = ll - 0.5 * (LOG2PI + np.log(f) + v * v / f)
        gain = pv / f
        m = pm + gain * v
        p = (1.0 - gain) * pv
    return ll


def _axis(center: float, wide: tuple, log: bool) -> np.ndarray:
    lo, hi = wide
    grid = np.linspace(lo, hi, 41)
    local = center + np.linspace(-0.5, 0.5, 21) * (1.0 if log else max(abs(center), 0.05))
    return np.unique(np.r_[grid, local])


def check_filter_optimum(y, var_diag, variant, mode, estimates, loglik, tag="fit_filter") -> list:
    """No grid point over the free parameters beats the reported optimum,
    and the reported log likelihood matches this module's recursion."""
    problems = []
    y = np.asarray(y, dtype=float)
    sd = max(float(np.std(np.diff(y))), 1e-6)
    floor = math.log(1e-8)

    def log_sd(v):
        return math.log(v) if v > 0 else floor

    names = ["sigma_eta"]
    if variant == "const_drift":
        names.append("nu")
    if variant == "stoch_drift":
        names.append("sigma_xi")
    if mode == "free":
        names.append("sigma_eps")
    axes = []
    for name in names:
        if name == "nu":
            c = estimates["nu"]
            axes.append(_axis(c, (c - 3 * sd, c + 3 * sd), log=False))
        else:
            c = log_sd(estimates[name])
            axes.append(_axis(c, (math.log(1e-4 * sd), math.log(20.0 * sd)), log=True))
    if len(axes) == 3:  # keep the 3-d grid small
        axes = [a[:: max(1, a.size // 25)] for a in axes]
    mesh = dict(zip(names, np.meshgrid(*axes, indexing="ij")))
    kw = {k: (v if k == "nu" else np.exp(v)) for k, v in mesh.items()}
    h = (np.asarray(var_diag, dtype=float) if mode == "constrained"
         else np.broadcast_to(kw["sigma_eps"] ** 2, (y.size,) + kw["sigma_eps"].shape))
    grid_ll = filter_loglik(y, h, variant, kw["sigma_eta"], kw.get("nu", 0.0), kw.get("sigma_xi", 0.0))
    best = float(np.max(grid_ll))

    h0 = (np.asarray(var_diag, dtype=float) if mode == "constrained"
          else np.full(y.size, estimates["sigma_eps"] ** 2))
    own = float(filter_loglik(y, h0, variant, estimates["sigma_eta"],
                              estimates.get("nu") or 0.0, estimates.get("sigma_xi") or 0.0))
    problems += check_loglik(loglik, own, 1e-9, f"{tag} filter loglik")
    if best > loglik + 1e-6 * max(1.0, abs(loglik)):
        problems.append(f"{tag}: grid point beats the fit ({best!r} > {loglik!r})")
    return problems


def check_gain_k2(gain_k2: float, sigma_eta: float, h2: float, tag="fit_filter") -> list:
    q = sigma_eta**2
    expected = q / (q + h2)
    if gain_k2 != expected:
        return [f"{tag}: K_2 {float(gain_k2)!r} != q/(q+h_2) {float(expected)!r}"]
    return []


def check_forecast_variance(variances, sigma_eta: float, post_var_last: float) -> list:
    """Zero drift: forecast variance grows by sigma_eta^2 per step."""
    v = np.r_[post_var_last, np.asarray(variances, dtype=float)]
    step = np.diff(v)
    q = sigma_eta**2
    if not np.allclose(step, q, rtol=1e-12, atol=1e-15):
        return [f"forecast variance steps {step.tolist()} != sigma_eta^2 {q!r}"]
    return []


# ---------------------------------------------------------------------------
# Monte-Carlo critical values and power


def check_critical_values(bridge_draws, wiener_draws, bridge_q95, wiener_q95, n_se=3.0) -> list:
    """Means against 1/6 and 1/2, 95% quantiles within the published ranges."""
    problems = []
    for name, draws, mean, q95, (lo, hi) in (
        ("bridge", bridge_draws, 1.0 / 6.0, bridge_q95, (0.44, 0.48)),
        ("wiener", wiener_draws, 0.5, wiener_q95, (1.55, 1.70)),
    ):
        d = np.asarray(draws, dtype=float)
        se = float(np.std(d)) / math.sqrt(d.size)
        if abs(float(np.mean(d)) - mean) > n_se * se:
            problems.append(f"{name} mean {np.mean(d):.5f} not within {n_se} SE of {mean:.5f}")
        if not lo <= q95 <= hi:
            problems.append(f"{name} 95% quantile {q95:.4f} outside [{lo}, {hi}]")
    return problems


def k_inf(s: float) -> float:
    return 0.5 * (-s + math.sqrt(s * s + 4.0 * s))


def power_closed_form(x, s: float) -> np.ndarray:
    return norm.cdf(-np.asarray(x, dtype=float) * math.sqrt(s / (1.0 + k_inf(s))))


def check_power(theta, x, s: float, tol: float = 1e-12) -> list:
    diff = float(np.max(np.abs(np.asarray(theta) - power_closed_form(x, s))))
    return [] if diff <= tol else [f"power differs from the closed form by {diff:.3e}"]

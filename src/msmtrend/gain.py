"""Small-sample behavior of the constrained filter.

Gain and normalized-variance recursions driven by the signal-to-noise
sequence s_k = sigma_eta^2 / sigma_kk^2, their fixed points, the expansion
of the filter update K_k v_k in past process and measurement shocks (exact
and steady-state forms), and the implied analytic power and size for
detecting the sign of a shock.

Indexing: the library's K_1 = 1 is the diffuse step, so the first non-diffuse
gain is K_2 = s/(s+1).  Narrative conventions elsewhere often start counting
at the first non-diffuse gain; trajectory reports carry both labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "gain_sequence",
    "fixed_point",
    "exact_coefficients",
    "PowerCurve",
    "power",
]


def gain_sequence(s) -> dict:
    """Gains K_1 = 1, K_{k} = s_k (A_{k-1} + 1) / (s_k A_{k-1} + s_k + 1).

    A_k = sum_{d=1..k} prod_{i=d..k} (1 - K_i) accumulates the gain history;
    the recursion reproduces the filter's gains exactly for measurement
    variances sigma_kk^2 = sigma_eta^2 / s_k.

    The affine step K_{k+1} = m_k K_k + b_k is the tangent line of the gain
    map at the realized K_k, differentiating K_{k+1} = s(A_k + 1)/(s A_k + s + 1)
    with A_k = (1 - K_k)(A_{k-1} + 1) in K_k, the earlier history held fixed:

        m_k = -s_{k+1} (A_{k-1} + 1) (1 - K_{k+1})^2,   b_k = K_{k+1} - m_k K_k.

    It reproduces K_{k+1} exactly, and |m_k| < 1 expresses the contraction.

    Returns the columns of the trajectory: ``gain``, ``nu_var`` = s_k A_k
    (the normalized posterior variances P_{k|k} / sigma_kk^2), and ``slope``
    m_k and ``intercept`` b_k, NaN outside 2 <= k <= T - 1.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.size < 1:
        raise InvalidArgumentError("need a one-dimensional signal-to-noise sequence")
    # up to 1e300, s (A + 1) stays in the float range for runs of up to 1e8 waves
    if not np.all((s > 0) & (s <= 1e300)):
        raise InvalidArgumentError("signal-to-noise ratios must lie in (0, 1e300]")
    T = s.size
    gains = np.empty(T)
    A = np.empty(T)
    gains[0] = 1.0
    A[0] = 0.0  # A_1 = 1 - K_1
    for k in range(1, T):
        gains[k] = s[k] * (A[k - 1] + 1.0) / (s[k] * A[k - 1] + s[k] + 1.0)
        A[k] = (1.0 - gains[k]) * (A[k - 1] + 1.0)
    slope, intercept = np.full(T, np.nan), np.full(T, np.nan)
    slope[1:-1] = -s[2:] * (A[:-2] + 1.0) * (1.0 - gains[2:]) ** 2
    intercept[1:-1] = gains[2:] - slope[1:-1] * gains[1:-1]
    return {"gain": gains, "nu_var": s * A, "slope": slope, "intercept": intercept}


def fixed_point(s) -> tuple:
    """Fixed point ``(nu_inf, k_inf)`` of the variance map and the limiting gain.

    Solves nu = (nu + s)/(nu + s + 1), i.e. the positive root of
    nu^2 + s nu - s = 0, and K = (nu + s)/(nu + s + 1), equal to nu in exact
    arithmetic.  The root is taken as s / (h + s/2) with h = hypot(s/2, sqrt(s)), from the
    root product -s and the root of larger magnitude, which does not cancel;
    nothing overflows for finite s.  Floats for a scalar ``s``, arrays for an
    array, each entry the same double as a scalar call would give.
    """
    values = np.asarray(s, dtype=float)
    if not np.all((values > 0) & np.isfinite(values)):
        bad = s if values.ndim == 0 else values[~((values > 0) & np.isfinite(values))][0]
        raise InvalidArgumentError(f"s must be positive and finite, got {bad}")
    half = 0.5 * values
    nu_inf = values / (np.hypot(half, np.sqrt(values)) + half)
    k_inf = (nu_inf + values) / (nu_inf + values + 1.0)
    if values.ndim:
        return nu_inf, k_inf
    return float(nu_inf), float(k_inf)


# ---------------------------------------------------------------------------
# innovation expansion coefficients


def exact_coefficients(k: int, gains) -> tuple:
    """Coefficients ``(c, d)`` of K_k v_k = sum_i c_i(k) eta_i + d_i(k) eps_i,
    defined by the forward recursions

        c_i(j+1) = (-K_{j+1}) (-1 + sum_{s=i..j} c_i(s)),   c_i(i) = K_i
        d_i(j+1) = (-K_{j+1}) sum_{s=i..j} d_i(s),          d_i(i) = K_i

    (equal to the signed-subset expansion: sums of signed products of gains
    over subsets of {i..k}).  By induction 1 - sum_{s=i..j} c_i(s) =
    prod_{s=i..j} (1 - K_s), and likewise for d, which gives the closed forms

        c_i(k) = K_k prod_{s=i..k-1} (1 - K_s)
        d_i(k) = -K_k K_i prod_{s=i+1..k-1} (1 - K_s),   i < k;   d_k(k) = K_k,

    computed from one suffix product in O(k).
    """
    if k < 2:
        raise InvalidArgumentError(f"order must be >= 2, got {k}")
    gains = np.asarray(gains, dtype=float)
    if gains.size < k:
        raise InvalidArgumentError(f"need {k} gains, got {gains.size}")
    g = gains[:k]
    # tail[i-1] = prod_{s=i..k-1} (1 - K_s), the empty product at i = k
    tail = np.append(np.cumprod(1.0 - g[-2::-1])[::-1], 1.0)
    c = g[-1] * tail
    d = np.append(-g[-1] * g[:-1] * tail[1:], g[-1])
    return c, d


# ---------------------------------------------------------------------------
# power


@dataclass
class PowerCurve:
    """Probability of registering a fall, as a function of the standardized shock."""

    eta_std: np.ndarray
    theta: np.ndarray
    k: int
    s: float
    mode: str


def power(eta_std, k: int, s: float, mode: str = "exact") -> PowerCurve:
    """Probability that the filtered series falls given the shock eta_k.

    Conditions on the exact standardized value eta_k / sigma_eta.  With the
    expansion coefficients c, d and the homoskedastic noise variance 1/s (in
    units of sigma_eta^2), the update K_k v_k given eta_k is Gaussian and

        theta(x) = Phi(-c_k(k) x / sqrt(Vbar)),
        Vbar = sum_{i<k} c_i(k)^2 + (1/s) sum_{i<=k} d_i(k)^2,

    taken relative to c_k(k) = K_k, whose square underflows at tiny s.

    For k = 2 this is the normal CDF with variance 2/s evaluated at -x.  For
    large k (gains at their limit K_inf = (-s + sqrt(s^2 + 4s))/2) the
    innovation variance is (1 + K_inf)/s and

        theta(x) = Phi(-x sqrt(s / (1 + K_inf))).
    """
    if k < 2:
        raise InvalidArgumentError(f"k must be >= 2, got {k}")
    if not (s > 0 and math.isfinite(s)):
        raise InvalidArgumentError(f"s must be positive and finite, got {s}")
    if mode not in ("exact", "asymptotic"):
        raise InvalidArgumentError("mode must be 'exact' or 'asymptotic'")
    x = np.atleast_1d(np.asarray(eta_std, dtype=float))
    gains = gain_sequence(np.full(k, s))["gain"] if mode == "exact" else np.full(k, fixed_point(s)[1])
    c, d = exact_coefficients(k, gains)
    c, d = c / c[-1], d / c[-1]
    # imported here, so that importing the package loads no SciPy
    from scipy.special import ndtr
    theta = ndtr(-x / math.sqrt(float(np.sum(c[:-1] ** 2) + np.sum(d**2) / s)))
    return PowerCurve(eta_std=x, theta=theta, k=k, s=float(s), mode=mode)


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
from scipy.special import ndtr

from .errors import InvalidArgumentError

__all__ = [
    "GainTrajectory",
    "gain_sequence",
    "FixedPoint",
    "fixed_point",
    "CoefficientTable",
    "exact_coefficients",
    "PowerCurve",
    "power",
    "size",
]


@dataclass
class GainTrajectory:
    """Gain and normalized-variance path for a signal-to-noise sequence.

    ``A`` holds the gain history A_k and ``nu_var`` = s_k A_k the normalized
    posterior variances P_{k|k} / sigma_kk^2.  ``slope`` and ``intercept``
    hold the affine step K_{k+1} = m_k K_k + b_k at each k, NaN outside
    2 <= k <= T - 1.
    """

    s: np.ndarray
    gains: np.ndarray
    A: np.ndarray
    nu_var: np.ndarray
    iota: np.ndarray
    slope: np.ndarray
    intercept: np.ndarray


def gain_sequence(s) -> GainTrajectory:
    """Gains K_1 = 1, K_{k} = s_k (A_{k-1} + 1) / (s_k A_{k-1} + s_k + 1).

    A_k = sum_{d=1..k} prod_{i=d..k} (1 - K_i) accumulates the gain history;
    the recursion reproduces the filter's gains exactly for measurement
    variances sigma_kk^2 = sigma_eta^2 / s_k.

    The affine step K_{k+1} = m_k K_k + b_k is the tangent line of the gain
    map at the realized K_k, differentiating K_{k+1} = s(A_k + 1)/(s A_k + s + 1)
    with A_k = (1 - K_k)(A_{k-1} + 1) in K_k, the earlier history held fixed:

        m_k = -s_{k+1} (A_{k-1} + 1) (1 - K_{k+1})^2,   b_k = K_{k+1} - m_k K_k.

    It reproduces K_{k+1} exactly, and |m_k| < 1 expresses the contraction.
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
    with np.errstate(over="ignore"):  # a ratio beyond the float range is iota = -inf
        iota = 1.0 - s[1:] / s[:-1] if T > 1 else np.empty(0)
    slope, intercept = np.full(T, np.nan), np.full(T, np.nan)
    slope[1:-1] = -s[2:] * (A[:-2] + 1.0) * (1.0 - gains[2:]) ** 2
    intercept[1:-1] = gains[2:] - slope[1:-1] * gains[1:-1]
    return GainTrajectory(s=s, gains=gains, A=A, nu_var=s * A, iota=iota, slope=slope,
                          intercept=intercept)


@dataclass(frozen=True)
class FixedPoint:
    """One fixed point per signal-to-noise ratio: ``s``, ``nu_inf`` and
    ``k_inf`` are floats for a scalar ``s`` and arrays for an array."""

    s: float | np.ndarray
    iota: float
    nu_inf: float | np.ndarray
    k_inf: float | np.ndarray


def fixed_point(s, iota: float = 0.0) -> FixedPoint:
    """Fixed point of the variance map and the implied limiting gain.

    Solves nu = (1 - iota)(nu + s)/(nu + s + 1), i.e. the positive root of
    nu^2 + (s + iota)nu - s(1 - iota) = 0, and K = (nu + s)/(nu + s + 1).
    With c = (s + iota)/2, the root of larger magnitude, h + |c| with
    h = hypot(c, sqrt(s(1 - iota))), does not cancel; where c >= 0 the root
    product -s(1 - iota) gives nu from it.  Nothing overflows for finite s.
    For iota = 0 the gain limit equals nu itself.  ``s`` may be an array;
    each of its entries gets the same double as a scalar call would.
    """
    values = np.asarray(s, dtype=float)
    if not np.all((values > 0) & np.isfinite(values)):
        bad = s if values.ndim == 0 else values[~((values > 0) & np.isfinite(values))][0]
        raise InvalidArgumentError(f"s must be positive and finite, got {bad}")
    if not iota < 1:
        raise InvalidArgumentError(f"iota must be below 1, got {iota}")
    c = 0.5 * (values + iota)
    big = np.hypot(c, np.sqrt(values) * math.sqrt(1.0 - iota)) + np.abs(c)
    nu_inf = np.where(c >= 0.0, (1.0 - iota) * (values / big), big)
    k_inf = (nu_inf + values) / (nu_inf + values + 1.0)
    if values.ndim:
        return FixedPoint(s=values, iota=float(iota), nu_inf=nu_inf, k_inf=k_inf)
    return FixedPoint(s=float(s), iota=float(iota), nu_inf=float(nu_inf), k_inf=float(k_inf))


# ---------------------------------------------------------------------------
# innovation expansion coefficients


@dataclass
class CoefficientTable:
    """Coefficients of K_k v_k = sum_i c_i(k) eta_i + d_i(k) eps_i."""

    order: int
    c: np.ndarray
    d: np.ndarray


def exact_coefficients(k: int, gains) -> CoefficientTable:
    """Shock coefficients, defined by the forward recursions

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
    return CoefficientTable(order=k, c=c, d=d)


# ---------------------------------------------------------------------------
# power and size


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
    gains = gain_sequence(np.full(k, s)).gains if mode == "exact" else np.full(k, fixed_point(s).k_inf)
    table = exact_coefficients(k, gains)
    c, d = table.c / table.c[-1], table.d / table.c[-1]
    theta = ndtr(-x / math.sqrt(float(np.sum(c[:-1] ** 2) + np.sum(d**2) / s)))
    return PowerCurve(eta_std=x, theta=theta, k=k, s=float(s), mode=mode)


def size(eta_std, k: int, s: float, mode: str = "exact") -> PowerCurve:
    """False-positive probability for nonnegative shocks.

    The probability of registering a fall given eta_k = x is the same
    Gaussian tail for any x, so the size curve is the power expression
    continued onto x >= 0; by symmetry alpha(x) = 1 - theta(-x), the
    complement of power at the mirrored shock.
    """
    x = np.atleast_1d(np.asarray(eta_std, dtype=float))
    if np.any(x < 0):
        raise InvalidArgumentError("size is defined on nonnegative standardized shocks")
    return power(x, k, s, mode)

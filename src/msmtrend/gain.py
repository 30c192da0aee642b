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
from scipy.stats import norm

from .errors import InvalidArgumentError

__all__ = [
    "GainTrajectory",
    "gain_sequence",
    "FixedPoint",
    "fixed_point",
    "LinearMapStep",
    "linear_map_decomposition",
    "CoefficientTable",
    "exact_coefficients",
    "asymptotic_coefficients",
    "PowerCurve",
    "power",
    "size",
]


@dataclass
class GainTrajectory:
    """Gain and normalized-variance path for a signal-to-noise sequence.

    ``A`` holds the gain history A_k and ``nu_var`` = s_k A_k the normalized
    posterior variances P_{k|k} / sigma_kk^2.
    """

    s: np.ndarray
    gains: np.ndarray
    A: np.ndarray
    nu_var: np.ndarray
    iota: np.ndarray


def gain_sequence(s) -> GainTrajectory:
    """Gains K_1 = 1, K_{k} = s_k (A_{k-1} + 1) / (s_k A_{k-1} + s_k + 1).

    A_k = sum_{d=1..k} prod_{i=d..k} (1 - K_i) accumulates the gain history;
    the recursion reproduces the filter's gains exactly for measurement
    variances sigma_kk^2 = sigma_eta^2 / s_k.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.size < 1:
        raise InvalidArgumentError("need a one-dimensional signal-to-noise sequence")
    if np.any(s <= 0) or not np.all(np.isfinite(s)):
        raise InvalidArgumentError("signal-to-noise ratios must be positive and finite")
    T = s.size
    gains = np.empty(T)
    A = np.empty(T)
    gains[0] = 1.0
    A[0] = 0.0  # A_1 = 1 - K_1
    for k in range(1, T):
        gains[k] = s[k] * (A[k - 1] + 1.0) / (s[k] * A[k - 1] + s[k] + 1.0)
        A[k] = (1.0 - gains[k]) * (A[k - 1] + 1.0)
    iota = 1.0 - s[1:] / s[:-1] if T > 1 else np.empty(0)
    return GainTrajectory(s=s, gains=gains, A=A, nu_var=s * A, iota=iota)


@dataclass(frozen=True)
class FixedPoint:
    s: float
    iota: float
    nu_inf: float
    k_inf: float


def fixed_point(s: float, iota: float = 0.0) -> FixedPoint:
    """Fixed point of the variance map and the implied limiting gain.

    Solves nu = (1 - iota)(nu + s)/(nu + s + 1), i.e. the positive root of
    nu^2 + (s + iota)nu - s(1 - iota) = 0, and K = (nu + s)/(nu + s + 1).
    For iota = 0 the gain limit equals nu itself.
    """
    if not s > 0:
        raise InvalidArgumentError(f"s must be positive, got {s}")
    if not iota < 1:
        raise InvalidArgumentError(f"iota must be below 1, got {iota}")
    c1 = s + iota
    nu_inf = 0.5 * (-c1 + math.sqrt(c1 * c1 + 4.0 * s * (1.0 - iota)))
    k_inf = (nu_inf + s) / (nu_inf + s + 1.0)
    return FixedPoint(s=float(s), iota=float(iota), nu_inf=float(nu_inf), k_inf=float(k_inf))


@dataclass(frozen=True)
class LinearMapStep:
    k: int
    slope: float
    intercept: float
    next_gain: float


def linear_map_decomposition(s, k: int) -> LinearMapStep:
    """Affine step K_{k+1} = m_k K_k + b_k of the gain recursion.

    The gain map K_{k+1} = s(A_k + 1)/(s A_k + s + 1) with
    A_k = (1 - K_k)(A_{k-1} + 1) is differentiable in K_k holding the earlier
    history fixed; the decomposition returned here is its tangent line at the
    realized K_k, whose slope

        m_k = -s_k (A_{k-1} + 1) (1 - K_{k+1})^2

    is the exact derivative dK_{k+1}/dK_k.  By construction the affine step
    reproduces K_{k+1} exactly, and |m_k| < 1 expresses the contraction.
    """
    if k < 2:
        raise InvalidArgumentError(f"k must be >= 2, got {k}")
    s = np.asarray(s, dtype=float)
    if s.size < k + 1:
        raise InvalidArgumentError(f"need s_1..s_{k + 1} to decompose step {k}")
    traj = gain_sequence(s[: k + 1])
    a_prev = traj.A[k - 2]  # A_{k-1}, 0-based index k - 2
    k_next = traj.gains[k]  # K_{k+1}, 0-based index k
    slope = -s[k] * (a_prev + 1.0) * (1.0 - k_next) ** 2
    intercept = k_next - slope * traj.gains[k - 1]
    return LinearMapStep(k=k, slope=float(slope), intercept=float(intercept), next_gain=float(k_next))


# ---------------------------------------------------------------------------
# innovation expansion coefficients


@dataclass
class CoefficientTable:
    """Coefficients of K_k v_k = sum_i c_i(k) eta_i + d_i(k) eps_i."""

    order: int
    c: np.ndarray
    d: np.ndarray
    mode: str
    gains: np.ndarray | None = None
    k_inf: float | None = None


def exact_coefficients(k: int, gains) -> CoefficientTable:
    """Shock coefficients from the forward recursions.

        c_i(j+1) = (-K_{j+1}) (-1 + sum_{s=i..j} c_i(s)),   c_i(i) = K_i
        d_i(j+1) = (-K_{j+1}) sum_{s=i..j} d_i(s),          d_i(i) = K_i

    Linear cost per coefficient, equal to the signed-subset expansion
    (sums of signed products of gains over subsets of {i..k}).
    """
    if k < 2:
        raise InvalidArgumentError(f"order must be >= 2, got {k}")
    gains = np.asarray(gains, dtype=float)
    if gains.size < k:
        raise InvalidArgumentError(f"need {k} gains, got {gains.size}")
    c = np.zeros(k)
    d = np.zeros(k)
    for i in range(1, k + 1):
        kg = gains[i - 1]
        c_run = kg  # running sum of c_i(i..j)
        d_run = kg
        c_cur = kg
        d_cur = kg
        for j in range(i, k):
            c_cur = -gains[j] * (-1.0 + c_run)
            d_cur = -gains[j] * d_run
            c_run += c_cur
            d_run += d_cur
        c[i - 1] = c_cur
        d[i - 1] = d_cur
    return CoefficientTable(order=k, c=c, d=d, mode="exact", gains=gains[:k].copy())


def asymptotic_coefficients(k: int, k_inf: float) -> CoefficientTable:
    """Steady-state coefficients with every gain at its limit.

        c_i(k) = sum_m (-1)^m C(k-i, m) K^{m+1}      = K (1-K)^{k-i}
        d_i(k) = sum_m (-1)^{m+1} C(k-i-1, m) K^{m+2} = -K^2 (1-K)^{k-i-1}, i < k
        d_k(k) = K

    The binomial sums collapse by the binomial theorem; the closed forms are
    used directly since alternating sums of large binomials cancel badly.
    """
    if k < 1:
        raise InvalidArgumentError(f"order must be >= 1, got {k}")
    if not 0.0 < k_inf < 1.0:
        raise InvalidArgumentError(f"limiting gain must be in (0,1), got {k_inf}")
    i = np.arange(1, k + 1)
    c = k_inf * (1.0 - k_inf) ** (k - i)
    d = np.where(i == k, k_inf, -(k_inf**2) * (1.0 - k_inf) ** (k - i - 1.0))
    return CoefficientTable(order=k, c=c, d=d, mode="asymptotic", k_inf=float(k_inf))


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


def _coefficients(k: int, s: float, mode: str) -> CoefficientTable:
    if mode == "exact":
        gains = gain_sequence(np.full(k, s)).gains
        return exact_coefficients(k, gains)
    if mode == "asymptotic":
        return asymptotic_coefficients(k, fixed_point(s).k_inf)
    raise InvalidArgumentError("mode must be 'exact' or 'asymptotic'")


def power(eta_std, k: int, s: float, mode: str = "exact") -> PowerCurve:
    """Probability that the filtered series falls given the shock eta_k.

    Conditions on the exact standardized value eta_k / sigma_eta.  With the
    expansion coefficients c, d and the homoskedastic noise variance 1/s (in
    units of sigma_eta^2), the update K_k v_k given eta_k is Gaussian and

        theta(x) = Phi(-c_k(k) x / sqrt(Vbar)),
        Vbar = sum_{i<k} c_i(k)^2 + (1/s) sum_{i<=k} d_i(k)^2.

    For k = 2 this is the normal CDF with variance 2/s evaluated at -x.  For
    large k (gains at their limit K_inf = (-s + sqrt(s^2 + 4s))/2) the
    innovation variance is (1 + K_inf)/s and

        theta(x) = Phi(-x sqrt(s / (1 + K_inf))).
    """
    if k < 2:
        raise InvalidArgumentError(f"k must be >= 2, got {k}")
    if not s > 0:
        raise InvalidArgumentError(f"s must be positive, got {s}")
    x = np.atleast_1d(np.asarray(eta_std, dtype=float))
    table = _coefficients(k, s, mode)
    vbar = float(np.sum(table.c[:-1] ** 2) + np.sum(table.d**2) / s)
    theta = norm.cdf(-table.c[-1] * x / math.sqrt(vbar))
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

"""Three-state illness-death intensities and interval transition probabilities.

State space: 1 = healthy, 2 = ill, 3 = dead.  Permitted transitions are
1->2, 1->3 and 2->3, so the generator is upper triangular and its interval
transition matrix has a closed form.  Log intensities are linear in
covariates: the 1->2 transition carries a natural cubic spline in age, a
female indicator, their interaction and one free dummy per wave; the two
mortality transitions are linear in age, female and the wave index.

One hazard kernel serves the likelihood, the simulator and
:func:`build_intensity`: :func:`covariate_design` and
:func:`log_intensities` map covariates and parameters to log intensities, and
:func:`transition_entries` maps intensities and interval widths to the
closed-form transition probabilities.  :func:`free_entries_grad` is the one
first derivative of those entries, which the likelihood score and the exact
Hessian both use, and :func:`free_entries_jet` adds the second derivatives
for the Hessian.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import InvalidArgumentError, InvalidSpecError, NumericalError
from .panel import read_json, write_json

__all__ = [
    "Covariates",
    "ModelStructure",
    "HazardParams",
    "IntensityMatrix",
    "spline_basis_matrix",
    "build_intensity",
    "covariate_design",
    "log_intensities",
    "transition_entries",
    "p12_ratio_grad",
    "p12_ratio_hess",
    "free_entries_grad",
    "free_entries_jet",
    "param_layout",
    "load_model_spec",
    "save_model_spec",
]

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Covariates:
    """Individual covariates entering the transition intensities."""

    age: float
    female: int

    def __post_init__(self):
        if not (self.age > 0 and math.isfinite(self.age)):
            raise InvalidArgumentError(f"age must be positive and finite, got {self.age}")
        if self.female not in (0, 1):
            raise InvalidArgumentError(f"female must be 0 or 1, got {self.female}")


def _check_knots(knots) -> np.ndarray:
    knots = np.asarray(knots, dtype=float)
    if knots.ndim != 1 or knots.size < 3:
        raise InvalidSpecError("need at least 3 spline knots")
    if not np.all(np.diff(knots) > 0):
        raise InvalidSpecError(f"knots must be strictly increasing, got {knots.tolist()}")
    return knots


def spline_basis_matrix(ages, knots) -> np.ndarray:
    """Natural cubic spline basis, one row per age.

    For K knots k_1 < ... < k_K the basis has K-1 columns: the identity
    N_1(x) = x followed by the K-2 curvature terms

        N_{j+1}(x) = [d_j(x) - d_{K-1}(x)] / (k_K - k_1)^2,
        d_j(x) = [(x - k_j)_+^3 - (x - k_K)_+^3] / (k_K - k_j),

    which are cubic between the boundary knots, linear outside them and
    have zero second derivative at both boundaries.  The (k_K - k_1)^2
    normalization keeps the curvature columns on the scale of x itself.
    No intercept column; the caller supplies one if needed.
    """
    knots = _check_knots(knots)
    x = np.atleast_1d(np.asarray(ages, dtype=float))
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("ages must be finite")
    K = knots.size
    out = np.empty((x.size, K - 1))
    out[:, 0] = x
    norm = (knots[K - 1] - knots[0]) ** 2

    def trunc_cube(v):
        return np.maximum(v, 0.0) ** 3

    d_last = (trunc_cube(x - knots[K - 2]) - trunc_cube(x - knots[K - 1])) / (
        knots[K - 1] - knots[K - 2]
    )
    for j in range(K - 2):
        d_j = (trunc_cube(x - knots[j]) - trunc_cube(x - knots[K - 1])) / (
            knots[K - 1] - knots[j]
        )
        out[:, j + 1] = (d_j - d_last) / norm
    return out


@dataclass(frozen=True)
class ModelStructure:
    """Fixed structure of the hazard model: knots, wave grid, centering age.

    ``wave_times`` lists the observation times (length T+1 for T intervals).
    Spline covariates enter as basis(age) - basis(ref_age) so that the wave
    dummies are interpretable as log intensities at the reference age; this
    is a pure reparameterization that also conditions the optimization.
    """

    knots: tuple
    wave_times: tuple
    ref_age: float | None = None

    def __post_init__(self):
        _check_knots(self.knots)
        wt = np.asarray(self.wave_times, dtype=float)
        if wt.size < 2 or not np.all(np.diff(wt) > 0):
            raise InvalidSpecError("wave_times must be strictly increasing, length >= 2")
        if self.ref_age is None:
            object.__setattr__(self, "ref_age", float(self.knots[len(self.knots) // 2]))
        object.__setattr__(self, "knots", tuple(float(k) for k in self.knots))
        object.__setattr__(self, "wave_times", tuple(float(t) for t in wt))

    @property
    def n_waves(self) -> int:
        """Number of intervals T (one wave dummy per interval)."""
        return len(self.wave_times) - 1

    @property
    def n_basis(self) -> int:
        return len(self.knots) - 1

    def wave_indices(self, times) -> np.ndarray:
        """1-based interval indices whose left endpoints are ``times``.

        Each time is matched to its nearest wave (the earlier one on a tie);
        the first time in array order that is off the grid, or is the final
        wave and so starts no interval, raises.
        """
        wt = np.asarray(self.wave_times)
        t = np.asarray(times, dtype=float)
        hi = np.minimum(np.searchsorted(wt, t), wt.size - 1)
        lo = np.maximum(hi - 1, 0)
        j = np.where(np.abs(wt[hi] - t) < np.abs(wt[lo] - t), hi, lo)
        off = ~(np.abs(wt[j] - t) <= 1e-9)
        bad = off | (j >= self.n_waves)
        if bad.any():
            k = int(np.argmax(bad))
            if off[k]:
                raise InvalidArgumentError(f"time {t[k]} is not on the wave grid {self.wave_times}")
            raise InvalidArgumentError(f"time {t[k]} is the final wave, no interval starts there")
        return j + 1


def default_structure(ages, wave_times) -> ModelStructure:
    """Structure with knots at the 10th/50th/90th age percentiles."""
    ages = np.asarray(ages, dtype=float)
    knots = np.percentile(ages, [10, 50, 90])
    if not np.all(np.diff(knots) > 0):
        raise InvalidSpecError("age distribution too degenerate for percentile knots")
    return ModelStructure(knots=tuple(knots), wave_times=tuple(wave_times))


@dataclass
class HazardParams:
    """Numeric parameters of the transition model.

    beta              wave dummies for the 1->2 transition (length T); the
                      1->2 baseline is fixed at 1 so the dummies carry the level
    female_12         female main effect on log q12
    age_spline_12     spline weights on age (length K-1)
    age_spline_f_12   spline weights on age x female (length K-1)
    log_q13_0 etc.    baseline log intensity, female, age slope and per-wave
                      linear time slope of the two mortality transitions
    logit_e12/e21     misclassification P{obs 2|true 1}, P{obs 1|true 2} (logits)
    logit_p2          initial distribution P{state 2 at first wave} (logit)
    """

    beta: np.ndarray
    female_12: float = 0.0
    age_spline_12: np.ndarray = field(default_factory=lambda: np.zeros(2))
    age_spline_f_12: np.ndarray = field(default_factory=lambda: np.zeros(2))
    log_q13_0: float = -5.0
    female_13: float = 0.0
    age_13: float = 0.0
    trend_13: float = 0.0
    log_q23_0: float = -4.0
    female_23: float = 0.0
    age_23: float = 0.0
    trend_23: float = 0.0
    logit_e12: float = -12.0
    logit_e21: float = -12.0
    logit_p2: float = -12.0

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        self.age_spline_12 = np.asarray(self.age_spline_12, dtype=float)
        self.age_spline_f_12 = np.asarray(self.age_spline_f_12, dtype=float)

    def validate(self, structure: ModelStructure) -> None:
        if self.beta.shape != (structure.n_waves,):
            raise InvalidSpecError(
                f"beta has length {self.beta.size}, expected {structure.n_waves}"
            )
        nb = structure.n_basis
        if self.age_spline_12.shape != (nb,) or self.age_spline_f_12.shape != (nb,):
            raise InvalidSpecError(f"spline weights must have length {nb}")
        vals = np.concatenate([np.atleast_1d(getattr(self, f.name)) for f in fields(self)])
        if not np.all(np.isfinite(vals)):
            raise NumericalError("non-finite parameter value")


def param_layout(structure: ModelStructure) -> list:
    """(name, length) of each :class:`HazardParams` field in declaration
    order, which is also the order of the flat parameter vector; scalar
    fields have length None."""
    sizes = {"beta": structure.n_waves, "age_spline_12": structure.n_basis,
             "age_spline_f_12": structure.n_basis}
    return [(f.name, sizes.get(f.name)) for f in fields(HazardParams)]


@dataclass(frozen=True)
class IntensityMatrix:
    """Validated 3x3 generator for the illness-death model."""

    matrix: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", q)
        if q.shape != (3, 3):
            raise InvalidSpecError("intensity matrix must be 3x3")
        if not np.all(np.isfinite(q)):
            raise NumericalError("non-finite intensity")
        off = q[~np.eye(3, dtype=bool)]
        if np.any(off < 0):
            raise InvalidSpecError("off-diagonal intensities must be >= 0")
        # tolerance scales with entry size: summing -(a+b), a, b leaves O(eps |q|)
        if np.any(np.abs(q.sum(axis=1)) > ROW_SUM_TOL * max(1.0, float(np.abs(q).max()))):
            raise InvalidSpecError("intensity rows must sum to 0")
        if q[1, 0] != 0.0 or q[2, 0] != 0.0 or q[2, 1] != 0.0:
            raise InvalidSpecError("reverse transitions are not permitted")


def covariate_design(structure: ModelStructure, ages):
    """Spline basis (a trailing axis of length K-1) and age, both centered
    at ``structure.ref_age``."""
    ages = np.asarray(ages, dtype=float)
    basis = spline_basis_matrix(ages.ravel(), structure.knots) - spline_basis_matrix(
        [structure.ref_age], structure.knots
    )
    basis = basis.reshape(ages.shape + (structure.n_basis,))
    return basis, ages - structure.ref_age


def log_intensities(params: HazardParams, wave, female, basis, age_centered):
    """Log intensities (log q12, log q13, log q23) on a covariate design.

    ``wave`` is the 1-based index of the interval's left endpoint; ``female``
    is 0 or 1 and, with the arrays of :func:`covariate_design`, broadcasts.
    """
    lin12 = (
        params.beta[wave - 1]
        + params.female_12 * female
        + basis @ params.age_spline_12
        + (basis @ params.age_spline_f_12) * female
    )
    lin13 = (params.log_q13_0 + params.female_13 * female + params.age_13 * age_centered
             + params.trend_13 * wave)
    lin23 = (params.log_q23_0 + params.female_23 * female + params.age_23 * age_centered
             + params.trend_23 * wave)
    return lin12, lin13, lin23


def build_intensity(
    structure: ModelStructure, params: HazardParams, z: Covariates, wave: int
) -> IntensityMatrix:
    """Generator matrix at covariates ``z`` during interval ``wave`` (1-based)."""
    if not 1 <= wave <= structure.n_waves:
        raise InvalidArgumentError(f"wave must be in 1..{structure.n_waves}, got {wave}")
    params.validate(structure)
    female = np.array([float(z.female)])
    lin12, lin13, lin23 = log_intensities(
        params, np.array([wave], dtype=int), female, *covariate_design(structure, [z.age])
    )
    q12, q13, q23 = math.exp(lin12[0]), math.exp(lin13[0]), math.exp(lin23[0])
    if not all(map(math.isfinite, (q12, q13, q23))):
        raise NumericalError("intensity overflow; check parameter scale")
    q = np.array(
        [
            [-(q12 + q13), q12, q13],
            [0.0, -q23, q23],
            [0.0, 0.0, 0.0],
        ]
    )
    return IntensityMatrix(q)


def _expm1_ratio(x):
    """(e^x - 1)/x, stable for small and zero x."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    nz = x != 0.0
    out[nz] = np.expm1(x[nz]) / x[nz]
    return out


def transition_entries(q12, q13, q23, w):
    """Closed-form entries of exp(wQ) for the triangular generator.

    Eigenvalues are -(q12+q13), -q23 and 0.  The off-diagonal entry

        p12 = q12 (e^{-aw} - e^{-bw}) / (b - a),  a = q12+q13, b = q23,

    is evaluated as q12 * w * e^{-min(a,b)w} * expm1(-|a-b|w)/(-|a-b|w): the
    same closed form rearranged so the degenerate direction a -> b (where the
    naive difference cancels catastrophically) is exact, the a == b limit
    q12 * w * e^{-aw} is taken explicitly, and the expm1 argument is never
    positive, so nothing overflows for any intensity scale.  The exit
    probabilities p23 = -expm1(-bw) and p13 = -expm1(-aw) - p12 keep full
    relative precision at small rates; p13 is floored at 0 against round-off.
    """
    q12 = np.asarray(q12, dtype=float)
    q13 = np.asarray(q13, dtype=float)
    q23 = np.asarray(q23, dtype=float)
    a = q12 + q13
    b = q23
    p11 = np.exp(-a * w)
    p22 = np.exp(-b * w)
    p12 = q12 * w * np.exp(-np.minimum(a, b) * w) * _expm1_ratio(-np.abs(a - b) * w)
    p13 = np.maximum(-np.expm1(-a * w) - p12, 0.0)
    p23 = -np.expm1(-b * w)
    return p11, p12, p13, p22, p23


# Taylor coefficients in (-x)^k, k = 0..19, of m1 and m2 of _moments, one
# column each: s^i s^k/k! integrates to 1/(k!(k+i+1)) over [0, 1]; at x < 1
# the first omitted term is below 1e-19 of the sum
_M12_SERIES = np.array([[1.0 / (math.factorial(k) * (k + i + 1)) for i in (1, 2)]
                        for k in range(20)])[::-1]


def _moments(a, b, w):
    """The p12 kernel e^{-w(a(1-s) + bs)} split at min(a, b): the factor
    e^{-min(a,b) w}, whether the remaining weight e^{-xs}, x = |a-b|w, sits
    on s (a <= b; otherwise on 1 - s), and the moments m_k, the integrals
    of s^k e^{-xs} over s in [0, 1], k = 0, 1, 2.  m0 = -expm1(-x)/x; m1
    and m2 come from one series below x = 1, where the recurrence
    m_k = (k m_{k-1} - e^{-x})/x cancels, and from the recurrence above it
    (taken at x floored at 1, so that the unused branch is finite)."""
    x = np.abs(a - b) * w
    small = x < 1.0
    xl = np.where(small, 1.0, x)
    ex = np.exp(-xl)
    m0 = _expm1_ratio(-x)
    m1 = (m0 - ex) / xl
    # Horner's rule on both columns at once; a leading column axis keeps NumPy's loops long
    table = _M12_SERIES.reshape(_M12_SERIES.shape + (1,) * np.ndim(x))
    series = np.polyval(table, np.where(small, -x, 0.0))
    m1, m2 = np.where(small, series, (m1, (2.0 * m1 - ex) / xl))
    return np.exp(-np.minimum(a, b) * w), a <= b, m0, m1, m2


def _ratio_jet(w, decay, lo, m0, m1, m2):
    """(df/da, df/db) and (d2f/da2, d2f/dadb, d2f/db2) of the f of
    :func:`p12_ratio_grad` from :func:`_moments`.  Where the weight sits on
    s, the integrals against 1 - s, s, (1-s)^2, s(1-s) and s^2 are m0 - m1,
    m1, m0 - 2 m1 + m2, m1 - m2 and m2; elsewhere s and 1 - s swap."""
    g, h = -w * w * decay, w**3 * decay
    ga, gb, haa, hbb = g * (m0 - m1), g * m1, h * (m0 - 2.0 * m1 + m2), h * m2
    return ((np.where(lo, ga, gb), np.where(lo, gb, ga)),
            (np.where(lo, haa, hbb), h * (m1 - m2), np.where(lo, hbb, haa)))


def p12_ratio_grad(a, b, w):
    """Partial derivatives of f = p12/q12 = w * integral of
    e^{-w(a(1-s) + bs)} over s in [0, 1] with respect to a = q12+q13 and
    b = q23: -w^2 times the integrals of 1 - s and s against the kernel,
    which :func:`_moments` splits at min(a, b) so that nothing overflows."""
    return _ratio_jet(w, *_moments(a, b, w))[0]


def p12_ratio_hess(a, b, w):
    """Second partial derivatives (d2f/da2, d2f/dadb, d2f/db2) of the f of
    :func:`p12_ratio_grad`: w^3 times the integrals of (1-s)^2, s(1-s) and
    s^2 against the kernel."""
    return _ratio_jet(w, *_moments(a, b, w))[1]


def free_entries_grad(q12, q13, q23, w):
    """Gradients of the free entries p11, p12 and p22 of
    :func:`transition_entries` with respect to (q12, q13, q23): an array of
    shape (3, 3) + shape indexed [entry, rate], and the :func:`_moments` it
    was built from.  The other two entries follow from
    p13 = -expm1(-aw) - p12 and p23 = -expm1(-bw), a = q12 + q13, b = q23:
    their derivatives are minus those of p11 + p12 and of p22, the
    round-off floor on p13 being treated as inactive.
    """
    a, b = q12 + q13, q23
    moments = decay, _, m0, _, _ = _moments(a, b, w)
    fa, fb = _ratio_jet(w, *moments)[0]
    grad = np.zeros((3, 3) + np.shape(fa))
    # p11 = e^{-aw}, p22 = e^{-bw} and p12 = q12 f(a, b), f = w e^{-min(a,b)w} m0
    grad[0, 0] = grad[0, 1] = -w * np.exp(-a * w)
    grad[1, 1], grad[1, 2] = q12 * fa, q12 * fb
    grad[1, 0] = grad[1, 1] + w * decay * m0
    grad[2, 2] = -w * np.exp(-b * w)
    return grad, moments


def free_entries_jet(q12, q13, q23, w):
    """Gradients and Hessians of p11, p12 and p22 of
    :func:`transition_entries` with respect to (q12, q13, q23).

    Returns the gradient of :func:`free_entries_grad` and an array of shape
    (3, 3, 3) + shape indexed [entry, rate, rate]; the derivatives of p13
    and p23 follow as stated there.
    """
    grad, moments = free_entries_grad(q12, q13, q23, w)
    (fa, fb), (faa, fab, fbb) = _ratio_jet(w, *moments)
    zero = np.zeros_like(faa)
    # d p11 / da = -w p11, so d2 p11 / da2 = -w d p11 / da; likewise p22 in b
    dd11, dd22 = -w * grad[0, 0], -w * grad[2, 2]
    h11 = [[dd11, dd11, zero], [dd11, dd11, zero], [zero, zero, zero]]
    h12 = [[2.0 * fa + q12 * faa, fa + q12 * faa, fb + q12 * fab],
           [fa + q12 * faa, q12 * faa, q12 * fab],
           [fb + q12 * fab, q12 * fab, q12 * fbb]]
    h22 = [[zero, zero, zero], [zero, zero, zero], [zero, zero, dd22]]
    return grad, np.array([h11, h12, h22])


def save_model_spec(path, structure: ModelStructure, params: HazardParams | None = None) -> None:
    """Write the model-spec JSON (structure plus optional parameter values)."""
    doc = {
        "knots": list(structure.knots),
        "wave_times": list(structure.wave_times),
        "ref_age": structure.ref_age,
        "transitions": {
            "1->2": "female + ncs(age) + ncs(age):female, wave dummies; baseline fixed at 1",
            "1->3": "female + age, linear wave trend",
            "2->3": "female + age, linear wave trend",
        },
    }
    if params is not None:
        params.validate(structure)
        doc["params"] = asdict(params)
    write_json(path, doc)


def load_model_spec(path):
    """Read a model-spec JSON; returns (structure, params_or_None)."""
    doc = read_json(path)
    try:
        structure = ModelStructure(
            knots=tuple(doc["knots"]),
            wave_times=tuple(doc["wave_times"]),
            ref_age=doc.get("ref_age"),
        )
    except KeyError as exc:
        raise InvalidSpecError(f"model spec missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidSpecError(f"model spec: {exc}") from exc
    params = None
    if "params" in doc:
        try:
            p = dict(doc["params"])
            params = HazardParams(
                beta=np.asarray(p.pop("beta"), dtype=float),
                age_spline_12=np.asarray(p.pop("age_spline_12"), dtype=float),
                age_spline_f_12=np.asarray(p.pop("age_spline_f_12"), dtype=float),
                **p,
            )
            params.validate(structure)
        except KeyError as exc:
            raise InvalidSpecError(f"model spec params missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InvalidSpecError(f"model spec params: {exc}") from exc
    return structure, params

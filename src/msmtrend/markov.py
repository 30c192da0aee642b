"""Three-state illness-death intensities and interval transition probabilities.

State space: 1 = healthy, 2 = ill, 3 = dead.  Permitted transitions are
1->2, 1->3 and 2->3, so the generator is upper triangular and its interval
transition matrix has a closed form.  Log intensities are linear in
covariates: the 1->2 transition carries a natural cubic spline in age, a
female indicator, their interaction and one free dummy per wave; the two
mortality transitions are linear in age, female and the wave index.

The model is stated once, in :data:`FIELDS`, and :func:`logistic` gives each
probability from its logit.  One hazard kernel serves the likelihood, the
simulator and :func:`build_intensity`: :func:`covariate_design` and
:func:`log_intensities` map covariates and parameters to log intensities, and
:func:`transition_entries` maps intensities and interval widths to the
closed-form transition probabilities.  :func:`free_entries_grad` is the one
first derivative of those entries, which the likelihood score and the exact
Hessian both use, and :func:`free_entries_jet` adds the second derivatives
for the Hessian.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidArgumentError, InvalidSpecError, NumericalError
from .panel import read_json, write_json

__all__ = [
    "Covariates",
    "ModelStructure",
    "HazardParams",
    "FIELDS",
    "IntensityMatrix",
    "spline_basis_matrix",
    "build_intensity",
    "covariate_design",
    "log_intensities",
    "logistic",
    "transition_entries",
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
        # products, not ** 3, which calls libm's pow once per element
        v = np.maximum(v, 0.0)
        return v * v * v

    last = trunc_cube(x - knots[K - 1])
    d_last = (trunc_cube(x - knots[K - 2]) - last) / (knots[K - 1] - knots[K - 2])
    for j in range(K - 2):
        d_j = (trunc_cube(x - knots[j]) - last) / (knots[K - 1] - knots[j])
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


# Step one's model, one entry per HazardParams field in its order: the local
# coordinate that the field moves (log q12, log q13, log q23, then the logits
# of e12, e21 and p2: 0-5), its regressor there (none for logit p2, which only
# the initial factor carries) and whether female multiplies it
FIELDS = {"beta": (0, "dummy", False), "female_12": (0, "one", True),
          "age_spline_12": (0, "basis", False), "age_spline_f_12": (0, "basis", True),
          "log_q13_0": (1, "one", False), "female_13": (1, "one", True),
          "age_13": (1, "age_centered", False), "trend_13": (1, "waves", False),
          "log_q23_0": (2, "one", False), "female_23": (2, "one", True),
          "age_23": (2, "age_centered", False), "trend_23": (2, "waves", False),
          "logit_e12": (3, "one", False), "logit_e21": (4, "one", False),
          "logit_p2": (5, "none", False)}


@dataclass
class HazardParams:
    """Numeric parameters of the transition model (see :data:`FIELDS`).

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
        for name, (_, kind, _) in FIELDS.items():
            if kind in ("dummy", "basis"):
                setattr(self, name, np.asarray(getattr(self, name), dtype=float))

    def validate(self, structure: ModelStructure) -> None:
        for name, size in param_layout(structure):
            value = getattr(self, name)
            if size is None and np.ndim(value) != 0:
                raise InvalidSpecError(f"{name} must be one number, got {value!r}")
            if size is not None and value.shape != (size,):
                raise InvalidSpecError(f"{name} has length {value.size}, expected {size}")
        vals = np.concatenate([np.atleast_1d(getattr(self, name)) for name in FIELDS])
        if not np.all(np.isfinite(vals)):
            raise NumericalError("non-finite parameter value")


def param_layout(structure: ModelStructure) -> list:
    """(name, length) of each field of :data:`FIELDS` in order, which is also
    the order of the flat parameter vector; scalar fields have length None."""
    sizes = {"dummy": structure.n_waves, "basis": structure.n_basis}
    return [(name, sizes.get(kind)) for name, (_, kind, _) in FIELDS.items()]


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
    """Log intensities (log q12, log q13, log q23) on a covariate design:

        log q12 = beta[wave] + female_12 female + basis . age_spline_12
                  + (basis . age_spline_f_12) female
        log q13 = log_q13_0 + female_13 female + age_13 age + trend_13 wave
        log q23 = log_q23_0 + female_23 female + age_23 age + trend_23 wave

    ``wave`` is the 1-based index of the interval's left endpoint; ``female``
    is 0 or 1 and, with the arrays of :func:`covariate_design`, broadcasts.
    """
    terms = {"dummy": lambda v: v[wave - 1], "one": lambda v: v, "basis": lambda v: basis @ v,
             "age_centered": lambda v: v * age_centered, "waves": lambda v: v * wave}
    lins: dict = {}
    for name, (coord, kind, by_female) in FIELDS.items():
        if coord <= 2:
            term = terms[kind](getattr(params, name))
            if by_female:
                term = term * female
            lins[coord] = lins[coord] + term if coord in lins else term
    return lins[0], lins[1], lins[2]


def logistic(x: float) -> float:
    """The probability 1 / (1 + e^-x) of the logit ``x``, a Python float:
    scipy's ``expit`` to the bit, and 0.0 where e^-x overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


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
    return np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)


def transition_entries(q12, q13, q23, w, out=None):
    """Closed-form entries of exp(wQ) for the triangular generator:
    (p11, p12, p13, p22, p23), written into the five arrays of ``out`` when
    it is given.

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
    p11, p12, p13, p22, p23 = (None,) * 5 if out is None else out
    a = q12 + q13
    b = q23
    p11 = np.exp(-a * w, out=p11)
    p22 = np.exp(-b * w, out=p22)
    p12 = np.multiply(q12 * w * np.exp(-np.minimum(a, b) * w), _expm1_ratio(-np.abs(a - b) * w),
                      out=p12)
    p13 = np.maximum(-np.expm1(-a * w) - p12, 0.0, out=p13)
    p23 = np.negative(np.expm1(-b * w), out=p23)
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
    m0 = _expm1_ratio(-x)
    # below x = 1 one series in -x (each temporary is dropped once used: these
    # are the largest arrays of the kernel's derivatives)
    u = np.where(small, -x, 0.0)
    # above it the recurrence
    xl = np.where(small, 1.0, x)
    del x
    ex = np.exp(-xl)
    m1 = m0 - ex
    m1 /= xl
    m2 = 2.0 * m1
    m2 -= ex
    m2 /= xl
    del xl, ex
    # Horner's rule on both columns of the series at once, in place; a
    # leading column axis keeps NumPy's loops long
    table = _M12_SERIES.reshape(_M12_SERIES.shape + (1,) * np.ndim(u))
    series = np.empty(table.shape[1:2] + u.shape)
    series[...] = table[0]
    for coef in table[1:]:
        series *= u
        series += coef
    del u
    np.copyto(series[:1], m1, where=~small)
    np.copyto(series[1:], m2, where=~small)
    del m1, m2
    return np.exp(-np.minimum(a, b) * w), a <= b, m0, series[0], series[1]


def _ratio_grad(w, decay, lo, m0, m1, m2):
    """(df/da, df/db) of f = p12/q12 = w * integral of e^{-w(a(1-s) + bs)}
    over s in [0, 1], a = q12+q13 and b = q23, from :func:`_moments`: -w^2
    times the integrals of 1 - s and s against the kernel.  Where the weight
    sits on s, those are m0 - m1 and m1; elsewhere s and 1 - s swap."""
    g = -w * w * decay
    ga = g * (m0 - m1)
    gb = g * m1
    del g
    return np.where(lo, ga, gb), np.where(lo, gb, ga)


def _ratio_hess(w, decay, lo, m0, m1, m2):
    """(d2f/da2, d2f/dadb, d2f/db2) of the f of :func:`_ratio_grad` from
    :func:`_moments`: w^3 times the integrals of (1-s)^2, s(1-s) and s^2
    against the kernel, m0 - 2 m1 + m2, m1 - m2 and m2 where the weight
    sits on s."""
    h = w * w * w * decay
    haa, hbb = h * (m0 - 2.0 * m1 + m2), h * m2
    return np.where(lo, haa, hbb), h * (m1 - m2), np.where(lo, hbb, haa)


def free_entries_grad(q12, q13, q23, w, out=None):
    """Gradients of the free entries p11, p12 and p22 of
    :func:`transition_entries` with respect to (q12, q13, q23): an array of
    shape (3, 3) + shape indexed [entry, rate], written into ``out`` when it
    is given, and ``(moments, fa, fb)``: the :func:`_moments` it was built
    from and their (df/da, df/db) of :func:`_ratio_grad`.  The other two
    entries follow from p13 = -expm1(-aw) - p12 and p23 = -expm1(-bw),
    a = q12 + q13, b = q23: their derivatives are minus those of p11 + p12
    and of p22, the round-off floor on p13 being treated as inactive.
    """
    a, b = q12 + q13, q23
    grad = np.empty((3, 3) + np.broadcast(a, b, w).shape) if out is None else out
    # p11 = e^{-aw}, p22 = e^{-bw}
    grad[0, 0] = grad[0, 1] = -w * np.exp(-a * w)
    grad[2, 2] = -w * np.exp(-b * w)
    grad[0, 2] = grad[2, 0] = grad[2, 1] = 0.0
    # p12 = q12 f(a, b), f = w e^{-min(a,b)w} m0
    moments = decay, _, m0, _, _ = _moments(a, b, w)
    del a
    fa, fb = _ratio_grad(w, *moments)
    grad[1, 1] = q12 * fa
    grad[1, 2] = q12 * fb
    grad[1, 0] = grad[1, 1] + w * decay * m0
    return grad, (moments, fa, fb)


def free_entries_jet(q12, q13, q23, w, out=None):
    """Gradients and Hessians of p11, p12 and p22 of
    :func:`transition_entries` with respect to (q12, q13, q23).

    Returns the gradient of :func:`free_entries_grad` and an array of shape
    (3, 3, 3) + shape indexed [entry, rate, rate], written into the two
    arrays of ``out`` when it is given; the derivatives of p13 and p23
    follow as stated there.
    """
    grad, (moments, fa, fb) = free_entries_grad(q12, q13, q23, w, None if out is None else out[0])
    faa, fab, fbb = _ratio_hess(w, *moments)
    hess = np.empty((3,) + grad.shape) if out is None else out[1]
    # d p11 / da = -w p11, so d2 p11 / da2 = -w d p11 / da; likewise p22 in b
    hess[0] = hess[2] = 0.0
    hess[0, :2, :2] = -w * grad[0, 0]
    hess[2, 2, 2] = -w * grad[2, 2]
    # p12 = q12 f(a, b)
    h, qaa, qab = hess[1], q12 * faa, q12 * fab
    h[0, 0], h[0, 1], h[0, 2] = 2.0 * fa + qaa, fa + qaa, fb + qab
    h[1, 0], h[1, 1], h[1, 2] = h[0, 1], qaa, qab
    h[2, 0], h[2, 1], h[2, 2] = h[0, 2], qab, q12 * fbb
    return grad, hess


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
            missing = [name for name in FIELDS if name not in p]
            if missing:
                raise InvalidSpecError(f"model spec params missing field {missing[0]!r}")
            params = HazardParams(**p)
            params.validate(structure)
        except (TypeError, ValueError) as exc:
            raise InvalidSpecError(f"model spec params: {exc}") from exc
    return structure, params

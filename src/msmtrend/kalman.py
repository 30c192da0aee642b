"""Random-walk state-space models over an estimated trend series.

The measurement variances are either supplied per wave from the first-stage
sampling covariance ("constrained" mode) or estimated as one free parameter
("free" mode).  Initialization is diffuse and handled exactly: the first
observation (first two for the stochastic-drift variant) is absorbed with
gain one and zero posterior variance and contributes no likelihood term, so
the Gaussian prediction-error likelihood runs over the remaining waves only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import (
    CurvatureError,
    DegenerateVarianceError,
    InvalidArgumentError,
    InvalidSpecError,
    NumericalError,
)
from .numdiff import hessian_covariance, hessian_fd
from .trend import TrendSeries

__all__ = [
    "VARIANTS",
    "FilterModel",
    "FilterOutput",
    "run_filter",
    "fit_filter",
    "FilterFit",
    "Forecast",
    "forecast",
    "bic",
    "DiagnosticsReport",
    "diagnostics",
]

VARIANTS = ("zero_drift", "const_drift", "stoch_drift")
MODES = ("constrained", "free")

LOG2PI = math.log(2.0 * math.pi)
# the profile search: grid points per axis of an n-D profile, and the smallest
# standard deviation (sd ratio in free mode) on the grid
_GRID = {0: 1, 1: 200, 2: 40}
_FLOOR = 1e-8
_LOG_FLOOR = math.log(_FLOOR)
# relative likelihood tolerance of the boundary rule and of a flat profile
_TOL = 1e-7
# the zoom after the grid: points per moving axis a round, and its final half width
_ZOOM, _ZOOM_TOL = 17, 1e-7


@dataclass
class FilterModel:
    """State-space variant plus its parameters.

    zero_drift    beta_k = beta_{k-1} + eta_k
    const_drift   beta_k = beta_{k-1} + nu + eta_k, nu a fixed parameter
    stoch_drift   beta_k = beta_{k-1} + nu_{k-1} + eta_k, nu_k = nu_{k-1} + xi_k;
                  2-dimensional state (beta, nu), transition [[1,1],[0,1]],
                  process covariance diag(sigma_eta^2, sigma_xi^2)
    """

    variant: str = "zero_drift"
    sigma_eta: float = 0.0
    nu: float = 0.0
    sigma_xi: float = 0.0
    mode: str = "constrained"
    sigma_eps: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidSpecError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.mode not in MODES:
            raise InvalidSpecError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.sigma_eta < 0 or self.sigma_xi < 0:
            raise InvalidSpecError("standard deviations must be nonnegative")
        if self.mode == "free" and self.sigma_eps is not None and self.sigma_eps < 0:
            raise InvalidSpecError("sigma_eps must be nonnegative")

    @property
    def n_diffuse(self) -> int:
        return 2 if self.variant == "stoch_drift" else 1

    @property
    def n_params(self) -> int:
        """Count of freely estimated parameters (constrained-mode noise not counted)."""
        return len(self.free_names())

    def free_names(self) -> list:
        names = ["sigma_eta"]
        if self.variant == "const_drift":
            names.append("nu")
        elif self.variant == "stoch_drift":
            names.append("sigma_xi")
        if self.mode == "free":
            names.append("sigma_eps")
        return names


@dataclass
class FilterOutput:
    """Per-wave filter quantities; diffuse steps carry infinite prior variance.

    ``drift_mean`` is the filtered nu per wave and ``final_state_cov`` the
    2x2 covariance of (beta, nu) after the last wave, for every variant.
    """

    prior_mean: np.ndarray
    prior_var: np.ndarray
    innovation: np.ndarray
    innovation_var: np.ndarray
    gain: np.ndarray
    post_mean: np.ndarray
    post_var: np.ndarray
    loglik: float
    n_diffuse: int
    drift_mean: np.ndarray
    final_state_cov: np.ndarray

    @property
    def std_residuals(self) -> np.ndarray:
        """Standardized innovations over the non-diffuse waves."""
        d = self.n_diffuse
        return self.innovation[d:] / np.sqrt(self.innovation_var[d:])


def _meas_var(series_len: int, series_var: np.ndarray | None, model: FilterModel) -> np.ndarray:
    if model.mode == "constrained":
        if series_var is None:
            raise InvalidArgumentError("constrained mode requires per-wave measurement variances")
        var = np.asarray(series_var, dtype=float)
        if var.shape != (series_len,):
            raise InvalidArgumentError("measurement variance length mismatch")
        if np.any(var < 0):
            raise InvalidArgumentError("measurement variances must be nonnegative")
        return var
    if model.sigma_eps is None:
        raise InvalidArgumentError("free mode requires sigma_eps")
    return np.full(series_len, model.sigma_eps**2)


def _as_series(series, meas_var) -> tuple[np.ndarray, np.ndarray | None]:
    """(trend, per-wave variances); ``meas_var`` overrides a TrendSeries' own."""
    if isinstance(series, TrendSeries):
        beta, var = series.beta, series.var_diag
    else:
        beta, var = np.asarray(series, dtype=float), None
    if beta.ndim != 1:
        raise InvalidArgumentError("the trend series must be one-dimensional")
    return beta, var if meas_var is None else np.asarray(meas_var, dtype=float)


def run_filter(series, model: FilterModel, meas_var=None) -> FilterOutput:
    """Run the constrained filter over an estimated trend series.

    ``series`` is a TrendSeries (its diagonal supplies the constrained
    measurement variances) or a plain vector, in which case ``meas_var``
    supplies them.  Free mode ignores both in favor of ``model.sigma_eps``.
    The log likelihood is summed over the waves in order; a wave whose
    innovation variance is not positive, or whose squared innovation overflows, raises.
    """
    beta_hat, series_var = _as_series(series, meas_var)
    T = beta_hat.size
    if T < 2:
        raise InvalidArgumentError("need at least two waves")
    h = _meas_var(T, series_var, model)
    d = model.n_diffuse
    if T <= d:
        raise InvalidArgumentError("stochastic drift needs at least three waves")
    nu = float(model.nu) if model.variant == "const_drift" else 0.0
    out = _recursion(beta_hat, h, *_process_var(model), nu, d)
    loglik = 0.0
    for k, v, F in zip(range(d, T), out.innovation[d:].tolist(), out.innovation_var[d:].tolist()):
        if F <= 0.0:
            raise DegenerateVarianceError(f"innovation variance is {F} at wave {k + 1}")
        try:
            loglik -= 0.5 * (LOG2PI + math.log(F) + v**2 / F)
        except OverflowError:
            raise NumericalError(f"squared innovation {v} overflows a float at wave {k + 1}") from None
    out.loglik = loglik
    return out


def _recursion(y: np.ndarray, h: np.ndarray, q_eta, q_xi, nu, d: int) -> FilterOutput:
    """The filter over the state (beta, nu) with transition [[1, 1], [0, 1]],
    written in arithmetic operators only: floats run one parameter point,
    arrays a batch.  The wave axis of ``y`` and ``h`` comes last; ``q_eta``,
    ``q_xi``, ``nu`` and the leading axes of ``y`` and ``h`` broadcast
    together.  Zero and constant drift (``d`` = 1) hold nu at ``nu`` with no
    nu noise, so its row of the state covariance stays zero; stochastic drift
    (``d`` = 2) starts nu diffuse.  From a wave whose innovation variance F
    is not positive on, a point's values are non-finite.  ``loglik`` is left
    NaN.
    """
    T = h.shape[-1]
    shape = np.broadcast_shapes(np.shape(q_eta), np.shape(q_xi), np.shape(nu), y.shape[:-1],
                                h.shape[:-1]) + (T,)
    prior_mean, innovation, gain, post_mean, post_var, drift_mean = (np.zeros(shape) for _ in range(6))
    prior_var, innovation_var = np.full(shape, math.inf), np.full(shape, math.inf)

    # diffuse steps: gain one, the posterior pinned to the observations
    y0 = y[..., 0]
    prior_mean[..., 0], innovation[..., 0] = nu, y0 - nu
    m0, m1, p00, p01, p11 = y0, nu, 0.0, 0.0, 0.0
    if d == 2:
        # the second observation pins the drift, leaving only the transition
        # noise accumulated between the two waves
        prior_mean[..., 1], innovation[..., 1] = y0, y[..., 1] - y0
        m0, m1, p11 = y[..., 1], y[..., 1] - y0, q_eta + q_xi
    gain[..., :d], post_mean[..., :d], drift_mean[..., d - 1] = 1.0, y[..., :d], m1

    with np.errstate(all="ignore"):
        for k in range(d, T):
            m0, m1, p00, p01, p11 = _predict(m0, m1, p00, p01, p11, q_eta, q_xi)
            v = y[..., k] - m0
            F = p00 + h[..., k]
            prior_mean[..., k], prior_var[..., k], innovation[..., k], innovation_var[..., k] = m0, p00, v, F
            ok = F > 0.0  # dividing by False leaves the gains non-finite where F <= 0
            k0, k1 = p00 / F / ok, p01 / F / ok
            m0, m1 = m0 + k0 * v, m1 + k1 * v
            p11 = p11 - k1 * p01
            p00, p01 = (1.0 - k0) * p00, (1.0 - k0) * p01
            gain[..., k], post_mean[..., k], post_var[..., k], drift_mean[..., k] = k0, m0, p00, m1
    cov = np.empty(shape[:-1] + (2, 2))
    cov[..., 0, 0], cov[..., 0, 1], cov[..., 1, 0], cov[..., 1, 1] = p00, p01, p01, p11
    return FilterOutput(prior_mean, prior_var, innovation, innovation_var, gain, post_mean,
                        post_var, loglik=math.nan, n_diffuse=d, drift_mean=drift_mean,
                        final_state_cov=cov)


def _process_var(model: FilterModel) -> tuple[float, float]:
    """(sigma_eta^2, sigma_xi^2); a known drift carries no noise."""
    q_xi = model.sigma_xi**2 if model.variant == "stoch_drift" else 0.0
    return float(model.sigma_eta**2), float(q_xi)


def _predict(m0, m1, p00, p01, p11, q_eta, q_xi):
    """One transition of the state mean (m0, m1) and covariance
    [[p00, p01], [p01, p11]] under [[1, 1], [0, 1]] plus diag(q_eta, q_xi)."""
    return m0 + m1, m1, p00 + 2.0 * p01 + p11 + q_eta, p01 + p11, p11 + q_xi


# ---------------------------------------------------------------------------
# maximum likelihood over the process parameters


@dataclass
class FilterFit:
    """Fitted filter with confidence intervals and boundary/CI flags."""

    model: FilterModel
    output: FilterOutput
    loglik: float
    ci: dict = field(default_factory=dict)
    boundary: list = field(default_factory=list)
    no_ci: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


def _search(fun, lo: float, hi: float, searched: np.ndarray, shift: bool):
    """Minimize ``fun``, which maps an (m, axes) array of points to m values,
    over the log sds marked in ``searched``, each in [lo, hi], the others
    held at -inf (sd zero); ``shift`` marks ratios to a unit sd that ``fun``
    concentrates out.  A grid of ``_GRID[n]`` points per axis runs as one
    call, then a zoom from its best point on the variances relative to the
    largest, where a variance near zero keeps the slope the log scale
    flattens (under ``shift`` the unit variance joins them and the largest
    stays fixed): rounds of one call over ``_ZOOM`` points per moving axis in
    [w - rho, w + rho] about the best w.  An axis's rho, one grid step at
    first, shrinks by 4 / (``_ZOOM`` - 1), or grows as much when a better
    point is on the box's edge above zero, until all are below ``_ZOOM_TOL``.
    Returns (x, fun(x), whether the grid is flat to ``_TOL``, left unzoomed).
    """
    n = int(searched.sum())
    grid = np.linspace(lo, hi, _GRID[n])
    points = np.full((grid.size**n, searched.size), -math.inf)
    points[:, searched] = list(itertools.product(grid, repeat=n))
    values = fun(points)
    x, f = points[int(np.argmin(values))], float(values.min())
    if n == 0 or values.max() - f <= _TOL * max(1.0, abs(f)):
        return x, f, n > 0
    z = np.append(x[searched], 0.0) if shift else x[searched]
    c = z.max()
    move = np.arange(z.size) != (int(np.argmax(z)) if shift else -1)
    w = np.exp(2.0 * (z - c))
    rho, shrink = np.full(n, math.expm1(2.0 * (grid[1] - grid[0]))), 4.0 / (_ZOOM - 1)
    while rho.max() > _ZOOM_TOL:
        ws = np.tile(w, (_ZOOM**n, 1))
        ws[:, move] = list(itertools.product(
            *(np.linspace(max(1e-16, v - r), v + r, _ZOOM) for v, r in zip(w[move], rho))))
        zs = c + 0.5 * np.log(ws)
        rows = np.tile(x, (len(ws), 1))
        rows[:, searched] = np.clip(zs[:, :n] - zs[:, n:].sum(axis=1, keepdims=True), lo, hi)
        values = fun(rows)
        best = int(np.argmin(values))
        k = np.array(np.unravel_index(best, (_ZOOM,) * n))
        grow = (values[best] < f) & ((k == _ZOOM - 1) | ((k == 0) & (w[move] - rho > 1e-16)))
        if values[best] < f:
            x, f, w = rows[best], float(values[best]), ws[best]
        rho = np.where(grow, rho / shrink, rho * shrink)
    return x, f, False


def _profile(y: np.ndarray, var: np.ndarray, variant: str, free: bool, x: np.ndarray,
             eps: float = 1.0) -> tuple:
    """(log likelihood, nu, sigma_eps^2 scale) for each row of the (m, axes)
    array ``x`` of log sds (-inf is sd zero), in free mode log ratios to
    sigma_eps over unit measurement variances ``var`` unless ``eps`` is 0.
    All rows run as one filter batch, and a row whose innovation variance is
    not positive at some wave gets -inf.  The sds enter as ``math.exp(v) ** 2``,
    as a FilterModel gives them to ``run_filter``."""
    T, d = y.size, 2 if variant == "stoch_drift" else 1
    q = [np.array([math.exp(v) ** 2 for v in col]) for col in x.T]
    q_eta, q_xi = q[0], q[1] if len(q) > 1 else 0.0
    h = var if eps else np.zeros(T)
    with np.errstate(all="ignore"):
        if variant == "const_drift":
            # the filter is linear in (y, nu): v = v0 + nu v1 with one F
            out = _recursion(np.stack([y, np.zeros(T)])[:, None], h, q_eta, q_xi,
                             np.array([[0.0], [1.0]]), d)
            (v, v1), F = out.innovation[..., d:], out.innovation_var[0, :, d:]
            nu = -np.sum(v * v1 / F, axis=-1) / np.sum(v1 * v1 / F, axis=-1)
            v = v + nu[:, None] * v1
        else:
            out = _recursion(y, h, q_eta, q_xi, 0.0, d)
            v, F, nu = out.innovation[:, d:], out.innovation_var[:, d:], np.zeros(len(x))
        bad = np.any(F <= 0.0, axis=-1)
        s2 = np.mean(v * v / F, axis=-1) if free and eps else np.ones(len(x))
        if np.any(s2[~bad] == 0.0):
            raise DegenerateVarianceError("innovations all zero: sigma_eps has no positive ML value")
        sF = s2[:, None] * F
        ll = -0.5 * np.sum(LOG2PI + np.log(sF) + v * v / sF, axis=-1)
    ll[bad] = -math.inf
    return ll, nu, s2


def _normal_quantile(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise InvalidArgumentError(f"level must lie in (0, 1), got {level}")
    # imported here, so that importing the package loads no SciPy
    from scipy.special import ndtri
    return ndtri(0.5 + level / 2.0)


def fit_filter(series, variant: str = "zero_drift", mode: str = "constrained", meas_var=None,
               level: float = 0.90) -> FilterFit:
    """ML estimation of the process parameters by prediction-error decomposition.

    The likelihood is profiled.  A constant drift nu enters the innovations
    linearly and is concentrated out by GLS (de Jong 1991), and in free mode
    sigma_eps^2 is concentrated out of a filter run on the variance ratios
    (Harvey 1989, 3.4).  That leaves log sigma_eta, plus log sigma_xi for
    stochastic drift (ratios to sigma_eps in free mode), searched on a log
    grid from ``_FLOOR`` up to a cap set by the data, then zoomed on the
    variance scale, each round one filter batch.

    A variance is on the zero boundary, reported as 0 with a flag and no
    interval, when the profile's best with it held at zero is within
    ``_TOL`` max(1, |loglik|) of the overall best; the variances are tested
    in ``free_names`` order, earlier boundary ones held at zero.  A profile
    flat over its whole grid flags none.  Intervals come from the full
    likelihood's Hessian over the other parameters, one filter batch over
    its stencil, delta-method normal on the log-sd scale; a numerically
    singular information matrix, or an endpoint beyond the float range,
    suppresses them.
    """
    z = _normal_quantile(level)
    beta_hat, series_var = _as_series(series, meas_var)
    T = beta_hat.size
    if T < 3:
        raise InvalidArgumentError("need at least three waves to estimate parameters")
    free = mode == "free"
    proto = FilterModel(variant=variant, mode=mode)
    axes = ["sigma_eta", "sigma_xi"] if variant == "stoch_drift" else ["sigma_eta"]
    meas = _meas_var(T, series_var, replace(proto, sigma_eps=1.0))
    profile = partial(_profile, beta_hat, meas, variant, free)
    with np.errstate(over="ignore", invalid="ignore"):
        spreads = 100.0 * float(np.std(np.diff(beta_hat))), 10.0 * float(np.std(beta_hat))
    # the search's variances reach the larger one squared, the Hessian's stencil a little more
    if not all(v < 1e150 for v in spreads):
        raise NumericalError(f"the trend's spread {max(spreads):.3g} is beyond 1e150; check its scale")
    # free mode's sigma_eps^2 is a mean squared innovation, below the float
    # range for a trend that varies by less than 1e-150 (whose std underflows)
    span = float(np.ptp(beta_hat))
    if free and 0.0 < span < 1e-150:
        raise NumericalError(f"the trend's range {span:.3g} is below 1e-150, where free mode's "
                             "variances leave the float range; check its scale")
    hi_sd = math.log(max(*spreads, 1e-3))
    hi = -_LOG_FLOOR if free else hi_sd
    x, best, flat = _search(lambda x: -profile(x)[0], _LOG_FLOOR, hi, np.ones(len(axes), bool),
                            free)
    tol = _TOL * max(1.0, abs(best))
    boundary: list = []
    for name in [] if flat else axes + ["sigma_eps"] * free:
        held = boundary + [name]
        eps = 0.0 if name == "sigma_eps" else 1.0  # sigma_eps is tested last
        xs, fi, _ = _search(lambda x: -profile(x, eps)[0], _LOG_FLOOR, hi if eps else hi_sd,
                            np.array([a not in held for a in axes]), free and eps > 0)
        if fi <= best + tol:
            boundary.append(name)
            x, best = xs, min(best, fi)
    eps = float("sigma_eps" not in boundary)
    _, nu, s2 = profile(x[None], eps)
    s = math.sqrt(s2[0])
    model = replace(proto, nu=float(nu[0]), sigma_eps=s * eps if free else None,
                    **{a: s * math.exp(v) for a, v in zip(axes, x)})
    output = run_filter(beta_hat, model, meas_var=series_var)
    if not math.isfinite(output.loglik):
        raise NumericalError(f"log likelihood at the fit is {output.loglik}; check the trend's scale")

    names = [name for name in model.free_names() if name not in boundary]
    x_hat = np.array([getattr(model, n) if n == "nu" else math.log(getattr(model, n)) for n in names])

    def loglik(points) -> np.ndarray:
        """The log likelihood at each row of ``points`` (values of ``names``,
        the rest at the fit's) as one filter batch.  F > 0 there: ``run_filter``
        checked it at the fit, and the stencil's steps are 1e-4 relative."""
        col = dict(zip(names, points.T))

        def var(n):
            return np.array([math.exp(v) ** 2 for v in col[n]]) if n in col else getattr(model, n) ** 2

        h = np.add.outer(var("sigma_eps"), np.zeros(T)) if free else meas
        d = model.n_diffuse
        out = _recursion(beta_hat, h, var("sigma_eta"), var("sigma_xi"), col.get("nu", model.nu), d)
        v, F = out.innovation[:, d:], out.innovation_var[:, d:]
        with np.errstate(all="ignore"):
            return -0.5 * np.sum(LOG2PI + np.log(F) + v**2 / F, axis=-1)

    ci: dict = {}
    no_ci: list = list(boundary)
    warnings: list = []
    if names:
        try:
            cov, cov_warnings = hessian_covariance(hessian_fd(loglik, x_hat))
        except CurvatureError as exc:
            cov_warnings = [str(exc)]
        if cov_warnings:
            warnings.append("zero eigenvalue in the information matrix; intervals suppressed")
            no_ci.extend(names)
        for pos, name in enumerate([] if cov_warnings else names):
            half = z * math.sqrt(max(cov[pos, pos], 0.0))
            lo, up = x_hat[pos] - half, x_hat[pos] + half
            try:
                ci[name] = (lo, up) if name == "nu" else (math.exp(lo), math.exp(up))
            except OverflowError:
                warnings.append(f"{name} interval endpoint overflows a float; interval suppressed")
                no_ci.append(name)

    return FilterFit(model, output, output.loglik, ci, boundary, sorted(set(no_ci)),
                     warnings)


# ---------------------------------------------------------------------------
# forecasting


@dataclass
class Forecast:
    """Multi-step forecast on the log scale with exponentiated point path."""

    horizons: np.ndarray
    mean_log: np.ndarray
    variance: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    mean_hazard_scale: np.ndarray
    level: float


def forecast(output: FilterOutput, model: FilterModel, horizon: int, level: float = 0.90) -> Forecast:
    """Forecast ``horizon`` steps past the last filtered wave by iterating
    the filter's prediction step from its final state."""
    if horizon < 1:
        raise InvalidArgumentError(f"horizon must be >= 1, got {horizon}")
    z = _normal_quantile(level)
    q_eta, q_xi = _process_var(model)
    (p00, p01), (_, p11) = output.final_state_cov.tolist()
    state = (float(output.post_mean[-1]), float(output.drift_mean[-1]), p00, p01, p11)
    mean, var = np.empty(horizon), np.empty(horizon)
    for i in range(horizon):
        state = _predict(*state, q_eta, q_xi)
        mean[i], var[i] = state[0], state[2]

    lower = mean - z * np.sqrt(var)
    upper = mean + z * np.sqrt(var)
    return Forecast(np.arange(1, horizon + 1), mean, var, lower, upper, np.exp(mean), level)


# ---------------------------------------------------------------------------
# diagnostics


def bic(loglik: float, n_params: int, n_waves: int) -> float:
    """Bayesian information criterion, -2 loglik + #params ln T."""
    return -2.0 * loglik + n_params * math.log(n_waves)


@dataclass
class DiagnosticsReport:
    loglik: float
    bic: float
    n_params: int
    ljung_box: float | None
    ljung_box_lags: int
    ljung_box_pvalue: float | None
    bowman_shenton: float | None
    bowman_shenton_pvalue: float | None
    r1: float | None
    r2: float | None
    notes: list = field(default_factory=list)


def _autocorr(x: np.ndarray, lag: int) -> float:
    xc = x - x.mean()
    denom = float(np.sum(xc**2))
    if denom == 0.0:
        return 0.0
    return float(np.sum(xc[lag:] * xc[:-lag]) / denom)


def diagnostics(output: FilterOutput, model: FilterModel, n_waves: int, lags: int = 4) -> DiagnosticsReport:
    """Model-fit report: BIC, Ljung-Box Q(m), Bowman-Shenton, r(1), r(2).

    All residual statistics use the standardized innovations over the
    non-diffuse waves.  With residuals too few for Q(lags) the statistic is
    omitted with a notice rather than extrapolated.
    """
    if lags < 1:
        raise InvalidArgumentError(f"Ljung-Box lags must be >= 1, got {lags}")
    from scipy.special import chdtrc
    notes: list = []
    resid = output.std_residuals
    tp = resid.size
    # a power of two, which is exact, keeps the moments of residuals far from one in range
    top = float(np.max(np.abs(resid), initial=0.0))
    if top > 0.0 and not 2.0**-60 <= top <= 2.0**60:
        resid = np.ldexp(resid, -math.frexp(top)[1])
    value_bic = bic(output.loglik, model.n_params, n_waves)

    r1 = _autocorr(resid, 1) if tp >= 2 else None
    r2 = _autocorr(resid, 2) if tp >= 3 else None

    lb = lb_p = None
    if tp >= lags + 1:
        q = 0.0
        for tau in range(1, lags + 1):
            q += _autocorr(resid, tau) ** 2 / (tp - tau)
        lb = tp * (tp + 2) * q
        lb_p = float(chdtrc(lags, lb))
    else:
        notes.append(f"Ljung-Box Q({lags}) omitted: only {tp} residuals")

    bs = bs_p = None
    if tp >= 3:
        xc = resid - resid.mean()
        m2 = float(np.mean(xc**2))
        if m2 == 0.0:
            bs = 0.0
            bs_p = 1.0
            notes.append("Bowman-Shenton degenerate: residuals have zero variance")
        else:
            skew = float(np.mean(xc**3)) / m2**1.5
            exkurt = float(np.mean(xc**4)) / m2**2 - 3.0
            bs = tp * (skew**2 / 6.0 + exkurt**2 / 24.0)
            bs_p = float(chdtrc(2, bs))
    else:
        notes.append("Bowman-Shenton omitted: too few residuals")

    return DiagnosticsReport(
        loglik=output.loglik,
        bic=value_bic,
        n_params=model.n_params,
        ljung_box=lb,
        ljung_box_lags=lags,
        ljung_box_pvalue=lb_p,
        bowman_shenton=bs,
        bowman_shenton_pvalue=bs_p,
        r1=r1,
        r2=r2,
        notes=notes,
    )

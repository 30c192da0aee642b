"""Hidden-Markov likelihood, maximum-likelihood fit and trend extraction.

The observed panel is modeled as a misclassified snapshot of the latent
illness-death chain.  Individual likelihood contributions are computed by
the forward algorithm over latent states, with per-step rescaling against
underflow; this equals the nested sum over all latent paths.  Standard
errors come from the inverse observed information, estimated by central
finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .errors import (
    CurvatureError,
    DataValidationError,
    InvalidArgumentError,
    InvalidSpecError,
    NumericalError,
)
from .markov import (
    HazardParams,
    ModelStructure,
    covariate_design,
    log_intensities,
    param_layout,
    transition_entries,
)
from .numdiff import gradient_fd, hessian_covariance, hessian_fd
from .panel import Panel, validate_panel
from .trend import TrendSeries

__all__ = [
    "param_names",
    "pack_params",
    "unpack_params",
    "misclassification_matrix",
    "forward_loglik",
    "fit_msm",
    "hessian_fd",
    "hessian_covariance",
    "EstimationResult",
    "TrendSeries",
    "extract_trend",
]

# linear predictors are clipped here during optimization; exp(30) rates are
# already far beyond any feasible region and the clip keeps exps finite
_LIN_CLIP = 30.0


def misclassification_matrix(e12: float, e21: float) -> np.ndarray:
    """Row-stochastic observation matrix E with E[r, s] = P{observed s | true r}.

    Death is reported exactly and never reported for the living, so the only
    free entries are e12 and e21.  The closed interval is allowed: an extreme
    logit visited during optimization saturates to a degenerate but valid row.
    """
    if not (0.0 <= e12 <= 1.0 and 0.0 <= e21 <= 1.0):
        raise InvalidArgumentError("misreporting probabilities must lie in [0, 1]")
    return np.array(
        [[1.0 - e12, e12, 0.0], [e21, 1.0 - e21, 0.0], [0.0, 0.0, 1.0]]
    )


def param_names(structure: ModelStructure) -> list[str]:
    """Fixed parameter ordering used by the flat vector and all reports."""
    names = []
    for name, size in param_layout(structure):
        names += [name] if size is None else [f"{name}_{k}" for k in range(1, size + 1)]
    return names


def pack_params(params: HazardParams, structure: ModelStructure) -> np.ndarray:
    params.validate(structure)
    layout = param_layout(structure)
    return np.concatenate([np.atleast_1d(getattr(params, name)) for name, _ in layout])


def unpack_params(gamma: np.ndarray, structure: ModelStructure) -> HazardParams:
    gamma = np.asarray(gamma, dtype=float)
    layout = param_layout(structure)
    expected = sum(size or 1 for _, size in layout)
    if gamma.size != expected:
        raise InvalidSpecError(f"parameter vector has length {gamma.size}, expected {expected}")
    values, i = {}, 0
    for name, size in layout:
        values[name] = float(gamma[i]) if size is None else gamma[i: i + size]
        i += size or 1
    return HazardParams(**values)


class PanelDesign:
    """Precomputed arrays for fast repeated likelihood evaluation.

    Individuals are padded to the longest observation sequence; ``active``
    masks which (individual, step) cells are real.  Covariates and spline
    bases depend only on data, so they are built once.
    """

    def __init__(self, panel: Panel, structure: ModelStructure, validate: bool = True):
        if validate:
            problems = validate_panel(panel)
            if problems:
                raise DataValidationError("; ".join(problems[:10]))
        p = panel.sort()
        self.structure = structure
        if len(p) == 0:
            raise DataValidationError("panel is empty")
        starts = np.flatnonzero(np.r_[True, p.ids[1:] != p.ids[:-1]])
        counts = np.diff(np.r_[starts, len(p)])
        if not np.any(counts >= 2):
            raise DataValidationError("need at least one individual with two observations")
        self.n = starts.size
        self.n_transitions = int(np.sum(counts - 1))
        mmax = int(counts.max())
        self.n_steps = mmax - 1
        self.counts = counts

        # (individual, observation) cell of every sorted row
        row = np.repeat(np.arange(self.n), counts)
        col = np.arange(len(p)) - np.repeat(starts, counts)
        self.states = np.zeros((self.n, mmax), dtype=np.int64)
        self.states[row, col] = p.states
        self.valid = np.zeros((self.n, mmax), dtype=bool)
        self.valid[row, col] = True
        self.female = p.female[starts].astype(float)
        # rows whose successor belongs to the same individual open a step
        left = np.flatnonzero(col[1:] != 0)
        cell = row[left], col[left]
        self.widths = np.zeros((self.n, self.n_steps))
        self.widths[cell] = p.times[left + 1] - p.times[left]
        self.waves = np.ones((self.n, self.n_steps), dtype=np.int64)
        self.waves[cell] = structure.wave_indices(p.times[left])
        age_left = np.full((self.n, self.n_steps), structure.ref_age)
        age_left[cell] = p.ages[left]
        # step j is real when the individual has an observation j+1
        self.active = self.valid[:, 1:]
        # covariate design at the interval's left endpoint
        self.basis, self.basis_f, self.age_centered = covariate_design(
            structure, age_left, self.female[:, None]
        )
        self.state_idx = np.where(self.valid, self.states - 1, 0)

    def param_scales(self) -> np.ndarray:
        """Typical regressor magnitude per parameter, used to precondition
        the optimizer; dummies, baselines and logits scale at one."""
        st = self.structure
        act = self.active

        def rms(col):
            vals = col[act]
            return max(1.0, float(np.sqrt(np.mean(vals**2))))

        at, i = {}, 0
        for name, size in param_layout(st):
            at[name] = i
            i += size or 1
        scales = np.ones(i)
        for j in range(st.n_basis):
            scales[at["age_spline_12"] + j] = rms(self.basis[:, :, j])
            scales[at["age_spline_f_12"] + j] = rms(self.basis_f[:, :, j])
        age_rms = rms(self.age_centered)
        wave_rms = rms(self.waves.astype(float))
        scales[[at["age_13"], at["age_23"]]] = age_rms
        scales[[at["trend_13"], at["trend_23"]]] = wave_rms
        return scales

    def loglik(self, gamma: np.ndarray) -> float:
        """Total forward-algorithm log likelihood at parameter vector gamma;
        the sum runs in fixed id order."""
        params = unpack_params(gamma, self.structure)
        lin12, lin13, lin23 = log_intensities(
            params, self.waves, self.female[:, None], self.basis, self.basis_f, self.age_centered
        )
        q12 = np.exp(np.clip(lin12, -_LIN_CLIP, _LIN_CLIP))
        q13 = np.exp(np.clip(lin13, -_LIN_CLIP, _LIN_CLIP))
        q23 = np.exp(np.clip(lin23, -_LIN_CLIP, _LIN_CLIP))
        p11, p12, p13, p22, p23 = transition_entries(q12, q13, q23, self.widths)

        emission = misclassification_matrix(
            float(expit(params.logit_e12)), float(expit(params.logit_e21))
        )
        p2 = expit(params.logit_p2)
        init = np.array([1.0 - p2, p2, 0.0])

        alpha = init[None, :] * emission[:, self.state_idx[:, 0]].T
        norm = np.maximum(alpha.sum(axis=1), 1e-300)
        loglik = np.log(norm)
        alpha = alpha / norm[:, None]
        for j in range(self.n_steps):
            # alpha times the upper-triangular transition matrix, death absorbing
            a0, a1, a2 = alpha.T
            step = np.column_stack((
                a0 * p11[:, j],
                a0 * p12[:, j] + a1 * p22[:, j],
                a0 * p13[:, j] + a1 * p23[:, j] + a2,
            ))
            step = step * emission[:, self.state_idx[:, j + 1]].T
            norm = np.maximum(step.sum(axis=1), 1e-300)
            act = self.active[:, j]
            loglik = loglik + np.where(act, np.log(norm), 0.0)
            alpha = np.where(act[:, None], step / norm[:, None], alpha)
        return float(loglik.sum())


def forward_loglik(panel: Panel, structure: ModelStructure, gamma, validate: bool = True) -> float:
    """Log likelihood of the observed panel at parameters ``gamma``.

    ``gamma`` may be a flat vector (see :func:`param_names`) or a
    :class:`HazardParams`.  With ``validate=False`` schema checks are
    skipped and impossible observation sequences return a floor log
    likelihood (about -690 per wave) instead of raising, so exponentiating
    gives them zero mass in law-of-total-probability sums.
    """
    if isinstance(gamma, HazardParams):
        gamma = pack_params(gamma, structure)
    design = PanelDesign(panel, structure, validate=validate)
    return design.loglik(gamma)


# ---------------------------------------------------------------------------
# fitting


@dataclass
class EstimationResult:
    """Maximum-likelihood fit of the multi-state model."""

    names: list
    estimates: np.ndarray
    free: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    n_transitions: int
    cov_free: np.ndarray | None
    warnings: list = field(default_factory=list)

    @property
    def covariance(self) -> np.ndarray:
        """Full-size covariance with zero rows/columns at fixed parameters."""
        p = len(self.names)
        cov = np.zeros((p, p))
        if self.cov_free is not None:
            idx = np.flatnonzero(self.free)
            cov[np.ix_(idx, idx)] = self.cov_free
        return cov

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.maximum(np.diag(self.covariance), 0.0))

    def __getitem__(self, name: str) -> float:
        return float(self.estimates[self.names.index(name)])

    def to_json_dict(self) -> dict:
        return {
            "names": list(self.names),
            "estimate": self.estimates.tolist(),
            "se": self.se.tolist(),
            "free": self.free.astype(bool).tolist(),
            "loglik": self.loglik,
            "converged": self.converged,
            "iterations": self.iterations,
            "n_transitions": self.n_transitions,
            "covariance": self.covariance.tolist(),
            "warnings": list(self.warnings),
        }


def _default_start(design: PanelDesign, structure: ModelStructure) -> np.ndarray:
    """Heuristic start: crude rates for levels, zeros for covariate effects."""
    states = design.states
    active = design.active
    from1 = (states[:, :-1] == 1) & active
    from2 = (states[:, :-1] == 2) & active
    w = design.widths
    py1 = float(np.sum(w[from1])) + 1e-9
    py2 = float(np.sum(w[from2])) + 1e-9
    onset = float(np.sum(from1 & (states[:, 1:] == 2)))
    death1 = float(np.sum(from1 & (states[:, 1:] == 3)))
    death2 = float(np.sum(from2 & (states[:, 1:] == 3)))
    rate12 = max(onset / py1, 1e-5)
    rate13 = max(death1 / py1, 1e-5)
    rate23 = max(death2 / py2, max(death1 / py1, 1e-5) * 2.0)
    share2 = np.clip(np.mean(states[:, 0] == 2), 1e-4, 0.5)

    params = HazardParams(
        beta=np.full(structure.n_waves, np.log(rate12)),
        age_spline_12=np.zeros(structure.n_basis),
        age_spline_f_12=np.zeros(structure.n_basis),
        log_q13_0=float(np.log(rate13)),
        log_q23_0=float(np.log(rate23)),
        logit_e12=float(np.log(0.02 / 0.98)),
        logit_e21=float(np.log(0.10 / 0.90)),
        logit_p2=float(np.log(share2 / (1 - share2))),
    )
    return pack_params(params, structure)


def fit_msm(
    panel: Panel,
    structure: ModelStructure,
    start: np.ndarray | HazardParams | None = None,
    fixed: dict | None = None,
    compute_cov: bool = True,
    maxiter: int = 500,
    validate: bool = True,
) -> EstimationResult:
    """Maximize the misclassified-panel likelihood.

    Quasi-Newton (L-BFGS-B) with a 2-point finite-difference gradient, a
    relative-likelihood stopping rule of 1e-10 and gradient tolerance 1e-6,
    followed by damped Newton polish steps using a finite-difference
    Hessian.  ``fixed`` maps parameter names to frozen values, e.g. to pin
    the misclassification at the identity.  Non-convergence is flagged on
    the result, never raised.  ``validate=False`` skips the schema checks
    of a panel the caller has already passed through :func:`validate_panel`.
    """
    design = PanelDesign(panel, structure, validate=validate)
    names = param_names(structure)
    p = len(names)

    if start is None:
        x_full = _default_start(design, structure)
    elif isinstance(start, HazardParams):
        x_full = pack_params(start, structure)
    else:
        x_full = np.asarray(start, dtype=float).copy()
        if x_full.size != p:
            raise InvalidArgumentError(f"start vector must have length {p}")

    free = np.ones(p, dtype=bool)
    if fixed:
        for name, value in fixed.items():
            if name not in names:
                raise InvalidArgumentError(f"unknown parameter {name!r}")
            k = names.index(name)
            free[k] = False
            x_full[k] = float(value)
    idx_free = np.flatnonzero(free)
    if idx_free.size == 0:
        raise InvalidArgumentError("no free parameters")

    # optimize z = scale * gamma so every coordinate moves the likelihood at
    # a comparable rate; covariate columns with large typical magnitude would
    # otherwise give the surface a hopeless condition number
    scale = design.param_scales()[idx_free]

    def nll(z_free: np.ndarray) -> float:
        x = x_full.copy()
        x[idx_free] = z_free / scale
        value = design.loglik(x)
        if not np.isfinite(value):
            return 1e12
        return -value

    # generous box: log rates and logits beyond +-60 are numerically
    # indistinguishable from the boundary (e.g. a wave with no observed
    # events drives its dummy to -inf); the box stops runaway iterations
    res = minimize(
        nll,
        x_full[idx_free] * scale,
        method="L-BFGS-B",
        jac="2-point",
        bounds=[(-60.0, 60.0)] * idx_free.size,
        options={"maxiter": maxiter, "maxfun": 100 * maxiter, "ftol": 1e-10, "gtol": 1e-6},
    )
    z_free = res.x.copy()
    iterations = int(res.nit)
    converged = bool(res.success)
    warnings: list[str] = []

    H_nll = hessian_fd(nll, z_free)

    # a few damped Newton steps sharpen the optimum well past what
    # finite-difference L-BFGS-B can resolve
    z_start = z_free.copy()
    for _ in range(3):
        g = gradient_fd(nll, z_free, step=1e-6)
        if np.max(np.abs(g)) < 1e-9 * max(1.0, abs(res.fun)):
            break
        try:
            delta = np.linalg.solve(H_nll, g)
        except np.linalg.LinAlgError:
            break
        f_cur = nll(z_free)
        damp = 1.0
        for _ in range(6):
            cand = z_free - damp * delta
            if nll(cand) < f_cur:
                z_free = cand
                break
            damp *= 0.5
        else:
            break
    moved = z_free - z_start

    x_hat = x_full.copy()
    x_hat[idx_free] = z_free / scale
    loglik_hat = design.loglik(x_hat)

    cov_free = None
    if compute_cov:
        # Hessian in the scaled coordinates (well conditioned), mapped back
        # to the natural parameterization: cov_gamma = S^{-1} cov_z S^{-1}
        try:
            # refresh the Hessian only if polish moved the optimum by a
            # non-negligible fraction of a standard error
            diag_cov = np.diag(np.linalg.pinv(H_nll, hermitian=True))
            tol_move = 0.05 * np.sqrt(np.maximum(np.abs(diag_cov), 1e-300))
            if np.any(np.abs(moved) > tol_move):
                H_nll = hessian_fd(nll, z_free)
            cov_z, cov_warnings = hessian_covariance(-H_nll)
            cov_free = cov_z / np.outer(scale, scale)
            warnings.extend(cov_warnings)
        except CurvatureError as exc:
            warnings.append(str(exc))
            converged = False

    if not res.success:
        warnings.append(f"optimizer message: {res.message}")

    return EstimationResult(
        names=names,
        estimates=x_hat,
        free=free,
        loglik=float(loglik_hat),
        converged=converged,
        iterations=iterations,
        n_transitions=design.n_transitions,
        cov_free=cov_free,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# trend series


def extract_trend(result: EstimationResult, structure: ModelStructure) -> TrendSeries:
    """Slice the wave-dummy block and its covariance out of a fit."""
    if not result.converged:
        raise NumericalError("cannot extract trend from a non-converged fit")
    if result.cov_free is None:
        raise NumericalError("fit was run without covariance computation")
    T = structure.n_waves
    idx = [result.names.index(f"beta_{k}") for k in range(1, T + 1)]
    if not np.all(result.free[idx]):
        raise InvalidArgumentError("wave dummies must be free to extract a trend")
    cov = result.covariance
    return TrendSeries(
        beta=result.estimates[idx],
        cov=cov[np.ix_(idx, idx)],
        n_transitions=result.n_transitions,
    )

"""Reference implementations the tests judge the package against.

The package computes the panel quantities on whole arrays; the loops here
restate them one individual at a time.  The filter references are the
separate level-only and 2x2-matrix recursions that the package's one
level-plus-drift loop replaced.  The gain references (variance map,
contraction margin, brute-force coefficient expansion, Monte-Carlo power)
are written apart from the closed forms they check.  The Monte-Carlo
critical-value reference draws one functional per call, one replication at a
time, as the package did before it drew both from blocks of paths.  The CSV
reference formats one cell at a time, as the package did before its writer
formatted each distinct value once.  The simulator's uniforms come from one
``default_rng([seed, id])`` per individual, as the package drew them before it
read one stream, and ``legacy_panel`` builds those panels through the
simulator's private seam.  The central-difference Jacobian of the
score is the judge of the exact Hessian that replaced it in the fit, and
``forward_loglik`` builds a design for each likelihood it is asked for.  The
adjoint score and the per-field parameter scales are the step-one code that
one backward recursion and one design map replaced; the adjoint's pullback
through the transition entries, ``transition_entries_vjp``, is the
vector-Jacobian product that ``markov.free_entries_grad`` replaced.  The
scalar transition matrix and its wrapper restate the closed form for one
generator at a time.  ``peak_bytes`` is the one memory probe of the tests
that bound a peak.  ``hessian_fd`` calls its function once per stencil
point, as the package did before it evaluated the stencil as one batch, and
``run_filter_loglik`` is the scalar filter's likelihood that the filter fit's
interval Hessian differenced then.  ``asymptotic_coefficients`` is the
steady-state coefficient table, which only the tests ask for by name.
"""

import math
import tracemalloc
from itertools import combinations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from msmtrend.errors import InvalidArgumentError, InvalidSpecError, NumericalError
from msmtrend.estimator import _LIN_CLIP, PanelDesign, pack_params
from msmtrend.gain import CoefficientTable, exact_coefficients, gain_sequence
from msmtrend.kalman import run_filter
from msmtrend.markov import (
    ROW_SUM_TOL,
    Covariates,
    HazardParams,
    IntensityMatrix,
    _expm1_ratio,
    build_intensity,
    log_intensities,
    p12_ratio_grad,
    param_layout,
    transition_entries,
)
from msmtrend.simulate import _panel_from_uniforms


def format_number(x) -> str:
    """Integers as digits, floats as the shortest decimal that round-trips
    to the same double."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def csv_text(columns: dict) -> str:
    """The CSV table of named columns, built row by row and cell by cell."""
    text = ",".join(columns) + "\n"
    for row in zip(*columns.values()):
        text += ",".join(format_number(x) for x in row) + "\n"
    return text


def peak_bytes(fn, *args) -> int:
    """The peak of the memory that tracemalloc sees allocated while
    ``fn(*args)`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def individual_uniforms(seed: int, ident: int, n_waves: int) -> np.ndarray:
    """Fixed-budget uniform draws for one individual.

    Layout: [age, female, initial state, path (3 per interval), report (one
    per wave)].
    """
    rng = np.random.default_rng([seed, ident])
    return rng.random(3 + 3 * n_waves + (n_waves + 1))


def legacy_panel(config):
    """The panel as the simulator drew it before it read one stream: individual
    i's uniforms from its own ``default_rng([seed, i])``.

    Tests whose panel was chosen for a property of its seed's draws (a fit
    that crawled, a wave without events, a fixed digest) keep that panel.
    """
    u = np.array([individual_uniforms(config.seed, ident, config.structure.n_waves)
                  for ident in range(config.n)])
    return _panel_from_uniforms(config, u)


def individual_slices(panel):
    """Yield (id, slice) pairs of a panel sorted by id."""
    ids = panel.ids
    if ids.size == 0:
        return
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    ends = np.r_[starts[1:], ids.size]
    for s, e in zip(starts, ends):
        yield int(ids[s]), slice(int(s), int(e))


def simulate_individual_path(structure, params, age0, female, u, state0=1):
    """Latent state at each wave time for one individual.

    ``u`` supplies the path uniforms (3 per interval).  Within interval k the
    intensities are evaluated at the interval's left endpoint (age advances
    deterministically with the wave clock) and the exit time from the current
    state is an exponential clock; a second clock covers an onward 2->3 move
    within the same interval.
    """
    T = structure.n_waves
    wt = structure.wave_times
    states = np.empty(T + 1, dtype=np.int64)
    states[0] = state0
    state = state0
    for k in range(1, T + 1):
        if state == 3:
            states[k] = 3
            continue
        t_left = wt[k - 1]
        width = wt[k] - wt[k - 1]
        q = build_intensity(structure, params, Covariates(age0 + t_left, female), k)
        q12, q13, q23 = rates(q)
        u1, u2, u3 = u[3 * (k - 1): 3 * k]
        if state == 1:
            total = q12 + q13
            t_event = math.inf if total == 0.0 else -math.log(1.0 - u1) / total
            if t_event >= width:
                states[k] = 1
                continue
            if u2 < q12 / total:
                # onset within the interval; may still die before the next wave
                remaining = width - t_event
                t_death = math.inf if q23 == 0.0 else -math.log(1.0 - u3) / q23
                state = 3 if t_death < remaining else 2
            else:
                state = 3
        else:  # state == 2
            t_death = math.inf if q23 == 0.0 else -math.log(1.0 - u1) / q23
            if t_death < width:
                state = 3
        states[k] = state
    return states


def apply_observation_scheme(latent, e12, e21, u):
    """Misreport latent states 1 and 2; death is observed exactly."""
    observed = latent.copy()
    flip1 = (latent == 1) & (u[: latent.size] < e12)
    flip2 = (latent == 2) & (u[: latent.size] < e21)
    observed[flip1] = 2
    observed[flip2] = 1
    return observed


def crude_incidence_rate(panel) -> float:
    """Observed 1->2 events per person-year of state-1 exposure."""
    p = panel.sort()
    events = 0
    person_years = 0.0
    for _id, sl in individual_slices(p):
        s = p.states[sl]
        t = p.times[sl]
        for j in range(s.size - 1):
            if s[j] == 1:
                person_years += t[j + 1] - t[j]
                if s[j + 1] == 2:
                    events += 1
    if person_years == 0.0:
        raise InvalidArgumentError("no state-1 exposure in panel")
    return events / person_years


def validate_panel(panel) -> list:
    """Schema diagnostics with one pass per individual for the sequence checks."""
    problems = []
    p = panel.sort()
    if len(p) == 0:
        return ["panel is empty"]
    for idx in np.flatnonzero(~(np.isfinite(p.times) & np.isfinite(p.ages))):
        problems.append(f"row {idx + 2}: non-finite time or age")
    for idx in np.flatnonzero(~np.isin(p.states, (1, 2, 3))):
        problems.append(f"row {idx + 2}: state {p.states[idx]} outside {{1,2,3}}")
    for idx in np.flatnonzero(~np.isin(p.female, (0, 1))):
        problems.append(f"row {idx + 2}: female {p.female[idx]} outside {{0,1}}")
    for idx in np.flatnonzero(p.ages <= 0):
        problems.append(f"row {idx + 2}: age {p.ages[idx]} must be positive")
    for _id, sl in individual_slices(p):
        t = p.times[sl]
        s = p.states[sl]
        if s[0] == 3:
            problems.append(f"row {sl.start + 2}: id {_id} is dead at its first observation")
        if np.any(np.diff(t) <= 0):
            j = int(np.flatnonzero(np.diff(t) <= 0)[0])
            problems.append(f"row {sl.start + j + 3}: times not strictly increasing for id {_id}")
        dead = np.flatnonzero(s == 3)
        if dead.size and dead[0] < s.size - 1:
            problems.append(
                f"row {sl.start + int(dead[0]) + 3}: id {_id} has observations after death"
            )
    return problems


def design_cells(panel, structure):
    """Padded (states, valid, widths, waves, left-endpoint ages, female),
    filled one individual and one step at a time."""
    p = panel.sort()
    slices = list(individual_slices(p))
    n = len(slices)
    mmax = max(sl.stop - sl.start for _, sl in slices)
    states = np.zeros((n, mmax), dtype=np.int64)
    valid = np.zeros((n, mmax), dtype=bool)
    widths = np.zeros((n, mmax - 1))
    waves = np.ones((n, mmax - 1), dtype=np.int64)
    age_left = np.full((n, mmax - 1), structure.ref_age)
    female = np.zeros(n)
    for row, (_id, sl) in enumerate(slices):
        m = sl.stop - sl.start
        t = p.times[sl]
        states[row, :m] = p.states[sl]
        valid[row, :m] = True
        female[row] = p.female[sl][0]
        for j in range(m - 1):
            widths[row, j] = t[j + 1] - t[j]
            waves[row, j] = structure.wave_indices([t[j]])[0]
            age_left[row, j] = p.ages[sl][j]
    return states, valid, widths, waves, age_left, female


def forward_loglik(panel, structure, gamma, validate: bool = True) -> float:
    """Log likelihood of the observed panel at parameters ``gamma``.

    ``gamma`` may be a flat vector (see ``estimator.param_names``) or a
    :class:`HazardParams`.  With ``validate=False`` schema checks are
    skipped and an impossible observation sequence gives a log likelihood
    of -inf instead of raising, which is exactly zero mass in
    law-of-total-probability sums.
    """
    if isinstance(gamma, HazardParams):
        gamma = pack_params(gamma, structure)
    return PanelDesign(panel, structure, validate=validate).loglik(gamma)


def jacobian_fd(fun, x, step: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian J[i, k] = d fun_i / d x_k of a vector
    function, with per-coordinate relative steps; 2n evaluations for n
    coordinates.  Applied to a gradient it gives the Hessian with truncation
    error O(step^2), and its round-off grows only like 1/step, not 1/step^2
    as in ``numdiff.hessian_fd``.
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(x.size):
        h = step * max(1.0, abs(x[k]))
        xp = x.copy(); xp[k] += h
        xm = x.copy(); xm[k] -= h
        cols.append((np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2 * h))
    return np.column_stack(cols)


def hessian_fd(fun, x) -> np.ndarray:
    """Central-difference Hessian of a scalar function at relative step 1e-4
    per coordinate, one call of ``fun`` per point of the 2n^2 + 1-point
    stencil, as ``numdiff.hessian_fd`` took it before it evaluated the
    stencil as one batch."""
    x = np.asarray(x, dtype=float)
    n = x.size
    steps = 1e-4 * np.maximum(1.0, np.abs(x))
    H = np.empty((n, n))
    f0 = fun(x)
    for i in range(n):
        hi = steps[i]
        xp = x.copy(); xp[i] += hi
        xm = x.copy(); xm[i] -= hi
        H[i, i] = (fun(xp) - 2 * f0 + fun(xm)) / hi**2
    for i in range(n):
        for j in range(i + 1, n):
            hi, hj = steps[i], steps[j]
            xpp = x.copy(); xpp[i] += hi; xpp[j] += hj
            xpm = x.copy(); xpm[i] += hi; xpm[j] -= hj
            xmp = x.copy(); xmp[i] -= hi; xmp[j] += hj
            xmm = x.copy(); xmm[i] -= hi; xmm[j] -= hj
            H[i, j] = H[j, i] = (fun(xpp) - fun(xpm) - fun(xmp) + fun(xmm)) / (4 * hi * hj)
    return H


# ---------------------------------------------------------------------------
# step one: one generator at a time, the adjoint score, per-field scales


def rates(Q: IntensityMatrix) -> tuple:
    """The three free intensities (q12, q13, q23) of a generator."""
    return float(Q.matrix[0, 1]), float(Q.matrix[0, 2]), float(Q.matrix[1, 2])


@dataclass(frozen=True)
class TransitionMatrix:
    """Validated 3x3 interval transition probability matrix."""

    matrix: np.ndarray
    width: float

    def __post_init__(self):
        p = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", p)
        if p.shape != (3, 3):
            raise InvalidSpecError("transition matrix must be 3x3")
        if np.any(p < -ROW_SUM_TOL) or np.any(p > 1 + ROW_SUM_TOL):
            raise NumericalError("transition probabilities outside [0, 1]")
        if np.any(np.abs(p.sum(axis=1) - 1.0) > ROW_SUM_TOL):
            raise NumericalError("transition rows must sum to 1")
        if p[1, 0] != 0.0 or p[2, 0] != 0.0 or p[2, 1] != 0.0 or p[2, 2] != 1.0:
            raise NumericalError("triangular structure violated")


def transition_probability(Q: IntensityMatrix, w: float) -> TransitionMatrix:
    """Interval transition matrix P = exp(wQ) over an interval of width ``w``."""
    if not (w > 0 and math.isfinite(w)):
        raise InvalidArgumentError(f"interval width must be positive, got {w}")
    p11, p12, p13, p22, p23 = transition_entries(*rates(Q), float(w))
    p = np.array(
        [
            [float(p11), float(p12), float(p13)],
            [0.0, float(p22), float(p23)],
            [0.0, 0.0, 1.0],
        ]
    )
    # clip roundoff at the domain edge, never more than a few ulp
    p[0] = np.clip(p[0], 0.0, 1.0)
    p[0, 0] = 1.0 - p[0, 1] - p[0, 2]
    return TransitionMatrix(p, float(w))


def transition_entries_vjp(q12, q13, q23, w, bars):
    """Pull adjoints back through :func:`transition_entries`.

    ``bars`` holds the adjoints (derivatives of some scalar) of the five
    entries (p11, p12, p13, p22, p23); returns the adjoints of (q12, q13,
    q23).  The round-off floor on p13 is treated as inactive.
    """
    p11b, p12b, p13b, p22b, p23b = bars
    q12 = np.asarray(q12, dtype=float)
    a = q12 + q13
    b = np.asarray(q23, dtype=float)
    f = w * np.exp(-np.minimum(a, b) * w) * _expm1_ratio(-np.abs(a - b) * w)
    fa, fb = p12_ratio_grad(a, b, w)
    # p12 = q12 f(a, b) enters p13 = -expm1(-aw) - p12 with a minus sign;
    # d(-expm1(-aw))/da = w p11 = -dp11/da
    c12 = p12b - p13b
    abar = w * np.exp(-a * w) * (p13b - p11b) + c12 * q12 * fa
    q23b = w * np.exp(-b * w) * (p23b - p22b) + c12 * q12 * fb
    return abar + c12 * f, abar, q23b


def score_adjoint(design: PanelDesign, gamma) -> tuple:
    """Log likelihood and per-individual scores by the exact adjoint of the
    rescaled forward recursion, its own backward recursion over the
    normalised forward variables, contracted field by field with the
    design; the conventions of ``PanelDesign.loglik_and_score``."""
    tape: dict = {}
    loglik = float(design._forward(gamma, tape).sum())
    n, steps = design.n, design.n_steps
    p11, p12, p13, p22, p23 = tape["entries"]
    alphas, obs, raws = tape["alpha"], tape["obs"], tape["raw"]

    def step_adjoint(abar, k):
        # adjoint of the unnormalised step k from that of its normalised
        # result and of its log-normaliser term
        g = abar - np.sum(abar * alphas[k], axis=1, keepdims=True) + 1.0
        return g / raws[k][:, None]

    # padded cells are identity steps of the tape and pass the adjoint through
    bars = np.zeros((5, n, steps))
    gs = np.empty((steps + 1, n, 3))
    abar = np.zeros((n, 3))
    for j in range(steps - 1, -1, -1):
        gs[j + 1] = g = step_adjoint(abar, j + 1)
        pb = g * obs[j + 1]
        a0, a1 = alphas[j][:, 0], alphas[j][:, 1]
        bars[:, :, j] = a0 * pb[:, 0], a0 * pb[:, 1], a0 * pb[:, 2], a1 * pb[:, 1], a1 * pb[:, 2]
        abar = np.column_stack((
            p11[:, j] * pb[:, 0] + p12[:, j] * pb[:, 1] + p13[:, j] * pb[:, 2],
            p22[:, j] * pb[:, 1] + p23[:, j] * pb[:, 2],
            pb[:, 2],
        ))
    gs[0] = step_adjoint(abar, 0)
    # adjoint of each emission factor E[s, o_j]: g_j(s) times the
    # predicted probability (the initial distribution at j = 0)
    d_obs = gs * tape["pred"]
    # d E[0, o] / d e12 for observed o = 1, 2, 3 and the padded code; d E[1, o] / d e21
    # is its negative
    sign = np.array([-1.0, 1.0, 0.0, 0.0])[design.state_idx.T]
    d_e12 = np.sum(d_obs[:, :, 0] * sign, axis=0)
    d_e21 = -np.sum(d_obs[:, :, 1] * sign, axis=0)
    d_p2 = gs[0][:, 1] * obs[0][:, 1] - gs[0][:, 0] * obs[0][:, 0]

    q12, q13, q23 = tape["rates"]
    qbars = transition_entries_vjp(q12, q13, q23, design.widths, bars)
    params = tape["params"]
    lins = log_intensities(params, design.waves, design.female[:, None], design.basis,
                           design.age_centered)
    # d exp(clip(lin)) / d lin = q inside the clip, 0 outside
    l12, l13, l23 = (qb * q * (np.abs(lin) < _LIN_CLIP)
                     for qb, q, lin in zip(qbars, tape["rates"], lins))
    T = design.structure.n_waves
    cell = np.arange(n)[:, None] * T + design.waves - 1
    fem = design.female
    e12, e21, p2 = expit([params.logit_e12, params.logit_e21, params.logit_p2])
    cols = {
        "beta": np.bincount(cell.ravel(), l12.ravel(), minlength=n * T).reshape(n, T),
        "female_12": fem * l12.sum(axis=1),
        "age_spline_12": np.einsum("ij,ijk->ik", l12, design.basis),
        "age_spline_f_12": fem[:, None] * np.einsum("ij,ijk->ik", l12, design.basis),
        "logit_e12": d_e12 * e12 * (1.0 - e12),
        "logit_e21": d_e21 * e21 * (1.0 - e21),
        "logit_p2": d_p2 * p2 * (1.0 - p2),
    }
    for k, lin in (("13", l13), ("23", l23)):
        total = lin.sum(axis=1)
        cols[f"log_q{k}_0"] = total
        cols[f"female_{k}"] = fem * total
        cols[f"age_{k}"] = np.sum(lin * design.age_centered, axis=1)
        cols[f"trend_{k}"] = np.sum(lin * design.waves, axis=1)
    return loglik, np.column_stack([cols[name] for name, _ in param_layout(design.structure)])


def param_scales_by_field(design: PanelDesign) -> np.ndarray:
    """Root mean square of each covariate over the active steps, floored at
    one, written out field by field; dummies, baselines and logits scale at
    one."""
    st, act = design.structure, design.active

    def rms(col):
        vals = col[act]
        return max(1.0, float(np.sqrt(np.mean(vals**2))))

    at, i = {}, 0
    for name, size in param_layout(st):
        at[name] = i
        i += size or 1
    scales = np.ones(i)
    for j in range(st.n_basis):
        scales[at["age_spline_12"] + j] = rms(design.basis[:, :, j])
        scales[at["age_spline_f_12"] + j] = rms(design.basis[:, :, j] * design.female[:, None])
    scales[[at["age_13"], at["age_23"]]] = rms(design.age_centered)
    scales[[at["trend_13"], at["trend_23"]]] = rms(design.waves.astype(float))
    return scales


# ---------------------------------------------------------------------------
# step two: the filter as two separate recursions and a closed-form forecast


def filter_scalar(y, h, sigma_eta, drift=0.0):
    """Level-only filter (zero or constant drift) with one diffuse step.

    Returns a dict of the per-wave arrays plus ``loglik``.
    """
    T = y.size
    q = sigma_eta**2

    prior_mean = np.zeros(T)
    prior_var = np.zeros(T)
    innovation = np.zeros(T)
    innovation_var = np.zeros(T)
    gain = np.zeros(T)
    post_mean = np.zeros(T)
    post_var = np.zeros(T)

    prior_mean[0] = drift
    prior_var[0] = np.inf
    innovation[0] = y[0] - prior_mean[0]
    innovation_var[0] = np.inf
    gain[0] = 1.0
    post_mean[0] = y[0]
    post_var[0] = 0.0

    loglik = 0.0
    for k in range(1, T):
        prior_mean[k] = post_mean[k - 1] + drift
        prior_var[k] = post_var[k - 1] + q
        innovation[k] = y[k] - prior_mean[k]
        F = prior_var[k] + h[k]
        innovation_var[k] = F
        gain[k] = prior_var[k] / F
        post_mean[k] = prior_mean[k] + gain[k] * innovation[k]
        post_var[k] = (1.0 - gain[k]) * prior_var[k]
        loglik -= 0.5 * (math.log(2.0 * math.pi) + math.log(F) + innovation[k] ** 2 / F)

    return dict(prior_mean=prior_mean, prior_var=prior_var, innovation=innovation,
                innovation_var=innovation_var, gain=gain, post_mean=post_mean,
                post_var=post_var, loglik=float(loglik))


def filter_2state(y, h, sigma_eta, sigma_xi):
    """Level-plus-drift filter (stochastic drift) on 2x2 matrices, with two
    diffuse steps that pin (beta, nu) to the first two observations."""
    T = y.size
    q = np.diag([sigma_eta**2, sigma_xi**2])
    trans = np.array([[1.0, 1.0], [0.0, 1.0]])

    prior_mean = np.zeros(T)
    prior_var = np.full(T, np.inf)
    innovation = np.zeros(T)
    innovation_var = np.full(T, np.inf)
    gain = np.zeros(T)
    post_mean = np.zeros(T)
    post_var = np.zeros(T)
    drift_mean = np.zeros(T)

    innovation[0] = y[0]
    gain[0] = 1.0
    post_mean[0] = y[0]
    post_var[0] = 0.0

    m = np.array([y[1], y[1] - y[0]])
    P = np.array([[0.0, 0.0], [0.0, sigma_eta**2 + sigma_xi**2]])
    # the second wave's residual is against the first observation
    prior_mean[1] = y[0]
    innovation[1] = y[1] - prior_mean[1]
    gain[1] = 1.0
    post_mean[1] = m[0]
    post_var[1] = P[0, 0]
    drift_mean[1] = m[1]

    loglik = 0.0
    for k in range(2, T):
        m = trans @ m
        P = trans @ P @ trans.T + q
        P = 0.5 * (P + P.T)
        prior_mean[k] = m[0]
        prior_var[k] = P[0, 0]
        innovation[k] = y[k] - m[0]
        F = P[0, 0] + h[k]
        innovation_var[k] = F
        K = P[:, 0] / F
        gain[k] = K[0]
        m = m + K * innovation[k]
        P = P - np.outer(K, P[0, :])
        P = 0.5 * (P + P.T)
        post_mean[k] = m[0]
        post_var[k] = P[0, 0]
        drift_mean[k] = m[1]
        loglik -= 0.5 * (math.log(2.0 * math.pi) + math.log(F) + innovation[k] ** 2 / F)

    return dict(prior_mean=prior_mean, prior_var=prior_var, innovation=innovation,
                innovation_var=innovation_var, gain=gain, post_mean=post_mean,
                post_var=post_var, loglik=float(loglik), drift_mean=drift_mean,
                final_state_cov=P.copy())


def forecast_mean_var(out: dict, horizon, sigma_eta, drift=0.0, sigma_xi=None):
    """Forecast mean and variance: closed form for a known drift, the
    2x2 prediction iterated from the final state when ``sigma_xi`` is given."""
    hs = np.arange(1, horizon + 1)
    if sigma_xi is None:
        return out["post_mean"][-1] + drift * hs, out["post_var"][-1] + hs * sigma_eta**2
    trans = np.array([[1.0, 1.0], [0.0, 1.0]])
    q = np.diag([sigma_eta**2, sigma_xi**2])
    m = np.array([out["post_mean"][-1], out["drift_mean"][-1]])
    P = out["final_state_cov"].copy()
    mean = np.zeros(horizon)
    var = np.zeros(horizon)
    for i in range(horizon):
        m = trans @ m
        P = trans @ P @ trans.T + q
        mean[i] = m[0]
        var[i] = P[0, 0]
    return mean, var


def run_filter_loglik(series, model, names, meas_var=None):
    """``run_filter``'s log likelihood as a function of the values of
    ``names`` (log sds, and nu as it is), the other parameters at ``model``'s:
    one scalar filter run per point, the function whose ``hessian_fd`` gave
    ``fit_filter`` its intervals before the stencil became one batch."""
    def loglik(x) -> float:
        m = replace(model, **{n: v if n == "nu" else math.exp(v) for n, v in zip(names, x)})
        return run_filter(series, m, meas_var=meas_var).loglik
    return loglik


# ---------------------------------------------------------------------------
# gain theory: references for the closed forms and the coefficient recursions


def variance_map_iterate(nu0: float, s, iota) -> np.ndarray:
    """Iterate the normalized posterior-variance map.

        nu_{k+1} = (1 - iota_k) (nu_k + s_k) / (nu_k + s_k + 1)

    Returns the trajectory starting at nu0 (length len(s) + 1).
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    iota = np.atleast_1d(np.asarray(iota, dtype=float))
    if iota.size == 1:
        iota = np.full(s.size, iota[0])
    if iota.size != s.size:
        raise InvalidArgumentError("iota and s must have matching lengths")
    out = np.empty(s.size + 1)
    out[0] = nu0
    nu = float(nu0)
    for k in range(s.size):
        nu = (1.0 - iota[k]) * (nu + s[k]) / (nu + s[k] + 1.0)
        out[k + 1] = nu
    return out




def contraction_check(s_k: float, nu_k: float, variance_ratio: float):
    """Whether the variance map contracts at this step.

    True iff sigma_kk^2 / sigma_{k+1,k+1}^2 < (1 + s_k + nu_k)^2 (strict);
    returns (flag, margin) with margin = bound - ratio.
    """
    bound = (1.0 + s_k + nu_k) ** 2
    margin = bound - variance_ratio
    return (variance_ratio < bound), float(margin)




def coefficients_recursion(k: int, gains) -> tuple:
    """(c, d) of order ``k`` from the forward recursions that define them,

        c_i(j+1) = (-K_{j+1}) (-1 + sum_{s=i..j} c_i(s)),   c_i(i) = K_i
        d_i(j+1) = (-K_{j+1}) sum_{s=i..j} d_i(s),          d_i(i) = K_i,

    in O(k^2); the reference for ``gain.exact_coefficients``' closed form."""
    c, d = np.zeros(k), np.zeros(k)
    for i in range(1, k + 1):
        c_run = d_run = c_cur = d_cur = gains[i - 1]  # running sums of c_i(i..j), d_i(i..j)
        for j in range(i, k):
            c_cur, d_cur = -gains[j] * (-1.0 + c_run), -gains[j] * d_run
            c_run, d_run = c_run + c_cur, d_run + d_cur
        c[i - 1], d[i - 1] = c_cur, d_cur
    return c, d


def asymptotic_coefficients(k: int, k_inf: float) -> CoefficientTable:
    """Steady-state coefficients: the exact ones with every gain at its limit,

        c_i(k) = sum_m (-1)^m C(k-i, m) K^{m+1}      = K (1-K)^{k-i}
        d_i(k) = sum_m (-1)^{m+1} C(k-i-1, m) K^{m+2} = -K^2 (1-K)^{k-i-1}, i < k
        d_k(k) = K

    by the binomial theorem; the suffix product avoids the alternating sums
    of large binomials, which cancel badly.
    """
    if not 0.0 < k_inf < 1.0:
        raise InvalidArgumentError(f"limiting gain must be in (0,1), got {k_inf}")
    return exact_coefficients(k, np.full(k, k_inf))


def enumerate_coefficients_oracle(k: int, gains):
    """Brute-force signed-subset expansion of the coefficients.

    c_i(k) sums (-1)^{len+1} prod K over all subsets of {i..k} whose largest
    element is k; d_i(k) over subsets containing both i and k.  Exponential
    cost, refused above order 10.  Returns (table, c_terms, d_terms) where
    the term lists hold (sign, indices) tuples.
    """
    if k < 2:
        raise InvalidArgumentError(f"order must be >= 2, got {k}")
    if k > 10:
        raise InvalidArgumentError("enumeration oracle is exponential; order capped at 10")
    gains = np.asarray(gains, dtype=float)
    if gains.size < k:
        raise InvalidArgumentError(f"need {k} gains, got {gains.size}")
    c = np.zeros(k)
    d = np.zeros(k)
    c_terms: dict = {}
    d_terms: dict = {}
    for i in range(1, k + 1):
        ct: list = []
        dt: list = []
        pool = range(i, k)  # optional members besides the mandatory k
        for size in range(0, k - i + 1):
            for combo in combinations(pool, size):
                idx = tuple(sorted(combo + (k,)))
                sign = (-1.0) ** (len(idx) + 1)
                prod = float(np.prod(gains[np.array(idx) - 1]))
                ct.append((sign, idx))
                c[i - 1] += sign * prod
                if i in idx:
                    dt.append((sign, idx))
                    d[i - 1] += sign * prod
        # d_k(k) comes from the singleton {k}; for i < k the subsets above
        # that contain i cover the definition
        c_terms[i] = ct
        d_terms[i] = dt
    table = CoefficientTable(order=k, c=c, d=d)
    return table, c_terms, d_terms




def mc_power(k: int, s: float, eta_std: float, reps: int, seed: int = 0) -> float:
    """Monte-Carlo oracle for :func:`power`, running the actual filter.

    Simulates random-walk histories with the shock at time k pinned to
    eta_std standard deviations, filters each, and counts how often the
    posterior falls.  Replications share nothing with the coefficient
    machinery.  Vectorized over replications; each block of 10000 draws its
    own substream so the result is chunking-independent.
    """
    if k < 2:
        raise InvalidArgumentError(f"k must be >= 2, got {k}")
    gains = gain_sequence(np.full(k, s)).gains
    block = 10_000
    falls = 0
    done = 0
    chunk_idx = 0
    while done < reps:
        m = min(block, reps - done)
        rng = np.random.default_rng([seed, chunk_idx])
        eta = rng.standard_normal((block, k))
        eps = rng.standard_normal((block, k)) / math.sqrt(s)
        eta = eta[:m]
        eps = eps[:m]
        eta[:, k - 1] = eta_std
        beta_hat = np.cumsum(eta, axis=1) + eps
        post = beta_hat[:, 0].copy()
        prev = post
        for j in range(1, k):
            prev = post
            post = post + gains[j] * (beta_hat[:, j] - post)
        falls += int(np.sum(post < prev))
        done += m
        chunk_idx += 1
    return falls / reps


# ---------------------------------------------------------------------------
# drift tests: the Monte-Carlo critical-value draws


def draw_functional(functional: str, n_grid: int, reps: int, seed: int) -> np.ndarray:
    """One squared-integral draw per replication, each from its own substream."""
    out = np.empty(reps)
    grid_weight = 1.0 / n_grid
    r = np.arange(1, n_grid + 1) / n_grid
    for rep in range(reps):
        rng = np.random.default_rng([seed, rep])
        incr = rng.standard_normal(n_grid) * math.sqrt(grid_weight)
        w = np.cumsum(incr)
        path = w - r * w[-1] if functional == "bridge" else w
        out[rep] = float(np.sum(path * path) * grid_weight)
    return out

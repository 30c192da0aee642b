"""Hidden-Markov likelihood, maximum-likelihood fit and trend extraction.

The observed panel is modeled as a misclassified snapshot of the latent
illness-death chain.  Individual likelihood contributions are computed by
the forward algorithm over latent states, with per-step rescaling against
underflow; this equals the nested sum over all latent paths.  The adjoint
of that recursion (a backward pass) gives the analytic per-individual
scores, and one more forward sweep over the same recursion, differentiated
twice, gives the exact Hessian.  The fit is a trust-region Newton method
whose curvature is first the outer product of those scores (BHHH) and then
that exact information.  Standard errors come from the inverse of the
exact information at the estimate.
"""

from __future__ import annotations

import copy
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
    free_entries_jet,
    log_intensities,
    param_layout,
    transition_entries,
    transition_entries_vjp,
)
# gradient_fd and hessian_fd are no longer on the fit path but stay bound
# here: tests and the benchmark's trace points reach them as estimator.*
from .numdiff import gradient_fd, hessian_covariance, hessian_fd  # noqa: F401
from .panel import Panel, validate_panel
from .trend import TrendSeries

__all__ = [
    "param_names",
    "pack_params",
    "unpack_params",
    "misclassification_matrix",
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

# fit_msm moves from BHHH to exact curvature after _BHHH_BUDGET trust-region
# iterations, or once an accepted one gains less than _SWITCH_GAIN in log
# likelihood, and stops when the Euclidean norm of the score in its scaled
# coordinates is below _GTOL.  Log rates and logits beyond +-_Z_BOX (scaled)
# are indistinguishable from the boundary: a fit whose iterate leaves that
# box, as unidentified parameter combinations of a tiny panel do, stops
# there and is flagged
_SWITCH_GAIN = 1e-6
_BHHH_BUDGET = 50
_GTOL = 1e-5
_Z_BOX = 60.0

# the negative log likelihood fit_msm reports at a point whose likelihood
# or score is not finite, so that the trust region rejects it
_REJECTED = 1e12

# individuals per block of PanelDesign.hessian, whose working arrays grow
# with it (a 2,000-person panel takes two blocks)
_HESSIAN_BLOCK = 1024

# the local coordinate of a step or of the initial factor that each
# parameter field moves: log q12, log q13, log q23 (0-2) or the logit of
# e12, e21, p2 (3-5)
_SLOT = {"beta": 0, "female_12": 0, "age_spline_12": 0, "age_spline_f_12": 0,
         "log_q13_0": 1, "female_13": 1, "age_13": 1, "trend_13": 1,
         "log_q23_0": 2, "female_23": 2, "age_23": 2, "trend_23": 2,
         "logit_e12": 3, "logit_e21": 4, "logit_p2": 5}


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
        return float(self._forward(gamma, None).sum())

    def _forward(self, gamma: np.ndarray, tape: dict | None) -> np.ndarray:
        """Per-individual log likelihoods by the rescaled forward recursion.

        With a ``tape`` dict, also records what the backward pass of
        :meth:`loglik_and_score` needs: parameters, log intensities, rates,
        transition entries, and per observation the emission factors, the
        filtered state probabilities, the predicted (pre-emission)
        probabilities and the unfloored normalisers.
        """
        params = unpack_params(gamma, self.structure)
        lins = log_intensities(
            params, self.waves, self.female[:, None], self.basis, self.basis_f, self.age_centered
        )
        q12, q13, q23 = (np.exp(np.clip(lin, -_LIN_CLIP, _LIN_CLIP)) for lin in lins)
        p11, p12, p13, p22, p23 = entries = transition_entries(q12, q13, q23, self.widths)

        emission = misclassification_matrix(
            float(expit(params.logit_e12)), float(expit(params.logit_e21))
        )
        p2 = expit(params.logit_p2)
        init = np.array([1.0 - p2, p2, 0.0])

        obs = emission[:, self.state_idx[:, 0]].T
        alpha = init[None, :] * obs
        raw = alpha.sum(axis=1)
        norm = np.maximum(raw, 1e-300)
        loglik = np.log(norm)
        alpha = alpha / norm[:, None]
        if tape is not None:
            tape.update(params=params, lins=lins, rates=(q12, q13, q23), entries=entries,
                        obs=[obs], alpha=[alpha], pred=[np.broadcast_to(init, obs.shape)],
                        raw=[raw])
        for j in range(self.n_steps):
            # alpha times the upper-triangular transition matrix, death absorbing
            a0, a1, a2 = alpha.T
            pred = np.column_stack((
                a0 * p11[:, j],
                a0 * p12[:, j] + a1 * p22[:, j],
                a0 * p13[:, j] + a1 * p23[:, j] + a2,
            ))
            obs = emission[:, self.state_idx[:, j + 1]].T
            step = pred * obs
            raw = step.sum(axis=1)
            norm = np.maximum(raw, 1e-300)
            act = self.active[:, j]
            loglik = loglik + np.where(act, np.log(norm), 0.0)
            alpha = np.where(act[:, None], step / norm[:, None], alpha)
            if tape is not None:
                for key, value in (("obs", obs), ("alpha", alpha), ("pred", pred), ("raw", raw)):
                    tape[key].append(value)
        return loglik

    def loglik_and_score(self, gamma: np.ndarray) -> tuple[float, np.ndarray]:
        """Log likelihood (equal to :meth:`loglik`) and the per-individual
        score matrix, one row per individual in id order, one column per
        parameter.

        One forward pass is followed by its adjoint: with rescaled backward
        variables beta_j, dl/dP_j(r, s) = alpha_{j-1}(r) e_j(s) beta_j(s) / c_j,
        and similarly for the emission and initial-state entries.  The
        transition adjoints go through :func:`transition_entries_vjp` and
        exp(clip(lin)) to the three log-intensity grids, which are then
        contracted with the compact design.  Conventions: the score is the
        derivative of the clipped function, so it is zero in a cell where
        |lin| >= 30; and a step whose normaliser sits on the 1e-300 floor is
        treated as constant, passing no adjoint back (the score stays finite
        wherever the log likelihood is).
        """
        tape: dict = {}
        loglik = float(self._forward(gamma, tape).sum())
        n, steps = self.n, self.n_steps
        p11, p12, p13, p22, p23 = tape["entries"]
        alphas, obs, raws = tape["alpha"], tape["obs"], tape["raw"]

        def step_adjoint(abar, k):
            # adjoint of the unnormalised step k from that of its normalised
            # result and of its log-normaliser term
            g = abar - np.sum(abar * alphas[k], axis=1, keepdims=True) + 1.0
            live = raws[k] >= 1e-300
            return np.where(live[:, None], g / np.maximum(raws[k], 1e-300)[:, None], 0.0)

        bars = np.zeros((5, n, steps))
        gs = [None] * (steps + 1)
        abar = np.zeros((n, 3))
        for j in range(steps - 1, -1, -1):
            act = self.active[:, j]
            gs[j + 1] = g = np.where(act[:, None], step_adjoint(abar, j + 1), 0.0)
            pb = g * obs[j + 1]
            a0, a1 = alphas[j][:, 0], alphas[j][:, 1]
            bars[:, :, j] = a0 * pb[:, 0], a0 * pb[:, 1], a0 * pb[:, 2], a1 * pb[:, 1], a1 * pb[:, 2]
            back = np.column_stack((
                p11[:, j] * pb[:, 0] + p12[:, j] * pb[:, 1] + p13[:, j] * pb[:, 2],
                p22[:, j] * pb[:, 1] + p23[:, j] * pb[:, 2],
                pb[:, 2],
            ))
            abar = np.where(act[:, None], back, abar)
        gs[0] = step_adjoint(abar, 0)
        # adjoint of each emission factor E[s, o_j]: g_j(s) times the
        # predicted probability (the initial distribution at j = 0)
        d_obs = np.stack(gs, axis=1) * np.stack(tape["pred"], axis=1)
        # d E[0, o] / d e12 for observed o = 1, 2, 3; d E[1, o] / d e21 is its negative
        sign = np.array([-1.0, 1.0, 0.0])[self.state_idx]
        d_e12 = np.sum(d_obs[:, :, 0] * sign, axis=1)
        d_e21 = -np.sum(d_obs[:, :, 1] * sign, axis=1)
        d_p2 = gs[0][:, 1] * obs[0][:, 1] - gs[0][:, 0] * obs[0][:, 0]

        q12, q13, q23 = tape["rates"]
        qbars = transition_entries_vjp(q12, q13, q23, self.widths, bars)
        # d exp(clip(lin)) / d lin = q inside the clip, 0 outside
        l12, l13, l23 = (qb * q * (np.abs(lin) < _LIN_CLIP)
                         for qb, q, lin in zip(qbars, tape["rates"], tape["lins"]))
        T = self.structure.n_waves
        cell = np.arange(n)[:, None] * T + self.waves - 1
        fem = self.female
        params = tape["params"]
        e12, e21, p2 = expit([params.logit_e12, params.logit_e21, params.logit_p2])
        cols = {
            "beta": np.bincount(cell.ravel(), l12.ravel(), minlength=n * T).reshape(n, T),
            "female_12": fem * l12.sum(axis=1),
            "age_spline_12": np.einsum("ij,ijk->ik", l12, self.basis),
            "age_spline_f_12": np.einsum("ij,ijk->ik", l12, self.basis_f),
            "logit_e12": d_e12 * e12 * (1.0 - e12),
            "logit_e21": d_e21 * e21 * (1.0 - e21),
            "logit_p2": d_p2 * p2 * (1.0 - p2),
        }
        for k, lin in (("13", l13), ("23", l23)):
            total = lin.sum(axis=1)
            cols[f"log_q{k}_0"] = total
            cols[f"female_{k}"] = fem * total
            cols[f"age_{k}"] = np.sum(lin * self.age_centered, axis=1)
            cols[f"trend_{k}"] = np.sum(lin * self.waves, axis=1)
        return loglik, np.column_stack([cols[name] for name, _ in param_layout(self.structure)])

    def _step_design(self, j: int) -> np.ndarray:
        """Design of step j folded to one row per parameter and one column
        per individual: the derivative of the step's local coordinate that
        the parameter enters (see ``_SLOT``) with respect to it."""
        wave, fem, one = self.waves[:, j], self.female, np.ones(self.n)
        rows = {"beta": np.arange(self.structure.n_waves)[:, None] == wave - 1,
                "female_12": fem, "age_spline_12": self.basis[:, j].T,
                "age_spline_f_12": self.basis_f[:, j].T,
                "logit_e12": one, "logit_e21": one, "logit_p2": 0.0 * one}
        for k in ("13", "23"):
            rows.update({f"log_q{k}_0": one, f"female_{k}": fem,
                         f"age_{k}": self.age_centered[:, j], f"trend_{k}": wave})
        return np.vstack([np.atleast_2d(rows[name]) for name, _ in param_layout(self.structure)],
                         dtype=float)

    def hessian(self, gamma: np.ndarray) -> np.ndarray:
        """Hessian of the log likelihood: the Jacobian of the summed score of
        :meth:`loglik_and_score`, under the same two conventions.  It is a
        sum over individuals, taken over blocks of _HESSIAN_BLOCK of them so
        that its working arrays stay small.
        """
        return sum(self._individuals(slice(lo, lo + _HESSIAN_BLOCK))._hessian(gamma)
                   for lo in range(0, self.n, _HESSIAN_BLOCK))

    def _individuals(self, rows: slice) -> PanelDesign:
        """The design of a block of individuals, as views of this one's arrays."""
        sub = copy.copy(self)
        for name in ("counts", "states", "valid", "female", "widths", "waves", "active",
                     "basis", "basis_f", "age_centered", "state_idx"):
            setattr(sub, name, getattr(self, name)[rows])
        sub.n = sub.female.size
        return sub

    def _hessian(self, gamma: np.ndarray) -> np.ndarray:
        """Hessian of the log likelihood over all of this design's individuals.

        The forward pass is rescaled, so step j is the factor
        F_j = P_j diag(e_{j+1}) / c_{j+1}, the initial one is pi * e_0 / c_0,
        and the forward and backward variables satisfy alpha_j beta_j = 1.
        Holding the normalisers, each individual's likelihood is then a
        product of factors equal to one, and its Hessian is A - s s' with s
        its score (Lystig & Hughes 2002; Turner 2008).  A has within-step
        terms alpha_j d2F_j beta_{j+1} and cross-step terms
        alpha_j dF_j F_{j+1} ... F_{k-1} dF_k beta_{k+1}.  One forward sweep
        gathers the cross terms in a left accumulator S, one (p, n) slice per
        state, S <- S F_j + D_j'(alpha_j dF_j), where D_j maps the step's
        local coordinates (three log intensities, two misclassification
        logits) to the parameters.  S beta_j is the score of the factors
        before step j, so s comes from the same sweep.  A step whose
        normaliser sits on its floor cuts the score's dependence in two, so
        it closes a segment: its outer product s s' is taken there and S
        restarts at zero.  Padded cells have width zero, so P = I there and
        every derivative of it vanishes; with e/c set to one their factor
        is the identity.
        """
        tape: dict = {}
        self._forward(gamma, tape)
        n, steps = self.n, self.n_steps
        slot = np.concatenate([np.full(size or 1, _SLOT[name])
                               for name, size in param_layout(self.structure)])
        p = slot.size
        p11, p12, p13, p22, p23 = tape["entries"]
        alphas, preds = tape["alpha"], tape["pred"]
        raw = np.column_stack(tape["raw"])
        live = self.valid & (raw >= 1e-300)
        floored = self.valid & ~live
        inv_c = np.where(live, 1.0 / np.where(live, raw, 1.0), 0.0)
        ec = [np.where(self.valid[:, k, None], tape["obs"][k] * inv_c[:, k, None], 1.0)
              for k in range(steps + 1)]
        params = tape["params"]
        e12, e21, p2 = expit([params.logit_e12, params.logit_e21, params.logit_p2])
        # first and second derivatives of e(0)/c and e(1)/c, the only
        # emission entries that move, in logit e12 and logit e21
        sign = np.array([-1.0, 1.0, 0.0])[self.state_idx] * inv_c
        h12, h21 = sign * e12 * (1.0 - e12), -sign * e21 * (1.0 - e21)
        hh12, hh21 = h12 * (1.0 - 2.0 * e12), h21 * (1.0 - 2.0 * e21)

        betas = [np.ones((n, 3))] * (steps + 1)
        for j in range(steps - 1, -1, -1):
            eb = ec[j + 1] * betas[j + 1]
            back = np.column_stack((
                p11[:, j] * eb[:, 0] + p12[:, j] * eb[:, 1] + p13[:, j] * eb[:, 2],
                p22[:, j] * eb[:, 1] + p23[:, j] * eb[:, 2],
                eb[:, 2],
            ))
            betas[j] = np.where(floored[:, j + 1, None], 1.0, back)

        # A is gathered as a half whose sum with its transpose is A
        A = np.zeros((p, p))
        outer = np.zeros((p, p))
        S = np.zeros((3, p, n))
        # initial factor, local coordinates (logit e12, logit e21, logit p2)
        b0, d2 = betas[0], p2 * (1.0 - p2)
        eb0 = ec[0] * b0
        W0 = np.zeros((3, 3, n))
        W0[0, 0] = (1.0 - p2) * hh12[:, 0] * b0[:, 0]
        W0[1, 1] = p2 * hh21[:, 0] * b0[:, 1]
        W0[2, 2] = d2 * (1.0 - 2.0 * p2) * (eb0[:, 1] - eb0[:, 0])
        W0[0, 2] = W0[2, 0] = -d2 * h12[:, 0] * b0[:, 0]
        W0[1, 2] = W0[2, 1] = d2 * h21[:, 0] * b0[:, 1]
        init = np.flatnonzero(slot >= 3)
        A[np.ix_(init, init)] = 0.5 * W0.sum(axis=-1)
        S[0, init[[0, 2]]] = (1.0 - p2) * h12[:, 0], -d2 * ec[0][:, 0]
        S[1, init[[1, 2]]] = p2 * h21[:, 0], d2 * ec[0][:, 1]

        slots = [np.flatnonzero(slot == k) for k in range(5)]
        rates, lins = tape["rates"], tape["lins"]
        for j in range(steps):
            k = j + 1
            a0, a1 = alphas[j][:, 0], alphas[j][:, 1]
            bk, eck, pred = betas[k], ec[k], preds[k]
            eb = eck * bk
            # d q / d lin, also d2 q / d lin2: q inside the clip, 0 outside
            t = np.array([q[:, j] * (np.abs(lin[:, j]) < _LIN_CLIP) for q, lin in zip(rates, lins)])
            grad, hess = free_entries_jet(rates[0][:, j], rates[1][:, j], rates[2][:, j],
                                          self.widths[:, j])
            gl = grad * t
            hl = hess * (t[:, None] * t)
            hl[:, [0, 1, 2], [0, 1, 2]] += gl
            # alpha_j dP_j / dlin has entries (x, y + z, -x - y - z): the rows of dP sum to 0
            x, y, z = a0 * gl[0], a0 * gl[1], a1 * gl[2]
            d0, d1 = eb[:, 0] - eb[:, 2], eb[:, 1] - eb[:, 2]
            # local coordinates (lin12, lin13, lin23, logit e12, logit e21,
            # and logit p2, on which no step depends): rows R = alpha_j dF_j,
            # columns C = dF_j beta_{j+1} (state 3's entry is always zero)
            # and curvature W = alpha_j d2F_j beta_{j+1}
            R = np.zeros((6, 3, n))
            R[:3, 0], R[:3, 1], R[:3, 2] = x * eck[:, 0], (y + z) * eck[:, 1], -(x + y + z) * eck[:, 2]
            R[3, 0] = pred[:, 0] * h12[:, k]
            R[4, 1] = pred[:, 1] * h21[:, k]
            C = np.zeros((6, 2, n))
            C[:3, 0] = gl[0] * d0 + gl[1] * d1
            C[:3, 1] = gl[2] * d1
            C[3, 0] = p11[:, j] * h12[:, k] * bk[:, 0]
            C[4] = p12[:, j] * h21[:, k] * bk[:, 1], p22[:, j] * h21[:, k] * bk[:, 1]
            W = np.zeros((6, 6, n))
            W[:3, :3] = a0 * d0 * hl[0] + a0 * d1 * hl[1] + a1 * d1 * hl[2]
            W[:3, 3] = W[3, :3] = x * h12[:, k] * bk[:, 0]
            W[:3, 4] = W[4, :3] = (y + z) * h21[:, k] * bk[:, 1]
            W[3, 3] = pred[:, 0] * hh12[:, k] * bk[:, 0]
            W[4, 4] = pred[:, 1] * hh21[:, k] * bk[:, 1]

            G = self._step_design(j)
            for c, rows in enumerate(slots):
                Z = 0.5 * W[c][slot] * G + S[0] * C[c, 0] + S[1] * C[c, 1]
                A[rows] += G[rows] @ Z.T
            cut = np.flatnonzero(floored[:, k])
            if cut.size:
                seg = S[:, :, cut].sum(axis=0)
                outer += seg @ seg.T
            # S <- S F_j with F_j = P_j diag(e/c) upper triangular, last state first
            f0, f1, f2 = eck.T
            S[2] = S[0] * (p13[:, j] * f2) + S[1] * (p23[:, j] * f2) + S[2] * f2
            S[1] = S[0] * (p12[:, j] * f1) + S[1] * (p22[:, j] * f1)
            S[0] *= p11[:, j] * f0
            for s in range(3):
                S[s] += R[slot, s] * G
        seg = S.sum(axis=0)
        outer += seg @ seg.T
        return A + A.T - outer


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

    A trust-region Newton method (scipy ``trust-exact``) runs on the
    analytic score of :meth:`PanelDesign.loglik_and_score`.  Its curvature
    starts as the BHHH matrix, the sum of outer products of the
    per-individual scores, which comes from the same pass.  Once an
    accepted iteration gains less than 1e-6 in log likelihood, or after 50
    BHHH iterations, the fit continues with the exact curvature of
    :meth:`PanelDesign.hessian`, one forward sweep per point, restricted to
    the free parameters.  It stops when the
    score's Euclidean norm in the scaled coordinates is below 1e-5, or when
    the exact model can no longer predict a gain above round-off.  The
    covariance is the inverse of the exact information at the final point.
    ``iterations`` counts trust-region iterations over both phases, and
    ``maxiter`` bounds that count.  ``fixed`` maps parameter names to
    frozen values, e.g. to pin the misclassification at the identity.
    Non-convergence is flagged on the result, never raised.
    ``validate=False`` skips the schema checks of a panel the caller has
    already passed through :func:`validate_panel`.

    A wave dummy whose wave has no events does not run away: once its log
    intensity passes the -30 clip the likelihood is flat in it, so its
    score and curvature are exactly zero there, and the trust region bounds
    every step on the way.  Parameter combinations that a panel does not
    identify can still run off; an iterate with a scaled parameter beyond
    +-60 stops the fit, which is then flagged as not converged with a
    warning that names those parameters.
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

    # optimize z = scale * gamma so that the trust region, a ball, is not
    # stretched by covariate columns of large typical magnitude
    scale = design.param_scales()[idx_free]

    def gamma_of(z_free: np.ndarray) -> np.ndarray:
        x = x_full.copy()
        x[idx_free] = z_free / scale
        return x

    def nll_and_grad(z_free: np.ndarray):
        # the adjoint can overflow at a point far from the data; the
        # non-finite score is rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            value, scores = design.loglik_and_score(gamma_of(z_free))
        scores = scores[:, idx_free] / scale
        if not (np.isfinite(value) and np.all(np.isfinite(scores))):
            # a point the trust region must reject
            return _REJECTED, np.zeros(idx_free.size), np.zeros_like(scores)
        return -value, -scores.sum(axis=0), scores

    # trust-exact asks for the value, gradient and Hessian at each proposed
    # point separately; one score pass answers all three
    last: dict = {}

    def at(z_free: np.ndarray):
        if not np.array_equal(last.get("z"), z_free):
            last.update(z=z_free.copy(), out=nll_and_grad(z_free))
        return last["out"]

    def bhhh(z_free: np.ndarray) -> np.ndarray:
        scores = at(z_free)[2]
        return scores.T @ scores

    exact: dict = {}

    def exact_hessian(z_free: np.ndarray) -> np.ndarray:
        if not np.array_equal(exact.get("z"), z_free):
            # trust-exact asks for the curvature at each point it proposes,
            # before it rejects one; where the likelihood or score is not
            # finite, the curvature is zero, as the BHHH matrix is there
            if at(z_free)[0] == _REJECTED:
                H = np.zeros((idx_free.size, idx_free.size))
            else:
                H = -design.hessian(gamma_of(z_free))[np.ix_(idx_free, idx_free)]
            exact.update(z=z_free.copy(), H=H / np.outer(scale, scale))
        return exact["H"]

    watch = {"bhhh": True, "k": 0, "f": np.inf, "stop": None}

    def monitor(intermediate_result):
        z, f = intermediate_result.x, intermediate_result.fun
        watch["k"] += 1
        if np.max(np.abs(z)) > _Z_BOX:
            watch["stop"] = "box"
            raise StopIteration
        # BHHH hands over to exact curvature after _BHHH_BUDGET iterations,
        # or sooner once an accepted step gains less than _SWITCH_GAIN (a
        # rejected step leaves f unchanged); a hand-over due on the last
        # allowed iteration is left to end as "maxiter"
        gain, watch["f"] = watch["f"] - f, f
        stalled = 0.0 < gain < _SWITCH_GAIN or watch["k"] >= _BHHH_BUDGET
        if watch["bhhh"] and stalled and watch["k"] < maxiter:
            watch["stop"] = "switch"
            raise StopIteration

    def trust_region(z0, hess, iterations):
        return minimize(lambda z: at(z)[:2], z0, method="trust-exact", jac=True, hess=hess,
                        callback=monitor, options={"maxiter": iterations, "gtol": _GTOL})

    res = trust_region(x_full[idx_free] * scale, bhhh, maxiter)
    iterations = int(res.nit)
    if watch["stop"] == "switch" or res.status in (2, 3):
        # BHHH stalled or could not model the surface: exact curvature from here
        watch.update(bhhh=False, stop=None)
        res = trust_region(res.x, exact_hessian, maxiter - iterations)
        iterations += int(res.nit)
    # status 2 with exact curvature: the model predicts no gain above the
    # round-off of the log likelihood, which marks a stationary point
    converged = watch["stop"] is None and (
        res.status == 0 or (res.status == 2 and not watch["bhhh"]))
    z_free = res.x
    x_hat = gamma_of(z_free)
    warnings: list[str] = []
    if watch["stop"] == "box":
        far = ", ".join(names[i] for i in idx_free[np.abs(z_free) > _Z_BOX])
        warnings.append(f"stopped where {far} left the scaled box [-{_Z_BOX:g}, {_Z_BOX:g}]; "
                        "the panel does not identify them")
    elif not converged:
        warnings.append(f"optimizer message: {res.message}")

    cov_free = None
    if compute_cov:
        # Hessian in the scaled coordinates (well conditioned), mapped back
        # to the natural parameterization: cov_gamma = S^{-1} cov_z S^{-1}
        try:
            cov_z, cov_warnings = hessian_covariance(-exact_hessian(z_free))
            cov_free = cov_z / np.outer(scale, scale)
            warnings.extend(cov_warnings)
        except CurvatureError as exc:
            warnings.append(str(exc))
            converged = False

    return EstimationResult(
        names=names,
        estimates=x_hat,
        free=free,
        loglik=float(design.loglik(x_hat)),
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

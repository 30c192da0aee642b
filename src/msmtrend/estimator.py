"""Hidden-Markov likelihood, maximum-likelihood fit and trend extraction.

The observed panel is modeled as a misclassified snapshot of the latent
illness-death chain.  Individual likelihood contributions are computed by
the forward algorithm over latent states, with per-step rescaling against
underflow; this equals the nested sum over all latent paths.  Padded cells
are identity steps, and only a zero normaliser, an impossible sequence, is
special: it gives that individual a log likelihood of -inf.  One backward
recursion gives the rescaled backward variables, from which come both the
analytic per-individual scores and, with one more forward sweep
differentiated twice, the exact Hessian; both take the transition kernel's
first derivatives from :func:`msmtrend.markov.free_entries_grad`.  The fit
is a trust-region Newton method whose curvature is first the outer product
of those scores (BHHH) and then that exact information.  Standard errors
come from the inverse of the exact information at the estimate.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
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
    free_entries_grad,
    free_entries_jet,
    log_intensities,
    param_layout,
    transition_entries,
)
# gradient_fd and hessian_fd are not on step one's fit path but stay bound
# here: tests and the benchmark's trace points reach them as estimator.*.
# hessian_fd takes a batch function, as step two's interval Hessian gives it
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

# individuals per block of PanelDesign's one block loop (see _blocks): the
# smallest power of two at which a block's NumPy calls, each over one to three
# cells per individual, stop paying for call overhead (on a 50,000-person
# panel, 1,024 made loglik 15% slower, while 4,096 and 8,192 were no faster).
# At eight waves a block's arrays then take about 2 MB in loglik and 7 MB in
# loglik_and_score.  The Hessian holds about 1.4 times a score pass's arrays
# per individual, so it takes half blocks, 5 MB at eight waves, and needs
# less memory than a score pass of the same panel
_BLOCK = 2048

# the local coordinate of a step or of the initial factor that each
# parameter field moves: log q12, log q13, log q23 (0-2) or the logit of
# e12, e21, p2 (3-5)
_SLOT = {"beta": 0, "female_12": 0, "age_spline_12": 0, "age_spline_f_12": 0,
         "log_q13_0": 1, "female_13": 1, "age_13": 1, "trend_13": 1,
         "log_q23_0": 2, "female_23": 2, "age_23": 2, "trend_23": 2,
         "logit_e12": 3, "logit_e21": 4, "logit_p2": 5}


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported at the first call, so that only
    commands that fit step one load SciPy's optimizers."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


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
    masks which (individual, step) cells are real.  A padded step has width
    zero and observation code 3 in ``state_idx``, so it is the identity.
    Covariates and spline bases depend only on data, so they are built once.
    :meth:`loglik`, :meth:`loglik_and_score` and :meth:`hessian` share one
    block loop, :meth:`_blocks`, that works on _BLOCK individuals at a time
    (half as many in the Hessian).
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

        # (individual, observation) cell of every sorted row; each of these
        # row-sized temporaries is dropped once used, so that few are held at once
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
        del row, col
        self.widths = np.zeros((self.n, self.n_steps))
        self.widths[cell] = p.times[left + 1] - p.times[left]
        self.waves = np.ones((self.n, self.n_steps), dtype=np.int64)
        self.waves[cell] = structure.wave_indices(p.times[left])
        age_left = np.full((self.n, self.n_steps), structure.ref_age)
        age_left[cell] = p.ages[left]
        del left, cell
        # step j is real when the individual has an observation j+1
        self.active = self.valid[:, 1:]
        # covariate design at the interval's left endpoint
        self.basis, self.basis_f, self.age_centered = covariate_design(
            structure, age_left, self.female[:, None]
        )
        self.state_idx = np.where(self.valid, self.states - 1, 3)

    def _slots(self) -> np.ndarray:
        """The local coordinate (see ``_SLOT``) that each entry of the flat
        parameter vector moves."""
        return np.concatenate([np.full(size or 1, _SLOT[name])
                               for name, size in param_layout(self.structure)])

    def param_scales(self) -> np.ndarray:
        """Typical regressor magnitude per parameter, used to precondition
        the optimizer: the root mean square of its row of the design over
        the active steps and at least one, so that dummies, baselines and
        logits scale at one.  The design is built one step at a time."""
        squares = sum(np.sum(self._step_design(j)[:, act] ** 2, axis=1)
                      for j, act in enumerate(self.active.T))
        return np.maximum(1.0, np.sqrt(squares / np.count_nonzero(self.active)))

    def loglik(self, gamma: np.ndarray) -> float:
        """Total forward-algorithm log likelihood at parameter vector gamma.
        The per-individual values come from the one block loop,
        :meth:`_blocks`, and are summed once, in fixed id order, so that the
        total does not depend on the block size."""
        lls = [b._forward(gamma, None) for b in self._blocks(_BLOCK)]
        return float(np.concatenate(lls).sum())

    def _blocks(self, size: int):
        """The one block loop of step one: this design's individuals in id
        order, ``size`` at a time, each block a design of views of this one's
        arrays.  Every term of the likelihood, the score and the Hessian
        belongs to one individual, so blocks change no number but the order
        of the Hessian's sum over them; they bound the working arrays, which
        grow with the block."""
        for lo in range(0, self.n, size):
            yield self._individuals(slice(lo, lo + size))

    def _forward(self, gamma: np.ndarray, tape: dict | None) -> np.ndarray:
        """Per-individual log likelihoods by the rescaled forward recursion,
        the sums of the log normalisers c_k.  A zero normaliser, which only
        an impossible sequence gives, makes that individual's log likelihood
        -inf and its filtered probabilities zero from there on.

        With a ``tape`` dict, also records what :meth:`_backward`, the
        score and the Hessian need: parameters, rates, their clip slopes
        dq/dlin = d2q/dlin2, transition entries, and arrays indexed by
        observation, then individual: the emission factors ``obs``, the
        filtered probabilities ``alpha`` and the predicted (pre-emission)
        probabilities ``pred``, each (steps + 1, n, 3), and the normalisers
        ``raw``, (steps + 1, n).  Without a tape, two slots of each serve
        the whole recursion.
        """
        params = unpack_params(gamma, self.structure)
        lins = np.array(log_intensities(
            params, self.waves, self.female[:, None], self.basis, self.basis_f, self.age_centered
        ))
        rates = np.clip(lins, -_LIN_CLIP, _LIN_CLIP)
        np.exp(rates, out=rates)
        p11, p12, p13, p22, p23 = entries = transition_entries(*rates, self.widths)

        # emission factors by observation code (rows; code 3 pads) and true state
        emit = np.vstack((misclassification_matrix(
            float(expit(params.logit_e12)), float(expit(params.logit_e21))
        ).T, np.ones(3)))
        p2 = expit(params.logit_p2)

        m = self.n_steps + 1
        slots = m if tape is not None else 2
        obs, alpha, pred = (np.empty((slots, self.n, 3)) for _ in range(3))
        raw = np.empty((slots, self.n))
        loglik = np.zeros(self.n)
        pred[0] = 1.0 - p2, p2, 0.0
        with np.errstate(divide="ignore"):  # log 0 = -inf
            for k in range(m):
                now = k % slots
                if k:
                    # alpha times the upper-triangular transition matrix, death absorbing
                    j = k - 1
                    a0, a1, a2 = alpha[j % slots].T
                    pred[now, :, 0] = a0 * p11[:, j]
                    pred[now, :, 1] = a0 * p12[:, j] + a1 * p22[:, j]
                    pred[now, :, 2] = a0 * p13[:, j] + a1 * p23[:, j] + a2
                np.take(emit, self.state_idx[:, k], axis=0, out=obs[now])
                np.multiply(pred[now], obs[now], out=alpha[now])
                np.sum(alpha[now], axis=1, out=raw[now])
                loglik += np.log(raw[now])
                alpha[now] /= np.where(raw[now] > 0.0, raw[now], 1.0)[:, None]
        if tape is not None:
            tape.update(params=params, rates=rates, slopes=rates * (np.abs(lins) < _LIN_CLIP),
                        entries=entries, obs=obs, alpha=alpha, pred=pred, raw=raw)
        return loglik

    def loglik_and_score(self, gamma: np.ndarray) -> tuple[float, np.ndarray]:
        """Log likelihood (equal to :meth:`loglik`) and the per-individual
        score matrix, one row per individual in id order, one column per
        parameter.

        One forward pass is followed by :meth:`_backward`: with its rescaled
        backward variables beta, dl/dP_j(r, s) = alpha_j(r) e_{j+1}(s)
        beta_{j+1}(s) / c_{j+1}, and similarly for the emission and
        initial-state entries.  Contracted with :func:`free_entries_grad` and
        the clip slopes, they give the adjoints of the three log-intensity
        grids; with the emission logits these are each step's local
        adjoints, which :meth:`_step_design` carries to the parameters.
        The score is the gradient of the clipped function, so it is zero in
        a cell where |lin| >= 30, and it is exact wherever the likelihood is
        positive.  Where alpha underflows, beta grows like the inverse of
        the normalisers, and their product can overflow while the log
        likelihood is finite; :func:`fit_msm` rejects such a point.
        """
        lls, scores = zip(*(b._loglik_and_score(gamma) for b in self._blocks(_BLOCK)))
        return float(np.concatenate(lls).sum()), np.concatenate(scores)

    def _loglik_and_score(self, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-individual log likelihoods and score rows over all of this
        design's individuals."""
        tape: dict = {}
        loglik = self._forward(gamma, tape)
        ec, betas, (h12, h21, _, _) = self._backward(tape)
        eb = ec * betas
        (a0, a1, _), (e0, e1, e2) = tape["alpha"][:-1].T, eb[1:].T
        # as the rows of P_j sum to one, its free entries p11, p12 and p22 carry
        # a0 (e0 - e2), a0 (e1 - e2) and a1 (e1 - e2), (e0, e1, e2) = e beta / c at j + 1
        bars = np.array((a0 * (e0 - e2), a0 * (e1 - e2), a1 * (e1 - e2)))
        lin = np.einsum("erij,eij->rij", free_entries_grad(*tape["rates"], self.widths)[0],
                        bars) * tape["slopes"]
        # the emission logits at each observation: the predicted probability
        # (the initial distribution at 0) times d(e/c) times beta
        pred = tape["pred"]
        d_e12 = pred[:, :, 0] * h12 * betas[:, :, 0]
        d_e21 = pred[:, :, 1] * h21 * betas[:, :, 1]
        slot = self._slots()
        scores = np.zeros((slot.size, self.n))
        p2 = expit(tape["params"].logit_p2)
        scores[slot >= 3] = d_e12[0], d_e21[0], p2 * (1.0 - p2) * (eb[0, :, 1] - eb[0, :, 0])
        zero = np.zeros(self.n)
        for j in range(self.n_steps):
            local = np.array((*lin[:, :, j], d_e12[j + 1], d_e21[j + 1], zero))
            scores += local[slot] * self._step_design(j)
        return loglik, scores.T.copy()

    def _step_design(self, j: int) -> np.ndarray:
        """Design of step j folded to one row per parameter and one column
        per individual: the derivative of the step's local coordinate that
        the parameter enters (see ``_SLOT``) with respect to it."""
        wave, fem = self.waves[:, j], self.female
        rows = {"beta": np.arange(self.structure.n_waves)[:, None] == wave - 1,
                "female_12": fem, "age_spline_12": self.basis[:, j].T,
                "age_spline_f_12": self.basis_f[:, j].T,
                "logit_e12": 1.0, "logit_e21": 1.0, "logit_p2": 0.0}
        for k in ("13", "23"):
            rows.update({f"log_q{k}_0": 1.0, f"female_{k}": fem,
                         f"age_{k}": self.age_centered[:, j], f"trend_{k}": wave})
        layout = param_layout(self.structure)
        G, i = np.empty((sum(size or 1 for _, size in layout), self.n)), 0
        for name, size in layout:
            G[i: i + (size or 1)] = rows[name]
            i += size or 1
        return G

    def hessian(self, gamma: np.ndarray) -> np.ndarray:
        """Hessian of the log likelihood: the Jacobian of the summed score of
        :meth:`loglik_and_score`, under the same convention.  It is a sum
        over individuals, taken over half blocks (rounded up) of the one
        block loop, :meth:`_blocks`, so that its working arrays, the tape
        included, stay smaller than a score pass's.
        """
        return sum(b._hessian(gamma) for b in self._blocks((_BLOCK + 1) // 2))

    def _individuals(self, rows: slice) -> PanelDesign:
        """The design of a block of individuals, as views of this one's arrays."""
        sub = copy.copy(self)
        for name in ("states", "valid", "female", "widths", "waves", "active",
                     "basis", "basis_f", "age_centered", "state_idx"):
            setattr(sub, name, getattr(self, name)[rows])
        sub.n = sub.female.size
        return sub

    def _backward(self, tape: dict):
        """The one backward recursion, over the tape of :meth:`_forward`.

        The forward pass is rescaled, so step j is the factor
        F_j = P_j diag(e_{j+1}) / c_{j+1} and the initial one is
        pi * e_0 / c_0.  Returns three things, indexed by observation, then
        individual:

        - the emission factors e/c, (steps + 1, n, 3);
        - the rescaled backward variables beta_j = F_j beta_{j+1}, one at
          the last observation, so that alpha_j beta_j = 1, of the same
          shape;
        - (h12, h21, hh12, hh21), each (steps + 1, n): the first and second
          derivatives of e(0)/c in logit e12 and of e(1)/c in logit e21, the
          only emission entries that move.

        A zero normaliser is taken as one here, so that nothing is divided
        by zero; that individual's log likelihood is -inf, and its score and
        curvature carry no meaning.
        """
        p11, p12, p13, p22, p23 = tape["entries"]
        inv_c = 1.0 / np.where(tape["raw"] > 0.0, tape["raw"], 1.0)
        ec = tape["obs"] * inv_c[:, :, None]
        params = tape["params"]
        e12, e21 = expit([params.logit_e12, params.logit_e21])
        sign = np.array([-1.0, 1.0, 0.0, 0.0])[self.state_idx.T] * inv_c
        h12, h21 = sign * e12 * (1.0 - e12), -sign * e21 * (1.0 - e21)
        jets = h12, h21, h12 * (1.0 - 2.0 * e12), h21 * (1.0 - 2.0 * e21)

        betas = np.ones_like(ec)
        for j in range(self.n_steps - 1, -1, -1):
            eb = ec[j + 1] * betas[j + 1]
            betas[j, :, 0] = p11[:, j] * eb[:, 0] + p12[:, j] * eb[:, 1] + p13[:, j] * eb[:, 2]
            betas[j, :, 1] = p22[:, j] * eb[:, 1] + p23[:, j] * eb[:, 2]
            betas[j, :, 2] = eb[:, 2]
        return ec, betas, jets

    def _hessian(self, gamma: np.ndarray) -> np.ndarray:
        """Hessian of the log likelihood over all of this design's individuals.

        With the factors and backward variables of :meth:`_backward`,
        holding the normalisers, each individual's likelihood is a product
        of factors equal to one, and its Hessian is A - s s' with s its
        score (Lystig & Hughes 2002; Turner 2008).  A has within-step terms
        alpha_j d2F_j beta_{j+1} and cross-step terms
        alpha_j dF_j F_{j+1} ... F_{k-1} dF_k beta_{k+1}.  One forward sweep
        gathers the cross terms in a left accumulator S, one (p, n) slice per
        state, S <- S F_j + D_j'(alpha_j dF_j), where D_j is the map
        :meth:`_step_design` from the step's local coordinates (three log
        intensities, two misclassification logits) to the parameters.
        S beta_j is the score of the factors before step j, so s comes from
        the same sweep.  A padded step is the identity, and every derivative
        of its P = I (width zero) vanishes.
        """
        tape: dict = {}
        self._forward(gamma, tape)
        ec, betas, (h12, h21, hh12, hh21) = self._backward(tape)
        n, steps = self.n, self.n_steps
        slot = self._slots()
        p = slot.size
        p11, p12, p13, p22, p23 = tape["entries"]
        alphas, preds = tape["alpha"], tape["pred"]
        p2 = expit(tape["params"].logit_p2)

        # A is gathered as a half whose sum with its transpose is A
        A = np.zeros((p, p))
        S = np.zeros((3, p, n))
        # initial factor, local coordinates (logit e12, logit e21, logit p2)
        b0, d2 = betas[0], p2 * (1.0 - p2)
        eb0 = ec[0] * b0
        W0 = np.zeros((3, 3, n))
        W0[0, 0] = (1.0 - p2) * hh12[0] * b0[:, 0]
        W0[1, 1] = p2 * hh21[0] * b0[:, 1]
        W0[2, 2] = d2 * (1.0 - 2.0 * p2) * (eb0[:, 1] - eb0[:, 0])
        W0[0, 2] = W0[2, 0] = -d2 * h12[0] * b0[:, 0]
        W0[1, 2] = W0[2, 1] = d2 * h21[0] * b0[:, 1]
        init = np.flatnonzero(slot >= 3)
        A[np.ix_(init, init)] = 0.5 * W0.sum(axis=-1)
        S[0, init[[0, 2]]] = (1.0 - p2) * h12[0], -d2 * ec[0, :, 0]
        S[1, init[[1, 2]]] = p2 * h21[0], d2 * ec[0, :, 1]

        slots = [np.flatnonzero(slot == k) for k in range(5)]
        for j in range(steps):
            k = j + 1
            a0, a1 = alphas[j, :, 0], alphas[j, :, 1]
            bk, eck, pred = betas[k], ec[k], preds[k]
            eb = eck * bk
            t = tape["slopes"][:, :, j]
            grad, hess = free_entries_jet(*tape["rates"][:, :, j], self.widths[:, j])
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
            R[3, 0] = pred[:, 0] * h12[k]
            R[4, 1] = pred[:, 1] * h21[k]
            C = np.zeros((6, 2, n))
            C[:3, 0] = gl[0] * d0 + gl[1] * d1
            C[:3, 1] = gl[2] * d1
            C[3, 0] = p11[:, j] * h12[k] * bk[:, 0]
            C[4] = p12[:, j] * h21[k] * bk[:, 1], p22[:, j] * h21[k] * bk[:, 1]
            W = np.zeros((6, 6, n))
            W[:3, :3] = a0 * d0 * hl[0] + a0 * d1 * hl[1] + a1 * d1 * hl[2]
            W[:3, 3] = W[3, :3] = x * h12[k] * bk[:, 0]
            W[:3, 4] = W[4, :3] = (y + z) * h21[k] * bk[:, 1]
            W[3, 3] = pred[:, 0] * hh12[k] * bk[:, 0]
            W[4, 4] = pred[:, 1] * hh21[k] * bk[:, 1]

            G = self._step_design(j)
            for c, rows in enumerate(slots):
                Z = 0.5 * W[c][slot] * G + S[0] * C[c, 0] + S[1] * C[c, 1]
                A[rows] += G[rows] @ Z.T
            # S <- S F_j with F_j = P_j diag(e/c) upper triangular, last state first
            f0, f1, f2 = eck.T
            S[2] = S[0] * (p13[:, j] * f2) + S[1] * (p23[:, j] * f2) + S[2] * f2
            S[1] = S[0] * (p12[:, j] * f1) + S[1] * (p22[:, j] * f1)
            S[0] *= p11[:, j] * f0
            for s in range(3):
                S[s] += R[slot, s] * G
        s = S.sum(axis=0)
        return A + A.T - s @ s.T


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
    ``maxiter`` (at least 1) bounds that count.  ``fixed`` maps parameter
    names to frozen values, e.g. to pin the misclassification at the
    identity.
    Non-convergence is flagged on the result, never raised; a start point
    whose log likelihood or score is not finite raises ``NumericalError``.
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
    if maxiter < 1:
        raise InvalidArgumentError(f"maxiter must be at least 1, got {maxiter}")
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
        # where alpha underflows, far from the data, beta grows and the
        # score can overflow; that point is rejected below, as is one where
        # the log likelihood is -inf
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

    z_start = x_full[idx_free] * scale
    if at(z_start)[0] == _REJECTED:
        # the trust region would stop there at once, "converged"
        raise NumericalError("the log likelihood or its score is not finite at the start point")
    res = trust_region(z_start, bhhh, maxiter)
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
    # Hessian in the scaled coordinates (well conditioned), mapped back to
    # the natural parameterization: cov_gamma = S^{-1} cov_z S^{-1}
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

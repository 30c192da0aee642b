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

A fit's score passes and Hessians take their working
arrays from one :class:`_Workspace`, which :func:`fit_msm` creates
and drops when it returns: the forward tape, the rates, their clip slopes
and the transition entries, the backward variables and emission factors,
the kernel's derivatives and the score's adjoints, and the Hessian's
accumulators.  Every block of every call reuses its one buffer through
views and ``out=`` writes, so that after the first call a fit allocates
little but the arrays it returns.  At eight waves the buffer holds 2,608
bytes per individual of a block, 5.1 MiB at ``_BLOCK``; a call without a
workspace takes one of its own.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .errors import (
    CurvatureError,
    DataValidationError,
    InvalidArgumentError,
    InvalidSpecError,
    NumericalError,
)
from .markov import (
    FIELDS,
    HazardParams,
    ModelStructure,
    covariate_design,
    free_entries_grad,
    free_entries_jet,
    log_intensities,
    logistic,
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
# there and is flagged.
# BHHH converges linearly and a Hessian costs about four score passes, so
# BHHH hands over once it slows, not once it stalls, and the exact phase
# closes the rest to _GTOL.  _SWITCH_GAIN is the largest gain of a sweep
# over 17 paper-like panels (n = 500 to 20,000) at which the estimates moved
# by under 1e-4 SE against a hand-over at 1e-6: by at most 4.2e-6 SE, and
# by 8.4e-5 SE at one flat optimum, which 1e-1 moved by 1.1e-3 SE.  Three
# panels that do not identify a wave dummy moved by 2e-4 to 4.1e-4 SE, as
# far as 1e-3 moved them.  Iterations fell from 10-61 to 8-27; at
# n = 20,000, where BHHH converges fast, a fit takes one Hessian more and
# 3-17% longer
_SWITCH_GAIN = 1e-2
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
# At eight waves a block takes 2,608 bytes per individual of workspace in
# loglik_and_score, 5.1 MiB, and about 870 in loglik.  The Hessian holds
# about twice a score pass's arrays per individual, so it takes half blocks,
# 4.9 MiB, which fit in the workspace a fit's score passes size
_BLOCK = 2048
# individuals per block of PanelDesign's build: on the 50,000-person panel a
# build holds 1.4 MiB beside the 10.3 MiB it keeps, where the whole panel's
# steps at once held 4.7 MiB, and takes as long
_BUILD_BLOCK = 1 << 13


class _Workspace:
    """The float arrays of step one's passes, taken from one flat buffer
    that lives as long as its owner, one :func:`fit_msm`.

    Each block of a pass starts with :meth:`reset` and takes its arrays
    front to back, so every later block, a smaller last block and the
    Hessian's half blocks reuse the same memory through views.  A pass hands
    back what it took after a point by setting ``used`` back to it, once
    those arrays are dead.  An array that does not fit is allocated afresh,
    and the buffer grows to the largest block's need at the next reset: a
    new workspace allocates as a pass without one did, and from its second
    block on it allocates nothing.
    """

    def __init__(self):
        self.buffer = np.empty(0)
        self.used = self.need = 0

    def reset(self) -> None:
        if self.need > self.buffer.size:
            self.buffer = np.empty(self.need)
        self.used = 0

    def take(self, *shape: int) -> np.ndarray:
        start = self.used
        self.used += math.prod(shape)
        self.need = max(self.need, self.used)
        if self.used > self.buffer.size:
            return np.empty(shape)
        return self.buffer[start: self.used].reshape(shape)


def _step_sum(terms) -> np.ndarray:
    """terms[0] + terms[1] + ..., added in that order, so that no sum's bits
    depend on how many individuals a block holds."""
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


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
    return np.concatenate([np.atleast_1d(getattr(params, name)) for name in FIELDS])


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
    Covariates and spline bases depend only on data, so they are built once,
    one step at a time.  The design stores nothing it can derive: the codes
    take one byte, the wave indices the narrowest integer that holds
    ``structure.n_waves``, and ``active`` and ``age_centered`` are derived
    on access.
    :meth:`loglik`, :meth:`loglik_and_score` and :meth:`hessian` share one
    block loop, :meth:`_blocks`, that works on _BLOCK individuals at a time
    (half as many in the Hessian); the score pass and the Hessian each take
    an optional :class:`_Workspace`, which one fit holds for all of its
    calls.  The recursions' arrays run by step, then individual, so that a
    step's cells are contiguous.
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

        # the codes, widths and waves by individual and step are stored step by
        # step, so that a step's cells, which the recursions take one step at a
        # time, are contiguous; observation code by cell: the state less one,
        # 3 at padding
        self.state_idx = np.full((mmax, self.n), 3, dtype=np.int8).T
        self.female = p.female[starts].astype(float)
        self.widths = np.zeros((self.n_steps, self.n)).T
        # signed, and wide enough for the last wave: a signed type holds
        # n_waves exactly when it holds -n_waves - 1
        self.waves = np.ones((self.n_steps, self.n),
                             dtype=np.min_scalar_type(-structure.n_waves - 1)).T
        # covariate design at the interval's left endpoint; a padded step's is
        # that of the reference age, zero
        self.basis = np.zeros((self.n, self.n_steps, structure.n_basis))
        # observation k of every individual that has one is row starts + k,
        # and it opens step k when the individual has an observation k + 1;
        # the individuals are taken _BUILD_BLOCK at a time, so that a step's
        # temporaries are a block's
        for lo in range(0, self.n, _BUILD_BLOCK):
            for k in range(mmax):
                cell = lo + np.flatnonzero(counts[lo: lo + _BUILD_BLOCK] > k)
                row = starts[cell] + k
                self.state_idx[cell, k] = p.states[row] - 1
                if k == self.n_steps:
                    break
                opens = counts[cell] > k + 1
                cell, row = cell[opens], row[opens]
                self.widths[cell, k] = p.times[row + 1] - p.times[row]
                try:
                    self.waves[cell, k] = structure.wave_indices(p.times[row])
                except InvalidArgumentError:
                    # raised again for the first bad time in row order
                    structure.wave_indices(p.times[np.r_[p.ids[1:] == p.ids[:-1], False]])
                    raise
                self.basis[cell, k] = covariate_design(structure, p.ages[row])

    @property
    def active(self) -> np.ndarray:
        """Which (individual, step) cells are real: step j is when the
        individual has an observation j+1."""
        return self.state_idx[:, 1:] != 3

    @property
    def age_centered(self) -> np.ndarray:
        """Age at each step's left endpoint less ``structure.ref_age``, a view:
        the first column of the spline basis, whose first function is the
        age itself."""
        return self.basis[..., 0]

    def _slots(self) -> np.ndarray:
        """The local coordinate (see ``FIELDS``) that each entry of the flat
        parameter vector moves."""
        return np.concatenate([np.full(size or 1, FIELDS[name][0])
                               for name, size in param_layout(self.structure)])

    def param_scales(self) -> np.ndarray:
        """Typical regressor magnitude per parameter, used to precondition
        the optimizer: the root mean square of its row of the design over
        the active steps and at least one, so that dummies, baselines and
        logits scale at one.  The design is built one step at a time."""
        active = self.active
        squares = sum(np.sum(self._step_design(j)[:, act] ** 2, axis=1)
                      for j, act in enumerate(active.T))
        return np.maximum(1.0, np.sqrt(squares / np.count_nonzero(active)))

    def loglik(self, gamma: np.ndarray) -> float:
        """Total forward-algorithm log likelihood at parameter vector gamma.
        The per-individual values come from the one block loop,
        :meth:`_blocks`, and are summed once, in fixed id order, so that the
        total does not depend on the block size.  The working arrays are
        allocated block by block."""
        lls = np.empty(self.n)
        for rows, b in self._blocks(_BLOCK):
            lls[rows] = b._forward(gamma, None)
        return float(lls.sum())

    def _blocks(self, size: int, work: _Workspace | None = None):
        """The one block loop of step one: this design's individuals in id
        order, ``size`` at a time, each block its slice of rows and a design
        of views of this one's arrays, and each the start of the arrays it
        takes from ``work``.  Every term of the likelihood, the score and
        the Hessian belongs to one individual, so blocks change no number
        but the order of the Hessian's sum over them; they bound the working
        arrays, which grow with the block."""
        for lo in range(0, self.n, size):
            rows = slice(lo, lo + size)
            if work is not None:
                work.reset()
            yield rows, self._individuals(rows)

    def _forward(self, gamma: np.ndarray, tape: dict | None,
                 work: _Workspace | None = None) -> np.ndarray:
        """Per-individual log likelihoods by the rescaled forward recursion,
        the sums of the log normalisers c_k.  A zero normaliser, which only
        an impossible sequence gives, makes that individual's log likelihood
        -inf and its filtered probabilities zero from there on.

        With a ``tape`` dict, also records what :meth:`_backward`, the
        score and the Hessian need, in arrays indexed by step or
        observation, then individual: the parameters and the probabilities
        e12, e21 and p2 of their logits; the rates, their clip slopes
        dq/dlin = d2q/dlin2, each (3, steps, n), and the transition entries,
        each (steps, n); the emission table ``emit`` (rows by
        observation code, see ``state_idx``, columns by true state); the
        filtered probabilities ``alpha`` and the predicted (pre-emission)
        probabilities ``pred``, each (steps + 1, n, 3), and the normalisers
        ``raw``, (steps + 1, n).  Two slots of the emission factors, and
        without a tape of every array, serve the whole recursion.  The
        arrays come from ``work``, or are allocated when there is none.
        """
        take = (work or _Workspace()).take
        params = unpack_params(gamma, self.structure)
        steps, n = self.n_steps, self.n
        lins = take(3, steps, n)
        lins[0], lins[1], lins[2] = (lin.T for lin in log_intensities(
            params, self.waves, self.female[:, None], self.basis
        ))
        rates = np.clip(lins, -_LIN_CLIP, _LIN_CLIP, out=take(3, steps, n))
        np.exp(rates, out=rates)
        p11, p12, p13, p22, p23 = entries = transition_entries(*rates, self.widths.T,
                                                               out=take(5, steps, n))

        # emission factors by observation code (rows; code 3 pads) and true state
        e12, e21, p2 = map(logistic, (params.logit_e12, params.logit_e21, params.logit_p2))
        emit = np.vstack((misclassification_matrix(e12, e21).T, np.ones(3)))

        m = steps + 1
        slots = m if tape is not None else 2
        obs = take(2, 3, n).swapaxes(1, 2)
        alpha, pred = (take(slots, 3, n).swapaxes(1, 2) for _ in range(2))
        raw = take(slots, n)
        loglik = take(n)
        loglik[:] = 0.0
        pred[0] = 1.0 - p2, p2, 0.0
        with np.errstate(divide="ignore"):  # log 0 = -inf
            for k in range(m):
                now = k % slots
                if k:
                    # alpha times the upper-triangular transition matrix, death absorbing
                    j = k - 1
                    a0, a1, a2 = alpha[j % slots].T
                    to0, to1, to2 = pred[now].T
                    np.multiply(a0, p11[j], out=to0)
                    np.multiply(a0, p12[j], out=to1)
                    to1 += a1 * p22[j]
                    np.multiply(a0, p13[j], out=to2)
                    to2 += a1 * p23[j]
                    to2 += a2
                # the codes are valid, and "clip" writes out= without a buffer
                np.take(emit.T, self.state_idx[:, k], axis=1, out=obs[k % 2].T, mode="clip")
                np.multiply(pred[now], obs[k % 2], out=alpha[now])
                # the sum over states as two adds, which a reduction over an
                # axis of three is several times slower than
                np.add(alpha[now, :, 0], alpha[now, :, 1], out=raw[now])
                raw[now] += alpha[now, :, 2]
                loglik += np.log(raw[now])
                alpha[now] /= np.where(raw[now] > 0.0, raw[now], 1.0)[:, None]
        if tape is not None:
            # the clip slope is the rate inside the clip and zero outside
            slopes = np.abs(lins, out=lins)
            np.less(slopes, _LIN_CLIP, out=slopes)
            slopes *= rates
            tape.update(params=params, rates=rates, slopes=slopes, entries=entries,
                        e12=e12, e21=e21, p2=p2, emit=emit, alpha=alpha, pred=pred, raw=raw)
        return loglik

    def loglik_and_score(self, gamma: np.ndarray,
                         work: _Workspace | None = None) -> tuple[float, np.ndarray]:
        """Log likelihood (equal to :meth:`loglik`) and the per-individual
        score matrix, one row per individual in id order, one column per
        parameter.

        One forward pass is followed by :meth:`_backward`: with its rescaled
        backward variables beta, dl/dP_j(r, s) = alpha_j(r) e_{j+1}(s)
        beta_{j+1}(s) / c_{j+1}, and similarly for the emission and
        initial-state entries.  Contracted with :func:`free_entries_grad` and
        the clip slopes, they give the adjoints of the three log-intensity
        grids, (3, steps, n); with those of the emission logits, these are
        the local adjoints that :meth:`_score_rows` carries to the
        parameters field by field.
        The score is the gradient of the clipped function, so it is zero in
        a cell where |lin| >= 30, and it is exact wherever the likelihood is
        positive.  Where alpha underflows, beta grows like the inverse of
        the normalisers, and their product can overflow while the log
        likelihood is finite; :func:`fit_msm` rejects such a point.

        The working arrays come from ``work`` (see :class:`_Workspace`), or
        from a workspace of this call alone; the returned arrays are always
        new.  The score is column-major, the layout in which :func:`fit_msm`
        sums it and forms its BHHH product, whose bits it reports.
        """
        work = _Workspace() if work is None else work
        lls, scores = np.empty(self.n), None
        for rows, b in self._blocks(_BLOCK, work):
            lls[rows], block = b._loglik_and_score(gamma, work)
            if scores is None:
                # allocated once the first block's working arrays are freed or held
                scores = np.empty((self.n, block.shape[0]), order="F")
            scores[rows] = block.T
        return float(lls.sum()), scores

    def _loglik_and_score(self, gamma: np.ndarray, work: _Workspace) -> tuple:
        """Per-individual log likelihoods and the score with one row per
        parameter, (p, n), over all of this design's individuals, in arrays
        of ``work``."""
        take = work.take
        tape: dict = {}
        loglik = self._forward(gamma, tape, work)
        ec, betas, h = self._backward(tape, work)
        n, steps = self.n, self.n_steps
        # e beta / c, in place of e / c
        eb = np.multiply(ec, betas, out=ec)
        # by step: alpha_j and (e0, e1, e2) = e beta / c at j + 1
        a0, a1, _ = tape["alpha"][:-1].transpose(2, 0, 1)
        e0, e1, e2 = eb[1:].transpose(2, 0, 1)
        # the log-intensity adjoints lin, the sum over the entries e of
        # grad[e] bars[e] times the clip slopes, are formed in grad[0], and
        # the rest of grad and bars are then dead
        mark = work.used
        grad = free_entries_grad(*tape["rates"], self.widths.T, out=take(3, 3, steps, n))[0]
        # as the rows of P_j sum to one, its free entries p11, p12 and p22
        # carry a0 (e0 - e2), a0 (e1 - e2) and a1 (e1 - e2)
        bars = take(3, steps, n)
        np.subtract(e0, e2, out=bars[0])
        bars[0] *= a0
        np.subtract(e1, e2, out=bars[2])
        np.multiply(a0, bars[2], out=bars[1])
        bars[2] *= a1
        grad *= bars[:, None]
        lin = grad[0]
        lin += grad[1]
        lin += grad[2]
        lin *= tape["slopes"]
        work.used = mark + lin.size
        # the emission logits at each observation: the predicted probability
        # (the initial distribution at 0) times d(e/c) times beta, in place of d(e/c)
        pred = tape["pred"]
        for d_e, state in zip(h, (0, 1)):
            d_e *= pred[:, :, state]
            d_e *= betas[:, :, state]
        p2 = tape["p2"]
        emission = (*_step_sum(h.swapaxes(0, 1)),
                    p2 * (1.0 - p2) * (eb[0, :, 1] - eb[0, :, 0]))
        return loglik, self._score_rows(lin, emission, work)

    def _regressor(self, kind: str) -> np.ndarray:
        """Regressor ``kind`` of ``FIELDS`` at every step, by step, column
        and individual, (steps, k, n): one column for one, none, age and the
        wave index, one per basis function for the spline."""
        if kind == "basis":
            return self.basis.transpose(1, 2, 0)
        if kind in ("one", "none"):
            return np.broadcast_to(float(kind == "one"), (self.n_steps, 1, self.n))
        return getattr(self, kind).T[:, None]

    def _score_rows(self, lin: np.ndarray, emission: tuple, work: _Workspace) -> np.ndarray:
        """Carry the log-intensity adjoints ``lin``, (3, steps, n), and the
        per-individual emission-logit adjoints to the parameters, field by
        field of ``FIELDS``: each field's regressor times the adjoint of
        its local coordinate, summed over steps in order (by
        :func:`_step_sum`; the wave dummies by ``np.bincount``, which adds
        in the same order), times female where marked.  Returns the score
        with one row per parameter, (p, n)."""
        n, steps, T = self.n, self.n_steps, self.structure.n_waves
        rows = work.take(self._slots().size, n)
        terms = work.take(steps, self.structure.n_basis, n)
        sums: dict = {}
        i = 0
        for name, size in param_layout(self.structure):
            slot, kind, female = FIELDS[name]
            field = rows[i: i + (size or 1)]
            i += size or 1
            if slot >= 3:
                field[0] = emission[slot - 3]
            elif kind == "dummy":
                # bin (wave, individual), fed step by step, as intp: a narrow
                # wave index times n would overflow
                cells = (self.waves.T.astype(np.intp) - 1) * n + np.arange(n)
                field[:] = np.bincount(cells.ravel(), lin[slot].ravel(),
                                       minlength=T * n).reshape(T, n)
            else:
                if (slot, kind) not in sums:
                    reg = self._regressor(kind)
                    part = np.multiply(lin[slot][:, None], reg, out=terms[:, :reg.shape[1]])
                    sums[slot, kind] = _step_sum(part)
                np.multiply(sums[slot, kind], self.female if female else 1.0, out=field)
        return rows

    def _step_design(self, j: int, out: np.ndarray | None = None) -> np.ndarray:
        """Design of step j folded to one row per parameter and one column
        per individual, written into ``out`` when it is given: the
        derivative of the step's local coordinate that the parameter enters
        (see ``FIELDS``) with respect to it."""
        G = np.empty((self._slots().size, self.n)) if out is None else out
        i = 0
        for name, size in param_layout(self.structure):
            _, kind, female = FIELDS[name]
            rows = G[i: i + (size or 1)]
            i += size or 1
            if kind == "dummy":
                np.equal(np.arange(1, size + 1)[:, None], self.waves[:, j], out=rows)
            else:
                rows[:] = self._regressor(kind)[j]
            if female:
                rows *= self.female
        return G

    def hessian(self, gamma: np.ndarray, work: _Workspace | None = None) -> np.ndarray:
        """Hessian of the log likelihood: the Jacobian of the summed score of
        :meth:`loglik_and_score`, under the same convention.  It is a sum
        over individuals, taken over half blocks (rounded up) of the one
        block loop, :meth:`_blocks`, so that its working arrays, the tape
        included, fit in the ``work`` that a score pass sizes (or in a
        workspace of this call alone).
        """
        work = _Workspace() if work is None else work
        return sum(b._hessian(gamma, work) for _, b in self._blocks((_BLOCK + 1) // 2, work))

    def _individuals(self, rows: slice) -> PanelDesign:
        """The design of a block of individuals, as views of this one's arrays."""
        sub = copy.copy(self)
        for name in ("female", "widths", "waves", "basis", "state_idx"):
            setattr(sub, name, getattr(self, name)[rows])
        sub.n = sub.female.size
        return sub

    def _backward(self, tape: dict, work: _Workspace):
        """The one backward recursion, over the tape of :meth:`_forward`.

        The forward pass is rescaled, so step j is the factor
        F_j = P_j diag(e_{j+1}) / c_{j+1} and the initial one is
        pi * e_0 / c_0.  Returns three things, indexed by observation, then
        individual:

        - the emission factors e/c, (steps + 1, n, 3);
        - the rescaled backward variables beta_j = F_j beta_{j+1}, one at
          the last observation, so that alpha_j beta_j = 1, of the same
          shape;
        - (h12, h21), (2, steps + 1, n): the derivatives of e(0)/c in
          logit e12 and of e(1)/c in logit e21, the only emission entries
          that move; their second derivatives are h12 (1 - 2 e12) and
          h21 (1 - 2 e21).

        A zero normaliser is taken as one here, so that nothing is divided
        by zero; that individual's log likelihood is -inf, and its score and
        curvature carry no meaning.  The arrays come from ``work``.
        """
        take = work.take
        p11, p12, p13, p22, p23 = tape["entries"]
        raw = tape["raw"]
        m, n = raw.shape
        ec, h, betas = take(m, 3, n), take(2, m, n), take(m, 3, n).swapaxes(1, 2)
        # 1/c is dead once e/c and d(e/c) are formed
        mark = work.used
        inv_c = take(m, n)
        inv_c[:] = 1.0
        np.divide(1.0, raw, out=inv_c, where=raw > 0.0)
        for k in range(m):
            np.take(tape["emit"].T, self.state_idx[:, k], axis=1, out=ec[k], mode="clip")
        ec = ec.swapaxes(1, 2)
        ec *= inv_c[:, :, None]
        e12, e21 = tape["e12"], tape["e21"]
        # d(e/c) by code (padding 3 is one) is the sign of e(0)/c in logit
        # e12 times e12 (1 - e12), and minus that of e(1)/c in logit e21
        h12, h21 = h
        np.take([-1.0, 1.0, 0.0, 0.0], self.state_idx.T, out=h21, mode="clip")
        h21 *= inv_c
        np.multiply(h21, e12, out=h12)
        h12 *= 1.0 - e12
        np.negative(h21, out=h21)
        h21 *= e21
        h21 *= 1.0 - e21
        work.used = mark

        betas[-1] = 1.0
        for j in range(self.n_steps - 1, -1, -1):
            eb = ec[j + 1] * betas[j + 1]
            betas[j, :, 0] = p11[j] * eb[:, 0] + p12[j] * eb[:, 1] + p13[j] * eb[:, 2]
            betas[j, :, 1] = p22[j] * eb[:, 1] + p23[j] * eb[:, 2]
            betas[j, :, 2] = eb[:, 2]
        return ec, betas, h

    def _hessian(self, gamma: np.ndarray, work: _Workspace) -> np.ndarray:
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
        of its P = I (width zero) vanishes.  The kernel's derivatives come
        from one :func:`free_entries_jet` call over every step.
        """
        take = work.take
        tape: dict = {}
        self._forward(gamma, tape, work)
        ec, betas, (h12, h21) = self._backward(tape, work)
        n, steps = self.n, self.n_steps
        slot = self._slots()
        p = slot.size
        p11, p12, p13, p22, p23 = tape["entries"]
        alphas, preds = tape["alpha"], tape["pred"]
        e12, e21, p2 = tape["e12"], tape["e21"], tape["p2"]
        # the second derivatives of e/c in the logits
        c12, c21 = 1.0 - 2.0 * e12, 1.0 - 2.0 * e21

        # A is gathered as a half whose sum with its transpose is A
        A = np.zeros((p, p))
        S = take(3, p, n)
        S[:] = 0.0
        # initial factor, local coordinates (logit e12, logit e21, logit p2)
        b0, d2 = betas[0], p2 * (1.0 - p2)
        eb0 = ec[0] * b0
        W0 = np.zeros((3, 3, n))
        W0[0, 0] = (1.0 - p2) * (h12[0] * c12) * b0[:, 0]
        W0[1, 1] = p2 * (h21[0] * c21) * b0[:, 1]
        W0[2, 2] = d2 * (1.0 - 2.0 * p2) * (eb0[:, 1] - eb0[:, 0])
        W0[0, 2] = W0[2, 0] = -d2 * h12[0] * b0[:, 0]
        W0[1, 2] = W0[2, 1] = d2 * h21[0] * b0[:, 1]
        init = np.flatnonzero(slot >= 3)
        A[np.ix_(init, init)] = 0.5 * W0.sum(axis=-1)
        S[0, init[[0, 2]]] = (1.0 - p2) * h12[0], -d2 * ec[0, :, 0]
        S[1, init[[1, 2]]] = p2 * h21[0], d2 * ec[0, :, 1]

        # the kernel's derivatives in the log intensities, at every step at once:
        # gl = dP/dq dq/dlin and hl = d2P/dq2 (dq/dlin)^2 + dP/dq d2q/dlin2
        gls, dd = take(3, 3, steps, n), take(2, steps, n)
        mark = work.used
        hls = take(3, 3, 3, steps, n)
        free_entries_jet(*tape["rates"], self.widths.T, out=(gls, hls))
        slopes = tape["slopes"]
        gls *= slopes
        hls *= slopes[:, None] * slopes
        hls[:, [0, 1, 2], [0, 1, 2]] += gls
        # by step, the differences d0, d1 of e beta / c at j + 1 from its state
        # 3; the curvature of each step in the log intensities,
        # alpha_j d2P_j beta_{j+1}, the sum over the free entries of hl times
        # (a0 d0, a0 d1, a1 d1), is formed in hl[0], and the rest is then dead
        eb = np.multiply(ec[1:], betas[1:], out=take(steps, 3, n).swapaxes(1, 2))
        np.subtract(eb[:, :, 0], eb[:, :, 2], out=dd[0])
        np.subtract(eb[:, :, 1], eb[:, :, 2], out=dd[1])
        (a0, a1, _), (d0, d1) = alphas[:-1].transpose(2, 0, 1), dd
        for hl, coef in zip(hls, (a0 * d0, a0 * d1, a1 * d1)):
            hl *= coef
        curv = hls[0]
        curv += hls[1]
        curv += hls[2]
        work.used = mark + curv.size
        R, C, W = take(6, 3, n), take(6, 2, n), take(6, 6, n)
        G, Z, T = take(p, n), take(p, n), take(p, n)
        # the parameters of each local coordinate are a run of the flat vector
        ends = np.searchsorted(slot, np.arange(6), side="right")
        slots = [slice(lo, hi) for lo, hi in zip(np.r_[0, ends[:4]], ends[:5])]
        for j in range(steps):
            k = j + 1
            a0, a1 = alphas[j, :, 0], alphas[j, :, 1]
            bk, eck, pred = betas[k], ec[k], preds[k]
            gl, d0, d1 = gls[:, :, j], dd[0, j], dd[1, j]
            # alpha_j dP_j / dlin has entries (x, y + z, -x - y - z): the rows of dP sum to 0
            x, y, z = a0 * gl[0], a0 * gl[1], a1 * gl[2]
            # local coordinates (lin12, lin13, lin23, logit e12, logit e21,
            # and logit p2, on which no step depends): rows R = alpha_j dF_j,
            # columns C = dF_j beta_{j+1} (state 3's entry is always zero)
            # and curvature W = alpha_j d2F_j beta_{j+1}
            R[:] = 0.0
            R[:3, 0], R[:3, 1], R[:3, 2] = x * eck[:, 0], (y + z) * eck[:, 1], -(x + y + z) * eck[:, 2]
            R[3, 0] = pred[:, 0] * h12[k]
            R[4, 1] = pred[:, 1] * h21[k]
            C[:] = 0.0
            C[:3, 0] = gl[0] * d0 + gl[1] * d1
            C[:3, 1] = gl[2] * d1
            C[3, 0] = p11[j] * h12[k] * bk[:, 0]
            C[4] = p12[j] * h21[k] * bk[:, 1], p22[j] * h21[k] * bk[:, 1]
            W[:] = 0.0
            W[:3, :3] = curv[:, :, j]
            W[:3, 3] = W[3, :3] = x * h12[k] * bk[:, 0]
            W[:3, 4] = W[4, :3] = (y + z) * h21[k] * bk[:, 1]
            W[3, 3] = pred[:, 0] * (h12[k] * c12) * bk[:, 0]
            W[4, 4] = pred[:, 1] * (h21[k] * c21) * bk[:, 1]

            self._step_design(j, out=G)
            # within the step, 0.5 D_j' W D_j, a slot of rows at a time (each
            # take spreads a local coordinate's row over its parameters)
            for c, rows in enumerate(slots):
                np.take(W[c], slot, axis=0, out=Z, mode="clip")
                Z *= G
                A[rows] += 0.5 * (G[rows] @ Z.T)
            # across steps, (D_j' C_s) S_s' for the states s = 0, 1 (C is zero at the slot of p2)
            for s in range(2):
                np.take(C[:, s], slot, axis=0, out=Z, mode="clip")
                Z *= G
                A += Z @ S[s].T
            # S <- S F_j with F_j = P_j diag(e/c) upper triangular, last state first
            f0, f1, f2 = eck.T
            np.multiply(S[0], p13[j] * f2, out=T)
            T += np.multiply(S[1], p23[j] * f2, out=Z)
            S[2] *= f2
            S[2] += T
            np.multiply(S[0], p12[j] * f1, out=T)
            S[1] *= p22[j] * f1
            S[1] += T
            S[0] *= p11[j] * f0
            for s in range(3):
                np.take(R[:, s], slot, axis=0, out=Z, mode="clip")
                Z *= G
                S[s] += Z
        s = S.sum(axis=0)
        return A + A.T - s @ s.T


# ---------------------------------------------------------------------------
# fitting


def _default_start(design: PanelDesign, structure: ModelStructure) -> np.ndarray:
    """Heuristic start: crude rates for levels, zeros for covariate effects."""
    # observation codes are the states less one
    codes = design.state_idx
    active = design.active
    from1 = (codes[:, :-1] == 0) & active
    from2 = (codes[:, :-1] == 1) & active
    w = design.widths
    py1 = float(np.sum(w[from1])) + 1e-9
    py2 = float(np.sum(w[from2])) + 1e-9
    onset = float(np.sum(from1 & (codes[:, 1:] == 1)))
    death1 = float(np.sum(from1 & (codes[:, 1:] == 2)))
    death2 = float(np.sum(from2 & (codes[:, 1:] == 2)))
    rate12 = max(onset / py1, 1e-5)
    rate13 = max(death1 / py1, 1e-5)
    rate23 = max(death2 / py2, max(death1 / py1, 1e-5) * 2.0)
    share2 = np.clip(np.mean(codes[:, 0] == 1), 1e-4, 0.5)

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


def fit_msm(panel: Panel, structure: ModelStructure, maxiter: int = 500,
            validate: bool = True) -> dict:
    """Maximize the misclassified-panel likelihood from the crude rates of
    :func:`_default_start`; return the ``estimate.json`` document.

    A trust-region Newton method (scipy ``trust-exact``) runs on the
    analytic score of :meth:`PanelDesign.loglik_and_score`.  Its curvature
    starts as the BHHH matrix, the sum of outer products of the
    per-individual scores, which comes from the same pass.  Once an
    accepted iteration gains less than 1e-2 in log likelihood, or after 50
    BHHH iterations, the fit continues with the exact curvature of
    :meth:`PanelDesign.hessian`, one forward sweep per point.  It stops when the
    score's Euclidean norm in the scaled coordinates is below 1e-5, or when
    the exact model can no longer predict a gain above round-off.
    ``maxiter`` (at least 1) bounds the trust-region iterations.
    Non-convergence is flagged in the document, never raised; a start point
    whose log likelihood or score is not finite raises ``NumericalError``.
    Every score pass and Hessian of the fit take their working arrays from
    one :class:`_Workspace`, sized by the first block and dropped when the
    fit returns.
    ``validate=False`` skips the schema checks of a panel the caller has
    already passed through :func:`validate_panel`.

    The document's keys, in order: ``names`` (:func:`param_names`);
    ``estimate`` and ``se``, arrays; ``free``, all true; ``loglik``, the
    value of the score pass at the final point; ``converged``;
    ``iterations``, over both phases; ``n_transitions``; ``covariance``, the
    inverse of the exact information at the final point, or zeros where
    that has a negative eigenvalue; and ``warnings``.

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

    # optimize z = scale * gamma so that the trust region, a ball, is not
    # stretched by covariate columns of large typical magnitude
    scale = design.param_scales()

    # the working arrays of every score pass and Hessian of this fit
    work = _Workspace()

    def nll_and_grad(z: np.ndarray):
        # where alpha underflows, far from the data, beta grows and the
        # score can overflow; that point is rejected below, as is one where
        # the log likelihood is -inf
        with np.errstate(over="ignore", invalid="ignore"):
            value, scores = design.loglik_and_score(z / scale, work)
        scores /= scale
        if not (np.isfinite(value) and np.all(np.isfinite(scores))):
            # a point the trust region must reject
            return _REJECTED, np.zeros(p), np.zeros_like(scores)
        return -value, -scores.sum(axis=0), scores

    # trust-exact asks for the value, gradient and Hessian at each proposed
    # point separately; one score pass answers all three
    last: dict = {}

    def at(z: np.ndarray):
        if not np.array_equal(last.get("z"), z):
            last.update(z=z.copy(), out=nll_and_grad(z))
        return last["out"]

    def bhhh(z: np.ndarray) -> np.ndarray:
        scores = at(z)[2]
        return scores.T @ scores

    exact: dict = {}

    def exact_hessian(z: np.ndarray) -> np.ndarray:
        if not np.array_equal(exact.get("z"), z):
            # trust-exact asks for the curvature at each point it proposes,
            # before it rejects one; where the likelihood or score is not
            # finite, the curvature is zero, as the BHHH matrix is there
            if at(z)[0] == _REJECTED:
                H = np.zeros((p, p))
            else:
                H = -design.hessian(z / scale, work)
            exact.update(z=z.copy(), H=H / np.outer(scale, scale))
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

    z_start = _default_start(design, structure) * scale
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
    z = res.x
    warnings: list[str] = []
    if watch["stop"] == "box":
        far = ", ".join(names[i] for i in np.flatnonzero(np.abs(z) > _Z_BOX))
        warnings.append(f"stopped where {far} left the scaled box [-{_Z_BOX:g}, {_Z_BOX:g}]; "
                        "the panel does not identify them")
    elif not converged:
        warnings.append(f"optimizer message: {res.message}")

    cov = np.zeros((p, p))
    # Hessian in the scaled coordinates (well conditioned), mapped back to
    # the natural parameterization: cov_gamma = S^{-1} cov_z S^{-1}
    try:
        cov_z, cov_warnings = hessian_covariance(-exact_hessian(z))
        cov = cov_z / np.outer(scale, scale)
        warnings.extend(cov_warnings)
    except CurvatureError as exc:
        warnings.append(str(exc))
        converged = False

    return {
        "names": names,
        "estimate": z / scale,
        "se": np.sqrt(np.maximum(np.diag(cov), 0.0)),
        # kept so that the document's keys do not change; every parameter is free
        "free": [True] * p,
        # the score pass at the accepted final point already summed it
        "loglik": -float(res.fun),
        "converged": converged,
        "iterations": iterations,
        "n_transitions": design.n_transitions,
        "covariance": cov,
        "warnings": warnings,
    }


# ---------------------------------------------------------------------------
# trend series


def extract_trend(fit: dict, structure: ModelStructure) -> TrendSeries:
    """Slice the wave-dummy block and its covariance out of a fit's
    ``estimate.json`` document, as :func:`fit_msm` returns it or as it is
    read back."""
    if not fit["converged"]:
        raise NumericalError("cannot extract trend from a non-converged fit")
    idx = [fit["names"].index(f"beta_{k}") for k in range(1, structure.n_waves + 1)]
    return TrendSeries(
        beta=np.asarray(fit["estimate"])[idx],
        cov=np.asarray(fit["covariance"])[np.ix_(idx, idx)],
        n_transitions=fit["n_transitions"],
    )

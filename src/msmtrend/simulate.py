"""Synthetic interval-censored panels with misclassification.

Each individual follows the continuous-time illness-death process with
intensities held constant within a wave interval (matching the estimator's
piecewise-constant assumption), simulated by competing exponential clocks.
Only wave-time snapshots are emitted, so transitions are interval censored
and death is recorded at the next wave time.  Observed states for 1 and 2
are misreported with the model's misclassification probabilities; death is
reported exactly.

Randomness is one stream, ``numpy.random.default_rng(seed)``, read as an
(n, m) array of uniforms, m per individual: row i is individual i's.  So a
panel of n individuals is the first n of any larger panel with the same
seed and structure, and blocks of rows drawn in order, as
:func:`simulate_panel` draws them, give the same bytes as one draw.  Panels
drawn before this layout, one ``default_rng([seed, id])`` per individual,
differ; the law of every draw is the same.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidSpecError
from .markov import HazardParams, ModelStructure, covariate_design, log_intensities, logistic
from .panel import Panel

__all__ = ["SimulationConfig", "simulate_panel"]

_DRAWS_PER_INTERVAL = 3  # event clock, destination pick, onward clock
# individuals per block of simulate_panel: a block's uniforms and paths are
# held beside the blocks' columns, not the whole panel's
_BLOCK_ROWS = 1 << 13


@dataclass(frozen=True)
class SimulationConfig:
    """Ground-truth model plus population settings for a synthetic panel."""

    n: int
    structure: ModelStructure
    params: HazardParams
    seed: int
    age_range: tuple = (52.0, 88.0)
    female_share: float = 0.55

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSpecError(f"individual count must be >= 1, got {self.n}")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be >= 0, got {self.seed}")
        lo, hi = self.age_range
        if not (0 < lo < hi):
            raise InvalidSpecError("age_range must satisfy 0 < lo < hi")
        if not 0.0 <= self.female_share <= 1.0:
            raise InvalidSpecError("female_share must lie in [0, 1]")
        self.params.validate(self.structure)


def _latent_paths_vectorized(config: SimulationConfig, u: np.ndarray, age0, fem, state0):
    """All individuals' latent wave states at once.

    ``u`` supplies the path uniforms (3 per interval).  Within interval k the
    intensities are evaluated at the interval's left endpoint (age advances
    deterministically with the wave clock) and the exit time from the
    current state is an exponential clock; a second clock covers an onward
    2->3 move within the same interval.
    """
    structure, params = config.structure, config.params
    T = structure.n_waves
    wt = structure.wave_times
    n = u.shape[0]
    states = np.empty((n, T + 1), dtype=np.int8)
    states[:, 0] = state0
    state = state0.copy()
    for k in range(1, T + 1):
        width = wt[k] - wt[k - 1]
        q12, q13, q23 = np.exp(log_intensities(
            params, np.full(n, k), fem, *covariate_design(structure, age0 + wt[k - 1])))
        u1 = u[:, 3 * (k - 1)]
        u2 = u[:, 3 * (k - 1) + 1]
        u3 = u[:, 3 * (k - 1) + 2]

        with np.errstate(divide="ignore"):
            total = q12 + q13
            t_event = np.where(total > 0, -np.log(1.0 - u1) / np.where(total > 0, total, 1.0), np.inf)
            t_onward = np.where(q23 > 0, -np.log(1.0 - u3) / np.where(q23 > 0, q23, 1.0), np.inf)
            t_death2 = np.where(q23 > 0, -np.log(1.0 - u1) / np.where(q23 > 0, q23, 1.0), np.inf)

        from1 = state == 1
        from2 = state == 2
        moved = from1 & (t_event < width)
        to_ill = moved & (u2 < q12 / np.maximum(total, 1e-300))
        to_dead_direct = moved & ~to_ill
        # onset inside the interval may be followed by death before the wave
        onset_then_dead = to_ill & (t_onward < width - t_event)
        die_from2 = from2 & (t_death2 < width)

        new_state = state.copy()
        new_state[to_ill] = 2
        new_state[onset_then_dead | to_dead_direct | die_from2] = 3
        state = new_state
        states[:, k] = state
    return states


def simulate_panel(config: SimulationConfig) -> Panel:
    """Generate an observed panel; deterministic given the seed.  Row i of
    ``default_rng(seed).random((n, m))`` is individual i's uniforms: [age,
    female, initial state, path (3 per interval), report (one per wave)].
    The rows are drawn and simulated in blocks of _BLOCK_ROWS, in order, and
    the blocks' columns joined."""
    T = config.structure.n_waves
    m = 3 + _DRAWS_PER_INTERVAL * T + (T + 1)
    rng = np.random.default_rng(config.seed)
    parts = [_panel_from_uniforms(config, rng.random((min(_BLOCK_ROWS, config.n - start), m)), start)
             for start in range(0, config.n, _BLOCK_ROWS)]
    blocks = [[getattr(part, f.name) for part in parts] for f in fields(Panel)]
    del parts
    return Panel(*map(_join, blocks))


def _join(blocks: list) -> np.ndarray:
    """The blocks of one column joined, and let go before the next is."""
    col = np.concatenate(blocks)
    blocks.clear()
    return col


def _panel_from_uniforms(config: SimulationConfig, u: np.ndarray, first_id: int = 0) -> Panel:
    """The panel whose individual ``first_id + i`` draws from row i of ``u``."""
    structure, params = config.structure, config.params
    T = structure.n_waves
    wt = np.asarray(structure.wave_times)
    lo, hi = config.age_range
    n = u.shape[0]
    e12, e21, p2 = map(logistic, (params.logit_e12, params.logit_e21, params.logit_p2))

    age0 = lo + u[:, 0] * (hi - lo)
    # the codes in one byte, as the panel holds them
    fem = (u[:, 1] < config.female_share).astype(np.int8)
    state0 = np.where(u[:, 2] < p2, 2, 1).astype(np.int8)

    latent = _latent_paths_vectorized(config, u[:, 3: 3 + 3 * T], age0, fem, state0)
    u_obs = u[:, 3 + 3 * T:]
    observed = latent.copy()
    observed[(latent == 1) & (u_obs < e12)] = 2
    observed[(latent == 2) & (u_obs < e21)] = 1

    # emit snapshots up to and including the first observed death
    dead_any = observed == 3
    first_dead = np.where(dead_any.any(axis=1), dead_any.argmax(axis=1), T)
    keep = np.arange(T + 1)[None, :] <= first_dead[:, None]
    rows_per = keep.sum(axis=1)

    ids = np.repeat(np.arange(first_id, first_id + n), rows_per)
    times = np.broadcast_to(wt, (n, T + 1))[keep]
    states = observed[keep]
    ages = np.repeat(age0, rows_per)
    ages += times
    female = np.repeat(fem, rows_per)
    return Panel(ids, times, states, ages, female)

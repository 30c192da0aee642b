"""Synthetic interval-censored panels with misclassification.

Each individual follows the continuous-time illness-death process with
intensities held constant within a wave interval (matching the estimator's
piecewise-constant assumption), simulated by competing exponential clocks.
Only wave-time snapshots are emitted, so transitions are interval censored
and death is recorded at the next wave time.  Observed states for 1 and 2
are misreported with the model's misclassification probabilities; death is
reported exactly.

Randomness is drawn from per-individual substreams keyed by (seed, id) with
a fixed draw budget per individual, so output is independent of generation
order or chunking.  The substreams of all individuals are computed at once,
in ``uint64`` array arithmetic, and are bit-identical to drawing each one
from ``numpy.random.default_rng([seed, id])``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import InvalidSpecError
from .markov import HazardParams, ModelStructure, covariate_design, log_intensities
from .panel import Panel

__all__ = ["SimulationConfig", "simulate_panel"]

_DRAWS_PER_INTERVAL = 3  # event clock, destination pick, onward clock


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


_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier, as (high, low) 64-bit halves
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))


def _seed_words(seed: int, ids: np.ndarray) -> list:
    """``SeedSequence([seed, id]).generate_state(4, np.uint64)`` for each id.

    NumPy's SeedSequence hash, run on ``uint64`` arrays holding 32-bit words:
    the entropy is the seed's little-endian uint32 words followed by the id
    (one word, as ids are below 2**32), mixed into a pool of four words, then
    drawn out as eight words paired into four uint64 values.
    """
    entropy = [np.full(ids.size, seed >> shift & _MASK32, dtype=np.uint64)
               for shift in range(0, max(seed.bit_length(), 1), 32)] + [ids]
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    zero = np.zeros(ids.size, dtype=np.uint64)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, len(entropy)):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    hash_const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[2 * j] | words[2 * j + 1] << 32 for j in range(4)]


def _mulhi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit product a * b, from 32-bit limbs."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    lo_lo, hi_lo, lo_hi = a_lo * b_lo, a_hi * b_lo, a_lo * b_hi
    mid = (lo_lo >> 32) + (hi_lo & _MASK32) + (lo_hi & _MASK32)
    return a_hi * b_hi + (hi_lo >> 32) + (lo_hi >> 32) + (mid >> 32)


def _substream_uniforms(seed: int, n: int, m: int) -> np.ndarray:
    """Row ``id`` is ``np.random.default_rng([seed, id]).random(m)``, for id < n.

    PCG64 (XSL-RR 128/64) is seeded as NumPy seeds it: state 0, increment
    ``2 * initseq + 1``, one step, add ``initstate``, one step.  Each draw
    steps the 128-bit LCG, held as (high, low) uint64 halves, and maps the
    XSL-RR output ``x`` to ``(x >> 11) * 2**-53``.
    """
    s_hi, s_lo, i_hi, i_lo = _seed_words(seed, np.arange(n, dtype=np.uint64))
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    mult_hi, mult_lo = _PCG_MULT

    def step(hi, lo):
        lo_new = lo * mult_lo + inc_lo
        hi_new = hi * mult_lo + lo * mult_hi + _mulhi(lo, mult_lo) + inc_hi
        return hi_new + (lo_new < inc_lo), lo_new

    lo = inc_lo + s_lo
    hi, lo = step(inc_hi + s_hi + (lo < s_lo), lo)
    u = np.empty((m, n))
    for k in range(m):
        hi, lo = step(hi, lo)
        x, rot = hi ^ lo, hi >> 58
        u[k] = (x >> rot | x << (-rot & 63)) >> 11
    u *= 2.0**-53
    return u.T


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
    n = config.n
    states = np.empty((n, T + 1), dtype=np.int64)
    states[:, 0] = state0
    state = state0.copy()
    for k in range(1, T + 1):
        width = wt[k] - wt[k - 1]
        lin12, lin13, lin23 = log_intensities(
            params, np.full(n, k), fem, *covariate_design(structure, age0 + wt[k - 1], fem)
        )
        q12 = np.exp(lin12)
        q13 = np.exp(lin13)
        q23 = np.exp(lin23)
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
    """Generate an observed panel; deterministic given the seed."""
    structure, params = config.structure, config.params
    T = structure.n_waves
    wt = np.asarray(structure.wave_times)
    lo, hi = config.age_range
    e12 = expit(params.logit_e12)
    e21 = expit(params.logit_e21)
    p2 = expit(params.logit_p2)

    # layout per individual: [age, female, initial state, path (3 per
    # interval), report (one per wave)]
    u = _substream_uniforms(config.seed, config.n, 3 + _DRAWS_PER_INTERVAL * T + (T + 1))
    age0 = lo + u[:, 0] * (hi - lo)
    fem = (u[:, 1] < config.female_share).astype(np.int64)
    state0 = np.where(u[:, 2] < p2, 2, 1).astype(np.int64)

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

    ids = np.repeat(np.arange(config.n), rows_per)
    times = np.broadcast_to(wt, (config.n, T + 1))[keep]
    states = observed[keep]
    ages = (age0[:, None] + wt[None, :])[keep]
    female = np.repeat(fem, rows_per)
    return Panel(ids, times, states, ages, female)

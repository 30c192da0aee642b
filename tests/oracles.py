"""Scalar, per-individual reference implementations.

The package computes these on whole arrays; the loops here restate them
one individual at a time so the equivalence tests have something written
apart from the code they judge.
"""

import math

import numpy as np

from msmtrend.errors import InvalidArgumentError
from msmtrend.markov import Covariates, build_intensity


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
        q12, q13, q23 = q.q12, q.q13, q.q23
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

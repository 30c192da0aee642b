import numpy as np
import pytest
from scipy.special import expit

from msmtrend.errors import InvalidSpecError
from msmtrend.markov import HazardParams, ModelStructure, build_intensity, Covariates
from msmtrend.panel import validate_panel
from msmtrend.simulate import SimulationConfig, simulate_panel

from conftest import WAVE_TIMES, paperlike_params, paperlike_structure
from oracles import (
    apply_observation_scheme,
    crude_incidence_rate,
    individual_slices,
    simulate_individual_path,
    transition_probability,
)


def constant_rate_params(rate12: float, rate13: float, rate23: float) -> HazardParams:
    """No covariate or time effects: all three hazards flat."""
    safe_log = lambda r: np.log(r) if r > 0 else -40.0
    return HazardParams(
        beta=np.full(8, safe_log(rate12)),
        log_q13_0=safe_log(rate13),
        log_q23_0=safe_log(rate23),
        logit_e12=-40.0,
        logit_e21=-40.0,
        logit_p2=-40.0,
    )


@pytest.fixture
def flat_structure():
    return ModelStructure(knots=(55.0, 70.0, 85.0), wave_times=WAVE_TIMES)


def test_zero_intensities_everyone_stays_healthy(flat_structure):
    cfg = SimulationConfig(
        n=200, structure=flat_structure, params=constant_rate_params(0, 0, 0), seed=3
    )
    panel = simulate_panel(cfg)
    assert np.all(panel.states == 1)
    assert len(panel) == 200 * 9


def test_exponential_death_fraction(flat_structure):
    # single 1->3 hazard: P(dead by first wave) = 1 - exp(-h w)
    h, w = 0.07, 2.0
    cfg = SimulationConfig(
        n=100_000, structure=flat_structure, params=constant_rate_params(0, h, 0), seed=11
    )
    panel = simulate_panel(cfg).sort()
    first_wave = panel.times == 2.0
    dead = np.sum(panel.states[first_wave] == 3)
    total = np.sum(first_wave)
    want = 1.0 - np.exp(-h * w)
    se = np.sqrt(want * (1 - want) / total)
    assert abs(dead / total - want) < 3 * se


def test_fixed_seed_reproducible(flat_structure):
    cfg = SimulationConfig(
        n=300, structure=flat_structure, params=paperlike_params(), seed=99
    )
    a = simulate_panel(cfg)
    b = simulate_panel(cfg)
    for col in ("ids", "times", "states", "ages", "female"):
        assert getattr(a, col).tobytes() == getattr(b, col).tobytes(), col


def test_vectorized_panel_matches_scalar_reference():
    st = paperlike_structure()
    tr = paperlike_params()
    cfg = SimulationConfig(n=150, structure=st, params=tr, seed=42)
    panel = simulate_panel(cfg).sort()
    lo, hi = cfg.age_range
    rows = np.random.default_rng(42).random((150, 3 + 3 * st.n_waves + st.n_waves + 1))
    for ident in (0, 17, 149):
        u = rows[ident]
        age0 = lo + u[0] * (hi - lo)
        fem = int(u[1] < cfg.female_share)
        s0 = 2 if u[2] < expit(tr.logit_p2) else 1
        path = simulate_individual_path(st, tr, age0, fem, u[3: 3 + 24], s0)
        obs = apply_observation_scheme(path, expit(tr.logit_e12), expit(tr.logit_e21), u[27:])
        dead = np.flatnonzero(obs == 3)
        last = int(dead[0]) if dead.size else st.n_waves
        mask = panel.ids == ident
        np.testing.assert_array_equal(panel.states[mask], obs[: last + 1])
        np.testing.assert_allclose(panel.ages[mask][0], age0)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 1],
                         ids=["0", "1", "2**32-1", "2**32", "2**64+5", "2**128+1"])
def test_panel_is_the_prefix_of_a_larger_panel(seed):
    # row i of the one stream is individual i's at any n: the 300-person
    # panel is the first 300 individuals of the 1,000-person one, byte for byte
    st = paperlike_structure()
    small, large = (simulate_panel(SimulationConfig(n=n, structure=st, params=paperlike_params(),
                                                    seed=seed)) for n in (300, 1000))
    first = large.ids < 300
    for col in ("ids", "times", "states", "ages", "female"):
        assert getattr(small, col).tobytes() == getattr(large, col)[first].tobytes(), col


def test_identity_misclassification_is_noop():
    latent = np.array([1, 1, 2, 2, 3])
    u = np.array([0.5, 0.9, 0.1, 0.7, 0.2])
    observed = apply_observation_scheme(latent, 0.0, 0.0, u)
    np.testing.assert_array_equal(observed, latent)


def test_misreport_frequency_matches_e22():
    # among true state-2 snapshots, the observed-2 share is e22 = 0.779
    rng = np.random.default_rng(5)
    latent = np.full(200_000, 2)
    u = rng.random(latent.size)
    observed = apply_observation_scheme(latent, 0.004, 1.0 - 0.779, u)
    share = np.mean(observed == 2)
    se = np.sqrt(0.779 * 0.221 / latent.size)
    assert abs(share - 0.779) < 3 * se


def test_dead_never_reported_alive():
    st = paperlike_structure()
    cfg = SimulationConfig(n=2000, structure=st, params=paperlike_params(), seed=21)
    panel = simulate_panel(cfg).sort()
    assert not validate_panel(panel)
    for _id, sl in individual_slices(panel):
        s = panel.states[sl]
        dead = np.flatnonzero(s == 3)
        if dead.size:
            assert dead[0] == s.size - 1


def test_config_validation(flat_structure):
    with pytest.raises(InvalidSpecError):
        SimulationConfig(n=0, structure=flat_structure, params=paperlike_params(), seed=1)
    with pytest.raises(InvalidSpecError):
        SimulationConfig(
            n=5, structure=flat_structure, params=paperlike_params(), seed=1, age_range=(80, 60)
        )
    with pytest.raises(InvalidSpecError):
        SimulationConfig(n=5, structure=flat_structure, params=paperlike_params(), seed=-1)


def test_row_count_bounded_by_waves(flat_structure):
    cfg = SimulationConfig(n=500, structure=flat_structure, params=paperlike_params(), seed=8)
    panel = simulate_panel(cfg)
    assert len(panel) <= 500 * 9


def test_crude_incidence_in_published_band():
    # order-of-magnitude check: several-per-1000 person-years
    cfg = SimulationConfig(n=20000, structure=paperlike_structure(), params=paperlike_params(), seed=42)
    rate = 1000 * crude_incidence_rate(simulate_panel(cfg))
    assert 6.0 <= rate <= 12.0


def test_latent_frequencies_match_transition_matrix():
    # wave-to-wave latent transitions converge to the interval probabilities
    st = ModelStructure(knots=(55.0, 70.0, 85.0), wave_times=WAVE_TIMES)
    rng = np.random.default_rng(101)
    for draw in range(5):
        r12, r13, r23 = rng.uniform(0.02, 0.25, size=3)
        params = constant_rate_params(r12, r13, r23)
        n = 100_000
        cfg = SimulationConfig(n=n, structure=st, params=params, seed=1000 + draw)
        panel = simulate_panel(cfg).sort()
        q = build_intensity(st, params, Covariates(70.0, 0), 1)
        p = transition_probability(q, 2.0).matrix
        # transitions out of state 1 over the first interval
        base = panel.times == 0.0
        nxt = panel.times == 2.0
        ids0 = panel.ids[base & (panel.states == 1)]
        states1 = panel.states[nxt]
        ids1 = panel.ids[nxt]
        follow = states1[np.isin(ids1, ids0)]
        counts = np.array([(follow == s).sum() for s in (1, 2, 3)], dtype=float)
        freq = counts / counts.sum()
        for s in range(3):
            se = np.sqrt(max(p[0, s] * (1 - p[0, s]), 1e-12) / counts.sum())
            assert abs(freq[s] - p[0, s]) <= 3 * se + 1e-9, (draw, s, freq[s], p[0, s])

import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import msmtrend.estimator as est
from msmtrend.errors import (CurvatureError, DataValidationError, InvalidArgumentError,
                             NumericalError)
from msmtrend.markov import Covariates, HazardParams, ModelStructure, build_intensity
from msmtrend.panel import Panel
from msmtrend.simulate import SimulationConfig, simulate_panel

from conftest import WAVE_TIMES, paperlike_params, paperlike_structure
from oracles import (design_cells, forward_loglik, hessian_fd, individual_slices, jacobian_fd,
                     legacy_panel, param_scales_by_field, peak_bytes, score_adjoint,
                     transition_probability)


SMALL_STRUCTURE = ModelStructure(knots=(58.0, 68.0, 80.0), wave_times=(0.0, 2.0, 4.0, 6.0))


def random_params(rng, structure) -> HazardParams:
    return HazardParams(
        beta=rng.normal(-3.0, 0.7, size=structure.n_waves),
        female_12=rng.normal(0, 0.3),
        age_spline_12=np.array([rng.normal(0, 0.05), rng.normal(0, 5e-4)]),
        age_spline_f_12=np.array([rng.normal(0, 0.02), rng.normal(0, 2e-4)]),
        log_q13_0=rng.normal(-3.0, 0.5),
        female_13=rng.normal(0, 0.3),
        age_13=rng.normal(0, 0.05),
        trend_13=rng.normal(0, 0.05),
        log_q23_0=rng.normal(-2.5, 0.5),
        female_23=rng.normal(0, 0.3),
        age_23=rng.normal(0, 0.05),
        trend_23=rng.normal(0, 0.05),
        logit_e12=rng.normal(-3.0, 0.8),
        logit_e21=rng.normal(-1.5, 0.8),
        logit_p2=rng.normal(-2.5, 0.5),
    )


def random_panel(rng, structure, n_individuals, max_obs=None) -> Panel:
    """Valid random panel: states free over {1,2,3}, truncated at death."""
    max_obs = max_obs or structure.n_waves + 1
    ids, times, states, ages, female = [], [], [], [], []
    wt = structure.wave_times
    for ident in range(n_individuals):
        m = int(rng.integers(2, max_obs + 1))
        age0 = float(rng.uniform(55.0, 80.0))
        fem = int(rng.integers(0, 2))
        seq = [int(rng.integers(1, 3))]
        for _ in range(m - 1):
            seq.append(int(rng.integers(1, 4)))
        dead = [i for i, s in enumerate(seq) if s == 3]
        if dead:
            seq = seq[: dead[0] + 1]
        for j, s in enumerate(seq):
            ids.append(ident)
            times.append(wt[j])
            states.append(s)
            ages.append(age0 + wt[j])
            female.append(fem)
    return Panel(np.array(ids), np.array(times), np.array(states), np.array(ages), np.array(female))


def enumeration_loglik(panel: Panel, structure, params: HazardParams) -> float:
    """Exhaustive latent-path likelihood, one term per path in S^m."""
    e12 = expit(params.logit_e12)
    e21 = expit(params.logit_e21)
    p2 = expit(params.logit_p2)
    emission = np.array([[1 - e12, e12, 0.0], [e21, 1 - e21, 0.0], [0.0, 0.0, 1.0]])
    init = np.array([1 - p2, p2, 0.0])
    total = 0.0
    p = panel.sort()
    for _id, sl in individual_slices(p):
        obs = p.states[sl] - 1
        t = p.times[sl]
        ages = p.ages[sl]
        fem = int(p.female[sl][0])
        m = obs.size
        mats = []
        for j in range(m - 1):
            wave = int(structure.wave_indices([t[j]])[0])
            q = build_intensity(structure, params, Covariates(float(ages[j]), fem), wave)
            mats.append(transition_probability(q, float(t[j + 1] - t[j])).matrix)
        lik = 0.0
        for path in product(range(3), repeat=m):
            term = init[path[0]] * emission[path[0], obs[0]]
            for j in range(m - 1):
                term *= mats[j][path[j], path[j + 1]] * emission[path[j + 1], obs[j + 1]]
            lik += term
        total += np.log(lik)
    return total


# ---------------------------------------------------------------------------
# forward algorithm against the oracle


def enumeration_panels():
    """Thirty small random panels, each with its own random parameters."""
    rng = np.random.default_rng(314)
    for _ in range(30):
        params = random_params(rng, SMALL_STRUCTURE)
        yield params, random_panel(rng, SMALL_STRUCTURE, n_individuals=5)


def test_forward_equals_enumeration():
    for params, panel in enumeration_panels():
        got = forward_loglik(panel, SMALL_STRUCTURE, params)
        want = enumeration_loglik(panel, SMALL_STRUCTURE, params)
        assert got == pytest.approx(want, abs=1e-12)


def _with_int64_codes(panel: Panel) -> Panel:
    """The panel with its codes as int64, as panels held them before they
    took one byte."""
    wide = Panel(panel.ids, panel.times, panel.states, panel.ages, panel.female)
    wide.states, wide.female = panel.states.astype(np.int64), panel.female.astype(np.int64)
    return wide


def test_one_byte_codes_leave_step_one_unchanged():
    # the codes' width reaches no number: on the enumeration panels and the
    # pipeline panel, int64 codes give the same loglik, and on the pipeline
    # panel the same scores and Hessian, bit for bit
    structure = paperlike_structure()
    pipeline = simulate_panel(SimulationConfig(n=2000, structure=structure,
                                               params=paperlike_params(), seed=2))
    cases = [(panel, SMALL_STRUCTURE, est.pack_params(params, SMALL_STRUCTURE))
             for params, panel in enumeration_panels()]
    cases.append((pipeline, structure, est.pack_params(paperlike_params(), structure)))
    for panel, structure, gamma in cases:
        assert panel.states.dtype == panel.female.dtype == np.int8
        narrow, wide = (est.PanelDesign(p, structure) for p in (panel, _with_int64_codes(panel)))
        assert narrow.loglik(gamma) == wide.loglik(gamma)
    (ll, scores), (ll_wide, scores_wide) = (d.loglik_and_score(gamma) for d in (narrow, wide))
    assert ll == ll_wide and scores.tobytes() == scores_wide.tobytes()
    assert narrow.hessian(gamma).tobytes() == wide.hessian(gamma).tobytes()


def test_param_pack_unpack_roundtrip():
    rng = np.random.default_rng(44)
    params = random_params(rng, SMALL_STRUCTURE)
    vec = est.pack_params(params, SMALL_STRUCTURE)
    assert vec.size == len(est.param_names(SMALL_STRUCTURE))
    back = est.unpack_params(vec, SMALL_STRUCTURE)
    np.testing.assert_array_equal(est.pack_params(back, SMALL_STRUCTURE), vec)


def test_misclassification_matrix_structure():
    e = est.misclassification_matrix(0.004, 0.221)
    np.testing.assert_allclose(e.sum(axis=1), 1.0, atol=1e-15)
    assert e[2, 2] == 1.0 and e[2, 0] == 0.0 and e[2, 1] == 0.0
    assert e[0, 2] == 0.0 and e[1, 2] == 0.0
    with pytest.raises(InvalidArgumentError):
        est.misclassification_matrix(1.2, 0.1)


def test_single_observation_contributes_initial_factor_only():
    # one individual with a single wave plus one normal individual: the
    # singleton adds exactly log(pi' E[:, obs]) to the likelihood
    rng = np.random.default_rng(55)
    params = random_params(rng, SMALL_STRUCTURE)
    base = Panel(np.array([1, 1]), np.array([0.0, 2.0]), np.array([1, 1]),
                 np.array([66.0, 68.0]), np.array([0, 0]))
    with_single = Panel(
        np.array([1, 1, 2]), np.array([0.0, 2.0, 0.0]), np.array([1, 1, 2]),
        np.array([66.0, 68.0, 71.0]), np.array([0, 0, 1]),
    )
    from scipy.special import expit as sig
    p2 = sig(params.logit_p2)
    emission = est.misclassification_matrix(sig(params.logit_e12), sig(params.logit_e21))
    init = np.array([1 - p2, p2, 0.0])
    extra = np.log(float(init @ emission[:, 1]))  # observed state 2
    got = forward_loglik(with_single, SMALL_STRUCTURE, params)
    want = forward_loglik(base, SMALL_STRUCTURE, params) + extra
    assert got == pytest.approx(want, abs=1e-12)


def test_single_individual_one_wave():
    # identity misclassification, one 1->1 transition: log pi_1 + log p11
    params = HazardParams(
        beta=np.full(3, -2.0),
        log_q13_0=-2.5,
        log_q23_0=-2.0,
        logit_e12=-40.0,
        logit_e21=-40.0,
        logit_p2=-1.2,
    )
    panel = Panel(np.array([1, 1]), np.array([0.0, 2.0]), np.array([1, 1]),
                  np.array([66.0, 68.0]), np.array([0, 0]))
    q = build_intensity(SMALL_STRUCTURE, params, Covariates(66.0, 0), 1)
    p11 = transition_probability(q, 2.0).matrix[0, 0]
    want = np.log(1.0 - expit(-1.2)) + np.log(p11)
    got = forward_loglik(panel, SMALL_STRUCTURE, params)
    assert got == pytest.approx(want, rel=1e-12)


def test_total_probability_over_observed_sequences():
    structure = ModelStructure(knots=(58.0, 68.0, 80.0), wave_times=(0.0, 2.0, 4.0))
    rng = np.random.default_rng(9)
    params = random_params(rng, structure)
    total = 0.0
    for seq in product((1, 2, 3), repeat=3):
        panel = Panel(
            np.zeros(3, dtype=int), np.array([0.0, 2.0, 4.0]), np.array(seq),
            np.array([70.0, 72.0, 74.0]), np.zeros(3, dtype=int),
        )
        ll = forward_loglik(panel, structure, params, validate=False)
        total += np.exp(ll)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_order_invariance():
    rng = np.random.default_rng(77)
    params = random_params(rng, SMALL_STRUCTURE)
    panel = random_panel(rng, SMALL_STRUCTURE, n_individuals=20)
    base = forward_loglik(panel, SMALL_STRUCTURE, params)
    perm = rng.permutation(len(panel))
    shuffled = Panel(panel.ids[perm], panel.times[perm], panel.states[perm],
                     panel.ages[perm], panel.female[perm])
    assert forward_loglik(shuffled, SMALL_STRUCTURE, params) == pytest.approx(base, abs=1e-10)


def test_observation_after_death_rejected():
    panel = Panel(np.array([1, 1, 1]), np.array([0.0, 2.0, 4.0]), np.array([1, 3, 1]),
                  np.array([66.0, 68.0, 70.0]), np.array([0, 0, 0]))
    params = random_params(np.random.default_rng(0), SMALL_STRUCTURE)
    with pytest.raises(DataValidationError):
        forward_loglik(panel, SMALL_STRUCTURE, params)


# ---------------------------------------------------------------------------
# analytic score


def assert_score_matches_fd(design, gamma):
    _, scores = design.loglik_and_score(gamma)
    want = est.gradient_fd(design.loglik, gamma, step=1e-6)
    assert np.all(np.isfinite(scores))
    assert np.abs(scores.sum(axis=0) - want).max() <= 1e-6 * np.abs(want).max()


def test_score_pass_loglik_equals_loglik():
    for params, panel in enumeration_panels():
        design = est.PanelDesign(panel, SMALL_STRUCTURE)
        gamma = est.pack_params(params, SMALL_STRUCTURE)
        loglik, scores = design.loglik_and_score(gamma)
        assert loglik == design.loglik(gamma)
        assert scores.shape == (design.n, gamma.size)


def test_score_matches_gradient_fd_on_enumeration_panels():
    for params, panel in enumeration_panels():
        assert_score_matches_fd(est.PanelDesign(panel, SMALL_STRUCTURE),
                                est.pack_params(params, SMALL_STRUCTURE))


def beyond_the_clip_cases():
    """Wave dummies and mortality baselines pushed well past |lin| = 30 on
    some cells; yields (design, gamma, k), where every cell of parameter k
    is past the clip."""
    rng = np.random.default_rng(2718)
    names = est.param_names(SMALL_STRUCTURE)
    for shift in ({"beta_1": -36.0}, {"beta_2": 36.0}, {"log_q13_0": -40.0},
                  {"log_q23_0": 37.0, "beta_3": -45.0}):
        params = random_params(rng, SMALL_STRUCTURE)
        panel = random_panel(rng, SMALL_STRUCTURE, n_individuals=12)
        gamma = est.pack_params(params, SMALL_STRUCTURE)
        for name, value in shift.items():
            gamma[names.index(name)] = value
        yield est.PanelDesign(panel, SMALL_STRUCTURE), gamma, names.index(next(iter(shift)))


def test_score_matches_gradient_fd_beyond_the_clip():
    # the score is that of the clipped function, zero past the clip
    for design, gamma, k in beyond_the_clip_cases():
        assert_score_matches_fd(design, gamma)
        _, scores = design.loglik_and_score(gamma)
        assert np.all(scores[:, k] == 0.0)


@pytest.fixture(scope="module")
def pipeline_design():
    """The benchmark's fixed CLI panel: paper-like truth, 2,000 people, seed 2."""
    structure = paperlike_structure()
    panel = simulate_panel(SimulationConfig(n=2000, structure=structure,
                                            params=paperlike_params(), seed=2))
    return est.PanelDesign(panel, structure)


def test_score_matches_gradient_fd_on_pipeline_panel(pipeline_design):
    rng = np.random.default_rng(99)
    truth = est.pack_params(paperlike_params(), pipeline_design.structure)
    for _ in range(3):
        assert_score_matches_fd(pipeline_design, truth + rng.normal(0.0, 0.2, truth.size))


def test_score_matches_adjoint_oracle(pipeline_design):
    # the score from the shared backward variables against the exact adjoint
    # of the forward recursion that it replaced, on every panel family
    cases = [(est.PanelDesign(panel, SMALL_STRUCTURE), est.pack_params(params, SMALL_STRUCTURE))
             for params, panel in enumeration_panels()]
    cases += [(design, gamma) for design, gamma, _ in beyond_the_clip_cases()]
    cases.append((pipeline_design, est.pack_params(paperlike_params(), pipeline_design.structure)))
    for design, gamma in cases:
        loglik, scores = design.loglik_and_score(gamma)
        want_loglik, want = score_adjoint(design, gamma)
        assert loglik == want_loglik
        assert np.abs(scores - want).max() <= 1e-12 * np.abs(want).max()


def test_param_scales_are_the_design_rows_rms(pipeline_design):
    # the root mean square of each design row equals the per-field formula,
    # and the design is built a step at a time, never as one (p, n, steps)
    # array
    for design in (pipeline_design, *(est.PanelDesign(panel, SMALL_STRUCTURE)
                                      for _, panel in enumeration_panels())):
        want = param_scales_by_field(design)
        assert np.abs(design.param_scales() - want).max() <= 1e-13 * np.abs(want).max()
    design = pipeline_design
    peak = peak_bytes(design.param_scales)
    assert peak < 0.5 * len(est.param_names(design.structure)) * design.n * design.n_steps * 8


def test_exact_information_matches_hessian_fd():
    structure = paperlike_structure()
    panel = simulate_panel(SimulationConfig(n=300, structure=structure,
                                            params=paperlike_params(), seed=4))
    design = est.PanelDesign(panel, structure)
    gamma = est.pack_params(paperlike_params(), structure)
    exact = jacobian_fd(lambda g: design.loglik_and_score(g)[1].sum(axis=0), gamma)
    # hessian_fd's error at its 1e-4 step is round-off, about eps |l| / h^2
    # (about 1e-7 here); the score differences' is far smaller
    fd = hessian_fd(design.loglik, gamma)
    assert np.abs(exact - fd).max() <= 1e-5 * np.abs(fd).max()
    np.testing.assert_allclose(exact, exact.T, rtol=1e-6, atol=1e-6 * np.abs(exact).max())


def test_score_handles_impossible_sequences():
    # with validation off, a dead-then-alive sequence has a zero normaliser:
    # its log likelihood is exactly -inf, with no RuntimeWarning, and the
    # other individual's score row is that of its own one-person panel
    panel = small_panel([1, 1, 1, 2, 2], [0.0, 2.0, 4.0, 0.0, 2.0], [1, 3, 1, 1, 2])
    design = est.PanelDesign(panel, SMALL_STRUCTURE, validate=False)
    gamma = est.pack_params(random_params(np.random.default_rng(8), SMALL_STRUCTURE),
                            SMALL_STRUCTURE)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        per_individual = design._forward(gamma, None)
        loglik, scores = design.loglik_and_score(gamma)
        assert per_individual[0] == -np.inf and np.isfinite(per_individual[1])
        assert loglik == design.loglik(gamma) == -np.inf
        alone = est.PanelDesign(small_panel([2, 2], [0.0, 2.0], [1, 2]), SMALL_STRUCTURE)
        np.testing.assert_array_equal(scores[1], alone.loglik_and_score(gamma)[1][0])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_scores_invariant_to_relabelling_and_row_order(seed):
    rng = np.random.default_rng(seed)
    params = random_params(rng, SMALL_STRUCTURE)
    panel = random_panel(rng, SMALL_STRUCTURE, n_individuals=8)
    gamma = est.pack_params(params, SMALL_STRUCTURE)
    base = est.PanelDesign(panel, SMALL_STRUCTURE).loglik_and_score(gamma)[1]
    # a random injective relabelling of the ids, then a random row order
    old_ids = np.unique(panel.ids)
    new_ids = rng.choice(10_000, size=old_ids.size, replace=False)
    relabel = dict(zip(old_ids.tolist(), new_ids.tolist()))
    perm = rng.permutation(len(panel))
    moved = Panel(np.array([relabel[i] for i in panel.ids[perm]]), panel.times[perm],
                  panel.states[perm], panel.ages[perm], panel.female[perm])
    got = est.PanelDesign(moved, SMALL_STRUCTURE).loglik_and_score(gamma)[1]
    # row k of ``base`` belongs to old_ids[k], which is now new_ids[k]
    rows = np.searchsorted(np.sort(new_ids), new_ids)
    np.testing.assert_allclose(got[rows], base, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# exact Hessian


def assert_hessian_matches_fd(design, gamma) -> np.ndarray:
    # the Jacobian of the score as loglik_and_score defines it, clip
    # included; the exact matrix is also symmetric to round-off
    H = design.hessian(gamma)
    want = jacobian_fd(lambda g: design.loglik_and_score(g)[1].sum(axis=0), gamma)
    assert np.all(np.isfinite(H))
    assert np.abs(H - want).max() <= 1e-6 * np.abs(want).max()
    assert np.abs(H - H.T).max() <= 1e-12 * np.abs(H).max()
    return H


def test_hessian_matches_score_jacobian_on_enumeration_panels():
    for params, panel in enumeration_panels():
        assert_hessian_matches_fd(est.PanelDesign(panel, SMALL_STRUCTURE),
                                  est.pack_params(params, SMALL_STRUCTURE))


def test_hessian_matches_score_jacobian_beyond_the_clip():
    # the likelihood is flat in a parameter whose every cell is past the
    # clip, so its row and column are zero
    for design, gamma, k in beyond_the_clip_cases():
        H = assert_hessian_matches_fd(design, gamma)
        assert np.all(H[k] == 0.0) and np.all(H[:, k] == 0.0)


def test_fit_refuses_an_impossible_start():
    # a dead-then-alive sequence has zero likelihood everywhere: the fit
    # refuses the start point rather than stop there at once, "converged"
    panel = small_panel([1, 1, 1, 2, 2], [0.0, 2.0, 4.0, 0.0, 2.0], [1, 3, 1, 1, 2])
    with pytest.raises(NumericalError, match=r"^the log likelihood or its score is not finite "
                                             r"at the start point$"):
        est.fit_msm(panel, SMALL_STRUCTURE, validate=False)


def test_score_is_the_gradient_below_1e_300():
    # a normaliser positive but below 1e-300 (p11 near e^-692 in wave 1,
    # misreporting near e^-700), with live steps after it: the score is
    # still the gradient of the log likelihood, and the Hessian its Jacobian
    panel = small_panel([1, 1, 1, 1, 2, 2, 2], [0.0, 2.0, 4.0, 6.0, 0.0, 2.0, 4.0],
                        [1, 1, 1, 2, 1, 2, 3])
    design = est.PanelDesign(panel, SMALL_STRUCTURE, validate=False)
    names = est.param_names(SMALL_STRUCTURE)
    gamma = est.pack_params(random_params(np.random.default_rng(8), SMALL_STRUCTURE),
                            SMALL_STRUCTURE)
    for name, value in {"logit_e12": -700.0, "logit_e21": -700.0, "logit_p2": -2.0,
                        "log_q13_0": 14.7, "trend_13": -8.85, "age_13": 0.0,
                        "female_13": 0.0}.items():
        gamma[names.index(name)] = value
    tape: dict = {}
    design._forward(gamma, tape)
    assert 0.0 < tape["raw"][1, 0] < 1e-300 and tape["raw"][2, 0] >= 1e-300
    assert_score_matches_fd(design, gamma)
    assert_hessian_matches_fd(design, gamma)


def test_hessian_matches_score_jacobian_on_pipeline_panel(pipeline_design):
    rng = np.random.default_rng(99)
    truth = est.pack_params(paperlike_params(), pipeline_design.structure)
    assert_hessian_matches_fd(pipeline_design, truth)
    for _ in range(3):
        assert_hessian_matches_fd(pipeline_design, truth + rng.normal(0.0, 0.2, truth.size))


def test_hessian_peak_memory_stays_near_a_score_pass(pipeline_design):
    # the sweep works on blocks of individuals and keeps no per-step
    # parameter tensor, so it needs little more memory than a score pass
    gamma = est.pack_params(paperlike_params(), pipeline_design.structure)
    assert (peak_bytes(pipeline_design.hessian, gamma)
            <= 1.5 * peak_bytes(pipeline_design.loglik_and_score, gamma))


@pytest.mark.parametrize("block", [1, 7, 1000, None])
def test_block_partition_leaves_step_one_unchanged(monkeypatch, pipeline_design, block):
    # each individual's terms are computed alone, and the log likelihood is
    # summed once over all of them: only the Hessian's sum over blocks
    # depends on the partition.  A _BLOCK of 2n makes every pass one block,
    # the Hessian's half blocks included (None); one-person blocks take the
    # pipeline panel's first 150 people, which keeps the test short
    design = pipeline_design if block != 1 else pipeline_design._individuals(slice(0, 150))
    cases = [(design, est.pack_params(paperlike_params(), design.structure))]
    cases += [(est.PanelDesign(panel, SMALL_STRUCTURE), est.pack_params(params, SMALL_STRUCTURE))
              for params, panel in enumeration_panels()]
    one_block = 2 * pipeline_design.n
    monkeypatch.setattr(est, "_BLOCK", one_block)
    whole = [(d.loglik(g), *d.loglik_and_score(g), d.hessian(g)) for d, g in cases]
    monkeypatch.setattr(est, "_BLOCK", block or one_block)
    for (design, gamma), (loglik, loglik_s, scores, hessian) in zip(cases, whole):
        assert design.loglik(gamma) == loglik
        got, rows = design.loglik_and_score(gamma)
        assert got == loglik_s == loglik
        assert rows.shape == scores.shape and rows.tobytes() == scores.tobytes()
        assert np.abs(design.hessian(gamma) - hessian).max() <= 1e-12 * np.abs(hessian).max()


def test_loglik_peak_memory_is_one_blocks(monkeypatch, pipeline_design):
    # the forward pass holds one block's arrays at a time: eight blocks of
    # the 2,000 people need far less than one block of them all
    gamma = est.pack_params(paperlike_params(), pipeline_design.structure)
    monkeypatch.setattr(est, "_BLOCK", pipeline_design.n)
    whole = peak_bytes(pipeline_design.loglik, gamma)
    monkeypatch.setattr(est, "_BLOCK", pipeline_design.n // 8)
    assert peak_bytes(pipeline_design.loglik, gamma) <= 0.25 * whole


# ---------------------------------------------------------------------------
# the workspace of a fit


@pytest.fixture(scope="module")
def rejected_point():
    """The 60-person paper-like panel (seed 5, legacy draw), its design and
    the point of its fit where some individuals' likelihoods are positive
    but their scores overflow, which the fit rejects."""
    structure = paperlike_structure()
    panel = legacy_panel(SimulationConfig(n=60, structure=structure,
                                          params=paperlike_params(), seed=5))
    seen = []
    score = est.PanelDesign.loglik_and_score

    def spy(self, gamma, work=None):
        out = score(self, gamma, work)
        if not np.all(np.isfinite(out[1])):
            seen.append(gamma.copy())
        return out

    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(est.PanelDesign, "loglik_and_score", spy)
        est.fit_msm(panel, structure)
    return panel, est.PanelDesign(panel, structure), seen[0]


def calls_in(design, points, work=None):
    """The bytes of loglik, the score pass and the Hessian at each point,
    and the arrays returned."""
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for gamma in points:
            loglik, (total, scores), hessian = (design.loglik(gamma, work),
                                               design.loglik_and_score(gamma, work),
                                               design.hessian(gamma, work))
            out.append((np.array([loglik, total]).tobytes(), scores.tobytes(), hessian.tobytes(),
                        (scores, hessian)))
    return out


def test_one_workspace_serves_interleaved_calls(rejected_point):
    # a workspace carries nothing from one call into the next: loglik, score
    # passes and Hessians at three points, the rejected one among them,
    # interleaved in one workspace and repeated after its buffer is filled
    # with NaN, give the bytes of calls that each start their own; and no
    # call touches the arrays that an earlier one returned, which fit_msm
    # caches
    _, design, bad = rejected_point
    truth = est.pack_params(paperlike_params(), design.structure)
    points = [truth, truth + np.random.default_rng(4).normal(0.0, 0.2, truth.size), bad]
    fresh = [got[:3] for got in calls_in(design, points)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.all(np.isfinite(design.loglik_and_score(bad)[1]))
    work = est._Workspace()
    first = calls_in(design, points, work)
    work.reset()
    assert work.buffer.size == work.need > 0
    work.buffer[:] = np.nan
    again = calls_in(design, points[::-1], work)[::-1]
    for want, got in zip(fresh + fresh, first + again):
        assert got[:3] == want
    for got in first + again:
        assert tuple(array.tobytes() for array in got[3]) == got[1:3]


def test_a_partial_last_block_uses_views_of_the_workspace(monkeypatch, pipeline_design):
    # 7-person blocks over 150 people end in a block of 3, and the Hessian's
    # half blocks of 4 in one of 2: the arrays of the first block serve them
    # as views, and give the bytes of calls without a workspace, also after
    # the buffer is filled with NaN
    design = pipeline_design._individuals(slice(0, 150))
    gamma = est.pack_params(paperlike_params(), design.structure)
    monkeypatch.setattr(est, "_BLOCK", 7)
    fresh = [got[:3] for got in calls_in(design, [gamma])]
    work = est._Workspace()
    calls_in(design, [gamma], work)
    work.reset()
    work.buffer[:] = np.nan
    assert [got[:3] for got in calls_in(design, [gamma], work)] == fresh


def test_fit_rejects_a_point_whose_score_is_not_finite(rejected_point):
    # on the individuals whose likelihood is positive at the rejected point,
    # the log likelihood is finite there and the score is not: a fit that
    # starts there refuses it
    panel, design, bad = rejected_point
    alive = np.unique(panel.ids)[np.isfinite(design._forward(bad, None))]
    keep = np.isin(panel.ids, alive)
    sub = Panel(panel.ids[keep], panel.times[keep], panel.states[keep], panel.ages[keep],
                panel.female[keep])
    with np.errstate(over="ignore", invalid="ignore"):
        loglik, scores = est.PanelDesign(sub, design.structure).loglik_and_score(bad)
    assert np.isfinite(loglik) and not np.all(np.isfinite(scores))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="score is not finite at the start point"):
        est.fit_msm(sub, design.structure, start=bad)


def test_warm_score_pass_allocates_a_quarter_of_a_cold_one(pipeline_design):
    # the allocation guard of the workspace: once a fit's first score pass
    # and Hessian have sized it, a score pass allocates little beyond the
    # score it returns; going back to allocating per call fails here
    gamma = est.pack_params(paperlike_params(), pipeline_design.structure)
    cold = peak_bytes(pipeline_design.loglik_and_score, gamma)
    work = est._Workspace()
    pipeline_design.loglik_and_score(gamma, work)
    pipeline_design.hessian(gamma, work)
    assert peak_bytes(pipeline_design.loglik_and_score, gamma, work) <= 0.25 * cold


# ---------------------------------------------------------------------------
# design construction errors


def small_panel(ids, times, states):
    n = len(ids)
    return Panel(np.array(ids, dtype=np.int64), np.array(times, dtype=float),
                 np.array(states, dtype=np.int64), 66.0 + np.array(times, dtype=float),
                 np.zeros(n, dtype=np.int64))


@pytest.mark.parametrize("validate", [True, False])
def test_design_rejects_off_grid_time(validate):
    # the first offending left endpoint in (id, time) order is reported
    panel = small_panel([2, 2, 2, 1, 1, 1], [0.0, 2.5, 4.0, 0.0, 1.0, 2.0], [1] * 6)
    with pytest.raises(InvalidArgumentError, match=r"^time 1\.0 is not on the wave grid"):
        est.PanelDesign(panel, SMALL_STRUCTURE, validate=validate)


@pytest.mark.parametrize("validate", [True, False])
def test_design_names_the_first_off_grid_time_in_row_order(validate):
    # the design is built step by step, but of id 1's off-grid time, which
    # opens its third step, and id 2's, which opens its second, the message
    # names id 1's, the first in (id, time) order
    panel = small_panel([1, 1, 1, 1, 2, 2, 2], [0.0, 2.0, 3.0, 4.0, 0.0, 1.0, 2.0], [1] * 7)
    with pytest.raises(InvalidArgumentError, match=r"^time 3\.0 is not on the wave grid"):
        est.PanelDesign(panel, SMALL_STRUCTURE, validate=validate)


@pytest.mark.parametrize("n_waves, individuals", [
    # 128 intervals: the last wave index, 128, is one past int8
    (128, [(0, 1, 3), (100, 126, 127, 128), (127, 128)]),
    # 299 intervals: dummies past 127 indexed from late waves
    (299, [(0, 1, 3), (126, 127, 128, 130), (200, 250), (296, 298, 299)]),
])
def test_waves_beyond_int8_index_their_own_dummies(n_waves, individuals):
    # intervals a tenth of a year apart take 16-bit wave indices; each
    # tuple is one individual's observation times in tenths, and one ends
    # at the final wave
    structure = ModelStructure(knots=(58.0, 68.0, 80.0),
                               wave_times=tuple(k / 10 for k in range(n_waves + 1)))
    rng = np.random.default_rng(17)
    ids, times, states = [], [], []
    for ident, waves in enumerate(individuals):
        ids += [ident] * len(waves)
        times += [k / 10 for k in waves]
        states += [1] * (len(waves) - 1) + [int(rng.integers(1, 4))]
    panel = small_panel(ids, times, states)
    design = est.PanelDesign(panel, structure)
    assert design.waves.dtype == np.int16
    assert design.waves.max() == n_waves
    np.testing.assert_array_equal(design.waves, design_cells(panel, structure)[3])
    for _ in range(5):
        params = random_params(rng, structure)
        # per-wave trends at the scale of a long wave grid
        params.trend_13 /= 30
        params.trend_23 /= 30
        got = design.loglik(est.pack_params(params, structure))
        assert got == pytest.approx(enumeration_loglik(panel, structure, params), rel=1e-10)


def _build_peak(panel, structure) -> tuple:
    tracemalloc.start()
    try:
        design = est.PanelDesign(panel, structure)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return design, kept, peak


def test_design_build_holds_little_beyond_what_it_keeps(monkeypatch):
    # at eight waves the design keeps one-byte codes and wave indices, the
    # widths, the two basis columns and female: 28 bytes per (individual,
    # step) at most; its build makes no temporary as long as the rows
    structure = paperlike_structure()
    panel = simulate_panel(SimulationConfig(n=5_000, structure=structure,
                                            params=paperlike_params(), seed=3))
    design, kept, peak = _build_peak(panel, structure)
    assert structure.n_waves == design.n_steps == 8
    assert kept <= 28 * design.n * design.n_steps
    assert peak <= 1.6 * kept
    # built 1,024 individuals at a time, a step's temporaries are a block's:
    # the same arrays, at a peak of 1.15 times what the design keeps
    monkeypatch.setattr(est, "_BUILD_BLOCK", 1024)
    blocks, kept, peak = _build_peak(panel, structure)
    assert peak <= 1.25 * kept
    for name in ("state_idx", "female", "widths", "waves", "basis"):
        assert getattr(blocks, name).tobytes() == getattr(design, name).tobytes(), name


@pytest.mark.parametrize("validate", [True, False])
def test_design_rejects_final_wave_left_endpoint(validate):
    panel = small_panel([1, 1, 1, 1], [0.0, 4.0, 6.0, 7.0], [1, 1, 1, 1])
    with pytest.raises(InvalidArgumentError, match=r"^time 6\.0 is the final wave"):
        est.PanelDesign(panel, SMALL_STRUCTURE, validate=validate)


@pytest.mark.parametrize("validate", [True, False])
def test_design_rejects_empty_panel(validate):
    with pytest.raises(DataValidationError, match=r"^panel is empty$"):
        est.PanelDesign(small_panel([], [], []), SMALL_STRUCTURE, validate=validate)


@pytest.mark.parametrize("validate", [True, False])
def test_design_rejects_single_observation_panel(validate):
    # every individual seen once: no transition to learn from, whatever the times
    panel = small_panel([1, 2, 3], [0.0, 2.0, 1.0], [1, 2, 1])
    with pytest.raises(DataValidationError, match="at least one individual with two observations"):
        est.PanelDesign(panel, SMALL_STRUCTURE, validate=validate)


def test_design_rejects_dead_at_first_observation():
    panel = small_panel([1, 1, 2], [0.0, 2.0, 0.0], [1, 2, 3])
    with pytest.raises(DataValidationError, match="id 2 is dead at its first observation"):
        est.PanelDesign(panel, SMALL_STRUCTURE)
    # the unchecked design still builds: the impossible sequence has log likelihood -inf
    est.PanelDesign(panel, SMALL_STRUCTURE, validate=False)


# ---------------------------------------------------------------------------
# numerical Hessian


def test_hessian_covariance_exact_for_quadratic():
    rng = np.random.default_rng(12)
    a = rng.normal(size=4)
    m = rng.normal(size=(4, 4))
    A = m @ m.T + 4 * np.eye(4)

    def loglik(x):
        d = x - a
        return -0.5 * d @ A @ d

    sigma, warnings = est.hessian_covariance(hessian_fd(loglik, a + 0.1))
    assert not warnings
    np.testing.assert_allclose(sigma, np.linalg.inv(A), atol=1e-6)
    np.testing.assert_allclose(sigma, sigma.T)
    assert np.linalg.eigvalsh(sigma).min() > 0


def test_hessian_wrong_curvature_raises():
    with pytest.raises(CurvatureError):
        est.hessian_covariance(hessian_fd(lambda x: 0.5 * float(x @ x), np.zeros(3)))


def test_hessian_near_zero_eigenvalue_pseudo_inverse():
    def loglik(x):
        return -0.5 * x[0] ** 2  # flat in x[1]

    sigma, warnings = est.hessian_covariance(hessian_fd(loglik, np.zeros(2)))
    assert warnings and "pseudo-inverse" in warnings[0]
    assert sigma[0, 0] == pytest.approx(1.0, rel=1e-6)


def quartic(a):
    """The row-wise quartic -sum (x - a)^4 - sum (x - a)^2 of an (m, n) array."""
    return lambda x: -np.sum((x - a) ** 4, axis=1) - np.sum((x - a) ** 2, axis=1)


def test_hessian_fd_matches_analytic_quartic():
    # one batch of 2n^2 + 1 points, and the error is the round-off of second
    # differences (about eps |f| / h^2), not truncation (2 h^2 here)
    a = np.random.default_rng(3).normal(size=3)
    batches = []

    def fun(x):
        batches.append(x.shape)
        return quartic(a)(x)

    h = est.hessian_fd(fun, np.zeros(3))
    exact = np.diag(-12.0 * a**2 - 2.0)
    assert batches == [(2 * 3**2 + 1, 3)]
    np.testing.assert_array_equal(h, h.T)
    assert np.abs(h - exact).max() / np.abs(exact).max() < 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hessian_fd_batch_equals_the_per_point_oracle(n):
    # the stencil's points and combinations are the per-point ones, so where
    # a row's value is the one a scalar call gives, H is the same bit for bit
    rng = np.random.default_rng(n)
    a, x = rng.normal(size=n), rng.normal(size=n) * 10.0 ** rng.integers(-2, 3, size=n)
    fun = quartic(a)
    np.testing.assert_array_equal(est.hessian_fd(fun, x), hessian_fd(lambda p: fun(p[None])[0], x))


# ---------------------------------------------------------------------------
# fitting


def flat_death_panel(n, h, seed):
    """State 1 until death, constant hazard h, full structure."""
    structure = ModelStructure(knots=(58.0, 68.0, 80.0), wave_times=WAVE_TIMES)
    params = HazardParams(
        beta=np.full(8, -40.0),
        log_q13_0=float(np.log(h)),
        log_q23_0=-2.0,
        logit_e12=-40.0, logit_e21=-40.0, logit_p2=-40.0,
    )
    cfg = SimulationConfig(n=n, structure=structure, params=params, seed=seed)
    return structure, simulate_panel(cfg)


def test_death_only_mle_matches_closed_form():
    structure, panel = flat_death_panel(n=4000, h=0.06, seed=13)
    p = panel.sort()
    exposures = deaths = 0
    for _id, sl in individual_slices(p):
        s = p.states[sl]
        exposures += s.size - 1
        deaths += int(s[-1] == 3)
    closed_form = -np.log(1.0 - deaths / exposures) / 2.0

    fixed = {name: -40.0 for name in [f"beta_{k}" for k in range(1, 9)]}
    fixed.update({
        "female_12": 0.0, "age_spline_12_1": 0.0, "age_spline_12_2": 0.0,
        "age_spline_f_12_1": 0.0, "age_spline_f_12_2": 0.0,
        "female_13": 0.0, "age_13": 0.0, "trend_13": 0.0,
        "log_q23_0": -2.0, "female_23": 0.0, "age_23": 0.0, "trend_23": 0.0,
        "logit_e12": -40.0, "logit_e21": -40.0, "logit_p2": -40.0,
    })
    result = est.fit_msm(panel, structure, fixed=fixed)
    assert result.converged
    assert result["log_q13_0"] == pytest.approx(np.log(closed_form), abs=1e-5)


@pytest.fixture(scope="module")
def small_fit():
    structure = paperlike_structure()
    truth = paperlike_params()
    cfg = SimulationConfig(n=1500, structure=structure, params=truth, seed=7)
    panel = legacy_panel(cfg)
    result = est.fit_msm(panel, structure)
    return structure, panel, result


def test_fit_converges_and_gradient_small(small_fit):
    structure, panel, result = small_fit
    assert result.converged
    design = est.PanelDesign(panel, structure)
    grad = est.gradient_fd(design.loglik, result.estimates, step=1e-5)
    assert np.abs(grad).max() < 1e-4


def test_refit_from_optimum_is_immediate(small_fit):
    structure, panel, result = small_fit
    again = est.fit_msm(panel, structure, start=result.estimates)
    assert again.iterations <= 1
    assert again.loglik == pytest.approx(result.loglik, abs=1e-10 * max(1.0, abs(result.loglik)))


def test_score_difference_step_leaves_se_unchanged(small_fit):
    # the exact information from score differences is insensitive to its
    # step: truncation is O(h^2) and round-off O(eps / h), both tiny here
    structure, panel, result = small_fit
    design = est.PanelDesign(panel, structure)
    scale = design.param_scales()

    def se(step):
        H = jacobian_fd(lambda z: design.loglik_and_score(z / scale)[1].sum(axis=0) / scale,
                        result.estimates * scale, step)
        return np.sqrt(np.diag(np.linalg.inv(-0.5 * (H + H.T)))) / scale

    coarse, fine = se(1e-4), se(1e-6)
    np.testing.assert_allclose(coarse, fine, rtol=1e-6)
    np.testing.assert_allclose(result.se, fine, rtol=1e-6)


def test_fit_converges_along_flat_wave_dummy():
    # paper-like truth, 1,000 people, seed 3 (legacy draw): a quasi-Newton
    # fit with finite-difference gradients stopped at maxiter at
    # -1747.0384246692 while crawling along a nearly flat wave-1 dummy
    structure = paperlike_structure()
    panel = legacy_panel(SimulationConfig(n=1000, structure=structure,
                                          params=paperlike_params(), seed=3))
    result = est.fit_msm(panel, structure)
    assert result.converged
    assert result.loglik >= -1747.0384246692
    assert np.linalg.eigvalsh(result.cov_free).min() > 0.0
    _, scores = est.PanelDesign(panel, structure).loglik_and_score(result.estimates)
    assert np.abs(scores.sum(axis=0)).max() < 1e-4


def test_unidentified_combination_stops_at_the_box():
    # 20 people cannot pin 24 parameters: an unidentified combination runs
    # off, and the fit stops once a scaled parameter leaves +-60, flagged,
    # instead of iterating on to maxiter
    structure = paperlike_structure()
    panel = legacy_panel(SimulationConfig(n=20, structure=structure,
                                          params=paperlike_params(), seed=2))
    result = est.fit_msm(panel, structure)
    assert not result.converged
    assert "does not identify" in result.warnings[0]
    assert result.iterations < 100
    assert np.isfinite(result.loglik)


def test_exact_phase_rejects_points_whose_likelihood_overflows():
    # 60 people, seed 5 (legacy draw): the exact phase proposes a point where
    # some individuals have zero likelihood and others' scores overflow;
    # trust-exact asks for the curvature there before rejecting it, and the
    # fit ends flagged, not in an error.  The score pass's overflow there is
    # expected
    structure = paperlike_structure()
    panel = legacy_panel(SimulationConfig(n=60, structure=structure,
                                          params=paperlike_params(), seed=5))
    with np.errstate(over="ignore", invalid="ignore"):
        result = est.fit_msm(panel, structure)
    assert not result.converged and result.warnings
    assert np.isfinite(result.loglik)


def test_wave_without_events_does_not_run_away():
    # no onsets in wave 3: the likelihood rises toward beta_3 -> -inf and is
    # flat past the clip, so the dummy stops at a finite, very negative value
    structure = paperlike_structure()
    truth = paperlike_params()
    truth.beta[2] = -40.0
    panel = legacy_panel(SimulationConfig(n=1500, structure=structure, params=truth, seed=5))
    result = est.fit_msm(panel, structure)
    assert result.converged
    assert -31.0 < result["beta_3"] < -10.0
    assert np.all(np.isfinite(result.se))


def test_extract_trend_shapes(small_fit):
    structure, _, result = small_fit
    trend = est.extract_trend(result, structure)
    assert trend.beta.shape == (8,)
    assert trend.cov.shape == (8, 8)
    np.testing.assert_allclose(trend.var_diag, np.diag(trend.cov))
    assert trend.n_transitions == result.n_transitions
    idx = [result.names.index(f"beta_{k}") for k in range(1, 9)]
    np.testing.assert_array_equal(trend.beta, result.estimates[idx])


def test_trend_json_roundtrip(small_fit):
    structure, _, result = small_fit
    trend = est.extract_trend(result, structure)
    doc = trend.to_json_dict()
    back = est.TrendSeries.from_json_dict(doc)
    np.testing.assert_array_equal(back.beta, trend.beta)
    np.testing.assert_array_equal(back.cov, trend.cov)


def test_fit_with_fixed_misclassification_takes_the_free_block():
    # with both misclassification logits held, the exact curvature and the
    # covariance are those of the free parameters alone
    structure = paperlike_structure()
    truth = paperlike_params()
    panel = simulate_panel(SimulationConfig(n=1000, structure=structure, params=truth, seed=4))
    fixed = {"logit_e12": truth.logit_e12, "logit_e21": truth.logit_e21}
    result = est.fit_msm(panel, structure, fixed=fixed)
    assert result.converged
    free = np.flatnonzero(result.free)
    assert free.size == len(result.names) - 2
    design = est.PanelDesign(panel, structure)

    def free_score(x):
        gamma = result.estimates.copy()
        gamma[free] = x
        return design.loglik_and_score(gamma)[1].sum(axis=0)[free]

    want = jacobian_fd(free_score, result.estimates[free])
    H = design.hessian(result.estimates)[np.ix_(free, free)]
    assert np.abs(H - want).max() <= 1e-6 * np.abs(want).max()
    np.testing.assert_allclose(result.se[free], np.sqrt(np.diag(np.linalg.inv(-want))), rtol=1e-6)
    assert np.all(result.se[~result.free] == 0.0)


def test_fixed_names_validated(small_fit):
    structure, panel, _ = small_fit
    with pytest.raises(InvalidArgumentError):
        est.fit_msm(panel, structure, fixed={"nope": 1.0})

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msmtrend.errors import InvalidArgumentError, InvalidSpecError
from msmtrend.markov import (
    Covariates,
    HazardParams,
    IntensityMatrix,
    ModelStructure,
    build_intensity,
    load_model_spec,
    free_entries_grad,
    free_entries_jet,
    p12_ratio_grad,
    p12_ratio_hess,
    save_model_spec,
    spline_basis_matrix,
    transition_entries,
)

from conftest import taylor_expm, random_generator, WAVE_TIMES
from oracles import rates, transition_entries_vjp, transition_probability


# ---------------------------------------------------------------------------
# spline basis


def oracle_basis(x: float, knots) -> list:
    """Scalar textbook evaluation of the restricted-cubic basis (curvature
    terms normalized by the squared boundary span, Harrell's convention),
    written independently of the vectorized implementation."""
    knots = list(map(float, knots))
    K = len(knots)
    span2 = (knots[K - 1] - knots[0]) ** 2

    def d(j):
        top = max(x - knots[j], 0.0) ** 3 - max(x - knots[K - 1], 0.0) ** 3
        return top / (knots[K - 1] - knots[j])

    return [x] + [(d(j) - d(K - 2)) / span2 for j in range(K - 2)]


def test_left_boundary_is_pure_linear():
    for knots in [(55.0, 70.0, 85.0), (50.0, 60.0, 72.0, 88.0)]:
        b = spline_basis_matrix([knots[0]], knots)[0]
        assert b[0] == knots[0]
        assert np.all(b[1:] == 0.0)


def test_matches_textbook_oracle():
    rng = np.random.default_rng(7)
    for knots in [(55.0, 70.0, 85.0), (52.0, 61.0, 70.0, 79.0, 88.0)]:
        for _ in range(50):
            age = float(rng.uniform(40.0, 100.0))
            got = spline_basis_matrix([age], knots)[0]
            want = oracle_basis(age, knots)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        spline_basis_matrix([70.0], (55.0, 70.0, 85.0))[0], oracle_basis(70.0, (55.0, 70.0, 85.0))
    )


def test_natural_boundary_second_derivative_zero():
    knots = (55.0, 70.0, 85.0)
    h = 1e-3
    for x0 in knots[0], knots[-1]:
        for col in range(2):
            f = lambda x: spline_basis_matrix([x], knots)[0][col]
            second = (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / h**2
            assert abs(second) < 1e-4


def test_linear_beyond_boundaries():
    knots = (55.0, 70.0, 85.0)
    for base in (30.0, 90.0):
        vals = spline_basis_matrix([base, base + 1, base + 2], knots)
        second_diff = vals[2] - 2 * vals[1] + vals[0]
        np.testing.assert_allclose(second_diff, 0.0, atol=1e-9)


def test_bad_knots_rejected():
    with pytest.raises(InvalidSpecError):
        spline_basis_matrix([60.0], (55.0, 55.0, 85.0))[0]
    with pytest.raises(InvalidSpecError):
        spline_basis_matrix([60.0], (55.0, 70.0))[0]
    with pytest.raises(InvalidSpecError):
        spline_basis_matrix([60.0], (85.0, 70.0, 55.0))[0]


# ---------------------------------------------------------------------------
# intensity construction


def unit_structure():
    return ModelStructure(knots=(55.0, 70.0, 85.0), wave_times=WAVE_TIMES)


def test_unit_baselines_give_unit_rates():
    # every covariate and time contribution zero, all three baselines one
    st = unit_structure()
    params = HazardParams(beta=np.zeros(8), log_q13_0=0.0, log_q23_0=0.0)
    q = build_intensity(st, params, Covariates(age=st.ref_age, female=0), wave=1)
    np.testing.assert_allclose(q.matrix[0], [-2.0, 1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(q.matrix[1], [0.0, -1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(q.matrix[2], [0.0, 0.0, 0.0], atol=1e-15)


def test_scalar_hand_value():
    # q12 = 0.01 * exp(0.5 + 0.2): covariate part via the female coefficient,
    # time part via the wave dummy, baseline folded into the dummy
    st = unit_structure()
    beta = np.full(8, np.log(0.01))
    beta[2] = np.log(0.01) + 0.2
    params = HazardParams(beta=beta, female_12=0.5)
    q = build_intensity(st, params, Covariates(age=st.ref_age, female=1), wave=3)
    assert rates(q)[0] == pytest.approx(0.01 * np.exp(0.7), rel=1e-12)


def test_structural_invariants_random_params():
    st = unit_structure()
    rng = np.random.default_rng(11)
    for _ in range(25):
        params = HazardParams(
            beta=rng.normal(-4, 1, size=8),
            female_12=rng.normal(),
            age_spline_12=rng.normal(0, 0.1) * np.array([1.0, 1e-3]),
            age_spline_f_12=rng.normal(0, 0.1) * np.array([1.0, 1e-3]),
            log_q13_0=rng.normal(-4, 1),
            female_13=rng.normal(),
            age_13=rng.normal(0, 0.1),
            trend_13=rng.normal(0, 0.05),
            log_q23_0=rng.normal(-3, 1),
            female_23=rng.normal(),
            age_23=rng.normal(0, 0.1),
            trend_23=rng.normal(0, 0.05),
        )
        wave = int(rng.integers(1, 9))
        z = Covariates(age=float(rng.uniform(50, 95)), female=int(rng.integers(0, 2)))
        q = build_intensity(st, params, z, wave)  # __post_init__ validates
        assert np.all(q.matrix[np.tril_indices(3, -1)] == 0.0)


def test_wave_out_of_range():
    st = unit_structure()
    params = HazardParams(beta=np.zeros(8))
    with pytest.raises(InvalidArgumentError):
        build_intensity(st, params, Covariates(70.0, 0), wave=9)


def test_wave_indices_snap_to_nearest_wave():
    st = ModelStructure(knots=(55.0, 70.0, 85.0), wave_times=(0.0, 2.0, 4.0, 6.0))
    times = [0.0, 2.0 + 5e-10, 4.0 - 5e-10, 2.0, 5e-10]
    np.testing.assert_array_equal(st.wave_indices(times), [1, 2, 3, 2, 1])
    with pytest.raises(InvalidArgumentError, match=r"^time 6\.0 is the final wave"):
        st.wave_indices([0.0, 6.0, 3.0])
    with pytest.raises(InvalidArgumentError, match=r"^time 3\.0 is not on the wave grid"):
        st.wave_indices([0.0, 3.0, 6.0])
    with pytest.raises(InvalidArgumentError, match="not on the wave grid"):
        st.wave_indices([float("nan")])


# ---------------------------------------------------------------------------
# transition probabilities


def test_zero_generator_gives_identity():
    q = IntensityMatrix(np.zeros((3, 3)))
    p = transition_probability(q, 2.0)
    np.testing.assert_allclose(p.matrix, np.eye(3), atol=1e-15)


def test_closed_form_hand_values():
    q = IntensityMatrix(np.array([[-0.3, 0.2, 0.1], [0.0, -0.2, 0.2], [0.0, 0.0, 0.0]]))
    p = transition_probability(q, 2.0)
    assert p.matrix[0, 0] == pytest.approx(np.exp(-0.6), rel=1e-14)
    want_p12 = 0.2 * (np.exp(-0.6) - np.exp(-0.4)) / (0.2 - 0.3)
    assert p.matrix[0, 1] == pytest.approx(want_p12, rel=1e-12)
    np.testing.assert_allclose(taylor_expm(2.0 * q.matrix), p.matrix, atol=1e-12)


def test_degenerate_equal_eigenvalues():
    # q12 + q13 exactly equals q23: p12 collapses to w q12 e^{-w q23}
    q = IntensityMatrix(np.array([[-0.3, 0.25, 0.05], [0.0, -0.3, 0.3], [0.0, 0.0, 0.0]]))
    w = 1.7
    p = transition_probability(q, w)
    assert p.matrix[0, 1] == pytest.approx(w * 0.25 * np.exp(-w * 0.3), rel=1e-13)
    np.testing.assert_allclose(taylor_expm(w * q.matrix), p.matrix, atol=1e-12)


def test_near_degenerate_matches_series_oracle():
    for gap in (1e-5, 1e-8, 1e-10, 0.0):
        q = IntensityMatrix(
            np.array([[-(0.2 + gap), 0.15, 0.05 + gap], [0.0, -0.2, 0.2], [0.0, 0.0, 0.0]])
        )
        for w in (0.1, 1.0, 2.0):
            p = transition_probability(q, w)
            np.testing.assert_allclose(taylor_expm(w * q.matrix), p.matrix, atol=1e-12)


def test_against_taylor_oracle_random():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(300):
        q = IntensityMatrix(random_generator(rng))
        w = float(rng.uniform(0.1, 2.0))
        p = transition_probability(q, w)
        worst = max(worst, float(np.abs(p.matrix - taylor_expm(w * q.matrix)).max()))
    assert worst < 1e-10


def test_chapman_kolmogorov():
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = IntensityMatrix(random_generator(rng, scale=2.0))
        w, v = rng.uniform(0.2, 2.0, size=2)
        pw = transition_probability(q, float(w)).matrix
        pv = transition_probability(q, float(v)).matrix
        pwv = transition_probability(q, float(w + v)).matrix
        np.testing.assert_allclose(pw @ pv, pwv, atol=1e-10)


def test_p12_monotone_in_q12_small_w():
    w = 0.5
    grid = np.linspace(0.05, 1.0, 12)
    vals = []
    for q12 in grid:
        q = IntensityMatrix(
            np.array([[-(q12 + 0.1), q12, 0.1], [0.0, -0.3, 0.3], [0.0, 0.0, 0.0]])
        )
        vals.append(transition_probability(q, w).matrix[0, 1])
    assert np.all(np.diff(vals) > 0)


def test_invalid_width_and_invalid_generator():
    q = IntensityMatrix(np.zeros((3, 3)))
    with pytest.raises(InvalidArgumentError):
        transition_probability(q, 0.0)
    with pytest.raises(InvalidArgumentError):
        transition_probability(q, -1.0)
    with pytest.raises(InvalidSpecError):
        IntensityMatrix(np.array([[-1.0, 0.5, 0.5], [0.1, -0.1, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(InvalidSpecError):
        IntensityMatrix(np.array([[-1.0, 2.0, -1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


def test_exit_probabilities_match_mpmath_at_small_rates():
    # p23 = -expm1(-bw) and p13 = -expm1(-aw) - p12 keep their relative
    # precision where 1 - p22 and 1 - p11 - p12 lose it; with q13 = 0.01 q12
    # some p13 error is inherent (p13 is a hundredth of the expm1 term)
    mpmath.mp.dps = 50
    w = 2.0
    for rate in (1e-12, 1e-9, 1e-3):
        for q12, q13, q23 in ((rate, rate, rate), (rate, 0.01 * rate, 3 * rate)):
            a, b, mw = mpmath.mpf(q12) + mpmath.mpf(q13), mpmath.mpf(q23), mpmath.mpf(w)
            p12 = mpmath.mpf(q12) * (mpmath.exp(-a * mw) - mpmath.exp(-b * mw)) / (b - a)
            want13 = 1 - mpmath.exp(-a * mw) - p12
            want23 = 1 - mpmath.exp(-b * mw)
            _, _, p13, _, p23 = transition_entries(q12, q13, q23, w)
            assert abs((p23 - want23) / want23) <= 1e-15
            assert abs((p13 - want13) / want13) <= 1e-13


@pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-8, 1e-6, 1e-2, 1.0 - 1e-12, 1.0, 1.0 + 1e-12,
                                 30.0, 700.0])
def test_p12_ratio_grad_matches_mpmath(gap):
    # f = p12/q12 = w * int_0^1 exp(-w(a(1-s) + bs)) ds; at |a - b| w = gap
    # the derivatives need no difference quotient, so they keep full
    # precision across a = b and on both sides of the moments' series
    # switch at 1, and at rates of 1e-10 or an exponent of 700
    mpmath.mp.dps = 50

    def reference(a, b, w):
        a, b, w = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(w)
        kernel = lambda s: mpmath.exp(-w * (a * (1 - s) + b * s))  # noqa: E731
        return (-w**2 * mpmath.quad(lambda s: (1 - s) * kernel(s), [0, 1]),
                -w**2 * mpmath.quad(lambda s: s * kernel(s), [0, 1]))

    for w in (0.5, 2.0):
        for a in (1e-10, 1e-3, 0.3, 5.0):
            for b in {a + gap / w, max(a - gap / w, 0.0)}:
                got = p12_ratio_grad(a, b, w)
                for g, want in zip(got, reference(a, b, w)):
                    assert abs((g - want) / want) <= 1e-12, (a, b, w)


@pytest.mark.parametrize("gap", [0.0, 1e-8, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 30.0, 700.0])
def test_p12_ratio_hess_matches_mpmath(gap):
    # the second derivatives of f = p12/q12 are w^3 times moments of the
    # kernel; at |a - b| w = gap, on both sides of a = b and of the series
    # switch at 1, they keep full precision, and at rates of 1e-10 or an
    # exponent of 700 nothing overflows
    mpmath.mp.dps = 50

    def reference(a, b, w):
        a, b, w = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(w)
        kernel = lambda s: mpmath.exp(-w * (a * (1 - s) + b * s))  # noqa: E731
        return [w**3 * mpmath.quad(lambda s: g(s) * kernel(s), [0, 1])
                for g in (lambda s: (1 - s) ** 2, lambda s: s * (1 - s), lambda s: s**2)]

    for w in (0.5, 2.0):
        for a in (1e-10, 1e-3, 0.3, 5.0):
            for b in {a + gap / w, max(a - gap / w, 0.0)}:
                got = p12_ratio_hess(a, b, w)
                for g, want in zip(got, reference(a, b, w)):
                    assert np.isfinite(g)
                    assert abs((g - want) / want) <= 1e-13, (a, b, w)


def test_free_entries_jet_matches_central_differences():
    # gradients against differences of transition_entries, Hessians against
    # differences of the gradients, on both sides of and at a == b
    rng = np.random.default_rng(23)
    for trial in range(50):
        q = rng.uniform(0.0, 2.0, size=3)
        if trial % 3 == 0:
            q[2] = q[0] + q[1]
        w = float(rng.uniform(0.1, 3.0))
        grad, hess = free_entries_jet(*q, w)
        for k in range(3):
            h = 1e-6 * max(1.0, q[k])
            up, down = q.copy(), q.copy()
            up[k] += h
            down[k] -= h
            diff = (np.take(transition_entries(*up, w), [0, 1, 3])
                    - np.take(transition_entries(*down, w), [0, 1, 3])) / (2 * h)
            np.testing.assert_allclose(grad[:, k], diff, rtol=1e-7, atol=1e-9)
            diff = (free_entries_jet(*up, w)[0] - free_entries_jet(*down, w)[0]) / (2 * h)
            np.testing.assert_allclose(hess[:, :, k], diff, rtol=1e-7, atol=1e-9)


def test_transition_entries_vjp_matches_central_differences():
    rng = np.random.default_rng(17)
    for _ in range(50):
        q = rng.uniform(0.0, 2.0, size=3)
        if rng.random() < 0.3:
            q[2] = q[0] + q[1]  # the a == b branch
        w = float(rng.uniform(0.1, 3.0))
        bars = rng.normal(size=5)
        got = transition_entries_vjp(*q, w, bars)
        for k in range(3):
            h = 1e-6 * max(1.0, q[k])
            up, down = q.copy(), q.copy()
            up[k] += h
            down[k] -= h
            want = (np.dot(bars, transition_entries(*up, w))
                    - np.dot(bars, transition_entries(*down, w))) / (2 * h)
            assert got[k] == pytest.approx(want, rel=1e-7, abs=1e-9)


def test_free_entries_grad_pulls_back_all_five_entries():
    # the gradient of the three free entries, with the derivatives of p13 and
    # p23 taken as minus those of p11 + p12 and of p22, is the adjoint oracle
    rng = np.random.default_rng(29)
    q = rng.uniform(0.0, 2.0, size=(3, 40))
    q[2, ::3] = q[0, ::3] + q[1, ::3]  # the a == b branch
    w = rng.uniform(0.1, 3.0, size=40)
    bars = rng.normal(size=(5, 40))
    grad, _ = free_entries_grad(*q, w)
    p11b, p12b, p13b, p22b, p23b = bars
    got = (p11b - p13b) * grad[0] + (p12b - p13b) * grad[1] + (p22b - p23b) * grad[2]
    np.testing.assert_allclose(got, transition_entries_vjp(*q, w, bars), rtol=1e-12, atol=1e-15)


_RATES = st.floats(min_value=1e-15, max_value=1e15)


@settings(max_examples=200, deadline=None)
@given(q12=_RATES, q13=_RATES, q23=_RATES, equal=st.booleans(),
       w=st.floats(min_value=1e-3, max_value=30.0))
def test_transition_rows_sum_to_one_over_extreme_generators(q12, q13, q23, equal, w):
    if equal:
        q23 = q12 + q13
    p11, p12, p13, p22, p23 = transition_entries(q12, q13, q23, w)
    assert min(p11, p12, p13, p22, p23) >= 0.0
    assert p11 + p12 + p13 == pytest.approx(1.0, abs=4e-16)
    assert p22 + p23 == pytest.approx(1.0, abs=4e-16)


# ---------------------------------------------------------------------------
# model-spec round trip


def test_model_spec_roundtrip(tmp_path, structure, truth):
    path = tmp_path / "spec.json"
    save_model_spec(path, structure, truth)
    st2, p2 = load_model_spec(path)
    assert st2.knots == structure.knots
    assert st2.wave_times == structure.wave_times
    np.testing.assert_array_equal(p2.beta, truth.beta)
    assert p2.logit_e21 == truth.logit_e21

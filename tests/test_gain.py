import math
import warnings

import numpy as np
import pytest
from scipy.stats import norm

from msmtrend.errors import InvalidArgumentError
from msmtrend.gain import (
    exact_coefficients,
    fixed_point,
    gain_sequence,
    power,
    size,
)
from msmtrend.kalman import FilterModel, run_filter

from oracles import (
    asymptotic_coefficients,
    coefficients_recursion,
    contraction_check,
    enumerate_coefficients_oracle,
    mc_power,
    variance_map_iterate,
)


# ---------------------------------------------------------------------------
# gain recursion


def test_unit_signal_second_gain_half():
    traj = gain_sequence(np.full(4, 1.0))
    assert traj.gains[0] == 1.0
    assert traj.gains[1] == pytest.approx(0.5)


def test_published_gain_path_s126():
    traj = gain_sequence(np.full(8, 1.26))
    assert round(traj.gains[1], 2) == 0.56
    assert round(traj.gains[2], 2) == 0.65
    fp = fixed_point(1.26)
    assert round(fp.k_inf, 2) == 0.66
    assert abs(traj.gains[3] - fp.k_inf) < 0.01


def test_gain_matches_filter():
    rng = np.random.default_rng(14)
    for _ in range(25):
        T = int(rng.integers(3, 12))
        s = rng.uniform(0.1, 5.0, size=T)
        traj = gain_sequence(s)
        # filter with sigma_eta = 1 and measurement variances 1/s
        out = run_filter(rng.normal(size=T), FilterModel(sigma_eta=1.0), meas_var=1.0 / s)
        np.testing.assert_allclose(traj.gains, out.gain, atol=1e-12)
        np.testing.assert_allclose(traj.nu_var, out.post_var * s, atol=1e-12)


def test_nu_var_equals_gain_for_constant_s():
    traj = gain_sequence(np.full(10, 0.8))
    np.testing.assert_allclose(traj.nu_var[1:], traj.gains[1:], atol=1e-12)


def test_gain_bound_strict():
    rng = np.random.default_rng(15)
    for _ in range(50):
        s = rng.uniform(0.05, 10.0, size=8)
        gains = gain_sequence(s).gains
        assert np.all(gains[1:] > 0.0) and np.all(gains[1:] < 1.0)


def test_rejects_bad_s():
    with pytest.raises(InvalidArgumentError):
        gain_sequence(np.array([1.0, -0.5]))
    with pytest.raises(InvalidArgumentError):
        gain_sequence(np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# variance map and fixed point


def test_variance_map_converges_monotonically():
    s = 1.26
    path = variance_map_iterate(0.0, np.full(40, s), 0.0)
    fp = fixed_point(s)
    diffs = np.abs(path - fp.nu_inf)
    assert np.all(np.diff(diffs) <= 1e-15)
    assert diffs[-1] < 1e-12


def test_variance_map_stationary_at_fixed_point():
    fp = fixed_point(0.7, iota=0.2)
    path = variance_map_iterate(fp.nu_inf, np.full(10, 0.7), 0.2)
    np.testing.assert_allclose(path, fp.nu_inf, atol=1e-14)


def test_variance_map_matches_filter_constant_variance():
    # the map's normalization and the filter coincide when the measurement
    # variance is constant (iota = 0), the regime the convergence analysis
    # works in; start from the filter's nu at wave 2 and roll forward
    rng = np.random.default_rng(16)
    for s_val in (0.3, 1.26, 4.0):
        s = np.full(8, s_val)
        out = run_filter(rng.normal(size=8), FilterModel(sigma_eta=1.0), meas_var=1.0 / s)
        nu = out.post_var * s
        path = variance_map_iterate(nu[1], s[1:-1], 0.0)
        np.testing.assert_allclose(path, nu[1:], atol=1e-12)


def test_fixed_point_closed_form_equals_iteration():
    rng = np.random.default_rng(17)
    for _ in range(40):
        s = float(rng.uniform(0.05, 8.0))
        iota = float(rng.uniform(-0.5, 0.8))
        fp = fixed_point(s, iota)
        path = variance_map_iterate(fp.nu_inf + 0.3, np.full(300, s), iota)
        assert path[-1] == pytest.approx(fp.nu_inf, abs=1e-12)
        assert fp.k_inf == pytest.approx((fp.nu_inf + s) / (fp.nu_inf + s + 1), rel=1e-14)


def test_fixed_point_limits():
    assert fixed_point(1e6).k_inf > 1 - 2e-3
    fp = fixed_point(1.26)
    assert fp.nu_inf == pytest.approx(fp.k_inf, abs=1e-12)  # iota = 0 identity


# ---------------------------------------------------------------------------
# contraction and linear map


def test_contraction_examples():
    ok, margin = contraction_check(0.5, 0.3, 1.0)
    assert ok and margin > 0
    bound = (1 + 0.5 + 0.3) ** 2
    ok, margin = contraction_check(0.5, 0.3, bound)
    assert not ok and margin == 0.0  # strict inequality at the boundary
    ok, _ = contraction_check(0.1, 0.1, 4.0)
    assert not ok  # (1.2)^2 = 1.44 < 4


def test_linear_map_reconstructs_next_gain():
    rng = np.random.default_rng(18)
    for _ in range(30):
        T = int(rng.integers(4, 10))
        s = rng.uniform(0.1, 10.0, size=T)
        traj = gain_sequence(s)
        for k in range(2, T):
            got = traj.slope[k - 1] * traj.gains[k - 1] + traj.intercept[k - 1]
            assert got == pytest.approx(traj.gains[k], abs=1e-12)
        # the affine step is defined for 2 <= k <= T - 1 only
        assert np.isnan(traj.slope[[0, -1]]).all() and np.isnan(traj.intercept[[0, -1]]).all()


def test_linear_map_coefficients_bounded():
    # signal-to-noise paths with mild relative variation, the regime the
    # contraction assumption on successive measurement variances describes
    rng = np.random.default_rng(19)
    for _ in range(100):
        logs = np.cumsum(
            np.r_[rng.uniform(np.log(0.3), np.log(4.0)), rng.uniform(-0.5, 0.5, 7)]
        )
        traj = gain_sequence(np.exp(logs))
        for k in range(2, 8):
            assert abs(traj.slope[k - 1]) < 1.0
            assert abs(traj.intercept[k - 1]) < 1.0


def test_linear_map_converges_constant_s():
    traj = gain_sequence(np.full(40, 1.26))
    slopes, intercepts = traj.slope[1:38], traj.intercept[1:38]  # k = 2..38
    assert abs(slopes[-1] - slopes[-2]) < 1e-10
    assert abs(intercepts[-1] - intercepts[-2]) < 1e-10


# ---------------------------------------------------------------------------
# coefficients


def test_order2_table_general_gains():
    rng = np.random.default_rng(20)
    k1, k2 = rng.uniform(0.2, 0.9, size=2)
    table = exact_coefficients(2, np.array([k1, k2]))
    np.testing.assert_allclose(table.c, [k2 - k2 * k1, k2], atol=1e-14)
    np.testing.assert_allclose(table.d, [-k2 * k1, k2], atol=1e-14)


def test_order4_d3_product_form():
    rng = np.random.default_rng(21)
    gains = rng.uniform(0.2, 0.9, size=4)
    table = exact_coefficients(4, gains)
    assert table.d[2] == pytest.approx(-gains[3] * gains[2], rel=1e-14)


def test_diffuse_prior_kills_first_eta_coefficient():
    for k in range(2, 9):
        gains = gain_sequence(np.full(k, 1.26)).gains
        table = exact_coefficients(k, gains)
        assert table.c[0] == pytest.approx(0.0, abs=1e-14)


def test_exact_equals_enumeration():
    rng = np.random.default_rng(22)
    for k in range(2, 9):
        for _ in range(20):
            gains = rng.uniform(0.05, 0.95, size=k)
            fast = exact_coefficients(k, gains)
            slow, c_terms, d_terms = enumerate_coefficients_oracle(k, gains)
            np.testing.assert_allclose(fast.c, slow.c, atol=1e-12)
            np.testing.assert_allclose(fast.d, slow.d, atol=1e-12)


def test_closed_form_equals_forward_recursion():
    # beyond the enumeration's order cap, against the defining recursions;
    # a diffuse first gain in half the cases
    rng = np.random.default_rng(24)
    for k in range(2, 40):
        for case in range(50):
            gains = rng.uniform(0.05, 0.95, size=k)
            gains[0] = 1.0 if case % 2 else gains[0]
            table = exact_coefficients(k, gains)
            c, d = coefficients_recursion(k, gains)
            np.testing.assert_allclose(table.c, c, rtol=0, atol=1e-14)
            np.testing.assert_allclose(table.d, d, rtol=0, atol=1e-14)


def test_term_counts_double():
    gains = np.full(10, 0.5)
    for k in (3, 4, 5, 6):
        _, c_terms, d_terms = enumerate_coefficients_oracle(k, gains)
        _, c_next, d_next = enumerate_coefficients_oracle(k + 1, gains)
        for i in range(1, k + 1):
            assert len(c_next[i]) == 2 * len(c_terms[i])
        for i in range(1, k):
            assert len(d_next[i]) == 2 * len(d_terms[i])


def test_enumeration_order_capped():
    with pytest.raises(InvalidArgumentError):
        enumerate_coefficients_oracle(11, np.full(11, 0.5))


def test_expansion_identity_against_filter():
    # K_k v_k = sum c_i eta_i + d_i eps_i on simulated shock histories
    rng = np.random.default_rng(23)
    for _ in range(40):
        k = int(rng.integers(2, 9))
        s = rng.uniform(0.2, 4.0, size=k)
        sigma_eta = float(rng.uniform(0.5, 2.0))
        eta = rng.normal(0, sigma_eta, size=k)
        eps = rng.normal(0, 1.0, size=k) * np.sqrt(sigma_eta**2 / s)
        beta_hat = np.cumsum(eta) + eps
        out = run_filter(beta_hat, FilterModel(sigma_eta=sigma_eta), meas_var=sigma_eta**2 / s)
        table = exact_coefficients(k, out.gain)
        want = float(table.c @ eta + table.d @ eps)
        got = out.gain[k - 1] * out.innovation[k - 1]
        assert got == pytest.approx(want, abs=1e-10)


def test_asymptotic_diagonal_and_adjacent():
    k_inf = 0.66
    table = asymptotic_coefficients(5, k_inf)
    assert table.c[-1] == pytest.approx(k_inf)
    assert table.d[-1] == pytest.approx(k_inf)
    assert table.c[-2] == pytest.approx(k_inf - k_inf**2)
    assert table.d[-2] == pytest.approx(-(k_inf**2))


def test_asymptotic_equals_binomial_sums():
    # closed forms used in code equal the alternating binomial sums
    k_inf = 0.657
    for k in range(2, 13):
        table = asymptotic_coefficients(k, k_inf)
        for i in range(1, k + 1):
            c_sum = sum(
                (-1.0) ** m * math.comb(k - i, m) * k_inf ** (m + 1)
                for m in range(0, k - i + 1)
            )
            assert table.c[i - 1] == pytest.approx(c_sum, abs=1e-12)
            if i < k:
                d_sum = sum(
                    (-1.0) ** (m + 1) * math.comb(k - i - 1, m) * k_inf ** (m + 2)
                    for m in range(0, k - i)
                )
                assert table.d[i - 1] == pytest.approx(d_sum, abs=1e-12)


def test_asymptotic_close_to_exact_at_order4():
    gains = gain_sequence(np.full(4, 1.26)).gains
    exact = exact_coefficients(4, gains)
    asym = asymptotic_coefficients(4, fixed_point(1.26).k_inf)
    assert np.max(np.abs(exact.c[1:] - asym.c[1:])) < 0.05
    assert np.max(np.abs(exact.d[1:] - asym.d[1:])) < 0.05


def test_recency_dominance():
    for mode_table in (
        exact_coefficients(7, gain_sequence(np.full(7, 1.26)).gains),
        asymptotic_coefficients(7, 0.657),
    ):
        mags = np.abs(mode_table.d)
        assert np.all(np.diff(mags) >= -1e-14)


# ---------------------------------------------------------------------------
# power and size


def test_power_at_zero_is_half():
    for mode in ("exact", "asymptotic"):
        curve = power(np.array([0.0]), 4, 1.26, mode=mode)
        assert curve.theta[0] == pytest.approx(0.5)


def test_power_k2_reduces_to_closed_form():
    # theta = Phi(-x sqrt(s/2)): the normal CDF with variance 2/s
    for s in (0.5, 1.26, 4.0):
        x = np.linspace(-3, 0, 13)
        curve = power(x, 2, s, mode="exact")
        np.testing.assert_allclose(curve.theta, norm.cdf(-x * np.sqrt(s / 2)), atol=1e-12)


def test_power_strictly_decreasing_in_eta():
    curve = power(np.linspace(-3, 3, 25), 5, 1.26, mode="exact")
    assert np.all(np.diff(curve.theta) < 0)


def test_size_complements_power_at_mirrored_shock():
    # alpha(x) = 1 - theta(-x): size and power are the two halves of one curve
    x = np.linspace(0, 3, 16)
    th = power(-x, 4, 1.26, mode="exact")
    al = size(x, 4, 1.26, mode="exact")
    np.testing.assert_allclose(al.theta, 1.0 - th.theta, atol=1e-15)
    assert al.theta[0] == pytest.approx(0.5)


def test_size_rejects_negative_grid():
    with pytest.raises(InvalidArgumentError):
        size(np.array([-0.5]), 4, 1.26)


def test_size_decreasing_in_s():
    x = np.array([1.0])
    alphas = [size(x, 4, s, mode="exact").theta[0] for s in (0.3, 0.8, 1.26, 3.0, 10.0)]
    assert np.all(np.diff(alphas) < 0)


def test_exact_power_at_large_order_equals_asymptotic():
    x = np.linspace(-3, 0, 31)
    exact = power(x, 3000, 1.26, mode="exact").theta
    np.testing.assert_allclose(exact, power(x, 3000, 1.26, mode="asymptotic").theta, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", ["exact", "asymptotic"])
@pytest.mark.parametrize("s", [1e-170, 1e-300])
def test_power_at_tiny_signal_to_noise_is_half(s, mode):
    # c_k(k)^2 underflows here; the curve is taken relative to c_k(k)
    x = np.linspace(-3, 3, 13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta = power(x, 30, s, mode=mode).theta
        alpha = size(np.abs(x), 30, s, mode=mode).theta
    np.testing.assert_array_equal(theta, 0.5)
    np.testing.assert_array_equal(alpha, 0.5)


def test_mc_power_matches_analytic():
    for (k, s, x) in [(3, 1.26, -1.0), (5, 0.5, -2.0)]:
        analytic = power(np.array([x]), k, s, mode="exact").theta[0]
        estimate = mc_power(k, s, x, reps=40_000, seed=7)
        se = math.sqrt(analytic * (1 - analytic) / 40_000)
        assert abs(estimate - analytic) < 3 * se


def test_mc_power_chunk_independent():
    a = mc_power(4, 1.26, -1.0, reps=15_000, seed=3)
    b = mc_power(4, 1.26, -1.0, reps=15_000, seed=3)
    assert a == b

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.special import ndtri
from scipy.stats import chi2

import oracles
from msmtrend import trendtests
from msmtrend.errors import InvalidArgumentError
from msmtrend.estimator import TrendSeries
from msmtrend.trendtests import (
    bartlett_weight,
    demean_diff_transform,
    f_statistic,
    hac_variance,
    long_run_variance,
    run_trend_tests,
    simulate_critical_values,
    t_statistics,
)


# ---------------------------------------------------------------------------
# demean-difference transform


def test_constant_increments_map_to_zero():
    beta = np.arange(1.0, 9.0)
    values, _, _ = demean_diff_transform(beta, np.eye(8))
    np.testing.assert_allclose(values, 0.0, atol=1e-14)


def test_transformed_series_sums_to_zero():
    rng = np.random.default_rng(2)
    for _ in range(20):
        beta = rng.normal(size=8)
        values, _, _ = demean_diff_transform(beta, np.eye(8))
        assert abs(values.sum()) < 1e-12


def test_psi_covariance_matches_hand_product():
    rng = np.random.default_rng(3)
    beta = rng.normal(size=6)
    m = rng.normal(size=(6, 6))
    cov = m @ m.T
    values, psi, omega = demean_diff_transform(beta, cov)
    np.testing.assert_allclose(omega, psi @ cov @ psi.T, atol=1e-12)
    # and psi itself reproduces the definition row by row
    diffs = np.diff(beta)
    np.testing.assert_allclose(values, diffs - diffs.mean(), atol=1e-12)


def test_needs_three_waves():
    with pytest.raises(InvalidArgumentError):
        demean_diff_transform(np.array([1.0, 2.0]), np.eye(2))


# ---------------------------------------------------------------------------
# long-run variance


def test_lag_zero_is_gamma0():
    x = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    est = long_run_variance(x, m=0)
    assert est == pytest.approx(np.mean((x - x.mean()) ** 2))


def test_alternating_series_hand_value():
    # gamma(1) < 0 shrinks the estimate below gamma(0)
    x = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    est = long_run_variance(x, m=1)
    xc = x - x.mean()
    g0 = np.sum(xc * xc) / 6
    g1 = np.sum(xc[1:] * xc[:-1]) / 6
    want = g0 + 2 * bartlett_weight(1, 1) * g1
    assert est == pytest.approx(want, rel=1e-14)
    assert est < g0


def test_iid_long_run_variance_near_one():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(10_000)
    est = long_run_variance(x, m=3)
    assert abs(est - 1.0) < 0.05


# values rounded to 6 decimals, so that no product of two centred values
# underflows to where a float keeps too few bits to stay exact in sign
_VALUES = st.floats(-1e3, 1e3).map(lambda v: round(v, 6))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(_VALUES, min_size=1, max_size=40),
    st.tuples(_VALUES, st.integers(1, 40)).map(lambda a: [a[0] * (-1.0) ** k for k in range(a[1])]),
))
def test_long_run_variance_is_never_negative(series):
    # with 1/n autocovariances and Bartlett weights the estimate is the
    # periodogram smoothed by the nonnegative Fejer kernel (Newey & West
    # 1987), at every lag length; alternating series, whose gamma(1) is the
    # most negative, come nearest to zero
    for m in range(len(series)):
        assert long_run_variance(series, m) >= 0.0, m


def test_lag_bounds():
    with pytest.raises(InvalidArgumentError):
        long_run_variance(np.ones(5), m=5)


# ---------------------------------------------------------------------------
# HAC variance


def test_hac_diagonal_identity():
    omega = np.eye(7)
    for m in range(0, 4):
        assert hac_variance(omega, m) == pytest.approx(7 / 7)


def test_hac_lag_zero_drops_offdiagonals():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6))
    omega = a @ a.T
    assert hac_variance(omega, 0) == pytest.approx(np.trace(omega) / 6)


def test_hac_against_double_loop_oracle():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(8, 8))
    omega = a @ a.T
    for m in (1, 2, 3):
        got = hac_variance(omega, m)
        n = 8
        want = sum(omega[k, k] for k in range(n)) / n
        for tau in range(1, m + 1):
            for k in range(tau, n):
                want += bartlett_weight(tau, m) * omega[k, k - tau] / n
        assert got == pytest.approx(want, abs=1e-14)


def test_hac_toeplitz_matches_long_run_with_double_flag():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(40)
    x = x - x.mean()
    n = x.size
    m = 3
    # Toeplitz omega built from autocovariances with the matching divisor:
    # (n - tau) per entry so that summing the tau-th diagonal recovers the
    # 1/n-divisor autocovariance times n
    gamma = [np.sum(x[tau:] * x[:-tau or None]) / (n - tau) for tau in range(n)]
    omega = np.array([[gamma[abs(i - j)] for j in range(n)] for i in range(n)])
    got = hac_variance(omega, m, double_offdiag=True)
    want = long_run_variance(x, m)
    assert got == pytest.approx(want, rel=1e-12)


def test_hac_rejects_nonsquare():
    with pytest.raises(InvalidArgumentError):
        hac_variance(np.ones((3, 4)), 1)


# ---------------------------------------------------------------------------
# t statistics


def test_constant_series_all_zero():
    t_nu, t_sd, t_s = t_statistics(np.full(8, 2.5), 1.0)
    assert t_nu == 0.0 and t_sd == 0.0 and t_s == 0.0


def test_two_point_hand_value():
    t_nu, _, _ = t_statistics(np.array([0.0, 1.0]), 1.0)
    assert t_nu == pytest.approx(2 ** -0.5)


def independent_t_stats(beta, sigma):
    """Spreadsheet-style recomputation with explicit loops."""
    T = len(beta)
    t_nu = (beta[-1] - beta[0]) / (math.sqrt(T) * sigma)
    t_sd = 0.0
    t_s = 0.0
    for k in range(1, T + 1):
        b = beta[k - 1]
        t_sd += (b - beta[0] - (k / T) * (beta[-1] - beta[0])) ** 2
        t_s += (b - beta[0]) ** 2
    return t_nu, t_sd / (T * sigma) ** 2, t_s / (T * sigma) ** 2


def test_matches_independent_recomputation():
    rng = np.random.default_rng(8)
    for _ in range(25):
        beta = rng.normal(size=int(rng.integers(3, 12)))
        sigma = float(rng.uniform(0.2, 2.0))
        got = t_statistics(beta, sigma)
        want = independent_t_stats(list(beta), sigma)
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        assert got[1] == pytest.approx(want[1], rel=1e-12)
        assert got[2] == pytest.approx(want[2], rel=1e-12)


def test_additive_shift_invariance():
    rng = np.random.default_rng(9)
    beta = rng.normal(size=8)
    a = t_statistics(beta, 0.7)
    b = t_statistics(beta + 123.456, 0.7)
    assert a[0] == pytest.approx(b[0], abs=1e-9)
    assert a[1] == pytest.approx(b[1], rel=1e-9)
    assert a[2] == pytest.approx(b[2], rel=1e-9)


def test_requires_positive_sigma():
    with pytest.raises(InvalidArgumentError):
        t_statistics(np.ones(4), 0.0)


# ---------------------------------------------------------------------------
# F statistic


def test_f_zero_beta():
    res = f_statistic(np.zeros(8), np.eye(8), n=50_000)
    assert res["stat"] == 0.0
    assert res["p_chi2"] == 1.0 and res["p_f"] == 1.0


def test_f_unit_case():
    res = f_statistic(np.ones(8), np.eye(8), n=50_000)
    assert res["stat"] == pytest.approx(1.0)
    assert res["df1"] == 7


def test_f_against_cholesky_oracle():
    rng = np.random.default_rng(10)
    for _ in range(10):
        a = rng.normal(size=(8, 8))
        cov = a @ a.T + 0.5 * np.eye(8)
        beta = rng.normal(size=8)
        res = f_statistic(beta, cov, n=70_000)
        want = float(beta @ cho_solve(cho_factor(cov), beta)) / 8
        assert res["stat"] == pytest.approx(want, rel=1e-10)
        assert res["p_chi2"] == pytest.approx(float(chi2.sf(want, 7)), rel=1e-12)


def test_f_singular_covariance_uses_pinv():
    cov = np.zeros((4, 4))
    cov[0, 0] = 1.0
    res = f_statistic(np.array([1.0, 0, 0, 0]), cov, n=1000)
    assert res["used_pinv"]
    assert np.isfinite(res["stat"])


# ---------------------------------------------------------------------------
# Monte-Carlo critical values


@pytest.fixture(scope="module")
def bridge_table():
    return simulate_critical_values("bridge", n_grid=500, reps=20_000, seed=5)


@pytest.fixture(scope="module")
def wiener_table():
    return simulate_critical_values("wiener", n_grid=500, reps=20_000, seed=5)


def test_functional_means(bridge_table, wiener_table):
    # E int B^2 = 1/6, E int W^2 = 1/2
    assert np.mean(bridge_table.draws) == pytest.approx(1 / 6, rel=0.02)
    assert np.mean(wiener_table.draws) == pytest.approx(1 / 2, rel=0.02)


def test_quantiles_monotone(bridge_table):
    qs = [bridge_table.quantiles[lv] for lv in sorted(bridge_table.quantiles)]
    assert all(a < b for a, b in zip(qs, qs[1:]))


def test_determinism_and_seed_batches():
    a = simulate_critical_values("bridge", n_grid=300, reps=5_000, seed=1)
    b = simulate_critical_values("bridge", n_grid=300, reps=5_000, seed=1)
    assert a.quantiles == b.quantiles
    c = simulate_critical_values("bridge", n_grid=300, reps=5_000, seed=2)
    assert abs(a.quantiles[0.95] - c.quantiles[0.95]) < 0.03


def test_seed_batch_stability_50k():
    a = simulate_critical_values("bridge", n_grid=300, reps=50_000, seed=11)
    b = simulate_critical_values("bridge", n_grid=300, reps=50_000, seed=12)
    assert abs(a.quantiles[0.95] - b.quantiles[0.95]) < 0.01


def test_p_value_consistent_with_quantiles(bridge_table):
    crit = bridge_table.quantiles[0.95]
    assert bridge_table.p_value(crit) == pytest.approx(0.05, abs=0.002)
    assert bridge_table.p_value(1e9) == 0.0


def test_invalid_settings():
    with pytest.raises(InvalidArgumentError):
        simulate_critical_values("brownian", 100, 2000, 0)
    with pytest.raises(InvalidArgumentError):
        simulate_critical_values("bridge", 100, 2000, -1)
    with pytest.raises(InvalidArgumentError):
        simulate_critical_values("bridge", 1, 2000, 0)
    with pytest.raises(InvalidArgumentError):
        simulate_critical_values("bridge", 100, 10, 0)


@pytest.mark.parametrize("n", [2, 3, 7, 50, 300])
def test_eigen_series_are_the_walk_functionals_weights(n):
    # the Riemann sums as quadratic forms in n standard normals z: the walk is
    # W = L z with L lower-triangular ones / sqrt(n), the bridge P W with
    # P = I - r e_n', and a path M z gives (1/n) |M z|^2 = z' (M'M / n) z
    bridge, wiener = trendtests._eigen_series(n)
    walk = np.tril(np.ones((n, n))) / math.sqrt(n)
    tie = np.eye(n)
    tie[:, -1] -= np.arange(1, n + 1) / n
    for weights, path in ((wiener, walk), (bridge, tie @ walk)):
        eig = np.linalg.eigvalsh(path.T @ path / n)[::-1]
        assert np.all(np.diff(weights) < 0)
        # the bridge's form has one more eigenvalue, zero, for the tied end
        np.testing.assert_allclose(eig[: weights.size], weights, rtol=0, atol=1e-13 * weights[0])
        np.testing.assert_allclose(eig[weights.size:], 0.0, atol=1e-13 * weights[0])
    assert math.isclose(np.sum(bridge), (n * n - 1) / (6 * n * n), rel_tol=1e-13)
    assert math.isclose(np.sum(wiener), (n + 1) / (2 * n), rel_tol=1e-13)


# the bound on |f'/f| at the 90, 95 and 99% points that the cut is sized
# by, and the sd with which a 20,000-replication table's 95% value spreads
# over seeds: the cut moves a quantile by at most a 50th of that sd
_LOG_SLOPE = {"bridge": 7.0, "wiener": 1.7}
_SEED_SD = {"bridge": 0.002, "wiener": 0.005}


@pytest.mark.parametrize("n_grid, kept", [(2, (1, 2)), (50, (10, 10)), (1000, (9, 10))])
def test_truncation_keeps_the_leading_terms_and_the_tails_mean(n_grid, kept):
    # the fewest leading terms whose dropped tail has sd s <= _TAIL_SD; its
    # mean stands in for it, which moves a quantile by about (s^2 / 2) |f'/f|
    for name, series, keep in zip(("bridge", "wiener"), trendtests._eigen_series(n_grid), kept):
        head, tail_mean = trendtests._truncate(series)
        assert head.size == keep
        assert (math.sqrt(2 * np.sum(series[keep:] ** 2)) <= trendtests._TAIL_SD
                < math.sqrt(2 * np.sum(series[keep - 1:] ** 2)))
        assert trendtests._TAIL_SD**2 / 2 * _LOG_SLOPE[name] <= _SEED_SD[name] / 50
        assert math.isclose(np.sum(head) + tail_mean, np.sum(series), rel_tol=1e-14)


@pytest.mark.parametrize("n_grid", [50, 200, 500, 1000])
def test_the_cut_moves_the_tables_points_by_a_50th_of_their_seed_sd(n_grid):
    # at the 90, 95 and 99% points of each grid's law, found by inverting its
    # characteristic function, |f'/f| stays within the bound the cut is sized
    # by, and the second-order move (s^2 / 2) |f'/f|, s^2 / 2 the sum of the
    # dropped weights' squares, within a 50th of a table's seed sd (the
    # grids below 50 in use drop no term)
    for name, series in zip(("bridge", "wiener"), trendtests._eigen_series(n_grid)):
        dropped = series[trendtests._truncate(series)[0].size:]
        law = oracles.quadratic_form_law(series)
        points = oracles.law_quantiles(law, (0.90, 0.95, 0.99), 20 * np.sum(series))
        _, density, slope = law(points)
        log_slope = np.abs(slope / density)
        assert np.all(log_slope <= _LOG_SLOPE[name]), (name, log_slope)
        assert np.all(np.sum(dropped**2) * log_slope <= _SEED_SD[name] / 50)


def test_tables_at_the_cut_agree_with_a_thirtyfold_finer_cut(monkeypatch):
    # ten seeds of the pipeline's tables at the cut and at sd 1e-4, which
    # keeps 89 + 90 terms instead of 9 + 10: every point agrees within 3
    # Monte-Carlo SEs of the difference of the two ten-seed means
    levels = (0.90, 0.95, 0.99)

    def points():
        tables = [trendtests._critical_tables(1000, 20_000, seed) for seed in range(10)]
        return {name: np.array([[t[name].quantiles[lv] for lv in levels] for t in tables])
                for name in ("bridge", "wiener")}

    cut = points()
    monkeypatch.setattr(trendtests, "_TAIL_SD", 1e-4)
    fine = points()
    for name in cut:
        se = np.hypot(cut[name].std(axis=0, ddof=1), fine[name].std(axis=0, ddof=1)) / math.sqrt(10)
        assert np.all(np.abs(cut[name].mean(axis=0) - fine[name].mean(axis=0)) <= 3 * se), name


# (n_grid, reps, seed, block budget): one block of 1000 rows at n_grid = 2;
# at n_grid = 1001, 17 normals a row, one block of 1000 rows and a partial
# last block (5000 = 3855 + 1145); at n_grid = 50, 18 normals a row,
# one-row blocks at budgets below two rows, a last block of one row
# (1000 = 333 * 3 + 1), and blocks of 2, 8 and 16 rows, the last of 8;
# seeds of two and three uint32 words
@pytest.mark.parametrize("n_grid, reps, seed, budget", [
    (2, 1000, 7, None),
    (1001, 1000, 5, None),
    (1001, 5000, 5, None),
    (50, 1000, 3, 10),
    (50, 1000, 3, 30),
    (50, 1000, 3, 60),
    (50, 1000, 3, 40),
    (50, 1000, 3, 150),
    (50, 1000, 3, 297),
    (50, 1000, 2**32, None),
    (50, 1000, 2**64 + 5, None),
])
def test_draws_match_the_per_replication_reference(monkeypatch, n_grid, reps, seed, budget):
    # the stream layout, one replication at a time: default_rng(seed) gives
    # the bridge's and the Wiener's leading-term strata, then replication rep
    # squares the normals rep * K .. (rep + 1) * K - 1, the bridge's first, and
    # sums each part on its own.  This pins only that layout and its
    # independence of the block size; the weights are judged by
    # test_eigen_series_are_the_walk_functionals_weights and the draws'
    # distribution by test_draws_follow_the_simulated_walk
    (v, v_tail), (w, w_tail) = (trendtests._truncate(s) for s in trendtests._eigen_series(n_grid))
    rng = np.random.default_rng(seed)
    strata = [rng.permutation(reps) + 1.0 - rng.random(reps) for _ in range(2)]
    z = rng.standard_normal((reps, v.size + w.size - 2))
    want = {"bridge": np.empty(reps), "wiener": np.empty(reps)}
    for rep, row in enumerate(z * z):
        for (name, weights, tail, rest), q in zip(
                (("bridge", v, v_tail, row[: v.size - 1]), ("wiener", w, w_tail, row[v.size - 1:])),
                strata):
            lead = weights[0] * np.square(ndtri(q[rep] / (2 * reps))) + tail
            want[name][rep] = lead + np.sum(rest * weights[1:])
    if budget is not None:
        monkeypatch.setattr(trendtests, "_BLOCK_ELEMENTS", budget)
    drawn = trendtests._draw_functionals(n_grid, reps, seed)
    for functional, got in zip(("bridge", "wiener"), drawn):
        assert got.tobytes() == want[functional].tobytes(), functional
        table = simulate_critical_values(functional, n_grid, reps, seed)
        assert table.draws.tobytes() == np.sort(want[functional]).tobytes(), functional


def test_stratified_tables_spread_less_over_seeds():
    # with the leading term stratified, the 95% values of (200, 5000) tables
    # have sd about 0.004 (bridge) and 0.01 (Wiener) over seeds, against 0.011
    # and 0.04 with every term drawn independently
    for functional, bound in (("bridge", 0.007), ("wiener", 0.02)):
        q = [simulate_critical_values(functional, 200, 5000, s).quantiles[0.95] for s in range(10)]
        assert np.std(q) < bound, functional


@pytest.mark.parametrize("n_grid", [2, 7, 50, 1000])
def test_draws_follow_the_simulated_walk(n_grid):
    # the spectral draws against Riemann sums over simulated walks, one
    # (seed, rep) substream each: at n_grid = 2 and 7 the two are equal in
    # distribution, and at 50 and 1000 the cut tail, whose mean stands in
    # for it, has sd at most 3e-3
    from scipy.stats import ks_2samp

    reps = 10_000
    drawn = trendtests._draw_functionals(n_grid, reps, 4)
    for functional, got in zip(("bridge", "wiener"), drawn):
        walk = oracles.draw_functional(functional, n_grid, reps, 4)
        assert ks_2samp(got, walk).pvalue > 1e-3, functional


def test_draws_build_no_generator_per_replication(monkeypatch):
    # the tables' speed rests on one default_rng per table, not on a
    # generator or a SeedSequence built per replication
    calls = []

    def counted(name):
        original = getattr(np.random, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("default_rng", "SeedSequence"):
        monkeypatch.setattr(np.random, name, counted(name))
    trendtests._critical_tables(50, 1000, 3)
    assert calls == ["default_rng"]


# ---------------------------------------------------------------------------
# composition


def make_series(rng, T=8, sigma_eta=0.15, sigma_eps=0.13):
    beta = np.cumsum(rng.normal(0, sigma_eta, T)) + rng.normal(0, sigma_eps, T)
    return TrendSeries(beta=beta, cov=np.diag(np.full(T, sigma_eps**2)), n_transitions=60_000)


def test_report_runs_and_round_trips(tmp_path):
    rng = np.random.default_rng(20)
    series = make_series(rng)
    doc = run_trend_tests(series, lags=3, estimator="hac", seed=3, mc_reps=2_000)
    assert 0.0 <= doc["t_sd"]["p"] <= 1.0
    assert 0.0 <= doc["t_s"]["p"] <= 1.0
    assert doc["f"]["df1"] == 7
    assert doc["estimator"] == "hac"


def test_lag_sweep_smooth():
    rng = np.random.default_rng(21)
    series = make_series(rng)
    pvals = []
    for m in range(1, 7):
        report = run_trend_tests(series, lags=m, estimator="hac", seed=3, mc_reps=2_000)
        pvals.append(report["t_nu"]["p_normal"])
    assert all(0.0 <= p <= 1.0 for p in pvals)
    assert np.max(np.abs(np.diff(pvals))) < 0.6  # varies smoothly, no blowups


def test_strong_drift_detected():
    # nu = -0.5 with small noise: the zero-drift test should reject at 1%
    # in nearly every replication
    rng = np.random.default_rng(23)
    from scipy.stats import norm
    hits = 0
    reps = 200
    for _ in range(reps):
        beta = np.cumsum(rng.normal(-0.5, 0.05, 8)) + rng.normal(0, 0.05, 8)
        _, _, omega = demean_diff_transform(beta, np.diag(np.full(8, 0.05**2)))
        sigma2 = hac_variance(omega, 3)
        t_nu, _, _ = t_statistics(beta, math.sqrt(sigma2))
        p = 2 * norm.sf(abs(t_nu))
        hits += p < 0.01
    assert hits / reps >= 0.95


def test_long_run_estimator_variant():
    rng = np.random.default_rng(22)
    series = make_series(rng, T=10)
    report = run_trend_tests(series, lags=2, estimator="long_run", seed=3, mc_reps=2_000)
    assert report["estimator"] == "long_run"
    assert report["sigma2"] > 0

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from msmtrend import kalman
from msmtrend.errors import DegenerateVarianceError, InvalidArgumentError, NumericalError
from msmtrend.estimator import TrendSeries
from msmtrend.kalman import (
    VARIANTS,
    FilterModel,
    bic,
    diagnostics,
    fit_filter,
    forecast,
    run_filter,
)

import oracles
from conftest import drift_series


def rw_series(rng, T, sigma_eta, sigma_eps, nu=0.0):
    eta = rng.normal(0, sigma_eta, size=T)
    beta = np.cumsum(eta + nu)
    return beta + rng.normal(0, sigma_eps, size=T)


# ---------------------------------------------------------------------------
# filter recursions


def test_diffuse_first_step():
    y = np.array([0.3, 0.5, 0.1])
    model = FilterModel(sigma_eta=0.2)
    out = run_filter(y, model, meas_var=np.full(3, 0.04))
    assert out.gain[0] == 1.0
    assert out.post_mean[0] == y[0]
    assert out.post_var[0] == 0.0
    assert np.isinf(out.prior_var[0])


def test_second_gain_closed_form():
    # bit-exact: K_2 is the stored sigma_eta^2 over itself plus sigma_22^2
    rng = np.random.default_rng(0)
    for _ in range(20):
        se = float(rng.uniform(0.1, 1.5))
        s22 = float(rng.uniform(0.01, 2.0))
        model = FilterModel(sigma_eta=se)
        out = run_filter(
            rng.normal(size=5), model, meas_var=np.array([0.5, s22, 1.0, 1.0, 1.0]),
        )
        q = model.sigma_eta**2
        assert out.gain[1] == q / (q + s22)


def test_posterior_variance_identity_lemma3():
    # P_{k|k} = sigma_eta^2 sum_d prod_{s=d..k} (1 - K_s)
    rng = np.random.default_rng(42)
    for _ in range(200):
        T = int(rng.integers(3, 12))
        se = float(rng.uniform(0.05, 2.0))
        var = rng.uniform(0.01, 3.0, size=T)
        out = run_filter(rng.normal(size=T), FilterModel(sigma_eta=se), meas_var=var)
        for k in range(T):
            total = 0.0
            for d in range(1, k + 2):
                total += np.prod(1.0 - out.gain[d - 1: k + 1])
            assert out.post_var[k] == pytest.approx(se**2 * total, abs=1e-12 * max(1, se**2))


def test_scalar_posterior_update_identity():
    rng = np.random.default_rng(1)
    out = run_filter(rng.normal(size=8), FilterModel(sigma_eta=0.3), meas_var=rng.uniform(0.1, 1, 8))
    for k in range(1, 8):
        assert out.post_var[k] == pytest.approx((1 - out.gain[k]) * out.prior_var[k], abs=1e-12)
        assert 0.0 < out.gain[k] < 1.0


def test_huge_signal_tracks_observations():
    rng = np.random.default_rng(3)
    y = rng.normal(size=8)
    out = run_filter(y, FilterModel(sigma_eta=1e6), meas_var=np.full(8, 0.25))
    np.testing.assert_allclose(out.post_mean, y, atol=1e-6)
    assert np.all(out.gain[1:] > 1 - 1e-9)


def test_zero_signal_keeps_first_observation():
    # with P_{1|1} = 0 pinned by the diffuse convention, sigma_eta = 0 leaves
    # the posterior at the first observation forever (later gains vanish)
    y = np.array([0.4, 0.9, -0.3, 0.7])
    out = run_filter(y, FilterModel(sigma_eta=0.0), meas_var=np.full(4, 0.2))
    np.testing.assert_allclose(out.post_mean, 0.4)
    np.testing.assert_allclose(out.gain[1:], 0.0)


def test_loglik_prediction_error_decomposition():
    y = np.array([0.1, 0.4, 0.2])
    h = np.array([0.3, 0.2, 0.5])
    model = FilterModel(sigma_eta=0.5)
    out = run_filter(y, model, meas_var=h)
    want = 0.0
    for k in (1, 2):
        want -= 0.5 * (np.log(2 * np.pi) + np.log(out.innovation_var[k])
                       + out.innovation[k] ** 2 / out.innovation_var[k])
    assert out.loglik == pytest.approx(want, rel=1e-14)


def test_scale_invariance_of_gains():
    rng = np.random.default_rng(9)
    y = rng.normal(size=8)
    var = rng.uniform(0.1, 1.0, size=8)
    se = 0.37
    base = run_filter(y, FilterModel(sigma_eta=se), meas_var=var)
    c = 7.3
    scaled = run_filter(
        np.sqrt(c) * y, FilterModel(sigma_eta=math.sqrt(c) * se), meas_var=c * var
    )
    np.testing.assert_allclose(scaled.gain, base.gain, atol=1e-12)
    # loglik shifts by -(T'/2) log c
    shift = -(8 - 1) / 2 * math.log(c)
    assert scaled.loglik - base.loglik == pytest.approx(shift, rel=1e-12)


def test_degenerate_variance_raises():
    with pytest.raises(DegenerateVarianceError):
        run_filter(np.array([0.1, 0.2, 0.3]), FilterModel(sigma_eta=0.0), meas_var=np.zeros(3))


def test_overflowing_squared_innovation_is_a_numerical_error():
    # v**2 of a float overflows in the likelihood sum; it used to escape as
    # a bare OverflowError
    model = FilterModel(sigma_eta=1.0)
    with pytest.raises(NumericalError, match="overflows a float at wave 2"):
        run_filter(np.array([0.0, 1e300, -1e300, 2.0]), model, meas_var=np.ones(4))


def test_trend_beyond_the_float_range_of_its_variances_is_a_numerical_error():
    for y in (np.array([0.0, 1e300, -1e300, 2.0]), np.array([0.0, 0.0, 0.0, 3e152])):
        for variant in VARIANTS:
            with pytest.raises(NumericalError, match="beyond 1e150"):
                fit_filter(y, variant=variant, meas_var=np.ones(4))


def test_free_mode_refuses_a_trend_below_the_float_range_of_its_variances():
    # the innovations of a trend at 1e-300 are not zero, but their squares,
    # and so sigma_eps^2, underflow: free mode names the scale instead of
    # claiming zero innovations, and constrained mode still fits the trend
    y = 1e-300 * np.array([1.0, 3.0, 2.0, 5.0, 4.0, 7.0, 6.0, 9.0])
    for variant in VARIANTS:
        with pytest.raises(NumericalError, match=r"^the trend's range 8e-300 is below") as err:
            fit_filter(y, variant=variant, mode="free")
        assert "innovations all zero" not in str(err.value)
        fit = fit_filter(y, variant=variant, meas_var=np.full(8, 1e-300))
        assert math.isfinite(fit.loglik)


def test_const_drift_enters_prediction():
    y = np.zeros(5)
    model = FilterModel(variant="const_drift", sigma_eta=0.1, nu=0.25)
    out = run_filter(y, model, meas_var=np.full(5, 0.2))
    assert out.prior_mean[1] == pytest.approx(out.post_mean[0] + 0.25)


def test_stoch_drift_two_diffuse_steps():
    rng = np.random.default_rng(5)
    y = rng.normal(size=8)
    model = FilterModel(variant="stoch_drift", sigma_eta=0.2, sigma_xi=0.1)
    out = run_filter(y, model, meas_var=np.full(8, 0.3))
    assert out.n_diffuse == 2
    assert out.post_mean[1] == y[1]
    assert out.drift_mean[1] == pytest.approx(y[1] - y[0])
    assert out.std_residuals.size == 6
    assert np.all(out.innovation_var[2:] > 0)


@settings(max_examples=300, deadline=None)
@given(variant=st.sampled_from(VARIANTS), data=st.data(),
       sigma_eta=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
       sigma_xi=st.floats(0.0, 1e3), nu=st.floats(-10.0, 10.0))
def test_gains_lie_in_the_unit_interval(variant, data, sigma_eta, sigma_xi, nu):
    T = data.draw(st.integers(3, 12))
    y = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=T, max_size=T)))
    h = np.array(data.draw(st.lists(st.floats(0.0, 1e6), min_size=T, max_size=T)))
    model = FilterModel(variant=variant, sigma_eta=sigma_eta, nu=nu, sigma_xi=sigma_xi)
    try:
        out = run_filter(y, model, meas_var=h)
    except DegenerateVarianceError:
        assume(False)  # a zero walk variance against an exact wave
    gain = out.gain[out.n_diffuse:]
    assert np.all((gain >= 0.0) & (gain <= 1.0))
    if sigma_eta > 0:
        assert np.all(gain > 0.0)


# ---------------------------------------------------------------------------
# ML fitting


def test_grid_search_oracle_agreement():
    rng = np.random.default_rng(17)
    y = rw_series(rng, 40, sigma_eta=0.3, sigma_eps=0.25)
    var = np.full(40, 0.25**2)
    fit = fit_filter(y, variant="zero_drift", mode="constrained", meas_var=var)
    grid = np.linspace(1e-4, 1.0, 10_000)
    best = None
    for se in grid:
        out = run_filter(y, FilterModel(sigma_eta=se), meas_var=var)
        if best is None or out.loglik > best[1]:
            best = (se, out.loglik)
    assert fit.model.sigma_eta == pytest.approx(best[0], rel=5e-3)
    assert abs(fit.model.sigma_eta / best[0] - 1) < 5e-3  # 3 significant figures


def test_boundary_sigma_eta_flagged():
    # constant series with microscopic jitter: the walk variance sits at zero
    y = np.full(8, 1.0) + np.linspace(0, 1e-9, 8)
    fit = fit_filter(y, variant="zero_drift", mode="constrained", meas_var=np.full(8, 0.1))
    assert fit.model.sigma_eta == 0.0
    assert "sigma_eta" in fit.boundary
    assert "sigma_eta" in fit.no_ci
    assert "sigma_eta" not in fit.ci


def test_boundary_refit_reoptimizes_drift():
    # with sigma_eta pinned at zero the walk is a line through y_1, so the
    # best drift is the weighted least-squares slope of y_k - y_1 on k - 1
    rng = np.random.default_rng(86)
    T, h = 8, np.full(8, 0.133**2)
    s = np.sqrt(1.26) * 0.133 * rng.uniform(0.05, 1.0)
    y = np.cumsum(rng.normal(-0.02, s, T)) + rng.normal(0, 0.133, T)
    fit = fit_filter(y, variant="const_drift", mode="constrained", meas_var=h)
    k = np.arange(T)
    nu = np.sum(k * (y - y[0]) / h) / np.sum(k**2 / h)
    best = run_filter(y, FilterModel(variant="const_drift", nu=nu), meas_var=h).loglik
    assert fit.boundary == ["sigma_eta"] and fit.model.sigma_eta == 0.0
    assert fit.model.nu == pytest.approx(nu, abs=1e-7)
    assert fit.loglik == pytest.approx(best, abs=1e-9)
    assert "nu" in fit.ci


def test_singular_information_suppresses_every_interval():
    # three waves leave the stochastic-drift model one likelihood term, so
    # the information over (sigma_eta, sigma_xi, sigma_eps) has rank one
    fit = fit_filter(np.array([0.0, 0.0, 1.0]), variant="stoch_drift", mode="free")
    assert fit.boundary == []
    assert fit.warnings == ["zero eigenvalue in the information matrix; intervals suppressed"]
    assert fit.no_ci == ["sigma_eps", "sigma_eta", "sigma_xi"]
    assert fit.ci == {}


def test_three_wave_ridge_is_flagged_with_finite_intervals():
    # one likelihood term, maximal on the ridge 2 sigma_eta^2 + sigma_xi^2 = 0.99;
    # its interval endpoints overflowed a float before they were taken in logs.
    # The zoom's last steps are about 1e-8 in variance relative to the largest,
    # which leaves the likelihood at its maximum to rounding.
    fit = fit_filter(np.array([0.0, 0.0, 1.0]), variant="stoch_drift", mode="constrained",
                     meas_var=np.full(3, 0.01))
    assert fit.loglik == pytest.approx(-0.5 * (math.log(2 * math.pi) + 1.0), rel=1e-9)
    assert fit.boundary == ["sigma_eta"] and fit.model.sigma_eta == 0.0
    assert fit.model.sigma_xi == pytest.approx(math.sqrt(0.99), rel=1e-6)
    assert all(math.isfinite(end) for ends in fit.ci.values() for end in ends)


def test_interval_beyond_the_float_range_is_suppressed(monkeypatch):
    rng = np.random.default_rng(8)
    y = rw_series(rng, 12, sigma_eta=0.15, sigma_eps=0.13)
    monkeypatch.setattr(kalman, "hessian_covariance", lambda H: (np.diag([1e6, 1e-4]), []))
    fit = fit_filter(y, variant="const_drift", mode="constrained", meas_var=np.full(12, 0.13**2))
    assert fit.boundary == []
    assert fit.no_ci == ["sigma_eta"] and list(fit.ci) == ["nu"]
    assert fit.warnings == ["sigma_eta interval endpoint overflows a float; interval suppressed"]


@pytest.mark.parametrize("mode", kalman.MODES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_filter_runs_the_scalar_filter_once(monkeypatch, variant, mode):
    # the profile search and the interval Hessian run as filter batches; the
    # one scalar run is the output the fit reports
    calls = []
    monkeypatch.setattr(kalman, "run_filter", lambda *a, **k: calls.append(a) or run_filter(*a, **k))
    y, h = drift_series(3, 8)
    fit = fit_filter(y, variant=variant, mode=mode, meas_var=h)
    assert fit.ci and len(calls) == 1


def test_batch_hessian_fits_match_the_run_filter_oracle(monkeypatch):
    # each fit again with its interval Hessian taken per stencil point from
    # run_filter's scalar likelihood: the batch changes only np.log against
    # math.log and the order of the likelihood's sum (endpoints measured
    # within 2.2e-6 relative over 150 seeds)
    def per_point(fun, x):
        m = seen[0]
        names = [n for n in m.free_names() if n == "nu" or getattr(m, n) > 0.0]
        assert len(names) == x.size
        return oracles.hessian_fd(oracles.run_filter_loglik(y, m, names, meas_var=h), x)

    for seed in range(30):
        y, h = drift_series(seed, 8)
        for variant, mode in itertools.product(VARIANTS, kalman.MODES):
            fit = fit_filter(y, variant=variant, mode=mode, meas_var=h)
            seen = []
            with monkeypatch.context() as patch:
                patch.setattr(kalman, "run_filter", lambda s, m, **k: seen.append(m) or run_filter(s, m, **k))
                patch.setattr(kalman, "hessian_fd", per_point)
                want = fit_filter(y, variant=variant, mode=mode, meas_var=h)
            assert (fit.model, fit.loglik, fit.boundary) == (want.model, want.loglik, want.boundary)
            assert (fit.no_ci, fit.warnings, list(fit.ci)) == (want.no_ci, want.warnings, list(want.ci))
            for name, ends in want.ci.items():
                np.testing.assert_allclose(fit.ci[name], ends, rtol=1e-4, atol=0.0)


def oracle_loglik(y, h, variant, sigma_eta, nu, sigma_xi):
    if variant == "stoch_drift":
        return oracles.filter_2state(y, h, sigma_eta, sigma_xi)["loglik"]
    return oracles.filter_scalar(y, h, sigma_eta, nu if variant == "const_drift" else 0.0)["loglik"]


# T = 8 series whose fits a grid point beat by 0.06 to 0.22 in log likelihood
# under the earlier Nelder-Mead search with a one-coordinate boundary probe
@pytest.mark.parametrize("variant, mode, seed", [
    ("zero_drift", "constrained", 59),
    ("const_drift", "constrained", 10),
    ("const_drift", "constrained", 16),
    ("const_drift", "constrained", 22),
    ("stoch_drift", "constrained", 72),
    ("zero_drift", "free", 22),
    ("const_drift", "free", 32),
])
def test_no_grid_point_beats_the_fit(variant, mode, seed):
    y, h = drift_series(seed, 8)
    fit = fit_filter(y, variant=variant, mode=mode, meas_var=h)
    m = fit.model
    sd = float(np.std(np.diff(y)))
    names = m.free_names()
    axes = []
    for name in names:
        c = getattr(m, name)
        if name == "nu":
            axes.append(np.r_[np.linspace(c - 3 * sd, c + 3 * sd, 41),
                              c + max(abs(c), 0.05) * np.linspace(-0.5, 0.5, 21)])
        else:
            axes.append(np.exp(np.r_[np.linspace(math.log(1e-4 * sd), math.log(20 * sd), 41),
                                     math.log(max(c, 1e-8)) + np.linspace(-0.5, 0.5, 21)]))
    if len(axes) == 3:
        axes = [a[::2] for a in axes]

    def loglik(p):
        hk = np.full(8, p["sigma_eps"] ** 2) if mode == "free" else h
        return oracle_loglik(y, hk, variant, p["sigma_eta"], p.get("nu", 0.0), p.get("sigma_xi", 0.0))

    assert fit.loglik == pytest.approx(loglik({n: getattr(m, n) for n in names}), rel=1e-9)
    best = max(loglik(dict(zip(names, point))) for point in itertools.product(*axes))
    assert best <= fit.loglik + 1e-6 * max(1.0, abs(fit.loglik))


# T = 8 stochastic-drift fits whose best grid point sits on the shelf, the flat
# stretch of the profile where a variance is near its floor, while the optimum
# is interior; L is the log likelihood the Brent/L-BFGS-B polish reached.  A
# zoom on the log-sd scale, one on variances scaled by max(v, 1) with the unit
# variance fixed, and one whose lower end reaches zero each end below at least
# one of them.
@pytest.mark.parametrize("seed, mode, L", [
    (50, "constrained", 0.6373580685580265),
    (49, "free", 0.6147947536489033),
    (50, "free", 0.6787843152436074),
    (119, "free", 4.133974690030479),
])
def test_zoom_leaves_the_shelf(seed, mode, L):
    y, h = drift_series(seed, 8)
    fit = fit_filter(y, variant="stoch_drift", mode=mode, meas_var=h)
    assert fit.boundary == []
    assert fit.loglik >= L - 1e-9 * max(1.0, abs(L))


# stochastic-drift fits whose optimum lies along a narrow ridge between a large
# and a small variance; L is again the polish's log likelihood.  A zoom that
# shrinks every axis each round stops short of it: by 0.0026 to 0.060 at
# T = 30 and by 0.0078 at T = 200.
@pytest.mark.parametrize("seed, T, mode, L", [
    (32, 30, "constrained", 9.852815200309784),
    (104, 30, "free", 2.6592128372744686),
    (96, 30, "free", 1.6992076361638164),
    (3, 200, "free", 99.79379829044873),
])
def test_zoom_follows_a_ridge(seed, T, mode, L):
    y, h = drift_series(seed, T)
    fit = fit_filter(y, variant="stoch_drift", mode=mode, meas_var=h)
    assert fit.boundary == []
    assert fit.loglik >= L - 1e-9 * max(1.0, abs(L))


def test_fit_consistency_T500():
    rng = np.random.default_rng(2039)
    sigma_eta, sigma_eps = 0.148, 0.133
    y = rw_series(rng, 500, sigma_eta, sigma_eps)
    fit = fit_filter(y, variant="zero_drift", mode="constrained",
                     meas_var=np.full(500, sigma_eps**2))
    assert abs(fit.model.sigma_eta - sigma_eta) / sigma_eta < 0.05
    lo, hi = fit.ci["sigma_eta"]
    assert lo < sigma_eta < hi


def test_fit_constrained_ci_asymmetric():
    rng = np.random.default_rng(8)
    y = rw_series(rng, 8, sigma_eta=0.15, sigma_eps=0.13)
    fit = fit_filter(y, variant="zero_drift", mode="constrained", meas_var=np.full(8, 0.13**2))
    if "sigma_eta" in fit.ci:
        lo, hi = fit.ci["sigma_eta"]
        width_up = hi - fit.model.sigma_eta
        width_down = fit.model.sigma_eta - lo
        assert width_up > width_down  # log-scale delta method


def test_fit_free_mode_estimates_sigma_eps():
    rng = np.random.default_rng(88)
    y = rw_series(rng, 200, sigma_eta=0.2, sigma_eps=0.3)
    fit = fit_filter(y, variant="zero_drift", mode="free")
    assert fit.model.sigma_eps == pytest.approx(0.3, rel=0.2)
    assert fit.model.sigma_eta == pytest.approx(0.2, rel=0.3)


def test_fit_const_drift_recovers_nu():
    rng = np.random.default_rng(4)
    y = rw_series(rng, 300, sigma_eta=0.1, sigma_eps=0.1, nu=-0.05)
    fit = fit_filter(y, variant="const_drift", mode="constrained", meas_var=np.full(300, 0.01))
    assert fit.model.nu == pytest.approx(-0.05, abs=0.02)
    lo, hi = fit.ci["nu"]
    assert lo < fit.model.nu < hi


# ---------------------------------------------------------------------------
# forecasting


def test_forecast_zero_drift_flat_mean_rw_variance():
    rng = np.random.default_rng(11)
    y = rng.normal(size=8)
    model = FilterModel(sigma_eta=0.3)
    out = run_filter(y, model, meas_var=np.full(8, 0.2))
    fc = forecast(out, model, horizon=5)
    np.testing.assert_allclose(fc.mean_log, out.post_mean[-1])
    assert fc.variance[1] - fc.variance[0] == pytest.approx(0.09, rel=1e-12)
    assert np.all(np.diff(fc.variance) > 0)
    np.testing.assert_allclose(fc.mean_hazard_scale, np.exp(fc.mean_log))


def test_forecast_const_drift_declines():
    rng = np.random.default_rng(12)
    y = rng.normal(size=8)
    model = FilterModel(variant="const_drift", sigma_eta=0.2, nu=-0.028)
    out = run_filter(y, model, meas_var=np.full(8, 0.2))
    fc = forecast(out, model, horizon=4)
    np.testing.assert_allclose(np.diff(fc.mean_log), -0.028, rtol=1e-12)


def test_forecast_stoch_drift_variance_grows():
    rng = np.random.default_rng(13)
    y = rng.normal(size=8)
    model = FilterModel(variant="stoch_drift", sigma_eta=0.2, sigma_xi=0.05)
    out = run_filter(y, model, meas_var=np.full(8, 0.2))
    fc = forecast(out, model, horizon=6)
    assert np.all(np.diff(fc.variance) > 0)


def test_forecast_invalid_horizon():
    y = np.zeros(4)
    model = FilterModel(sigma_eta=0.1)
    out = run_filter(y, model, meas_var=np.full(4, 0.2))
    with pytest.raises(InvalidArgumentError):
        forecast(out, model, horizon=0)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, float("nan")])
def test_interval_level_outside_the_unit_interval_is_rejected(level):
    y = np.array([0.1, 0.3, 0.2, 0.5])
    model = FilterModel(sigma_eta=0.1)
    out = run_filter(y, model, meas_var=np.full(4, 0.2))
    with pytest.raises(InvalidArgumentError):
        forecast(out, model, horizon=2, level=level)
    with pytest.raises(InvalidArgumentError):
        fit_filter(y, meas_var=np.full(4, 0.2), level=level)


# ---------------------------------------------------------------------------
# diagnostics


def test_bic_reproduces_published_rows():
    assert bic(3.606, 1, 8) == pytest.approx(-5.132, abs=1e-3)
    assert bic(-2.150, 2, 8) == pytest.approx(8.458, abs=1e-3)


def test_bic_identity():
    assert bic(2.0, 3, 8) == -4.0 + 3 * math.log(8)


def test_diagnostics_zero_residuals():
    model = FilterModel(sigma_eta=0.0)
    out = run_filter(np.full(8, 0.5), model, meas_var=np.full(8, 0.2))
    report = diagnostics(out, model, 8)
    assert report["ljung_box"]["stat"] == pytest.approx(0.0)
    assert report["bowman_shenton"]["stat"] == 0.0
    assert any("degenerate" in note for note in report["notes"])


def test_diagnostics_of_tiny_residuals_equal_those_scaled_by_a_power_of_two():
    # residuals near 1e-180 used to make m2**1.5 underflow to zero and
    # divide by it; scaling by a power of two is exact, so the statistics
    # are those of the same residuals near one
    model = FilterModel(sigma_eta=0.3)
    out = run_filter(np.random.default_rng(8).normal(size=12), model, meas_var=np.full(12, 0.1))
    top = float(np.max(np.abs(out.std_residuals)))
    near_one, tiny = (replace(out, innovation=np.ldexp(out.innovation, -math.frexp(top)[1] - e))
                      for e in (0, 600))
    want, got = diagnostics(near_one, model, 12), diagnostics(tiny, model, 12)
    for name in ("r1", "r2", "ljung_box", "bowman_shenton"):
        assert got[name] == want[name], name


def test_diagnostics_counts_params():
    rng = np.random.default_rng(3)
    y = rng.normal(size=8)
    for variant, mode, want in [
        ("zero_drift", "constrained", 1),
        ("const_drift", "constrained", 2),
        ("stoch_drift", "constrained", 2),
        ("zero_drift", "free", 2),
        ("const_drift", "free", 3),
        ("stoch_drift", "free", 3),
    ]:
        model = FilterModel(variant=variant, mode=mode, sigma_eta=0.2, sigma_xi=0.05,
                            sigma_eps=0.2 if mode == "free" else None)
        out = run_filter(y, model, meas_var=np.full(8, 0.25))
        report = diagnostics(out, model, 8)
        assert report["n_params"] == want
        assert report["bic"] == pytest.approx(-2 * out.loglik + want * math.log(8), rel=1e-14)


def test_diagnostics_too_few_residuals():
    model = FilterModel(sigma_eta=0.5)
    out = run_filter(np.array([0.1, 0.2, 0.3]), model, meas_var=np.full(3, 0.2))
    report = diagnostics(out, model, 3, lags=4)
    assert report["ljung_box"]["stat"] is None
    assert any("omitted" in note for note in report["notes"])


def test_two_dimensional_series_is_rejected():
    # the filter broadcasts over leading axes internally; a caller's series is one wave axis
    with pytest.raises(InvalidArgumentError):
        run_filter(np.ones((1, 5)), FilterModel(sigma_eta=0.2), meas_var=np.full(5, 0.1))
    with pytest.raises(InvalidArgumentError):
        fit_filter(np.ones((1, 5)), meas_var=np.full(5, 0.1))


def test_trend_series_input():
    rng = np.random.default_rng(31)
    cov = np.diag(rng.uniform(0.01, 0.05, size=8))
    series = TrendSeries(beta=rng.normal(size=8), cov=cov)
    out = run_filter(series, FilterModel(sigma_eta=0.2))
    assert out.post_mean.shape == (8,)


# ---------------------------------------------------------------------------
# the one level-plus-drift recursion against the separate reference recursions

FILTER_FIELDS = ("prior_mean", "prior_var", "innovation", "innovation_var", "gain",
                 "post_mean", "post_var")


def random_filter_case(rng, variant):
    T = int(rng.integers(3, 41))
    y = rng.normal(scale=rng.uniform(0.1, 3.0), size=T)
    h = rng.uniform(1e-3, 2.0, size=T)
    model = FilterModel(
        variant=variant,
        sigma_eta=float(rng.uniform(0.0, 1.5)),
        nu=float(rng.normal(scale=0.3)),
        sigma_xi=float(rng.uniform(1e-3, 0.5)),  # ignored unless the drift is stochastic
    )
    return y, h, model


@pytest.mark.parametrize("variant", ["zero_drift", "const_drift"])
def test_known_drift_filter_bit_identical_to_reference(variant):
    rng = np.random.default_rng(2024 if variant == "zero_drift" else 2025)
    for _ in range(1000):
        y, h, model = random_filter_case(rng, variant)
        drift = model.nu if variant == "const_drift" else 0.0
        want = oracles.filter_scalar(y, h, model.sigma_eta, drift)
        out = run_filter(y, model, meas_var=h)
        for name in FILTER_FIELDS:
            assert np.array_equal(getattr(out, name), want[name]), name
        assert out.loglik == want["loglik"]
        horizon = int(rng.integers(1, 15))
        fc = forecast(out, model, horizon)
        mean, var = oracles.forecast_mean_var(want, horizon, model.sigma_eta, drift)
        np.testing.assert_allclose(fc.mean_log, mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(fc.variance, var, rtol=1e-12, atol=0)


def test_stoch_drift_filter_matches_reference():
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        y, h, model = random_filter_case(rng, "stoch_drift")
        want = oracles.filter_2state(y, h, model.sigma_eta, model.sigma_xi)
        out = run_filter(y, model, meas_var=h)
        for name in FILTER_FIELDS:
            got, ref = getattr(out, name), want[name]
            assert np.array_equal(got[:2], ref[:2]), name  # the diffuse steps
            np.testing.assert_allclose(got[2:], ref[2:], rtol=1e-10, atol=0, err_msg=name)
        assert np.array_equal(out.drift_mean[:2], want["drift_mean"][:2])
        np.testing.assert_allclose(out.drift_mean, want["drift_mean"], rtol=1e-10, atol=0)
        assert out.loglik == pytest.approx(want["loglik"], rel=1e-10)
        horizon = int(rng.integers(1, 15))
        fc = forecast(out, model, horizon)
        mean, var = oracles.forecast_mean_var(want, horizon, model.sigma_eta,
                                              sigma_xi=model.sigma_xi)
        np.testing.assert_allclose(fc.mean_log, mean, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(fc.variance, var, rtol=1e-9, atol=1e-12)


BATCH_FIELDS = FILTER_FIELDS + ("drift_mean", "final_state_cov")


@pytest.mark.parametrize("variant", VARIANTS)
def test_batch_rows_equal_run_filter(variant):
    # one recursion call over a batch of points against run_filter at each;
    # some waves are exact (h = 0), and the first point has zero process
    # variance, so that it meets an innovation variance of zero there
    rng = np.random.default_rng(VARIANTS.index(variant))
    d = 2 if variant == "stoch_drift" else 1
    degenerate = 0
    for case in range(40):
        T = int(rng.integers(3, 41))
        y = rng.normal(scale=rng.uniform(0.1, 3.0), size=T)
        h = rng.uniform(1e-3, 2.0, size=T) * (rng.uniform(size=T) > (0.5 if case % 4 else 0.0))
        se, sx = rng.uniform(0.0, 1.5, 6), rng.uniform(1e-3, 0.5, 6)
        se[0] = sx[0] = 0.0
        nu = rng.normal(scale=0.3, size=6) if variant == "const_drift" else np.zeros(6)
        models = [FilterModel(variant=variant, sigma_eta=a, nu=b, sigma_xi=c)
                  for a, b, c in zip(se.tolist(), nu.tolist(), sx.tolist())]
        q_eta = np.array([m.sigma_eta**2 for m in models])
        q_xi = np.array([m.sigma_xi**2 for m in models]) if d == 2 else 0.0
        batch = kalman._recursion(y, h, q_eta, q_xi, nu, d)
        cases = [(y, models, {f: getattr(batch, f) for f in BATCH_FIELDS})]
        if variant == "const_drift":
            # the profile's pair, (y, nu = 0) and (0, nu = 1), as one batch
            pair = kalman._recursion(np.stack([y, np.zeros(T)])[:, None], h, q_eta, q_xi,
                                     np.array([[0.0], [1.0]]), d)
            cases += [(yy, [replace(m, nu=drift) for m in models],
                       {f: getattr(pair, f)[row] for f in BATCH_FIELDS})
                      for row, (yy, drift) in enumerate([(y, 0.0), (np.zeros(T), 1.0)])]
        with np.errstate(divide="ignore"):
            x = np.log(np.column_stack([se, sx][:d]))
        ll = kalman._profile(y, h, variant, False, x)[0]
        for yy, ms, out in cases:
            for j, m in enumerate(ms):
                try:
                    want = run_filter(yy, m, meas_var=h)
                except DegenerateVarianceError:
                    degenerate += 1
                    k = d + int(np.argmax(out["innovation_var"][j, d:] <= 0.0))
                    assert out["innovation_var"][j, k] <= 0.0
                    for name in ("gain", "post_mean", "post_var", "drift_mean"):
                        assert not np.isfinite(out[name][j, k:]).any(), name
                    assert ll[j] == -math.inf
                    continue
                for name in BATCH_FIELDS:
                    assert np.array_equal(out[name][j], getattr(want, name)), name
                assert ll[j] > -math.inf
    assert degenerate > 0

"""The package's tails and quantiles come from ``scipy.special``.

Each call site uses the special function behind the ``scipy.stats`` method
it replaced, so ``scipy.stats`` stays the judge here: every value must be
the same double, at the extremes of its argument and at the degrees of
freedom the code uses.  Each tail is imported where it is used, so that
importing the package, and every command that computes no tail and fits no
model, loads no SciPy module at all.
"""

import json
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from msmtrend import kalman
from msmtrend.errors import InvalidArgumentError
from msmtrend.gain import exact_coefficients, fixed_point, gain_sequence, power
from msmtrend.markov import save_model_spec
from msmtrend.trend import TrendSeries
from msmtrend.trendtests import f_statistic, run_trend_tests

from conftest import drift_series, paperlike_params, paperlike_structure

# arguments from -inf to inf: past the underflow of both tails, round zero,
# and the largest finite doubles
EXTREMES = np.array([-np.inf, -1e300, -40.0, -8.5, -1.0, -1e-300, -0.0, 0.0, 1e-300,
                     0.3, 1.0, 8.5, 40.0, 1e300, np.inf])


def loaded_after(code: str, prefix: str) -> str:
    """The modules under ``prefix`` that a fresh interpreter has loaded after
    running ``code``, as printed on its last line."""
    code += f"\nimport sys; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1]


def test_package_imports_load_no_scipy():
    for module in ("msmtrend.cli", "msmtrend.simulate", "msmtrend.estimator"):
        assert loaded_after(f"import {module}", "scipy") == "[]", module


def test_every_command_but_fit_msm_loads_no_scipy_optimize(tmp_path):
    # the stochastic-drift fit of drift_series(3, 8) zooms past its first grid
    spec, panel, trend = tmp_path / "spec.json", tmp_path / "panel.csv", tmp_path / "trend.json"
    save_model_spec(spec, paperlike_structure(), paperlike_params())
    y, h = drift_series(3, 8)
    trend.write_text(json.dumps({"beta": y.tolist(), "var_diag": h.tolist()}))
    # these commands, and the import itself, load no SciPy module at all
    no_scipy = {"simulate", "validate", "gain-analysis", "report"}
    for argv in ([],
                 ["simulate", "--model-spec", spec, "--n", 50, "--seed", 1, "--out", panel],
                 ["validate", "--panel", panel],
                 ["fit-filter", "--trend", trend, "--variant", "stoch_drift", "--out",
                  tmp_path / "filter.json", "--out-forecast", tmp_path / "forecast.csv"],
                 ["test-trend", "--trend", trend, "--seed", 1, "--mc-reps", 1000, "--out",
                  tmp_path / "tests.json"],
                 ["gain-analysis", "--trend", trend, "--sigma-eta", 0.15, "--out-trajectory",
                  tmp_path / "traj.csv", "--out-fixed-point", tmp_path / "fp.csv"],
                 ["power-curve", "--k", 4, "--s", 1.26, "--out", tmp_path / "power.csv"],
                 ["report", "--trend", trend, "--filter", tmp_path / "filter.json", "--out",
                  tmp_path / "report.json"]):
        run = f"assert main({list(map(str, argv))!r}) == 0" if argv else ""
        prefix = "scipy" if not argv or argv[0] in no_scipy else "scipy.optimize"
        assert loaded_after("from msmtrend.cli import main\n" + run, prefix) == "[]", argv
    for name in ("panel.csv", "filter.json", "tests.json", "traj.csv", "power.csv", "report.json"):
        assert (tmp_path / name).exists(), name


@pytest.mark.parametrize("mode", ["exact", "asymptotic"])
@pytest.mark.parametrize("k, s", [(2, 1e-3), (4, 1.26), (30, 1.26), (3000, 100.0)])
def test_power_is_the_normal_cdf(mode, k, s):
    gains = gain_sequence(np.full(k, s))["gain"] if mode == "exact" else np.full(k, fixed_point(s)[1])
    c, d = exact_coefficients(k, gains)
    c, d = c / c[-1], d / c[-1]
    scale = np.sqrt(float(np.sum(c[:-1] ** 2) + np.sum(d**2) / s))
    np.testing.assert_array_equal(power(EXTREMES, k, s, mode=mode).theta,
                                  stats.norm.cdf(-EXTREMES / scale), strict=True)


def test_normal_quantile_is_the_normal_ppf():
    for level in (1e-300, 1e-16, 0.5, 0.8, 0.9, 0.95, 0.99, 1.0 - 1e-16, np.nextafter(1.0, 0.0)):
        assert kalman._normal_quantile(level) == stats.norm.ppf(0.5 + level / 2.0)


def residual_cases():
    rng = np.random.default_rng(4)
    outlier = rng.standard_normal(1000)
    outlier[500] = 1e6
    return [
        np.zeros(12),  # zero statistics
        rng.standard_normal(5),
        rng.standard_normal(40),
        np.tile([1.0, -1.0], 200),  # Ljung-Box far in the tail
        outlier,  # Bowman-Shenton far in the tail
    ]


@pytest.mark.parametrize("lags", [1, 2, 4, 10])
def test_diagnostics_p_values_are_chi2_tails(lags):
    model = kalman.FilterModel(variant="zero_drift", sigma_eta=1.0)
    checked = 0
    for resid in residual_cases():
        n = resid.size
        output = kalman.FilterOutput(
            prior_mean=np.zeros(n), prior_var=np.ones(n), innovation=resid,
            innovation_var=np.ones(n), gain=np.zeros(n), post_mean=np.zeros(n),
            post_var=np.ones(n), loglik=-1.0, n_diffuse=0, drift_mean=np.zeros(n),
            final_state_cov=np.eye(2))
        report = kalman.diagnostics(output, model, n, lags=lags)
        lb, bs = report["ljung_box"], report["bowman_shenton"]
        if lb["stat"] is not None:
            assert lb["p"] == stats.chi2.sf(lb["stat"], lags)
            checked += 1
        if bs["stat"] and np.any(resid):
            assert bs["p"] == stats.chi2.sf(bs["stat"], 2)
            checked += 1
    assert checked >= 6


@pytest.mark.parametrize("T", [2, 3, 9, 40])
@pytest.mark.parametrize("n", [10, 70_000])
def test_f_statistic_p_values_are_chi2_and_f_tails(T, n):
    for x in (0.0, 1e-300, 0.3, 1.0, 8.5, 40.0, 1e3, 1e300):
        res = f_statistic(np.full(T, np.sqrt(x)), np.eye(T), n)
        assert res["stat"] == pytest.approx(x, rel=1e-14)
        assert res["p_chi2"] == stats.chi2.sf(res["stat"], res["df1"])
        assert res["p_f"] == stats.f.sf(res["stat"], res["df1"], res["df2"])
    # an indefinite covariance puts the statistic below the support
    res = f_statistic(np.ones(T), -np.eye(T), n)
    assert res["stat"] < 0
    assert res["p_chi2"] == stats.chi2.sf(res["stat"], res["df1"]) == 1.0
    assert res["p_f"] == stats.f.sf(res["stat"], res["df1"], res["df2"]) == 1.0


def test_f_statistic_needs_two_waves():
    # chi2(0) has no tail: scipy.stats gives NaN, scipy.special 0 or NaN
    with pytest.raises(InvalidArgumentError, match="at least 2 waves"):
        f_statistic(np.ones(1), np.eye(1), 100)


@pytest.mark.parametrize("T", [3, 4, 9, 30])
def test_zero_drift_p_values_are_normal_and_t_tails(T):
    for slope in (0.0, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e100):
        series = TrendSeries(beta=slope * np.arange(T), cov=np.eye(T), n_transitions=50_000)
        report = run_trend_tests(series, lags=1, mc_grid=2, mc_reps=1000, seed=0)
        t = abs(report["t_nu"]["stat"])
        assert report["t_nu"]["p_normal"] == 2.0 * stats.norm.sf(t)
        assert report["t_nu"]["p_t"] == 2.0 * stats.t.sf(t, T - 1)
        assert report["f"]["p_chi2"] == stats.chi2.sf(report["f"]["stat"], T - 1)
        assert report["f"]["p_f"] == stats.f.sf(report["f"]["stat"], T - 1, 50_000 - T - 2)

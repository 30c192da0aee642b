"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Feeds each check a correct output, which it must accept, and a perturbed
one, which it must reject.  Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from msmtrend import estimator, gain, kalman, simulate, trendtests  # noqa: E402


def trend_series(i: int, T: int = 8, s: float = 1.26) -> estimator.TrendSeries:
    """A seeded trend series with paper-scale variances (signal-to-noise s)."""
    rng = np.random.default_rng([1, i])
    h = 0.0121 * rng.uniform(0.7, 1.3, T)
    walk = np.cumsum(rng.normal(0.0, np.sqrt(s * np.mean(h)), T))
    beta = -6.3 + walk + rng.normal(0.0, np.sqrt(h))
    return estimator.TrendSeries(beta=beta, cov=np.diag(h), n_transitions=16_000)


def cases():
    """Yield (name, problems for the correct output, problems for the perturbed one)."""
    structure, gamma = workloads.truth_structure(), workloads.truth_vector()
    pnl = simulate.simulate_panel(simulate.SimulationConfig(
        n=40, structure=structure, params=workloads.truth_params(), seed=3))
    program = estimator.PanelDesign(pnl, structure).loglik(gamma)
    oracle = oracles.forward_loglik_oracle(pnl.ids, pnl.times, pnl.states, pnl.ages, pnl.female,
                                           structure, gamma)
    # one individual's term shifted by a millionth of a log-likelihood unit
    yield ("likelihood oracle, one shifted term", oracles.check_loglik(program, oracle),
           oracles.check_loglik(program + 1e-6, oracle))

    # the first series whose zero-drift fit is interior (sigma_eta > 0)
    series, fit = next(
        (s, f) for s in map(trend_series, range(12))
        for f in [kalman.fit_filter(s, variant="zero_drift", mode="constrained")]
        if f.model.sigma_eta > 0)
    worse = kalman.FilterModel(variant="zero_drift", sigma_eta=1.5 * fit.model.sigma_eta)
    worse_ll = kalman.run_filter(series, worse).loglik
    yield ("filter grid oracle, worse optimum",
           oracles.check_filter_optimum(series.beta, series.var_diag, "zero_drift", "constrained",
                                        {"sigma_eta": fit.model.sigma_eta}, fit.loglik),
           oracles.check_filter_optimum(series.beta, series.var_diag, "zero_drift", "constrained",
                                        {"sigma_eta": worse.sigma_eta}, worse_ll))
    h2 = series.var_diag[1]
    yield ("K_2 = q/(q+h_2), gain off by one ulp",
           oracles.check_gain_k2(fit.output.gain[1], fit.model.sigma_eta, h2),
           oracles.check_gain_k2(np.nextafter(fit.output.gain[1], 1.0), fit.model.sigma_eta, h2))
    fc = kalman.forecast(fit.output, fit.model, 5)
    yield ("forecast variance steps, one step stretched",
           oracles.check_forecast_variance(fc.variance, fit.model.sigma_eta, fit.output.post_var[-1]),
           oracles.check_forecast_variance(fc.variance * np.r_[1.0, 1.0, 1.001, 1.001, 1.001],
                                           fit.model.sigma_eta, fit.output.post_var[-1]))

    bridge = trendtests.simulate_critical_values("bridge", 200, 5000, seed=1)
    wiener = trendtests.simulate_critical_values("wiener", 200, 5000, seed=1)
    yield ("critical values, swapped tables",
           oracles.check_critical_values(bridge.draws, wiener.draws,
                                         bridge.quantiles[0.95], wiener.quantiles[0.95]),
           oracles.check_critical_values(wiener.draws, bridge.draws,
                                         wiener.quantiles[0.95], bridge.quantiles[0.95]))

    x = np.array([-1.0, -2.0])
    theta = gain.power(x, 30, 1.26, mode="asymptotic").theta
    yield ("power closed form, curve off by 1e-9",
           oracles.check_power(theta, x, 1.26), oracles.check_power(theta + 1e-9, x, 1.26))


def main() -> int:
    bad = 0
    for name, good, perturbed in cases():
        ok = not good and bool(perturbed)
        bad += not ok
        detail = "; ".join(good) if good else (perturbed[0] if perturbed else "perturbation accepted")
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"{bad} check(s) misbehaved" if bad else "every check accepts the correct output "
          "and rejects the perturbed one")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

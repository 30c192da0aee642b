"""The benchmark's workloads: inputs, one timed pass, and output checks.

Each workload has ``PASS_S``, the run seconds per timed pass (a run of S
seconds makes round(S / PASS_S) passes, at least one), ``setup(seed,
workdir)`` returning its inputs,
``run_pass(inputs)`` returning a :class:`Pass`, and ``check(inputs, p)``
returning ``(problems, wrong)``: problems make the run incorrect, while
``wrong`` lists operations whose output failed its oracle because of a
known fault of the program; they count as failed operations.  A pass is one
closed-loop sweep: a single caller in one process, each call made after
the previous one returned.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from msmtrend import cli, estimator, markov, panel, simulate, trendtests

import oracles

# Paper-like ground truth: the same values as ``paperlike_params`` in the
# test suite (onset rates of several per 1000 person-years rising with age,
# declining background mortality, correct classification 0.996 / 0.779).
WAVE_TIMES = tuple(float(t) for t in range(0, 18, 2))
KNOTS = (60.0, 75.0, 90.0)
TRUTH = {
    "beta": [-6.25, -6.18, -6.32, -6.40, -6.28, -6.20, -6.35, -6.30],
    "female_12": -0.10,
    "age_spline_12": [0.125, 0.45],
    "age_spline_f_12": [0.01, -0.09],
    "log_q13_0": float(np.log(0.012)),
    "female_13": -0.30,
    "age_13": 0.09,
    "trend_13": -0.05,
    "log_q23_0": float(np.log(0.032)),
    "female_23": -0.25,
    "age_23": 0.07,
    "trend_23": 0.024,
    "logit_e12": float(np.log(0.004 / 0.996)),
    "logit_e21": float(np.log(0.221 / 0.779)),
    "logit_p2": float(np.log(0.04 / 0.96)),
}


def truth_structure() -> markov.ModelStructure:
    return markov.ModelStructure(knots=KNOTS, wave_times=WAVE_TIMES)


def truth_params() -> markov.HazardParams:
    return markov.HazardParams(**{k: (np.array(v) if isinstance(v, list) else v)
                                  for k, v in TRUTH.items()})


def truth_vector() -> np.ndarray:
    return estimator.pack_params(truth_params(), truth_structure())


@dataclass
class Pass:
    """One timed pass: wall time, stage figures, operation counts, outputs."""

    wall_s: float = 0.0
    stages: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    def call(self, fn, *args, **kwargs):
        """Run one operation; an exception counts as a failed operation."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - the benchmark reports, never stops
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            return None


def _sample_ids(ids: np.ndarray, k: int, seed: int) -> np.ndarray:
    uniq = np.unique(ids)
    return np.random.default_rng([seed, 99]).choice(uniq, size=min(k, uniq.size), replace=False)


def _subset(pnl: panel.Panel, keep_ids) -> panel.Panel:
    mask = np.isin(pnl.ids, keep_ids)
    return panel.Panel(pnl.ids[mask], pnl.times[mask], pnl.states[mask], pnl.ages[mask],
                       pnl.female[mask])


def _oracle_problems(pnl: panel.Panel, gamma, seed: int, k: int, what: str) -> list:
    sub = _subset(pnl, _sample_ids(pnl.ids, k, seed))
    structure = truth_structure()
    program = estimator.PanelDesign(sub, structure).loglik(gamma)
    oracle = oracles.forward_loglik_oracle(sub.ids, sub.times, sub.states, sub.ages, sub.female,
                                           structure, gamma)
    return oracles.check_loglik(program, oracle, 1e-9, what)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# cli_pipeline


class CliPipeline:
    """The whole user path through ``msmtrend.cli.main`` in one process.

    The panel is fixed: its first-stage fit takes 114 to 365 L-BFGS-B
    iterations depending on the simulated panel, so a panel drawn from the
    run's seed would make the wall time spread by half across seeds.  The
    Monte-Carlo seed of ``test-trend`` is fixed too, so that each statistical
    check of its tables is decided once: at 20,000 replications the Wiener
    95% quantile leaves its published range [1.55, 1.70] on about one seed
    in twenty.  The run's seed picks the subset the likelihood oracle checks.
    """

    name = "cli_pipeline"
    PASS_S = 40
    N = 2000
    PANEL_SEED = 2
    MC_SEED = 11
    VARIANTS = ("zero_drift", "const_drift", "stoch_drift")

    def setup(self, seed: int, workdir: str) -> dict:
        spec = os.path.join(workdir, "spec.json")
        markov.save_model_spec(spec, truth_structure(), truth_params())
        f = lambda name: os.path.join(workdir, name)  # noqa: E731
        commands = [
            ("simulate", ["simulate", "--model-spec", spec, "--n", str(self.N),
                          "--seed", str(self.PANEL_SEED), "--out", f("panel.csv")]),
            ("validate", ["validate", "--panel", f("panel.csv")]),
            ("fit", ["fit-msm", "--panel", f("panel.csv"), "--model-spec", spec,
                     "--out-estimate", f("estimate.json"), "--out-trend", f("trend.json")]),
        ]
        commands += [
            ("filter", ["fit-filter", "--trend", f("trend.json"), "--variant", v,
                        "--out", f(f"filter_{v}.json"), "--out-forecast", f(f"forecast_{v}.csv")])
            for v in self.VARIANTS
        ]
        commands += [
            ("trend_tests", ["test-trend", "--trend", f("trend.json"), "--seed", str(self.MC_SEED),
                             "--out", f("tests.json"), "--out-critical", f("critical.csv")]),
            ("gain", ["gain-analysis", "--trend", f("trend.json"), "--sigma-eta", "0.148",
                      "--out-trajectory", f("gains.csv"), "--out-fixed-point", f("fixed.csv")]),
            ("power", ["power-curve", "--k", "30", "--s", "1.26", "--mode", "asymptotic",
                       "--grid=-3:0:0.05", "--out", f("power.csv"), "--size-out", f("size.csv")]),
            ("report", ["report", "--estimate", f("estimate.json"), "--trend", f("trend.json"),
                        "--filter", f("filter_zero_drift.json"), "--trend-tests", f("tests.json"),
                        "--out", f("report.json")]),
        ]
        return {"seed": seed, "dir": workdir, "commands": commands}

    def run_pass(self, inputs: dict) -> Pass:
        p = Pass()
        t0 = time.perf_counter()
        took = dict.fromkeys(("fit", "filter", "trend_tests"), 0.0)
        # the commands' progress lines would mix with the result line
        with contextlib.redirect_stdout(io.StringIO()):
            for stage, argv in inputs["commands"]:
                s0 = time.perf_counter()
                code = p.call(cli.main, argv)
                if stage in took:
                    took[stage] += time.perf_counter() - s0
                if code not in (0, None):
                    p.failed += 1
                    p.errors.append(f"{argv[0]} exited {code}")
        p.wall_s = time.perf_counter() - t0
        p.stages = {"stage.fit_s": took["fit"], "stage.trend_tests_s": took["trend_tests"],
                    "stage.filter_fits_per_s": len(self.VARIANTS) / took["filter"]}
        return p

    def check(self, inputs: dict, p: Pass) -> tuple:
        d = inputs["dir"]
        problems, wrong = list(p.errors), []
        structure = truth_structure()
        est = _read_json(os.path.join(d, "estimate.json"))
        if not est["converged"]:
            problems.append("fit-msm did not converge")
        T = structure.n_waves
        beta, se = np.array(est["estimate"][:T]), np.array(est["se"][:T])
        within = int(np.sum(np.abs(beta - np.array(TRUTH["beta"])) <= 3.0 * se))
        if within < 7:
            problems.append(f"only {within} of {T} wave dummies within 3 SE of the truth")
        pnl = panel.read_panel(os.path.join(d, "panel.csv"))
        ll_truth = estimator.PanelDesign(pnl, structure).loglik(truth_vector())
        if not est["loglik"] >= ll_truth:
            problems.append(f"fitted loglik {est['loglik']} below loglik at truth {ll_truth}")
        problems += _oracle_problems(pnl, np.array(est["estimate"]), inputs["seed"], 60,
                                     "subset loglik at the estimate")

        trend = _read_json(os.path.join(d, "trend.json"))
        for v in self.VARIANTS:
            flt = _read_json(os.path.join(d, f"filter_{v}.json"))
            wrong += oracles.check_filter_optimum(trend["beta"], trend["var_diag"], v,
                                                  flt["mode"], flt["estimates"], flt["loglik"],
                                                  f"fit-filter {v}")
        flt = _read_json(os.path.join(d, "filter_zero_drift.json"))
        sigma_eta = flt["estimates"]["sigma_eta"]
        if sigma_eta > 0:
            problems += oracles.check_gain_k2(flt["waves"]["gain"][1], sigma_eta,
                                              trend["var_diag"][1], "fit-filter zero_drift")
        fc = _read_csv(os.path.join(d, "forecast_zero_drift.csv"))
        problems += oracles.check_forecast_variance(
            [r["var"] for r in fc], sigma_eta, flt["waves"]["post_var"][-1])

        tests = _read_json(os.path.join(d, "tests.json"))
        table = {r["level"]: r["value"] for r in _read_csv(os.path.join(d, "critical.csv"))}
        expected = {float(k): v for k, v in tests["mc"]["bridge_quantiles"].items()}
        if table != expected:
            problems.append(f"critical table {table} differs from the report's {expected}")
        # the tables at test-trend's defaults and seed
        tables = [trendtests.simulate_critical_values(f, 1000, 20_000, self.MC_SEED)
                  for f in ("bridge", "wiener")]
        for f, t in zip(("bridge", "wiener"), tables):
            if {float(k): v for k, v in tests["mc"][f"{f}_quantiles"].items()} != t.quantiles:
                problems.append(f"test-trend {f} quantiles differ from simulate_critical_values")
        problems += oracles.check_critical_values(tables[0].draws, tables[1].draws,
                                                  tables[0].quantiles[0.95],
                                                  tables[1].quantiles[0.95])

        pw = _read_csv(os.path.join(d, "power.csv"))
        problems += oracles.check_power([r["value"] for r in pw], [r["x"] for r in pw], 1.26)
        var = np.array(trend["var_diag"])
        fixed = _read_csv(os.path.join(d, "fixed.csv"))
        k_inf = [oracles.k_inf(0.148**2 / v) for v in var]
        if not np.allclose([r["k_inf"] for r in fixed], k_inf, rtol=1e-12, atol=0):
            problems.append("gain-analysis fixed points differ from the closed form")
        if len(_read_json(os.path.join(d, "report.json"))["sections"]) != 4:
            problems.append("report does not hold the four sections")
        return problems, wrong


# ---------------------------------------------------------------------------
# panel_scale


class PanelScale:
    """A large panel through simulate, CSV write/read, validation, design build
    and a fixed handful of likelihood calls at the truth; no optimizer."""

    name = "panel_scale"
    # four passes: the first of a process is the slowest, and the median
    # of four leaves it out
    PASS_S = 10
    N = 50_000
    LOGLIK_CALLS = 4

    def setup(self, seed: int, workdir: str) -> dict:
        config = simulate.SimulationConfig(n=self.N, structure=truth_structure(),
                                           params=truth_params(), seed=seed)
        return {"seed": seed, "config": config, "csv": os.path.join(workdir, "panel.csv"),
                "gamma": truth_vector()}

    def run_pass(self, inputs: dict) -> Pass:
        p = Pass()
        structure = inputs["config"].structure
        t0 = time.perf_counter()
        sim = p.call(simulate.simulate_panel, inputs["config"])
        t1 = time.perf_counter()
        p.call(panel.write_panel, inputs["csv"], sim)
        back = p.call(panel.read_panel, inputs["csv"])
        problems = p.call(panel.validate_panel, back)
        design = p.call(estimator.PanelDesign, back, structure)
        t2 = time.perf_counter()
        lls = [p.call(design.loglik, inputs["gamma"]) for _ in range(self.LOGLIK_CALLS)]
        t3 = time.perf_counter()
        p.wall_s = t3 - t0
        p.stages = {"stage.ingest_rows_per_s": len(back) / (t2 - t1)}
        p.outputs = {"sim": sim, "back": back, "problems": problems, "design": design,
                     "lls": lls}
        return p

    def check(self, inputs: dict, p: Pass) -> tuple:
        problems = list(p.errors)
        o = p.outputs
        sim, back, design = o["sim"], o["back"], o["design"]
        for col in ("ids", "times", "states", "ages", "female"):
            a, b = getattr(sim, col), getattr(back, col)
            if a.dtype != b.dtype or a.tobytes() != b.tobytes():
                problems.append(f"CSV round trip changed column {col}")
        if o["problems"]:
            problems.append(f"validate_panel found {len(o['problems'])} problems")
        if design.n_transitions != len(back) - back.n_individuals:
            problems.append("n_transitions != rows - individuals")
        lls = o["lls"]
        if len(set(lls)) != 1:
            problems.append(f"repeated loglik calls disagree: {lls}")
        structure, gamma = truth_structure(), inputs["gamma"]
        half = np.unique(back.ids)[: back.n_individuals // 2]
        parts = [estimator.PanelDesign(_subset(back, ids), structure).loglik(gamma)
                 for ids in (half, np.setdiff1d(np.unique(back.ids), half))]
        problems += oracles.check_loglik(lls[0], sum(parts), 1e-10, "loglik over two halves")
        problems += _oracle_problems(back, gamma, inputs["seed"], 100, "subset loglik at the truth")
        return problems, []


WORKLOADS = {w.name: w for w in (CliPipeline(), PanelScale())}

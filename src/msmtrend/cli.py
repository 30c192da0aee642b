"""Command-line pipeline: simulate, fit, filter, test, analyze.

All stochastic commands require an explicit --seed and are byte-reproducible
from (seed, config).  Structured results go to JSON, series and curves to
CSV; the commands hand their documents and result columns to the writers in
:mod:`msmtrend.panel`, which serialize floats in shortest round-trip form, so
re-reading an artifact recovers the exact doubles.  Every output directory is
checked before any computation starts.  Exit codes: 0 success, 1 validation
error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import estimator, gain, kalman, markov, panel as panel_mod, simulate, trendtests
from .errors import (
    DataValidationError,
    InvalidArgumentError,
    InvalidSpecError,
    MsmTrendError,
    NumericalError,
)
from .panel import read_json, write_csv, write_json


class CliUsageError(MsmTrendError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would exit(2) on usage problems; route them through the
    # validation path instead so exit codes keep their documented meaning
    def error(self, message):
        raise CliUsageError(message)


def _require(args, names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise CliUsageError(f"--{name} is required")
    # fail on unwritable output locations, required or optional, before any
    # computation starts or any artifact is written
    for dest, path in vars(args).items():
        if path is not None and (dest.startswith("out") or dest.endswith("_out")):
            parent = os.path.dirname(os.path.abspath(str(path)))
            if not os.path.isdir(parent):
                raise CliUsageError(f"--{dest.replace('_', '-')}: directory {parent} does not exist")


def _load_trend(path) -> estimator.TrendSeries:
    doc = read_json(path)
    try:
        return estimator.TrendSeries.from_json_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataValidationError(f"{path}: not a trend-series document ({exc})") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    _require(args, ["model-spec", "n", "seed", "out"])
    _check_count("n", args.n)
    structure, params = markov.load_model_spec(args.model_spec)
    if params is None:
        raise InvalidSpecError(f"{args.model_spec} has no 'params' block to simulate from")
    config = simulate.SimulationConfig(
        n=args.n,
        structure=structure,
        params=params,
        seed=args.seed,
        age_range=(args.age_min, args.age_max),
        female_share=args.female_share,
    )
    pnl = simulate.simulate_panel(config)
    panel_mod.write_panel(args.out, pnl)
    print(f"wrote {len(pnl)} observations for {config.n} individuals to {args.out}")
    return 0


def cmd_fit_msm(args) -> int:
    _require(args, ["panel", "out-estimate", "out-trend"])
    pnl = panel_mod.read_panel(args.panel)
    problems = panel_mod.validate_panel(pnl)
    if problems:
        raise DataValidationError("; ".join(problems[:10]))
    if args.model_spec:
        structure, _ = markov.load_model_spec(args.model_spec)
    else:
        wave_times = tuple(sorted(np.unique(pnl.times)))
        structure = markov.default_structure(pnl.ages, wave_times)
    # checked above, before the default structure reads the ages
    result = estimator.fit_msm(pnl, structure, maxiter=args.maxiter, validate=False)
    doc = result.to_json_dict()
    doc["structure"] = {
        "knots": list(structure.knots),
        "wave_times": list(structure.wave_times),
        "ref_age": structure.ref_age,
    }
    write_json(args.out_estimate, doc)
    # a fit that did not converge keeps its estimate and exits 2 here
    trend = estimator.extract_trend(result, structure)
    write_json(args.out_trend, trend.to_json_dict())
    print(f"fit converged: loglik={result.loglik:.6f}, n={result.n_transitions} transitions")
    return 0


def cmd_fit_filter(args) -> int:
    _require(args, ["trend", "out"])
    # checked before the fit, so that a bad horizon writes no artifact
    _check_count("horizon", args.horizon)
    if args.horizon < 1:
        raise CliUsageError(f"--horizon must be at least 1, got {args.horizon}")
    series = _load_trend(args.trend)
    fit = kalman.fit_filter(series, variant=args.variant, mode=args.mode, level=args.level)
    report = kalman.diagnostics(fit.output, fit.model, series.n_waves, lags=args.lags)
    out = fit.output
    doc = {
        "variant": fit.model.variant,
        "mode": fit.model.mode,
        "estimates": {
            "sigma_eta": fit.model.sigma_eta,
            "nu": fit.model.nu if fit.model.variant == "const_drift" else None,
            "sigma_xi": fit.model.sigma_xi if fit.model.variant == "stoch_drift" else None,
            "sigma_eps": fit.model.sigma_eps,
        },
        "ci": {k: list(v) for k, v in fit.ci.items()},
        "flags": {
            "boundary": fit.boundary,
            "no_ci": fit.no_ci,
            "warnings": fit.warnings,
        },
        "loglik": fit.loglik,
        "diagnostics": {
            "bic": report.bic,
            "n_params": report.n_params,
            "ljung_box": {
                "lags": report.ljung_box_lags,
                "stat": report.ljung_box,
                "p": report.ljung_box_pvalue,
            },
            "bowman_shenton": {"stat": report.bowman_shenton, "p": report.bowman_shenton_pvalue},
            "r1": report.r1,
            "r2": report.r2,
            "notes": report.notes,
        },
        "waves": {
            "prior_mean": out.prior_mean,
            "prior_var": out.prior_var,
            "innovation": out.innovation,
            "innovation_var": out.innovation_var,
            "gain": out.gain,
            "post_mean": out.post_mean,
            "post_var": out.post_var,
            "std_residuals": out.std_residuals,
            "n_diffuse": out.n_diffuse,
        },
    }
    write_json(args.out, doc)
    if args.out_forecast:
        fc = kalman.forecast(out, fit.model, args.horizon, level=args.level)
        write_csv(args.out_forecast, {"h": fc.horizons, "mean_log": fc.mean_log, "var": fc.variance,
                                      "lo": fc.lower, "hi": fc.upper,
                                      "mean_hazard_scale": fc.mean_hazard_scale})
    flags = f" boundary={fit.boundary}" if fit.boundary else ""
    print(f"filter {fit.model.variant}/{fit.model.mode}: loglik={fit.loglik:.6f} bic={report.bic:.6f}{flags}")
    return 0


def cmd_test_trend(args) -> int:
    _require(args, ["trend", "seed", "out"])
    _check_count("mc-grid", args.mc_grid)
    _check_count("mc-reps", args.mc_reps)
    series = _load_trend(args.trend)
    report = trendtests.run_trend_tests(
        series,
        lags=args.lags,
        estimator=args.estimator,
        mc_grid=args.mc_grid,
        mc_reps=args.mc_reps,
        seed=args.seed,
        double_offdiag=args.double_offdiag,
    )
    write_json(args.out, report)
    if args.out_critical:
        # the table run_trend_tests drew for this functional, seed and grid
        levels, values = zip(*sorted(report["mc"][f"{args.critical_functional}_quantiles"].items()))
        write_csv(args.out_critical, {"level": levels, "value": values})
    t_nu, t_sd, t_s = report["t_nu"], report["t_sd"], report["t_s"]
    print(
        f"t_nu={t_nu['stat']:.4f} (p_normal={t_nu['p_normal']:.4f}), "
        f"t_sd={t_sd['stat']:.4f} (p={t_sd['p']:.4f}), t_s={t_s['stat']:.4f} (p={t_s['p']:.4f})"
    )
    return 0


def cmd_gain_analysis(args) -> int:
    _require(args, ["out-trajectory", "out-fixed-point"])
    if args.trend:
        _require(args, ["sigma-eta"])
        # squared below, so a negative value would stand for its absolute value
        if not args.sigma_eta > 0:
            raise CliUsageError(f"--sigma-eta must be positive, got {args.sigma_eta}")
        series = _load_trend(args.trend)
        # C's pow, as Python's **, but inf rather than an exception on overflow
        with np.errstate(over="ignore"):
            s = np.float64(args.sigma_eta) ** 2 / series.var_diag
    else:
        _require(args, ["s", "periods"])
        _check_count("periods", args.periods)
        # a negative count gets the same one-line error as zero
        s = np.full(max(args.periods, 0), args.s)
    traj = gain.gain_sequence(s)
    k = np.arange(1, len(s) + 1)
    write_csv(args.out_trajectory, {"k": k, "k_paper": k - 1, "s": traj.s, "gain": traj.gains,
                                    "nu_var": traj.nu_var, "slope": traj.slope,
                                    "intercept": traj.intercept})
    fp = gain.fixed_point(s)
    write_csv(args.out_fixed_point, {"k": k, "s": fp.s, "iota": np.full(len(s), fp.iota),
                                     "nu_inf": fp.nu_inf, "k_inf": fp.k_inf})
    print(f"wrote gain trajectory ({len(s)} waves) and fixed points")
    return 0


# the most points a grid, or a count flag (--n, --k, --periods, --mc-*, --horizon), may have
_MAX_POINTS = 1_000_000


def _check_count(name: str, value: int) -> None:
    if value > _MAX_POINTS:
        raise CliUsageError(f"--{name} must be at most {_MAX_POINTS}, got {value}")


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise CliUsageError(f"bad grid spec {spec!r}, expected start:stop:step") from exc
    # a finite grid of at most _MAX_POINTS points
    if not (all(map(math.isfinite, (start, stop, step))) and step > 0 and stop >= start
            and (stop - start) / step < _MAX_POINTS - 0.5):
        raise CliUsageError(f"bad grid spec {spec!r}")
    n = int(round((stop - start) / step)) + 1
    return start + step * np.arange(n)


def cmd_power_curve(args) -> int:
    _require(args, ["k", "s", "out"])
    _check_count("k", args.k)
    grid = _parse_grid(args.grid)
    curve = gain.power(grid, args.k, args.s, mode=args.mode)
    write_csv(args.out, {"x": curve.eta_std, "value": curve.theta})
    if args.size_out:
        # size lives on nonnegative shocks: mirror the power grid
        size_grid = np.unique(np.abs(grid))
        alpha = gain.size(size_grid, args.k, args.s, mode=args.mode)
        write_csv(args.size_out, {"x": alpha.eta_std, "value": alpha.theta})
    print(f"wrote power curve over {grid.size} points (k={args.k}, s={args.s}, {args.mode})")
    return 0


def cmd_report(args) -> int:
    _require(args, ["out"])
    doc = {"tool": "msmtrend", "sections": {}}
    for key, path in (
        ("estimation", args.estimate),
        ("trend", args.trend),
        ("filter", args.filter),
        ("trend_tests", args.trend_tests),
    ):
        if path:
            doc["sections"][key] = read_json(path)
    if not doc["sections"]:
        raise CliUsageError("nothing to aggregate; give at least one input JSON")
    write_json(args.out, doc)
    print(f"aggregated {len(doc['sections'])} sections into {args.out}")
    return 0


def cmd_validate(args) -> int:
    _require(args, ["panel"])
    pnl = panel_mod.read_panel(args.panel)
    problems = panel_mod.validate_panel(pnl)
    for line in problems:
        print(line)
    if problems:
        raise DataValidationError(f"{len(problems)} problem(s) found")
    print("panel is clean")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="msmtrend", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn, parser=p)
        p.add_argument("--config", help="JSON file supplying defaults for any flag")
        return p

    p = add("simulate", cmd_simulate, "generate a synthetic misclassified panel CSV")
    p.add_argument("--model-spec", help="model-spec JSON with a params block")
    p.add_argument("--n", type=int, help="number of individuals")
    p.add_argument("--seed", type=int, help="RNG seed (required)")
    p.add_argument("--age-min", type=float, default=52.0)
    p.add_argument("--age-max", type=float, default=88.0)
    p.add_argument("--female-share", type=float, default=0.55)
    p.add_argument("--out", help="output panel CSV")

    p = add("fit-msm", cmd_fit_msm, "fit the multi-state model to a panel CSV")
    p.add_argument("--panel")
    p.add_argument("--model-spec", help="structure JSON; defaults derived from the panel")
    p.add_argument("--maxiter", type=int, default=500, help="bound on trust-region iterations")
    p.add_argument("--out-estimate")
    p.add_argument("--out-trend")

    p = add("fit-filter", cmd_fit_filter, "ML filter fit, diagnostics and forecast")
    p.add_argument("--trend")
    p.add_argument("--variant", choices=kalman.VARIANTS, default="zero_drift")
    p.add_argument("--mode", choices=("constrained", "free"), default="constrained")
    p.add_argument("--level", type=float, default=0.90)
    p.add_argument("--lags", type=int, default=4)
    p.add_argument("--horizon", type=int, default=10)
    p.add_argument("--out")
    p.add_argument("--out-forecast")

    p = add("test-trend", cmd_test_trend, "nonparametric drift tests")
    p.add_argument("--trend")
    p.add_argument("--lags", type=int, default=3)
    p.add_argument("--estimator", choices=("hac", "long_run"), default="hac")
    p.add_argument("--double-offdiag", action="store_true")
    p.add_argument("--mc-grid", type=int, default=1000,
                   help="the number of walk steps whose functional is drawn")
    p.add_argument("--mc-reps", type=int, default=20_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--out-critical")
    p.add_argument("--critical-functional", choices=("bridge", "wiener"), default="bridge")

    p = add("gain-analysis", cmd_gain_analysis, "gain trajectory and fixed points")
    p.add_argument("--trend")
    p.add_argument("--sigma-eta", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--periods", type=int)
    p.add_argument("--out-trajectory")
    p.add_argument("--out-fixed-point")

    p = add("power-curve", cmd_power_curve, "analytic power/size curves")
    p.add_argument("--k", type=int)
    p.add_argument("--s", type=float)
    p.add_argument("--mode", choices=("exact", "asymptotic"), default="exact")
    p.add_argument("--grid", default="-3:0:0.1", help="start:stop:step for eta/sigma_eta")
    p.add_argument("--out")
    p.add_argument("--size-out")

    p = add("report", cmd_report, "aggregate prior outputs into one JSON")
    p.add_argument("--estimate")
    p.add_argument("--trend")
    p.add_argument("--filter")
    p.add_argument("--trend-tests")
    p.add_argument("--out")

    p = add("validate", cmd_validate, "schema-check a panel CSV")
    p.add_argument("--panel")

    return parser


def _config_tokens(args) -> list:
    """The flag tokens that ``--config`` stands for.

    Config values pass through the subcommand's own argparse actions, so a
    value of the wrong type, outside the choices or under an unknown key
    fails as it would on the command line.
    """
    config = read_json(args.config)
    if not isinstance(config, dict):
        raise DataValidationError(f"{args.config}: config must be a JSON object")
    actions = {a.dest: a for a in args.parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    tokens = []
    for key, value in config.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise CliUsageError(f"{args.config}: unknown key {key!r} for {args.command}")
        flag = action.option_strings[-1]
        if action.nargs == 0:  # store_true switch
            if not isinstance(value, bool):
                raise CliUsageError(f"{args.config}: {key!r} must be true or false")
            tokens += [flag] if value else []
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            tokens.append(f"{flag}={value}")
        else:
            raise CliUsageError(f"{args.config}: {key!r} must be a number or a string")
    try:
        args.parser.parse_args(tokens)
    except CliUsageError as exc:
        raise CliUsageError(f"{args.config}: {exc}") from exc
    return tokens


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config flags come first, so that the command line's own win
            args = parser.parse_args([argv[0], *_config_tokens(args), *argv[1:]])
        return args.fn(args)
    except (CliUsageError, DataValidationError, InvalidSpecError, InvalidArgumentError) as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: validation: missing file: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:  # a directory, no permission, ...: still an input problem
        where = f": {exc.filename}" if exc.filename else ""
        print(f"error: validation: {exc.strerror or exc}{where}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

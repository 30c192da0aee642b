import contextlib
import csv
import functools
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msmtrend import cli, estimator, gain, kalman, simulate, trendtests
from msmtrend.markov import HazardParams, load_model_spec, save_model_spec
from msmtrend.panel import read_json, write_json, write_panel

from conftest import paperlike_params, paperlike_structure
from oracles import legacy_panel


def fixture_params() -> HazardParams:
    """Event rates high enough that 500 individuals identify every wave
    dummy; a small panel with realistic dementia incidence would leave some
    waves without a single observed onset."""
    return HazardParams(
        beta=np.array([-4.70, -4.62, -4.75, -4.80, -4.68, -4.64, -4.78, -4.72]),
        female_12=-0.10,
        age_spline_12=np.array([0.10, 0.40]),
        age_spline_f_12=np.array([0.01, -0.05]),
        log_q13_0=float(np.log(0.012)),
        female_13=-0.30,
        age_13=0.09,
        trend_13=-0.05,
        log_q23_0=float(np.log(0.032)),
        female_23=-0.25,
        age_23=0.07,
        trend_23=0.024,
        logit_e12=float(np.log(0.01 / 0.99)),
        logit_e21=float(np.log(0.22 / 0.78)),
        logit_p2=float(np.log(0.05 / 0.95)),
    )


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "msmtrend", *map(str, args)],
        capture_output=True, text=True,
    )


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_fixture_spec(path):
    save_model_spec(path, paperlike_structure(), fixture_params())
    return path


def simulate_fixture_panel(spec_file, out):
    res = run_cli("simulate", "--model-spec", spec_file, "--n", 500, "--seed", 4, "--out", out)
    assert res.returncode == 0, res.stderr
    return out


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    return write_fixture_spec(tmp_path_factory.mktemp("spec") / "model_spec.json")


@pytest.fixture(scope="module")
def panel_file(spec_file, tmp_path_factory):
    return simulate_fixture_panel(spec_file, tmp_path_factory.mktemp("panel") / "panel.csv")


def test_simulate_deterministic(spec_file, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        res = run_cli("simulate", "--model-spec", spec_file, "--n", 120, "--seed", 9, "--out", out)
        assert res.returncode == 0, res.stderr
    assert a.read_bytes() == b.read_bytes()


def test_simulate_requires_seed(spec_file, tmp_path):
    res = run_cli("simulate", "--model-spec", spec_file, "--n", 10, "--out", tmp_path / "x.csv")
    assert res.returncode == 1
    assert res.stderr.startswith("error: validation:")
    assert res.stderr.count("\n") == 1


def test_missing_file_exit_code(tmp_path):
    res = run_cli("validate", "--panel", tmp_path / "nope.csv")
    assert res.returncode == 1
    assert res.stderr.startswith("error: validation:")


def test_malformed_panel_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    header = "id,time,state,age,female\n"
    for text, where in [("id,time,state\n1,0,1\n", "header"),
                        (header + "1,0.0,1,70.0,0\n99999999999999999999,2.0,1,72.0,0\n", "row 3"),
                        (header + "9223372036854775808,0.0,1,70.0,0\n", "row 2"),
                        (header + "1,0.0,1,70.0,0\n\n1,2.0,-9223372036854775809,72.0,0\n",
                         "row 4")]:
        bad.write_text(text)
        res = run_cli("validate", "--panel", bad)
        assert res.returncode == 1, where
        assert res.stderr.startswith("error: validation:"), res.stderr
        assert res.stderr.count("\n") == 1, res.stderr
        assert where in res.stderr


def test_validate_reports_row_numbers(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        "id,time,state,age,female\n"
        "1,0.0,1,70.0,0\n"
        "1,2.0,3,72.0,0\n"
        "1,4.0,1,74.0,0\n"
    )
    res = run_cli("validate", "--panel", path)
    assert res.returncode == 1
    assert "row 4" in res.stdout
    assert "after death" in res.stdout


def test_validate_flags_non_monotone_times(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        "id,time,state,age,female\n"
        "1,0.0,1,70.0,0\n"
        "1,2.0,1,72.0,0\n"
        "2,2.0,1,65.0,1\n"
        "2,2.0,2,67.0,1\n"
    )
    res = run_cli("validate", "--panel", path)
    assert res.returncode == 1
    assert "not strictly increasing" in res.stdout
    assert "id 2" in res.stdout


def test_validate_clean_panel(panel_file):
    res = run_cli("validate", "--panel", panel_file)
    assert res.returncode == 0
    assert "clean" in res.stdout


def run_pipeline(panel_file, spec_file, out):
    """Run every command on the fixture panel into ``out``; the artifacts' paths by name."""
    est, trend = out / "estimate.json", out / "trend.json"
    res = run_cli("fit-msm", "--panel", panel_file, "--model-spec", spec_file,
                  "--out-estimate", est, "--out-trend", trend)
    assert res.returncode == 0, res.stderr
    filt, fc = out / "filter.json", out / "forecast.csv"
    res = run_cli("fit-filter", "--trend", trend, "--out", filt, "--out-forecast", fc,
                  "--horizon", 6)
    assert res.returncode == 0, res.stderr
    tt = out / "trendtest.json"
    res = run_cli("test-trend", "--trend", trend, "--seed", 5, "--mc-reps", 2000, "--out", tt)
    assert res.returncode == 0, res.stderr
    gt, gf = out / "gain.csv", out / "fixed.csv"
    res = run_cli("gain-analysis", "--s", 1.26, "--periods", 8,
                  "--out-trajectory", gt, "--out-fixed-point", gf)
    assert res.returncode == 0, res.stderr
    pw, sz = out / "power.csv", out / "size.csv"
    res = run_cli("power-curve", "--k", 4, "--s", 1.26, "--grid=-3:0:0.25",
                  "--out", pw, "--size-out", sz)
    assert res.returncode == 0, res.stderr
    rep = out / "report.json"
    res = run_cli("report", "--estimate", est, "--trend", trend, "--filter", filt,
                  "--trend-tests", tt, "--out", rep)
    assert res.returncode == 0, res.stderr
    return {"estimate": est, "trend": trend, "filter": filt, "forecast": fc,
            "trendtest": tt, "gain": gt, "fixed": gf, "power": pw, "size": sz,
            "report": rep, "panel": panel_file}


@pytest.fixture(scope="module")
def pipeline(panel_file, spec_file, tmp_path_factory):
    """Full pipeline artifacts from the bundled 500-individual fixture."""
    return run_pipeline(panel_file, spec_file, tmp_path_factory.mktemp("artifacts"))


def read_columns(path) -> dict:
    """A CSV artifact as lists by column: integers as int, every other cell as float."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return {name: [int(v) if v.lstrip("-").isdigit() else float(v) for v in column]
            for name, column in zip(header, zip(*rows))}


def pipeline_numbers(paths) -> dict:
    """What the pipeline fixture writes, by artifact: the panel's sha256, the
    JSON documents whole and each CSV by column.  The report only gathers
    the documents, so it is left out."""
    doc = {"panel_sha256": sha(paths["panel"])}
    for key in ("estimate", "trend", "filter", "trendtest"):
        doc[key] = json.loads(paths[key].read_text())
    for key in ("forecast", "gain", "fixed", "power", "size"):
        doc[key] = read_columns(paths[key])
    return doc


# pipeline_numbers of the fixture, written by tests/reference/write_pipeline.py
REFERENCE = Path(__file__).parent / "reference" / "pipeline.json"
# The reference's tolerances.  Against the file, 11 runs moved nothing but
# floats: OpenBLAS on 1, 2 and 4 threads, its Sandybridge, Nehalem, Prescott,
# SkylakeX and Zen kernels (OPENBLAS_CORETYPE), and estimator._BLOCK at 64,
# 100 and 333 (8, 5 and 2 blocks).  Their largest moves: 3.4e-14 SE on an
# estimate, 1.4e-12 of se_i se_j on a covariance entry, and 2.4e-11 relative
# on any other float (the F test's p_f of 4.5e-18; 7.7e-13 outside its
# p-values).  Handing BHHH over at a gain of 1e-6 instead of 1e-2 moves the
# fit's iterations from 8 to 23 and its estimates by up to 6.7e-6 SE.
_REFERENCE_SE = 1e-8
_REFERENCE_REL = 1e-8


def reference_mismatches(got, want, tol, path=()) -> list:
    """(path, got, want) wherever ``got`` departs from ``want``: a dict's key
    set, a list's length, a float by more than ``tol(path, want)`` and any
    other value (integers, flags, strings) at all."""
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [m for k in want for m in reference_mismatches(got[k], want[k], tol, path + (k,))]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in reference_mismatches(g, w, tol, path + (i,))]
    if isinstance(want, float) and isinstance(got, float):
        if got == want or math.isnan(got) and math.isnan(want) or abs(got - want) <= tol(path, want):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [(path, got, want)]


def test_pipeline_matches_the_reference(pipeline):
    # the fit's estimates and covariance in units of the reference's SEs,
    # every other float relative to itself
    want = json.loads(REFERENCE.read_text())
    se = want["estimate"]["se"]

    def tol(path, value):
        if path[:2] == ("estimate", "estimate"):
            return _REFERENCE_SE * se[path[2]]
        if path[:2] == ("estimate", "covariance"):
            return _REFERENCE_SE * se[path[2]] * se[path[3]]
        return _REFERENCE_REL * abs(value)

    assert reference_mismatches(pipeline_numbers(pipeline), want, tol) == []


def test_pipeline_emits_all_artifacts(pipeline):
    for key, path in pipeline.items():
        assert path.exists(), key
    doc = json.loads(pipeline["report"].read_text())
    assert set(doc["sections"]) == {"estimation", "trend", "filter", "trend_tests"}


def test_pipeline_does_not_mutate_inputs(pipeline, spec_file):
    before = sha(pipeline["panel"])
    run_cli("fit-msm", "--panel", pipeline["panel"], "--model-spec", spec_file,
            "--out-estimate", pipeline["estimate"].parent / "again.json",
            "--out-trend", pipeline["estimate"].parent / "again_trend.json")
    assert sha(pipeline["panel"]) == before


def test_filter_json_bic_identity(pipeline):
    doc = json.loads(pipeline["filter"].read_text())
    bic = doc["diagnostics"]["bic"]
    want = -2 * doc["loglik"] + doc["diagnostics"]["n_params"] * math.log(8)
    assert bic == pytest.approx(want, rel=1e-15)
    # the same arithmetic reproduces the published row: -2(3.606) + ln 8
    assert -2 * 3.606 + 1 * math.log(8) == pytest.approx(-5.132, abs=1e-3)


def test_filter_json_diagnostics_are_the_library_block(pipeline):
    doc = json.loads(pipeline["filter"].read_text())
    series = estimator.TrendSeries.from_json_dict(json.loads(pipeline["trend"].read_text()))
    fit = kalman.fit_filter(series)
    block = kalman.diagnostics(fit.output, fit.model, series.n_waves)
    assert doc["diagnostics"] == block
    assert list(doc["diagnostics"]) == list(block) == [
        "bic", "n_params", "ljung_box", "bowman_shenton", "r1", "r2", "notes"]


def test_forecast_csv_schema(pipeline):
    lines = pipeline["forecast"].read_text().splitlines()
    assert lines[0] == "h,mean_log,var,lo,hi,mean_hazard_scale"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "1"
    mean_log, var, lo, hi, hz = map(float, first[1:])
    assert var >= 0.0
    assert lo <= mean_log <= hi
    if var > 0:
        assert lo < mean_log < hi
    assert hz == pytest.approx(math.exp(mean_log), rel=1e-12)


def test_trend_json_round_trips_exactly(pipeline):
    doc = json.loads(pipeline["trend"].read_text())
    again = json.loads(json.dumps(doc))
    assert again == doc
    assert len(doc["beta"]) == 8
    assert len(doc["cov"]) == 8


def test_trend_json_is_the_trend_of_the_estimate_json(pipeline, spec_file, tmp_path):
    # extract_trend takes the fit's document as estimate.json gives it
    # back, and gives trend.json's bytes
    doc = read_json(pipeline["estimate"])
    assert list(doc) == ["names", "estimate", "se", "free", "loglik", "converged", "iterations",
                         "n_transitions", "covariance", "warnings", "structure"]
    structure, _ = load_model_spec(spec_file)
    write_json(tmp_path / "trend.json", estimator.extract_trend(doc, structure).to_json_dict())
    assert (tmp_path / "trend.json").read_bytes() == pipeline["trend"].read_bytes()


def test_power_curve_csv(pipeline):
    lines = pipeline["power"].read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 14
    xs = [float(l.split(",")[0]) for l in lines[1:]]
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert xs[0] == -3.0 and xs[-1] == 0.0
    assert vals[-1] == pytest.approx(0.5)
    assert all(a >= b for a, b in zip(vals, vals[1:]))  # decreasing toward 0.5


def test_gain_csv_labels(pipeline):
    lines = pipeline["gain"].read_text().splitlines()
    assert lines[0] == "k,k_paper,s,gain,nu_var,slope,intercept"
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "0"
    assert float(first[3]) == 1.0  # diffuse gain


def test_config_file_supplies_defaults(spec_file, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 37, "seed": 12, "out": str(tmp_path / "c.csv")}))
    res = run_cli("simulate", "--model-spec", spec_file, "--config", config)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "c.csv").exists()
    # explicit flags win over the config
    res = run_cli("simulate", "--model-spec", spec_file, "--config", config,
                  "--out", tmp_path / "d.csv")
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "d.csv").read_text() == (tmp_path / "c.csv").read_text()


@pytest.mark.parametrize("doc, message", [
    ({"n": "abc"}, "argument --n: invalid int value: 'abc'"),
    ({"n": 2.5}, "argument --n: invalid int value: '2.5'"),
    ({"n": True}, "'n' must be a number or a string"),
    ({"female_share": None}, "'female_share' must be a number or a string"),
    ({"bogus": 3}, "unknown key 'bogus' for simulate"),
], ids=["bad_int", "float_for_int", "bool_for_int", "null", "unknown_key"])
def test_config_values_pass_through_argparse(spec_file, tmp_path, doc, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 5, "seed": 1, "out": str(tmp_path / "c.csv"), **doc}))
    res = run_cli("simulate", "--model-spec", spec_file, "--config", config)
    assert res.returncode == 1
    assert res.stderr.strip() == f"error: validation: {config}: {message}"
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "c.csv").exists()


def test_config_choices_and_switches_pass_through_argparse(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"variant": "nope"}))
    res = run_cli("fit-filter", "--trend", tmp_path / "t.json", "--config", config)
    assert res.returncode == 1
    assert "argument --variant: invalid choice: 'nope'" in res.stderr
    config.write_text(json.dumps({"double-offdiag": "yes"}))
    res = run_cli("test-trend", "--trend", tmp_path / "t.json", "--config", config)
    assert res.returncode == 1
    assert res.stderr.strip() == f"error: validation: {config}: 'double-offdiag' must be true or false"


def test_gain_analysis_from_trend(pipeline, tmp_path):
    gt, gf = tmp_path / "traj.csv", tmp_path / "fp.csv"
    res = run_cli("gain-analysis", "--trend", pipeline["trend"], "--sigma-eta", 0.15,
                  "--out-trajectory", gt, "--out-fixed-point", gf)
    assert res.returncode == 0, res.stderr
    rows = gt.read_text().splitlines()
    assert len(rows) == 9  # header + 8 waves
    fp_rows = gf.read_text().splitlines()
    assert fp_rows[0] == "k,s,iota,nu_inf,k_inf"
    assert len(fp_rows) == 9


def test_gain_analysis_negative_sigma_eta_is_one_line_error(tmp_path):
    # the value is squared, so a negative one would run as its absolute value
    trend = tmp_path / "trend.json"
    trend.write_text(json.dumps({"beta": [0.1, 0.3, 0.2, 0.5, 0.4, 0.7, 0.6, 0.9],
                                 "var_diag": [0.01] * 8}))
    gt, gf = tmp_path / "traj.csv", tmp_path / "fp.csv"
    res = run_cli("gain-analysis", "--trend", trend, "--sigma-eta", -0.148,
                  "--out-trajectory", gt, "--out-fixed-point", gf)
    assert res.returncode == 1
    assert res.stderr == "error: validation: --sigma-eta must be positive, got -0.148\n"
    assert not gt.exists() and not gf.exists()


@pytest.mark.parametrize("periods", [0, -1])
def test_gain_analysis_without_periods_is_one_line_error(tmp_path, periods):
    gt, gf = tmp_path / "traj.csv", tmp_path / "fp.csv"
    res = run_cli("gain-analysis", "--s", 1.26, "--periods", periods,
                  "--out-trajectory", gt, "--out-fixed-point", gf)
    assert res.returncode == 1
    assert res.stderr == "error: validation: need a one-dimensional signal-to-noise sequence\n"
    assert not gt.exists() and not gf.exists()


def test_critical_value_csv(pipeline, tmp_path):
    out = tmp_path / "report.json"
    crit = tmp_path / "crit.csv"
    res = run_cli("test-trend", "--trend", pipeline["trend"], "--seed", 5,
                  "--mc-reps", 2000, "--out", out, "--out-critical", crit,
                  "--critical-functional", "wiener")
    assert res.returncode == 0, res.stderr
    lines = crit.read_text().splitlines()
    assert lines[0] == "level,value"
    levels = [float(l.split(",")[0]) for l in lines[1:]]
    values = [float(l.split(",")[1]) for l in lines[1:]]
    assert levels == sorted(levels)
    assert values == sorted(values)


def test_test_trend_deterministic(pipeline, tmp_path):
    out1, out2 = tmp_path / "t1.json", tmp_path / "t2.json"
    for out in (out1, out2):
        res = run_cli("test-trend", "--trend", pipeline["trend"], "--seed", 5,
                      "--mc-reps", 2000, "--out", out)
        assert res.returncode == 0, res.stderr
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# input failures: one stderr line, exit 1


def fit_msm_args(panel, tmp_path, spec=None):
    args = ["fit-msm", "--panel", panel, "--out-estimate", tmp_path / "e.json",
            "--out-trend", tmp_path / "t.json"]
    return args + (["--model-spec", spec] if spec else [])


@pytest.mark.parametrize("with_spec", [False, True])
def test_fit_msm_rejects_malformed_panel(spec_file, tmp_path, with_spec):
    path = tmp_path / "bad.csv"
    path.write_text(
        "id,time,state,age,female\n"
        "1,0.0,1,70.0,0\n"
        "1,2.0,3,72.0,0\n"
        "1,4.0,1,74.0,0\n"
        "2,0.0,1,nan,1\n"
        "2,2.0,1,67.0,1\n"
    )
    res = run_cli(*fit_msm_args(path, tmp_path, spec_file if with_spec else None))
    assert res.returncode == 1
    assert res.stderr == (
        "error: validation: row 5: non-finite time or age; "
        "row 4: id 1 has observations after death\n"
    )
    assert not (tmp_path / "e.json").exists()


def test_dead_at_first_observation_rejected_by_validate_and_fit(spec_file, tmp_path):
    path = tmp_path / "dead.csv"
    path.write_text(
        "id,time,state,age,female\n"
        "1,0.0,1,70.0,0\n"
        "1,2.0,2,72.0,0\n"
        "2,0.0,3,64.0,1\n"
    )
    res = run_cli("validate", "--panel", path)
    assert res.returncode == 1
    assert res.stdout.splitlines() == ["row 4: id 2 is dead at its first observation"]
    res = run_cli(*fit_msm_args(path, tmp_path, spec_file))
    assert res.returncode == 1
    assert res.stderr == "error: validation: row 4: id 2 is dead at its first observation\n"


def test_validate_directory_is_one_line_error(tmp_path):
    res = run_cli("validate", "--panel", tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("error: validation:")
    assert res.stderr.count("\n") == 1


def test_non_utf8_inputs_are_one_line_errors(tmp_path):
    path = tmp_path / "binary"
    path.write_bytes(b"id,time\xff\xfe\n")
    for args in (["validate", "--panel", path],
                 ["fit-filter", "--trend", path, "--out", tmp_path / "f.json"]):
        res = run_cli(*args)
        assert res.returncode == 1, args
        assert res.stderr.startswith("error: validation:")
        assert res.stderr.count("\n") == 1


def test_trend_with_non_numeric_beta_is_one_line_error(tmp_path):
    path = tmp_path / "trend.json"
    for text in ['{"beta": ["a", 1.0, 2.0], "var_diag": [0.01, 0.01, 0.01]}',
                 '{"beta": [[0.1, 0.2, 0.3]], "var_diag": [0.01, 0.01, 0.01]}',
                 '{"beta": [0.1, 0.2, NaN, 0.5], "var_diag": [0.01, 0.01, 0.01, 0.01]}',
                 '{"beta": [0.1, 0.2, 0.3, 0.5], "var_diag": [0.01, Infinity, 0.01, 0.01]}',
                 *('{"beta": [0.1, 0.2, 0.3, 0.5], "var_diag": [0.01, 0.01, 0.01, 0.01], '
                   f'"n_transitions": {n}}}'
                   for n in ('"abc"', "1e400", "[1]", "{}", "-5", "2.5", "true"))]:
        path.write_text(text)
        for args in (["fit-filter", "--trend", path, "--out", tmp_path / "f.json"],
                     ["test-trend", "--trend", path, "--seed", 1, "--out", tmp_path / "t.json"]):
            res = run_cli(*args)
            assert res.returncode == 1, (text, args)
            assert res.stderr.startswith("error: validation:"), res.stderr
            assert res.stderr.count("\n") == 1, res.stderr


@pytest.mark.parametrize("args", [
    ["simulate", "--n", 5, "--seed", -1],
    ["test-trend", "--seed", -1],
    ["test-trend", "--seed", 1, "--mc-reps", 999],
    ["test-trend", "--seed", 1, "--mc-grid", 1],
    ["test-trend", "--seed", 1, "--lags", -1],
    ["fit-filter", "--lags", 0],
    ["fit-filter", "--level", 1.5],
    ["fit-filter", "--horizon", 0],
], ids=["simulate-seed", "test-trend-seed", "test-trend-mc-reps", "test-trend-mc-grid",
        "test-trend-lags", "fit-filter-lags", "fit-filter-level", "fit-filter-horizon"])
def test_out_of_domain_settings_are_one_line_errors(spec_file, tmp_path, args):
    trend = tmp_path / "trend.json"
    trend.write_text(json.dumps({"beta": [0.1, 0.3, 0.2, 0.5, 0.4, 0.7, 0.6, 0.9],
                                 "var_diag": [0.01] * 8}))
    source = ["--model-spec", spec_file] if args[0] == "simulate" else ["--trend", trend]
    out = tmp_path / "out"
    res = run_cli(*args, *source, "--out", out)
    assert res.returncode == 1
    assert res.stderr.startswith("error: validation:")
    assert res.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("spec", ["nan:0:0.1", "0:inf:1", "0:1e21:1", "0:1:inf", "0:1e12:1"])
def test_non_finite_or_unindexable_grid_is_one_line_error(tmp_path, spec):
    out = tmp_path / "curve.csv"
    res = run_cli("power-curve", "--k", 4, "--s", 1.26, f"--grid={spec}", "--out", out)
    assert res.returncode == 1
    assert res.stderr == f"error: validation: bad grid spec {spec!r}\n"
    assert not out.exists()


# a horizon is tried only at 1,000,001, which is rejected before the fit
@pytest.mark.parametrize("flag, count", [("k", 1_000_001), ("k", 10**18), ("periods", 1_000_001),
                                         ("periods", 10**18), ("horizon", 1_000_001),
                                         ("n", 10**12)])
def test_order_and_periods_beyond_a_million_are_one_line_errors(spec_file, tmp_path, flag, count):
    out = tmp_path / "out.csv"
    if flag == "n":  # NumPy's memory error used to end this in a traceback
        args = ["simulate", "--model-spec", spec_file, "--n", count, "--seed", 1, "--out", out]
    elif flag == "k":
        args = ["power-curve", "--k", count, "--s", 1.26, "--out", out]
    elif flag == "periods":
        args = ["gain-analysis", "--s", 1.26, "--periods", count, "--out-trajectory", out,
                "--out-fixed-point", tmp_path / "fp.csv"]
    else:
        trend = tmp_path / "trend.json"
        trend.write_text(json.dumps({"beta": [0.1, 0.3, 0.2, 0.5, 0.4, 0.7, 0.6, 0.9],
                                     "var_diag": [0.01] * 8}))
        args = ["fit-filter", "--trend", trend, "--horizon", count, "--out", out,
                "--out-forecast", tmp_path / "fc.csv"]
    res = run_cli(*args)
    assert res.returncode == 1
    assert res.stderr == f"error: validation: --{flag} must be at most 1000000, got {count}\n"
    assert not out.exists()


@pytest.mark.parametrize("count", [1_000_001, 10**12])
@pytest.mark.parametrize("flag", ["mc-reps", "mc-grid"])
def test_monte_carlo_counts_beyond_a_million_are_one_line_errors(tmp_path, flag, count):
    trend = tmp_path / "trend.json"
    trend.write_text(json.dumps({"beta": [0.1, 0.3, 0.2, 0.5, 0.4, 0.7, 0.6, 0.9],
                                 "var_diag": [0.01] * 8}))
    out = tmp_path / "tests.json"
    res = run_cli("test-trend", "--trend", trend, "--seed", 1, f"--{flag}", count, "--out", out)
    assert res.returncode == 1
    assert res.stderr == f"error: validation: --{flag} must be at most 1000000, got {count}\n"
    assert not out.exists()


def test_power_curve_order_of_a_million_runs(tmp_path):
    out = tmp_path / "power.csv"
    res = run_cli("power-curve", "--k", 1_000_000, "--s", 1.26, "--mode", "asymptotic",
                  "--grid=-1:0:1", "--out", out)
    assert res.returncode == 0, res.stderr
    assert out.read_text().count("\n") == 3


@pytest.mark.parametrize("maxiter", [0, -3])
def test_fit_msm_maxiter_below_one_is_one_line_error(panel_file, spec_file, tmp_path, maxiter):
    res = run_cli(*fit_msm_args(panel_file, tmp_path, spec_file), "--maxiter", maxiter)
    assert res.returncode == 1
    assert res.stderr == f"error: validation: maxiter must be at least 1, got {maxiter}\n"
    assert not (tmp_path / "e.json").exists() and not (tmp_path / "t.json").exists()


def test_threads_flag_is_unrecognized(tmp_path):
    out = tmp_path / "curve.csv"
    res = run_cli("power-curve", "--k", 4, "--s", 1.26, "--threads", 2, "--out", out)
    assert res.returncode == 1
    assert res.stderr == "error: validation: unrecognized arguments: --threads 2\n"
    assert not out.exists()


def test_dist_flag_is_unrecognized(tmp_path):
    # tests.json carries the zero-drift p-value under both references
    trend = tmp_path / "trend.json"
    trend.write_text(json.dumps({"beta": [0.1, 0.3, 0.2, 0.5, 0.4, 0.7, 0.6, 0.9],
                                 "var_diag": [0.01] * 8}))
    out = tmp_path / "tests.json"
    res = run_cli("test-trend", "--trend", trend, "--seed", 1, "--dist", "t", "--out", out)
    assert res.returncode == 1
    assert res.stderr == "error: validation: unrecognized arguments: --dist t\n"
    assert not out.exists()


def test_cli_defaults_are_the_library_defaults():
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    def flag(command, dest):
        return getattr(cli.build_parser().parse_args([command]), dest)

    config = simulate.SimulationConfig
    assert (flag("simulate", "age_min"), flag("simulate", "age_max")) == default(config, "age_range")
    assert flag("simulate", "female_share") == default(config, "female_share")
    assert flag("fit-msm", "maxiter") == default(estimator.fit_msm, "maxiter")
    for dest in ("variant", "mode", "level"):
        assert flag("fit-filter", dest) == default(kalman.fit_filter, dest)
    assert flag("fit-filter", "lags") == default(kalman.diagnostics, "lags")
    for dest in ("lags", "estimator", "mc_grid", "mc_reps", "double_offdiag"):
        assert flag("test-trend", dest) == default(trendtests.run_trend_tests, dest)
    assert flag("power-curve", "mode") == default(gain.power, "mode")


@pytest.mark.parametrize("args, flag", [
    (["fit-filter", "--out-forecast"], "--out-forecast"),
    (["power-curve", "--k", 4, "--s", 1.26, "--size-out"], "--size-out"),
    (["test-trend", "--seed", 1, "--out-critical"], "--out-critical"),
], ids=["fit-filter", "power-curve", "test-trend"])
def test_optional_output_in_missing_directory_fails_before_any_write(tmp_path, args, flag):
    trend = tmp_path / "trend.json"
    trend.write_text(json.dumps({"beta": [0.1, 0.3, 0.2, 0.5, 0.4, 0.7, 0.6, 0.9],
                                 "var_diag": [0.01] * 8}))
    source = [] if args[0] == "power-curve" else ["--trend", trend]
    out = tmp_path / "out"
    missing = tmp_path / "missing"
    res = run_cli(*args, missing / "x.csv", *source, "--out", out)
    assert res.returncode == 1
    assert res.stderr == f"error: validation: {flag}: directory {missing} does not exist\n"
    assert not out.exists()


def test_three_wave_stochastic_drift_fit_is_flagged_not_a_traceback(tmp_path):
    path = tmp_path / "trend.json"
    path.write_text(json.dumps({"beta": [1.0, -0.5, 2.0], "var_diag": [0.01, 0.01, 0.01]}))
    out = tmp_path / "f.json"
    res = run_cli("fit-filter", "--trend", path, "--variant", "stoch_drift", "--out", out)
    if res.returncode == 0:
        flags = json.loads(out.read_text())["flags"]
        assert flags["boundary"] or flags["no_ci"] or flags["warnings"]
    else:
        assert res.returncode in (1, 2)
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1


def test_failing_small_panel_fit_is_one_stderr_line(tmp_path):
    # at points the trust region rejects, the score's adjoint overflows;
    # numpy's warnings from there must not reach stderr
    # the 60-person panel of seed 5 as the simulator drew it before it read
    # one stream
    spec = tmp_path / "spec.json"
    save_model_spec(spec, paperlike_structure(), paperlike_params())
    panel = tmp_path / "panel.csv"
    write_panel(panel, legacy_panel(simulate.SimulationConfig(
        n=60, structure=paperlike_structure(), params=paperlike_params(), seed=5)))
    res = run_cli(*fit_msm_args(panel, tmp_path, spec))
    assert res.returncode == 2
    assert res.stderr == "error: numerical: cannot extract trend from a non-converged fit\n"


@pytest.mark.parametrize("functional", ["bridge", "wiener"])
def test_critical_csv_is_the_simulated_table(pipeline, tmp_path, functional):
    crit = tmp_path / "crit.csv"
    res = run_cli("test-trend", "--trend", pipeline["trend"], "--seed", 3, "--mc-grid", 50,
                  "--mc-reps", 1000, "--out", tmp_path / "t.json", "--out-critical", crit,
                  "--critical-functional", functional)
    assert res.returncode == 0, res.stderr
    table = trendtests.simulate_critical_values(functional, n_grid=50, reps=1000, seed=3)
    want = "level,value\n" + "".join(
        f"{float(lv)!r},{float(v)!r}\n" for lv, v in sorted(table.quantiles.items())
    )
    assert crit.read_text() == want
    # the report's p-values and 95% values come from the same draws
    report = json.loads((tmp_path / "t.json").read_text())
    for stat, name in (("t_sd", "bridge"), ("t_s", "wiener")):
        ref = trendtests.simulate_critical_values(name, n_grid=50, reps=1000, seed=3)
        assert report[stat]["p"] == ref.p_value(report[stat]["stat"])
        assert report[stat]["critical_95"] == ref.quantiles[0.95]


@pytest.mark.parametrize("edit", ["truncate", "drop_field", "drop_scalar", "bad_value",
                                  "bad_scalar", "list_scalar", "bad_knots"])
def test_malformed_model_spec_is_one_line_error(spec_file, panel_file, tmp_path, edit):
    path = tmp_path / "spec.json"
    text = spec_file.read_text()
    if edit == "truncate":
        path.write_text(text[:40])
    else:
        doc = json.loads(text)
        if edit == "drop_field":
            del doc["params"]["age_spline_12"]
        elif edit == "drop_scalar":
            # a scalar the dataclass has a default for is still required
            del doc["params"]["logit_e12"]
        elif edit == "bad_value":
            doc["params"]["beta"][0] = "x"
        elif edit == "bad_scalar":
            doc["params"]["female_12"] = "x"
        elif edit == "list_scalar":
            # broadcast against the panel, this raised a traceback
            doc["params"]["female_12"] = [0.1, 0.2]
        else:
            doc["knots"] = ["a", "b", "c"]
        path.write_text(json.dumps(doc))
    res = run_cli("simulate", "--model-spec", path, "--n", 5, "--seed", 1, "--out", tmp_path / "p.csv")
    assert res.returncode == 1
    assert res.stderr.startswith("error: validation:")
    assert res.stderr.count("\n") == 1
    if edit.startswith("drop"):
        missing = "error: validation: model spec params missing field '{}'\n".format(
            "age_spline_12" if edit == "drop_field" else "logit_e12")
        assert res.stderr == missing
        res = run_cli("fit-msm", "--panel", panel_file, "--model-spec", path,
                      "--out-estimate", tmp_path / "e.json", "--out-trend", tmp_path / "t.json")
        assert (res.returncode, res.stderr) == (1, missing)


def test_huge_signal_to_noise_gives_finite_curve_and_fixed_points(tmp_path):
    # the fixed point's textbook root overflowed beyond s = 1.3e154 and wrote
    # an all-nan curve and k_inf with exit 0
    out, fp = tmp_path / "power.csv", tmp_path / "fp.csv"
    res = run_cli("power-curve", "--k", 30, "--s", 1e300, "--mode", "asymptotic", "--out", out)
    assert res.returncode == 0, res.stderr
    assert all(math.isfinite(float(r["value"]))
               for r in csv.DictReader(out.read_text().splitlines()))
    res = run_cli("gain-analysis", "--s", 1e300, "--periods", 5, "--out-trajectory",
                  tmp_path / "traj.csv", "--out-fixed-point", fp)
    assert res.returncode == 0, res.stderr
    rows = list(csv.DictReader(fp.read_text().splitlines()))
    assert [float(r["k_inf"]) for r in rows] == [1.0] * 5
    res = run_cli("power-curve", "--k", 30, "--s", "inf", "--mode", "asymptotic",
                  "--out", tmp_path / "inf.csv")
    assert res.returncode == 1
    assert res.stderr == "error: validation: s must be positive and finite, got inf\n"
    assert not (tmp_path / "inf.csv").exists()


def run_main(argv):
    """``cli.main`` in this process: its exit code and its stderr lines, each
    warning it raised counted as one more line."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


def spec_commands(spec, panel, tmp_path):
    return [["simulate", "--model-spec", spec, "--n", 20, "--seed", 1, "--out", tmp_path / "p.csv"],
            fit_msm_args(panel, tmp_path, spec)]


@pytest.mark.parametrize("ref_age", ["x", "", "70", {}, [], [60, 75, 90], True, math.inf,
                                     -math.inf, math.nan],
                         ids=["letter", "empty", "digits", "object", "empty_list", "list", "true",
                              "inf", "minus_inf", "nan"])
def test_ref_age_must_be_a_finite_number(spec_file, panel_file, tmp_path, ref_age):
    # each ended in a traceback, ran as age 1.0 (true), or was reported as
    # "ages must be finite"
    doc = json.loads(spec_file.read_text())
    doc["ref_age"] = ref_age
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    for argv in spec_commands(spec, panel_file, tmp_path):
        assert run_main(argv) == (1, [f"error: validation: ref_age must be a finite number, "
                                      f"got {ref_age!r}"])
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("field, at", [("knots", 0), ("wave_times", 0), ("wave_times", 1)])
def test_true_or_false_is_no_knot_or_wave_time(spec_file, panel_file, tmp_path, field, at):
    # NumPy read true as 1.0 and false as 0.0, which drew a panel
    doc = json.loads(spec_file.read_text())
    doc[field][at] = bool(at)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    for argv in spec_commands(spec, panel_file, tmp_path):
        assert run_main(argv) == (1, [f"error: validation: {field} must be numbers, not true or false"])


@pytest.mark.parametrize("field, at, what", [("female_12", None, "a number"),
                                             ("beta", 3, "numbers"),
                                             ("age_spline_f_12", 1, "numbers")],
                         ids=["scalar", "wave_dummy", "spline_weight"])
def test_true_or_false_is_no_hazard_parameter(spec_file, panel_file, tmp_path, field, at, what):
    # NumPy read true as 1.0 and false as 0.0, and simulate drew a panel
    doc = json.loads(spec_file.read_text())
    if at is None:
        doc["params"][field] = True
    else:
        doc["params"][field][at] = False
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    for argv in spec_commands(spec, panel_file, tmp_path):
        assert run_main(argv) == (1, [f"error: validation: {field} must be {what}, "
                                      "not true or false"])
    assert not (tmp_path / "p.csv").exists()


def test_age_beyond_the_spline_basis_is_one_line_error(spec_file, panel_file, tmp_path):
    # the basis's cubes overflowed: fit-msm printed RuntimeWarnings and
    # exited 2, and simulate drew a panel from NaN intensities with exit 0.
    # Then validate called the panel clean, which fit-msm refused; now both
    # refuse it by the one bound on ages, which needs no knots
    lines = panel_file.read_text().splitlines()
    row = lines[5].split(",")
    row[3] = "1e300"
    panel = tmp_path / "panel.csv"
    panel.write_text("\n".join(lines[:5] + [",".join(row)] + lines[6:]) + "\n")
    message = ["error: validation: row 6: age 1e+300 must be at most 1e+100"]
    for spec in (spec_file, None):
        assert run_main(fit_msm_args(panel, tmp_path, spec)) == (1, message)
    assert run_main(["validate", "--panel", panel]) == (1, ["error: validation: 1 problem(s) found"])
    assert not (tmp_path / "e.json").exists()
    code, err = run_main(["simulate", "--model-spec", spec_file, "--n", 20, "--seed", 1,
                          "--age-max", 1e300, "--out", tmp_path / "p.csv"])
    assert code == 1 and len(err) == 1, err
    assert err[0].startswith("error: validation: age ") and err[0].endswith(
        " is too large for the spline basis")
    assert not (tmp_path / "p.csv").exists()


# ---------------------------------------------------------------------------
# fuzz: every command that reads a trend or a signal-to-noise ratio, at
# magnitudes from 1e-300 to 1e300, ends in an answer or a one-line error

_MAGNITUDES = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-300, 300))


@st.composite
def _trend_docs(draw):
    T = draw(st.integers(3, 10))
    if draw(st.booleans()):  # one scale for the whole series
        scale = draw(_MAGNITUDES)
        beta = [scale * v for v in draw(st.lists(st.floats(-10.0, 10.0), min_size=T, max_size=T))]
    else:  # each value at its own magnitude, either sign, or zero
        value = st.one_of(st.just(0.0), _MAGNITUDES, _MAGNITUDES.map(lambda v: -v))
        beta = draw(st.lists(value, min_size=T, max_size=T))
    var = draw(st.one_of(_MAGNITUDES.map(lambda v: [v] * T),
                         st.lists(_MAGNITUDES, min_size=T, max_size=T)))
    return {"beta": beta, "var_diag": var}


_FUZZ_COMMANDS = ([("fit-filter", v, m) for v in kalman.VARIANTS for m in ("constrained", "free")]
                  + [("test-trend",), ("gain-analysis", "--trend"), ("gain-analysis", "--s"),
                     ("power-curve", "exact"), ("power-curve", "asymptotic")])
_ORDINARY = {"beta": [0.1, 0.3, 0.2, 0.5, 0.4, 0.7, 0.6, 0.9], "var_diag": [0.01] * 8}


def _fuzz_argv(command, trend, s, out):
    name = command[0]
    if name == "fit-filter":
        return [name, "--trend", trend, "--variant", command[1], "--mode", command[2], "--out", out]
    if name == "test-trend":
        return [name, "--trend", trend, "--seed", "1", "--mc-reps", "1000", "--mc-grid", "50",
                "--out", out]
    if name == "gain-analysis":
        source = ["--trend", trend, "--sigma-eta", repr(s)] if command[1] == "--trend" else [
            "--s", repr(s), "--periods", "5"]
        return [name, *source, "--out-trajectory", out + ".traj", "--out-fixed-point", out]
    return [name, "--k", "30", "--s", repr(s), "--mode", command[1], "--out", out]


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(_FUZZ_COMMANDS), doc=_trend_docs(), s=_MAGNITUDES)
@example(command=("fit-filter", "const_drift", "constrained"),
         doc={"beta": [0.0, 1e300, -1e300, 2.0], "var_diag": [1.0] * 4}, s=1.0)
@example(command=("fit-filter", "zero_drift", "constrained"),
         doc={"beta": _ORDINARY["beta"], "var_diag": [1e300] * 8}, s=1.0)
@example(command=("fit-filter", "stoch_drift", "constrained"),
         doc={"beta": [1e-300 * b for b in _ORDINARY["beta"]], "var_diag": [1e-300] * 8}, s=1.0)
@example(command=("fit-filter", "const_drift", "free"),
         doc={"beta": [1e-300 * b for b in _ORDINARY["beta"]], "var_diag": [1e-300] * 8}, s=1.0)
@example(command=("power-curve", "asymptotic"), doc=_ORDINARY, s=1e300)
@example(command=("gain-analysis", "--s"), doc=_ORDINARY, s=1e300)
@example(command=("gain-analysis", "--trend"), doc=_ORDINARY, s=1e300)
def test_extreme_magnitudes_end_in_an_answer_or_one_line_error(command, doc, s):
    with tempfile.TemporaryDirectory() as tmp:
        trend, out = os.path.join(tmp, "trend.json"), os.path.join(tmp, "out")
        with open(trend, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        # a warning is a fault here too: the command must handle what it warns of
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(_fuzz_argv(command, trend, s, out))
        assert code in (0, 1, 2)
        if code:
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
            assert err.getvalue().startswith("error: ")
            return
        assert err.getvalue() == ""
        with open(out) as fh:
            if command[0] == "fit-filter":
                loglik = json.load(fh)["loglik"]
                assert isinstance(loglik, float) and math.isfinite(loglik)
            elif command[0] in ("power-curve", "gain-analysis"):
                rows = list(csv.DictReader(fh))
                assert rows and all(math.isfinite(float(v)) for r in rows for v in r.values())


# ---------------------------------------------------------------------------
# fuzz: a valid trend document with one field changed ends, in every command
# that reads it, in an answer or a one-line error

_TREND_VALUES = [1e308, -1e308, 5e-324, 0, "x", None, True, []]
_TREND_EDITS = ["beta", "cov", "var_diag", "n_transitions", "T", "truncate"]


def _trend_consumers(trend, out):
    argv = [["fit-filter", "--trend", trend, "--variant", v, "--mode", m, "--out", out]
            for v in kalman.VARIANTS for m in ("constrained", "free")]
    argv += [["test-trend", "--trend", trend, "--seed", 1, "--estimator", e, "--mc-reps", 1000,
              "--out", out] for e in ("hac", "long_run")]
    return argv + [["gain-analysis", "--trend", trend, "--sigma-eta", 0.148,
                    "--out-trajectory", out + ".traj", "--out-fixed-point", out]]


@settings(max_examples=40, deadline=None)
@given(edit=st.sampled_from(_TREND_EDITS), at=st.integers(0, 10**6),
       value=st.sampled_from(_TREND_VALUES), mirror=st.booleans())
# a symmetric pair of huge covariances overflowed the symmetric part that
# the semidefiniteness check took: a RuntimeWarning beside the answer
@example(edit="cov", at=1, value=1.7e308, mirror=True)
def test_an_edited_trend_document_ends_in_an_answer_or_one_line_error(pipeline, edit, at, value,
                                                                      mirror):
    # one entry of beta, cov (with its mirror image, or alone) or var_diag,
    # n_transitions or T set to the value, or the text cut short at `at`
    text = pipeline["trend"].read_text()
    doc = json.loads(text)
    T = len(doc["beta"])
    if edit == "truncate":
        text = text[: at % len(text)]
    else:
        if edit == "cov":
            i, j = divmod(at % T**2, T)
            doc["cov"][i][j] = value
            if mirror:
                doc["cov"][j][i] = value
        elif edit in ("beta", "var_diag"):
            doc[edit][at % T] = value
        else:
            doc[edit] = value
        text = json.dumps(doc)
    with tempfile.TemporaryDirectory() as tmp:
        trend, out = os.path.join(tmp, "trend.json"), os.path.join(tmp, "out")
        with open(trend, "w") as fh:
            fh.write(text)
        for argv in _trend_consumers(trend, out):
            code, err = run_main(argv)
            assert code in (0, 1, 2), (argv, code)
            if code:
                assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
            else:
                assert err == [], (argv, err)


# ---------------------------------------------------------------------------
# malformed panels: every byte-level fault ends in an answer or one line

_SMALL_PANEL = (b"id,time,state,age,female\n"
                b"1,0,1,70.5,0\n1,2,2,72.5,0\n1,4,3,74.5,0\n"
                b"2,0,1,64.25,1\n2,2,1,66.25,1\n2,4,2,68.25,1\n"
                b"3,0,2,80,0\n3,2,2,82,0\n")
_NON_ASCII = ["\u00e9".encode(), b"\xff", "\u2028".encode(), "\u0661".encode()]
_BEYOND_64_BITS = [2**63, 2**64 + 1, -2**63 - 1, 10**30]


@st.composite
def _mangled_panels(draw):
    """The small panel with one or two byte-level faults: cut short, a field
    dropped, a line end made CR LF or CR or a CR put anywhere, a non-ASCII
    character put anywhere, or a field made an integer beyond 64 bits."""
    data = bytearray(_SMALL_PANEL)
    for _ in range(draw(st.integers(1, 2))):
        fault = draw(st.sampled_from(["truncate", "drop-field", "cr", "non-ascii", "big-int"]))
        # a byte of a row, the rows drawn alike
        lines = [k + 1 for k, byte in enumerate(data) if byte == ord("\n")]
        at = draw(st.sampled_from(lines[:-1] or [len(data)]))
        at += draw(st.integers(0, max(data.find(b"\n", at) - at, 0)))
        # the field or line end at or after `at`
        ends = [e for e in (data.find(b",", at), data.find(b"\n", at)) if e >= 0]
        end = min(ends, default=len(data))
        start = max(data.rfind(b",", 0, end), data.rfind(b"\n", 0, end)) + 1
        if fault == "truncate":
            del data[at:]
        elif fault == "drop-field":
            del data[max(start - 1, 0): end]
        elif fault == "cr":
            if end < len(data) and data[end: end + 1] == b"\n" and draw(st.booleans()):
                data[end: end + 1] = draw(st.sampled_from([b"\r\n", b"\r"]))
            else:
                data[at:at] = b"\r"
        elif fault == "non-ascii":
            data[at:at] = draw(st.sampled_from(_NON_ASCII))
        else:
            data[start: end] = str(draw(st.sampled_from(_BEYOND_64_BITS))).encode()
    return bytes(data)


@settings(max_examples=60, deadline=None)
@given(raw=_mangled_panels(), command=st.sampled_from(["validate", "fit-msm"]))
@example(raw=_SMALL_PANEL.replace(b"\n", b"\r\n"), command="fit-msm")
@example(raw=_SMALL_PANEL.replace(b"2,4,2", str(2**64).encode() + b",4,2"), command="fit-msm")
def test_mangled_panels_end_in_an_answer_or_one_line_error(raw, command):
    with tempfile.TemporaryDirectory() as tmp:
        panel = os.path.join(tmp, "panel.csv")
        with open(panel, "wb") as fh:
            fh.write(raw)
        argv = ["validate", "--panel", panel]
        if command == "fit-msm":
            argv = ["fit-msm", "--panel", panel, "--maxiter", "1",
                    "--out-estimate", os.path.join(tmp, "e.json"),
                    "--out-trend", os.path.join(tmp, "t.json")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2)
    if code:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        assert err.getvalue().startswith("error: ")
    else:
        assert err.getvalue() == ""


def test_parser_is_built_once_and_keeps_no_config(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    config, out = tmp_path / "config.json", tmp_path / "power.csv"
    config.write_text(json.dumps({"grid": "-1:0:0.5", "mode": "asymptotic"}))
    assert run_main(["power-curve", "--k", 4, "--s", 1.26, "--config", config, "--out", out]) == (0, [])
    assert len(out.read_text().splitlines()) == 4
    # the next call, without the config, writes the defaults' curve
    assert run_main(["power-curve", "--k", 4, "--s", 1.26, "--out", out]) == (0, [])
    x, value = zip(*(map(float, line.split(",")) for line in out.read_text().splitlines()[1:]))
    assert len(x) == 31 and x[0] == -3.0
    assert list(value) == gain.power(np.array(x), 4, 1.26).theta.tolist()


# ---------------------------------------------------------------------------
# fuzz: one field of a valid model spec, one config value or one flag value
# made malformed; every command ends in an answer or one stderr line

# values of the wrong type, shape or range; counts between 50 and 1e7 are
# left out, since they are valid and only slow (--n, --mc-reps, ...)
_JUNK_NUMBERS = st.one_of(st.integers(-5, 50), st.integers(10**7, 10**30),
                          st.integers(-10**30, -6), st.sampled_from([10**400, -10**400]),
                          st.floats(allow_nan=True, allow_infinity=True))
_JUNK = st.one_of(_JUNK_NUMBERS, st.none(), st.booleans(), st.text(max_size=4),
                  st.lists(st.floats(-100.0, 100.0), max_size=4), st.just({}))
_JUNK_FLAGS = st.one_of(_JUNK_NUMBERS.map(str), st.text(max_size=6),
                        st.sampled_from(["nan", "-inf", "1e400", "-0", "1:2", "0:1:0"]))

# each command's settings, which the fuzz passes as flags or in a config
_SETTINGS = {
    "simulate": {"n": 20, "seed": 1, "age-min": 60.0, "age-max": 70.0, "female-share": 0.5},
    "fit-msm": {"maxiter": 1},
    "fit-filter": {"variant": "const_drift", "mode": "constrained", "level": 0.9, "lags": 2,
                   "horizon": 3},
    "test-trend": {"seed": 1, "mc-reps": 1000, "mc-grid": 50, "lags": 2, "estimator": "hac",
                   "double-offdiag": False, "critical-functional": "wiener"},
    "gain-analysis": {"s": 1.26, "periods": 5},
    "power-curve": {"k": 4, "s": 1.26, "mode": "exact", "grid": "-1:1:0.5"},
}
_CASES = [(command, where) for command in _SETTINGS
          for where in (("spec",) if command in ("simulate", "fit-msm") else ()) + ("config", "flag")]


def _spec_doc() -> dict:
    structure, params = paperlike_structure(), fixture_params()
    return {"knots": list(structure.knots), "wave_times": list(structure.wave_times),
            "ref_age": structure.ref_age,
            "params": {name: np.asarray(v).tolist() for name, v in asdict(params).items()}}


def _json_paths(value, path=()):
    """Every position in a JSON document, containers and leaves."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _json_paths(item, path + (key,))


_SPEC_PATHS = list(_json_paths(_spec_doc()))[1:]


def _malformed_argv(tmp, command, spec_doc):
    """The command's argv without its settings, on a valid panel and trend
    and the model spec ``spec_doc``, written into ``tmp``."""
    f = lambda name: os.path.join(tmp, name)  # noqa: E731
    with open(f("spec.json"), "w") as fh:
        json.dump(spec_doc, fh)
    with open(f("panel.csv"), "wb") as fh:
        fh.write(_SMALL_PANEL)
    with open(f("trend.json"), "w") as fh:
        json.dump(_ORDINARY, fh)
    return {
        "simulate": ["simulate", "--model-spec", f("spec.json"), "--out", f("out.csv")],
        "fit-msm": ["fit-msm", "--panel", f("panel.csv"), "--model-spec", f("spec.json"),
                    "--out-estimate", f("e.json"), "--out-trend", f("t.json")],
        "fit-filter": ["fit-filter", "--trend", f("trend.json"), "--out", f("filter.json"),
                       "--out-forecast", f("forecast.csv")],
        "test-trend": ["test-trend", "--trend", f("trend.json"), "--out", f("tests.json"),
                       "--out-critical", f("critical.csv")],
        "gain-analysis": ["gain-analysis", "--out-trajectory", f("gain.csv"),
                          "--out-fixed-point", f("fixed.csv")],
        "power-curve": ["power-curve", "--out", f("power.csv"), "--size-out", f("size.csv")],
    }[command]


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(_CASES), path=st.sampled_from(_SPEC_PATHS), pick=st.integers(0, 20),
       value=_JUNK, flag_value=_JUNK_FLAGS)
@example(case=("simulate", "spec"), path=("ref_age",), pick=0, value="x", flag_value="")
@example(case=("fit-msm", "spec"), path=("ref_age",), pick=0, value=[60, 75, 90], flag_value="")
# an integer parameter times the simulator's int8 codes overflowed them
@example(case=("simulate", "spec"), path=("params", "female_13"), pick=0, value=10**7, flag_value="")
# ages near 1e7 drew a panel from infinite intensities
@example(case=("simulate", "flag"), path=("knots",), pick=3, value=None, flag_value="10000000")
def test_malformed_specs_configs_and_flags_end_in_an_answer_or_one_line_error(
        case, path, pick, value, flag_value):
    command, where = case
    spec, settings_ = _spec_doc(), dict(_SETTINGS[command])
    if where == "spec":
        *parents, last = path
        holder = spec
        for key in parents:
            holder = holder[key]
        holder[last] = value
    elif where == "config":
        keys = [*settings_, "bogus"]
        settings_[keys[pick % len(keys)]] = value
    else:
        keys = list(settings_)
        settings_[keys[pick % len(keys)]] = flag_value
    with tempfile.TemporaryDirectory() as tmp:
        argv = _malformed_argv(tmp, command, spec)
        if where == "config":
            with open(os.path.join(tmp, "config.json"), "w") as fh:
                json.dump(settings_, fh)
            argv += ["--config", os.path.join(tmp, "config.json")]
        else:
            # a switch is its flag alone, and an unset one is left out
            argv += [a for k, v in settings_.items()
                     for a in ([f"--{k}"] if v is True else [] if v is False else [f"--{k}={v}"])]
        code, err = run_main(argv)
    assert code in (0, 1, 2)
    if code:
        assert len(err) == 1 and err[0].startswith("error: "), err
    else:
        assert err == []


# ---------------------------------------------------------------------------
# one input contract: whatever panel validate calls clean, fit-msm takes

_CELLS = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                   st.integers(-5, 100).map(str),
                   st.sampled_from(["1e300", "1e100", "1.0000000000000002e100", "5e-324",
                                    "-0.0", str(2**63 - 1), ""]))


@functools.cache
def _contract_panel_lines() -> tuple:
    """The lines of a 30-person panel of the fixture's model."""
    pnl = simulate.simulate_panel(simulate.SimulationConfig(
        n=30, structure=paperlike_structure(), params=fixture_params(), seed=3))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.csv")
        write_panel(path, pnl)
        with open(path) as fh:
            return tuple(fh.read().splitlines())


@settings(max_examples=40, deadline=None)
@given(row=st.integers(1, 10**6), column=st.integers(0, 4), cell=_CELLS)
# validate called an age of 1e300 clean, and fit-msm refused it
@example(row=5, column=3, cell="1e300")
def test_a_panel_that_validate_calls_clean_is_one_that_fit_msm_takes(row, column, cell):
    lines = list(_contract_panel_lines())
    row = 1 + (row - 1) % (len(lines) - 1)  # a data line, the header kept
    fields = lines[row].split(",")
    fields[column] = cell
    lines[row] = ",".join(fields)
    with tempfile.TemporaryDirectory() as tmp:
        panel = os.path.join(tmp, "panel.csv")
        with open(panel, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code, err = run_main(["validate", "--panel", panel])
        if code:
            assert code == 1 and len(err) == 1, err
            return
        code, err = run_main(["fit-msm", "--panel", panel, "--maxiter", 1,
                              "--out-estimate", os.path.join(tmp, "e.json"),
                              "--out-trend", os.path.join(tmp, "t.json")])
    # not a validation error, and at most one line: maxiter 1 leaves the fit
    # short of convergence, which exits 2
    assert code in (0, 2), err
    assert len(err) == (1 if code else 0), err

import contextlib
import csv
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
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msmtrend import cli, estimator, gain, kalman, simulate, trendtests
from msmtrend.markov import HazardParams, save_model_spec
from msmtrend.panel import write_panel

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

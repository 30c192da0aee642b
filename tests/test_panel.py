import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import msmtrend.estimator as est
from msmtrend.markov import ModelStructure, spline_basis, spline_basis_matrix
from msmtrend.panel import (Panel, read_json, read_panel, validate_panel, write_csv, write_json,
                            write_panel)

import oracles

STRUCTURE = ModelStructure(knots=(58.0, 68.0, 80.0), wave_times=(0.0, 2.0, 4.0, 6.0, 8.0))


def messy_panel(rng, n_rows) -> Panel:
    """Rows drawn with every schema fault the validator knows, shuffled."""
    ids = rng.integers(0, max(1, n_rows // 4), size=n_rows)
    times = rng.choice([0.0, 2.0, 4.0, 6.0, 8.0, 8.0, 3.0, np.nan], size=n_rows)
    states = rng.choice([1, 1, 2, 3, 3, 0, 4], size=n_rows)
    ages = rng.choice([55.0, 70.0, 85.0, 0.0, -1.0, np.inf], size=n_rows)
    female = rng.choice([0, 1, 1, 2], size=n_rows)
    return Panel(ids, times, states, ages, female)


def clean_panel(rng, n_individuals) -> Panel:
    """Valid shuffled panel: gaps between waves, singletons, deaths last."""
    ids, times, states, ages, female = [], [], [], [], []
    wt = np.array(STRUCTURE.wave_times)
    for ident in rng.permutation(n_individuals) * 7 + 3:
        m = int(rng.integers(1, wt.size + 1))
        t = np.sort(rng.choice(wt, size=m, replace=False))
        s = rng.integers(1, 3, size=m)
        if m > 1 and rng.random() < 0.3:
            s[-1] = 3
        age0 = rng.uniform(50.0, 90.0)
        ids += [ident] * m
        times += list(t)
        states += list(s)
        ages += list(age0 + t)
        female += [int(rng.integers(0, 2))] * m
    perm = rng.permutation(len(ids))
    cols = (np.array(c)[perm] for c in (ids, times, states, ages, female))
    return Panel(*cols)


def test_validate_panel_matches_per_individual_reference():
    rng = np.random.default_rng(2024)
    for trial in range(400):
        panel = messy_panel(rng, int(rng.integers(0, 40)))
        assert validate_panel(panel) == oracles.validate_panel(panel), trial


def test_validate_panel_clean_panels_pass():
    rng = np.random.default_rng(5)
    for _ in range(50):
        panel = clean_panel(rng, 12)
        assert validate_panel(panel) == [] == oracles.validate_panel(panel)


def test_validate_panel_flags_dead_at_first_observation():
    panel = Panel(np.array([1, 1, 2]), np.array([0.0, 2.0, 0.0]), np.array([1, 2, 3]),
                  np.array([70.0, 72.0, 64.0]), np.array([0, 0, 1]))
    assert validate_panel(panel) == ["row 4: id 2 is dead at its first observation"]


@pytest.mark.parametrize("validate", [True, False])
def test_design_arrays_match_per_individual_reference(validate):
    rng = np.random.default_rng(31)
    for _ in range(40):
        panel = clean_panel(rng, int(rng.integers(2, 15)))
        if not np.any(np.unique(panel.ids, return_counts=True)[1] >= 2):
            continue
        design = est.PanelDesign(panel, STRUCTURE, validate=validate)
        states, valid, widths, waves, age_left, female = oracles.design_cells(panel, STRUCTURE)
        np.testing.assert_array_equal(design.states, states)
        np.testing.assert_array_equal(design.valid, valid)
        np.testing.assert_array_equal(design.active, valid[:, 1:])
        np.testing.assert_array_equal(design.widths, widths)
        np.testing.assert_array_equal(design.waves, waves)
        np.testing.assert_array_equal(design.female, female)
        np.testing.assert_array_equal(design.age_centered, age_left - STRUCTURE.ref_age)
        basis = spline_basis_matrix(age_left.ravel(), STRUCTURE.knots) - spline_basis(
            STRUCTURE.ref_age, STRUCTURE.knots)
        np.testing.assert_array_equal(design.basis, basis.reshape(design.basis.shape))
        np.testing.assert_array_equal(design.basis_f, design.basis * female[:, None, None])
        assert design.n_transitions == len(panel) - panel.n_individuals


# ---------------------------------------------------------------------------
# artifact formats: exact round trips

_INT64 = st.integers(-(2**63), 2**63 - 1)
_EDGE_FLOATS = (-0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan)
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_rows=st.integers(0, 12),
       integer=st.lists(st.booleans(), min_size=1, max_size=5))
def test_write_csv_matches_cell_by_cell_reference(tmp_path_factory, data, n_rows, integer):
    columns = {}
    for j, is_int in enumerate(integer):
        values = data.draw(st.lists(_INT64 if is_int else _FLOATS, min_size=n_rows, max_size=n_rows))
        columns[f"c{j}"] = np.array(values, dtype=np.int64 if is_int else np.float64)
    path = tmp_path_factory.getbasetemp() / "table.csv"
    write_csv(path, columns)
    assert path.read_bytes() == oracles.csv_text(columns).encode()


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(_INT64, st.floats(allow_nan=False, allow_infinity=False), _INT64,
                               st.floats(allow_nan=False, allow_infinity=False), _INT64),
                     max_size=12))
@example(rows=[(2**63 - 1, -0.0, -(2**63), 5e-324, 0), (0, 1.7976931348623157e308, 1, 0.1, 1)])
def test_panel_csv_round_trip_is_exact(tmp_path_factory, rows):
    panel = Panel(*(np.array([r[j] for r in rows], dtype=np.int64 if j in (0, 2, 4) else float)
                    for j in range(5)))
    path = tmp_path_factory.getbasetemp() / "panel.csv"
    write_panel(path, panel)
    back = read_panel(path)
    for col in ("ids", "times", "states", "ages", "female"):
        a, b = getattr(panel, col), getattr(back, col)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), col


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_FLOATS, max_size=12), scalar=_FLOATS)
def test_json_round_trip_is_exact_and_non_finite_is_null(tmp_path_factory, values, scalar):
    doc = {"list": values, "array": np.array(values, dtype=float),
           "nested": {"scalar": np.float64(scalar), "tuple": (scalar, 3)}, "count": np.int64(7)}
    path = tmp_path_factory.getbasetemp() / "doc.json"
    write_json(path, doc)
    back = read_json(path)
    want = [v if math.isfinite(v) else None for v in values]
    scalar = scalar if math.isfinite(scalar) else None
    # repr tells -0.0 from 0.0
    assert list(map(repr, back["list"])) == list(map(repr, want))
    assert list(map(repr, back["array"])) == list(map(repr, want))
    assert repr(back["nested"]) == repr({"scalar": scalar, "tuple": [scalar, 3]})
    assert back["count"] == 7

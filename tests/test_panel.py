import hashlib
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import msmtrend.estimator as est
import msmtrend.panel as panel_mod
from msmtrend.errors import DataValidationError
from msmtrend.markov import ModelStructure, spline_basis_matrix
from msmtrend.panel import (CSV_HEADER, Panel, float_text, parse_panel_text, read_json,
                            read_panel, validate_panel, write_csv, write_json, write_panel)
from msmtrend.simulate import SimulationConfig, simulate_panel

import oracles
from conftest import paperlike_params, paperlike_structure

STRUCTURE = ModelStructure(knots=(58.0, 68.0, 80.0), wave_times=(0.0, 2.0, 4.0, 6.0, 8.0))


def messy_panel(rng, n_rows) -> Panel:
    """Rows drawn with every schema fault the validator knows, shuffled."""
    ids = rng.integers(0, max(1, n_rows // 4), size=n_rows)
    times = rng.choice([0.0, 2.0, 4.0, 6.0, 8.0, 8.0, 3.0, np.nan], size=n_rows)
    states = rng.choice([1, 1, 2, 3, 3, 0, 4], size=n_rows)
    ages = rng.choice([55.0, 70.0, 85.0, 0.0, -1.0, np.inf, 1e100, 1e300], size=n_rows)
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
        np.testing.assert_array_equal(design.state_idx, np.where(valid, states - 1, 3))
        np.testing.assert_array_equal(design.active, valid[:, 1:])
        np.testing.assert_array_equal(design.widths, widths)
        np.testing.assert_array_equal(design.waves, waves)
        np.testing.assert_array_equal(design.female, female)
        np.testing.assert_array_equal(design.age_centered, age_left - STRUCTURE.ref_age)
        basis = spline_basis_matrix(age_left.ravel(), STRUCTURE.knots) - spline_basis_matrix(
            [STRUCTURE.ref_age], STRUCTURE.knots)[0]
        np.testing.assert_array_equal(design.basis, basis.reshape(design.basis.shape))
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


@pytest.mark.parametrize("block_rows", [1, 3, 64])
def test_write_csv_across_block_boundaries(tmp_path, monkeypatch, block_rows):
    # integers and floats that repeat within and across blocks, next to
    # signed zeros, NaN and infinities, give the cell-by-cell bytes
    monkeypatch.setattr(panel_mod, "_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(7)
    n = 200
    edges = np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, 0.1, 1e300, 5e-324])
    columns = {"int": rng.choice([-(2**63), -1, 0, 7, 2**63 - 1], size=n),
               "float": rng.choice(edges, size=n),
               "mixed": np.where(rng.random(n) < 0.5, rng.choice(edges, size=n),
                                 rng.uniform(-1.0, 1.0, size=n)),
               "distinct": np.arange(n) * 1.1 - 50.0}
    path = tmp_path / "table.csv"
    write_csv(path, columns)
    assert path.read_bytes() == oracles.csv_text(columns).encode()
    write_csv(path, {name: col[:0] for name, col in columns.items()})
    assert path.read_bytes() == b"int,float,mixed,distinct\n"


def test_write_csv_int_columns_of_any_span(tmp_path):
    # negative columns and columns near the ends of int64, whose span is
    # narrow (counted over the span) or as wide as int64 (sorted), give the
    # cell-by-cell bytes, and nothing is allocated by the span
    rng = np.random.default_rng(11)
    n = 1000
    columns = {"negative": rng.integers(-7, 0, n),
               "wide": rng.choice([-(2**63), -(2**62) - 1, 0, 2**62, 2**63 - 1], n),
               "near_min": -(2**63) + rng.integers(0, 5, n),
               "near_max": 2**62 + rng.integers(0, 5, n),
               "one_value": np.full(n, -(2**62))}
    path = tmp_path / "table.csv"
    assert oracles.peak_bytes(write_csv, path, columns) < 1_000_000
    assert path.read_bytes() == oracles.csv_text(columns).encode()
    for name in ("negative", "wide", "near_min", "near_max", "one_value"):
        distinct, inverse = panel_mod._distinct_ints(columns[name])
        want_distinct, want_inverse = np.unique(columns[name], return_inverse=True)
        np.testing.assert_array_equal(distinct, want_distinct)
        np.testing.assert_array_equal(inverse, want_inverse)


def test_write_csv_peak_memory_is_one_blocks(tmp_path):
    # formatting a whole column at once held every cell's text; per block the
    # peak stays well under even the whole column's text as a bytes array
    values = np.random.default_rng(3).uniform(50.0, 100.0, size=200_000)
    whole_text = values.size * max(len(repr(v)) for v in values[:1000].tolist())
    assert oracles.peak_bytes(write_csv, tmp_path / "ages.csv", {"age": values}) < whole_text / 2


# the float formatter, judged by repr


def assert_repr(values: np.ndarray, chunk: int = 1 << 16) -> None:
    """float_text gives repr(float(v)) for every value: compared as one
    newline-joined text per chunk, and on a mismatch value by value."""
    for start in range(0, values.size, chunk):
        part = values[start: start + chunk]
        text = float_text(part)
        rows = np.concatenate([text, np.full((part.size, 1), ord("\n"), np.uint8)], axis=1)
        got = rows[rows != 0].tobytes()
        want = "".join(repr(v) + "\n" for v in part.tolist()).encode()
        if got != want:
            for v, row in zip(part.tolist(), text):
                assert bytes(row).replace(b"\0", b"") == repr(v).encode(), v.hex()


def test_float_text_is_repr_on_random_bit_patterns():
    # subnormals, NaN payloads and infinities included, of both signs
    bits = np.random.default_rng(19).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    assert_repr(bits.view(np.float64))


def test_float_text_is_repr_on_powers_of_two_and_ten():
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             np.array([float(f"1e{e}") for e in range(-323, 309)])])
    assert_repr(np.concatenate([powers, -powers]))
    # the decimals next to them, where the shorter of two lengths is closest
    assert_repr(np.concatenate([np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]))


EDGES = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e-323, 2.2250738585072014e-308,
    2.225073858507201e-308, 1.7976931348623157e308,
    # notation thresholds: positional from 1e-4 up to below 1e16
    1e-4, 9.999999999999999e-5, 1e-5, 0.00012345678901234567, 1e15, 9999999999999998.0, 1e16,
    1e16 + 2.0, 1.2345e16, 1e22, 1e23, 1e100, 1e-100, 1.5e-7, 2.5e300,
    # integers with trailing zeros, and around 2**53
    12300.0, 1.2345e15, 1e15 + 1.0, 2.0**53, 2.0**53 + 2.0, 2.0**53 - 1.0, 100.0, 1.0, 7.0,
    0.1, 0.2, 0.3, 1 / 3, 2 / 3, 123.456, 5e-5, 0.5, 56.71234,
]


def test_float_text_is_repr_at_the_edges():
    values = np.array(EDGES)
    assert_repr(np.concatenate([values, -values]))
    # one value, and none
    assert_repr(values[:1])
    assert float_text(values[:0]).shape[0] == 0


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(), max_size=40))
def test_float_text_is_repr_on_any_floats(values):
    assert_repr(np.array(values, dtype=np.float64))


@pytest.mark.parametrize("seed, digest", [
    (1, "a7ad210056ebe7d99da113f7e38dee72584121e7203f75c3f47b0b1f6d834e79"),
    (2, "0b632bc217345b796ded8d22cf6208fc3667122f684a389fa3e846e3ab0b979f"),
])
def test_large_panel_bytes_are_unchanged(tmp_path, seed, digest):
    # the 50,000-person panels as the per-value repr formatter wrote them,
    # drawn as the simulator drew them then
    config = SimulationConfig(n=50_000, structure=paperlike_structure(), params=paperlike_params(),
                              seed=seed)
    path = tmp_path / "panel.csv"
    write_panel(path, oracles.legacy_panel(config))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_read_panel_never_holds_bytes_table_and_columns_at_once(tmp_path):
    # the file's bytes, NumPy's structured table (40 bytes a row) and the
    # five column copies were all alive at the peak; now at most two are
    panel = simulate_panel(SimulationConfig(n=2_000, structure=paperlike_structure(),
                                            params=paperlike_params(), seed=3))
    path = tmp_path / "panel.csv"
    write_panel(path, panel)
    table = len(panel) * panel_mod._PANEL_ROW.itemsize
    assert oracles.peak_bytes(read_panel, path) < path.stat().st_size + 1.5 * table


def test_read_panel_holds_at_most_four_chunks_beside_the_columns(tmp_path, monkeypatch):
    # a block's bytes, the buffer they were read into and NumPy's table of
    # the block's rows are all that the streamed reader holds beside the columns
    panel = simulate_panel(SimulationConfig(n=20_000, structure=paperlike_structure(),
                                            params=paperlike_params(), seed=3))
    path = tmp_path / "panel.csv"
    write_panel(path, panel)
    monkeypatch.setattr(panel_mod, "_CHUNK", 1 << 16)
    # the columns as read: 26 bytes a row, the codes in one byte each
    columns = sum(col.nbytes for col in _columns(read_panel(path)))
    assert columns == 26 * len(panel)
    assert oracles.peak_bytes(read_panel, path) < columns + 4 * panel_mod._CHUNK


def test_sort_skips_sorted_panels_and_otherwise_matches_lexsort():
    rng = np.random.default_rng(12)
    # ties, and -0.0 after 0.0, are in order
    times = np.array([0.0, 2.0, 2.0, 0.0, -0.0, 4.0, 1.0, 3.0, 5.0])
    ordered = Panel(np.repeat([1, 2, 5], 3), times, np.arange(9), rng.uniform(50.0, 90.0, size=9),
                    rng.integers(0, 2, size=9))
    assert ordered.sort() is ordered
    for _ in range(200):
        n = int(rng.integers(0, 12))
        times = rng.choice([0.0, -0.0, 2.0, 4.0, math.nan], size=n)
        panel = Panel(rng.integers(0, 4, size=n), times, np.arange(n),
                      rng.uniform(50.0, 90.0, size=n), rng.integers(0, 2, size=n))
        order = np.lexsort((panel.times, panel.ids))
        got = panel.sort()
        for col in ("ids", "times", "states", "ages", "female"):
            assert getattr(got, col).tobytes() == getattr(panel, col)[order].tobytes(), col


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(_INT64, st.floats(allow_nan=False, allow_infinity=False), _INT64,
                               st.floats(allow_nan=False, allow_infinity=False), _INT64),
                     max_size=12))
@example(rows=[(2**63 - 1, -0.0, -(2**63), 5e-324, 0), (0, 1.7976931348623157e308, 1, 0.1, 1)])
@example(rows=[(-(2**63), 0.0, -128, 60.0, 127), (7, 2.0, 3, 62.5, 0)])
def test_panel_csv_round_trip_is_exact(tmp_path_factory, rows):
    panel = Panel(*(np.array([r[j] for r in rows], dtype=np.int64 if j in (0, 2, 4) else float)
                    for j in range(5)))
    path = tmp_path_factory.getbasetemp() / "panel.csv"
    write_panel(path, panel)
    if rows:  # the C-parsed route
        assert panel_mod._parse_plain(path.read_bytes()) is not None
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


# ---------------------------------------------------------------------------
# panel reader: the C-parsed route against the row rules

_HEADER = "id,time,state,age,female\n"
# characters at which str.splitlines breaks a line but "\n" does not
_SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_READER_EDGES = {
    "crlf": _HEADER.replace("\n", "\r\n") + "1,0,1,60,0\r\n1,2,1,62,0\r\n",
    "bare-cr": _HEADER.replace("\n", "\r") + "1,0,1,60,0\r1,2,1,62,0\r",
    "no-final-newline": _HEADER + "1,0,1,60,0\n1,2,1,62,0",
    "whitespace-only-lines": _HEADER + "1,0,1,60,0\n  \n\t\n\n1,2,1,62,0\n \n",
    "header-only": _HEADER,
    "header-no-newline": _HEADER.rstrip("\n"),
    "empty-file": "",
    "underscore-int": _HEADER + "1_0,0,1,60,0\n",
    "underscore-float": _HEADER + "1,0,1,6_0,0\n",
    "arabic-indic-digits": _HEADER + "\u0661,0,1,\u0666\u0660,0\n",
    "plus-sign": _HEADER + "+5,+0,+1,+60,+0\n",
    "leading-space": _HEADER + " 5, 0, 1, 60, 0\n",
    "nan": _HEADER + "1,nan,1,60,0\n",
    "minus-nan": _HEADER + "1,0,1,-nan,0\n",
    "1e400": _HEADER + "1,0,1,1e400,0\n",
    "int64-max": _HEADER + f"{2**63 - 1},0,1,60,0\n",
    "int64-max+1": _HEADER + f"{2**63},0,1,60,0\n",
    "int64-min": _HEADER + f"1,0,{-2**63},60,0\n",
    "int64-min-1": _HEADER + f"1,0,{-2**63 - 1},60,0\n",
    "float-in-int-field": _HEADER + "1,0,1,60,0.0\n",
    "empty-field": _HEADER + "1,,1,60,0\n",
    "six-fields": _HEADER + "1,0,1,60,0,\n",
    "hash-in-field": _HEADER + "1,0,1,60,0#note\n",
    "hash-line": _HEADER + "#1,0,1,60,0\n",
    "quote-in-field": _HEADER + '"1",0,1,60,0\n',
    "bom": "\ufeff" + _HEADER + "1,0,1,60,0\n",
    "nul-in-field": _HEADER + "1,0,1,60\x00,0\n",
    "second-row-bad": _HEADER + "1,0,1,60,0\n1,2,x,62,0\n",
}
for _ch in _SPLITLINES_ONLY:
    _READER_EDGES[f"sep-{ord(_ch):04x}-in-field"] = _HEADER + f"1,0,1,60{_ch},0\n"
    _READER_EDGES[f"sep-{ord(_ch):04x}-at-line-end"] = _HEADER + f"1,0,1,60,0{_ch}\n1,2,1,62,0\n"


def _columns(panel):
    return panel.ids, panel.times, panel.states, panel.ages, panel.female


def _outcome(parse):
    """Column dtypes and bytes, or the one-line DataValidationError message."""
    try:
        got = parse()
    except DataValidationError as exc:
        assert "\n" not in str(exc)
        return str(exc)
    return [(col.dtype.str, col.tobytes()) for col in _columns(got)]


def _row_rules(path):
    """The file read as read_panel reads it, parsed by the row rules alone."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return parse_panel_text(text)


@pytest.mark.parametrize("raw", [*(text.encode() for text in _READER_EDGES.values()),
                                 _HEADER.encode() + b"1,0,1,6\xff0,0\n"],
                         ids=[*_READER_EDGES, "not-utf8"])
def test_read_panel_matches_row_rules_on_edge_inputs(tmp_path, monkeypatch, raw):
    path = tmp_path / "panel.csv"
    path.write_bytes(raw)
    assert _outcome(lambda: read_panel(path)) == _outcome(lambda: _row_rules(path))
    # and in blocks of a few bytes, which split rows and CR LF pairs across reads
    monkeypatch.setattr(panel_mod, "_CHUNK", 7)
    assert _outcome(lambda: read_panel(path)) == _outcome(lambda: _row_rules(path))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_read_panel_reads_a_pipe_once(tmp_path):
    # a pipe cannot be read twice, as a file is for the line count
    raw = _READER_EDGES["crlf"].encode()
    pipe, path = tmp_path / "pipe", tmp_path / "panel.csv"
    path.write_bytes(raw)
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(raw,), daemon=True)
    writer.start()
    try:
        got = _outcome(lambda: read_panel(pipe))
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == _outcome(lambda: _row_rules(path))


def test_splitlines_separator_in_a_field_is_a_row_error(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(_HEADER + "1,0,1,60\u2028,0\n", encoding="utf-8")
    with pytest.raises(DataValidationError, match="^row 2: expected 5 fields, got 4$"):
        read_panel(path)


_INT_TEXT = st.one_of(_INT64.map(str), st.sampled_from(["+5", "-0", "007"]))
_FLOAT_TEXT = st.one_of(st.floats().map(repr), _INT64.map(str),
                        st.sampled_from(["nan", "-nan", "+inf", "Infinity", "1e400", "1e-400",
                                         ".5", "5.", "1E+05"]))
# texts that the row rules refuse in some field or accept only through
# Python's own number syntax
_ODD_TEXT = st.sampled_from(["1_0", "1.0", "1e3", "", " ", "x", "0x10", "-", "1d5", "\u0661",
                             str(2**63), str(-2**63 - 1)])
_PAD = st.sampled_from(["", "", " ", "\t"])


@st.composite
def _panel_lines(draw):
    if draw(st.integers(0, 9)) == 0:  # empty, or whitespace only
        return draw(st.sampled_from(["", " ", "\t", " \t ", "\t\t", "   "]))
    line = []
    for text in (_INT_TEXT, _FLOAT_TEXT, _INT_TEXT, _FLOAT_TEXT, _INT_TEXT):
        odd = draw(st.integers(0, 19)) == 0
        line.append(draw(_PAD) + draw(_ODD_TEXT if odd else text) + draw(_PAD))
    if draw(st.integers(0, 19)) == 0:  # a field too many or too few
        line = line[:-1] if draw(st.booleans()) else line + ["0"]
    return ",".join(line)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_panel_lines(), max_size=6),
       end=st.sampled_from(["", "\n"]))
def test_c_reader_agrees_with_row_rules_where_it_accepts(lines, end):
    text = _HEADER + "\n".join(lines) + end
    fast = panel_mod._parse_plain(text.encode())
    if fast is not None:
        assert _outcome(lambda: fast) == _outcome(lambda: parse_panel_text(text))


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_panel_lines(), max_size=6), end=st.sampled_from(["\n", "\r\n", "\r"]),
       final=st.booleans(), chunk=st.integers(1, 64))
def test_read_panel_matches_row_rules_across_chunk_boundaries(tmp_path_factory, lines, end, final,
                                                              chunk):
    # blocks of a few bytes, so that rows, and CR LF pairs, straddle reads
    path = tmp_path_factory.getbasetemp() / "chunked.csv"
    path.write_bytes((end.join([CSV_HEADER, *lines]) + (end if final else "")).encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(panel_mod, "_CHUNK", chunk)
        assert _outcome(lambda: read_panel(path)) == _outcome(lambda: _row_rules(path))


def test_bom_is_dropped_once(tmp_path):
    # a file that starts with U+FEFF, as spreadsheets write "CSV UTF-8", is
    # read as the same file without it; a second U+FEFF is part of the header
    path = tmp_path / "panel.csv"
    plain = _READER_EDGES["bom"].removeprefix("\ufeff")
    path.write_text(plain, encoding="utf-8")
    want = _outcome(lambda: read_panel(path))
    assert not isinstance(want, str)
    path.write_text(_READER_EDGES["bom"], encoding="utf-8")
    assert _outcome(lambda: read_panel(path)) == want == _outcome(lambda: _row_rules(path))
    path.write_text("\ufeff" + _READER_EDGES["bom"], encoding="utf-8")
    with pytest.raises(DataValidationError, match=f"^expected header '{CSV_HEADER}'$"):
        read_panel(path)


def test_whitespace_only_lines_stay_on_the_c_reader(tmp_path):
    # lines of spaces and tabs, anywhere after the header, are skipped as the
    # row rules skip them, without sending the file to the row rules
    lines = ["1,0,1,60,0", " \t ", "1,2,1,62,0", "\t", "2,0,2,70,1", "  "]
    path = tmp_path / "panel.csv"
    path.write_text(_HEADER + "\n".join(lines) + "\n", encoding="ascii")
    with open(path, "rb") as fh:
        fast = panel_mod._read_plain(fh)
    assert fast is not None and len(fast) == 3
    assert _outcome(lambda: fast) == _outcome(lambda: read_panel(path)) == _outcome(
        lambda: _row_rules(path))


@pytest.mark.parametrize("name", ["header-only", "header-no-newline", "whitespace-only-lines",
                                  "crlf"])
def test_blocks_shorter_than_the_header_and_a_row_stay_on_the_c_reader(tmp_path, monkeypatch,
                                                                       name):
    # at 16-byte blocks the header is a block alone, with no row after it:
    # the C reader takes it as no rows, so a file stays on that route and
    # gives the row rules' panel, and a header-only file is an empty panel
    path = tmp_path / "panel.csv"
    path.write_bytes(_READER_EDGES[name].encode())
    monkeypatch.setattr(panel_mod, "_CHUNK", 16)
    with open(path, "rb") as fh:
        fast = panel_mod._read_plain(fh)
    assert fast is not None
    assert _outcome(lambda: fast) == _outcome(lambda: read_panel(path)) == _outcome(
        lambda: _row_rules(path))
    if name.startswith("header"):
        assert len(fast) == 0 and validate_panel(fast) == ["panel is empty"]


_CODES = [-129, -128, 127, 128, 1000, -(2**63), 2**63 - 1]


@pytest.mark.parametrize("chunk", [None, 48, 16], ids=["whole", "48-byte-blocks", "16-byte-blocks"])
@pytest.mark.parametrize("code", _CODES)
def test_codes_take_one_byte_exactly_when_every_value_fits(tmp_path, monkeypatch, code, chunk):
    # one row of 40 holds ``code`` as its state and its sex; the columns are
    # int8 when it fits and int64 otherwise, with the same values and the
    # same messages, whether built by Panel, read by the C reader or parsed
    # by the row rules; at 48-byte blocks, about three rows each, and at
    # 16-byte blocks, one row each after the header's own, the code is in a
    # late block, so the reader widens columns it has filled in one byte
    n = 40
    ids = np.repeat(np.arange(n // 2), 2)
    times = np.tile([0.0, 2.0], n // 2)
    states, female = np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    at = 3 * n // 4
    states[at] = female[at] = code
    panel = Panel(ids, times, states, np.full(n, 60.0), female)
    want = np.int8 if -128 <= code <= 127 else np.int64
    assert panel.states.dtype == panel.female.dtype == want
    assert panel.states[at] == panel.female[at] == code
    path = tmp_path / "panel.csv"
    write_panel(path, panel)
    if chunk:
        monkeypatch.setattr(panel_mod, "_CHUNK", chunk)
    with open(path, "rb") as fh:
        assert panel_mod._read_plain(fh) is not None  # the C-parsed route
    assert (_outcome(lambda: read_panel(path)) == _outcome(lambda: panel)
            == _outcome(lambda: parse_panel_text(path.read_text())))
    assert validate_panel(read_panel(path)) == [f"row {at + 2}: state {code} outside {{1,2,3}}",
                                                f"row {at + 2}: female {code} outside {{0,1}}"]


def test_every_constructor_gives_one_byte_codes(tmp_path):
    # a valid panel's codes take one byte however it was made, and its ids
    # stay int64, in which arithmetic on ids does not wrap
    config = SimulationConfig(n=300, structure=paperlike_structure(), params=paperlike_params(),
                              seed=4)
    sim = simulate_panel(config)
    path = tmp_path / "panel.csv"
    write_panel(path, sim)
    shuffled = Panel(*(col[::-1] for col in _columns(sim)))
    keep = sim.ids % 2 == 0
    panels = [sim, read_panel(path), parse_panel_text(path.read_text()), shuffled, shuffled.sort(),
              Panel(*(col[keep] for col in _columns(sim))), oracles.legacy_panel(config),
              Panel(*(col.tolist() for col in _columns(sim)))]
    for panel in panels:
        assert validate_panel(panel) == []
        assert [col.dtype for col in _columns(panel)] == [np.int64, np.float64, np.int8, np.float64,
                                                          np.int8]

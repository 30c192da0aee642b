"""Observed panel container and schema validation, plus every artifact format.

Panel CSV format: header ``id,time,state,age,female``, one row per
observation, times in decimal years, UTF-8.  Rows are kept sorted by
(id, time).

Every file the package writes or reads back goes through this module:
:func:`write_csv` writes any table of named columns (integers as digits,
floats as their shortest round-trip decimal), and :func:`write_json` /
:func:`read_json` write strict JSON (non-finite floats as null) and parse it
with a one-line :class:`DataValidationError` on bad input.  Re-reading an
artifact recovers the exact doubles that were written.
"""

from __future__ import annotations

import io
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError

CSV_HEADER = "id,time,state,age,female"
_PANEL_ROW = np.dtype([("id", "i8"), ("time", "f8"), ("state", "i8"), ("age", "f8"),
                       ("female", "i8")])
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n"
# rows per block of write_csv: a block formats its distinct values as Python
# strings, about 1 MB per column of distinct floats at this size, and on a
# 415,000-row panel blocks of 4,096 to 65,536 rows wrote equally fast
_BLOCK_ROWS = 1 << 13


@dataclass
class Panel:
    """Column-oriented panel of wave observations."""

    ids: np.ndarray
    times: np.ndarray
    states: np.ndarray
    ages: np.ndarray
    female: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=np.int64)
        self.ages = np.asarray(self.ages, dtype=float)
        self.female = np.asarray(self.female, dtype=np.int64)
        n = self.ids.size
        for name in ("times", "states", "ages", "female"):
            if getattr(self, name).size != n:
                raise DataValidationError(f"column {name} has wrong length")

    def __len__(self) -> int:
        return int(self.ids.size)

    @property
    def n_individuals(self) -> int:
        return int(np.unique(self.ids).size)

    def sort(self) -> "Panel":
        """The rows in (id, time) order, ties in their given order: the panel
        itself, with no copy, when its rows are already in that order."""
        ids, times = self.ids, self.times
        # a NaN time compares false, so it sends the panel to the sort
        if np.all((ids[1:] > ids[:-1]) | ((ids[1:] == ids[:-1]) & (times[1:] >= times[:-1]))):
            return self
        order = np.lexsort((times, ids))
        return Panel(
            self.ids[order], self.times[order], self.states[order],
            self.ages[order], self.female[order],
        )


def write_csv(path, columns: dict) -> None:
    """Write named 1-D columns as a CSV table, one row per index.

    Cells are formatted by dtype: integers as digits, every other dtype as
    ``repr(float)``, the shortest decimal that reads back as the same double.
    The rows are written in blocks of _BLOCK_ROWS, and each distinct value is
    formatted once per block (for floats, each bit pattern, so that ``-0.0``
    keeps its sign); a block's rows are assembled from those strings as
    bytes.  Every CSV the package writes goes through here.
    """
    cols = [np.asarray(col) for col in columns.values()]
    n_rows = cols[0].size if cols else 0
    if any(col.size != n_rows for col in cols):
        raise ValueError("columns differ in length")
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode("utf-8"))
        for start in range(0, n_rows, _BLOCK_ROWS):
            cells = [_distinct_text(col[start: start + _BLOCK_ROWS]) for col in cols]
            # each cell is its text, NUL-padded to the block's widest in its
            # column, then "," or "\n"; dropping the NUL bytes leaves the rows
            width = sum(text.itemsize + 1 for text, _ in cells)
            block = np.empty((cells[0][1].size, width), dtype=np.uint8)
            at = 0
            for text, inverse in cells:
                w = text.itemsize
                block[:, at: at + w] = text[inverse].view(np.uint8).reshape(-1, w)
                block[:, at + w] = ord(",")
                at += w + 1
            block[:, -1] = ord("\n")
            fh.write(block[block != 0].tobytes())


def _distinct_text(col: np.ndarray) -> tuple:
    """The column's distinct cell texts as ASCII bytes, and each row's index
    into them."""
    if col.dtype.kind in "iu":
        distinct, inverse = np.unique(col, return_inverse=True)
        text = map(str, distinct.tolist())
    else:
        bits = col.astype(float, copy=False).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        text = map(repr, distinct.view(np.float64).tolist())
    return np.array(list(text), dtype="S"), inverse.ravel()


def write_panel(path, panel: Panel) -> None:
    write_csv(path, {"id": panel.ids, "time": panel.times, "state": panel.states,
                     "age": panel.ages, "female": panel.female})


def _sanitize(obj):
    """Replace non-finite floats by None so artifacts stay strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return _sanitize(obj.item())
    return obj


def write_json(path, doc) -> None:
    """Write ``doc`` as indented strict JSON; NaN and infinities become null."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_sanitize(doc), fh, indent=2)
        fh.write("\n")


def read_json(path):
    """Parse a JSON file, raising DataValidationError on bad bytes or syntax."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise DataValidationError(f"{path}: malformed JSON ({exc})") from exc


def read_panel(path) -> Panel:
    """Parse a panel CSV, raising DataValidationError with row numbers.

    A file of printable ASCII, tabs and line breaks is parsed by NumPy's C
    reader.  Any other file, and any file that reader refuses or warns about,
    is parsed by :func:`parse_panel_text`, whose row rules are the only
    source of error messages.  Where the C reader succeeds, the row rules
    give the same columns.  The file is read as bytes, with the newline
    translation of text mode (CR LF and a lone CR become LF), and decoded
    only for the row rules.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    panel = _parse_plain(data)
    if panel is not None:
        return panel
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return parse_panel_text(text)


def _parse_plain(data: bytes) -> Panel | None:
    """The panel as NumPy's C reader parses the file's bytes, or None where
    the row rules must decide.

    The C reader takes digits only in ASCII, and it keeps inside a field (or
    strips as whitespace) some characters at which ``str.splitlines`` breaks
    a line, such as form feed and U+2028; so only bytes of printable ASCII,
    tabs and newlines are given to it.
    """
    if (data.partition(b"\n")[0].strip() != CSV_HEADER.encode()
            or data.translate(None, _PLAIN_BYTES)):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(io.BytesIO(data), dtype=_PANEL_ROW, delimiter=",", comments=None,
                               skiprows=1, ndmin=1, encoding="ascii")
    except (ValueError, Warning):
        return None
    return Panel(*(np.ascontiguousarray(table[name]) for name in _PANEL_ROW.names))


def parse_panel_text(text: str) -> Panel:
    """Parse panel CSV text by the row rules: ``int``/``float`` per field,
    whitespace-only lines skipped, one-line errors numbered by file row."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise DataValidationError(f"expected header '{CSV_HEADER}'")
    cols = ([], [], [], [], [])
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise DataValidationError(f"row {ln}: expected 5 fields, got {len(parts)}")
        try:
            cols[0].append(int(parts[0]))
            cols[1].append(float(parts[1]))
            cols[2].append(int(parts[2]))
            cols[3].append(float(parts[3]))
            cols[4].append(int(parts[4]))
        except ValueError as exc:
            raise DataValidationError(f"row {ln}: {exc}") from exc
    try:
        ids, states, female = (np.array(cols[j], dtype=np.int64) for j in (0, 2, 4))
    except OverflowError:
        rows = (ln for ln, line in enumerate(lines[1:], start=2) if line.strip())
        for ln, *values in zip(rows, cols[0], cols[2], cols[4]):
            big = [v for v in values if not -(2**63) <= v < 2**63]
            if big:
                raise DataValidationError(f"row {ln}: integer {big[0]} does not fit in 64 bits")
        raise
    return Panel(ids, np.array(cols[1]), states, np.array(cols[3]), female)


def validate_panel(panel: Panel) -> list[str]:
    """Schema diagnostics; empty list means the panel is clean.

    Messages carry 1-based row numbers in (id, time) sorted order, counting
    the header as row 1 to match the CSV layout.
    """
    p = panel.sort()
    if len(p) == 0:
        return ["panel is empty"]
    finite = np.isfinite(p.times) & np.isfinite(p.ages)
    problems = [f"row {i + 2}: non-finite time or age" for i in np.flatnonzero(~finite)]
    problems += [f"row {i + 2}: state {p.states[i]} outside {{1,2,3}}"
                 for i in np.flatnonzero(~np.isin(p.states, (1, 2, 3)))]
    problems += [f"row {i + 2}: female {p.female[i]} outside {{0,1}}"
                 for i in np.flatnonzero(~np.isin(p.female, (0, 1)))]
    problems += [f"row {i + 2}: age {p.ages[i]} must be positive"
                 for i in np.flatnonzero(p.ages <= 0)]
    # per-individual checks, in id order; within an individual: dead at the
    # first observation, then times, then observations after death
    first = np.r_[True, p.ids[1:] != p.ids[:-1]]
    group = np.cumsum(first) - 1
    has_next = np.r_[~first[1:], False]
    dead_first = np.flatnonzero(first & (p.states == 3))
    stalled = _first_per_group(np.flatnonzero(has_next[:-1] & (np.diff(p.times) <= 0)), group)
    after_death = _first_per_group(np.flatnonzero(p.states == 3), group)
    after_death = after_death[has_next[after_death]]
    found = [(group[i], 0, f"row {i + 2}: id {p.ids[i]} is dead at its first observation")
             for i in dead_first]
    found += [(group[i], 1, f"row {i + 3}: times not strictly increasing for id {p.ids[i]}")
              for i in stalled]
    found += [(group[i], 2, f"row {i + 3}: id {p.ids[i]} has observations after death")
              for i in after_death]
    return problems + [text for *_, text in sorted(found)]


def _first_per_group(rows: np.ndarray, group: np.ndarray) -> np.ndarray:
    """The first of ascending ``rows`` in each individual ``group``."""
    return rows[np.unique(group[rows], return_index=True)[1]]

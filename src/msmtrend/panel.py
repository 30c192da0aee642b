"""Observed panel container, CSV round-trip and schema validation.

CSV format: header ``id,time,state,age,female``, one row per observation,
times in decimal years, UTF-8.  Rows are kept sorted by (id, time).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError

CSV_HEADER = "id,time,state,age,female"


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
        order = np.lexsort((self.times, self.ids))
        return Panel(
            self.ids[order], self.times[order], self.states[order],
            self.ages[order], self.female[order],
        )


def format_number(x) -> str:
    """Integers as digits, floats as the shortest decimal that round-trips
    to the same double; every CSV the package writes goes through here."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def panel_to_csv(panel: Panel) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for i in range(len(panel)):
        buf.write(
            f"{panel.ids[i]},{format_number(panel.times[i])},{panel.states[i]},"
            f"{format_number(panel.ages[i])},{panel.female[i]}\n"
        )
    return buf.getvalue()


def write_panel(path, panel: Panel) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(panel_to_csv(panel))


def read_panel(path) -> Panel:
    """Parse a panel CSV, raising DataValidationError with row numbers."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc
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
    return Panel(*map(np.array, cols))


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

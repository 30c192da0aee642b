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
import re
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import DataValidationError

CSV_HEADER = "id,time,state,age,female"
_PANEL_ROW = np.dtype([("id", "i8"), ("time", "f8"), ("state", "i8"), ("age", "f8"),
                       ("female", "i8")])
_INT8 = np.iinfo(np.int8)
# a line of spaces and tabs, after the line break before it
_BLANK_LINE = re.compile(rb"\n[ \t]+(?=\n|\Z)")
# the rest of a block that holds no row: spaces, tabs and line breaks only
_NO_ROWS = re.compile(rb"[ \t\n]*\Z")
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n"
# the largest age validate_panel passes, a bound that needs no knots: the
# spline basis cubes an age's distance past a knot and divides by the knots'
# gaps, and 1e100 cubed is 1e300, so the basis is finite at every age up to
# it for any knots at least 0.002 apart (the cube alone overflows near 5.6e102)
_AGE_MAX = 1e100
# rows per block of write_csv: float_text holds about a dozen uint64 arrays
# of a block's distinct float values at once, under 0.9 MB per column of
# distinct floats at this size; on the 415,000-row panel, blocks of 16,384
# rows wrote as fast and blocks of 4,096 rows 20% slower
_BLOCK_ROWS = 1 << 13
# bytes per block of read_panel: a block is held with the buffer it was read
# into and NumPy's table of its rows (40 bytes a row, about 1.4 times the
# block's bytes), under 4 times _CHUNK beside the columns; on the
# 415,000-row panel, blocks of 128 and 256 KiB read no faster
_CHUNK = 1 << 16


@dataclass
class Panel:
    """Column-oriented panel of wave observations.

    ``ids`` are ``int64`` and ``times`` and ``ages`` floats.  The two codes,
    ``states`` and ``female``, take one byte (``int8``) whenever all their
    values fit, as on every valid panel, and are ``int64`` otherwise, so
    that an invalid code keeps its value for :func:`validate_panel`.
    """

    ids: np.ndarray
    times: np.ndarray
    states: np.ndarray
    ages: np.ndarray
    female: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.times = np.asarray(self.times, dtype=float)
        self.states = _codes(self.states)
        self.ages = np.asarray(self.ages, dtype=float)
        self.female = _codes(self.female)
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


def _codes(values) -> np.ndarray:
    """A code column as ``int8`` when every value fits, else ``int64``."""
    col = np.asarray(values)
    if col.dtype != np.int8:
        col = np.asarray(col, dtype=np.int64)
        if not col.size or _INT8.min <= col.min() and col.max() <= _INT8.max:
            col = col.astype(np.int8)
    return col


def write_csv(path, columns: dict) -> None:
    """Write named 1-D columns as a CSV table, one row per index.

    Cells are formatted by dtype: integers as digits, every other dtype as
    ``repr(float)``, the shortest decimal that reads back as the same double
    (:func:`float_text`, on arrays).  The rows are written in blocks of
    _BLOCK_ROWS, and each distinct value is formatted once per block (for
    floats, each bit pattern, so that ``-0.0`` keeps its sign); a block's
    rows are assembled from those texts as bytes.  Every CSV the package
    writes goes through here.
    """
    cols = [np.asarray(col) for col in columns.values()]
    n_rows = cols[0].size if cols else 0
    if any(col.size != n_rows for col in cols):
        raise ValueError("columns differ in length")
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode("utf-8"))
        for start in range(0, n_rows, _BLOCK_ROWS):
            cells = _block_text([col[start: start + _BLOCK_ROWS] for col in cols])
            # each cell is its text, a NUL-padded row of bytes as wide as the
            # block's widest in its column, then "," or "\n"; dropping the
            # NUL bytes leaves the rows
            width = sum(text.shape[1] + 1 for text, _ in cells)
            block = np.empty((cells[0][1].size, width), dtype=np.uint8)
            at = 0
            for text, inverse in cells:
                w = text.shape[1]
                block[:, at: at + w] = text.take(inverse, axis=0)
                block[:, at + w] = ord(",")
                at += w + 1
            block[:, -1] = ord("\n")
            fh.write(block[block != 0])


def _block_text(cols: list) -> list:
    """Each column's distinct cell texts as NUL-padded ``uint8`` rows, and each
    row's index into them.  Integers are formatted by ``str``; floats per bit
    pattern, so that ``-0.0`` keeps its sign, and those of every float column
    by one :func:`float_text` call, whose cost is mostly fixed on a small
    block."""
    cells, floats = [], []
    for col in cols:
        if col.dtype.kind in "iu":
            distinct, inverse = _distinct_ints(col)
            text = np.array(list(map(str, distinct.tolist())), dtype="S")
            cells.append([text.view(np.uint8).reshape(text.size, text.itemsize), inverse])
        else:
            bits = col.astype(float, copy=False).view(np.int64)
            distinct, inverse = np.unique(bits, return_inverse=True)
            cells.append([distinct.view(np.float64), inverse.ravel()])
            floats.append(cells[-1])
    if floats:
        text = float_text(np.concatenate([cell[0] for cell in floats]))
        for cell, part in zip(floats, np.split(text, np.cumsum([cell[0].size for cell in floats]))):
            # as wide as the column's widest text
            cell[0] = part[:, :np.flatnonzero(part.any(axis=0)).max(initial=-1) + 1]
    return cells


def _distinct_ints(col: np.ndarray) -> tuple:
    """The sorted distinct values of a non-empty integer column and each
    cell's index into them, as ``np.unique(col, return_inverse=True)`` gives
    them.  When the values span fewer integers than the column has cells, a
    count over the span finds them without a sort (several times faster on
    few-valued columns); a wider span, up to the whole int64 range, takes
    the sort, so that no array is ever as long as the span."""
    lo = col.min()
    # offsets from the least value, exact in uint64 whatever the signs
    offset = col.astype(np.uint64) - np.asarray(lo).astype(np.uint64)
    if offset.max() >= col.size:
        distinct, inverse = np.unique(col, return_inverse=True)
        return distinct, inverse.ravel()
    offset = offset.astype(np.intp)
    present = np.bincount(offset) > 0
    return np.flatnonzero(present).astype(col.dtype) + lo, (np.cumsum(present) - 1)[offset]


# Shortest round-trip decimals by Schubfach (Giulietti 2020).  A finite
# double v = c 2**q has k = floor(log10 2**q) (of 3/4 2**q where the gap
# below v is half the gap above it), and g(k) is 10**-k scaled into
# [2**125, 2**126) and rounded up.  The products (4c + j) 2**h g(k) / 2**127,
# rounded to odd, give 4 v 10**-k (j = 0) and the ends of the interval of
# reals that round to v (j = -2 or -1, and 2); of the decimals s 10**k in
# that interval, the one of fewest digits, then the closest to v (the even
# one on a tie), is the shortest decimal that reads back as v: the digits of
# ``repr``.  The integer logarithms are exact over the doubles' exponents:
# floor(log10 2**q) = q 1262611 >> 22, less 524031 before the shift for
# 3/4 2**q, and floor(log2 10**e) = e 1741647 >> 19.
_K_MIN = (-1074 * 1262611 - 524031) >> 22
_K_MAX = (972 * 1262611) >> 22
_MASK63 = (1 << 63) - 1
_MASK32 = 0xFFFFFFFF


def _mulhi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit product a * b, from 32-bit limbs."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    hi_lo, lo_hi = a_hi * b_lo, a_lo * b_hi
    # in place from here: a_lo * b_lo becomes the middle sum, a_hi * b_hi the result
    a_lo *= b_lo
    a_lo >>= 32
    a_lo += hi_lo & _MASK32
    a_lo += lo_hi & _MASK32
    a_hi *= b_hi
    a_hi += hi_lo >> 32
    a_hi += lo_hi >> 32
    a_hi += a_lo >> 32
    return a_hi


def _g_table() -> tuple:
    """g(k) for k in [_K_MIN, _K_MAX] as (high, low) 64-bit halves, from exact
    integers: floor(10**-k / 2**r) + 1 with r = floor(log2 10**-k) - 125."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = ((-k * 1741647) >> 19) - 125
        g.append((10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1)
    return (np.array([x >> 64 for x in g], dtype=np.uint64),
            np.array([x & (1 << 64) - 1 for x in g], dtype=np.uint64))


_G_HI, _G_LO = _g_table()


def _shortest(bits: np.ndarray) -> tuple:
    """(d, k) with d 10**k the shortest round-trip decimal of each finite
    nonzero double, given its bits as ``uint64``; other entries are junk."""
    be = bits >> 52 & 0x7FF
    c = bits & (1 << 52) - 1
    irregular = (c == 0) & (be > 1)
    np.bitwise_or(c, 1 << 52, out=c, where=be != 0)
    q = np.maximum(be, 1).view(np.int64) - 1075
    del be
    k = q * 1262611 - irregular * 524031 >> 22
    h = (q + (-k * 1741647 >> 19) + 2).astype(np.uint8)  # 2 to 5
    del q
    g_hi, g_lo = _G_HI.take(k - _K_MIN), _G_LO.take(k - _K_MIN)
    # the ends belong to the interval when c is even
    odd = (c & 1).astype(bool)
    # (4c << h) g = v 2**127 + r_hi 2**64 + r_lo, with r_hi below 2**63
    c <<= h + 2
    r_lo = _mulhi(c, g_lo)
    r_hi = c * g_hi + r_lo
    v = _mulhi(c, g_hi) + (r_hi < r_lo)
    v <<= 1
    v |= r_hi >> 63
    r_hi &= _MASK63
    c *= g_lo
    r_lo = c
    # (4c << h) g exceeds 4 v 10**-k 2**127 by less than 2**60, and Schubfach
    # needs only its bits from 2**64 up: r_hi is 0 where the value is an integer
    vb = v | (r_hi != 0)
    # the ends take off and add (2 or 1) << h to 4c: g << (h + 1 or h)
    shift = h + 1 - irregular
    hi = r_hi - ((g_hi << shift | g_lo >> 64 - shift) & _MASK63) - (r_lo < g_lo << shift)
    lower = v - (g_hi >> 63 - shift) - (hi >> 63) | ((hi & _MASK63) != 0)
    lower += odd
    shift = h + 1
    lo = g_lo << shift
    hi = r_hi + ((g_hi << shift | g_lo >> 64 - shift) & _MASK63) + (r_lo + lo < lo)
    upper = v + (g_hi >> 63 - shift) + (hi >> 63) | ((hi & _MASK63) != 0)
    upper -= odd
    del g_hi, g_lo, r_hi, r_lo, v, hi, lo, odd
    s = vb >> 2
    # one multiple of 10 inside is shorter than any s or s + 1
    s10 = s // 10 * 10
    below10 = lower <= s10 << 2
    above10 = s10 + 10 << 2 <= upper
    # else s or s + 1, whichever is inside, or the closer (the even on a tie)
    up = (s + 1 << 2 <= upper) & ((lower > s << 2) | (vb + (s & 1) > (s << 2) + 2))
    d = np.where(below10 != above10, np.where(above10, s10 + 10, s10), s + up)
    return d, k


# A cell's text is gathered from a 28-byte alphabet row: significant digits
# 2 to 17 (NUL after the last nonzero one, unless the value is written as an
# integer), "0.-e", the exponent as four digits, then the first digit and the
# exponent's sign.  _LAYOUT lists the alphabet index of each character of
# every text shape.
_ZERO, _POINT, _MINUS, _EXP, _EXP_SIGN, _NUL = 16, 17, 18, 19, 25, 26
_DIGITS = [24] + list(range(16))
_POW10 = np.array([10**j for j in range(18)], dtype=np.uint64)


def _groups() -> np.ndarray:
    """The four digits of 0 to 9999, then the same with trailing zeros as NUL,
    as 4-byte words."""
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    chars = np.concatenate([digits + 48, np.where(trailing, 0, digits + 48)]).astype(np.uint8)
    return chars.view(np.uint32).ravel()


_GROUP = _groups()
_CONSTANTS = np.frombuffer(b"0.-e", dtype=np.uint32)[0]
_LEAD_SIGN = np.frombuffer("".join(f"{j}{sign}\0\0" for sign in "+-" for j in range(10)).encode(),
                           dtype=np.uint32)


def _layout(decpt, integral: bool, exp3: bool, single: bool) -> list:
    """Alphabet indices of one text shape, as ``repr`` writes it: positional
    for -4 < decpt <= 16 (decpt is None otherwise), with ".0" for integral
    values; else d.ddde±XX (de±XX for a single digit), with three exponent
    digits where it needs them."""
    if decpt is None:
        point = [] if single else [_POINT] + _DIGITS[1:]
        return _DIGITS[:1] + point + [_EXP, _EXP_SIGN] + [21, 22, 23][1 - exp3:]
    if decpt <= 0:
        return [_ZERO, _POINT] + [_ZERO] * -decpt + _DIGITS
    return _DIGITS[:decpt] + [_POINT] + ([_ZERO] if integral else _DIGITS[decpt:])


def _layouts() -> np.ndarray:
    """Codes 2 decpt + 6 + integral (positional), 40 + 2 exp3 + single, and
    44 more for a negative value."""
    shapes = [_layout(decpt, integral, False, False)
              for decpt in range(-3, 17) for integral in (False, True)]
    shapes += [_layout(None, False, exp3, single)
               for exp3 in (False, True) for single in (False, True)]
    shapes += [[_MINUS] + shape for shape in shapes]
    width = max(map(len, shapes))
    return np.array([shape + [_NUL] * (width - len(shape)) for shape in shapes], dtype=np.uint8)


_LAYOUT = _layouts()
_LENGTH = (_LAYOUT != _NUL).sum(axis=1)


def float_text(values: np.ndarray) -> np.ndarray:
    """``repr(float(v))`` of each value as a row of ASCII bytes, NUL wherever
    there is no character (between characters too), from array arithmetic
    alone."""
    x = np.asarray(values, dtype=np.float64).ravel()
    bits = x.view(np.uint64)
    d, k = _shortest(bits)
    zero = bits << 1 == 0
    d[zero] = 0
    n_digits = np.searchsorted(_POW10, d, side="right")
    decpt = np.where(zero, 1, k + n_digits).astype(np.int16)
    # the 17 digits of d 10**(17 - n_digits): a lead digit, four groups of four
    d *= _POW10[17 - n_digits]
    del k, n_digits
    d = d.view(np.int64)
    lead = d // 10**16
    d -= lead * 10**16
    single = d == 0
    high = d // 10**8
    d -= high * 10**8
    groups = [high // 10**4, high, d // 10**4, d]
    high -= groups[0] * 10**4
    d -= groups[2] * 10**4
    positional = (decpt > -4) & (decpt < 17)
    with np.errstate(invalid="ignore"):  # floor of a signaling NaN
        integral = positional & (x == np.floor(x))
    exponent = decpt - 1
    magnitude = np.abs(exponent)
    chars = np.empty((x.size, 7), dtype=np.uint32)
    # digits after the last nonzero one are NUL, except in integral positional
    # texts, whose zeros up to the point are digits
    tail = ~integral
    for j in (3, 2, 1, 0):
        _GROUP.take(groups[j] + tail * 10_000, out=chars[:, j])
        tail &= groups[j] == 0
    del groups, high, d
    chars[:, 4] = _CONSTANTS
    _GROUP.take(magnitude, out=chars[:, 5])
    _LEAD_SIGN.take(lead + (exponent < 0) * 10, out=chars[:, 6])
    code = np.where(positional, 2 * decpt + 6 + integral, 40 + 2 * (magnitude >= 100) + single)
    code += (bits >> 63).astype(np.int16) * (_LAYOUT.shape[0] // 2)
    counts = np.bincount(code, minlength=_LAYOUT.shape[0])
    nonfinite = ~np.isfinite(x)
    width = max(_LENGTH[counts > 0].max(initial=0), 4 * nonfinite.any())
    # every row in the most common shape, then the other rows in theirs
    common = counts.argmax()
    text = chars.view(np.uint8)[:, _LAYOUT[common, :width]]
    for c in np.flatnonzero(counts):
        if c != common:
            rows = code == c
            text[rows] = chars[rows].view(np.uint8)[:, _LAYOUT[c, :width]]
    if nonfinite.any():
        for word, rows in ((b"nan", np.isnan(x)), (b"inf", x == np.inf), (b"-inf", x == -np.inf)):
            text[rows] = np.frombuffer(word.ljust(width, b"\0"), dtype=np.uint8)
    return text


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
    reader, block by block (:func:`_read_plain`).  Any other file, and any
    file that reader refuses or warns about in some block, is read again
    whole and parsed by :func:`parse_panel_text`, whose row rules are the
    only source of error messages.  Where the C reader succeeds, the row
    rules give the same columns.  The file is read as bytes, with the
    newline translation of text mode (CR LF and a lone CR become LF), and
    decoded only for the row rules.
    """
    with open(path, "rb") as fh:
        if not fh.seekable():  # a pipe, read once
            fh = io.BytesIO(fh.read())
        panel = _read_plain(fh)
        if panel is not None:
            return panel
        data = b"".join(_blocks(fh))
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return parse_panel_text(text)


def _blocks(fh):
    """The bytes of ``fh`` from the start, newlines translated, in blocks of
    whole lines.  Each is read into one buffer of _CHUNK bytes and ends
    after its last LF, so that no CR LF pair is split; a line that fills the
    buffer doubles it, so a file with no LF, such as one of bare CRs, is one
    block."""
    fh.seek(0)
    buf = bytearray(_CHUNK)
    held = 0  # the bytes of an unfinished line, at the front of buf
    while True:
        with memoryview(buf) as view:
            read = fh.readinto(view[held:])
            end = held + read
            cut = buf.rfind(b"\n", 0, end) + 1 if read else end
            block = bytes(view[:cut])
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if block:
            yield block
        if not read:
            return
        held = end - cut
        buf[:held] = buf[cut:end]
        if held == len(buf):
            buf.extend(bytes(held))


def _read_plain(fh) -> Panel | None:
    """The panel as NumPy's C reader parses the blocks of :func:`_blocks`
    (:func:`_parse_plain`), or None where the row rules must decide.  A
    first pass counts the lines, which bound the rows, so that each block's
    rows are copied straight into columns allocated once, and only a block
    and its table are held beside them."""
    lines = sum(np.count_nonzero(np.frombuffer(block, dtype=np.uint8) == ord("\n"))
                for block in _blocks(fh))
    # each column in the dtype of a panel of no rows, the codes in one byte;
    # a code column is widened once, when a block holds a code beyond it
    empty = _no_rows()
    cols = [np.empty(lines, dtype=getattr(empty, f.name).dtype) for f in fields(Panel)]
    rows, blocks = 0, 0
    for block in _blocks(fh):
        part = _parse_plain(block, header=not blocks)
        if part is None or rows + len(part) > lines:  # refused, or the file grew
            return None
        for j, f in enumerate(fields(Panel)):
            values = getattr(part, f.name)
            if not np.can_cast(values.dtype, cols[j].dtype):
                wide = np.empty(lines, dtype=values.dtype)
                wide[:rows] = cols[j][:rows]
                cols[j] = wide
            cols[j][rows: rows + len(part)] = values
        rows += len(part)
        blocks += 1
        del part  # the table goes before the next block is read
    if not blocks:  # an empty file has no header
        return None
    return Panel(*(col[:rows] for col in cols))


def _no_rows() -> Panel:
    """A panel of no rows, in the dtypes of the C reader's columns."""
    return Panel(*(np.empty(0, dtype=_PANEL_ROW[name]) for name in _PANEL_ROW.names))


def _parse_plain(data: bytes, header: bool = True) -> Panel | None:
    """The rows of a block of whole lines as NumPy's C reader parses them,
    after the header line when ``header``, or None where the row rules must
    decide.  Its columns are views of the reader's one table, which holds a
    row's five fields side by side.

    The C reader takes digits only in ASCII, and it keeps inside a field (or
    strips as whitespace) some characters at which ``str.splitlines`` breaks
    a line, such as form feed and U+2028; so only bytes of printable ASCII,
    tabs and newlines are given to it.
    """
    if data.translate(None, _PLAIN_BYTES):
        return None
    rows = (data.find(b"\n") + 1 or len(data)) if header else 0  # where the rows start
    # the header line is compared without copying the rows after it
    if header and data[:rows].strip() != CSV_HEADER.encode():
        return None
    # loadtxt warns of a block with no rows, such as the header alone
    if _NO_ROWS.match(data, rows):
        return _no_rows()
    # the C reader skips empty lines but refuses lines of spaces and tabs,
    # which the row rules skip too, so those are emptied (a search for one
    # byte costs little beside the C reader; one for a line break and a space
    # took a tenth of its time)
    if b" " in data or b"\t" in data:
        data = _BLANK_LINE.sub(b"\n", b"\n" + data)[1:]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(io.BytesIO(data), dtype=_PANEL_ROW, delimiter=",",
                               comments=None, skiprows=int(header), ndmin=1,
                               encoding="ascii")
    except (ValueError, Warning):
        return None
    return Panel(*(table[name] for name in _PANEL_ROW.names))


def parse_panel_text(text: str) -> Panel:
    """Parse panel CSV text by the row rules: one leading byte-order mark
    (U+FEFF) dropped, ``int``/``float`` per field, whitespace-only lines
    skipped, one-line errors numbered by file row."""
    lines = text.removeprefix("\ufeff").splitlines()
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
    problems += [f"row {i + 2}: age {p.ages[i]} must be at most {_AGE_MAX:g}"
                 for i in np.flatnonzero(p.ages > _AGE_MAX)]
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

"""Deterministic CSV and JSON emission.

All output files are written atomically (temp file in the target directory,
then rename) with the mode a new file gets under the process umask, and
floats are formatted as ``format(v, ".17g")`` (17 significant digits) so
values round-trip exactly and repeated runs are byte-identical.  Text cells
are quoted as the ``csv`` module quotes them by default: only when they hold
a comma, a double quote or a line break, with inner quotes doubled.

``format_floats`` gives the same float strings for a whole array at once.
It computes them in NumPy for 1e-4 <= |v| < 1e16, where ``.17g`` uses
fixed notation, and calls ``format`` for every other value.

The corpus reader's bulk parsers read cells at given offsets of a file's
bytes: ``parse_floats`` and ``parse_ints`` give what ``float`` and ``int``
give for each stripped cell, converting the plain decimal ones in NumPy,
and ``byte_cells`` gathers text cells into a fixed-width bytes array.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
from typing import Iterable

import numpy as np

from . import __version__

__all__ = [
    "FLOAT_SLOTS",
    "byte_cells",
    "digits8",
    "fmt",
    "format_floats",
    "parse_floats",
    "parse_ints",
    "quote",
    "write_csv_atomic",
    "write_manifest",
    "write_rows_atomic",
    "write_text_atomic",
]


def quote(text: str) -> str:
    """A text cell, quoted when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def fmt(value) -> str:
    """Render a cell: floats at 17 significant digits, None as empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return quote(str(value))


# 10**k for k in [-5, 22], correctly rounded by float(); exact for k >= 0.
_POW10 = np.array([float(f"1e{k}") for k in range(-5, 23)])
_VELTKAMP = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves

# The slots of one float cell: a sign, the zero before the point of |v| < 1,
# the 17 digits (A), the point, the zeros after the point of |v| < 1e-1,
# and the 17 digits again (C).  Which slots a value keeps depends only on
# its exponent, its digit count and its sign.  The cell is written as five
# little-endian uint64 words; _FILL holds its constant bytes.
FLOAT_SLOTS = 40
_SIGN, _ZERO, _A, _POINT, _ZEROS, _C = 0, 1, 2, 19, 20, 23
_FILL = np.frombuffer(b"-0" + bytes(17) + b".000" + bytes(17), "<u8")
_ASCII_ZERO = np.uint64(0x3030303030303030)


@functools.cache
def _digits4() -> np.ndarray:
    """The 4 ASCII decimal digits of each q < 10**4 in a uint64, the most
    significant in the lowest byte."""
    q = np.arange(10_000, dtype=np.uint64)
    return sum(q // np.uint64(10**k) % np.uint64(10) << np.uint64(24 - 8 * k)
               for k in range(4)) + np.uint64(0x30303030)


@functools.cache
def _keep_table() -> np.ndarray:
    """The slots a fixed-notation value keeps, as one 40-byte item per
    ``((e10 + 4) * 18 + num_digits) * 2 + negative``.

    The point follows the first max(e10 + 1, 0) digits, after the zero and
    the point of |v| < 1 and max(-e10 - 1, 0) zeros; it is dropped when no
    digit follows it.
    """
    e10 = np.arange(-4, 16)[:, None, None]
    num_digits = np.arange(18)[:, None]
    point = np.maximum(e10 + 1, 0)
    slots = np.arange(17)
    table = np.zeros((20, 18, 2, FLOAT_SLOTS), bool)
    table[..., _SIGN] = [False, True]
    table[..., _ZERO] = e10 < 0
    table[..., _A:_POINT] = (slots < point)[..., None, :]
    table[..., _POINT] = num_digits > point
    table[..., _ZEROS:_C] = (slots[:3] < -1 - e10)[..., None, :]
    table[..., _C:] = (slots >= point[..., None]) & (slots < num_digits[..., None])
    return table.reshape(-1, FLOAT_SLOTS).view(f"V{FLOAT_SLOTS}")[:, 0]


def digits8(q: np.ndarray) -> np.ndarray:
    """The 8 ASCII decimal digits of each integer ``q`` in [0, 10**8) in a
    uint64, the most significant in the lowest byte, so that its
    little-endian bytes read as ``f"{q:08d}"``."""
    high = q // 10_000
    table = _digits4()
    return table[high] | table[q - high * 10_000] << np.uint64(32)


def _last_nonzero_digit(digits: np.ndarray) -> np.ndarray:
    """The index of the last digit other than 0 in each ``digits8`` word,
    -1 if there is none.  The float conversion may round up, but not past a
    byte boundary, as each byte less ``"0"`` is at most 9."""
    return (np.frexp((digits ^ _ASCII_ZERO).astype(np.float64))[1] - 1) >> 3


def format_floats(values: np.ndarray, chars: np.ndarray, keep: np.ndarray) -> None:
    """Write ``format(v, ".17g")`` of each float64 ``v`` of ``values`` into
    its cell of ``chars``: ``chars[i][keep[i]]`` is that string's ASCII.

    ``chars`` (uint8) and ``keep`` (bool) have the shape of ``values`` plus
    a last axis of ``FLOAT_SLOTS`` slots, which must be contiguous; they
    may be views into a larger buffer, as the corpus export uses them.

    For 1e-4 <= |v| < 1e16, ``.17g`` is fixed notation with the 17-digit
    significand D rounded half to even.  ``e10``, the exponent of |v|, is
    ``floor(log10(|v|))`` corrected once against a table of powers of 10;
    then |v| * 10**(16 - e10) = hi + lo exactly (Dekker's product: the
    power is an exact double), and as hi >= 2**53 is an even integer,
    D = hi + rint(lo).  D never rounds up to 10**17: for the double next
    below each power of ten, hi + lo is at least 8 below it.  Zero, -0,
    subnormals, |v| < 1e-4, |v| >= 1e16, non-finite values and any value
    whose hi + lo is not in [1e16, 1e17) take ``format`` itself, so no
    result rests on ``log10`` being correctly rounded.
    """
    v = np.asarray(values, dtype=np.float64)
    a = np.abs(v)
    fixed = (a >= _POW10[1]) & (a < _POW10[21])
    a = np.where(fixed, a, 1.0)
    e10 = np.floor(np.log10(a)).astype(np.intp)
    e10 += a >= _POW10[e10 + 6]
    e10 -= a < _POW10[e10 + 5]
    np.clip(e10, -4, 15, out=e10)
    scale = _POW10[21 - e10]
    t = a * _VELTKAMP
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = scale * _VELTKAMP
    s_hi = t - (t - scale)
    s_lo = scale - s_hi
    hi = a * scale
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    fixed &= ((hi > 1e16) | ((hi == 1e16) & (lo >= 0))) & (
        (hi < 1e17) | ((hi == 1e17) & (lo < 0)))
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    lead = d // 10**16
    d -= lead * 10**16
    q = d // 10**8
    w1, w2 = digits8(q), digits8(d - q * 10**8)
    # Digits kept: through the last nonzero one.
    tail = _last_nonzero_digit(w2)
    num_digits = np.where(tail >= 0, 10 + tail, 2 + _last_nonzero_digit(w1))
    lead = lead.astype(np.uint64) + np.uint64(ord("0"))
    words = chars.view("<u8")
    words[..., 0] = _FILL[0] | lead << np.uint64(16) | w1 << np.uint64(24)
    words[..., 1] = w1 >> np.uint64(40) | w2 << np.uint64(24)
    words[..., 2] = _FILL[2] | w2 >> np.uint64(40) | lead << np.uint64(56)
    words[..., 3] = w1
    words[..., 4] = w2
    code = ((e10 + 4) * 18 + num_digits) * 2 + np.signbit(v)
    keep.view(f"V{FLOAT_SLOTS}")[..., 0] = _keep_table()[code]
    for i in zip(*np.nonzero(~fixed)):
        text = format(float(v[i]), ".17g").encode("ascii")
        chars[i][: len(text)] = np.frombuffer(text, np.uint8)
        keep[i] = False
        keep[i][: len(text)] = True


# The bytes of a cell that ``parse_floats`` and ``parse_ints`` read at
# once: the last 24 after its sign, as three little-endian uint64 words.
_CELL_BYTES = 24
_BYTES_76 = np.uint64(0x7676767676767676)
_BYTES_80 = np.uint64(0x8080808080808080)


@functools.cache
def _pow10_split() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10**f for f in [0, 22], an exact double, and its Veltkamp halves."""
    p = _POW10[5:]
    t = p * _VELTKAMP
    high = t - (t - p)
    return p, high, p - high


@functools.cache
def _inside_masks() -> np.ndarray:
    """For each count c in [0, 25] of leading bytes outside a cell, the
    24-byte mask of the bytes from c on, as one ``V24`` item."""
    inside = np.arange(_CELL_BYTES) >= np.arange(_CELL_BYTES + 2)[:, None]
    return (inside * np.uint8(0xFF)).view(f"V{_CELL_BYTES}")[:, 0]


def _windows(data: np.ndarray, width: int) -> np.ndarray:
    """Every ``width`` bytes of ``data`` from each offset, as ``V{width}``
    items sharing its memory: indexing them copies one cell per row."""
    return np.ndarray((len(data) - width + 1,), f"V{width}", data, strides=(1,))


def _above_nine(digits: np.ndarray) -> np.ndarray:
    """The top bit of each byte of the uint64 words ``digits`` that is above
    9: set in digits + 0x76.. | digits, exactly up to the lowest byte whose
    carry reaches the next one, which is above 9 itself."""
    above = digits + _BYTES_76
    above |= digits
    above &= _BYTES_80
    return above


def _decimal_cells(data: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Read each cell ``data[starts[i]:ends[i]]`` of the uint8 array
    ``data`` that has the form ``-?digits[.digits]``, with at most 24 bytes
    after the sign and at most 18 significant digits.

    Returns ``(fast, negative, m, f, point)``: which cells have that form,
    and for those the sign, the digits as one int64 ``m`` (the cell reads
    as -?m / 10**f), the count ``f`` of digits after the point and whether
    it has a point; ``m`` and ``f`` are 0 for the other cells.  The 24
    bytes that end a cell are three uint64 words.  The bytes before the
    first digit read as 0, the point is dropped by moving the bytes before
    it up by one, and each word is then read as 8 digits at once.
    """
    w = _CELL_BYTES
    if len(data) < w or ends.min(initial=w) < w:  # room for the first window
        data = np.concatenate((np.zeros(w, np.uint8), data))
        starts, ends = starts + w, ends + w
    length = ends - starts
    # An empty cell's start is the next cell's, so its sign may be read
    # from there; its first byte after the sign is then 25.
    negative = data.take(starts, mode="clip") == ord("-")
    first = w - length + negative  # the window's first byte after the sign
    u64 = np.uint64
    digits = _windows(data, w)[ends - w].view("<u8").reshape(-1, 3)
    digits ^= _ASCII_ZERO
    # 0..9 for a digit, 0x1E for ".", other bytes above 9, 0 outside.
    digits &= _inside_masks()[np.maximum(first, 0)].view("<u8").reshape(-1, 3)
    # k is the highest byte above 9, one of 24, read from one float (-1 when
    # there is none); it is the point if any.
    bit = _above_nine(digits).astype(np.float64) @ np.array([1.0, 2.0**64, 2.0**128])
    k = np.frexp(bit)[1] - 8 >> 3
    point = (k >= 0) & (data.take(ends - w + k) == ord("."))
    f = np.where(point, w - 1 - k, 0)
    # Drop the point: the bytes up to it take the byte before them, those
    # after it keep theirs.
    moved = digits << u64(8)
    moved.reshape(-1)[1:] |= digits.reshape(-1)[:-1] >> u64(56)
    moved[:, 0] = digits[:, 0] << u64(8)  # nothing comes from the cell before
    digits ^= moved
    digits &= _inside_masks()[np.where(point, k + 1, 0)].view("<u8").reshape(-1, 3)
    digits ^= moved
    del moved
    # Every byte must now be a digit; a digit before the point (or in a
    # cell without one), and one after.
    above = _above_nine(digits)
    fast = ((above[:, 0] | above[:, 1] | above[:, 2]) == 0) & (first >= 0) & (
        first <= w - 1 - f - point) & (k < w - 1)
    del above
    # Eight digits per word, the first the most significant (Lemire 2021).
    v = digits
    v *= u64(10 << 8 | 1)
    v >>= u64(8)
    v &= u64(0x00FF00FF00FF00FF)
    v *= u64(100 << 16 | 1)
    v >>= u64(16)
    v &= u64(0x0000FFFF0000FFFF)
    v *= u64(10_000 << 32 | 1)
    v >>= u64(32)
    fast &= v[:, 0] < 100  # m < 10**18
    m = (v[:, 0] * u64(10**8) + v[:, 1]) * u64(10**8) + v[:, 2]
    m = np.where(fast, m, np.uint64(0)).astype(np.int64)
    return fast, negative, m, np.where(fast, f, 0), point


def _cell_text(data: np.ndarray, start: int, end: int) -> str:
    """One cell, decoded as UTF-8 and stripped as ``str.strip`` strips."""
    return bytes(data[start:end]).decode("utf-8").strip()


def parse_floats(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """``float`` of each cell ``data[starts[i]:ends[i]]`` of the uint8
    array ``data``, decoded as UTF-8 and stripped, as a float64 array; None
    when ``float`` (or the decoding) rejects a cell.

    Cells of the form ``-?digits[.digits]`` with at most 24 bytes after the
    sign and at most 18 significant digits m (the cell reads as -?m / 10**f,
    f <= 22) are converted in NumPy; every other cell (exponent notation,
    padding, ``+``, ``1_000``, ``.5``, ``5.``, ``nan``, non-ASCII bytes,
    longer digit strings) goes to ``float``.  The NumPy value is the
    correctly rounded m / 10**f, as ``float`` gives it:

    * for m < 2**53, m and 10**f are exact doubles, so one IEEE division
      q = m / 10**f rounds correctly (Clinger 1990);
    * for larger m, q = float(m) / 10**f is within 1.5 ulp of x = m / 10**f,
      so the answer is q or one of its neighbours.  Dekker's product gives
      q * 10**f = h + l exactly, and h >= 2**52 is an integer, so the
      residual r = m - q * 10**f = (m - int(h)) - l takes one rounding,
      which is exact: r is a multiple of g = min(1, ulp(q) * 2**f) and
      |r| <= 1.5 ulp(q) * 10**f, fewer than 2**53 multiples of g as
      5**22 < 2**52.  The gap from q to its neighbour on the side of r
      (the smaller one below a power of two) times 10**f is exact too, so
      comparing 2|r| with it picks the double nearest x, ties to even.

    Checked with exact fractions on 397,227 cells, random and adversarial
    (halfway cases, powers of two and their neighbours), and by the
    differential test against ``float``.  Temporaries take about 110 bytes
    per cell, so callers pass cells in blocks.
    """
    fast, negative, m, f, _ = _decimal_cells(data, starts, ends)
    with np.errstate(all="ignore"):
        p, p_hi, p_lo = (table[f] for table in _pow10_split())
        q = m.astype(np.float64)
        q /= p
        q_hi = q * _VELTKAMP
        q_hi -= q_hi - q
        q_lo = q - q_hi
        h = q * p
        lo = q_hi * p_hi
        lo -= h
        lo += q_hi * p_lo
        lo += q_lo * p_hi
        lo += q_lo * p_lo
        del q_hi, q_lo, p_hi, p_lo  # freed early, as the block's peak counts
        r = (m - h.astype(np.int64)).astype(np.float64)
        r -= lo
        del h, lo
        # Step to the neighbour on the side of x when |r| is more than half
        # the gap to it times 10**f, or half and q is odd (ties to even).
        bits = q.view(np.int64)
        toward = np.sign(r).astype(np.int64)
        gap = (bits + toward).view(np.float64)
        gap -= q
        np.abs(gap, out=gap)
        gap *= p
        twice = np.abs(r, out=r)
        twice *= 2.0
        step = (twice > gap) | (twice == gap) & (bits & 1 == 1)
        step &= m >= 2**53
        toward *= step
        values = (bits + toward).view(np.float64)
    values = np.where(negative, -values, values)
    for i in np.flatnonzero(~fast).tolist():
        try:
            values[i] = float(_cell_text(data, starts[i], ends[i]))
        except ValueError:
            return None
    return values


def parse_ints(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """``int`` of each cell ``data[starts[i]:ends[i]]`` of the uint8 array
    ``data``, decoded as UTF-8 and stripped, as an int64 array; None when
    ``int`` (or the decoding) rejects a cell or its value does not fit.
    A cell of one ASCII digit is that digit.  Other cells of ``-?digits``
    with at most 24 bytes after the sign and at most 18 significant digits
    are read in NumPy, and the rest by ``int``."""
    values = data.take(starts, mode="clip").astype(np.int64) - ord("0")
    rest = np.flatnonzero((ends - starts != 1) | (values < 0) | (values > 9))
    if not len(rest):
        return values
    fast, negative, m, _, point = _decimal_cells(data, starts[rest], ends[rest])
    values[rest] = np.where(negative, -m, m)
    for i in rest[~fast | point].tolist():
        try:
            value = int(_cell_text(data, starts[i], ends[i]))
        except ValueError:
            return None
        if not -(1 << 63) <= value < 1 << 63:
            return None
        values[i] = value
    return values


def byte_cells(data: np.ndarray, starts: np.ndarray, ends: np.ndarray, width: int) -> np.ndarray:
    """The cells ``data[starts[i]:ends[i]]`` of the uint8 array ``data`` as
    an ``S{width}`` array.  No cell is wider than ``width`` bytes, and
    ``data`` holds ``width`` bytes from each start."""
    cells = _windows(data, width)[starts]
    lengths = ends - starts
    if (lengths != width).any():
        # A cell of n bytes keeps the bytes of the window at width - n.
        keep = _windows(np.repeat(np.uint8([0xFF, 0]), width), width)[width - lengths]
        chars = cells.view(np.uint8)
        chars &= keep.view(np.uint8)
    return cells.view(f"S{width}")


def write_text_atomic(path: str, text: str | bytes) -> None:
    """Write ``text`` (a str, or bytes already encoded) to ``path`` as UTF-8,
    atomically, with mode 0o666 less the process umask: the temporary file
    is created with that mode, which the kernel reduces by the umask."""
    data = text.encode("utf-8") if isinstance(text, str) else text
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    while True:
        tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
        break
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv_atomic(path: str, header: list[str], rows: Iterable[Iterable]) -> None:
    lines = [",".join(map(quote, header))]
    for row in rows:
        lines.append(",".join(fmt(cell) for cell in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_rows_atomic(path: str, row_type: type, rows: Iterable) -> None:
    """A CSV of dataclass rows: the header is ``row_type``'s field names and
    each line holds one row's fields in that order."""
    names = [f.name for f in dataclasses.fields(row_type)]
    write_csv_atomic(path, names, ([getattr(row, n) for n in names] for row in rows))


def write_manifest(path: str, command: str, config: dict, outputs: list[str], **counters) -> None:
    """A command's JSON manifest: the command, its resolved config, the
    package version, the names of the files it wrote and any counters,
    with sorted keys."""
    manifest = {"command": command, "config": config, "version": __version__,
                "outputs": outputs, **counters}
    write_text_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")

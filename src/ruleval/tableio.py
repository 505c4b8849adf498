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
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import tempfile
from typing import Iterable

import numpy as np

from . import __version__

__all__ = [
    "FLOAT_SLOTS",
    "digits8",
    "fmt",
    "format_floats",
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
    if isinstance(value, bool):
        return "true" if value else "false"
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


def write_text_atomic(path: str, text: str | bytes) -> None:
    """Write ``text`` (a str, or bytes already encoded) to ``path`` as UTF-8,
    atomically, with mode 0o666 less the process umask."""
    data = text.encode("utf-8") if isinstance(text, str) else text
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        # mkstemp makes the file 0o600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
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

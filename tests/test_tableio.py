"""Output formatting and files: the bulk float formatter against
``format(v, ".17g")``, the bulk cell parsers against ``float`` and ``int``,
and the mode of the files written."""

import decimal
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruleval import tableio
from ruleval.tableio import (
    FLOAT_SLOTS,
    digits8,
    format_floats,
    parse_floats,
    parse_ints,
    write_text_atomic,
)


def formatted(values) -> list[str]:
    values = np.asarray(values, dtype=np.float64)
    chars = np.zeros(values.shape + (FLOAT_SLOTS,), np.uint8)
    keep = np.zeros(chars.shape, bool)
    format_floats(values, chars, keep)
    return [bytes(c[k]).decode("ascii") for c, k in zip(chars, keep)]


def neighbours(x: float) -> list[float]:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# Where ".17g" writes fixed notation, which the kernel computes.
FIXED = (st.floats(1e-4, 1e16, exclude_max=True)
         | st.floats(-1e16, -1e-4, exclude_min=True))
NEGATIVE_NAN = -math.nan


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(width=64) | FIXED, min_size=1, max_size=40))
# Ties to even at the last of 17 digits.
@example([1000000000000000.25, 1000000000000000.75])
@example(neighbours(1e-4))
@example([y for e in range(-4, 17) for y in neighbours(float(f"1e{e}"))])
@example([-0.0, 5e-324, 1e22, math.nan, NEGATIVE_NAN, math.inf, -math.inf])
def test_format_floats_matches_format(values):
    assert formatted(values) == [format(v, ".17g") for v in values]


def test_format_floats_rounds_ties_to_even_and_keeps_special_values():
    assert math.copysign(1.0, NEGATIVE_NAN) == -1.0
    assert formatted([1000000000000000.25, 1000000000000000.75, -0.0, NEGATIVE_NAN,
                      0.00012, -1e15, 123.0]) == [
        "1000000000000000.2", "1000000000000000.8", "-0", "nan",
        "0.00012", "-1000000000000000", "123"]


def test_digits8_reads_as_eight_zero_padded_digits():
    q = np.array([0, 7, 10_000, 12_345_678, 99_999_999])
    assert [bytes(w) for w in digits8(q).astype("<u8").view("S8")] == [
        f"{x:08d}".encode() for x in q.tolist()]


def cell_bounds(cells: list[str]):
    """The cells as one byte array, with each cell's start and end."""
    lengths = np.array([len(c.encode()) for c in cells], dtype=np.intp)
    ends = np.cumsum(lengths + 1) - 1
    return np.frombuffer(",".join(cells).encode(), np.uint8), ends - lengths, ends


def float_bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def exact(x: float) -> str:
    """The exact decimal expansion of a double, in fixed notation."""
    return format(decimal.Decimal(x), "f")


def midpoint(x: float) -> str:
    """The exact decimal halfway between x and the next double up."""
    with decimal.localcontext() as context:
        context.prec = 2000
        half = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2
    return format(half, "f")


@st.composite
def decimal_cells(draw):
    """-?digits[.digits] of 1 to 25 digits, leading zeros included, with the
    point anywhere (at either end only for cells that ``float`` still
    reads, such as ``.5``)."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    point = draw(st.integers(0, len(digits)))
    if draw(st.booleans()):
        digits = digits[:point] + "." + digits[point:]
    return draw(st.sampled_from(("", "-"))) + digits


# Cells that only float reads, each through the per-cell path.
FALLBACK = ["+1.5", " 2.5 ", "1_000", "1E5", "-1.5e-7", ".5", "5.", "-.5", "nan",
            "-Infinity", "1e-400", "1e400", "\u0663", "\xa07", "2\x1c",
            "0." + "1" * 25, "1" * 19, "-0." + "0" * 22 + "1"]
FIXED_NEIGHBOURS = [y for e in range(-5, 23) for y in neighbours(float(f"1e{e}"))]
POWER_NEIGHBOURS = [y for e in range(-30, 70, 3) for y in neighbours(2.0**e)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(width=64) | FIXED | st.floats(2.0**50, 2.0**60), min_size=1,
                max_size=30),
       st.lists(decimal_cells(), max_size=30),
       st.lists(st.floats(1e-30, 1e30) | st.floats(2.0**50, 2.0**60), max_size=10))
@example([1e-4, -1e-4, 0.1, 1.5, 123.0], [], [2.0**53, 2.0**54 + 4, 4503599627370496.0])
@example(FIXED_NEIGHBOURS + POWER_NEIGHBOURS, [], FIXED_NEIGHBOURS[1::3] + POWER_NEIGHBOURS[1::3])
@example([-0.0, 5e-324, 1e22, math.nan, math.inf], ["0." + "9" * 22, "0." + "9" * 23,
                                                  "-1." + "5" * 22, "0." + "0" * 21 + "5"], [])
def test_parse_floats_matches_float(values, decimals, halfway):
    cells = formatted(values) + [format(v, ".17g") for v in values] + decimals
    cells += [midpoint(x) for x in halfway] + [exact(x) for x in halfway] + FALLBACK
    parsed = parse_floats(*cell_bounds(cells))
    assert float_bits(parsed) == float_bits([float(c.strip()) for c in cells])
    # The export's cells read back as the values written, bit for bit.
    finite = [v for v in values if math.isfinite(v)]
    assert float_bits(parse_floats(*cell_bounds(formatted(finite)))) == float_bits(finite)


@pytest.mark.parametrize("cell", ["", " ", ".", "-.", "-", "x", "1,5", "0x1", "--1", "1.5.1",
                                  "1..5", "\ufeff1"])
def test_parse_floats_returns_none_for_a_cell_float_rejects(cell):
    assert parse_floats(*cell_bounds(["1.5", cell, "2"])) is None


def test_parse_floats_calls_float_only_outside_plain_decimals(monkeypatch):
    # Every fixed-notation cell of the export is converted in NumPy; a cell
    # without a digit on each side of its point, or in exponent notation,
    # goes to float.
    calls, cell_text = [], tableio._cell_text
    monkeypatch.setattr(tableio, "_cell_text", lambda *args: calls.append(1) or cell_text(*args))
    rng = np.random.default_rng(0)
    values = rng.standard_normal(3000) * 10.0 ** rng.integers(-4, 16, 3000)
    cells = [c for c in formatted(values) if "e" not in c]
    assert len(cells) > 2800
    assert float_bits(parse_floats(*cell_bounds(cells))) == float_bits([float(c) for c in cells])
    assert calls == []
    parse_floats(*cell_bounds(["1", ".5", "5.", "-.5", "1e5", "+1", "0." + "0" * 30 + "1"]))
    assert len(calls) == 6


def test_parse_ints_matches_int_and_refuses_what_int_or_int64_refuses():
    cells = ["1", "9", "0", "-7", "007", "12", "123456789012345678", "9223372036854775807",
             "-9223372036854775808", " 2", "+4", "1_0", "\u0661", "0" * 30 + "5"]
    assert parse_ints(*cell_bounds(cells)).tolist() == [int(c.strip()) for c in cells]
    for bad in ("1.5", "1.", "", "x", "9223372036854775808", "1e3"):
        assert parse_ints(*cell_bounds(["1", bad])) is None


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_get_the_mode_the_umask_gives(tmp_path, monkeypatch, umask, mode):
    # The file gets 0o666 less the umask, and the writer never calls
    # os.umask: reading the umask by setting it gives a file that another
    # thread creates meanwhile umask 0.
    def refuse(mask):
        raise AssertionError("os.umask called")

    path = tmp_path / "out.csv"
    old = os.umask(umask)
    try:
        write_text_atomic(str(path), "a\n")
        assert stat.S_IMODE(os.stat(path).st_mode) == mode
        with monkeypatch.context() as patch:
            patch.setattr(os, "umask", refuse)
            write_text_atomic(str(path), b"b\n")
    finally:
        os.umask(old)
    assert path.read_bytes() == b"b\n"
    assert stat.S_IMODE(os.stat(path).st_mode) == mode
    assert os.listdir(tmp_path) == ["out.csv"]

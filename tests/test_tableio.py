"""Output formatting and files: the bulk float formatter against
``format(v, ".17g")``, and the mode of the files written."""

import math
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruleval.tableio import FLOAT_SLOTS, digits8, format_floats, write_text_atomic


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


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_get_the_mode_the_umask_gives(tmp_path, umask, mode):
    # mkstemp makes the temp file 0o600, which the rename kept.
    path = tmp_path / "out.csv"
    old = os.umask(umask)
    try:
        write_text_atomic(str(path), "a\n")
        write_text_atomic(str(path), b"b\n")
    finally:
        os.umask(old)
    assert path.read_bytes() == b"b\n"
    assert stat.S_IMODE(os.stat(path).st_mode) == mode

"""Historical-experiment corpora: CSV ingestion, export, and rule evaluation.

The corpus CSV schema is one row per unit:

    experiment_id,arm,unit_id,<metric 1>,...,<metric J>

Arm values are positive integers with 1 as the reference arm; every
experiment must have contiguous arm indices starting at 1.  Row order is
irrelevant: units are canonicalized by sorting on unit_id within each arm,
and experiments by id, so estimator output does not depend on file layout.
An optional weight file (``experiment_id,weight``) is joined by id.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .closed_form import ProxySpec, joint_proxy_model
from .estimators import (
    AGGREGATE_MODES,
    aggregate,
    batch_rewards,
    bootstrap_aggregates,
    percentile_interval,
)
from .experiments import (ArmStack, CorpusFormatError, DecisionRule, ExperimentData,
                          RewardSpec, check_count, check_stack)
from .streams import substreams
from . import tableio
from .tableio import quote, write_rows_atomic

__all__ = [
    "CorpusFormatError",
    "EvaluationReport",
    "ExperimentCorpus",
    "RuleEstimateRow",
    "evaluate_rules",
    "ingest_csv",
    "make_synthetic_corpus",
    "write_corpus_csv",
]

_FIXED_COLUMNS = ("experiment_id", "arm", "unit_id")


class ExperimentCorpus:
    """A set of experiments sharing one metric schema, stored as one
    ``ArmStack`` (``stack``): every arm's units in one (units, metrics)
    array, with arm sizes, arm starts, each experiment's first arm, ids and
    weights.

    ``experiments`` is a sequence of ``ExperimentData``, stacked once in
    the order given (``ArmStack.of``), or an ``ArmStack`` to store as it
    is: ``ingest_csv`` and ``make_synthetic_corpus`` build theirs directly,
    in id order.  The records check nothing themselves.  The stack must
    hold one experiment or more and one unit column per metric, and pass
    ``check_stack``: arms of one unit or more cover its unit rows, and
    experiments of one arm or more its arms, with one id and one weight
    each; ids are non-empty strings without a NUL or surrounding
    whitespace, units are finite, and weights finite and nonnegative.  Ids must also be unique, and metric names
    distinct non-empty strings without surrounding whitespace, so that
    ``write_corpus_csv`` writes a file that ``ingest_csv`` reads back.
    ``experiments`` is built from the stack on each access, with arms that
    are views of its units.
    """

    def __init__(
        self,
        experiments: ArmStack | Sequence[ExperimentData],
        metric_names: Sequence[str],
    ) -> None:
        metric_names = tuple(metric_names)
        j = len(metric_names)
        if j < 1:
            raise CorpusFormatError("corpus needs at least one metric")
        # So that ingest_csv reads back what the export writes: no name is
        # empty or padded (ingest strips header cells), and none repeats.
        for column, name in enumerate(metric_names, start=4):
            if not isinstance(name, str):
                raise CorpusFormatError(f"column {column} has a metric name that is "
                                        f"not a string: {name!r}")
            if not name:
                raise CorpusFormatError(f"column {column} has an empty metric name")
            if name != name.strip():
                raise CorpusFormatError(f"column {column} has a metric name with "
                                        f"surrounding whitespace: {name!r}")
        if len(set(metric_names)) != j:
            raise CorpusFormatError(f"duplicate metric names {metric_names!r}")
        stack = ArmStack.of(experiments)
        if not stack.ids:
            # write_corpus_csv would write a header-only file, which
            # ingest_csv rejects.
            raise CorpusFormatError("corpus needs at least one experiment")
        if stack is experiments:
            if stack.units.shape[1:] != (j,):
                raise CorpusFormatError(f"stack units have shape {stack.units.shape}, "
                                        f"corpus schema has {j} metrics")
        elif len(stack.sizes) and stack.units.shape[1] != j:
            # The records' arms share a metric count (ArmStack.of); records
            # with no arm at all are left to check_stack.  Name the record
            # of the first arm.
            i = int(np.searchsorted(stack.first_arm, 0, "right")) - 1
            raise CorpusFormatError(f"experiment {stack.ids[i]!r} has {stack.units.shape[1]} "
                                    f"metrics, corpus schema has {j}")
        check_stack(stack, metric_names)
        seen: set[str] = set()
        for exp_id in stack.ids:
            if exp_id in seen:
                raise CorpusFormatError(f"experiment id {exp_id!r} appears more than once")
            seen.add(exp_id)
        self.stack, self.metric_names = stack, metric_names

    @property
    def experiments(self) -> tuple[ExperimentData, ...]:
        return self.stack.experiments()


def ingest_csv(path: str, weights_path: str | None = None) -> ExperimentCorpus:
    """Load a corpus from CSV, validating the schema strictly.

    Errors name the offending file line and column.  Duplicate
    (experiment_id, arm, unit_id) triples, missing, non-numeric or
    non-finite cells, NUL characters in id cells, ragged rows, and
    non-contiguous arm indices are all rejected.  One converter,
    ``_byte_columns``, turns every cell into a value: ``tableio.parse_ints``
    and ``parse_floats`` convert the arm and metric cells in NumPy, each
    value equal to ``int`` or ``float`` of the stripped cell.  It reads the
    file's bytes in blocks of rows (``_bulk_columns``): one scan of its
    commas and newlines bounds every cell, and a cell quoted as a whole
    reads as its inside.  The cells are checked in bulk, and the rows are
    sorted only when they are not already in (experiment_id, arm, unit_id)
    order.  When the byte parse refuses the file or a check fails, the
    rows are walked one by one with ``csv.reader`` (``_walk_rows``), which
    names the first fault.  A file without one, whose layout only
    ``csv.reader`` splits (a quoted cell holding a comma, a quote or a line
    break, or a header cell holding a line break), has its cells handed to
    the same converter.  A whitespace-only line is a row of one field,
    which the walk rejects as ragged.  A leading UTF-8 byte-order mark, in
    the corpus or the weight file, is skipped; a byte that is not UTF-8, or
    a cell longer than ``csv.field_size_limit()`` in a file that
    ``csv.reader`` reads, is an error naming its line.  The sorted rows are
    the corpus's ``ArmStack``; no per-arm object is built.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        raw_header = next(_csv_rows(path, fh), None)
    if raw_header is None:
        raise CorpusFormatError(f"{path}: file is empty, header required")
    header = [h.strip() for h in raw_header]
    if tuple(header[:3]) != _FIXED_COLUMNS:
        raise CorpusFormatError(
            f"{path}: header must start with {','.join(_FIXED_COLUMNS)}, "
            f"got {','.join(header[:3])}"
        )
    metric_names = tuple(header[3:])
    if not metric_names:
        raise CorpusFormatError(f"{path}: no metric columns in header")
    if "" in metric_names:
        raise CorpusFormatError(
            f"{path}: header column {metric_names.index('') + 4} has an "
            f"empty metric name"
        )
    if len(set(metric_names)) != len(metric_names):
        raise CorpusFormatError(f"{path}: duplicate metric names in header")
    # The byte parse takes the header to be the file's first line.
    one_line = not any("\r" in h or "\n" in h for h in raw_header)
    ids, arms, units, values = (one_line and _bulk_columns(path, len(metric_names))
                                or _walk_rows(path, header))

    new_exp = ids[1:] != ids[:-1]
    starts = np.flatnonzero(np.r_[True, new_exp | (arms[1:] != arms[:-1]), True])
    first_arm = np.flatnonzero(np.r_[True, new_exp[starts[1:-1] - 1], True])
    num_arms, arm_index = np.diff(first_arm), arms[starts[:-1]]
    exp_ids = ids[starts[first_arm[:-1]]]
    bad = arm_index != np.arange(len(arm_index)) + 1 - np.repeat(first_arm[:-1], num_arms)
    if bad.any():
        i = np.searchsorted(first_arm, bad.argmax(), side="right") - 1
        raise CorpusFormatError(
            f"{path}: experiment {exp_ids[i].item()!r} has arm indices "
            f"{arm_index[first_arm[i] : first_arm[i + 1]].tolist()}; "
            f"they must be contiguous starting at 1 (1 = reference)"
        )
    weights = _read_weights(weights_path, exp_ids) if weights_path else np.ones(len(exp_ids))
    stack = ArmStack.from_sizes(values, np.diff(starts), num_arms, exp_ids.tolist(), weights)
    return ExperimentCorpus(stack, metric_names)


def _csv_rows(path: str, fh):
    """The ``csv.reader`` rows of ``fh``, the open text file ``path``.
    Errors raise a CorpusFormatError naming a line counted in records, as
    other ingest errors are.  A ``csv.Error`` (a cell longer than
    ``csv.field_size_limit()``, 131,072 characters by default) names the
    record ``csv.reader`` was reading.  A byte that is not UTF-8 names the
    count of records ``csv.reader`` finds in the valid bytes before it with
    one character in its place."""
    line = 0
    try:
        for line, row in enumerate(csv.reader(fh), start=1):
            yield row
    except csv.Error as err:
        raise CorpusFormatError(f"{path}: line {line + 1}: {err}") from None
    except UnicodeDecodeError:
        with open(path, "rb") as raw:
            data = raw.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as err:
            before = io.StringIO(data[: err.start].decode("utf-8-sig") + "x", newline="")
            line = sum(1 for _ in csv.reader(before))
            raise CorpusFormatError(
                f"{path}: line {line} is not valid UTF-8 (byte {err.start} of the "
                f"file, {data[err.start]:#04x}: {err.reason})"
            ) from None
        raise


def _sorted_columns(ids, arms, units, values):
    """The rows' (ids, arms, units, values) in (experiment_id, arm,
    unit_id) order, or None when a unit repeats.  One vectorized pass
    checks the order; ``np.lexsort`` runs only when the rows are out of
    it."""
    same_id = ids[1:] == ids[:-1]
    same_arm = same_id & (arms[1:] == arms[:-1])
    ordered = (ids[1:] > ids[:-1]) | same_id & (
        (arms[1:] > arms[:-1]) | same_arm & (units[1:] >= units[:-1]))
    if not ordered.all():
        order = np.lexsort((units, arms, ids))
        ids, arms, units, values = ids[order], arms[order], units[order], values[order]
        same_arm = (ids[1:] == ids[:-1]) & (arms[1:] == arms[:-1])
    if (same_arm & (units[1:] == units[:-1])).any():
        return None
    return ids, arms, units, values


# The byte parse reads rows in blocks whose temporaries take about this
# many bytes, at about _CELL_TEMP_BYTES per number cell and 8 per byte of a
# text cell's width, however long the file is.  Blocks of a few thousand
# cells stay in cache and keep the parse's tracemalloc peak on a benchmark
# shard (1.5 MB of text) at 4.2 MB.
_INGEST_BLOCK_BYTES = 3 << 18
_CELL_TEMP_BYTES = 128
_SCAN_CHUNK_BYTES = 1 << 18


def _bulk_columns(path: str, num_metrics: int):
    """The data rows after the one-line header, bounded by one scan of the
    file's bytes (``_cell_bounds``), converted by ``_byte_columns`` with
    the quotes counted after the header, and checked: ``_sorted_columns``
    of them, or None when a row is refused (a ragged or whitespace-only
    one, a quoted cell holding a comma, a quote or a line break, a cell
    that ``int`` or ``float`` rejects) or a check fails, and the walk
    names the fault or splits the rows.  The cells are the ones
    ``csv.reader`` splits.  A NumPy string array drops a trailing NUL
    character, which would merge two ids, so a file holding a NUL is left
    to the walk.

    Outside quotes ``csv.reader`` ends a record at ``\r\n``, ``\r`` or
    ``\n``, so each ``\r\n`` and then each ``\r`` becomes ``\n`` (a
    ``\r`` inside a quoted cell then splits it, and the walk reads it).  It
    skips a blank record, so when the scan finds a line without 2 + J
    commas and the data holds an empty line, each run of newlines becomes
    one and the data is scanned again.
    """
    with open(path, "rb") as raw:
        data = raw.read()
    if b"\0" in data:
        return None
    if b"\r" in data:  # two steps, so that at most two copies are held
        data = data.replace(b"\r\n", b"\n")
        data = data.replace(b"\r", b"\n")
    bounds = _cell_bounds(data, num_metrics)
    if bounds is None and b"\n\n" in data:
        data = re.sub(b"\n\n+", b"\n", data)
        bounds = _cell_bounds(data, num_metrics)
    # ``in`` finds that a file holds no quote far faster than ``count``
    # counts its quotes: 0.03 against 0.8 ms on a benchmark shard.
    columns = None if bounds is None else _byte_columns(
        data, bounds, num_metrics, b'"' in data and data.count(b'"', int(bounds[0, 0])))
    return columns and _sorted_columns(*columns)


def _byte_columns(data: bytes, bounds: np.ndarray, num_metrics: int, quotes: int):
    """The (ids, arms, units, values) of the data rows, read from ``data``
    at the cell ``bounds`` (in the shape ``_cell_bounds`` gives), or None
    when a cell does not parse or is empty, an arm is below 1 or a value
    is not finite.  It is the one converter of corpus cells: the byte
    parse passes a file's bytes, and the walk its checked cells joined
    with NUL.

    Rows are read in blocks whose temporaries stay near
    ``_INGEST_BLOCK_BYTES``.  ``quotes`` is the number of ``"`` bytes in
    the data rows.  When it is not 0, a cell of at least 2 bytes that
    starts and ends with ``"`` reads as its inside (RFC 4180 quoting).
    Each such cell holds two of the quotes, so when the data holds any
    other, the file goes to the walk: then a quoted cell held a comma or a
    line break (and the scan split it), an escaped quote ``""``, or text
    after its closing quote, or a cell had a quote inside.  The walk
    passes 0, so that a cell ``csv.reader`` unquoted to ``"x"`` or
    ``q"y`` is read as it is.  The id and unit cells are
    gathered into fixed-width bytes, as wide as the widest cell of each
    column, then decoded (each byte is its own character when all are
    ASCII, else as UTF-8; a character takes at least one byte, so no cell
    is cut) and stripped.  ``tableio.parse_ints`` reads the arm cells and
    ``parse_floats`` the metric cells.  Each converts plain decimal cells
    (``-?digits[.digits]``, at most 18 significant digits) in NumPy, exactly
    as ``int`` and ``float`` do, and hands every other cell (exponent
    notation, padding, ``+``, ``1_000``, non-ASCII bytes, longer digit
    strings) to ``int`` or ``float`` of the decoded, stripped cell, the
    conversion the walk's ``_row_fault`` tries; a cell they reject sends
    the file to the walk, which names it.
    """
    buf = np.frombuffer(data, np.uint8)
    n, j = len(bounds), num_metrics
    widths = [max(int((bounds[:, c + 1] - bounds[:, c]).max()) - 1, 1) for c in (0, 2)]
    # Room for the last row's cells, from a start one past a quote.
    if bounds[-1, 2] + 2 + max(widths) > len(buf):
        buf = np.concatenate((buf, np.zeros(1 + max(widths), np.uint8)))
    ids, units = (np.empty(n, f"U{w}") for w in widths)
    arms, values = np.empty(n, np.int64), np.empty((n, j))
    rows = max(1, _INGEST_BLOCK_BYTES // (_CELL_TEMP_BYTES * (1 + j) + 8 * sum(widths)))
    for lo in range(0, n, rows):
        # Cell c of each row spans s[:, c] to e[:, c].
        s, e = bounds[lo : lo + rows, :-1] + 1, bounds[lo : lo + rows, 1:]
        if quotes:
            inside = ((e - s >= 2) & (buf.take(s, mode="clip") == ord('"'))
                      & (buf[e - 1] == ord('"')))
            s, e = s + inside, e - inside
            quotes -= 2 * int(inside.sum())
        arm = tableio.parse_ints(buf, s[:, 1], e[:, 1])
        cells = tableio.parse_floats(buf, s[:, 3:].ravel(), e[:, 3:].ravel())
        if arm is None or cells is None:
            return None
        arms[lo : lo + rows], values[lo : lo + rows] = arm, cells.reshape(-1, j)
        for column, c in ((ids, 0), (units, 2)):
            text = tableio.byte_cells(buf, s[:, c], e[:, c], column.itemsize // 4)
            try:
                column[lo : lo + rows] = _stripped_text(text)
            except UnicodeDecodeError:  # the walk names the line
                return None
    if quotes or not ((ids != "").all() and (units != "").all() and arms.min() >= 1
                      and np.isfinite(values).all()):
        return None
    return ids, arms, units, values


def _stripped_text(cells: np.ndarray) -> np.ndarray:
    """A bytes array decoded as UTF-8 and stripped as ``str.strip`` strips.
    When every byte is ASCII, each one is its own code point, widened into
    the ``str`` array's 4 bytes, and only a cell with a byte from 0x01 to
    0x20 (where ASCII whitespace lies) can need stripping."""
    chars = cells.view(np.uint8)
    if chars.max(initial=0) >= 0x80:
        return np.char.strip(np.char.decode(cells, "utf-8"))
    text = chars.astype(np.uint32).view(f"U{cells.itemsize}")
    return np.char.strip(text) if ((chars - np.uint8(1)) < 0x20).any() else text


def _cell_bounds(data: bytes, num_metrics: int) -> np.ndarray | None:
    """The cell bounds of the lines of ``data`` after the first, from one
    scan for its commas and newlines: row i holds the position of the
    newline before line i, of its 2 + ``num_metrics`` commas and of its end
    (its newline, or the end of ``data``), so cell c of line i is
    ``data[bounds[i, c] + 1 : bounds[i, c + 1]]``.  Rows share their
    first and last entries, as one array's overlapping windows.  None when
    there is no line after the first or a line has another comma count,
    as a blank line has.  Quotes are not read: a comma or newline inside
    a quoted cell ends a cell here, and ``_byte_columns`` then finds a
    quote that no cell quoted as a whole accounts for."""
    header_end = data.find(b"\n")
    if header_end < 0:
        return None
    buf = np.frombuffer(data, np.uint8)
    # Commas and newlines are among the bytes <= 44 ("," is 44), found a
    # chunk at a time so that the mask stays small; int32 offsets halve the
    # array when the file is under 2 GiB.
    offset = np.int32 if len(data) < 1 << 31 else np.int64
    delims, kinds = [], []
    for lo in range(header_end, len(buf), _SCAN_CHUNK_BYTES):
        chunk = buf[lo : lo + _SCAN_CHUNK_BYTES]
        found = np.flatnonzero(chunk <= ord(","))
        delims.append((found + lo).astype(offset))
        kinds.append(chunk[found])
    delims, kinds = np.concatenate(delims), np.concatenate(kinds)
    keep = (kinds == ord(",")) | (kinds == ord("\n"))
    if not keep.all():
        delims, kinds = delims[keep], kinds[keep]
    newline = kinds == ord("\n")
    k = 3 + num_metrics  # the delimiters that end a line's cells
    unended = data[-1:] != b"\n"
    n = (len(delims) - 1 + unended) // k
    if not n or len(delims) + unended != 1 + n * k:
        return None
    # Each line's last delimiter is a newline (or the end), and no other.
    if not newline[::k].all() or int(newline.sum()) != 1 + n - unended:
        return None
    if unended:
        delims = np.concatenate((delims, np.array([len(data)], offset)))
    return np.lib.stride_tricks.sliding_window_view(delims, k + 1)[::k]


def _walk_rows(path: str, header: list[str]):
    """Walk the data rows one by one with ``csv.reader`` and name faults:
    raise the first faulty row's error, in file order.  A fault-free file's
    cells, each row's joined with NUL (which no accepted cell holds) and
    the rows too, go to ``_byte_columns`` with bounds at the NULs, in the
    shape ``_cell_bounds`` gives, and no quote to read, so every cell is
    read as ``csv.reader`` left it.  The rows are returned as
    ``_sorted_columns`` returns them."""
    seen: set[tuple[str, int, str]] = set()
    lines = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = _csv_rows(path, fh)
        next(reader)
        for line_no, row in enumerate(reader, start=2):
            fault = row and _row_fault(row, header, seen)
            if fault:
                raise CorpusFormatError(f"{path}: line {line_no}{fault}")
            if row:
                lines.append("\0".join(row))
    if not lines:
        raise CorpusFormatError(f"{path}: no data rows")
    # Freed before the next copy is made: with them held, the tracemalloc
    # peak on the 700-experiment default corpus with ids quoted around a
    # comma is 85 MB, not 48.
    del seen
    data = "\0".join(lines).encode()
    del lines
    delims = np.r_[-1, np.flatnonzero(np.frombuffer(data, np.uint8) == 0), len(data)]
    bounds = np.lib.stride_tricks.sliding_window_view(delims, len(header) + 1)[::len(header)]
    return _sorted_columns(*_byte_columns(data, bounds, len(header) - 3, 0))


def _row_fault(row: list[str], header: list[str], seen: set) -> str | None:
    """What is wrong with one data row (the message after its line number)."""
    if len(row) != len(header):
        return f" has {len(row)} fields, header has {len(header)}"
    exp_id, unit_id = row[0].strip(), row[2].strip()
    if not exp_id:
        return ": missing value in column 'experiment_id'"
    if "\0" in exp_id:
        return f": column 'experiment_id' holds a NUL character: {exp_id!r}"
    try:
        arm = int(row[1].strip())
    except ValueError:
        return f": column 'arm' must be a positive integer, got {row[1]!r}"
    if arm < 1:
        return f": column 'arm' must be >= 1, got {arm}"
    if arm >= 1 << 63:
        return f": column 'arm' is out of range, got {arm}"
    if not unit_id:
        return ": missing value in column 'unit_id'"
    if "\0" in unit_id:
        return f": column 'unit_id' holds a NUL character: {unit_id!r}"
    if (exp_id, arm, unit_id) in seen:
        return (f": duplicate unit (experiment_id={exp_id!r}, arm={arm}, "
                f"unit_id={unit_id!r})")
    seen.add((exp_id, arm, unit_id))
    for col, cell in zip(header[3:], map(str.strip, row[3:])):
        if not cell:
            return f": missing value in column {col!r}"
        try:
            if not math.isfinite(float(cell)):
                return f": column {col!r} is not finite: {cell!r}"
        except ValueError:
            return f": column {col!r} is not numeric: {cell!r}"
    return None


def _read_weights(path: str, ids: np.ndarray) -> np.ndarray:
    """The weight of each of the sorted ``ids``, 1.0 where the weight file
    has none: the file's ids are joined with one ``np.searchsorted``."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = _csv_rows(path, fh)
        header = [h.strip() for h in next(reader, [])]
        if header != ["experiment_id", "weight"]:
            raise CorpusFormatError(
                f"{path}: weight file header must be experiment_id,weight"
            )
        rows = [(line_no, row) for line_no, row in enumerate(reader, start=2) if row]
    slots = np.searchsorted(ids, np.array([row[0].strip() for _, row in rows], dtype=str))
    weights = np.full(len(ids), np.nan)  # NaN: not given yet
    for (line_no, row), i in zip(rows, slots.tolist()):
        exp_id, fault = row[0].strip(), None
        if len(row) != 2:
            fault = f" has {len(row)} fields, expected 2"
        elif i == len(ids) or ids[i] != exp_id:
            fault = f": unknown experiment_id {exp_id!r}"
        elif not np.isnan(weights[i]):
            fault = f": duplicate experiment_id {exp_id!r}"
        else:
            try:
                weights[i] = w = float(row[1].strip())
            except ValueError:
                fault = f": column 'weight' is not numeric: {row[1]!r}"
            else:
                if not math.isfinite(w):
                    fault = f": column 'weight' is not finite: {row[1]!r}"
                elif w < 0:
                    fault = ": column 'weight' must be nonnegative"
        if fault:
            raise CorpusFormatError(f"{path}: line {line_no}{fault}")
    return np.where(np.isnan(weights), 1.0, weights)


# Slots of the corpus export's block buffer: the rows formatted at once are
# as many as fit, so its memory is bounded however wide the rows are.
_EXPORT_BLOCK_SLOTS = 1 << 18


def write_corpus_csv(corpus: ExperimentCorpus, path: str) -> None:
    """Export a corpus in the ingestion schema (canonical unit ids).

    Rows are built in blocks, each as one uint8 array of slots with a mask
    of the slots it keeps; the kept slots, in order, are the block's text.
    A row's slots hold its arm's prefix (quoted experiment id, arm and
    ``u``), the unit position in at least 6 digits, a comma and the
    ``tableio.format_floats`` cell of each metric, and the newline.  Every
    float reads as ``format(v, ".17g")``: NumPy computes it for
    1e-4 <= |v| < 1e16 and ``format`` gives the others (0, -0, smaller
    and larger magnitudes, non-finite values).
    """
    stack = corpus.stack
    j = len(corpus.metric_names)
    starts = stack.starts
    prefixes = [f"{quote(exp_id)},{k},u".encode() for exp_id, k in stack.arm_keys()]
    prefix_len = np.array([len(p) for p in prefixes], dtype=np.intp)
    pw = int(prefix_len.max(initial=1))
    # Unit positions in 8-digit words, of which at least 6 digits are kept.
    groups = (len(str(int(stack.sizes.max(initial=1)) - 1)) + 7) // 8
    cells_at = pw + 8 * groups
    row_slots = cells_at + j * (1 + tableio.FLOAT_SLOTS) + 1
    rows = max(1, _EXPORT_BLOCK_SLOTS // row_slots)
    chars = np.empty((rows, row_slots), np.uint8)
    keep = np.ones((rows, row_slots), bool)
    prefix_chars, prefix_keep = (a[:, :pw].view(f"V{pw}")[:, 0] for a in (chars, keep))
    unit_words = chars[:, pw:cells_at].view("<u8")
    cell_chars = chars[:, cells_at:-1].reshape(rows, j, 1 + tableio.FLOAT_SLOTS)
    cell_keep = keep[:, cells_at:-1].reshape(rows, j, 1 + tableio.FLOAT_SLOTS)
    cell_chars[..., 0] = ord(",")
    chars[:, -1] = ord("\n")
    out = [(",".join(map(quote, (*_FIXED_COLUMNS, *corpus.metric_names))) + "\n").encode()]
    for lo in range(0, len(stack.units), rows):
        hi = min(lo + rows, len(stack.units))
        n = hi - lo
        # The arms a0 to a1 - 1 hold rows lo to hi - 1.
        a0 = int(np.searchsorted(starts, lo, "right")) - 1
        a1 = int(np.searchsorted(starts, hi, "left"))
        counts = np.diff(np.clip(starts[a0 : a1 + 1], lo, hi))
        table = b"".join(p.ljust(pw, b"\0") for p in prefixes[a0:a1])
        prefix_chars[:n] = np.repeat(np.frombuffer(table, f"V{pw}"), counts)
        widths = np.arange(pw) < prefix_len[a0:a1, None]
        prefix_keep[:n] = np.repeat(widths.view(f"V{pw}")[:, 0], counts)
        position = np.arange(lo, hi) - np.repeat(starts[a0:a1], counts)
        for g in range(groups):
            unit_words[:n, -1 - g] = tableio.digits8(position // 10 ** (8 * g) % 10**8)
        for r in range(6, 8 * groups):  # the slot of the digit of 10**r
            keep[:n, cells_at - 1 - r] = position >= 10**r
        tableio.format_floats(stack.units[lo:hi], cell_chars[:n, :, 1:], cell_keep[:n, :, 1:])
        out.append(chars[:n][keep[:n]])
    # Through the module, so a wrapper of it (the benchmark tracer) sees it.
    tableio.write_text_atomic(path, b"".join(out))


def make_synthetic_corpus(
    num_experiments: int,
    units_per_arm: int,
    effect_sd_y: float,
    effect_sd_proxy: float,
    noise_sd_y: float,
    noise_sd_proxy: float,
    proxies: tuple[ProxySpec, ...],
    seed: int = 0,
) -> tuple[ExperimentCorpus, np.ndarray]:
    """Generate a unit-level corpus from the joint Gaussian model.

    Metrics are the north star followed by one column per proxy; each
    experiment has a control arm centered at zero and a treatment arm
    centered at the drawn true-effect vector.  Returns the corpus and the
    (num_experiments, 1 + len(proxies)) matrix of true effects.
    Experiment i draws its effect and both arms' noise, in that order, in
    one call on ``substream(seed, "corpus", i)``, and its arms' noise is
    multiplied into its slice of one (experiments, 2, units, metrics)
    array, which the corpus's stack holds; the experiments' streams are
    seeded in one ``substreams`` batch.
    """
    effect_chol, noise_chol = joint_proxy_model(
        (effect_sd_y, effect_sd_proxy, noise_sd_y, noise_sd_proxy), tuple(proxies)
    )
    n = check_count("num_experiments", num_experiments, 1)
    m = check_count("units_per_arm", units_per_arm, 1)
    j = 1 + len(proxies)
    units = np.empty((n, 2, m, j))
    effects = np.empty((n, j))
    for i, rng in enumerate(substreams(seed, [("corpus", i) for i in range(n)])):
        z = rng.standard_normal((1 + 2 * m, j))
        effects[i] = effect_chol @ z[0]
        np.matmul(z[1:].reshape(2, m, j), noise_chol.T, out=units[i])
        units[i, 1] += effects[i]
    width = len(str(max(n - 1, 1)))
    ids = [f"exp{i:0{width}d}" for i in range(n)]
    stack = ArmStack.from_sizes(units.reshape(2 * n * m, j), [m] * 2 * n, [2] * n, ids, np.ones(n))
    names = ("north_star",) + tuple(p.name for p in proxies)
    return ExperimentCorpus(stack, names), effects


@dataclass(frozen=True)
class RuleEstimateRow:
    rule: str
    estimator: str
    num_folds: int
    estimate: float
    ci_lower: float | None
    ci_upper: float | None
    normalized: float | None = None


@dataclass(frozen=True)
class EvaluationReport:
    """Per-rule estimates across estimators, with bootstrap intervals.

    ``bootstrap_redraws`` counts the zero-weight resamples redrawn over all
    rows' bootstraps (mean mode only; deterministic given the seed).
    """

    rows: tuple[RuleEstimateRow, ...]
    mode: str
    level: float
    baseline: str | None = None
    bootstrap_redraws: int = 0

    def value(self, rule: str, estimator: str, num_folds: int = 0) -> float:
        for row in self.rows:
            if (
                row.rule == rule
                and row.estimator == estimator
                and row.num_folds == num_folds
            ):
                return row.estimate
        raise KeyError(f"no row for ({rule!r}, {estimator!r}, {num_folds})")

    def write_csv(self, path: str) -> None:
        write_rows_atomic(path, RuleEstimateRow, self.rows)


def evaluate_rules(
    corpus: ExperimentCorpus,
    rules: list[tuple[str, DecisionRule]],
    reward: RewardSpec,
    fold_counts: tuple[int, ...] = (2, 5, 10, 20),
    bootstrap_replicates: int = 1000,
    level: float = 0.95,
    seed: int = 0,
    mode: str = "cumulative",
    baseline: str | None = None,
) -> EvaluationReport:
    """Estimate every rule's reward with the plug-in and k-fold estimators.

    Each rule gets one naive row plus one cross-validated row per fold
    count, each with an experiment-level percentile bootstrap interval.
    With ``baseline`` set, a normalized column scales every estimate by the
    baseline rule's naive estimate (which must be positive); normalization
    never changes rule ranking.

    Experiments are processed in experiment-id order regardless of their
    order in the corpus, so the report does not depend on input layout.
    Raises ValueError for a ``mode`` outside ``AGGREGATE_MODES``, a
    ``level`` outside (0, 1), a replicate count that is not an integer
    >= 1, or fold counts that are not distinct integers >= 2.
    """
    if mode not in AGGREGATE_MODES:
        raise ValueError(f"mode must be one of {AGGREGATE_MODES}, got {mode!r}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level!r}")
    bootstrap_replicates = check_count("bootstrap_replicates", bootstrap_replicates, 1)
    fold_counts = tuple(
        check_count(f"fold_counts[{i}]", p, 2) for i, p in enumerate(fold_counts)
    )
    if len(set(fold_counts)) != len(fold_counts):
        raise ValueError(f"fold_counts must be distinct, got {fold_counts!r}")
    names = [name for name, _ in rules]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate rule names: {names}")
    if baseline is not None and baseline not in names:
        raise ValueError(f"baseline {baseline!r} is not a configured rule")
    j = len(corpus.metric_names)
    for name, rule in rules:
        for what, g in [("blend", rule.blend)] + [("gate blend", g) for g in rule.gate_blends()]:
            if g.shape != (j,):
                raise ValueError(
                    f"rule {name!r}: {what} has length {g.shape[0]}, corpus has {j} metrics"
                )
    stack = corpus.stack
    # Only an in-memory corpus can be out of id order.
    if any(a > b for a, b in zip(stack.ids, stack.ids[1:])):
        stack = ArmStack.of(sorted(corpus.experiments, key=lambda e: e.experiment_id))
    weights = stack.weights
    can_bootstrap = len(stack.ids) >= 2

    keys = [("naive", 0)] + [("cv-kfold", p) for p in fold_counts]
    batch = batch_rewards(stack, [rule for _, rule in rules], reward, fold_counts, seed)
    contributions = {
        (name, *key): column
        for (name, _), per_key in zip(rules, batch)
        for key, column in zip(keys, per_key)
    }

    values = {key: aggregate(column, weights, mode) for key, column in contributions.items()}
    intervals = dict.fromkeys(contributions, (None, None))
    redraws = 0
    if can_bootstrap and contributions:
        rngs = substreams(seed, [("evaluate", *key) for key in contributions])
        draws = []
        for column, rng in zip(contributions.values(), rngs):
            row, count = bootstrap_aggregates(column, weights, mode, bootstrap_replicates, rng)
            draws.append(row)
            redraws += count
        intervals = dict(zip(contributions, zip(*percentile_interval(draws, level))))

    scale = None
    if baseline is not None:
        scale = values[(baseline, "naive", 0)]
        if not scale > 0:
            raise ValueError(
                f"baseline rule {baseline!r} has non-positive naive estimate "
                f"{scale}; normalization needs a positive baseline"
            )

    rows = [  # rule by rule, as ``contributions`` holds them
        RuleEstimateRow(*key, values[key], *intervals[key],
                        normalized=values[key] / scale if scale else None)
        for key in contributions
    ]
    return EvaluationReport(
        rows=tuple(rows), mode=mode, level=level, baseline=baseline,
        bootstrap_redraws=redraws,
    )

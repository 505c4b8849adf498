"""Deterministic CSV and JSON emission.

All output files are written atomically (temp file in the target directory,
then rename) and floats are formatted with 17 significant digits so values
round-trip exactly and repeated runs are byte-identical.  Text cells are
quoted as the ``csv`` module quotes them by default: only when they hold a
comma, a double quote or a line break, with inner quotes doubled.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from typing import Iterable

from . import __version__

__all__ = [
    "fmt",
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


def write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
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

"""The one module that reads and writes the files of the output tree.

Every CSV and JSON file of the tree goes through the functions here.
A CSV cell is what ``csv.writer`` makes of its value: ``repr`` for a
float (``np.float64`` included), ``str`` for anything else.  So a load of
a save reproduces the exact same doubles, rerun output trees are
byte-identical, and the report verifier can compare a re-derived file
with the written one byte for byte through ``csv_text``.

A write lands atomically: the text goes to a sibling ``<name>.tmp``,
which is then renamed over the target, so a run killed part-way leaves
either the old file or the new one, never a truncated one.  A read that
finds a missing, unreadable or malformed file, and a write that fails,
raise ``DataError`` naming the file.
A per-row table is keyed by its ``id`` column, each id once; ``keyed_cells``
is the one place that aligns such a table to the dataset rows.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DataError


def _replace(path: str | Path, write) -> None:
    """write(fh) into a sibling <name>.tmp, then rename it over path.

    If write raises, path keeps its old bytes and the temp file is removed.
    An OSError (a parent that is a file, a full disk) becomes a DataError
    naming path.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "w", newline="") as fh:
                write(fh)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path} ({type(exc).__name__}: {exc.strerror})") from None


def _write_rows(fh, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    _replace(path, lambda fh: _write_rows(fh, header, rows))


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The text ``write_csv(path, header, rows)`` writes to path."""
    buffer = io.StringIO(newline="")
    _write_rows(buffer, header, rows)
    return buffer.getvalue()


def write_chunks(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the concatenation of chunks, each chunk as it is made."""
    _replace(path, lambda fh: fh.writelines(chunks))


def write_text(path: str | Path, text: str) -> None:
    write_chunks(path, (text,))


def read_text(path: str | Path) -> str:
    """The text of path, line endings untranslated."""
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read ({type(exc).__name__})") from None


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Header and non-empty rows; every row must be as wide as the header."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file")
    rows = [row for row in reader if row]
    for r, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
    return header, rows


def keyed_cells(path: str | Path, header: Sequence[str], rows: Sequence[Sequence[str]],
                ids: Sequence[str], columns: Sequence[str]) -> tuple[list[int], list[list[str]]]:
    """The rows of a table keyed by its ``id`` column, aligned to ids.

    header and rows are ``read_csv(path)``'s.  Returns each row's
    position in ids and, for each name in columns, that column's cells
    in row order.  Names, ids and cells are compared and returned with
    surrounding whitespace stripped.  A missing column, an id not in ids
    or an id on two rows raises DataError naming path and the row(s).
    """
    names = [h.strip() for h in header]
    for col in ("id", *columns):
        if col not in names:
            raise DataError(f"{path}: missing column {col!r}")
    index_of = {rid: i for i, rid in enumerate(ids)}
    row_of = [0] * len(ids)  # the 1-based row that gave each id, 0 if none yet
    id_pos = names.index("id")
    positions = [names.index(col) for col in columns]
    at = []
    for r, row in enumerate(rows, start=1):
        rid = row[id_pos].strip()
        i = index_of.get(rid)
        if i is None:
            raise DataError(f"{path}: row {r}: unknown id {rid!r}")
        if row_of[i]:
            raise DataError(f"{path}: rows {row_of[i]} and {r}: repeated id {rid!r}")
        row_of[i] = r
        at.append(i)
    return at, [[row[pos].strip() for row in rows] for pos in positions]


def read_json(path: str | Path):
    try:
        return json.loads(read_text(path))
    except ValueError:
        raise DataError(f"{path}: not valid JSON") from None


def read_json_lines(path: str | Path) -> list[dict]:
    """The JSON object on each non-blank line of path."""
    entries = []
    for n, line in enumerate(read_text(path).splitlines(), start=1):
        if line.strip():
            try:
                entry = json.loads(line)
            except ValueError:
                entry = None
            if not isinstance(entry, dict):
                raise DataError(f"{path}: line {n} is not a JSON object")
            entries.append(entry)
    return entries


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def parse_floats(cells: Sequence[str], where: Callable[[int], str]) -> np.ndarray:
    """The floats in a column of cells, as a vector; +-inf is kept.

    NaN is refused: no stage writes one, so a NaN read back marks a
    damaged file.  The first cell that is not a number or reads as NaN
    raises DataError naming ``where(i)``, i being its index in cells.
    """
    values = np.fromiter(map(_number, cells), float, len(cells))
    refused = np.isnan(values)
    if refused.any():
        i = int(refused.argmax())
        raise DataError(f"{where(i)}: non-numeric value {cells[i]!r}")
    return values

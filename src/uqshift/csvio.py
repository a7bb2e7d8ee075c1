"""Small CSV helpers shared by the file-format front ends.

Floats are written with ``repr`` so that a load of a save reproduces the
exact same doubles; that is what makes rerun output trees byte-identical
and lets the report verifier recompute metrics to machine precision.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError


def format_value(value) -> str:
    # numpy scalars first: np.float64 passes isinstance(..., float) but
    # repr()s as "np.float64(...)" under numpy 2
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Header and non-empty rows; every row must be as wide as the header."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = [row for row in reader if row]
    for r, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
    return header, rows


def parse_float(text: str, where: str) -> float:
    """The float in text.  NaN is refused: no stage writes one, so a NaN
    read back marks a damaged file."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise DataError(f"{where}: non-numeric value {text!r}")
    return value

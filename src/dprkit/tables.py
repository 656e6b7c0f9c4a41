"""Delimited-text writer used by every file the toolkit writes.

Tables are written by column.  Floats are written at 17 significant digits,
enough to reconstruct any IEEE double, so files round-trip bit-exactly.
Missing or undefined values (None, NaN) are written as the literal ``NA``
unless the caller names another marker.
"""

from __future__ import annotations

import csv
import math
from itertools import repeat
from pathlib import Path
from typing import IO, Sequence

import numpy as np

NA = "NA"

# Rows formatted and written at a time.  A block's cell strings are freed
# before the next block is formatted; blocks of a few thousand rows wrote no
# faster and left the process's peak resident memory ~1 MiB higher.
BLOCK_ROWS = 1024


def fmt(value, na: str = NA) -> str:
    """Render one cell: floats at 17 significant digits, None/NaN as ``na``."""
    if value is None:
        return na
    if isinstance(value, float):
        if math.isnan(value):
            return na
        return format(value, ".17g")
    return str(value)


def _cells(column, na: str) -> list:
    """The cells of one column: a float array, an int array, or a sequence for :func:`fmt`."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        cells = list(map(format, column.tolist(), repeat(".17g")))
        for i in np.flatnonzero(np.isnan(column)).tolist():
            cells[i] = na
        return cells
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        column = column.tolist()
    elif set(map(type, column)) - {str, int}:
        return [fmt(v, na) for v in column]
    return column  # the csv writer renders str and int cells as fmt does


def write_table(dest, header: Sequence[str], columns: Sequence, delimiter: str = ",",
                na: str = NA) -> None:
    """Write equal-length columns under ``header`` with a fixed newline convention.

    A column is a float array (17 significant digits, NaN as ``na``), an
    integer array, or a sequence of cells rendered by :func:`fmt` (None as
    ``na``).  Rows are formatted and written in blocks of ``BLOCK_ROWS``.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for a header of {len(header)} names")
    n = len(columns[0]) if columns else 0
    if any(len(c) != n for c in columns):
        raise ValueError("table columns differ in length")

    def _write(fh: IO[str]) -> None:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(list(header))
        for start in range(0, n, BLOCK_ROWS):
            block = [_cells(c[start:start + BLOCK_ROWS], na) for c in columns]
            writer.writerows(zip(*block))

    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            _write(fh)
    else:
        _write(dest)

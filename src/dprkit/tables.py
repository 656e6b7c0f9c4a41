"""Writers of every file the toolkit writes, comma-separated tables and JSON records.

Tables are written by column.  Floats are written at 17 significant digits,
enough to reconstruct any IEEE double, so files round-trip bit-exactly.
Missing or undefined values (None, NaN) are written as the literal ``NA``
unless the caller names another marker.

Each block of rows is rendered with one ``%`` template per row: ``%.17g``
for a float array without NaN, ``%d`` for an integer array or int cells,
``%s`` for every other column's cells (:func:`fmt`'s text).  That is the
text ``csv.writer`` writes for cells it does not quote.  A block with a cell
it would quote (one holding a comma, a quote or a line break, or an empty
cell alone on its row) is written by ``csv.writer`` instead.  Only the
``%s`` columns can hold such a cell, and the check reads just those columns.

JSON records (``model.json``, ``summary.json``) go through :func:`write_json`
as compact, one-line JSON.  ``pipeline.DprModel.from_bundle``, the one reader of
``model.json``, reads it field by field through :func:`bundle_field`.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import repeat
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .errors import ValidationError

NA = "NA"

# Rows rendered and written at a time, as one string or through csv.writer.
# A block's text is freed before the next block is rendered; on a 20,000-row
# forecast table, blocks of 256 to 4096 rows wrote equally fast within the
# noise, and blocks of 4096 left the peak resident memory ~2.5 MiB higher.
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
    """The cells of one column: a float array, an int array, or a sequence for :func:`fmt`.

    The cells are all str or all int: a sequence of both goes through :func:`fmt`.
    """
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        cells = list(map(format, column.tolist(), repeat(".17g")))
        for i in np.flatnonzero(np.isnan(column)).tolist():
            cells[i] = na
        return cells
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return column.tolist()
    if set(map(type, column)) not in ({str}, {int}):
        return [fmt(v, na) for v in column]
    return column  # the csv writer renders str and int cells as fmt does


def _block_text(block: Sequence, na: str) -> str | None:
    """The rows of one block as text, one ``%`` template per row.

    Float arrays without NaN render with ``%.17g``, and integer arrays and
    int cells with ``%d``: the same text as ``format(v, ".17g")`` and ``str``.
    Every other column renders through :func:`_cells` and ``%s``.  Returns
    None when the csv writer would quote some cell: one that holds a comma, a
    quote or a line break, or an empty cell alone on its row.  Only the ``%s``
    cells are looked at: no number text holds such a character.  Python
    3.13's csv writer quotes a carriage return and earlier ones do not; either
    way a block holding one goes to the csv writer.
    """
    specs, values = [], []
    for column in block:
        if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
            specs.append("%d")
            values.append(column.tolist())
        elif (isinstance(column, np.ndarray) and column.dtype.kind == "f"
              and not np.isnan(column).any()):
            specs.append("%.17g")
            values.append(column.tolist())
        else:
            cells = _cells(column, na)
            specs.append("%d" if type(cells[0]) is int else "%s")
            values.append(cells)
    for spec, cells in zip(specs, values):
        text = "".join(cells) if spec == "%s" else ""
        if "," in text or '"' in text or "\r" in text or "\n" in text:
            return None
    if len(block) == 1 and specs[0] == "%s" and "" in values[0]:
        return None
    template = ",".join(specs) + "\n"
    return "".join(map(template.__mod__, zip(*values)))


def write_table(dest, header: Sequence[str], columns: Sequence, na: str = NA) -> None:
    """Write equal-length comma-separated columns under ``header``, rows ending in LF.

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
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for start in range(0, n, BLOCK_ROWS):
            block = [c[start:start + BLOCK_ROWS] for c in columns]
            text = _block_text(block, na)
            if text is None:
                writer.writerows(zip(*(_cells(c, na) for c in block)))
            else:
                fh.write(text)

    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            _write(fh)
    else:
        _write(dest)


def write_json(dest, obj) -> None:
    """Write ``obj`` as one line of JSON and a newline.

    ``json.dumps`` without ``indent`` runs CPython's C encoder, several times
    faster than the pure-Python one ``indent`` selects.  Floats are written
    by ``repr``, so they read back bit for bit.  A numpy value is a TypeError:
    every record builder converts to Python numbers and lists.
    """
    Path(dest).write_text(json.dumps(obj) + "\n", encoding="utf-8")


def bundle_field(bundle, dotted: str, convert):
    """``convert(bundle[a][b])`` for ``dotted='a.b'``; a missing or bad field is named,
    also when ``convert`` raises a ValidationError."""
    node = bundle
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            raise ValidationError(f"missing field {dotted!r}")
        node = node[key]
    try:
        return convert(node)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ValidationError(f"bad field {dotted!r}: {exc!r}") from exc
    except ValidationError as exc:
        raise ValidationError(f"bad field {dotted!r}: {exc}") from exc


def numbers(value, kind: type = float) -> np.ndarray:
    """A JSON number, or list (of lists) of numbers, as an array of ``kind`` (float or int);
    any other entry (a boolean: JSON's true is not 1) is a TypeError."""
    cells = np.asarray(value, dtype=object)
    types = set(map(type, cells.ravel().tolist()))
    if bool in types or not all(issubclass(t, (int, kind)) for t in types):
        raise TypeError(f"expected {'integers' if kind is int else 'numbers'}, "
                        f"got {', '.join(sorted(t.__name__ for t in types))}")
    return cells.astype(np.float64 if kind is float else np.intp)


def number(value, kind: type = float):
    """One JSON number as ``kind``; anything else is a TypeError."""
    cell = numbers(value, kind)
    if cell.ndim:
        raise TypeError("expected one value, got a list")
    return kind(cell)


def strings(value) -> list[str]:
    """A JSON list of strings; anything else is a TypeError."""
    if not isinstance(value, list) or not all(type(v) is str for v in value):
        raise TypeError("expected a list of strings")
    return value


def string(value) -> str:
    """One JSON string; anything else (``null`` is not the text 'None') is a TypeError."""
    if type(value) is not str:
        raise TypeError("expected a string")
    return value

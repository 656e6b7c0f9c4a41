import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dprkit import tables
from dprkit.tables import fmt, write_table


def _reference(header, rows, na) -> str:
    """The row-at-a-time writer: one csv.writer row per row, every cell through fmt."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(c, na) for c in row])
    return buf.getvalue()


SPECIAL = [math.nan, -0.0, 0.0, 1e-300, -1e-300, 5e-324, 1e300, math.inf, -math.inf, 0.1]
floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL))
names = st.text(
    alphabet=st.one_of(st.sampled_from(',"\n\r \'; \t%'),
                       st.characters(blacklist_categories=("Cs",))),
    max_size=8,
)
mixed = st.one_of(st.none(), floats, st.integers(-10**20, 10**20), names)
HEADER = ["name", "count", "value", "mixed", "year"]


@st.composite
def tables_of(draw):
    n = draw(st.integers(0, 12))
    return (
        draw(st.lists(names, min_size=n, max_size=n)),
        np.array(draw(st.lists(st.integers(-2**62, 2**62), min_size=n, max_size=n)),
                 dtype=np.int64),
        np.array(draw(st.lists(floats, min_size=n, max_size=n)), dtype=np.float64),
        draw(st.lists(mixed, min_size=n, max_size=n)),
        draw(st.lists(st.integers(1990, 2030), min_size=n, max_size=n)),
    )


@settings(max_examples=200, deadline=None)
@given(
    table=tables_of(),
    keep=st.sets(st.integers(0, 4), min_size=1),
    block=st.sampled_from([1, 2, 5, 4096]),
    na=st.sampled_from(["NA", ""]),
)
# a one-column table of empty strings: the csv writer writes each as ""
@example(table=([""] * 3 + ["x"], [], [], [], []), keep={0}, block=2, na="NA")
# NaN in one block, only finite values in the other, written with and without other columns
@example(table=(["a", "b", "c", "d"], [], np.array([0.5, 1 / 3, math.nan, math.nan]), [], []),
         keep={2}, block=2, na="")
@example(table=(["a", "b", "c", "d"], [], np.array([0.5, 1 / 3, math.nan, math.nan]), [], []),
         keep={0, 2}, block=2, na="")
def test_columns_match_the_row_writer(table, keep, block, na):
    header = [HEADER[k] for k in sorted(keep)]
    columns = [table[k] for k in sorted(keep)]
    # the reference sees numpy scalars for array cells, as row-built tables did
    rows = [list(row) for row in zip(*columns)]
    buf = io.StringIO()
    with mock.patch.object(tables, "BLOCK_ROWS", block):
        write_table(buf, header, columns, na=na)
    assert buf.getvalue() == _reference(header, rows, na)


# characters a number's text can hold (- . e 1) and ones it cannot; only the comma is quoted
SEPARATORS = [",", ";", "\t", "-", ".", "e", "1", "N"]
CELL_KINDS = {
    "negative ints": np.array([-1, -10, 0, 12], dtype=np.int64),
    "int cells": [-1, 2000, -30, 1],
    "floats with exponents": np.array([1e-300, -2.5e20, 1e100, -0.0]),
    "infinities": np.array([math.inf, -math.inf, 1.5, 2.0]),
    "floats with NaN": np.array([math.nan, 1.0, -1e-5, math.nan]),
    "text": ["a", "E1", "x.y", "2e5"],
    "text with a comma, a quote or a line break": ["a,b", 'say "hi"', "cr\r", "nl\n"],
    "text with the separator": ["a{d}b", "{d}", "x{d}", "{d}{d}"],
    "empty text": ["", "x", "", "y"],
}


@pytest.mark.parametrize("na", ["NA", ""])
@pytest.mark.parametrize("separator", SEPARATORS)
def test_quoting_check_matches_the_csv_writer(separator, na):
    """Each kind of cell alone (an empty cell alone on its row is quoted), beside a
    text column, and all kinds together, in blocks of one row and of BLOCK_ROWS; text
    cells hold ``separator``, which is quoted only when it is the comma."""
    kinds = {name: [c.format(d=separator) for c in column] if name.endswith("separator")
             else column for name, column in CELL_KINDS.items()}
    layouts = [[name] for name in kinds]
    layouts += [[name, "text"] for name in kinds if name != "text"]
    layouts.append(list(kinds))
    for names in layouts:
        columns = [kinds[name] for name in names]
        rows = [list(row) for row in zip(*columns)]
        for block in (1, tables.BLOCK_ROWS):
            buf = io.StringIO()
            with mock.patch.object(tables, "BLOCK_ROWS", block):
                write_table(buf, names, columns, na=na)
            assert buf.getvalue() == _reference(names, rows, na), (names, block)


def test_float_cells_keep_every_bit(tmp_path):
    values = np.array([0.1, 1 / 3, -0.0, 1e-300, 5e-324, 2.0**0.5 * 1e17])
    path = tmp_path / "t.csv"
    write_table(path, ["v"], [values])
    back = [float(line) for line in path.read_text().splitlines()[1:]]
    assert [math.copysign(1, v) for v in back] == [math.copysign(1, v) for v in values]
    np.testing.assert_array_equal(back, values)


def test_columns_must_match_the_header_and_each_other():
    with pytest.raises(ValueError, match="header"):
        write_table(io.StringIO(), ["a", "b"], [[1]])
    with pytest.raises(ValueError, match="length"):
        write_table(io.StringIO(), ["a", "b"], [[1, 2], np.zeros(3)])


@pytest.mark.parametrize("value", [np.int64(1), np.float32(0.5), np.zeros(2)])
def test_write_json_refuses_numpy_values(tmp_path, value):
    # a record builder converts to Python numbers; a stray numpy value fails loudly
    with pytest.raises(TypeError):
        tables.write_json(tmp_path / "r.json", {"value": value})


@pytest.mark.parametrize("value, kind", [(True, float), (False, int), ("1", float), (None, float),
                                         (1.0, int), ([1.0], float)])
def test_number_takes_only_json_numbers(value, kind):
    with pytest.raises(TypeError):
        tables.number(value, kind)


@pytest.mark.parametrize("value, kind", [([1.0, True], float), ([[0], [False]], int),
                                         ([1, 2.0], int), ([[1.0], [2.0, 3.0]], float),
                                         (["1"], float), ([None], float), (1.0, int)])
def test_numbers_take_only_lists_of_json_numbers(value, kind):
    with pytest.raises(TypeError):
        tables.numbers(value, kind)


def test_numbers_keep_every_bit():
    values = [[0.1, -0.0, 5e-324], [1e300, 3, -7]]
    got = tables.numbers(values)
    assert got.dtype == np.float64 and got.tobytes() == np.array(values).tobytes()
    assert tables.numbers([-1, 0, 2], int).tolist() == [-1, 0, 2]

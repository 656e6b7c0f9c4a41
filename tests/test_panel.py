import codecs
import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dprkit import panel as panel_module
from dprkit.errors import ValidationError
from dprkit.panel import (
    EmissionFactorTable,
    PanelDataset,
    TransformSpec,
    compute_emissions,
    energy_mix_features,
    load_panel,
    log_transform,
    write_panel,
)


def _csv(text: str) -> io.StringIO:
    return io.StringIO(text.strip() + "\n")


BASIC = """
entity,period,target,coal,gas
A,2001,10.0,4.0,6.0
A,2000,8.0,3.0,5.0
B,2000,2.5,1.0,0.0
B,2001,3.5,1.5,0.5
"""


def test_load_sorts_canonically():
    panel = load_panel(_csv(BASIC))
    assert panel.entities == ["A", "B"]
    assert panel.periods == [2000, 2001]
    assert panel.row_keys() == [("A", 2000), ("A", 2001), ("B", 2000), ("B", 2001)]
    assert panel.feature_names == ["coal", "gas"]
    np.testing.assert_allclose(panel.features[0], [3.0, 5.0])
    np.testing.assert_allclose(panel.targets, [8.0, 10.0, 2.5, 3.5])


def test_integer_periods_sort_numerically():
    # string sort would put "10" before "9"
    text = """
entity,period,target,coal
A,9,1.0,1.0
A,10,2.0,2.0
"""
    panel = load_panel(_csv(text))
    assert panel.periods == [9, 10]


def test_non_integer_periods_kept_as_strings():
    text = """
entity,period,target,coal
A,2000Q2,1.0,1.0
A,2000Q1,2.0,2.0
"""
    panel = load_panel(_csv(text))
    assert panel.periods == ["2000Q1", "2000Q2"]


def test_missing_target_becomes_nan():
    text = """
entity,period,target,coal
A,2000,,1.0
A,2001,NA,2.0
A,2002,3.0,3.0
"""
    panel = load_panel(_csv(text))
    assert math.isnan(panel.targets[0])
    assert math.isnan(panel.targets[1])
    assert panel.targets[2] == 3.0


def test_load_errors_name_the_problem():
    with pytest.raises(ValidationError, match="entity"):
        load_panel(_csv("period,target,coal\n2000,1.0,1.0"))
    with pytest.raises(ValidationError, match="line 3"):
        load_panel(_csv("entity,period,target,coal\nA,2000,1.0,1.0\nA,2000,2.0,2.0"))
    with pytest.raises(ValidationError, match="coal"):
        load_panel(_csv("entity,period,target,coal\nA,2000,1.0,bad"))
    with pytest.raises(ValidationError, match="negative"):
        load_panel(_csv("entity,period,target,coal\nA,2000,1.0,-2.0"))
    with pytest.raises(ValidationError):
        load_panel(_csv("entity,period,target,coal"))


def test_write_then_load_round_trips(tmp_path):
    panel = load_panel(_csv(BASIC))
    out = tmp_path / "panel.csv"
    write_panel(panel, out)
    again = load_panel(out)
    assert again == panel
    # and the write itself is byte-stable
    first = out.read_bytes()
    write_panel(again, out)
    assert out.read_bytes() == first


def test_a_byte_order_mark_is_encoding_not_header_text(tmp_path):
    # a spreadsheet's "CSV UTF-8" starts the file with one
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_panel(load_panel(_csv(BASIC)), plain)
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    assert load_panel(marked) == load_panel(plain)


def test_out_of_order_rows_construct_and_duplicates_are_named():
    def panel(entity_idx, period_idx):
        n = len(entity_idx)
        return PanelDataset(entities=["A", "B"], periods=[2000, 2001], feature_names=["coal"],
                            entity_idx=entity_idx, period_idx=period_idx,
                            features=np.ones((n, 1)), targets=np.ones(n))

    assert panel([1, 0, 1, 0], [1, 1, 0, 0]).row_keys() == [
        ("B", 2001), ("A", 2001), ("B", 2000), ("A", 2000)]
    with pytest.raises(ValidationError) as info:
        panel([0, 1, 0], [1, 0, 1])
    assert str(info.value) == "duplicate observation for entity 'A', period 2001"
    with pytest.raises(ValidationError) as info:
        panel([0, 0, 1], [0, 0, 1])  # in order, but not strictly
    assert str(info.value) == "duplicate observation for entity 'A', period 2000"


def test_subset_by_periods():
    panel = load_panel(_csv(BASIC))
    train = panel.subset_by_periods([2000])
    assert train.periods == [2000]
    assert train.row_keys() == [("A", 2000), ("B", 2000)]
    with pytest.raises(ValidationError):
        panel.subset_by_periods([1999])


def test_log_transform_and_inverse():
    panel = load_panel(_csv(BASIC))
    spec = TransformSpec(log_offset=1.0)
    logged = log_transform(panel, spec)
    np.testing.assert_allclose(logged.features, np.log(panel.features + 1.0))
    np.testing.assert_allclose(logged.targets, np.log(panel.targets + 1.0))
    back = np.exp(logged.targets) - spec.log_offset
    np.testing.assert_allclose(back, panel.targets, rtol=1e-15)
    assert logged.transform == spec
    with pytest.raises(ValidationError, match="already"):
        log_transform(logged, spec)


def test_log_transform_rejects_nonpositive_shift():
    text = "entity,period,target,coal\nA,2000,1.0,0.0"
    panel = load_panel(_csv(text))
    with pytest.raises(ValidationError):
        log_transform(panel, TransformSpec(log_offset=0.0))


def test_transform_spec_validation():
    with pytest.raises(ValidationError):
        TransformSpec(log_offset=-1.0)
    with pytest.raises(ValidationError):
        TransformSpec(log_offset=math.inf)


def test_emission_factors_product():
    panel = load_panel(_csv(BASIC))
    table = EmissionFactorTable(factor_per_feature={"coal": 2.0, "gas": 0.5})
    out = compute_emissions(panel, table)
    np.testing.assert_allclose(out.targets[0], 3.0 * 2.0 + 5.0 * 0.5)
    # source features unchanged
    np.testing.assert_allclose(out.features, panel.features)


def test_emission_factors_must_cover_features():
    panel = load_panel(_csv(BASIC))
    with pytest.raises(ValidationError, match="gas"):
        compute_emissions(panel, EmissionFactorTable(factor_per_feature={"coal": 2.0}))


def test_emission_factor_table_csv(tmp_path):
    path = tmp_path / "factors.csv"
    path.write_text("feature,factor\ncoal,1.5\ngas,0.25\n")
    table = EmissionFactorTable.from_csv(path)
    assert table.factor_per_feature == {"coal": 1.5, "gas": 0.25}
    path.write_text("feature,factor\ncoal,1.5\ncoal,2.0\n")
    with pytest.raises(ValidationError, match="duplicate"):
        EmissionFactorTable.from_csv(path)


def test_raw_shares_mix():
    text = "entity,period,target,coal,gas\nA,2000,1.0,2.0,2.0"
    panel = load_panel(_csv(text))
    mix, flagged = energy_mix_features(panel)
    np.testing.assert_allclose(mix[0], [0.5, 0.5])
    assert flagged == []


def test_raw_shares_zero_row_flagged():
    text = "entity,period,target,coal,gas\nA,2000,1.0,0.0,0.0\nA,2001,1.0,1.0,3.0"
    panel = load_panel(_csv(text))
    mix, flagged = energy_mix_features(panel)
    np.testing.assert_allclose(mix[0], [0.0, 0.0])
    np.testing.assert_allclose(mix[1], [0.25, 0.75])
    assert flagged == [0]


@pytest.mark.parametrize("second_row, flagged_rows", [([0.0, 0.0], [1]), ([0.0, 1.0], [])])
def test_mix_divides_rows_with_a_positive_sum_and_zeroes_the_rest(second_row, flagged_rows):
    # the API takes finite negative features; a row whose sum is not positive comes out zero,
    # with or without a zero-sum row beside it
    features = np.array([[1.0, 3.0], second_row, [-2.0, 1.0], [0.1, 0.7]])
    panel = PanelDataset(
        entities=["A"], periods=[2000, 2001, 2002, 2003], feature_names=["coal", "gas"],
        entity_idx=np.zeros(4, dtype=np.intp), period_idx=np.arange(4),
        features=features, targets=np.full(4, math.nan),
    )
    mix, flagged = energy_mix_features(panel)
    assert flagged == flagged_rows
    positive = features.sum(axis=1) > 0
    np.testing.assert_array_equal(mix[~positive], 0.0)
    np.testing.assert_array_equal(mix[positive],
                                  features[positive] / features[positive].sum(axis=1)[:, None])


def test_header_names_reads_the_header_as_load_panel_does(tmp_path):
    """Header names are stripped; a stream or a path without a header row is one error."""
    text = " entity ,period, target ,coal , gas\nA,2000,1.0,2.0,3.0\n"
    path = tmp_path / "panel.csv"
    path.write_text(text)
    for source in (io.StringIO(text, newline=""), path):
        panel = load_panel(source)
        assert panel.feature_names == ["coal", "gas"]
        assert (panel.row_keys(), panel.targets.tolist()) == ([("A", 2000)], [1.0])
    path.write_text("")
    for source in (io.StringIO(""), path):
        with pytest.raises(ValidationError, match="^panel file is empty: header row is required$"):
            load_panel(source)


def test_a_file_without_a_target_column_reads_as_all_targets_missing():
    with_target = load_panel(_csv("entity,period,target,coal\nA,2001,,1.5\nA,2000,NA,2.0"))
    without = load_panel(_csv("entity,period,coal\nA,2001,1.5\nA,2000,2.0"))
    assert without == with_target
    assert np.isnan(without.targets).all()


# ---------------------------------------------------------------- round trips

key_text = st.text(alphabet='AB ,"\nx\'', min_size=1, max_size=5).filter(lambda s: s == s.strip())
nonneg = st.floats(min_value=0.0, max_value=1e300, allow_nan=False, allow_infinity=False)


@st.composite
def panels(draw):
    if draw(st.booleans()):
        period_values = st.integers(-3000, 3000)
    else:
        period_values = st.from_regex(r"[0-9]{1,4}Q[1-4]", fullmatch=True)
    keys = draw(st.lists(st.tuples(key_text, period_values), min_size=1, max_size=12,
                         unique=True))
    entities = sorted({e for e, _ in keys})
    periods = sorted({p for _, p in keys})
    keys.sort(key=lambda k: (entities.index(k[0]), periods.index(k[1])))
    n, nf = len(keys), draw(st.integers(1, 3))
    features = draw(st.lists(nonneg, min_size=n * nf, max_size=n * nf))
    targets = draw(st.lists(st.one_of(st.just(math.nan), nonneg), min_size=n, max_size=n))
    return PanelDataset(
        entities=entities, periods=periods, feature_names=[f"f{j}" for j in range(nf)],
        entity_idx=[entities.index(e) for e, _ in keys],
        period_idx=[periods.index(p) for _, p in keys],
        features=np.reshape(features, (n, nf)), targets=targets,
    )


@settings(max_examples=100, deadline=None)
@given(panel=panels())
def test_write_then_load_round_trips_any_panel(panel):
    buf = io.StringIO()
    write_panel(panel, buf)
    text = buf.getvalue()
    again = load_panel(io.StringIO(text, newline=""))
    assert again == panel
    # a missing target is an empty cell, not NA
    assert ",NA," not in text
    buf = io.StringIO()
    write_panel(again, buf)
    assert buf.getvalue() == text


# ---------------------------------------------------------------- load faults

HEADER = ["entity", "period", "target", "coal", "gas"]


def _reference_error(text: str) -> str | None:
    """The first fault of a canonical panel file, checked one row and one cell at a time."""
    reader = csv.reader(io.StringIO(text, newline=""))
    width = len(next(reader))
    first_line: dict = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or all(c.strip() == "" for c in row):
            continue
        if len(row) != width:
            return f"line {lineno}: expected {width} cells, found {len(row)}"
        key = (row[0].strip(), row[1].strip())
        if key in first_line:
            return (f"line {lineno}: duplicate observation for entity {key[0]!r}, "
                    f"period {key[1]!r} (first seen on line {first_line[key]})")
        first_line[key] = lineno
        for name, cell in zip(HEADER[3:] + HEADER[2:3], row[3:] + row[2:3]):
            cell = cell.strip()
            if name == "target" and cell in ("", "NA"):
                continue
            try:
                v = float(cell)
            except ValueError:
                return f"line {lineno}, column {name!r}: non-numeric value {cell!r}"
            if not math.isfinite(v):
                return f"line {lineno}, column {name!r}: non-finite value {cell!r}"
            if v < 0:
                return f"line {lineno}, column {name!r}: negative value {v}"
    return None


CELLS = ["1.5", "0", " 2 ", "-0.0", "1e-300", "", "NA", "nan", "inf", "-inf", "-1", "abc"]


@st.composite
def panel_lines(draw):
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "spaces", "commas",
                                     "short", "long"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append("  ")
        elif kind == "commas":
            lines.append(",,,,")
        else:
            row = [draw(st.sampled_from(["A", "B", " C"])),
                   draw(st.sampled_from(["2000", "2001", "2002 "]))]
            good = draw(st.booleans())
            for _ in range(3):
                row.append(draw(st.sampled_from(CELLS[:5] if good else CELLS)))
            if kind == "short":
                row.pop()
            elif kind == "long":
                row.append("1")
            lines.append(",".join(row))
    return "\n".join([",".join(HEADER)] + lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=panel_lines())
def test_load_reports_the_first_fault_in_file_order(text):
    expected = _reference_error(text)
    try:
        load_panel(io.StringIO(text, newline=""))
    except ValidationError as exc:
        if expected is None:
            assert "no data rows" in str(exc)
        else:
            assert str(exc) == expected
    else:
        assert expected is None


@pytest.mark.parametrize(
    "rows, message",
    [
        (["A,2000,1,inf,1"], "line 2, column 'coal': non-finite value 'inf'"),
        (["A,2000,1,1,nan"], "line 2, column 'gas': non-finite value 'nan'"),
        (["A,2000,-inf,1,1"], "line 2, column 'target': non-finite value '-inf'"),
        (["A,2000,1,1"], "line 2: expected 5 cells, found 4"),
        (["A,2000,1,1,1,1"], "line 2: expected 5 cells, found 6"),
        (["A,2000,lots,1,1"], "line 2, column 'target': non-numeric value 'lots'"),
        (["A,2000,-2.5,1,1"], "line 2, column 'target': negative value -2.5"),
        (["", "  ", ",,,,", "A,2000,1,1,x"], "line 5, column 'gas': non-numeric value 'x'"),
        # two faults: the first in file order wins, whichever kind it is
        (["A,2000,1,1,-1", "A,2001,1,1,x"], "line 2, column 'gas': negative value -1.0"),
        (["A,2000,1,1", "A,2001,1,1,x"], "line 2: expected 5 cells, found 4"),
        (["A,2000,1,1,1", "A,2000,1,1,1", "A,2001,1,-1,1"],
         "line 3: duplicate observation for entity 'A', period '2000' (first seen on line 2)"),
        (["A,2000,1,1,1", "A,2001,1,-1,1", "A,2000,1,1,1"],
         "line 3, column 'coal': negative value -1.0"),
        # a duplicate comes before a fault on a later line
        (["A,2000,1,1,1", "A,2001,1,1,1", "A,2000,1,1,1", "B,2000,1,1,1", "B,2001,1,1,x"],
         "line 4: duplicate observation for entity 'A', period '2000' (first seen on line 2)"),
        (["A,2000,1,1,1", "B,2000,1,1,1", "", "A,2000,1,1,1"],
         "line 5: duplicate observation for entity 'A', period '2000' (first seen on line 2)"),
        # the C reader takes this file; the duplicate is named by its line
        (["A,2000,1,1,1", "", "A,2000,1,1,1"],
         "line 4: duplicate observation for entity 'A', period '2000' (first seen on line 2)"),
        # one long row in a file that is otherwise clean
        (["A,2000,1,1,1", "A,2001,1,1,1,1", "A,2002,1,1,1"], "line 3: expected 5 cells, found 6"),
    ],
)
@pytest.mark.parametrize("trailing", [1, 2, 4096])
def test_load_fault_messages(rows, message, trailing):
    """The first fault is named by its line, however many clean rows follow it."""
    clean = [f"T{i},2000,1,1,1" for i in range(trailing)]
    text = "\n".join([",".join(HEADER)] + rows + clean) + "\n"
    with pytest.raises(ValidationError) as info:
        load_panel(io.StringIO(text, newline=""))
    assert str(info.value) == message


# ---------------------------------------------------------------- the two readers

def _reference_values(text: str):
    """Features and targets by csv.reader and float(), in canonical (entity, period) order."""
    rows = [r for r in csv.reader(io.StringIO(text, newline="")) if "".join(r).strip()][1:]
    rows.sort(key=lambda r: (r[0].strip(), int(r[1])))
    features = np.array([[float(c) for c in r[3:]] for r in rows])
    targets = np.array([math.nan if r[2].strip() in ("", "NA") else float(r[2]) for r in rows])
    return features, targets


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


SPELLINGS = [repr, lambda v: format(v, ".17g"), lambda v: format(v, ".25g")]


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.tuples(st.one_of(st.none(), nonneg), nonneg, nonneg), min_size=1,
                    max_size=12),
    spelling=st.lists(st.sampled_from(range(len(SPELLINGS))), min_size=36, max_size=36),
    blank=st.sampled_from([None, "", "  ", " \t", "\r"]),
)
def test_load_matches_float_bit_for_bit(values, spelling, blank):
    spell = iter(spelling)
    lines = ["entity,period,target,coal,gas"]
    for i, (t, a, b) in enumerate(values):
        target = "NA" if t is None else SPELLINGS[next(spell)](t)
        lines.append(f"E{i % 3},{2000 + i},{target},"
                     f"{SPELLINGS[next(spell)](a)},{SPELLINGS[next(spell)](b)}")
        if blank is not None and i == 0:
            lines.append(blank)  # blank or whitespace only: the C reader still takes the file
    text = "\n".join(lines) + "\n"
    with mock.patch.object(panel_module, "_read_rows", wraps=panel_module._read_rows) as by_csv:
        panel = load_panel(io.StringIO(text, newline=""))
    assert not by_csv.called
    features, targets = _reference_values(text)
    np.testing.assert_array_equal(_bits(panel.features), _bits(features))
    np.testing.assert_array_equal(_bits(panel.targets), _bits(targets))


@pytest.mark.parametrize(
    "rows, entity, coal, target, by_csv",
    [
        (["A,2000,1,1_0,1"], "A", 10.0, 1.0, True),
        (["A,2000,1,１２,1"], "A", 12.0, 1.0, True),
        (["A,2000,1, 2 ,1"], "A", 2.0, 1.0, False),
        (["A,2000,1,+1.5,1"], "A", 1.5, 1.0, False),
        (["A,2000,1,1E-400,1"], "A", 0.0, 1.0, False),
        (["A,2000,1,3,1\r"], "A", 3.0, 1.0, False),  # a CRLF line ending
        (['"A\nB, C",2000,1,3,1'], "A\nB, C", 3.0, 1.0, True),
        (["A,2000,,3,1"], "A", 3.0, math.nan, False),
        (["A,2000,NA,3,1"], "A", 3.0, math.nan, False),
        (["A,2000,1,3,1", ""], "A", 3.0, 1.0, False),
        # the blank line inside the quotes is part of the entity, not skipped
        (['"A\n\nB, C",2000,1,3,1'], "A\n\nB, C", 3.0, 1.0, True),
        # zeros are in range on the row reader too
        (["A,2000,0,1_0,-0.0"], "A", 10.0, 0.0, True),
    ],
)
def test_spellings_that_still_load(rows, entity, coal, target, by_csv):
    """Cells ``float()`` accepts load on either path; loadtxt's rejects reach the row reader."""
    text = "\n".join([",".join(HEADER)] + rows) + "\n"
    with mock.patch.object(panel_module, "_read_rows", wraps=panel_module._read_rows) as csv_path:
        panel = load_panel(io.StringIO(text, newline=""))
    assert csv_path.called == by_csv
    assert panel.entities == [entity]
    assert panel.features[0, 0] == coal
    np.testing.assert_array_equal(panel.targets, [target])


def _by_row_reader(text: str) -> PanelDataset:
    """The panel that the csv.reader path reads from ``text``."""
    with mock.patch.object(panel_module, "_parse_lines", return_value=None):
        return load_panel(io.StringIO(text, newline=""))


def _many_rows() -> list[str]:
    # 1,000 entities x 20 periods, every tenth entity and period cell padded
    return [f"{' E%d ' if e % 10 == 0 else 'E%d'},{' %d ' if p % 10 == 3 else '%d'},{e},{p},1"
            % (e, 2000 + p) for e in range(1000) for p in range(20)]


@pytest.mark.parametrize("rows, entities, periods", [
    ([" E1 ,2000,1,1,1", "E1,2001,1,2,1", "E2 ,2000,,3,1"], ["E1", "E2"], [2000, 2001]),
    (["A,2000,1,1,1", "B, 2000 ,1,2,1", "C,+2000,1,3,1", "A,2001 ,1,4,1"], ["A", "B", "C"],
     [2000, 2001]),
    (["A,y2000,1,1,1", "A, y2001,1,2,1", "B,y2000 ,NA,3,1"], ["A", "B"], ["y2000", "y2001"]),
    # one spelling that is no int makes every period a string
    (["A,2000,1,1,1", "A,2000b,1,2,1"], ["A"], ["2000", "2000b"]),
    ([" A ,2000,1,1,1"], ["A"], [2000]),
    (_many_rows(), sorted(f"E{e}" for e in range(1000)), list(range(2000, 2020))),
], ids=["padded entities", "period spellings", "string periods", "mixed periods", "one row",
        "20,000 rows"])
def test_key_spellings_load_as_the_row_reader_reads_them(rows, entities, periods):
    """Each distinct key cell is stripped and converted once; the panel is the row reader's."""
    text = "\n".join([",".join(HEADER)] + rows) + "\n"
    panel = load_panel(io.StringIO(text, newline=""))
    assert panel == _by_row_reader(text)
    assert (panel.entities, panel.periods) == (entities, periods)
    assert panel.n_obs == len(rows)


def test_two_spellings_of_one_int_period_are_a_duplicate():
    text = "\n".join([",".join(HEADER), "A,2000,1,1,1", "A,02000,1,1,1"]) + "\n"
    for read in (lambda: load_panel(io.StringIO(text, newline="")),
                 lambda: _by_row_reader(text)):
        with pytest.raises(ValidationError,
                           match="^duplicate observation for entity 'A', period 2000$"):
            read()


@pytest.mark.parametrize("cell, by_csv", [("nan", True), (" NA ", True), ("NA", False),
                                          ("", False), (" 1.5 ", False)])
def test_target_cells_keep_their_outcomes(cell, by_csv):
    """A literal nan is refused; padded or bare NA and an empty cell are missing targets."""
    text = "\n".join([",".join(HEADER), "A,2000,1,1,1", f"A,2001,{cell},1,1"]) + "\n"
    with mock.patch.object(panel_module, "_read_rows", wraps=panel_module._read_rows) as rows:
        if cell == "nan":
            with pytest.raises(ValidationError,
                               match="^line 3, column 'target': non-finite value 'nan'$"):
                load_panel(io.StringIO(text, newline=""))
        else:
            panel = load_panel(io.StringIO(text, newline=""))
            want = 1.5 if cell.strip() == "1.5" else math.nan
            np.testing.assert_array_equal(panel.targets, [1.0, want])
    assert rows.called == by_csv


@pytest.mark.parametrize("header, name", [
    ("entity,period,target,x,x", "x"),  # read the second x twice and lost the first
    ("entity,period,target,x,target", "target"),  # took the target from the last column
    ("entity,period,entity,target,x", "entity"),
], ids=["feature", "target", "key"])
def test_a_header_that_names_a_column_twice_is_refused(header, name):
    with pytest.raises(ValidationError, match=f"^header names column '{name}' twice$"):
        load_panel(_csv(f"{header}\nA,2000,1,2,3"))

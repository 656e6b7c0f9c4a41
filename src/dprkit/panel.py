"""Panel data model: ingestion, emission accounting, and feature transforms.

A panel is a long-format table of observations keyed by (entity, period),
carrying a vector of non-negative consumption features and an optional
non-negative target.  It has one file layout: a comma-separated header with
``entity`` and ``period`` columns and an optional ``target`` column, every
other column a feature in file order.  Rows are normalized to lexicographic
(entity, period) order on load so that every downstream computation sees a
canonical order.

Three transforms are provided ahead of modeling:

* emission accounting: target recomputed as the factor-weighted sum of the
  features, with factors supplied externally (never hard-coded);
* natural-log transform ``ln(x + offset)`` of features and target, invertible
  via ``exp(v) - offset``;
* the energy mix for clustering: each row divided by its sum, its shares.

:func:`load_panel` drops blank lines and parses the other data rows with one
``numpy.loadtxt`` call: feature cells by numpy's C float parser, key and
target cells as strings.  Input that call cannot take line for line is read
one ``csv.reader`` row at a time, with ``float()`` on each cell, which names
the first fault in file order: a cell that only ``float()`` accepts (``1_0``,
full-width digits), a quoted line break, a row of the wrong width, a repeated
key, or any value out of range.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .tables import write_table


@dataclass(frozen=True)
class TransformSpec:
    """The log transform of the regression: ``ln(x + log_offset)``."""

    log_offset: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.log_offset) or self.log_offset < 0:
            raise ValidationError(f"log_offset must be finite and >= 0, got {self.log_offset}")


@dataclass(frozen=True)
class EmissionFactorTable:
    """Per-feature emission factors, loaded from an external two-column table."""

    factor_per_feature: dict[str, float]

    def __post_init__(self) -> None:
        for name, f in self.factor_per_feature.items():
            if not math.isfinite(f) or f < 0:
                raise ValidationError(f"emission factor for {name!r} must be finite and >= 0, got {f}")

    @classmethod
    def from_csv(cls, source) -> "EmissionFactorTable":
        """Read comma-separated ``feature,factor`` rows (header required).

        A path is read as UTF-8, with or without a byte-order mark.
        """
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8-sig", newline="") as fh:
                return cls.from_csv(fh)
        reader = csv.reader(source)
        try:
            next(reader)
        except StopIteration:
            raise ValidationError("factor table is empty") from None
        factors: dict[str, float] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise ValidationError(f"factor table line {lineno}: expected 2 columns")
            name = row[0].strip()
            try:
                value = float(row[1])
            except ValueError:
                raise ValidationError(
                    f"factor table line {lineno}: non-numeric factor {row[1]!r}"
                ) from None
            if name in factors:
                raise ValidationError(f"factor table line {lineno}: duplicate feature {name!r}")
            factors[name] = value
        if not factors:
            raise ValidationError("factor table has no rows")
        return cls(factors)


@dataclass
class PanelDataset:
    """Long-format panel in canonical (entity, period) row order.

    ``targets`` uses NaN for rows without a target (forecast-only rows).
    ``transform`` records the log transform once applied, so that predictions
    can be inverted back to source units; it is None for source-unit data.
    """

    entities: list[str]
    periods: list
    feature_names: list[str]
    entity_idx: np.ndarray
    period_idx: np.ndarray
    features: np.ndarray
    targets: np.ndarray
    transform: TransformSpec | None = None

    def __post_init__(self) -> None:
        self.entity_idx = np.asarray(self.entity_idx, dtype=np.intp)
        self.period_idx = np.asarray(self.period_idx, dtype=np.intp)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        n = self.entity_idx.shape[0]
        if self.period_idx.shape != (n,) or self.targets.shape != (n,):
            raise ValidationError("panel arrays have inconsistent lengths")
        if self.features.shape != (n, len(self.feature_names)):
            raise ValidationError(
                f"feature matrix shape {self.features.shape} does not match "
                f"{n} rows x {len(self.feature_names)} features"
            )
        if n == 0:
            raise ValidationError("panel has no observations")
        if not np.all(np.isfinite(self.features)):
            raise ValidationError("panel features contain non-finite values")
        kinds = {type(p) for p in self.periods}
        if len(kinds) > 1:
            raise ValidationError(f"periods mix types {sorted(k.__name__ for k in kinds)}")
        for a, b in zip(self.periods, self.periods[1:]):
            if not a < b:
                raise ValidationError(f"periods are not strictly increasing at {a!r} >= {b!r}")
        keys = self.entity_idx * len(self.periods) + self.period_idx
        # strictly increasing keys, as in canonical order, cannot repeat
        if not np.all(keys[1:] > keys[:-1]) and np.unique(keys).size < n:
            seen: set[tuple[int, int]] = set()
            for e, p in zip(self.entity_idx.tolist(), self.period_idx.tolist()):
                if (e, p) in seen:
                    raise ValidationError(
                        f"duplicate observation for entity {self.entities[e]!r}, "
                        f"period {self.periods[p]!r}"
                    )
                seen.add((e, p))

    @property
    def n_obs(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def key_columns(self) -> tuple[list[str], list]:
        """The entity and the period of every row, as two columns."""
        return (
            np.array(self.entities, dtype=object)[self.entity_idx].tolist(),
            np.array(self.periods, dtype=object)[self.period_idx].tolist(),
        )

    def row_keys(self) -> list[tuple[str, object]]:
        return list(zip(*self.key_columns()))

    def subset_by_periods(self, keep: Sequence) -> "PanelDataset":
        """Rows whose period is in ``keep``; period list restricted accordingly."""
        keep_set = set(keep)
        unknown = keep_set - set(self.periods)
        if unknown:
            raise ValidationError(f"periods not present in panel: {sorted(unknown)!r}")
        kept = np.array([p in keep_set for p in self.periods], dtype=bool)
        mask = kept[self.period_idx]
        if not mask.any():
            raise ValidationError("period subset selects no observations")
        new_index = np.cumsum(kept) - 1
        return PanelDataset(
            entities=list(self.entities),
            periods=[p for p, k in zip(self.periods, kept) if k],
            feature_names=list(self.feature_names),
            entity_idx=self.entity_idx[mask],
            period_idx=new_index[self.period_idx[mask]],
            features=self.features[mask],
            targets=self.targets[mask],
            transform=self.transform,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PanelDataset):
            return NotImplemented
        return (
            self.entities == other.entities
            and self.periods == other.periods
            and self.feature_names == other.feature_names
            and np.array_equal(self.entity_idx, other.entity_idx)
            and np.array_equal(self.period_idx, other.period_idx)
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.targets, other.targets, equal_nan=True)
            and self.transform == other.transform
        )


def _first_repeat(names: list):
    """The first name that occurs a second time in ``names``, or None."""
    return next((name for i, name in enumerate(names) if name in names[:i]), None)


# an empty or NA target cell is a row without a target: it reads as NaN
_MISSING_TARGET = {"": "nan", "NA": "nan"}


def _parse_periods(spellings: list[str]) -> list:
    """Periods are ints when every spelling is one, else the spellings themselves."""
    try:
        return list(map(int, spellings))
    except ValueError:
        return spellings


def _key_index(cells: list[str], parse) -> tuple[list, np.ndarray]:
    """The sorted distinct keys of the key cells, and each cell's index among them.

    Each distinct cell is stripped and converted once: ``parse`` maps the
    list of stripped spellings to keys, and every cell takes the index of its
    spelling's key, through a dict from raw cell to index.
    """
    spellings = list(set(cells))
    keys = parse([s.strip() for s in spellings])
    distinct = sorted(set(keys))
    index = dict(zip(distinct, range(len(distinct))))
    of_cell = dict(zip(spellings, map(index.__getitem__, keys)))
    return distinct, np.fromiter(map(of_cell.__getitem__, cells), dtype=np.intp, count=len(cells))


@dataclass(frozen=True)
class _Layout:
    """Where :func:`load_panel` finds each field of a data row."""

    width: int
    entity: int
    period: int
    target: int | None
    features: list[int]
    feature_names: list[str]


def _checked(features: np.ndarray, target_cells):
    """Features and targets of parsed rows (``target_cells`` None: no target column).

    The target cells go through one ``float`` pass, with ``""`` and ``NA``
    read as NaN; a cell that comes out NaN must be one of those two, so a
    literal ``nan`` is refused.  Returns None when some feature is non-finite
    or negative, or some target cell other than ``""``/``NA`` is non-numeric,
    non-finite or negative.  A padded `` NA `` is no ``float`` spelling: it
    returns None, and the row reader strips it.
    """
    m = features.shape[0]
    targets = np.full(m, math.nan)
    if target_cells is not None:
        try:
            targets = np.fromiter(map(float, map(_MISSING_TARGET.get, target_cells, target_cells)),
                                  dtype=np.float64, count=m)
        except ValueError:
            return None
        missing = np.isnan(targets)
        if not all(map(_MISSING_TARGET.__contains__,
                       map(target_cells.__getitem__, np.flatnonzero(missing).tolist()))):
            return None
        # false for infinities and negative values
        if not np.all((targets >= 0) & (targets < math.inf) | missing):
            return None
    # false for NaN, infinities and negative values
    if not np.all((features >= 0) & (features < math.inf)):
        return None
    return features, targets


def _parse_lines(lines: list[str], layout: _Layout):
    """Keys, features and targets of the data lines, from one ``np.loadtxt`` call.

    Blank lines are dropped first.  Feature cells are parsed by numpy's C
    reader; key and target cells come back as strings.  Returns None
    when loadtxt rejects a line (a wrong width, or a spelling only ``float()``
    accepts, such as ``1_0``), when its rows are not the remaining lines one
    for one (a quoted line break joins two lines), or when :func:`_checked`
    fails; :func:`_read_rows` then reads the same lines.
    """
    lines = list(filter(str.strip, lines))
    numeric = set(layout.features)
    dtype = [(f"c{k}", np.float64 if k in numeric else object) for k in range(layout.width)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt warns when it finds no rows
            table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                               quotechar='"', ndmin=1)
    except (ValueError, UserWarning):
        return None
    features = np.empty((table.size, len(layout.features)))
    for j, c in enumerate(layout.features):
        features[:, j] = table[f"c{c}"]
    if table.size != len(lines):
        return None
    checked = _checked(features, None if layout.target is None
                       else table[f"c{layout.target}"].tolist())
    if checked is None:
        return None
    return (table[f"c{layout.entity}"].tolist(), table[f"c{layout.period}"].tolist(), *checked)


def _cell_value(cell: str, name: str, lineno: int) -> float:
    """``float(cell)`` of a stripped cell; raise when it is non-numeric, non-finite or negative."""
    try:
        v = float(cell)
    except ValueError:
        raise ValidationError(f"line {lineno}, column {name!r}: non-numeric value {cell!r}") from None
    if not math.isfinite(v):
        raise ValidationError(f"line {lineno}, column {name!r}: non-finite value {cell!r}")
    if v < 0:
        raise ValidationError(f"line {lineno}, column {name!r}: negative value {v}")
    return v


def _read_rows(lines: list[str], layout: _Layout):
    """Keys, features and targets of the data lines, read one ``csv.reader`` row at a time.

    Blank rows are skipped.  Raises at the first fault in file order: a row
    of the wrong width, an (entity, period) key seen on an earlier line, or a
    bad feature or target cell.
    """
    features = np.empty((len(lines), len(layout.features)))
    targets = np.full(len(lines), math.nan)
    first_line: dict[tuple[str, str], int] = {}  # (entity, period) of each row, in file order
    columns = list(zip(layout.feature_names, layout.features))
    for lineno, row in enumerate(csv.reader(lines), start=2):
        if not row or all(c.strip() == "" for c in row):
            continue
        if len(row) != layout.width:
            raise ValidationError(f"line {lineno}: expected {layout.width} cells, found {len(row)}")
        key = (row[layout.entity].strip(), row[layout.period].strip())
        if key in first_line:
            raise ValidationError(
                f"line {lineno}: duplicate observation for entity {key[0]!r}, "
                f"period {key[1]!r} (first seen on line {first_line[key]})"
            )
        i = len(first_line)
        first_line[key] = lineno
        features[i] = [_cell_value(row[c].strip(), name, lineno) for name, c in columns]
        if layout.target is not None:
            cell = row[layout.target].strip()
            if cell not in _MISSING_TARGET:
                targets[i] = _cell_value(cell, "target", lineno)
    if not first_line:
        raise ValidationError("panel file has a header but no data rows")
    n = len(first_line)
    entities, periods = map(list, zip(*first_line))
    return entities, periods, features[:n], targets[:n]


def load_panel(source) -> PanelDataset:
    """Parse a comma-separated panel into a canonical :class:`PanelDataset`.

    The header names an ``entity`` and a ``period`` column and, optionally, a
    ``target`` column; every other column is a feature, in file order.  A file
    without a ``target`` column reads as one whose target cells are all empty.
    Validation is strict: a missing key column, duplicate (entity, period)
    pairs, non-numeric cells, and negative features or targets are all
    rejected with the offending row and column named; a file with several
    faults reports the first in file order.  Empty target cells are allowed
    and become NaN (forecast-only rows).  Blank lines are skipped.  Rows are
    parsed by ``np.loadtxt``, or one ``csv.reader`` row at a time when loadtxt
    cannot take them line for line.  Header names and key cells are stripped;
    key cells are converted once per distinct spelling: ``" E1 "`` and
    ``"E1"`` are one entity, and periods are ints when every spelling is one
    (``"2000"``, ``"+2000"``), else the stripped strings.  A path is read as
    UTF-8, with or without a byte-order mark.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            return load_panel(fh)

    row = next(csv.reader(source), None)  # the stream is left at its first data row
    if row is None:
        raise ValidationError("panel file is empty: header row is required")
    header = [h.strip() for h in row]
    twice = _first_repeat(header)
    if twice is not None:
        raise ValidationError(f"header names column {twice!r} twice")
    col_of = {name: i for i, name in enumerate(header)}
    for required in ("entity", "period"):
        if required not in col_of:
            raise ValidationError(f"required column {required!r} missing from header {header}")
    feature_names = [h for h in header if h not in ("entity", "period", "target")]
    if not feature_names:
        raise ValidationError(f"no feature columns in header {header}")

    layout = _Layout(
        width=len(header),
        entity=col_of["entity"],
        period=col_of["period"],
        target=col_of.get("target"),
        features=[col_of[name] for name in feature_names],
        feature_names=feature_names,
    )

    lines = list(source)  # the data rows, after the header
    raw_entities, raw_periods, features, targets = (_parse_lines(lines, layout)
                                                    or _read_rows(lines, layout))

    entities, entity_idx = _key_index(raw_entities, list)
    periods, period_idx = _key_index(raw_periods, _parse_periods)
    order = np.lexsort((period_idx, entity_idx))
    keys = (entity_idx * len(periods) + period_idx)[order]
    if not np.all(keys[1:] > keys[:-1]):  # a repeated (entity, period) sorts next to its twin
        _read_rows(lines, layout)  # names the line; "2000" vs "02000" is left to PanelDataset
    del lines

    return PanelDataset(
        entities=entities,
        periods=periods,
        feature_names=feature_names,
        entity_idx=entity_idx[order],
        period_idx=period_idx[order],
        features=features[order],
        targets=targets[order],
    )


def write_panel(data: PanelDataset, dest) -> None:
    """Write the canonical comma-separated panel: entity, period, target, features.

    A missing target is written as an empty cell.
    """
    write_table(
        dest,
        ["entity", "period", "target"] + list(data.feature_names),
        [*data.key_columns(), data.targets, *data.features.T],
        na="",
    )


def compute_emissions(data: PanelDataset, factors: EmissionFactorTable) -> PanelDataset:
    """Recompute every target as the factor-weighted sum of the features.

    Every feature must have a factor; features are left untouched.
    """
    if data.transform is not None:
        raise ValidationError("emission accounting must run on source-unit data")
    missing = [n for n in data.feature_names if n not in factors.factor_per_feature]
    if missing:
        raise ValidationError(f"no emission factor for features: {missing}")
    weights = np.array(
        [factors.factor_per_feature[n] for n in data.feature_names], dtype=np.float64
    )
    # each row summed alone, so that a row's target never depends on the other rows
    return replace(data, targets=(data.features * weights).sum(axis=1))


def log_transform(data: PanelDataset, spec: TransformSpec) -> PanelDataset:
    """Apply ``ln(x + offset)`` to features and any present targets."""
    if data.transform is not None:
        raise ValidationError("panel is already log-transformed")
    off = spec.log_offset
    if np.any(data.features + off <= 0):
        raise ValidationError(
            f"log transform undefined: some feature + offset ({off}) is <= 0"
        )
    have_target = ~np.isnan(data.targets)
    if np.any(data.targets[have_target] + off <= 0):
        raise ValidationError(
            f"log transform undefined: some target + offset ({off}) is <= 0"
        )
    targets = data.targets.copy()
    targets[have_target] = np.log(targets[have_target] + off)
    return replace(
        data,
        features=np.log(data.features + off),
        targets=targets,
        transform=spec,
    )


def invert_log(values: np.ndarray, spec: TransformSpec):
    """Inverse of the log transform: ``exp(v) - offset``."""
    return np.exp(values) - spec.log_offset


def energy_mix_features(data: PanelDataset) -> tuple[np.ndarray, list[int]]:
    """Clustering features from the consumption mix: each row divided by its sum.

    Returns (shares, flagged) where ``flagged`` holds the indices of rows
    whose feature sum is zero; those rows come out all-zero.
    """
    X = data.features
    sums = X.sum(axis=1)
    flagged = np.flatnonzero(sums == 0).tolist()
    out = np.divide(X, sums[:, None], out=np.zeros_like(X), where=(sums > 0)[:, None])
    return out, flagged

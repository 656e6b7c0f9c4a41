import csv
import dataclasses
import json
import re
import subprocess
import sys
import tracemalloc
import warnings
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest

from dprkit import pipeline, testkit
from dprkit.cli import _SETTINGS, _build_run, _parse_grid, _parse_periods, main
from dprkit.errors import ValidationError
from dprkit.panel import PanelDataset, load_panel, write_panel
from dprkit.pipeline import DprConfig, SplitSpec

INF = float("inf")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _synth(capsys, tmp_path, name="panel.csv", seed=11, spec="n_entities=8,n_periods=8,n_features=4,n_clusters=2"):
    path = tmp_path / name
    code, out, _ = run_cli(
        capsys, "synth", "--output", str(path), "--seed", str(seed), "--spec", spec
    )
    assert code == 0
    return path


def test_grid_syntax():
    assert _parse_grid("1,2.5,3") == [1.0, 2.5, 3.0]
    np.testing.assert_allclose(_parse_grid("logspace:-2:0:3"), [0.01, 0.1, 1.0])
    with pytest.raises(ValidationError):
        _parse_grid("1,banana")


def test_period_syntax():
    assert _parse_periods("2000-2002", [2000, 2001, 2002, 2003]) == [2000, 2001, 2002]
    assert _parse_periods("2000,2003", [2000, 2001, 2002, 2003]) == [2000, 2003]
    assert _parse_periods("a,b", ["a", "b", "c"]) == ["a", "b"]
    with pytest.raises(ValidationError):
        _parse_periods("2002-2000", [2000, 2001, 2002])


def test_missing_input_exits_1(capsys, tmp_path):
    out = tmp_path / "out"
    for argv in (["run", "--output-dir", str(out), "--eps", "0.5", "--min-pts", "3",
                  "--train-count", "6"],
                 ["forecast", "--model", str(tmp_path / "model.json"), "--output", str(out)]):
        code, stdout, err = run_cli(capsys, argv[0], "--input", str(tmp_path / "nope.csv"),
                                    *argv[1:])
        assert (code, stdout) == (1, "")
        assert err == f"error: input file not found: {tmp_path / 'nope.csv'}\n"
        assert not out.exists()


def test_usage_error_exits_1(capsys):
    code, stdout, err = run_cli(capsys, "run", "--penalty", "huber")
    assert (code, stdout) == (1, "")
    assert err == "error: the following arguments are required: --input, --output-dir\n"


def test_bad_penalty_exits_1(capsys, tmp_path):
    panel = _synth(capsys, tmp_path)
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, *_run_argv(panel, out, penalty="huber"))
    assert (code, stdout) == (1, "")
    assert err == "error: penalty must be one of ('ridge', 'lasso', 'elastic_net'), got 'huber'\n"
    assert not out.exists()


@pytest.mark.parametrize("key, flags", [
    ("eps_grid", ["--eps-grid", "", "--minpts-grid", "3"]),
    ("minpts_grid", ["--eps-grid", "0.2", "--minpts-grid", ""]),
])
def test_run_refuses_an_empty_scan_grid(capsys, tmp_path, key, flags):
    panel = _synth(capsys, tmp_path)
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "run", "--input", str(panel), "--output-dir", str(out),
                                *flags, "--train-count", "6")
    assert (code, stdout) == (1, "")
    assert err == f"error: {key} is empty\n"
    assert not out.exists()


def test_synth_ok_line_and_determinism(capsys, tmp_path):
    a = _synth(capsys, tmp_path, "a.csv")
    b = _synth(capsys, tmp_path, "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_synth_spec_repeated_key_exits_1(capsys, tmp_path):
    out = tmp_path / "p.csv"
    code, stdout, err = run_cli(capsys, "synth", "--output", str(out), "--spec", "seed=1,seed=2")
    assert code == 1 and stdout == ""
    assert "duplicate key 'seed'" in err
    assert not out.exists()


def test_ingest_with_factor_table(capsys, tmp_path):
    # a raw file without a target column: the factors supply every target
    raw = tmp_path / "raw.csv"
    raw.write_text("entity,period,coal,oil\nA,2000,2.0,1.0\n")
    factors = tmp_path / "factors.csv"
    factors.write_text("feature,factor\ncoal,2.5\noil,3.0\n")
    out = tmp_path / "canon.csv"
    code, stdout, _ = run_cli(
        capsys, "ingest", "--input", str(raw), "--output", str(out), "--factors", str(factors),
    )
    assert code == 0
    assert stdout == "ingest ok rows=1 entities=1 periods=1 features=2\n"
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["entity", "period", "target", "coal", "oil"]
    assert float(rows[1][2]) == 2.0 * 2.5 + 1.0 * 3.0


def test_json_artifacts_are_one_line_and_round_trip_bit_for_bit(capsys, tmp_path, monkeypatch):
    panel = _synth(capsys, tmp_path, seed=5)
    reports = []
    write_report = pipeline.write_report
    monkeypatch.setattr(pipeline, "write_report",
                        lambda report, out: (reports.append(report), write_report(report, out)))
    assert run_cli(capsys, "run", "--input", str(panel), "--output-dir", str(tmp_path / "run"),
                   "--eps", "0.2", "--min-pts", "3", "--penalty", "elastic_net",
                   "--alpha-grid", "0.5,1.0", "--lambda-grid", "logspace:-3:-1:3",
                   "--train-count", "6", "--folds", "3")[0] == 0
    written = sorted(tmp_path.glob("*/*.json"))
    assert [p.relative_to(tmp_path).as_posix() for p in written] == [
        "run/model.json", "run/summary.json"]
    for path in written:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text)) + "\n", path

    [report] = reports
    bundle = json.loads((tmp_path / "run" / "model.json").read_text(encoding="utf-8"))
    for stored, in_memory in [
        (bundle["clustering"]["core_points"], report.dpr_model.core_points),
        (bundle["regression"]["coefficients"], report.dpr_model.model.coefficients),
    ]:
        stored = np.asarray(stored, dtype=np.float64)
        assert stored.shape == in_memory.shape and stored.size > 0
        assert stored.tobytes() == in_memory.tobytes()


def test_rank_deficient_ridge_exits_2(capsys, tmp_path):
    # two identical feature columns and lam=0: every CV fold's fit is rank-deficient
    path = tmp_path / "p.csv"
    rows = ["entity,period,target,a,b"]
    rng = np.random.default_rng(0)
    for e in "ABCDEF":
        for t in (2000, 2001, 2002, 2003):
            v = rng.uniform(1, 5)
            rows.append(f"{e},{t},{v + 1:.6f},{v:.6f},{v:.6f}")
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "rd"
    code, stdout, err = run_cli(
        capsys, "run", "--input", str(path), "--output-dir", str(out),
        "--penalty", "ridge", "--lambda-grid", "0", "--eps", "0.2", "--min-pts", "3",
        "--train-count", "3", "--folds", "3",
    )
    assert (code, stdout) == (2, "")
    assert err == ("numerical error: stage cv: every cross-validation cell failed "
                   "(rank-deficient or unconverged fits); no usable hyperparameters\n")
    assert not out.exists()


def test_rank_deficient_ridge_path_fit_is_counted_by_run(capsys, tmp_path):
    # a duplicated feature column: ridge at lambda=0 has no unique solution
    path = tmp_path / "p.csv"
    rng = np.random.default_rng(1)
    rows = ["entity,period,target,a,b,c"]
    for e in "ABCDEF":
        for t in range(2000, 2008):
            a, c = rng.uniform(1, 5, size=2)
            rows.append(f"{e},{t},{a + 2 * c:.6f},{a:.6f},{a:.6f},{c:.6f}")
    path.write_text("\n".join(rows) + "\n")
    code, out, err = run_cli(
        capsys, "run", "--input", str(path), "--output-dir", str(tmp_path / "run"), "--plots",
        "--penalty", "ridge", "--lambda-grid", "0,0.01,0.1", "--eps", "0.2", "--min-pts", "3",
        "--train-count", "6", "--folds", "3",
    )
    assert code == 0, err
    assert out.rstrip().endswith(" unconverged_path_fits=1")
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["fit"]["unconverged_path_fits"] == 1
    assert summary["chosen"]["lambda"] > 0
    with (tmp_path / "run" / "plots" / "path_trajectories.csv").open() as fh:
        table = list(csv.reader(fh))
    assert [row[0] for row in table[1:]] == ["0.10000000000000001", "0.01", "0"]
    assert set(table[-1][1:]) == {"NA"}
    assert "NA" not in table[1] + table[2]
    with (tmp_path / "run" / "cv_table.csv").open() as fh:
        cells = {row["lambda"]: row["mean_mse"] for row in csv.DictReader(fh)}
    assert cells["0"] == "NA" and "NA" not in (cells["0.01"], cells["0.10000000000000001"])


def test_scan_and_suggestion(capsys, tmp_path):
    panel = _synth(capsys, tmp_path)
    out = tmp_path / "run"
    code, stdout, err = run_cli(
        capsys, "run", "--input", str(panel), "--output-dir", str(out),
        "--eps-grid", "0.05,0.1,0.3", "--minpts-grid", "3,4", "--penalty", "lasso",
        "--lambda-grid", "0.01,0.1", "--train-count", "6", "--folds", "3",
    )
    assert code == 0, err
    lines = (out / "scan.csv").read_text().splitlines()
    assert lines[0] == "eps,min_pts,k,sc,sse"
    assert len(lines) == 7
    # the run clusters at the first cell of the largest silhouette
    with (out / "scan.csv").open(newline="") as fh:
        best = max((row for row in csv.DictReader(fh) if row["sc"] != "NA"),
                   key=lambda row: float(row["sc"]))
    chosen = json.loads((out / "summary.json").read_text())["clustering"]
    assert (chosen["eps"], chosen["min_pts"], chosen["k"]) == (
        float(best["eps"]), int(best["min_pts"]), int(best["k"]))
    assert stdout.startswith(f"run ok k={best['k']} ")


def test_run_and_forecast_round_trip(capsys, tmp_path):
    panel = _synth(capsys, tmp_path, seed=5)
    outdir = tmp_path / "run"
    code, out, _ = run_cli(
        capsys, "run", "--input", str(panel), "--output-dir", str(outdir),
        "--eps", "0.2", "--min-pts", "3", "--penalty", "elastic_net",
        "--lambda-grid", "logspace:-4:-1:6", "--alpha-grid", "0.5,1.0",
        "--train-count", "6", "--folds", "4", "--plots",
    )
    assert code == 0 and "run ok" in out
    for name in ("clusters.csv", "cv_table.csv", "coefficients.csv", "fitted.csv",
                 "forecast.csv", "summary.json", "model.json"):
        assert (outdir / name).exists()
    # fitted.csv holds the actual and fitted log targets a scatter plot needs
    assert sorted(p.name for p in (outdir / "plots").iterdir()) == [
        "k_distance.csv", "path_trajectories.csv"]

    # standalone forecast of the run's test rows from the saved bundle
    # reproduces the run's forecast.csv byte for byte
    loaded = load_panel(panel)
    test_rows = tmp_path / "test_rows.csv"
    write_panel(loaded.subset_by_periods(loaded.periods[6:]), test_rows)
    code, out, _ = run_cli(
        capsys, "forecast", "--input", str(test_rows), "--model", str(outdir / "model.json"),
        "--output", str(tmp_path / "fc.csv"),
    )
    assert code == 0 and "forecast ok" in out
    assert (tmp_path / "fc.csv").read_bytes() == (outdir / "forecast.csv").read_bytes()


def _set(dotted, edit):
    """A bundle edit that replaces the field ``dotted`` with ``edit`` of its value."""
    def apply(bundle):
        *path, key = dotted.split(".")
        node = bundle
        for part in path:
            node = node[part]
        node[key] = edit(node[key])
        return bundle
    return apply


_STDS_VS_ZV = ("bad field 'regression.column_stds': expected 0 where zero_variance is true "
               "and > 0 elsewhere")


@pytest.mark.parametrize("edit, message", [
    (lambda b: {"format": pipeline.MODEL_FORMAT}, "missing field 'regression'"),
    (lambda b: [1, 2], "not a run model bundle"),
    (_set("format", lambda v: "dprkit-model-v1"), "bad field 'format': expected "
     "'dprkit-model-v4', got 'dprkit-model-v1'; rerun dprkit run to write one"),
    (_set("format", lambda v: "dprkit-model-v2"), "bad field 'format': expected "
     "'dprkit-model-v4', got 'dprkit-model-v2'; rerun dprkit run to write one"),
    # v3 recorded a penalty kind and a null alpha for ridge and lasso
    (_set("format", lambda v: "dprkit-model-v3"), "bad field 'format': expected "
     "'dprkit-model-v4', got 'dprkit-model-v3'; rerun dprkit run to write one"),
    (_set("regression.penalty.alpha", lambda v: None), "bad field 'regression.penalty': "
     "alpha must be in [0, 1], got None"),
    (_set("regression.penalty.alpha", lambda v: 1.5), "bad field 'regression.penalty': "
     "alpha must be in [0, 1], got 1.5"),
    (_set("regression.column_names", lambda v: v[:-1] + ["cluster_x"]),
     "bad field 'regression.column_names': "
     "'cluster_x' is not a cluster_<id> or noise_<row> column"),
    (_set("regression.column_names", lambda v: v[1:] + v[:1]),
     "bad field 'regression.column_names': the features do not come first"),
    # these ended in a traceback or were accepted
    (_set("clustering.core_labels", lambda v: INF), "bad field "
     "'clustering.core_labels': TypeError('expected integers, got float')"),
    (_set("clustering.core_labels", lambda v: v[:-1] + [max(v) + 1]),
     "bad field 'clustering.core_labels': not all in range(2)"),
    (_set("clustering.core_labels", lambda v: [-1] + v[1:]),
     "bad field 'clustering.core_labels': not all in range(2)"),
    (_set("regression.coefficients", lambda v: v[:-1]),
     "bad field 'regression.coefficients': expected 5 finite entries"),
    (_set("regression.column_stds", lambda v: v[:-1]),
     "bad field 'regression.column_stds': expected 5 finite entries"),
    (_set("regression.zero_variance", lambda v: []),
     "bad field 'regression.zero_variance': expected 5 finite entries"),
    (_set("regression.intercept", lambda v: INF),
     "bad field 'regression.intercept': expected a finite number"),
    (_set("regression.column_means", lambda v: v[:1] + [float("nan")] + v[2:]),
     "bad field 'regression.column_means': expected 5 finite entries"),
    (_set("regression.column_names", lambda v: "abc"),
     "bad field 'regression.column_names': TypeError('expected a list of strings')"),
    (_set("regression.penalty", lambda v: None), "bad field 'regression.penalty': "
     "TypeError(\"'NoneType' object is not subscriptable\")"),
    # these were accepted with a different forecast
    (_set("regression.column_stds", lambda v: [0.0] + v[1:]), _STDS_VS_ZV),
    (_set("regression.column_stds", lambda v: [-1.0] + v[1:]), _STDS_VS_ZV),
    (_set("regression.zero_variance", lambda v: [True] + v[1:]), _STDS_VS_ZV),
    # the clustering layer's message named neither the file nor the field
    (_set("clustering.core_points", lambda v: [[INF] + v[0][1:]] + v[1:]),
     "bad field 'clustering.core_points': expected finite entries"),
    # JSON's true was read as the number 1
    (_set("regression.intercept", lambda v: True),
     "bad field 'regression.intercept': TypeError('expected numbers, got bool')"),
    (_set("regression.coefficients", lambda v: [True] + v[1:]),
     "bad field 'regression.coefficients': TypeError('expected numbers, got bool, float')"),
    (_set("clustering.eps", lambda v: True),
     "bad field 'clustering.eps': TypeError('expected numbers, got bool')"),
    # read as str(), so 5, null and "x" were all accepted
    (_set("clustering.outlier_policy", lambda v: "x"),
     "bad field 'clustering.outlier_policy': "
     "outlier_policy must be one of ('unique_dummy', 'exclude'), got 'x'"),
    (_set("clustering.outlier_policy", lambda v: 5),
     "bad field 'clustering.outlier_policy': TypeError('expected a string')"),
], ids=["model-format-only", "model-list", "model-format-v1", "model-format-v2",
        "model-format-v3", "model-penalty-alpha-null", "model-penalty-alpha-out-of-range",
        "model-bad-dummy-name", "model-features-not-first",
        "model-core-labels-inf", "model-core-label-k",
        "model-core-label-negative", "model-coefficients-short", "model-column-stds-short",
        "model-zero-variance-empty", "model-intercept-inf", "model-column-mean-nan",
        "model-column-names-text", "model-penalty-null", "model-column-std-zero",
        "model-column-std-negative", "model-zero-variance-flipped", "model-core-point-inf",
        "model-intercept-true", "model-coefficient-true", "model-eps-true",
        "model-outlier-policy-text", "model-outlier-policy-number"])
def test_malformed_bundle_is_one_error_line(capsys, tmp_path, edit, message):
    panel = _synth(capsys, tmp_path, seed=5)
    code, _, _ = run_cli(
        capsys, "run", "--input", str(panel), "--output-dir", str(tmp_path / "run"),
        "--eps", "0.2", "--min-pts", "3", "--penalty", "lasso",
        "--lambda-grid", "logspace:-3:-1:3", "--train-count", "6", "--folds", "3",
    )
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(json.loads((tmp_path / "run" / "model.json").read_text()))))
    code, out, err = run_cli(capsys, "forecast", "--input", str(panel), "--model", str(bad),
                             "--output", str(tmp_path / "fc.csv"))
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {bad}: {message}"]


def _field_paths(node, prefix=()):
    """The key path of every field of a JSON record, nested records' fields included."""
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


def _mutations(bundle):
    """``(label, bundle)`` for each single-field corruption of ``bundle``."""
    for path in _field_paths(bundle):
        value = reduce(getitem, path, bundle)
        wrong = [None, "x", INF, [], {}, True]
        if isinstance(value, list) and value:
            wrong += [value[:-1], value + value[-1:]]
        for new in wrong:
            mutated = json.loads(json.dumps(bundle))
            reduce(getitem, path[:-1], mutated)[path[-1]] = new
            yield f"{'.'.join(path)}={json.dumps(new)[:20]}", mutated


def test_every_single_field_corruption_is_harmless_or_one_error_line(capsys, tmp_path):
    # each corruption of a real model.json either changes no forecast byte or exits 1
    # with one stderr line that names the file and then, once, a field; none
    # ends in a traceback
    panel = _synth(capsys, tmp_path, seed=5)
    assert run_cli(capsys, "run", "--input", str(panel), "--output-dir", str(tmp_path / "run"),
                   "--eps", "0.2", "--min-pts", "3", "--penalty", "lasso",
                   "--lambda-grid", "logspace:-3:-1:3", "--train-count", "6",
                   "--folds", "3")[0] == 0
    bad = tmp_path / "bad.json"
    out = tmp_path / "forecast.csv"
    argv = ["forecast", "--input", str(panel), "--model", str(bad), "--output", str(out)]
    bundle = json.loads((tmp_path / "run" / "model.json").read_text())
    bad.write_text(json.dumps(bundle))
    expected = run_cli(capsys, *argv)[:2], out.read_bytes()
    mutations = list(_mutations(bundle))
    # k is unread by forecasting, but the cluster columns must be range(1, k):
    # cluster 0 is the baseline and has none
    k = bundle["clustering"]["k"]
    names = bundle["regression"]["column_names"]
    assert "cluster_1" in names and "cluster_0" not in names
    named = {}  # label -> what its one error line must say
    for label, path, value, says in (
        (f"clustering.k={k + 1}", ("clustering", "k"), k + 1,
         f"bad field 'clustering.k': the cluster columns of regression.column_names "
         f"are {list(range(1, k))}, not range(1, {k + 1})"),
        ("clustering.k=99", ("clustering", "k"), 99, "'clustering.k'"),
        ("regression.column_names: cluster_0 for cluster_1",
         ("regression", "column_names"),
         [c.replace("cluster_1", "cluster_0") for c in names], "'clustering.k'"),
    ):
        mutated = json.loads(json.dumps(bundle))
        mutated[path[0]][path[1]] = value
        mutations.append((label, mutated))
        named[label] = says
    harmless = rejected = 0
    for label, mutated in mutations:
        out.unlink(missing_ok=True)
        bad.write_text(json.dumps(mutated))
        code, stdout, err = run_cli(capsys, *argv)
        if code == 0 and label not in named:
            assert ((code, stdout), out.read_bytes()) == expected, (
                f"{label}: accepted with a different output")
            harmless += 1
        else:
            assert (code, stdout) == (1, ""), f"{label}: exit {code}"
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].count(" field") == 1, f"{label}: {err!r}"
            assert re.match(rf"error: {re.escape(str(bad))}: (bad|missing) fields? '",
                            lines[0]), f"{label}: {err!r}"
            assert named.get(label, "") in lines[0], f"{label}: {err!r}"
            rejected += 1
    assert harmless and rejected


def test_forecast_of_any_subset_of_rows_writes_those_rows_of_the_full_forecast(capsys,
                                                                              tmp_path):
    # a row's cluster and forecast come from that row and the model alone, never from the
    # other rows of the input
    panel = _synth(capsys, tmp_path, seed=3)
    code, _, err = run_cli(
        capsys, "run", "--input", str(panel), "--output-dir", str(tmp_path / "run"),
        "--eps", "0.2", "--min-pts", "3", "--penalty", "lasso",
        "--lambda-grid", "logspace:-3:-1:3", "--train-count", "6", "--folds", "3",
    )
    assert code == 0, err
    loaded = load_panel(panel)
    test = loaded.subset_by_periods(loaded.periods[6:])
    # an entity absent from training: the first entity's test rows, each cell rescaled
    first = np.flatnonzero(test.entity_idx == 0)
    scale = np.random.default_rng(0).uniform(0.2, 5.0, size=(first.size, test.n_features))
    rows = PanelDataset(
        entities=test.entities + ["new"], periods=test.periods,
        feature_names=test.feature_names,
        entity_idx=np.concatenate([test.entity_idx, np.full(first.size, len(test.entities))]),
        period_idx=np.concatenate([test.period_idx, test.period_idx[first]]),
        features=np.vstack([test.features, test.features[first] * scale]),
        targets=np.concatenate([test.targets, test.targets[first]]),
    )

    def forecast(keep, name):
        """The forecast.csv lines of the rows whose (entity, period) ``keep`` takes."""
        idx = [i for i, key in enumerate(rows.row_keys()) if keep(*key)]
        part = PanelDataset(
            entities=rows.entities, periods=rows.periods, feature_names=rows.feature_names,
            entity_idx=rows.entity_idx[idx], period_idx=rows.period_idx[idx],
            features=rows.features[idx], targets=rows.targets[idx])
        write_panel(part, tmp_path / f"{name}.csv")
        code, _, err = run_cli(capsys, "forecast", "--input", str(tmp_path / f"{name}.csv"),
                               "--model", str(tmp_path / "run" / "model.json"),
                               "--output", str(tmp_path / f"{name}-fc.csv"))
        assert code == 0, err
        lines = (tmp_path / f"{name}-fc.csv").read_bytes().splitlines(keepends=True)
        assert len(lines) == len(idx) + 1
        return lines

    full = forecast(lambda e, p: True, "all")
    header, by_key = full[0], dict(zip(rows.row_keys(), full[1:]))
    subsets = {f"period-{p}": lambda e, p0, p=p: p0 == p for p in test.periods}
    subsets["entity-E000"] = lambda e, p: e == "E000"
    subsets["entity-new"] = lambda e, p: e == "new"
    for name, keep in subsets.items():
        want = [header] + [line for key, line in by_key.items() if keep(*key)]
        assert forecast(keep, name) == want, name


def test_a_forecast_row_is_the_same_bytes_in_any_batch(capsys, tmp_path):
    """On the paper's shape (17 features and 16 categories: a design well over 11 columns
    wide) a row's forecast line is the same whatever other rows, and in whatever order,
    its file holds."""
    panel = _synth(capsys, tmp_path, seed=1,
                   spec="n_entities=46,n_periods=20,n_features=17,n_clusters=16")
    code, _, err = run_cli(
        capsys, "run", "--input", str(panel), "--output-dir", str(tmp_path / "run"),
        "--eps", "0.1", "--min-pts", "4", "--penalty", "lasso",
        "--lambda-grid", "logspace:-4:-2:3", "--train-count", "13", "--folds", "3",
    )
    assert code == 0, err
    loaded = load_panel(panel)
    write_panel(loaded.subset_by_periods(loaded.periods[13:]), tmp_path / "test.csv")
    header, *rows = (tmp_path / "test.csv").read_text().splitlines(keepends=True)

    def forecast(lines, name):
        """forecast.csv's data lines for a panel file of ``lines``, by (entity, period)."""
        (tmp_path / f"{name}.csv").write_text(header + "".join(lines))
        code, _, err = run_cli(capsys, "forecast", "--input", str(tmp_path / f"{name}.csv"),
                               "--model", str(tmp_path / "run" / "model.json"),
                               "--output", str(tmp_path / f"{name}-fc.csv"))
        assert code == 0, err
        out = (tmp_path / f"{name}-fc.csv").read_text().splitlines(keepends=True)[1:]
        assert len(out) == len(lines)
        return {tuple(line.split(",", 2)[:2]): line for line in out}

    full = forecast(rows, "full")
    assert ((tmp_path / "full-fc.csv").read_bytes()
            == (tmp_path / "run" / "forecast.csv").read_bytes())
    rng = np.random.default_rng(0)
    batches = [rows[:m] for m in range(1, 10)] + [rows[-m:] for m in (1, 3, 5, 7)]
    batches += [[rows[i] for i in rng.choice(len(rows), size=m, replace=False)]
                for m in rng.integers(1, 60, size=12)]
    batches += [[rows[i] for i in rng.permutation(len(rows))] for _ in range(3)]
    for b, lines in enumerate(batches):
        got = forecast(lines, f"batch{b}")
        assert got == {key: full[key] for key in got}, f"batch {b} of {len(lines)} rows"


def test_forecast_reads_new_observations_without_a_target_column(capsys, tmp_path):
    """A panel without a target column forecasts as one whose target cells are all empty."""
    panel = _synth(capsys, tmp_path, seed=5)
    outdir = tmp_path / "run"
    code, _, _ = run_cli(
        capsys, "run", "--input", str(panel), "--output-dir", str(outdir),
        "--eps", "0.2", "--min-pts", "3", "--penalty", "lasso",
        "--lambda-grid", "logspace:-3:-1:3", "--train-count", "6", "--folds", "3",
    )
    assert code == 0
    loaded = load_panel(panel)
    new = loaded.subset_by_periods(loaded.periods[6:])
    new.targets[:] = np.nan
    write_panel(new, tmp_path / "empty_target.csv")
    with open(tmp_path / "empty_target.csv", newline="") as fh:
        rows = [r[:2] + r[3:] for r in csv.reader(fh)]
    assert rows[0][:3] == ["entity", "period", "f00"]
    with open(tmp_path / "no_target.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    outs = []
    for name in ("empty_target", "no_target"):
        code, out, err = run_cli(
            capsys, "forecast", "--input", str(tmp_path / f"{name}.csv"),
            "--model", str(outdir / "model.json"), "--output", str(tmp_path / f"{name}_fc.csv"),
        )
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].startswith("forecast ok rows=16 ")
    assert outs[0].endswith(" mean_error=NA error_variance=NA\n")
    assert ((tmp_path / "no_target_fc.csv").read_bytes()
            == (tmp_path / "empty_target_fc.csv").read_bytes())
    with open(tmp_path / "no_target_fc.csv", newline="") as fh:
        assert {r["actual_log"] for r in csv.DictReader(fh)} == {"NA"}
    # run refuses it at its design stage, as it refuses an all-empty target column
    code, out, err = run_cli(
        capsys, "run", "--input", str(tmp_path / "no_target.csv"),
        "--output-dir", str(tmp_path / "no_target_run"), "--eps", "0.2", "--min-pts", "3",
        "--penalty", "lasso", "--train-count", "1", "--folds", "2",
    )
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert "stage design" in err and "lack a target" in err
    assert not (tmp_path / "no_target_run").exists()


def test_forecast_without_core_points_flags_every_row_noise(capsys, tmp_path):
    # min_pts above the 48 training rows: no core point, so k=0 and all rows are noise
    panel = _synth(capsys, tmp_path, seed=5)
    outdir = tmp_path / "run"
    code, out, _ = run_cli(
        capsys, "run", "--input", str(panel), "--output-dir", str(outdir),
        "--eps", "0.2", "--min-pts", "100", "--penalty", "ridge",
        "--lambda-grid", "logspace:-3:-1:3", "--train-count", "6", "--folds", "3",
    )
    assert code == 0 and out.startswith("run ok k=0 noise=48 ")
    assert json.loads((outdir / "model.json").read_text())["clustering"]["core_points"] == []
    loaded = load_panel(panel)
    test_rows = tmp_path / "test_rows.csv"
    write_panel(loaded.subset_by_periods(loaded.periods[6:]), test_rows)
    code, out, _ = run_cli(
        capsys, "forecast", "--input", str(test_rows), "--model", str(outdir / "model.json"),
        "--output", str(tmp_path / "fc.csv"),
    )
    assert code == 0 and " noise_rows=16 " in out
    assert (tmp_path / "fc.csv").read_bytes() == (outdir / "forecast.csv").read_bytes()
    with open(tmp_path / "fc.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    assert all((r["cluster"], r["noise_row"]) == ("-1", "1") for r in rows)


def test_forecast_memory_stays_bounded(capsys, tmp_path):
    """Peak traced allocation of `dprkit forecast` on a 20,000-row panel.

    The forecast holds a few float arrays per row and formats and writes
    its table in row blocks: ~10 MiB here, where a forecast that builds a
    Python object per row and per cell peaks at ~17 MiB.
    """
    spec = dict(n_features=6, n_clusters=6)
    fit_panel, _ = testkit.generate_panel(
        testkit.SyntheticSpec(n_entities=46, n_periods=20, seed=3, **spec))
    write_panel(fit_panel, tmp_path / "fit.csv")
    code, _, _ = run_cli(
        capsys, "run", "--input", str(tmp_path / "fit.csv"), "--output-dir",
        str(tmp_path / "run"), "--eps", "0.15", "--min-pts", "4", "--penalty", "lasso",
        "--lambda-grid", "logspace:-3:-1:3", "--train-count", "13", "--folds", "3",
    )
    assert code == 0
    batch, _ = testkit.generate_panel(
        testkit.SyntheticSpec(n_entities=1000, n_periods=20, seed=4, **spec))
    write_panel(batch, tmp_path / "batch.csv")
    argv = ["forecast", "--input", str(tmp_path / "batch.csv"),
            "--model", str(tmp_path / "run" / "model.json"), "--output", str(tmp_path / "fc.csv")]
    assert run_cli(capsys, *argv)[0] == 0  # loads what a first call loads
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 12 * 2**20, f"forecast peaked at {peak / 2**20:.1f} MiB"


def test_run_is_reproducible_byte_for_byte(capsys, tmp_path):
    panel = _synth(capsys, tmp_path, seed=8)
    args = [
        "run", "--input", str(panel), "--eps", "0.2", "--min-pts", "3",
        "--penalty", "lasso", "--lambda-grid", "logspace:-4:-1:5",
        "--train-count", "6", "--folds", "3",
    ]
    for d in ("r1", "r2"):
        code, *_ = run_cli(capsys, *args, "--output-dir", str(tmp_path / d))
        assert code == 0
    for p1 in sorted((tmp_path / "r1").iterdir()):
        p2 = tmp_path / "r2" / p1.name
        assert p2.read_bytes() == p1.read_bytes(), p1.name


_QUICK_START_SPLIT = ["--lambda-grid", "logspace:-4:-1:12", "--train-periods", "2000-2008",
                      "--test-periods", "2009-2011", "--folds", "5"]


# the README's fixed-eps elastic net, and a scanning run: ridge, since the scan
# picks a mostly-noise cell whose wide design makes the elastic net slow
@pytest.mark.parametrize("settings", [
    ["--eps", "0.05", "--min-pts", "4", "--penalty", "elastic_net", "--alpha-grid", "0.3,0.5,1.0"],
    ["--eps-grid", "0.03,0.05,0.1,0.2", "--minpts-grid", "3,4,5", "--penalty", "ridge"],
], ids=["fixed", "scan"])
def test_reordering_the_input_rows_changes_no_artifact(capsys, tmp_path, settings):
    panel = _synth(capsys, tmp_path, seed=42,
                   spec="n_entities=20,n_periods=12,n_features=8,n_clusters=4")
    header, *rows = panel.read_text().splitlines(keepends=True)
    shuffled = tmp_path / "shuffled.csv"
    order = np.random.default_rng(0).permutation(len(rows))
    shuffled.write_text(header + "".join(rows[i] for i in order))
    assert shuffled.read_text() != panel.read_text()
    outs = []
    for src in (panel, shuffled):
        code, out, err = run_cli(capsys, "run", "--input", str(src), "--plots", *settings,
                                 *_QUICK_START_SPLIT, "--output-dir", str(tmp_path / src.stem))
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    assert _files(tmp_path / "panel") == _files(tmp_path / "shuffled")


def test_config_file_with_flag_override(capsys, tmp_path):
    panel = _synth(capsys, tmp_path, seed=3)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# run settings\n"
        "penalty=ridge\n"
        "lambda_grid=0.1,0.5\n"
        "eps=0.2\n"
        "min_pts=3\n"
        "train_count=6\n"
        "folds=3   # trailing comment\n"
    )
    out1 = tmp_path / "from_cfg"
    code, out, _ = run_cli(
        capsys, "run", "--input", str(panel), "--output-dir", str(out1),
        "--config", str(cfg),
    )
    assert code == 0
    assert json.loads((out1 / "summary.json").read_text())["chosen"]["kind"] == "ridge"

    out2 = tmp_path / "overridden"
    code, out, _ = run_cli(
        capsys, "run", "--input", str(panel), "--output-dir", str(out2),
        "--config", str(cfg), "--penalty", "lasso",
        "--lambda-grid", "logspace:-4:-2:4",
    )
    assert code == 0
    assert json.loads((out2 / "summary.json").read_text())["chosen"]["kind"] == "lasso"


def test_config_file_errors(capsys, tmp_path):
    panel = _synth(capsys, tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense_key=1\n")
    code, _, err = run_cli(
        capsys, "run", "--input", str(panel), "--output-dir", str(tmp_path / "x"),
        "--config", str(cfg),
    )
    assert code == 1
    assert "nonsense_key" in err

    cfg.write_text("penalty ridge\n")
    code, _, err = run_cli(
        capsys, "run", "--input", str(panel), "--output-dir", str(tmp_path / "x"),
        "--config", str(cfg),
    )
    assert code == 1
    assert "key=value" in err

    # settings that no longer exist are unknown keys, not silently ignored
    for line in ("fold_mode=periods", "holdout_periods=2", "refit_clusters_full=1"):
        cfg.write_text(f"train_count=6\neps=0.2\nmin_pts=3\n{line}\n")
        code, _, err = run_cli(
            capsys, "run", "--input", str(panel), "--output-dir", str(tmp_path / "x"),
            "--config", str(cfg),
        )
        assert code == 1
        assert line.split("=")[0] in err


# Two runs that between them set every run setting: a fixed eps/min_pts run
# with period lists, and a scanning run with a period count.
_FIXED_RUN = {
    "penalty": "elastic_net", "lambda_grid": "logspace:-4:-1:5", "alpha_grid": "0.5,1.0",
    "eps": "0.05", "min_pts": "4",
    "log_offset": "0.5", "outlier_policy": "unique_dummy", "folds": "3",
    "train_periods": "2000-2005", "test_periods": "2006,2007",
}
_SCAN_RUN = {
    "penalty": "lasso", "lambda_grid": "0.001,0.01,0.1", "eps_grid": "0.05,0.1,0.2",
    "minpts_grid": "4,5", "log_offset": "1",
    "outlier_policy": "exclude", "folds": "4", "train_count": "6",
}


def _as_flags(settings):
    argv = []
    for key, value in settings.items():
        argv += ["--" + key.replace("_", "-"), value]
    return argv


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("settings", [_FIXED_RUN, _SCAN_RUN], ids=["fixed", "scan"])
def test_config_file_and_flags_write_the_same_run(capsys, tmp_path, settings):
    assert set(_FIXED_RUN) | set(_SCAN_RUN) == set(_SETTINGS)
    panel = _synth(capsys, tmp_path, seed=4)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    base = ["run", "--input", str(panel), "--plots", "--output-dir"]
    code, from_cfg, err = run_cli(capsys, *base, str(tmp_path / "cfg"), "--config", str(cfg))
    assert code == 0, err
    code, from_flags, err = run_cli(capsys, *base, str(tmp_path / "flags"), *_as_flags(settings))
    assert code == 0, err
    assert from_cfg == from_flags
    assert _files(tmp_path / "cfg") == _files(tmp_path / "flags")
    # and the settings reached the run
    bundle = json.loads((tmp_path / "cfg" / "model.json").read_text())
    summary = json.loads((tmp_path / "cfg" / "summary.json").read_text())
    assert bundle["transform"]["log_offset"] == float(settings["log_offset"])
    assert bundle["clustering"]["outlier_policy"] == settings["outlier_policy"]
    assert summary["chosen"]["kind"] == settings["penalty"]
    assert summary["split"]["cv_folds"] == int(settings["folds"])


@pytest.mark.parametrize("source", ["flag", "config", "both"])
@pytest.mark.parametrize("periods", [
    {"train_periods": "2000-2002", "test_periods": "2003-2004"},
    {"train_periods": "2000-2005"}, {"test_periods": "2006,2007"},
], ids=["both-lists", "train-list", "test-list"])
def test_run_refuses_a_train_count_with_period_lists(capsys, tmp_path, periods, source):
    # the count won and the period lists were dropped: the run trained on 2000-2005
    panel = _synth(capsys, tmp_path)
    settings = {"eps": "0.2", "min_pts": "3", "train_count": "6", **periods}
    out = tmp_path / "out"
    argv = ["run", "--input", str(panel), "--output-dir", str(out)]
    if source == "flag":
        argv += _as_flags(settings)
    else:
        # "both": the count in the config file, the period lists as flags
        in_file = settings if source == "config" else {"train_count": "6"}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in in_file.items()))
        argv += ["--config", str(cfg)] + _as_flags(
            {k: v for k, v in settings.items() if k not in in_file})
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert err.splitlines() == ["error: give train_count, or train_periods and test_periods, "
                                f"not both; got train_count, {', '.join(periods)}"]
    assert not out.exists()


def test_unset_run_settings_take_the_dataclass_defaults():
    panel, _ = testkit.generate_panel(testkit.SyntheticSpec())
    config, split = _build_run({"eps": "0.2", "min_pts": "3", "train_count": "6"}, panel)
    assert config == DprConfig(eps=0.2, min_pts=3)
    assert split == SplitSpec(tuple(panel.periods[:6]), tuple(panel.periods[6:]))


_MALFORMED = [("eps", "0.2x"), ("min_pts", "3.5"), ("log_offset", "one"),
              ("folds", "3.0"), ("train_count", "six")]


@pytest.mark.parametrize("key, bad, source", [
    (key, bad, source) for key, bad in _MALFORMED for source in ("flag", "config")
])
def test_malformed_run_setting_exits_1_naming_it(capsys, tmp_path, key, bad, source):
    panel = _synth(capsys, tmp_path)
    settings = {"eps": "0.2", "min_pts": "3", "train_count": "6", key: bad}
    out = tmp_path / "out"
    argv = ["run", "--input", str(panel), "--output-dir", str(out)]
    if source == "flag":
        argv += _as_flags(settings)
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
        argv += ["--config", str(cfg)]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 1 and stdout == ""
    assert f"bad value {key}={bad!r}" in err
    assert not out.exists()


def test_run_without_split_settings_exits_1(capsys, tmp_path):
    panel = _synth(capsys, tmp_path)
    code, _, err = run_cli(
        capsys, "run", "--input", str(panel), "--output-dir", str(tmp_path / "y"),
        "--eps", "0.2", "--min-pts", "3",
    )
    assert code == 1
    assert "train" in err


@pytest.mark.parametrize("penalty, alpha_grid", [
    ("ridge", None), ("lasso", None), ("elastic_net", "0.5,1.0"),
])
def test_every_fit_of_a_run_goes_through_fit_elastic_net(capsys, tmp_path, monkeypatch,
                                                          penalty, alpha_grid):
    # the one fitter, by the name benchmarks and tests wrap to count fits
    panel = _synth(capsys, tmp_path)
    fit, fit_alphas = pipeline.fit_elastic_net, []
    monkeypatch.setattr(pipeline, "fit_elastic_net",
                        lambda dm, penalty, *a, **kw: fit_alphas.append(penalty.alpha)
                        or fit(dm, penalty, *a, **kw))
    alphas = [] if alpha_grid is None else ["--alpha-grid", alpha_grid]
    code, _, _ = run_cli(
        capsys, "run", "--input", str(panel), "--output-dir", str(tmp_path / "run"),
        "--eps", "0.2", "--min-pts", "3", "--penalty", penalty,
        "--lambda-grid", "logspace:-3:-1:4", *alphas, "--train-count", "6", "--folds", "3",
    )
    assert code == 0
    cells = 4 * (1 if alpha_grid is None else 2)
    # 3 folds x the CV cells, then the run's own path over the 4 lambdas, each
    # fit at an alpha the penalty spells
    assert len(fit_alphas) == 3 * cells + 4
    assert set(fit_alphas) == {"ridge": {0.0}, "lasso": {1.0}, "elastic_net": {0.5, 1.0}}[penalty]


def _penalty_run(capsys, tmp_path, panel, name, *penalty):
    out = tmp_path / name
    code, _, err = run_cli(
        capsys, "run", "--input", str(panel), "--output-dir", str(out), "--plots",
        "--eps", "0.2", "--min-pts", "3", "--lambda-grid", "logspace:-3:-1:4",
        "--train-count", "6", "--folds", "3", *penalty,
    )
    assert code == 0, err
    return out


@pytest.mark.parametrize("kind, alpha", [("lasso", "1"), ("ridge", "0")])
def test_ridge_and_lasso_spell_a_grid_of_one_alpha(capsys, tmp_path, kind, alpha):
    panel = _synth(capsys, tmp_path)
    spelled = _files(_penalty_run(capsys, tmp_path, panel, kind, "--penalty", kind))
    grid = _files(_penalty_run(capsys, tmp_path, panel, "grid", "--penalty", "elastic_net",
                               "--alpha-grid", alpha))
    summary = Path("summary.json")
    spelled_summary, grid_summary = spelled.pop(summary), grid.pop(summary)
    assert spelled == grid
    # summary.json records the penalty as given, and nothing else differs
    assert json.loads(spelled_summary)["chosen"]["alpha"] == float(alpha)
    assert spelled_summary.replace(b'"kind": "%s"' % kind.encode(),
                                   b'"kind": "elastic_net"') == grid_summary


def _cv_rows(out, alpha):
    rows = csv.DictReader((out / "cv_table.csv").open(newline=""))
    return [r for r in rows if r.pop("alpha") == alpha]


def test_an_elastic_net_grid_holds_the_lasso_and_ridge_cells(capsys, tmp_path):
    panel = _synth(capsys, tmp_path)
    lasso = _cv_rows(_penalty_run(capsys, tmp_path, panel, "lasso", "--penalty", "lasso"), "1")
    ridge = _cv_rows(_penalty_run(capsys, tmp_path, panel, "ridge", "--penalty", "ridge"), "0")
    assert len(lasso) == len(ridge) == 4
    # alpha 1 first walks the lasso's cold chain and alpha 0 is closed form: bit for bit
    down = _penalty_run(capsys, tmp_path, panel, "down", "--alpha-grid", "1,0.5,0")
    assert (_cv_rows(down, "1"), _cv_rows(down, "0")) == (lasso, ridge)
    # last, alpha 1 starts warm from alpha 0.5: the same exact solutions, to roundoff
    up = _penalty_run(capsys, tmp_path, panel, "up", "--alpha-grid", "0,0.5,1")
    assert _cv_rows(up, "0") == ridge
    warm = _cv_rows(up, "1")
    assert [r["lambda"] for r in warm] == [r["lambda"] for r in lasso]
    for got, want in zip(warm, lasso):
        for key in ("mean_mse", "mean_r2"):
            assert float(got[key]) == pytest.approx(float(want[key]), rel=1e-12, abs=0)


def test_unconverged_path_fit_stops_path_and_is_named_by_run(capsys, tmp_path, monkeypatch):
    panel = _synth(capsys, tmp_path)
    fit = pipeline.fit_elastic_net

    def one_cold_step_at_the_smallest_lambda(dm, penalty, warm_start=None, **kw):
        # the run trains on 6 of 8 periods: only its own path (48 rows) is hit,
        # never a CV fold's chain
        if penalty.lam < 2e-4 and dm.n >= 48:
            warm_start, kw["max_iter"] = None, 1
        return fit(dm, penalty, warm_start, **kw)

    monkeypatch.setattr(pipeline, "fit_elastic_net", one_cold_step_at_the_smallest_lambda)
    args = ["run", "--input", str(panel), "--eps", "0.2", "--min-pts", "3",
            "--penalty", "lasso", "--train-count", "6", "--folds", "3"]
    # the smallest lambda alone: CV must choose it, and its path fit is the final model
    code, out, err = run_cli(capsys, *args, "--lambda-grid", "0.0001",
                             "--output-dir", str(tmp_path / "r0"))
    assert (code, out) == (2, "")
    assert err == ("numerical error: stage path: fit at the chosen lambda=0.0001 "
                   "did not converge in 1 steps\n")
    assert not (tmp_path / "r0").exists()

    args += ["--lambda-grid", "logspace:-4:-1:5"]
    code, out, _ = run_cli(capsys, *args, "--output-dir", str(tmp_path / "r1"))
    assert code == 0
    summary = json.loads((tmp_path / "r1" / "summary.json").read_text())
    assert summary["chosen"]["lambda"] > 2e-4
    assert summary["fit"]["unconverged_path_fits"] == 1
    assert out.startswith("run ok ") and out.rstrip().endswith(" unconverged_path_fits=1")

    monkeypatch.setattr(pipeline, "fit_elastic_net", fit)
    code, out, _ = run_cli(capsys, *args, "--output-dir", str(tmp_path / "r2"))
    assert code == 0 and "unconverged" not in out
    clean = json.loads((tmp_path / "r2" / "summary.json").read_text())
    assert clean["fit"].pop("unconverged_path_fits") == 0
    del summary["fit"]["unconverged_path_fits"]
    assert clean == summary  # the count is the only difference
    for p1 in sorted((tmp_path / "r1").iterdir()):
        if p1.name not in ("plots", "summary.json"):
            assert (tmp_path / "r2" / p1.name).read_bytes() == p1.read_bytes(), p1.name


def test_cli_and_testkit_imports_leave_out_scipy_optimize():
    # no scipy module at all: pdist, cKDTree, csgraph and scipy.optimize load at first use
    code = ("import sys, dprkit.cli, dprkit.testkit; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]", f"importing dprkit loaded {out.strip()}"


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("kind", ["ridge", "lasso"])
def test_run_rejects_an_alpha_grid_unless_elastic_net(capsys, tmp_path, kind, source):
    panel = _synth(capsys, tmp_path)
    settings = {"penalty": kind, "alpha_grid": "0.5", "eps": "0.2", "min_pts": "3",
                "train_count": "6"}
    out = tmp_path / "out"
    argv = ["run", "--input", str(panel), "--output-dir", str(out)]
    if source == "flag":
        argv += _as_flags(settings)
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
        argv += ["--config", str(cfg)]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 1 and stdout == ""
    assert f"alpha_grid is only valid for elastic_net, not {kind}" in err
    assert not out.exists()


def test_repeated_grid_values_are_fitted_and_listed_once(capsys, tmp_path, monkeypatch):
    panel = _synth(capsys, tmp_path)
    chains = []
    chain = pipeline.regularization_path

    def counted(dm, lambdas, *args, **kw):
        chains.append(list(lambdas))
        return chain(dm, lambdas, *args, **kw)

    monkeypatch.setattr(pipeline, "regularization_path", counted)
    written = {}
    for name, lams, alphas, eps, min_pts in [
        ("once", "0.1,0.01", "0.5,1", "0.1,0.2", "3,4"),
        ("twice", "0.1,0.01,0.1", "0.5,1,0.5", "0.1,0.2,0.1", "3,4,3,3"),
    ]:
        chains.clear()
        code, run_line, err = run_cli(
            capsys, "run", "--input", str(panel), "--output-dir", str(tmp_path / name),
            "--penalty", "elastic_net", "--lambda-grid", lams, "--alpha-grid", alphas,
            "--eps-grid", eps, "--minpts-grid", min_pts, "--train-count", "6", "--folds", "3")
        assert code == 0, err
        written[name] = (run_line, list(chains), _files(tmp_path / name))
    assert written["twice"] == written["once"]
    _, chains_once, files = written["once"]
    assert [len(files[Path(f)].splitlines()) for f in ("scan.csv", "cv_table.csv")] == [5, 5]
    # one chain per fold and alpha, then the run's own path
    assert chains_once == [[0.1, 0.01]] * 7


@pytest.mark.parametrize("spec, message", [
    ("mix_profiles=1", "synth field 'mix_profiles' cannot be set from --spec"),
    ("true_coefficients=0.5", "synth field 'true_coefficients' cannot be set from --spec"),
    ("n_entities=3.5", "synth field n_entities='3.5' must be int"),
    ("noise_sd=low", "synth field noise_sd='low' must be float"),
], ids=["mix_profiles", "true_coefficients", "int-field", "float-field"])
def test_synth_spec_takes_the_type_of_each_fields_default(capsys, tmp_path, spec, message):
    out = tmp_path / "p.csv"
    code, stdout, err = run_cli(capsys, "synth", "--output", str(out), "--spec", spec)
    assert (code, stdout) == (1, "")
    assert err.splitlines() == [f"error: {message}"]
    assert not out.exists()
    # a float field takes an integer spelling
    code, stdout, _ = run_cli(capsys, "synth", "--output", str(out),
                              "--spec", "n_entities=4,n_clusters=2,noise_sd=0")
    assert code == 0 and stdout.startswith("synth ok rows=32 entities=4 ")


_FLOAT_FIELDS = ["noise_sd", "mix_jitter", "scale_sd", "scale_base", "trend", "base_level",
                 "offset_scale"]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("field", _FLOAT_FIELDS)
def test_synth_refuses_a_non_finite_float_field(capsys, tmp_path, field, value):
    # noise_sd=nan wrote a panel without a target, mix_jitter=nan one without jitter, and
    # scale_base=inf failed only on the panel's non-finite features
    assert _FLOAT_FIELDS == [f.name for f in dataclasses.fields(testkit.SyntheticSpec)
                             if isinstance(f.default, float)]
    out = tmp_path / "p.csv"
    code, stdout, err = run_cli(capsys, "synth", "--output", str(out),
                                "--spec", f"{field}={value}")
    assert (code, stdout) == (1, "")
    assert err.splitlines() == [f"error: {field} must be finite, got {value}"]
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    ("scale_base=-40", "scale_base must be > 0, got -40.0"),
    ("scale_base=0", "scale_base must be > 0, got 0.0"),
    ("scale_sd=-1", "scale_sd must be >= 0, got -1.0"),
    ("trend=-2", "trend must be > -1, got -2.0"),
    ("trend=-1", "trend must be > -1, got -1.0"),
    ("noise_sd=-0.5", "noise_sd must be >= 0, got -0.5"),
    ("mix_jitter=-0.5", "mix_jitter must be >= 0, got -0.5"),
    ("offset_scale=1e308", "synthetic target overflows the float range; lower offset_scale"),
    ("base_level=1e308", "synthetic target overflows the float range; lower base_level"),
    ("scale_base=1e308", "synthetic target overflows the float range; lower scale_base or trend"),
    ("trend=1e200", "synthetic target overflows the float range; lower scale_base or trend"),
], ids=["scale_base-negative", "scale_base-zero", "scale_sd-negative", "trend-below-minus-1",
        "trend-minus-1", "noise_sd-negative", "mix_jitter-negative", "offset_scale-overflow",
        "base_level-overflow", "scale_base-overflow", "trend-overflow"])
def test_synth_refuses_a_spec_outside_its_range(capsys, tmp_path, spec, message):
    # scale_base=-40 and trend=-2 wrote a panel of negative features, scale_sd=-1 ended in
    # numpy's ValueError and the overflows in an OverflowError, after numpy's warnings
    out = tmp_path / "p.csv"
    code, stdout, err = run_cli(capsys, "synth", "--output", str(out), "--spec", spec)
    assert (code, stdout) == (1, "")
    assert err.splitlines() == [f"error: {message}"]
    assert not out.exists()


# Valid settings of a small run, as flags.
_RUN = {"eps": "0.2", "min_pts": "3", "penalty": "lasso", "lambda_grid": "0.01,0.1",
        "train_count": "6", "folds": "3"}


def _run_argv(panel, out, **changes):
    return ["run", "--input", str(panel), "--output-dir", str(out),
            *_as_flags({**_RUN, **changes})]


_SUBCOMMANDS = ("'ingest', 'synth', 'run', 'forecast'", "ingest, synth, run, forecast")


# Every spelling the CLI once took and takes no more: deleted settings as run flags and
# config keys, settings of the deleted stage subcommands, those subcommands, deleted
# value spellings, and ingest's schema flags. A deleted setting is refused whatever its
# value, never read as a malformed value; a deleted value spelling is a malformed value of
# its setting.
@pytest.mark.parametrize("argv, config, message", [
    # the strict core rule is min_pts + 1
    (["--core-strict", "true"], None, "unrecognized arguments: --core-strict true"),
    (["--core-strict", "maybe"], None, "unrecognized arguments: --core-strict maybe"),
    ([], "core_strict = true", "unknown config keys: ['core_strict']"),
    # clustering reads the mix shares, and the baseline is cluster 0
    (["--mix", "perfeaturemax"], None, "unrecognized arguments: --mix perfeaturemax"),
    ([], "mix = perfeaturemax", "unknown config keys: ['mix']"),
    (["--baseline", "1"], None, "unrecognized arguments: --baseline 1"),
    ([], "baseline = 1", "unknown config keys: ['baseline']"),
    # CV folds are blocks of entities
    (["--fold-mode", "rows"], None, "unrecognized arguments: --fold-mode rows"),
    # settings of fit, cv and path alone; prefixes of --lambda-grid and --alpha-grid,
    # which argparse expanded before flags had to be spelled in full
    (["--lam", "0.1"], None, "unrecognized arguments: --lam 0.1"),
    (["--alpha", "0.5"], None, "unrecognized arguments: --alpha 0.5"),
    (["--cluster-model", "cluster_model.json"], None,
     "unrecognized arguments: --cluster-model cluster_model.json"),
    ([], "lam = 0.1", "unknown config keys: ['lam']"),
    ([], "alpha = 0.5", "unknown config keys: ['alpha']"),
    ([], "cluster_model = cluster_model.json", "unknown config keys: ['cluster_model']"),
    # a grid is a comma list or logspace:lo:hi:n
    (["--lambda-grid", "range:0.1:0.5:0.1"], None,
     "bad value lambda_grid='range:0.1:0.5:0.1': cannot parse grid 'range:0.1:0.5:0.1': "
     "could not convert string to float: 'range:0.1:0.5:0.1'"),
    # the stage subcommands: run writes every table they wrote, from training rows only
    *[([command], None, f"argument command: invalid choice: '{command}' (choose from {{}})")
      for command in ("cluster", "scan", "fit", "cv", "path")],
    # and with a retired flag it once took, the subcommand is still the one error
    *[([command, flag, value], None,
       f"argument command: invalid choice: '{command}' (choose from {{}})")
      for flag, value in (("--core-strict", "true"), ("--mix", "perfeaturemax"))
      for command in ("cluster", "scan")],
    # a panel has one layout: entity, period, optional target, every other column a feature
    *[(["ingest", flag, value], None, f"unrecognized arguments: {flag} {value}")
      for flag, value in (("--entity-column", "prov"), ("--period-column", "year"),
                          ("--target-column", "co2"), ("--features", "f00,f01"),
                          ("--delimiter", ";"))],
    # ingest sets each target from the factors; a bare ingest leaves --factors out
    (["ingest"], None, "the following arguments are required: --factors"),
], ids=["core_strict-flag", "core_strict-flag-maybe", "core_strict-config", "mix-flag",
        "mix-config", "baseline-flag", "baseline-config", "fold_mode-flag", "lam-flag",
        "alpha-flag", "cluster_model-flag", "lam-config", "alpha-config",
        "cluster_model-config", "range-grid", "cluster", "scan", "fit", "cv", "path",
        "cluster-core_strict", "scan-core_strict", "cluster-mix", "scan-mix",
        "ingest-entity_column", "ingest-period_column", "ingest-target_column",
        "ingest-features", "ingest-delimiter", "ingest-without-factors"])
def test_retired_spellings_are_refused(capsys, tmp_path, argv, config, message):
    panel = _synth(capsys, tmp_path, seed=3)
    out = tmp_path / "out"
    if argv[:1] == ["ingest"]:
        factors = tmp_path / "factors.csv"
        factors.write_text("feature,factor\n" + "".join(
            f"{name},0.5\n" for name in load_panel(panel).feature_names))
        argv = ["ingest", "--input", str(panel), "--output", str(out),
                *(["--factors", str(factors)] if argv[1:] else []), *argv[1:]]
    elif argv and not argv[0].startswith("--"):  # a subcommand
        argv = [argv[0], "--input", str(panel), "--output-dir", str(out), *argv[1:]]
    else:
        argv = _run_argv(panel, out) + argv
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{config}\n")
        argv += ["--config", str(cfg)]
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, stdout) == (1, "")
    # argparse quotes the choices up to Python 3.12.7 and leaves them bare after it
    assert err.splitlines() in [[f"error: {message.format(names)}"] for names in _SUBCOMMANDS]
    assert not out.exists()


_BOTH_CLUSTERINGS = {"eps": "0.05", "min_pts": "4", "eps_grid": "0.1,0.2", "minpts_grid": "3"}


@pytest.mark.parametrize("in_config", [
    (), ("eps", "min_pts"), ("eps_grid", "minpts_grid"), tuple(_BOTH_CLUSTERINGS),
], ids=["flags", "fixed-in-config", "grids-in-config", "config"])
def test_run_rejects_fixed_eps_with_scan_grids(capsys, tmp_path, in_config):
    panel = _synth(capsys, tmp_path)
    settings = {**_BOTH_CLUSTERINGS, "penalty": "lasso", "lambda_grid": "0.01,0.1",
                "train_count": "6", "folds": "3"}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {settings[key]}\n" for key in in_config))
    flags = _as_flags({k: v for k, v in settings.items() if k not in in_config})
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "run", "--input", str(panel), "--output-dir", str(out),
                                "--config", str(cfg), *flags)
    assert code == 1 and stdout == ""
    assert err == ("error: give eps and min_pts, or eps_grid and minpts_grid, not both; "
                   "got eps, min_pts, eps_grid, minpts_grid\n")
    assert not out.exists()


@pytest.mark.parametrize("settings, code, message", [
    (["--eps-grid", "0.0001", "--minpts-grid", "50"], 2,
     "numerical error: stage cluster: no scan cell had a defined silhouette; adjust the grids"),
], ids=["no-silhouette"])
def test_run_stage_failure_is_one_line_and_writes_nothing(capsys, tmp_path, settings, code,
                                                          message):
    panel = _synth(capsys, tmp_path, seed=42,
                   spec="n_entities=20,n_periods=12,n_features=8,n_clusters=4")
    out = tmp_path / "out"
    got, stdout, err = run_cli(capsys, "run", "--input", str(panel), "--output-dir", str(out),
                               *settings, *_QUICK_START_SPLIT)
    assert (got, stdout, err) == (code, "", message + "\n")
    assert not out.exists()


@pytest.mark.parametrize("command, key, bad", [
    ("run", key, bad) for key, bad in [("eps", "0.2x"), ("eps_grid", "1,x"),
                                       ("lambda_grid", "banana"), ("folds", "3.0")]
])
def test_malformed_setting_exits_1_naming_it_on_every_subcommand(capsys, tmp_path, command,
                                                                 key, bad):
    # run is the one subcommand with settings; here on top of a full set of valid ones
    panel = _synth(capsys, tmp_path)
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, *_run_argv(panel, out, **{key: bad}))
    assert code == 1 and stdout == ""
    assert f"bad value {key}={bad!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run"])
def test_an_unknown_penalty_is_the_same_error_on_every_subcommand(capsys, tmp_path, command):
    # run is the one subcommand with a penalty: its flag and its config key say the same
    panel = _synth(capsys, tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("penalty = huber\n")
    for extra in (["--penalty", "huber"], ["--config", str(cfg)]):
        out = tmp_path / "out"
        argv = [arg for arg in _run_argv(panel, out) if arg not in ("--penalty", "lasso")]
        code, stdout, err = run_cli(capsys, *argv, *extra)
        assert code == 1 and stdout == ""
        assert err == ("error: penalty must be one of ('ridge', 'lasso', 'elastic_net'), "
                       "got 'huber'\n")
        assert not out.exists()


def test_an_unknown_outlier_policy_is_the_same_error_from_flag_and_config(capsys, tmp_path):
    # DprConfig alone checks the policy, whether its text came from the flag or the file
    panel = _synth(capsys, tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("outlier_policy = bogus\n")
    for extra in (["--outlier-policy", "bogus"], ["--config", str(cfg)]):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *_run_argv(panel, out), *extra)
        assert (code, stdout) == (1, "")
        assert err == ("error: outlier_policy must be one of ('unique_dummy', 'exclude'), "
                       "got 'bogus'\n")
        assert not out.exists()


def test_forecast_of_a_panel_with_other_features_names_both_lists(capsys, tmp_path):
    panel = _synth(capsys, tmp_path)
    code, _, err = run_cli(capsys, *_run_argv(panel, tmp_path / "run"))
    assert code == 0, err
    other = _synth(capsys, tmp_path, "other.csv",
                   spec="n_entities=8,n_periods=8,n_features=5,n_clusters=2")
    out = tmp_path / "forecast.csv"
    code, stdout, err = run_cli(capsys, "forecast", "--input", str(other), "--model",
                                str(tmp_path / "run" / "model.json"), "--output", str(out))
    assert code == 1 and stdout == ""
    assert err == ("error: panel features ['f00', 'f01', 'f02', 'f03', 'f04'] do not match "
                   "model features ['f00', 'f01', 'f02', 'f03']\n")
    assert not out.exists()


@pytest.mark.parametrize("target", ["5", ""], ids=["with-target", "without-target"])
def test_forecast_whose_source_value_overflows_fails_stage_forecast(capsys, tmp_path, target):
    # the CI round-trip model; a row of huge features predicts a log target of ~886, whose
    # exp is no float, whether or not the row has a target
    panel = tmp_path / "panel.csv"
    assert run_cli(capsys, "synth", "--output", str(panel), "--seed", "1")[0] == 0
    code, _, err = run_cli(capsys, "run", "--input", str(panel), "--output-dir",
                           str(tmp_path / "run"), "--eps", "0.2", "--min-pts", "3",
                           "--penalty", "lasso", "--lambda-grid", "logspace:-3:-1:3",
                           "--train-count", "6", "--folds", "3")
    assert code == 0, err
    features = load_panel(panel).feature_names
    rows = tmp_path / "rows.csv"
    rows.write_text("entity,period,target," + ",".join(features)
                    + f"\nE000,2000,{target}," + ",".join(["1e300"] * len(features)) + "\n")
    out = tmp_path / "forecast.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        code, stdout, err = run_cli(capsys, "forecast", "--input", str(rows), "--model",
                                    str(tmp_path / "run" / "model.json"), "--output", str(out))
    assert (code, stdout) == (2, "")
    found = re.fullmatch(r"numerical error: stage forecast: entity 'E000', period 2000: "
                         r"predicted log target (\S+) is above log\(float max\) = "
                         r"709\.782712893384; its source-unit value overflows\n", err)
    assert found and 880 < float(found[1]) < 890, err
    assert not out.exists()


def test_run_names_each_zero_feature_training_row_in_its_summary(capsys, tmp_path):
    # a zero-sum row has no mix shares; summary.json lists every such training row, once,
    # in row order, and the run writes no warning
    panel = load_panel(_synth(capsys, tmp_path))
    zero = [1, 4, 9, 10, 20, 33, 47]  # row 47 is E005's last period, a test row
    panel.features[zero] = 0.0
    write_panel(panel, tmp_path / "zeros.csv")
    keys = panel.row_keys()
    code, stdout, err = run_cli(capsys, *_run_argv(tmp_path / "zeros.csv", tmp_path / "run"))
    assert (code, err) == (0, "") and stdout.startswith("run ok ")
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["flagged"]["zero_mix_rows"] == [list(keys[i]) for i in zero[:-1]]

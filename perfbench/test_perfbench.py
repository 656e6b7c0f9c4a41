"""The benchmark's own tests: tiny runs of every workload, and checks that bite.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from dprkit import cli  # noqa: E402
from reference import Reference  # noqa: E402

EXTERNAL = {name: 0.0 for name in layers.EXTERNAL}


def _tiny(workload, work, tracer=None, rounds=2):
    prepared = workloads.prepare(workload, seed=3, work=work, size="tiny")
    runner = run.Runner(cli, checks, Reference(), tracer)
    for r in range(rounds):
        for op in prepared.ops:
            runner.op(op, traced=tracer is not None and r % 2 == 1)
    return prepared, runner


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One checked tiny run per workload, shared by the perturbation tests."""
    return {
        w: _tiny(w, tmp_path_factory.mktemp(w))[0] for w in workloads.WORKLOADS
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_every_check(workload, tmp_path):
    prepared, runner = _tiny(workload, tmp_path)
    assert runner.failed == 0
    assert runner.attempted == 2 * len(prepared.ops)
    assert len(runner.mse) == len(prepared.ops)
    if prepared.fit_dir is not None:
        checks.check_round_trip(cli, prepared, tmp_path / "again.csv")


def test_inputs_depend_on_the_seed_only(tmp_path):
    a = workloads.prepare("run-paper", 5, tmp_path / "a", "tiny")
    b = workloads.prepare("run-paper", 5, tmp_path / "b", "tiny")
    c = workloads.prepare("run-paper", 6, tmp_path / "c", "tiny")
    read = lambda p: Path(p.ops[0].argv[2]).read_bytes()  # noqa: E731
    assert read(a) == read(b) != read(c)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload, tmp_path):
    tracer = layers.Tracer()
    _, runner = _tiny(workload, tmp_path, tracer)
    assert runner.failed == 0 and runner.times[True]
    metrics = tracer.metrics(1.0, EXTERNAL)
    assert set(metrics) == set(layers.METRICS)
    if workload == "scan-large":
        assert metrics["clustering.pairwise_distances_calls"]["value"] == 3
        assert metrics["clustering.scan_cells"]["value"] == 8
    if workload.startswith("run-"):
        assert metrics["regression.fits"]["value"] > 0
        assert metrics["regression.coord_updates"]["value"] > 0
    if workload == "forecast-batch":
        assert metrics["clustering.assigned_rows"]["value"] == 200
    tracer.dump(tmp_path / "spans.json")
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert {s["name"] for s in spans} >= {layers.ROOT, "panel.load_panel"}


def test_missing_entry_point_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(layers.pipeline, "k_distance_profile")
    tracer = layers.Tracer()
    with tracer.operation():
        pass
    metrics = tracer.metrics(1.0, EXTERNAL)
    assert "clustering.k_distance_profile_s" not in metrics
    assert "regression.fits" in metrics


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in layers.METRICS.items()
    }
    assert [m["name"] for m in spec["end_to_end"]] == [
        "op_s", "setup_s", "peak_rss_mb", "forecast_mse"]


# ------------------------------------------------------ checks reject faults


def _edit_csv(path, row, column, change):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row + 1][col] = change(rows[row + 1][col])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _edit_json(path, change):
    data = json.loads(Path(path).read_text())
    change(data)
    Path(path).write_text(json.dumps(data))


def _nudge(cell):
    return repr(float(cell) + 1e-6)


def _copy(outputs, workload, tmp_path):
    """The first op of a checked tiny run, with its output copied to tmp_path."""
    op = outputs[workload].ops[0]
    out = tmp_path / "out"
    shutil.copytree(op.out_dir, out)
    return dataclasses.replace(op, out_dir=out)


def _first_train_row_with(out, pred):
    with open(out / "clusters.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return next(i for i, r in enumerate(rows) if r["split"] == "train" and pred(r))


def _unchosen_cv_row(out):
    chosen = json.loads((out / "summary.json").read_text())["chosen"]
    with open(out / "cv_table.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return next(i for i, r in enumerate(rows) if float(r["lambda"]) != chosen["lambda"])


PERTURBATIONS = {
    "coefficient nudged": ("run-paper", checks.check_kkt, lambda out: _edit_csv(
        out / "coefficients.csv", 1, "standardized", _nudge)),
    "intercept nudged": ("run-wide", checks.check_kkt, lambda out: _edit_csv(
        out / "coefficients.csv", 0, "standardized", _nudge)),
    "ridge coefficient nudged": ("scan-large", checks.check_kkt, lambda out: _edit_csv(
        out / "coefficients.csv", 2, "standardized", _nudge)),
    "cv cell lowered": ("run-paper", checks.check_cv_choice, lambda out: _edit_csv(
        out / "cv_table.csv", _unchosen_cv_row(out), "mean_mse", lambda v: "0")),
    "chosen lambda moved": ("run-wide", checks.check_cv_choice, lambda out: _edit_json(
        out / "summary.json", lambda d: d["chosen"].update({"lambda": 12.5}))),
    "two clusters merged": ("run-paper", checks.check_planted_clusters, lambda out: [
        _edit_csv(out / "clusters.csv", i, "label", lambda v: "0" if v == "1" else v)
        for i in range(72)]),
    "scan cell moved": ("scan-large", checks.check_scan_choice, lambda out: _edit_json(
        out / "summary.json", lambda d: d["clustering"].update({"min_pts": 3, "eps": 0.16}))),
    "one label swapped": ("scan-large", checks.check_dbscan_definition, lambda out: _edit_csv(
        out / "clusters.csv", _first_train_row_with(out, lambda r: r["label"] == "0"),
        "label", lambda v: "1")),
    "core flag flipped": ("scan-large", checks.check_dbscan_definition, lambda out: _edit_csv(
        out / "clusters.csv", 0, "core", lambda v: str(1 - int(v)))),
    "forecast nudged": ("forecast-batch", None, lambda out: _edit_csv(
        out / "forecast.csv", 7, "predicted_log", _nudge)),
    "forecast cluster swapped": ("forecast-batch", None, lambda out: _edit_csv(
        out / "forecast.csv", 3, "cluster", lambda v: str((int(v) + 1) % 3))),
    "run forecast nudged": ("run-paper", None, lambda out: _edit_csv(
        out / "forecast.csv", 2, "predicted_log", _nudge)),
    "actual_log nudged": ("run-wide", None, lambda out: _edit_csv(
        out / "forecast.csv", 0, "actual_log", _nudge)),
}


@pytest.mark.parametrize("name", PERTURBATIONS)
def test_check_rejects_perturbed_output(name, outputs, tmp_path):
    workload, check, perturb = PERTURBATIONS[name]
    op = _copy(outputs, workload, tmp_path)
    check = check or checks.check_forecast
    check(op)  # the untouched copy passes
    perturb(op.out_dir)
    with pytest.raises(checks.CheckFailed):
        check(op)


def test_byte_comparison_rejects_a_changed_artifact(outputs, tmp_path):
    op = _copy(outputs, "run-paper", tmp_path)
    first = checks.digest(op.out_dir)
    _edit_csv(op.out_dir / "fitted.csv", 0, "predicted_log", _nudge)
    with pytest.raises(checks.CheckFailed):
        checks.check_same_bytes(first, checks.digest(op.out_dir))


def test_round_trip_rejects_a_changed_forecast(outputs, tmp_path):
    prepared = outputs["forecast-batch"]
    fit_dir = tmp_path / "fit"
    shutil.copytree(prepared.fit_dir, fit_dir)
    prepared = dataclasses.replace(prepared, fit_dir=fit_dir)
    checks.check_round_trip(cli, prepared, tmp_path / "again.csv")
    _edit_csv(fit_dir / "forecast.csv", 0, "predicted_log", _nudge)
    with pytest.raises(checks.CheckFailed):
        checks.check_round_trip(cli, prepared, tmp_path / "again.csv")


def test_failed_operation_is_counted(tmp_path):
    prepared = workloads.prepare("run-paper", 3, tmp_path, "tiny")
    op = prepared.ops[0]
    op.argv = op.argv + ["--penalty", "no-such-penalty"]
    runner = run.Runner(cli, checks, Reference())
    runner.op(op)
    assert (runner.attempted, runner.failed, runner.times[False]) == (1, 1, [])


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "run-paper",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0 and p.stdout == ""

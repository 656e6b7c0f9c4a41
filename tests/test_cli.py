import csv
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dprkit import regression, testkit
from dprkit.cli import _RUN_KEYS, _build_run, _parse_grid, _parse_periods, main
from dprkit.clustering import DbscanParams
from dprkit.errors import ValidationError
from dprkit.panel import load_panel, write_panel
from dprkit.pipeline import DprConfig, SplitSpec


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
    assert _parse_grid("range:0:1:0.5") == [0.0, 0.5, 1.0]
    np.testing.assert_allclose(_parse_grid("logspace:-2:0:3"), [0.01, 0.1, 1.0])
    with pytest.raises(ValidationError):
        _parse_grid("range:0:1:0")
    with pytest.raises(ValidationError):
        _parse_grid("1,banana")


def test_period_syntax():
    assert _parse_periods("2000-2002", [2000, 2001, 2002, 2003]) == [2000, 2001, 2002]
    assert _parse_periods("2000,2003", [2000, 2001, 2002, 2003]) == [2000, 2003]
    assert _parse_periods("a,b", ["a", "b", "c"]) == ["a", "b"]
    with pytest.raises(ValidationError):
        _parse_periods("2002-2000", [2000, 2001, 2002])


def test_missing_input_exits_1(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "cluster", "--input", str(tmp_path / "nope.csv"),
        "--output-dir", str(tmp_path), "--eps", "0.5", "--min-pts", "3",
    )
    assert code == 1
    assert "not found" in err


def test_usage_error_exits_1(capsys):
    code, _, err = run_cli(capsys, "fit", "--penalty", "huber")
    assert code == 1


def test_bad_penalty_exits_1(capsys, tmp_path):
    panel = _synth(capsys, tmp_path)
    code, _, err = run_cli(
        capsys, "fit", "--input", str(panel), "--output-dir", str(tmp_path / "o"),
        "--penalty", "huber", "--lam", "0.1",
    )
    assert code == 1
    assert "penalty" in err


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


def test_ingest_renames_columns(capsys, tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "prov;yr;co2;coal;oil\nB;2001;4.0;2.0;1.0\nA;2000;1.5;1.0;3.0\n"
    )
    out = tmp_path / "canon.csv"
    code, stdout, _ = run_cli(
        capsys, "ingest", "--input", str(raw), "--output", str(out),
        "--entity-column", "prov", "--period-column", "yr",
        "--target-column", "co2", "--delimiter", ";",
    )
    assert code == 0
    assert "ingest ok rows=2" in stdout
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["entity", "period", "target", "coal", "oil"]
    assert rows[1][:2] == ["A", "2000"]


def test_ingest_with_factor_table(capsys, tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("entity,period,coal,oil\nA,2000,2.0,1.0\n")
    factors = tmp_path / "factors.csv"
    factors.write_text("feature,factor\ncoal,2.5\noil,3.0\n")
    out = tmp_path / "canon.csv"
    code, stdout, _ = run_cli(
        capsys, "ingest", "--input", str(raw), "--output", str(out),
        "--target-column", "", "--factors", str(factors),
    )
    # empty target name means: no target column in the raw file
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert float(rows[1][2]) == 2.0 * 2.5 + 1.0 * 3.0


def test_cluster_fit_cv_path_compose(capsys, tmp_path):
    panel = _synth(capsys, tmp_path)
    code, out, _ = run_cli(
        capsys, "cluster", "--input", str(panel), "--output-dir", str(tmp_path / "c"),
        "--eps", "0.2", "--min-pts", "3",
    )
    assert code == 0 and "cluster ok" in out
    bundle = tmp_path / "c" / "cluster_model.json"
    assert bundle.exists()

    code, out, _ = run_cli(
        capsys, "fit", "--input", str(panel), "--output-dir", str(tmp_path / "f"),
        "--penalty", "lasso", "--lam", "0.001", "--cluster-model", str(bundle),
    )
    assert code == 0 and "fit ok" in out
    assert (tmp_path / "f" / "coefficients.csv").exists()

    code, out, _ = run_cli(
        capsys, "cv", "--input", str(panel), "--output", str(tmp_path / "cv.csv"),
        "--penalty", "elastic_net", "--lambda-grid", "logspace:-4:-1:5",
        "--alpha-grid", "0.5,1.0", "--folds", "4", "--cluster-model", str(bundle),
    )
    assert code == 0 and "cv ok" in out

    code, out, err = run_cli(
        capsys, "cv", "--input", str(panel), "--output", str(tmp_path / "cv2.csv"),
        "--penalty", "lasso", "--lambda-grid", "0.01", "--fold-mode", "rows",
    )
    assert code == 1 and out == ""
    assert "unrecognized arguments: --fold-mode rows" in err
    assert not (tmp_path / "cv2.csv").exists()

    code, out, _ = run_cli(
        capsys, "path", "--input", str(panel), "--output", str(tmp_path / "path.csv"),
        "--penalty", "lasso", "--lambda-grid", "logspace:-4:-1:5",
        "--cluster-model", str(bundle),
    )
    assert code == 0 and "path ok" in out
    with (tmp_path / "path.csv").open() as fh:
        header = fh.readline().strip().split(",")
    assert header[:2] == ["lambda", "intercept"]


@pytest.mark.parametrize("kind", ["ridge", "lasso"])
@pytest.mark.parametrize("command, flag", [("path", "--alpha"), ("cv", "--alpha-grid")])
def test_path_and_cv_reject_alpha_unless_elastic_net(capsys, tmp_path, command, flag, kind):
    panel = _synth(capsys, tmp_path)
    out = tmp_path / "out.csv"
    argv = [command, "--input", str(panel), "--output", str(out), "--lambda-grid", "0.01,0.1"]
    code, stdout, err = run_cli(capsys, *argv, "--penalty", kind, flag, "0.3")
    assert code == 1 and stdout == ""
    assert f"{flag} is only valid for elastic_net, not {kind}" in err
    code, stdout, err = run_cli(capsys, *argv, "--penalty", "elastic_net")
    assert code == 1 and stdout == ""
    assert f"elastic_net needs {flag}" in err
    assert not out.exists()


def test_cluster_model_must_match_panel(capsys, tmp_path):
    panel = _synth(capsys, tmp_path)
    other = _synth(capsys, tmp_path, "other.csv", seed=99,
                   spec="n_entities=5,n_periods=4,n_features=4,n_clusters=2")
    run_cli(
        capsys, "cluster", "--input", str(other), "--output-dir", str(tmp_path / "c2"),
        "--eps", "0.2", "--min-pts", "3",
    )
    code, _, err = run_cli(
        capsys, "fit", "--input", str(panel), "--output-dir", str(tmp_path / "f2"),
        "--penalty", "lasso", "--lam", "0.01",
        "--cluster-model", str(tmp_path / "c2" / "cluster_model.json"),
    )
    assert code == 1
    assert "row keys" in err


def test_rank_deficient_ridge_exits_2(capsys, tmp_path):
    # two identical feature columns and lam=0
    path = tmp_path / "p.csv"
    rows = ["entity,period,target,a,b"]
    rng = np.random.default_rng(0)
    for e in ("X", "Y", "Z"):
        for t in (2000, 2001, 2002):
            v = rng.uniform(1, 5)
            rows.append(f"{e},{t},{v + 1:.6f},{v:.6f},{v:.6f}")
    path.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(
        capsys, "fit", "--input", str(path), "--output-dir", str(tmp_path / "rd"),
        "--penalty", "ridge", "--lam", "0",
    )
    assert code == 2
    assert "numerical" in err


def test_scan_and_suggestion(capsys, tmp_path):
    panel = _synth(capsys, tmp_path)
    code, out, _ = run_cli(
        capsys, "scan", "--input", str(panel), "--output", str(tmp_path / "scan.csv"),
        "--eps-grid", "0.05,0.1,0.3", "--minpts-grid", "3,4",
    )
    assert code == 0
    assert "scan ok cells=6" in out
    assert "best_eps=" in out
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[0] == "eps,min_pts,k,sc,sse"
    assert len(lines) == 7


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
    assert (outdir / "plots" / "path_trajectories.csv").exists()
    assert (outdir / "plots" / "k_distance.csv").exists()
    assert (outdir / "plots" / "fit_scatter.csv").exists()

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


def test_forecast_round_trip_with_training_maxima(capsys, tmp_path):
    # perfeaturemax divides the test rows by the training maxima, which
    # forecast reads back from model.json
    panel = _synth(capsys, tmp_path, seed=6)
    outdir = tmp_path / "run"
    code, _, _ = run_cli(
        capsys, "run", "--input", str(panel), "--output-dir", str(outdir),
        "--eps", "0.2", "--min-pts", "3", "--penalty", "lasso", "--mix", "perfeaturemax",
        "--lambda-grid", "logspace:-3:-1:3", "--train-count", "6", "--folds", "3",
    )
    assert code == 0
    loaded = load_panel(panel)
    test_rows = tmp_path / "test_rows.csv"
    write_panel(loaded.subset_by_periods(loaded.periods[6:]), test_rows)
    code, _, _ = run_cli(
        capsys, "forecast", "--input", str(test_rows), "--model", str(outdir / "model.json"),
        "--output", str(tmp_path / "fc.csv"),
    )
    assert code == 0
    assert (tmp_path / "fc.csv").read_bytes() == (outdir / "forecast.csv").read_bytes()


def _without_dummy_names(bundle):
    del bundle["clustering"]["dummy_names"]
    return bundle


def _short_entity_maxima(bundle):
    bundle["transform"]["normalize_mode"] = "perfeaturemax"
    bundle["entity_maxima"] = {"E000": [1.0]}
    return bundle


@pytest.mark.parametrize("command, edit, message", [
    ("forecast", lambda b: {"format": "dprkit-model-v1"}, "missing field 'regression'"),
    ("forecast", lambda b: [1, 2], "not a run model bundle"),
    ("forecast", _without_dummy_names, "missing field 'clustering.dummy_names'"),
    ("forecast", _short_entity_maxima, "bad field 'entity_maxima': "
     "ValueError('cannot reshape array of size 1 into shape (4,)')"),
    ("fit", lambda b: {"format": "dprkit-clusters-v1"}, "missing field 'row_keys'"),
], ids=["model-format-only", "model-list", "model-without-dummy-names", "model-short-maxima",
        "clusters-format-only"])
def test_malformed_bundle_is_one_error_line(capsys, tmp_path, command, edit, message):
    panel = _synth(capsys, tmp_path, seed=5)
    code, _, _ = run_cli(
        capsys, "run", "--input", str(panel), "--output-dir", str(tmp_path / "run"),
        "--eps", "0.2", "--min-pts", "3", "--penalty", "lasso",
        "--lambda-grid", "logspace:-3:-1:3", "--train-count", "6", "--folds", "3",
    )
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(json.loads((tmp_path / "run" / "model.json").read_text()))))
    if command == "forecast":
        argv = ["forecast", "--input", str(panel), "--model", str(bad),
                "--output", str(tmp_path / "fc.csv")]
    else:
        argv = ["fit", "--input", str(panel), "--output-dir", str(tmp_path / "fit"),
                "--penalty", "ridge", "--lam", "0.1", "--cluster-model", str(bad)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {bad}: {message}"]


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
    "eps": "0.05", "min_pts": "3", "core_strict": "true", "mix": "rawshares",
    "log_offset": "0.5", "outlier_policy": "unique_dummy", "baseline": "1", "folds": "3",
    "train_periods": "2000-2005", "test_periods": "2006,2007",
}
_SCAN_RUN = {
    "penalty": "lasso", "lambda_grid": "0.001,0.01,0.1", "eps_grid": "1,2,4",
    "minpts_grid": "3,4", "core_strict": "true", "mix": "none", "log_offset": "1",
    "outlier_policy": "exclude", "baseline": "0", "folds": "4", "train_count": "6",
}


def _as_flags(settings):
    argv = []
    for key, value in settings.items():
        flag = "--" + key.replace("_", "-")
        argv += [flag] if key == "core_strict" else [flag, value]
    return argv


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("settings", [_FIXED_RUN, _SCAN_RUN], ids=["fixed", "scan"])
def test_config_file_and_flags_write_the_same_run(capsys, tmp_path, settings):
    assert set(_FIXED_RUN) | set(_SCAN_RUN) == set(_RUN_KEYS)
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
    assert bundle["transform"] == {"log_offset": float(settings["log_offset"]),
                                   "normalize_mode": settings["mix"]}
    clustering = bundle["clustering"]
    assert clustering["core_strict"] is True
    assert clustering["outlier_policy"] == settings["outlier_policy"]
    assert clustering["baseline"] == int(settings["baseline"])
    assert summary["chosen"]["kind"] == settings["penalty"]
    assert summary["split"]["cv_folds"] == int(settings["folds"])


def test_unset_run_settings_take_the_dataclass_defaults():
    panel, _ = testkit.generate_panel(testkit.SyntheticSpec())
    config, split = _build_run({"eps": "0.2", "min_pts": "3", "train_count": "6"}, panel)
    assert config == DprConfig(dbscan=DbscanParams(0.2, 3))
    assert split == SplitSpec(tuple(panel.periods[:6]), tuple(panel.periods[6:]))


_MALFORMED = [("eps", "0.2x"), ("min_pts", "3.5"), ("log_offset", "one"),
              ("baseline", "first"), ("folds", "3.0"), ("train_count", "six"),
              ("core_strict", "maybe")]


# --core-strict takes no value, so a malformed core_strict comes from a config file only
@pytest.mark.parametrize("key, bad, source", [
    (key, bad, source) for key, bad in _MALFORMED for source in ("flag", "config")
    if not (key == "core_strict" and source == "flag")
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
    assert f"{key}={bad!r}" in err
    assert not out.exists()


def test_run_without_split_settings_exits_1(capsys, tmp_path):
    panel = _synth(capsys, tmp_path)
    code, _, err = run_cli(
        capsys, "run", "--input", str(panel), "--output-dir", str(tmp_path / "y"),
        "--eps", "0.2", "--min-pts", "3",
    )
    assert code == 1
    assert "train" in err


def test_unconverged_path_fit_stops_path_and_is_named_by_run(capsys, tmp_path, monkeypatch):
    panel = _synth(capsys, tmp_path)
    fit = regression.fit_elastic_net

    def one_cold_step_at_the_smallest_lambda(dm, lam, alpha, **kw):
        if lam < 2e-4:
            kw.update(warm_start=None, max_iter=1)
        return fit(dm, lam, alpha, **kw)

    monkeypatch.setattr(regression, "fit_elastic_net", one_cold_step_at_the_smallest_lambda)
    code, out, err = run_cli(
        capsys, "path", "--input", str(panel), "--output", str(tmp_path / "path.csv"),
        "--penalty", "lasso", "--lambda-grid", "logspace:-4:-1:5",
    )
    assert code == 2 and out == ""
    assert "path fit at lambda=0.0001 did not converge in 1 steps" in err
    assert not (tmp_path / "path.csv").exists()

    args = ["run", "--input", str(panel), "--eps", "0.2", "--min-pts", "3",
            "--penalty", "lasso", "--lambda-grid", "logspace:-4:-1:5",
            "--train-count", "6", "--folds", "3"]
    code, out, _ = run_cli(capsys, *args, "--output-dir", str(tmp_path / "r1"))
    assert code == 0
    summary = json.loads((tmp_path / "r1" / "summary.json").read_text())
    assert summary["chosen"]["lambda"] > 2e-4
    assert summary["fit"]["unconverged_path_fits"] == 1
    assert out.startswith("run ok ") and out.rstrip().endswith(" unconverged_path_fits=1")

    monkeypatch.setattr(regression, "fit_elastic_net", fit)
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
    # no scipy module at all: cdist, cKDTree, csgraph and scipy.optimize load at first use
    code = ("import sys, dprkit.cli, dprkit.testkit; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]", f"importing dprkit loaded {out.strip()}"

"""Benchmark workloads: inputs made from a seed, and the CLI call of one operation.

Every input comes from ``dprkit.testkit.generate_panel``; the program only
ever sees the files written here.  A workload is a list of ``Op`` objects,
one per input panel.  The measurement loop runs each op once per round, so
a run always attempts whole rounds of the same operations.

The sizes are scaled from the paper's problem so that one op takes a few
seconds with the pure-Python coordinate-descent backend and a run can repeat
it; README.md gives the reasons per workload.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path

from dprkit import cli, testkit
from dprkit.panel import PanelDataset, write_panel

WORKLOADS = ("run-paper", "run-wide", "scan-large", "forecast-batch")

# Panels of one run use seeds SEED_STRIDE * seed + i, so runs with different
# seeds never share a panel.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Shape:
    """Synthetic panel shape; the years run 2000, 2001, ..."""

    entities: int
    periods: int
    features: int
    clusters: int
    mix_jitter: float = 0.02

    def spec(self, seed: int) -> testkit.SyntheticSpec:
        return testkit.SyntheticSpec(
            n_entities=self.entities, n_periods=self.periods,
            n_features=self.features, n_clusters=self.clusters,
            mix_jitter=self.mix_jitter, seed=seed,
        )


@dataclass(frozen=True)
class RunPlan:
    """``dprkit run`` on ``panels`` panels of one shape with one config file."""

    shape: Shape
    panels: int
    train_periods: int
    config: dict


@dataclass(frozen=True)
class ForecastPlan:
    """``dprkit forecast`` of a ``batch`` panel with a model fitted by ``fit``."""

    fit: RunPlan
    batch: Shape


PAPER = Shape(46, 20, 6, 6)
EN_GRIDS = {
    "penalty": "elastic_net",
    "lambda_grid": "logspace:-4:-1:4",
    "alpha_grid": "0.3,0.5,1.0",
    "folds": "5",
}
WIDE_CONFIG = {
    "penalty": "lasso", "lambda_grid": "logspace:-2.5:-1:3", "folds": "3",
    "eps": "0.0475", "min_pts": "4", "outlier_policy": "unique_dummy",
}
SCAN_CONFIG = {
    "penalty": "ridge", "folds": "5",
    "eps_grid": "0.08,0.12,0.16,0.2", "minpts_grid": "4,8,12",
}
FIT_CONFIG = {
    "penalty": "lasso", "lambda_grid": "logspace:-3:-1:4", "folds": "5",
    "eps": "0.15", "min_pts": "4",
}

# Why the full plans look as they do (README.md has the whole story):
# * run-paper and run-wide use several panels per run because their work
#   (sweeps, design width) depends on the seed; a run averages over panels.
# * run-wide forecasts 17 periods so that forecast_mse, which its many
#   noise-assigned test rows dominate, averages over enough rows.
# * scan-large scans eps values at which DBSCAN marks no planted row as noise:
#   at smaller eps a seed-dependent handful of test rows became noise and
#   moved forecast_mse by up to 2x between seeds (run-wide measures that).
PLANS = {
    "full": {
        "run-paper": RunPlan(PAPER, panels=6, train_periods=13,
                             config={**EN_GRIDS, "eps": "0.15", "min_pts": "4"}),
        "run-wide": RunPlan(Shape(46, 30, 6, 6, mix_jitter=0.04), panels=6,
                            train_periods=13, config=WIDE_CONFIG),
        "scan-large": RunPlan(Shape(90, 25, 6, 6), panels=2, train_periods=17,
                              config=SCAN_CONFIG),
        "forecast-batch": ForecastPlan(
            fit=RunPlan(PAPER, panels=1, train_periods=13, config=FIT_CONFIG),
            batch=Shape(1000, 20, 6, 6),
        ),
    },
}

# The same settings on panels small enough for the benchmark's own tests.
_TINY = Shape(12, 8, 4, 3)
PLANS["tiny"] = {
    "run-paper": RunPlan(_TINY, panels=2, train_periods=6, config={
        **EN_GRIDS, "lambda_grid": "logspace:-2:-1:2", "folds": "3",
        "eps": "0.15", "min_pts": "3",
    }),
    "run-wide": RunPlan(Shape(12, 8, 4, 3, mix_jitter=0.04), panels=1, train_periods=6,
                        config={**WIDE_CONFIG, "min_pts": "3"}),
    "scan-large": RunPlan(Shape(20, 8, 4, 3), panels=1, train_periods=6,
                          config={**SCAN_CONFIG, "minpts_grid": "3,4", "folds": "3"}),
    "forecast-batch": ForecastPlan(
        fit=RunPlan(_TINY, panels=1, train_periods=6,
                    config={**FIT_CONFIG, "folds": "3", "min_pts": "3"}),
        batch=Shape(40, 5, 4, 3),
    ),
}


@dataclass
class Op:
    """One operation: a CLI call and what its checks need to know."""

    workload: str
    key: str
    argv: list[str]
    out_dir: Path                 # emptied before every call
    panel: PanelDataset           # the input the op reads, as generated
    truth: testkit.GroundTruth
    train_periods: list = field(default_factory=list)
    model_path: Path | None = None   # forecast-batch: the model it forecasts with

    @property
    def forecast_csv(self) -> Path:
        return self.out_dir / "forecast.csv"

    @property
    def model_json(self) -> Path:
        return self.model_path or self.out_dir / "model.json"


@dataclass
class Prepared:
    ops: list[Op]
    # forecast-batch: the fitting run's own output and its test rows, for the
    # round-trip check
    fit_dir: Path | None = None
    fit_test_panel: Path | None = None


def _write_config(path: Path, plan: RunPlan, periods: list) -> None:
    lines = [f"{key} = {value}" for key, value in plan.config.items()]
    lines.append(f"train_periods = {periods[0]}-{periods[plan.train_periods - 1]}")
    lines.append(f"test_periods = {periods[plan.train_periods]}-{periods[-1]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _run_ops(name: str, plan: RunPlan, seed: int, work: Path) -> list[Op]:
    work.mkdir(parents=True, exist_ok=True)
    ops = []
    for i in range(plan.panels):
        panel, truth = testkit.generate_panel(plan.shape.spec(SEED_STRIDE * seed + i))
        key = f"p{i}"
        panel_path = work / f"{key}.csv"
        cfg_path = work / f"{key}.cfg"
        write_panel(panel, panel_path)
        _write_config(cfg_path, plan, panel.periods)
        out = work / f"{key}-out"
        ops.append(Op(
            workload=name, key=key,
            argv=["run", "--input", str(panel_path), "--output-dir", str(out),
                  "--config", str(cfg_path)],
            out_dir=out, panel=panel, truth=truth,
            train_periods=panel.periods[:plan.train_periods],
        ))
    return ops


def prepare(name: str, seed: int, work: Path, size: str = "full") -> Prepared:
    """Write the inputs of one workload into ``work`` (emptied first)."""
    plan = PLANS[size][name]
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    if isinstance(plan, RunPlan):
        return Prepared(_run_ops(name, plan, seed, work))

    (fit_op,) = _run_ops(name, plan.fit, seed, work / "fit")
    code = cli.main(fit_op.argv)
    if code != 0:
        raise RuntimeError(f"fitting run for {name} exited {code}")
    test = fit_op.panel.subset_by_periods(fit_op.panel.periods[plan.fit.train_periods:])
    fit_test = work / "fit-test.csv"
    write_panel(test, fit_test)

    batch, truth = testkit.generate_panel(plan.batch.spec(SEED_STRIDE * seed + 500))
    batch_path = work / "batch.csv"
    write_panel(batch, batch_path)
    out = work / "batch-out"
    model = fit_op.out_dir / "model.json"
    op = Op(
        workload=name, key="batch",
        argv=["forecast", "--input", str(batch_path), "--model", str(model),
              "--output", str(out / "forecast.csv")],
        out_dir=out, panel=batch, truth=truth, model_path=model,
    )
    return Prepared([op], fit_dir=fit_op.out_dir, fit_test_panel=fit_test)

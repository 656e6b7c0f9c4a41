"""Benchmark of `dprkit run` and `dprkit forecast`, one workload per call.

    python3 perfbench/run.py --workload run-paper --seed 1 --seconds 25 --trace 0

Each operation is an in-process call of the CLI entry ``dprkit.cli.main``
on files this script generated from ``--seed``.  The script repeats whole
rounds of its operations for about ``--seconds`` seconds, checks every
operation's output (checks.py), and prints one JSON object as the last line
of stdout:

* ``--trace 0``: the end-to-end metrics ``op_s`` (median time of one
  operation), ``setup_s``, ``peak_rss_mb`` and ``forecast_mse``;
* ``--trace 1``: the per-layer metrics of layers.py.  Rounds alternate
  between untraced and traced, and the spans go to
  ``.perfbench/<workload>/spans.json``.

Times are wall times scaled to a reference host (reference.py).  An
operation that exits non-zero, raises, or fails a check counts as failed.
BLAS and OpenMP are pinned to one thread before numpy loads.
"""

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# Set-up is repeated and its median reported, so that work moved into set-up
# shows in setup_s without one slow repetition dominating it.  Each
# repetition starts a fresh interpreter that imports what a `dprkit` command
# and the input generator import, then writes the inputs.
SETUP_REPEATS = 3
IMPORTS = "import dprkit.cli, dprkit.testkit"
# Two rounds at least: every input is run twice, so each run compares the
# artifacts of two operations on the same input.
MIN_ROUNDS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Times operations, checks their output and counts failures.

    The reference kernel (reference.py) runs before every operation.
    """

    def __init__(self, cli, checks, reference, tracer=None):
        self.cli = cli
        self.checks = checks
        self.reference = reference
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.times = {False: [], True: []}    # traced? -> op wall times
        self.first_digest: dict = {}
        self.mse: dict = {}

    def _call(self, op, traced: bool) -> float:
        if op.out_dir.exists():
            shutil.rmtree(op.out_dir)
        op.out_dir.mkdir(parents=True)
        gc.collect()
        self.reference.sample()
        with redirect_stdout(io.StringIO()):
            if traced:
                with self.tracer.operation():
                    t = time.perf_counter()
                    code = self.cli.main(op.argv)
                    seconds = time.perf_counter() - t
            else:
                t = time.perf_counter()
                code = self.cli.main(op.argv)
                seconds = time.perf_counter() - t
        if code != 0:
            raise RuntimeError(f"dprkit {op.argv[0]} exited {code}")
        return seconds

    def _check(self, op) -> None:
        if op.key in self.first_digest:
            self.checks.check_same_bytes(self.first_digest[op.key],
                                         self.checks.digest(op.out_dir))
            return
        self.checks.check_op(op)
        self.mse[op.key] = self.checks.forecast_mse(op.forecast_csv)
        self.first_digest[op.key] = self.checks.digest(op.out_dir)

    def op(self, op, traced: bool = False) -> None:
        self.attempted += 1
        try:
            seconds = self._call(op, traced)
            self._check(op)
        except Exception:  # a failed operation is counted, and the run goes on
            self.failed += 1
            print(f"{op.workload}/{op.key}: operation failed", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return
        self.times[traced].append(seconds)

    def rounds(self, ops, seconds: float) -> None:
        """Whole rounds until the next one would end after ``seconds``."""
        start = time.perf_counter()
        done = 0
        while True:
            t = time.perf_counter()
            traced = self.tracer is not None and done % 2 == 1
            for op in ops:
                self.op(op, traced)
            done += 1
            now = time.perf_counter()
            if done >= MIN_ROUNDS and (now - start) + (now - t) > seconds:
                return


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "dprkit" / "__init__.py").is_file():
        print(f"no dprkit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from dprkit import cli
    import checks
    import layers
    import workloads
    from reference import Reference

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    reference = Reference()
    work = ROOT / ".perfbench" / args.workload

    setups = []
    for _ in range(SETUP_REPEATS):
        reference.sample()
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORTS], check=True, timeout=120,
                       env={**os.environ, "PYTHONPATH": str(src)})
        with redirect_stdout(io.StringIO()):
            prepared = workloads.prepare(args.workload, args.seed, work)
        setups.append(time.perf_counter() - t)

    tracer = layers.Tracer() if args.trace else None
    runner = Runner(cli, checks, reference, tracer)
    runner.rounds(prepared.ops, args.seconds)

    correct = True
    if prepared.fit_dir is not None:
        try:
            with redirect_stdout(io.StringIO()):
                checks.check_round_trip(cli, prepared, work / "fit-test-forecast.csv")
        except checks.CheckFailed as exc:
            print(f"{args.workload}: {exc}", file=sys.stderr)
            correct = False

    plain, traced = runner.times[False], runner.times[True]
    print(f"{args.workload} seed={args.seed}: wall times of set-ups {_fmt_times(setups)}, "
          f"untraced ops {_fmt_times(plain)}, traced ops {_fmt_times(traced)}, "
          f"reference kernel {_fmt_times(reference.seconds)}", file=sys.stderr)
    if not plain or (args.trace and not traced):
        print(f"{args.workload}: every operation failed", file=sys.stderr)
        return 1
    scale = reference.scale
    if args.trace:
        metrics = tracer.metrics(scale, {
            "trace.overhead_s": scale * (statistics.median(traced) - statistics.median(plain)),
            "host.ref_s": statistics.fmean(reference.seconds),
            "host.op_wall_s": statistics.median(plain),
        })
        tracer.dump(work / "spans.json")
    else:
        metrics = {
            "op_s": {"value": scale * statistics.median(plain), "unit": "s"},
            "setup_s": {"value": scale * statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
            "forecast_mse": {
                "value": statistics.fmean(runner.mse.values()),
                "unit": "log_units_sq",
            },
        }
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def _fmt_times(seconds) -> str:
    return "[" + " ".join(f"{v:.6f}" for v in seconds) + "]"


if __name__ == "__main__":
    sys.exit(main())

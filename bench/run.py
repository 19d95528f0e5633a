"""Benchmark driver for disptrack.

Run from the root of a source checkout:

    python3 bench/run.py --workload phd-clutter --seed 1 --seconds 30 --trace 0

Every driver call's base seed is derived from the workload seed, so the same
seed gives the same inputs. With ``--trace 0`` the run reports the end-to-end
metrics of untraced campaigns; with ``--trace 1`` it also runs one traced
campaign and reports per-layer metrics, accuracy and tracing overhead. The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are a
human-readable report and a JSON record of the run environment.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "sets_per_s": "1/s", "peak_rss_mb": "MB"}
# Printed by every run and reported with the per-layer metrics of the traced
# run. They cannot be end-to-end metrics, which every workload must report
# and none may read 0: each exists on one workload, and failed_frac is 0 on
# two (see NOTES.md).
ACCURACY_METRICS = {
    "ospa_cm": "cm",
    "card_acc": "fraction",
    "rmse_cm": "cm",
    "loc_rmse_cm": "cm",
    "calib_pos_err_cm": "cm",
    "calib_rot_err_mrad": "mrad",
    "failed_frac": "fraction",
}
SETUP_REPEATS = 5
# The warm-up runs on fixed inputs: a warm-up whose cost followed the
# workload seed would add the seed's clutter draw to setup_s.
WARM_UP_SEED = 0
# Reserved for confirming a later claim; never used while tuning a change.
HELD_OUT_SEED = 20261017
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "DF_THREADS",
)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import disptrack.experiments; "
    "print(time.perf_counter() - t)"
)


class Operations:
    """Attempted and failed operations; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, label, fn):
        """Run one operation; return its value, or None if it raised."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - reported as a failed operation
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def _import_seconds() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(workload, params: dict):
    """Median over repeats of: a fresh-interpreter import of disptrack, the
    preset load and a warm-up campaign at tiny size. Returns the set-up time
    and the workload's configs at ``params``."""
    import disptrack
    from workloads import load_presets

    totals = []
    for _ in range(SETUP_REPEATS):
        imported = _import_seconds()
        t0 = time.perf_counter()
        presets = load_presets(Path(disptrack.__file__).parent)
        workload.campaign(workload.configs(presets, workload.tiny), workload.tiny, WARM_UP_SEED)
        cfgs = workload.configs(presets, params)
        totals.append(imported + time.perf_counter() - t0)
    return statistics.median(totals), cfgs


def check_outcome(ops: Operations, label: str, outcome, reference) -> None:
    bad = [k for k, v in outcome.accuracy.items() if not _finite(v)]
    if bad:
        ops.fail(f"{label}: non-finite accuracy {bad}")
    elif reference is not None and outcome.digest != reference.digest:
        ops.fail(f"{label}: estimates differ from the first campaign with the same seed")


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and v == v and abs(v) != float("inf")


def timed_campaigns(workload, cfgs, params, seed, seconds, ops):
    """Untraced campaigns on the same inputs until the next one would end
    after ``seconds``; at least one. Returns (outcomes, walls)."""
    import tracing

    tracing.assert_untraced()
    outcomes, walls = [], []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcome = ops.run("campaign", lambda: workload.campaign(cfgs, params, seed))
        wall = time.perf_counter() - t0
        if outcome is not None:
            check_outcome(ops, "campaign", outcome, outcomes[0] if outcomes else None)
            outcomes.append(outcome)
            walls.append(wall)
        elapsed = time.perf_counter() - begin
        if outcome is None or elapsed + wall > seconds:
            return outcomes, walls


def traced_metrics(workload, cfgs, params, seed, ops, untraced, untraced_wall):
    import tracing

    tracer = tracing.Tracer()
    with tracer:
        t0 = time.perf_counter()
        traced = ops.run("traced campaign", lambda: workload.campaign(cfgs, params, seed))
        traced_wall = time.perf_counter() - t0
    ops.run("unwrap check", tracing.assert_untraced)
    layer = tracer.layer_metrics()
    if traced is not None:
        check_outcome(ops, "traced campaign", traced, untraced)
    layer["trace.overhead_s"] = traced_wall - untraced_wall
    layer["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    layer["sim.result_bytes"] = float(
        statistics.mean(len(pickle.dumps(r)) for r in untraced.records) if untraced.records else 0
    )
    layer["sim.pool_speedup"] = 0.0
    if hasattr(workload, "pool_campaign"):
        layer["sim.pool_speedup"] = pool_check(workload, cfgs, params, seed, ops)
    notes = {"spans": len(tracer.span_start), "missing_targets": tracer.missing}
    return layer, notes


def pool_check(workload, cfgs, params, seed, ops) -> float:
    """Serial wall over pooled wall of the same campaign, after checking that
    the pooled results equal the serial ones (results depend only on the
    config and the seed)."""
    walls, results = {}, {}
    for parallel in (False, True):
        t0 = time.perf_counter()
        results[parallel] = ops.run(
            f"pool campaign parallel={parallel}",
            lambda: workload.pool_campaign(cfgs, params, seed, parallel),
        )
        walls[parallel] = time.perf_counter() - t0
    if results[False] is None or results[True] is None:
        return 0.0
    if results[False] != results[True]:
        ops.fail("pool campaign: pooled results differ from serial results")
    return walls[False] / walls[True]


def environment(workload, params, seed) -> dict:
    import numpy as np
    import scipy
    from workloads import unit_base_seeds

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workload": workload.name,
        "variant": params,
        "seed": seed,
        "unit_base_seeds": unit_base_seeds(seed, params),
        "held_out_seed": HELD_OUT_SEED,
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, params: dict | None = None):
    """Measure one workload. Returns (result, report) where result is the
    final JSON object and report holds everything printed before it."""
    import tracing

    params = dict(workload.full if params is None else params)
    ops = Operations()
    setup_s, cfgs = measure_setup(workload, params)
    outcomes, walls = timed_campaigns(workload, cfgs, params, seed, seconds, ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {"campaign_walls_s": walls, "environment": environment(workload, params, seed)}
    unit_rates = [s / w for o in outcomes for s, w in zip(o.unit_sets, o.unit_walls)]
    if unit_rates:
        report["unit_rates"] = unit_rates
        report["total_rate"] = sum(sum(o.unit_sets) for o in outcomes) / sum(walls)
    if not outcomes:
        metrics = dict.fromkeys(tracing.LAYER_METRICS if trace else END_TO_END, 0.0)
        if trace:
            metrics.update(dict.fromkeys(ACCURACY_METRICS, 0.0))
    else:
        first = outcomes[0]
        accuracy = {**first.accuracy, "failed_frac": first.failed_runs / first.runs}
        report["accuracy"] = accuracy
        if trace:
            metrics, notes = traced_metrics(
                workload, cfgs, params, seed, ops, first, statistics.median(walls)
            )
            # accuracy figures a workload does not produce read 0
            metrics.update(dict.fromkeys(ACCURACY_METRICS, 0.0), **accuracy)
            report["trace"] = notes
        else:
            metrics = {
                "setup_s": setup_s,
                "sets_per_s": statistics.median(unit_rates),
                "peak_rss_mb": peak_rss_mb,
            }
    units = {**END_TO_END, **tracing.LAYER_METRICS, **ACCURACY_METRICS}
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    report["problems"] = ops.problems
    return result, report


def _print_report(name, result, report) -> None:
    print(f"workload {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for problem in report["problems"]:
        print(f"  problem: {problem}")
    walls = ", ".join(f"{w:.3f} s" for w in report["campaign_walls_s"])
    print(f"  untraced campaigns: {len(report['campaign_walls_s'])} ({walls})")
    if "unit_rates" in report:
        rates = report["unit_rates"]
        print(f"  unit rates (sets/s): n={len(rates)} median={statistics.median(rates):.6g} "
              f"min={min(rates):.6g} max={max(rates):.6g}; "
              f"all units together {report['total_rate']:.6g}")
    shown = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
    for k, v in report.get("accuracy", {}).items():
        shown.setdefault(k, (v, ACCURACY_METRICS[k]))
    for k, (value, unit) in shown.items():
        print(f"  {k:36s} {value:.6g} {unit}")
    if "trace" in report:
        print(f"  trace: {json.dumps(report['trace'])}")
    print(json.dumps({"environment": report["environment"]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "disptrack" / "__init__.py").is_file():
        print(f"error: no disptrack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import disptrack

    if Path(disptrack.__file__).resolve().parent != SRC / "disptrack":
        print(f"error: imported disptrack from {disptrack.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    result, report = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    _print_report(workload.name, result, report)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

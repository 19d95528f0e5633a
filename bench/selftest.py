"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python -m pytest -q bench/selftest.py``.
The file name keeps these tests out of the package's own test collection.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _target_functions():
    out = {}
    for module_name, fn_name, _, _ in tracing.TARGETS:
        module = importlib.import_module(f"disptrack.{module_name}")
        out[(module_name, fn_name)] = getattr(module, fn_name)
    return out


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_emits_every_metric_and_leaves_modules_unpatched(name, trace):
    spec = _spec()
    before = _target_functions()
    workload = workloads.WORKLOADS[name]
    result, report = run.run_workload(workload, 3, 0.01, trace, params=workload.tiny)
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    after = _target_functions()
    assert all(after[key] is fn for key, fn in before.items())
    tracing.assert_untraced()


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **tracing.LAYER_METRICS,
        **run.ACCURACY_METRICS,
    }


def test_self_times_partition_the_root_span():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")

    def inner(n):
        return sum(range(n))

    def outer(n):
        return mod.inner(n) + mod.inner(2 * n)

    mod.inner, mod.outer = inner, outer
    sys.modules["fakepkg"], sys.modules["fakepkg.mod"] = pkg, mod
    targets = [("mod", "outer", "a_s", None), ("mod", "inner", "b_s", None)]
    expected = outer(10_000)
    try:
        tracer = tracing.Tracer(package="fakepkg", targets=targets)
        with tracer:
            assert mod.outer(10_000) == expected
        assert mod.outer is outer and mod.inner is inner
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.mod"]
    own = tracer.self_times()
    assert tracer.calls == {"mod.outer": 1, "mod.inner": 2}
    assert list(tracer.span_parent) == [-1, 0, 0]
    root = tracer.span_end[0] - tracer.span_start[0]
    assert all(v >= 0.0 for v in own.values())
    assert own["mod.outer"] + own["mod.inner"] == pytest.approx(root, rel=1e-9, abs=1e-12)


def test_cli_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = _spec()
    t0 = time.perf_counter()
    out = subprocess.run(
        [*spec["command"], "--workload", "phd-clutter", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
    assert time.perf_counter() - t0 < 180

"""Smoke tests of the shipped presets and the Monte-Carlo drivers, run
serially at reduced size."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from disptrack import experiments as ex
from disptrack import sim

PRESET_DIR = Path(sim.__file__).parent / "presets"
PRESETS = {p.stem: sim.load_config(p) for p in sorted(PRESET_DIR.glob("*.json"))}
# sim.flatten_single_object rejects a set without exactly one observation, so
# a receding target that leaves a camera's view fails its run
TRACK_LOSS = "ValueError: single-object streams need exactly one observation per set"


def all_finite(*arrays) -> bool:
    return all(np.isfinite(np.asarray(a, dtype=float)).all() for a in arrays)


class TestPresets:
    def test_every_preset_loads(self):
        assert sorted(PRESETS) == [
            "grid-localisation", "receding-target", "six-targets", "skewed-pair"
        ]
        for name, cfg in PRESETS.items():
            assert cfg.name == name
            cfg.rig

    @pytest.mark.parametrize(
        "change",
        [
            {"filter": {"no_such_setting": 1.0}},
            {"colour": "red"},
            {"sync": "sometimes"},
            {"left": None},
            {"filter": 5},
            {"filter": None},
            {"objects": [None]},
            {"calibration": [1]},
            {"left": {"focal_length_mm": 0.0}},
            {"right": {"width": 0}},
            {"right": {"yaw": float("nan")}},
        ],
    )
    def test_malformed_config_raises_value_error(self, change):
        data = {
            "name": "probe",
            "left": {},
            "right": {"position": [30.0, 0.0, 0.0]},
            "objects": [{"position": [0.0, 0.0, 100.0]}],
        }
        sim.ScenarioConfig.from_dict(data)
        with pytest.raises(ValueError):
            sim.ScenarioConfig.from_dict({**data, **change})

    def test_missing_section_raises_value_error(self):
        with pytest.raises(ValueError):
            sim.ScenarioConfig.from_dict({"name": "probe", "left": {}, "right": {}})


class TestLocalise:
    @pytest.mark.parametrize("baseline", ["pf", "idekf"])
    def test_single_cell(self, baseline):
        cfg = replace(PRESETS["skewed-pair"], n_steps=6)
        result = ex.run_localise(cfg, 2, 5, baseline=baseline, parallel=False)
        assert len(result.runs) + len(result.failures) == 2
        (cell,) = result.cells
        assert all_finite(cell.ds_rmse_mean, cell.ds_rmse_std)
        assert all_finite(cell.baseline_rmse_mean, cell.baseline_rmse_std)
        assert set(result.error_series) == {"disparity", baseline}
        for series in result.error_series.values():
            assert series.shape == (6,) and all_finite(series)

    def test_grid(self):
        cfg = replace(PRESETS["grid-localisation"], n_steps=3)
        result = ex.run_localise(cfg, 1, 5, baseline="pf", parallel=False)
        assert len(result.cells) == 9
        for cell in result.cells:
            assert all_finite(cell.ds_rmse_mean, cell.baseline_rmse_mean)


def test_track_counts_every_run():
    # the full receding-target preset: at this seed some runs lose the target
    n_runs = 8
    result = ex.run_track(PRESETS["receding-target"], n_runs, 11, pf_sizes=(100,), parallel=False)
    assert len(result.runs) + len(result.failures) == n_runs
    assert all(msg == TRACK_LOSS for _, msg in result.failures)
    assert result.runs, "no run succeeded, so there is no aggregate to check"
    n_steps = PRESETS["receding-target"].n_steps
    assert result.ds_error_series.shape == (n_steps,)
    assert result.pf_error_series[100].shape == (n_steps,)
    assert all_finite(
        result.ds_error_series,
        result.pf_error_series[100],
        result.ds_rmse_mean,
        result.pf_rmse_mean[100],
    )


def test_phd():
    cfg = replace(PRESETS["six-targets"], n_steps=2)
    result = ex.run_phd(cfg, 1, 5, burn_in=1, parallel=False)
    assert len(result.runs) + len(result.failures) == 1
    assert result.ospa_mean.shape == (2,) and all_finite(result.ospa_mean, result.ospa_std)
    assert 0.0 <= result.cardinality_accuracy_after_burn_in <= 1.0


@pytest.mark.parametrize("burn_in", [-1, 2, 10])
def test_phd_burn_in_out_of_range_raises_before_any_run(burn_in, monkeypatch):
    def no_runs(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(sim, "monte_carlo", no_runs)
    cfg = replace(PRESETS["six-targets"], n_steps=2)
    with pytest.raises(ValueError, match="burn_in"):
        ex.run_phd(cfg, 1, 5, burn_in=burn_in, parallel=False)


def test_calibrate():
    base = PRESETS["six-targets"]
    cfg = replace(base, n_steps=1, calibration=replace(base.calibration, particles=3))
    result = ex.run_calibrate(cfg, 2, 5, parallel=False)
    assert len(result.runs) + len(result.failures) == 2
    n_ok = len(result.runs)
    # one record per observation set: two cameras per step
    assert result.error_series_mean.shape == (2, 6)
    assert result.final_errors.shape == (n_ok, 6)
    assert result.slopes.shape == (n_ok,)
    assert all_finite(result.error_series_mean, result.final_errors, result.slopes)


def test_pooled_runs_equal_serial_runs(monkeypatch):
    # each pool task pickles the scenario config, built rig included, and
    # every run draws from streams derived from its own seed
    monkeypatch.setenv("DF_THREADS", "2")
    base = PRESETS["six-targets"]
    loc_cfg = replace(PRESETS["skewed-pair"], n_steps=6)
    phd_cfg = replace(base, n_steps=2)
    cal_cfg = replace(base, n_steps=1, calibration=replace(base.calibration, particles=3))

    def per_run_outputs(parallel):
        loc = ex.run_localise(loc_cfg, 4, 5, baseline="pf", parallel=parallel)
        phd = ex.run_phd(phd_cfg, 2, 5, burn_in=1, parallel=parallel)
        cal = ex.run_calibrate(cal_cfg, 2, 5, parallel=parallel)
        arrays = [a for r in loc.runs for a in (r.estimates, r.baseline)]
        for r in phd.runs:
            arrays += [r.ospa, r.cardinality, *(rec.targets_world for rec in r.records)]
        arrays += [a for r in cal.runs for a in (r.estimates, r.stds, r.final_targets)]
        return (loc.failures, phd.failures, cal.failures), arrays

    pooled_failures, pooled = per_run_outputs(parallel=True)
    serial_failures, serial = per_run_outputs(parallel=False)
    assert pooled_failures == serial_failures
    assert len(pooled) == len(serial) > 0
    for a, b in zip(pooled, serial):
        np.testing.assert_array_equal(a, b)

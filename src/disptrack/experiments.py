"""Experiment drivers: localisation grids, single-object tracking races,
multi-object PHD runs and camera calibration campaigns.

Each driver turns a scenario config plus a run count into aggregated
metrics and keeps the per-run and per-step series they were computed from.
Monte-Carlo runs are independent and seeded from the base seed, so a run's
observations can be regenerated from (config, seed) and are not stored.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import calibration as cal
from . import geometry as geo
from . import metrics
from . import phd as phd_mod
from . import sim
from . import single_object as so


def per_step_estimates(estimates: np.ndarray, times: np.ndarray, n_steps: int) -> np.ndarray:
    """Last estimate of each time step, forward-filled over unseen steps."""
    out = np.full((n_steps, estimates.shape[1]), np.nan)
    for est, t in zip(estimates, times):
        out[int(t)] = est
    for t in range(1, n_steps):
        if np.isnan(out[t]).any():
            out[t] = out[t - 1]
    return out


def _shared_params(cfg: sim.ScenarioConfig, seed: int) -> dict:
    """The object model, transport count and seed that ``TrackingParams`` and
    ``PhdParams`` share, read from the scenario's filter config. Whether the
    object moves follows from its velocity prior alone."""
    f = cfg.filter
    return dict(
        disparity_prior=tuple(f.disparity_prior),
        velocity_prior=None if f.velocity_prior is None else tuple(f.velocity_prior),
        motion=so.MotionModel(q=f.process_noise, dt=cfg.dt),
        n_move_particles=f.n_move_particles,
        seed=seed,
    )


def _phd_params(cfg: sim.ScenarioConfig, seed: int) -> phd_mod.PhdParams:
    f = cfg.filter
    return phd_mod.PhdParams(
        **_shared_params(cfg, seed),
        p_survival=f.p_survival,
        p_detect=cfg.p_detect,
        clutter_rate=cfg.clutter_rate,
        birth_weight=f.birth_weight,
        prune_threshold=f.prune_threshold,
        merge_distance=f.merge_distance,
        max_components=f.max_components,
        n_split_particles=f.n_split_particles,
        extract_threshold=f.extract_threshold,
    )


# ---------------------------------------------------------------------------
# localisation (single static object; disparity filter vs baselines)


@dataclass
class LocaliseRun:
    estimates: np.ndarray  # (n_steps, 3) disparity-filter estimates
    baseline: np.ndarray | None


def _localise_one(run_index: int, run_seed: int, cfg: sim.ScenarioConfig, baseline: str | None):
    truth = sim.generate_truth(cfg)
    sets = sim.generate_observations(truth, cfg, run_seed)
    stream = sim.flatten_single_object(sets)
    params = so.TrackingParams(**_shared_params(cfg, run_seed))
    result = so.track_single(cfg.rig, stream, params)
    estimates = per_step_estimates(result.estimates, result.times, cfg.n_steps)
    base = None
    if baseline == "pf":
        pf = so.baseline_pf(
            cfg.rig,
            stream,
            cfg.filter.baseline_particles,
            params.disparity_prior,
            seed=run_seed,
        )
        base = per_step_estimates(pf.estimates, pf.times, cfg.n_steps)
    elif baseline == "idekf":
        ekf = so.baseline_inverse_depth_ekf(cfg.rig, stream, params.disparity_prior)
        base = per_step_estimates(ekf.estimates, ekf.times, cfg.n_steps)
    return LocaliseRun(estimates=estimates, baseline=base)


@dataclass
class LocaliseCell:
    distance_cm: float
    prior: tuple[float, float]
    ds_rmse_mean: float
    ds_rmse_std: float
    baseline_rmse_mean: float | None
    baseline_rmse_std: float | None


@dataclass
class LocaliseResult:
    cells: list[LocaliseCell]
    error_series: dict[str, np.ndarray]  # per-step mean error norm, keyed by filter
    runs: list[LocaliseRun]
    truth: np.ndarray
    failures: list


def run_localise(
    cfg: sim.ScenarioConfig,
    n_runs: int,
    base_seed: int,
    baseline: str | None = "pf",
    parallel: bool = True,
) -> LocaliseResult:
    """Localisation experiment. With a distance/prior grid in the config the
    result is a Table-2-style matrix; otherwise a single cell plus per-step
    error curves (the inverse-depth comparison)."""
    distances = cfg.grid_distances_cm or (float(cfg.objects[0].position[2]),)
    priors = cfg.grid_priors or (tuple(cfg.filter.disparity_prior),)
    cells = []
    all_runs: list[LocaliseRun] = []
    failures = []
    series: dict[str, np.ndarray] = {}
    truth_last = None
    for dist in distances:
        for prior in priors:
            cell_cfg = replace(
                cfg,
                objects=(sim.ObjectConfig(position=(0.0, 0.0, float(dist))),),
                filter=replace(cfg.filter, disparity_prior=tuple(prior)),
                grid_distances_cm=None,
                grid_priors=None,
            )
            mc = sim.monte_carlo(
                functools.partial(_localise_one, cfg=cell_cfg, baseline=baseline),
                n_runs,
                base_seed,
                parallel=parallel,
            )
            failures.extend(mc.failures)
            truth = sim.generate_truth(cell_cfg).positions[:, 0, :]
            truth_last = truth
            ds_mean, ds_std, _ = metrics.rmse([r.estimates[-1:] for r in mc.results], truth[-1:])
            b_mean = b_std = None
            if baseline is not None:
                b_mean, b_std, _ = metrics.rmse([r.baseline[-1:] for r in mc.results], truth[-1:])
            cells.append(
                LocaliseCell(
                    distance_cm=float(dist),
                    prior=tuple(prior),
                    ds_rmse_mean=ds_mean,
                    ds_rmse_std=ds_std,
                    baseline_rmse_mean=b_mean,
                    baseline_rmse_std=b_std,
                )
            )
            if len(distances) == 1 and len(priors) == 1:
                ds_err = np.array(
                    [np.linalg.norm(r.estimates - truth, axis=1) for r in mc.results]
                )
                series["disparity"] = ds_err.mean(axis=0)
                if baseline is not None:
                    b_err = np.array(
                        [np.linalg.norm(r.baseline - truth, axis=1) for r in mc.results]
                    )
                    series[baseline] = b_err.mean(axis=0)
                all_runs.extend(mc.results)
    return LocaliseResult(
        cells=cells, error_series=series, runs=all_runs, truth=truth_last, failures=failures
    )


# ---------------------------------------------------------------------------
# single-object tracking race (disparity filter vs bootstrap PF sizes)


@dataclass
class TrackRun:
    ds_estimates: np.ndarray
    pf_estimates: dict[int, np.ndarray]
    truth: np.ndarray


def _track_one(run_index: int, run_seed: int, cfg: sim.ScenarioConfig, pf_sizes: tuple[int, ...]):
    truth = sim.generate_truth(cfg, seed=run_seed)
    sets = sim.generate_observations(truth, cfg, run_seed)
    stream = sim.flatten_single_object(sets)
    params = so.TrackingParams(**_shared_params(cfg, run_seed))
    result = so.track_single(cfg.rig, stream, params)
    ds = per_step_estimates(result.estimates, result.times, cfg.n_steps)
    pf_all = {}
    for n in pf_sizes:
        pf = so.baseline_pf(
            cfg.rig,
            stream,
            n,
            params.disparity_prior,
            world_velocity_prior=(0.0, 16.0),
            motion=params.motion,
            seed=run_seed,
        )
        pf_all[n] = per_step_estimates(pf.estimates, pf.times, cfg.n_steps)
    return TrackRun(ds_estimates=ds, pf_estimates=pf_all, truth=truth.positions[:, 0, :])


@dataclass
class TrackResultAggregate:
    ds_error_series: np.ndarray
    pf_error_series: dict[int, np.ndarray]
    ds_rmse_mean: float
    ds_rmse_std: float
    pf_rmse_mean: dict[int, float]
    pf_rmse_std: dict[int, float]
    runs: list[TrackRun]
    failures: list


def run_track(
    cfg: sim.ScenarioConfig,
    n_runs: int,
    base_seed: int,
    pf_sizes: tuple[int, ...] = (250, 500, 1000),
    parallel: bool = True,
) -> TrackResultAggregate:
    mc = sim.monte_carlo(
        functools.partial(_track_one, cfg=cfg, pf_sizes=tuple(pf_sizes)),
        n_runs,
        base_seed,
        parallel=parallel,
    )
    runs = mc.results
    ds_err = np.array([np.linalg.norm(r.ds_estimates - r.truth, axis=1) for r in runs])
    ds_per_run = np.array([metrics.per_run_rmse(r.ds_estimates, r.truth) for r in runs])
    pf_series, pf_mean, pf_std = {}, {}, {}
    for n in pf_sizes:
        err = np.array([np.linalg.norm(r.pf_estimates[n] - r.truth, axis=1) for r in runs])
        pf_series[n] = err.mean(axis=0)
        per_run = np.array([metrics.per_run_rmse(r.pf_estimates[n], r.truth) for r in runs])
        pf_mean[n], pf_std[n] = float(per_run.mean()), float(per_run.std())
    return TrackResultAggregate(
        ds_error_series=ds_err.mean(axis=0),
        pf_error_series=pf_series,
        ds_rmse_mean=float(ds_per_run.mean()),
        ds_rmse_std=float(ds_per_run.std()),
        pf_rmse_mean=pf_mean,
        pf_rmse_std=pf_std,
        runs=runs,
        failures=mc.failures,
    )


# ---------------------------------------------------------------------------
# multi-object PHD


@dataclass
class PhdRun:
    records: list[phd_mod.PhdStepRecord]
    truth: np.ndarray  # (n_steps, n_objects, 3)
    ospa: np.ndarray
    cardinality: np.ndarray


def _phd_one(run_index: int, run_seed: int, cfg: sim.ScenarioConfig, ospa_cutoff: float):
    truth = sim.generate_truth(cfg)
    sets = sim.generate_observations(truth, cfg, run_seed)
    params = _phd_params(cfg, run_seed)
    result = phd_mod.phd_track(cfg.rig, sets, params)
    per_step = result.last_records_per_step()
    ospa_params = metrics.OspaParams(cutoff=ospa_cutoff, order=1.0)
    ospa = np.array(
        [
            metrics.ospa(list(rec.targets_world), list(truth.positions[rec.time]), ospa_params)
            for rec in per_step
        ]
    )
    cardinality = np.array([rec.cardinality for rec in per_step])
    return PhdRun(
        records=per_step,
        truth=truth.positions,
        ospa=ospa,
        cardinality=cardinality,
    )


@dataclass
class PhdResultAggregate:
    ospa_mean: np.ndarray
    ospa_std: np.ndarray
    cardinality_accuracy_after_burn_in: float
    runs: list[PhdRun]
    failures: list


def run_phd(
    cfg: sim.ScenarioConfig,
    n_runs: int,
    base_seed: int,
    ospa_cutoff: float = 20.0,
    burn_in: int = 10,
    parallel: bool = True,
) -> PhdResultAggregate:
    mc = sim.monte_carlo(
        functools.partial(_phd_one, cfg=cfg, ospa_cutoff=ospa_cutoff),
        n_runs,
        base_seed,
        parallel=parallel,
    )
    runs = mc.results
    ospa = np.array([r.ospa for r in runs])
    card = np.array([r.cardinality for r in runs])
    n_true = len(cfg.objects)
    return PhdResultAggregate(
        ospa_mean=ospa.mean(axis=0),
        ospa_std=ospa.std(axis=0),
        cardinality_accuracy_after_burn_in=float(np.mean(card[:, burn_in:] == n_true)),
        runs=runs,
        failures=mc.failures,
    )


# ---------------------------------------------------------------------------
# calibration


@dataclass
class CalibrateRun:
    estimates: np.ndarray  # (n_records, 6) sensor estimates per observation set
    stds: np.ndarray
    times: np.ndarray
    truth: np.ndarray  # (6,) true sensor vector
    final_targets: np.ndarray


def _calibrate_one(run_index: int, run_seed: int, cfg: sim.ScenarioConfig):
    c = cfg.calibration
    truth_pose = cfg.rig.right.pose
    prior_mean = geo.CameraPose.from_vector(
        truth_pose.as_vector() + np.array([*c.prior_position_offset, *c.prior_orientation_offset])
    )
    prior = cal.CalibrationPrior(
        mean=prior_mean,
        position_sigma=tuple(c.position_sigma),
        orientation_sigma=tuple(c.orientation_sigma),
        count=c.particles,
    )
    truth = sim.generate_truth(cfg)
    sets = sim.generate_observations(truth, cfg, run_seed)
    params = cal.CalibrationParams(
        phd=replace(
            _phd_params(cfg, run_seed),
            prune_threshold=c.prune_threshold,
            max_components=c.max_components,
            n_move_particles=c.n_move_particles,
            n_split_particles=c.n_split_particles,
        ),
        resample_threshold=c.resample_threshold,
    )
    result = cal.calibrate(cfg.rig.left, cfg.rig.right.intrinsics, sets, prior, params)
    estimates = np.array([r.estimate.as_vector() for r in result.records])
    stds = np.array([r.std for r in result.records])
    times = np.array([r.time for r in result.records])
    return CalibrateRun(
        estimates=estimates,
        stds=stds,
        times=times,
        truth=truth_pose.as_vector(),
        final_targets=result.final_targets,
    )


@dataclass
class CalibrateResultAggregate:
    error_series_mean: np.ndarray  # (n_records, 6) mean absolute error
    final_errors: np.ndarray  # (n_runs, 6)
    slopes: np.ndarray  # per-run linear-fit slope of the position error norm
    runs: list[CalibrateRun]
    failures: list


def run_calibrate(
    cfg: sim.ScenarioConfig, n_runs: int, base_seed: int, parallel: bool = True
) -> CalibrateResultAggregate:
    if cfg.calibration is None:
        raise ValueError("scenario config has no calibration section")
    mc = sim.monte_carlo(
        functools.partial(_calibrate_one, cfg=cfg), n_runs, base_seed, parallel=parallel
    )
    runs = mc.results
    errors = np.array([np.abs(r.estimates - r.truth) for r in runs])
    final = np.array([np.abs(r.estimates[-1] - r.truth) for r in runs])
    slopes = []
    for r in runs:
        pos_err = np.linalg.norm(r.estimates[:, :3] - r.truth[:3], axis=1)
        t = np.arange(pos_err.size)
        slopes.append(float(np.polyfit(t, pos_err, 1)[0]))
    return CalibrateResultAggregate(
        error_series_mean=errors.mean(axis=0),
        final_errors=final,
        slopes=np.array(slopes),
        runs=runs,
        failures=mc.failures,
    )

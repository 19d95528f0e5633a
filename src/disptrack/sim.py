"""Synthetic scenario generation and the Monte-Carlo harness.

A scenario is a declarative description (two cameras, object trajectories,
noise/clutter levels, filter parameters) that deterministically generates
ground truth and noisy, cluttered, association-free observation streams from
a seed. Observations never carry object identity. Loading a scenario builds
its two cameras once into the ``rig`` that every run of it shares.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import phd as phd_mod
from . import single_object as so
from .rng import SALT_OBSERVATIONS, SALT_TRUTH, derive_rng, run_seeds

SYNC_MODES = ("synchronous", "alternating")
TRUTH_MOTIONS = ("constant", "nearly-constant")
# The keys of a camera section that make its pose; the rest are intrinsics.
POSE_KEYS = ("position", "yaw", "pitch", "roll")


@dataclass(frozen=True)
class ObjectConfig:
    position: tuple[float, float, float]
    velocity: tuple[float, float, float] | None = None


@dataclass(frozen=True)
class FilterConfig:
    disparity_prior: tuple[float, float] = (-7.0, 5.4)
    velocity_prior: tuple[float, float] | None = None
    process_noise: float = 0.08
    n_move_particles: int = 250
    baseline_particles: int = 100
    p_survival: float = 0.99
    birth_weight: float = 0.005
    prune_threshold: float = 1e-6
    merge_distance: float = 7.0
    max_components: int = 200
    n_split_particles: int = 256
    extract_threshold: float = 0.5


@dataclass(frozen=True)
class CalibrationConfig:
    particles: int = 500
    position_sigma: tuple[float, float, float] = (5.0, 5.0, 5.0)
    orientation_sigma: tuple[float, float, float] = (np.pi / 24, np.pi / 180, np.pi / 180)
    prior_position_offset: tuple[float, float, float] = (5.0, -5.0, 5.0)
    prior_orientation_offset: tuple[float, float, float] = (np.pi / 24, np.pi / 360, np.pi / 360)
    resample_threshold: float = 0.5
    n_move_particles: int = 64
    n_split_particles: int = 128
    prune_threshold: float = 1e-3
    max_components: int = 50


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    rig: geo.StereoRig
    objects: tuple[ObjectConfig, ...]
    n_steps: int = 20
    dt: float = 1.0
    var_u: float = 2.0
    var_v: float = 2.0
    p_detect: float = 1.0
    clutter_rate: float = 0.0
    sync: str = "synchronous"
    truth_motion: str = "constant"
    truth_process_noise: float = 0.0
    seed: int = 0
    filter: FilterConfig = FilterConfig()
    calibration: CalibrationConfig | None = None
    grid_distances_cm: tuple[float, ...] | None = None
    grid_priors: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.var_u <= 0 or self.var_v <= 0:
            raise ValueError("observation noise variances must be positive")
        if not 0.0 <= self.p_detect <= 1.0:
            raise ValueError("p_detect must be in [0, 1]")
        if self.clutter_rate < 0:
            raise ValueError("clutter rate must be nonnegative")
        if self.sync not in SYNC_MODES:
            raise ValueError(f"sync must be one of {SYNC_MODES}")
        if self.truth_motion not in TRUTH_MOTIONS:
            raise ValueError(f"truth_motion must be one of {TRUTH_MOTIONS}")

    @property
    def obs_cov(self) -> np.ndarray:
        return np.diag([self.var_u, self.var_v])

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        d = dict(data)
        try:
            d["rig"] = geo.StereoRig.make_non_rectified(
                _camera(d.pop("left")), _camera(d.pop("right"))
            )
            d["objects"] = tuple(ObjectConfig(**_tupled(o)) for o in d["objects"])
            if "filter" in d:
                d["filter"] = FilterConfig(**_tupled(d["filter"]))
            if d.get("calibration") is not None:
                d["calibration"] = CalibrationConfig(**_tupled(d["calibration"]))
            if d.get("grid_distances_cm") is not None:
                d["grid_distances_cm"] = tuple(d["grid_distances_cm"])
            if d.get("grid_priors") is not None:
                d["grid_priors"] = tuple(tuple(p) for p in d["grid_priors"])
            return cls(**d)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed scenario config: {exc}") from None


def _deep_tuple(v):
    if isinstance(v, (list, tuple)):
        return tuple(_deep_tuple(x) for x in v)
    return v


def _tupled(d: dict) -> dict:
    if not isinstance(d, dict):
        raise TypeError(f"a config section must be a mapping, not {type(d).__name__}")
    return {k: _deep_tuple(v) if isinstance(v, (list, tuple)) else v for k, v in d.items()}


def _camera(section) -> geo.ProjectiveCamera:
    s = _tupled(section)
    pose = geo.CameraPose(**{k: s.pop(k) for k in POSE_KEYS if k in s})
    return geo.build_camera(geo.CameraIntrinsics(**s), pose)


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        return ScenarioConfig.from_dict(json.load(fh))


@dataclass
class GroundTruth:
    """True trajectories and their per-camera projections.

    positions/velocities: (n_steps, n_objects, 3). projections maps camera
    side to (n_steps, n_objects, 2); visible marks projections that are in
    front of the camera and inside its image.
    """

    positions: np.ndarray
    velocities: np.ndarray
    projections: dict[str, np.ndarray]
    visible: dict[str, np.ndarray]
    dt: float


def generate_truth(config: ScenarioConfig, seed: int | None = None) -> GroundTruth:
    """Integrate object motion exactly (constant velocity) or with per-step
    Gaussian velocity perturbations (nearly-constant). An object passing
    behind a camera is flagged invisible, not an error."""
    seed = config.seed if seed is None else seed
    n_obj = len(config.objects)
    positions = np.zeros((config.n_steps, n_obj, 3))
    velocities = np.zeros((config.n_steps, n_obj, 3))
    rng = derive_rng(seed, SALT_TRUTH)
    for j, obj in enumerate(config.objects):
        x = np.asarray(obj.position, dtype=float)
        v = np.zeros(3) if obj.velocity is None else np.asarray(obj.velocity, dtype=float)
        for t in range(config.n_steps):
            positions[t, j] = x
            velocities[t, j] = v
            if config.truth_motion == "nearly-constant":
                v = v + rng.standard_normal(3) * np.sqrt(
                    config.truth_process_noise * config.dt
                )
            x = x + config.dt * v
    projections = {}
    visible = {}
    for side in (geo.LEFT, geo.RIGHT):
        cam = config.rig.camera(side)
        flat = positions.reshape(-1, 3)
        uv, in_front = geo.project_masked(cam, flat)
        inside = (
            in_front
            & (uv[:, 0] >= 0.0)
            & (uv[:, 0] < cam.width)
            & (uv[:, 1] >= 0.0)
            & (uv[:, 1] < cam.height)
        )
        projections[side] = uv.reshape(config.n_steps, n_obj, 2)
        visible[side] = inside.reshape(config.n_steps, n_obj)
    return GroundTruth(
        positions=positions,
        velocities=velocities,
        projections=projections,
        visible=visible,
        dt=config.dt,
    )


def _sides_for_step(config: ScenarioConfig, t: int) -> list[str]:
    if config.sync == "synchronous":
        return [geo.LEFT, geo.RIGHT]
    return [geo.LEFT if t % 2 == 0 else geo.RIGHT]


def generate_observations(
    truth: GroundTruth, config: ScenarioConfig, rng_seed: int
) -> list[phd_mod.ObservationSet]:
    """Noisy, cluttered observation sets in processing order.

    Every visible true projection survives with probability p_detect and is
    perturbed by the observation noise; Poisson-distributed uniform clutter
    is appended; the combined set is shuffled so nothing leaks identity;
    noisy points falling outside the image are dropped.
    """
    R = config.obs_cov
    sets = []
    for t in range(truth.positions.shape[0]):
        for side in _sides_for_step(config, t):
            rng = derive_rng(rng_seed, t, SALT_OBSERVATIONS, geo.SIDE_INDEX[side])
            cam = config.rig.camera(side)
            zs = []
            for j in range(truth.positions.shape[1]):
                if not truth.visible[side][t, j]:
                    continue
                if rng.random() >= config.p_detect:
                    continue
                z = truth.projections[side][t, j] + rng.standard_normal(2) * np.sqrt(
                    [config.var_u, config.var_v]
                )
                if 0.0 <= z[0] < cam.width and 0.0 <= z[1] < cam.height:
                    zs.append(z)
            for _ in range(rng.poisson(config.clutter_rate)):
                zs.append(
                    np.array([rng.uniform(0, cam.width), rng.uniform(0, cam.height)])
                )
            order = rng.permutation(len(zs))
            observations = tuple(
                so.Observation(z=tuple(zs[i]), R=R, camera=side, time=t) for i in order
            )
            sets.append(phd_mod.ObservationSet(time=t, camera=side, observations=observations))
    return sets


def flatten_single_object(sets: list[phd_mod.ObservationSet]) -> list[so.Observation]:
    """Single-object view of an observation stream: one observation per set
    (scenarios without clutter and with p_detect = 1)."""
    out = []
    for s in sets:
        if len(s.observations) != 1:
            raise ValueError("single-object streams need exactly one observation per set")
        out.append(s.observations[0])
    return out


def worker_count() -> int:
    """Parallelism cap from DF_THREADS (0 or unset = auto)."""
    raw = os.environ.get("DF_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = os.cpu_count() or 1
    return max(1, n)


@dataclass
class MonteCarloResult:
    results: list
    failures: list[tuple[int, str]]
    seeds: list[int]


def monte_carlo(run_one, n_runs: int, base_seed: int, parallel: bool = True) -> MonteCarloResult:
    """Independent seeded runs of ``run_one(run_index, run_seed)``.

    Failures are recorded and excluded rather than aborting the campaign;
    results keep run order so aggregation is deterministic.
    """
    seeds = run_seeds(base_seed, n_runs)
    results = [None] * n_runs
    failures = []
    workers = worker_count() if parallel else 1
    if workers > 1 and n_runs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(run_one, i, seeds[i]): i for i in range(n_runs)}
            for fut in concurrent.futures.as_completed(futures):
                i = futures[fut]
                try:
                    results[i] = fut.result()
                except Exception as exc:  # noqa: BLE001 - recorded, not fatal
                    failures.append((i, f"{type(exc).__name__}: {exc}"))
    else:
        for i in range(n_runs):
            try:
                results[i] = run_one(i, seeds[i])
            except Exception as exc:  # noqa: BLE001
                failures.append((i, f"{type(exc).__name__}: {exc}"))
    failures.sort()
    kept = [r for r in results if r is not None]
    return MonteCarloResult(results=kept, failures=failures, seeds=seeds)

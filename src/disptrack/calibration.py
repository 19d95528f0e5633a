"""Joint multi-object tracking and right-camera extrinsic calibration.

The sensor state (the right camera's pose relative to the left camera,
which anchors the world frame) is represented by a weighted particle
population. A particle's hypothesis is the pose of its rig's right camera,
and it carries its own conditional Gaussian mixture, advanced by
``phd.phd_step`` under that particle's geometry, the same step the plain
PHD filter runs. After every observation set the particles are reweighted
by the closed-form multi-object likelihood that step returns,

    L(Z|s) = exp(-lambda - W_det) * prod_z [lambda c(z) + sum_k w_k q_k(z)],

then normalised (the normalisation constant cancels). Systematic resampling
keeps the population from degenerating.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry as geo
from . import phd as phd_mod
from . import single_object as so
from .rng import SALT_CALIBRATION, derive_rng


class NormalisationFailureError(Exception):
    """Every sensor particle's likelihood underflowed; the run cannot go on."""


@dataclass(frozen=True)
class CalibrationPrior:
    """Independent Gaussian prior over the six extrinsic components."""

    mean: geo.CameraPose
    position_sigma: tuple[float, float, float]
    orientation_sigma: tuple[float, float, float]
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("particle count must be at least 1")
        if np.any(np.asarray(self.position_sigma) < 0) or np.any(
            np.asarray(self.orientation_sigma) < 0
        ):
            raise ValueError("prior standard deviations must be nonnegative")

    def sigmas(self) -> np.ndarray:
        return np.array([*self.position_sigma, *self.orientation_sigma])


@dataclass(frozen=True, eq=False)
class SensorParticle:
    """One hypothesis of the right-camera extrinsics, ``rig.right.pose``,
    with its weight and its conditional multi-object mixture (in a disparity
    space of its own rig)."""

    weight: float
    mixture: phd_mod.GaussianMixture = field(repr=False)
    rig: geo.StereoRig = field(repr=False)


@dataclass(frozen=True)
class CalibrationParams:
    """The conditional PHD's parameters plus the sensor-particle settings.

    The default conditional PHD is lighter than the tracking default: fewer
    transport points, a higher prune threshold and a smaller cap, since
    every particle runs its own.
    """

    phd: phd_mod.PhdParams = phd_mod.PhdParams(
        birth_weight=0.005,
        prune_threshold=1e-3,
        max_components=50,
        n_move_particles=64,
        n_split_particles=128,
    )
    resample_threshold: float = 0.5


def _build_rig(
    left: geo.ProjectiveCamera,
    left_frame: geo.DisparityFrame,
    intrinsics: geo.CameraIntrinsics,
    pose: geo.CameraPose,
) -> geo.StereoRig:
    right = geo.build_camera(intrinsics, pose)
    return geo.StereoRig.make_non_rectified(left, right, left_frame=left_frame)


def init_calibration(
    prior: CalibrationPrior,
    left: geo.ProjectiveCamera,
    right_intrinsics: geo.CameraIntrinsics,
    seed: int,
) -> list[SensorParticle]:
    """Sample the particle population from the prior with uniform weights,
    an empty conditional mixture and a cached geometry per particle."""
    rng = derive_rng(seed, SALT_CALIBRATION)
    left_frame = geo.rectified_companion(left, owner=geo.LEFT)
    mean = prior.mean.as_vector()
    sigmas = prior.sigmas()
    particles = []
    for _ in range(prior.count):
        pose = geo.CameraPose.from_vector(mean + sigmas * rng.standard_normal(6))
        particles.append(
            SensorParticle(
                weight=1.0 / prior.count,
                mixture=phd_mod.empty_mixture(left_frame),
                rig=_build_rig(left, left_frame, right_intrinsics, pose),
            )
        )
    return particles


def joint_update(
    particles: list[SensorParticle],
    obs_set: phd_mod.ObservationSet,
    dt_steps: int,
    params: CalibrationParams,
) -> list[SensorParticle]:
    """Advance every particle's conditional PHD through one observation set
    and reweight the population by the multi-object likelihood.

    All particles share the derived random streams (common random numbers),
    so likelihood differences reflect geometry rather than sampling noise and
    a single-particle population reproduces the plain PHD filter bit for bit.
    """
    mixtures = []
    log_lcs = np.empty(len(particles))
    for k, p in enumerate(particles):
        mixture, log_lcs[k] = phd_mod.phd_step(p.mixture, obs_set, dt_steps, p.rig, params.phd)
        mixtures.append(mixture)
    with np.errstate(divide="ignore"):  # a weight that underflowed to 0 stays at -inf
        logw = np.log([p.weight for p in particles]) + log_lcs
    m = logw.max()
    if not np.isfinite(m):
        raise NormalisationFailureError("all sensor-particle weights underflowed")
    w = np.exp(logw - m)
    w /= w.sum()
    return [
        replace(p, mixture=mixture, weight=float(wk))
        for p, mixture, wk in zip(particles, mixtures, w)
    ]


def effective_sample_size(particles: list[SensorParticle]) -> float:
    w = np.array([p.weight for p in particles])
    return float(1.0 / np.sum(w**2))


def resample(
    particles: list[SensorParticle],
    ess_threshold_fraction: float,
    rng: np.random.Generator,
) -> list[SensorParticle]:
    """Systematic resampling when ESS drops below the threshold fraction.

    Conditional mixtures and rigs are duplicated with their particles and
    weights reset to uniform. Returns the input list itself when the ESS is
    high enough."""
    if not 0.0 < ess_threshold_fraction <= 1.0:
        raise ValueError("ESS threshold fraction must be in (0, 1]")
    M = len(particles)
    if effective_sample_size(particles) >= ess_threshold_fraction * M:
        return particles
    weights = np.array([p.weight for p in particles])
    idx = so.systematic_resample(weights, rng)
    return [replace(particles[i], weight=1.0 / M) for i in idx]


def estimate_sensor(particles: list[SensorParticle]) -> tuple[geo.CameraPose, np.ndarray]:
    """Weighted mean of the population per component, plus the weighted
    standard deviation. Angles are averaged arithmetically, which is valid
    for the sub-quadrant ranges calibration works in."""
    w = np.array([p.weight for p in particles])
    vecs = np.array([p.rig.right.pose.as_vector() for p in particles])
    mean = w @ vecs
    var = w @ (vecs - mean) ** 2
    return geo.CameraPose.from_vector(mean), np.sqrt(var)


@dataclass
class CalibrationStepRecord:
    time: int
    camera: str
    estimate: geo.CameraPose
    std: np.ndarray
    ess: float


@dataclass
class CalibrationResult:
    records: list[CalibrationStepRecord]
    particles: list[SensorParticle]
    final_targets: np.ndarray  # extracted conditional targets of the modal particle


def calibrate(
    left: geo.ProjectiveCamera,
    right_intrinsics: geo.CameraIntrinsics,
    observation_sets: list[phd_mod.ObservationSet],
    prior: CalibrationPrior,
    params: CalibrationParams,
) -> CalibrationResult:
    """Drive the joint conditional-PHD filter over an observation stream,
    resampling as configured, and record the sensor estimate after every
    observation set."""
    if not observation_sets:
        raise ValueError("empty observation stream")
    particles = init_calibration(prior, left, right_intrinsics, params.phd.seed)
    resample_rng = derive_rng(params.phd.seed, SALT_CALIBRATION, 1)
    records = []
    last_time = None
    for obs_set in observation_sets:
        dt_steps = 0 if last_time is None else obs_set.time - last_time
        particles = joint_update(particles, obs_set, dt_steps, params)
        particles = resample(particles, params.resample_threshold, resample_rng)
        est, std = estimate_sensor(particles)
        records.append(
            CalibrationStepRecord(
                time=obs_set.time,
                camera=obs_set.camera,
                estimate=est,
                std=std,
                ess=effective_sample_size(particles),
            )
        )
        last_time = obs_set.time
    modal = max(particles, key=lambda p: p.weight)
    final_targets, _ = phd_mod.extract_targets_world(modal.mixture, params.phd.extract_threshold)
    return CalibrationResult(records=records, particles=particles, final_targets=final_targets)

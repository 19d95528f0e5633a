"""Joint multi-object tracking and right-camera extrinsic calibration.

The sensor state (right-camera position and yaw/pitch/roll relative to the
left camera, which anchors the world frame) is represented by a weighted
particle population. Each particle carries its own conditional Gaussian
mixture, propagated by a full GM-PHD step under that particle's geometry.
After every observation set the particles are reweighted by the closed-form
multi-object likelihood

    L(Z|s) = exp(-lambda - W_det) * prod_z [lambda c(z) + sum_k w_k q_k(z)],

evaluated in log space from the same per-observation denominators the PHD
update computes, then normalised (the normalisation constant cancels).
Systematic resampling keeps the population from degenerating.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry as geo
from . import phd as phd_mod
from . import single_object as so
from .rng import SALT_CALIBRATION, SALT_PARTICLE, SALT_SPLIT, derive_rng


class NormalisationFailureError(Exception):
    """Every sensor particle's likelihood underflowed; the run cannot go on."""


@dataclass(frozen=True)
class SensorState:
    """Right-camera extrinsics: position (cm) and yaw/pitch/roll (rad)."""

    position: tuple[float, float, float]
    yaw: float
    pitch: float
    roll: float

    def __post_init__(self):
        if not (
            np.all(np.isfinite(self.position))
            and np.all(np.isfinite([self.yaw, self.pitch, self.roll]))
        ):
            raise ValueError("sensor state must be finite")

    def as_vector(self) -> np.ndarray:
        return np.array([*self.position, self.yaw, self.pitch, self.roll])

    @classmethod
    def from_vector(cls, v) -> "SensorState":
        v = np.asarray(v, dtype=float)
        return cls(position=(v[0], v[1], v[2]), yaw=v[3], pitch=v[4], roll=v[5])

    def to_pose(self) -> geo.CameraPose:
        return geo.CameraPose(
            position=tuple(self.position), yaw=self.yaw, pitch=self.pitch, roll=self.roll
        )


@dataclass(frozen=True)
class CalibrationPrior:
    """Independent Gaussian prior over the six extrinsic components."""

    mean: SensorState
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
    """One hypothesis of the right-camera extrinsics with its weight and its
    conditional multi-object mixture (in a disparity space of its own rig)."""

    s: SensorState
    weight: float
    mixture: phd_mod.GaussianMixture = field(repr=False)
    rig: geo.StereoRig = field(repr=False)


@dataclass(frozen=True)
class CalibrationParams:
    p_survival: float = 0.99
    p_detect: float = 0.95
    clutter_rate: float = 10.0
    disparity_prior: tuple[float, float] = (-7.0, 5.4)
    velocity_prior: tuple[float, float | tuple[float, float, float]] | None = None
    birth_weight: float = 0.005
    prune_threshold: float = 1e-3
    merge_distance: float = 7.0
    max_components: int = 50
    n_move_particles: int = 64
    n_split_particles: int = 128
    motion: so.MotionModel = so.MotionModel(kind="static")
    resample_threshold: float = 0.5
    jitter: float = 0.0  # fraction of the prior sigmas added on resampling
    reweight_sides: str = "both"  # or "right-only"
    seed: int = 0


def _build_rig(
    left: geo.ProjectiveCamera,
    left_frame: geo.DisparityFrame,
    intrinsics: geo.CameraIntrinsics,
    s: SensorState,
) -> geo.StereoRig:
    right = geo.build_camera(intrinsics, s.to_pose())
    return geo.StereoRig.make_non_rectified(left, right, left_frame=left_frame)


def init_calibration(
    prior: CalibrationPrior,
    left: geo.ProjectiveCamera,
    right_intrinsics: geo.CameraIntrinsics,
    rng_seed,
) -> list[SensorParticle]:
    """Sample the particle population from the prior with uniform weights,
    an empty conditional mixture and a cached geometry per particle."""
    rng = derive_rng(rng_seed, SALT_CALIBRATION) if isinstance(rng_seed, int) else rng_seed
    left_frame = geo.rectified_companion(left, 1.0, owner=geo.LEFT)
    mean = prior.mean.as_vector()
    sigmas = prior.sigmas()
    particles = []
    for _ in range(prior.count):
        v = mean + sigmas * rng.standard_normal(6)
        s = SensorState.from_vector(v)
        rig = _build_rig(left, left_frame, right_intrinsics, s)
        particles.append(
            SensorParticle(
                s=s,
                weight=1.0 / prior.count,
                mixture=phd_mod.empty_mixture(left_frame),
                rig=rig,
            )
        )
    return particles


def calibration_likelihood(
    detected: phd_mod.GaussianMixture,
    Z: list[so.Observation],
    clutter: phd_mod.ClutterModel,
) -> float:
    """Log multi-object likelihood of an observation set given a predicted,
    detection-split conditional mixture.

    log L = -lambda - W_det + sum_z log(lambda c(z) + sum_k w_k q_k(z)),
    with W_det the detected total weight and q_k the Gaussian predictive
    likelihood of z under component k. The per-observation terms are the
    PHD update's denominators.
    """
    _, log_denoms = phd_mod.phd_update_with_denominators(
        phd_mod.empty_mixture(detected.frame), detected, Z, clutter
    )
    return _log_likelihood(detected, clutter, log_denoms)


def _log_likelihood(
    detected: phd_mod.GaussianMixture, clutter: phd_mod.ClutterModel, log_denoms: np.ndarray
) -> float:
    return float(-clutter.rate - detected.total_weight + log_denoms.sum())


def _conditional_phd_step(
    particle: SensorParticle,
    obs_set: phd_mod.ObservationSet,
    dt_steps: int,
    params: CalibrationParams,
) -> tuple[SensorParticle, float]:
    """One full GM-PHD step of a particle's conditional mixture under its
    geometry, returning the particle and the log multi-object likelihood."""
    rig = particle.rig
    side = 0 if obs_set.camera == geo.LEFT else 1
    target = rig.frame_for(obs_set.camera)
    mixture = particle.mixture
    dynamic = params.velocity_prior is not None
    model = so._effective_model(params.motion, dt_steps) if dynamic else None
    survival = params.p_survival if dt_steps > 0 else 1.0
    if len(mixture) and (target is not mixture.frame or model is not None):
        mixture = phd_mod.phd_predict(
            mixture,
            target,
            survival,
            model,
            None,
            n_particles=params.n_move_particles,
            seed_keys=(params.seed, obs_set.time, SALT_PARTICLE, side),
        )
    elif len(mixture) and survival != 1.0:
        mixture = phd_mod.GaussianMixture(
            tuple(
                phd_mod.WeightedGaussian(survival * c.weight, c.state)
                for c in mixture.components
            ),
            mixture.frame,
        )
    elif target is not mixture.frame:
        mixture = phd_mod.empty_mixture(target)

    cam = rig.camera(obs_set.camera)
    det = phd_mod.DetectionModel(params.p_detect, cam.width, cam.height)
    clutter = phd_mod.ClutterModel(params.clutter_rate, cam.width, cam.height)
    missed, detected = phd_mod.split_detection(
        mixture,
        det,
        params.n_split_particles,
        seed_keys=(params.seed, obs_set.time, SALT_SPLIT, side),
    )
    Z = list(obs_set.observations)
    mixture, log_denoms = phd_mod.phd_update_with_denominators(missed, detected, Z, clutter)
    log_lc = _log_likelihood(detected, clutter, log_denoms)
    birth = phd_mod.birth_from_observations(
        Z, params.disparity_prior, params.velocity_prior, params.birth_weight, target
    )
    mixture = phd_mod.GaussianMixture(mixture.components + birth.components, target)
    mixture = phd_mod.prune_merge(
        mixture, params.prune_threshold, params.merge_distance, params.max_components
    )
    return replace(particle, mixture=mixture), log_lc


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
    stepped = []
    log_lcs = np.empty(len(particles))
    for k, particle in enumerate(particles):
        new_particle, log_lc = _conditional_phd_step(particle, obs_set, dt_steps, params)
        stepped.append(new_particle)
        log_lcs[k] = log_lc
    reweight = params.reweight_sides == "both" or obs_set.camera == geo.RIGHT
    if not reweight:
        return stepped
    with np.errstate(divide="ignore"):  # a weight that underflowed to 0 stays at -inf
        logw = np.log([p.weight for p in stepped]) + log_lcs
    m = logw.max()
    if not np.isfinite(m):
        raise NormalisationFailureError("all sensor-particle weights underflowed")
    w = np.exp(logw - m)
    w /= w.sum()
    return [replace(p, weight=float(wk)) for p, wk in zip(stepped, w)]


def effective_sample_size(particles: list[SensorParticle]) -> float:
    w = np.array([p.weight for p in particles])
    return float(1.0 / np.sum(w**2))


def resample(
    particles: list[SensorParticle],
    ess_threshold_fraction: float,
    rng: np.random.Generator,
    prior: CalibrationPrior | None = None,
    jitter: float = 0.0,
    right_intrinsics: geo.CameraIntrinsics | None = None,
    left: geo.ProjectiveCamera | None = None,
) -> list[SensorParticle]:
    """Systematic resampling when ESS drops below the threshold fraction.

    Conditional mixtures are duplicated with their particles and weights
    reset to uniform. Optional Gaussian jitter (a fraction of the prior
    sigmas) restores diversity among duplicates of the static sensor state.
    """
    if not 0.0 < ess_threshold_fraction <= 1.0:
        raise ValueError("ESS threshold fraction must be in (0, 1]")
    M = len(particles)
    if effective_sample_size(particles) >= ess_threshold_fraction * M:
        return particles
    weights = np.array([p.weight for p in particles])
    idx = so.systematic_resample(weights, rng)
    out = []
    for i in idx:
        p = particles[i]
        if jitter > 0.0 and prior is not None:
            v = p.s.as_vector() + jitter * prior.sigmas() * rng.standard_normal(6)
            s = SensorState.from_vector(v)
            left_frame = p.rig.frame_for(geo.LEFT)
            rig = _build_rig(left, left_frame, right_intrinsics, s)
            p = replace(p, s=s, rig=rig)
        out.append(replace(p, weight=1.0 / M))
    return out


def estimate_sensor(particles: list[SensorParticle]) -> tuple[SensorState, np.ndarray]:
    """Weighted mean of the population per component, plus the weighted
    standard deviation. Angles are averaged arithmetically, which is valid
    for the sub-quadrant ranges calibration works in."""
    w = np.array([p.weight for p in particles])
    vecs = np.array([p.s.as_vector() for p in particles])
    mean = w @ vecs
    var = w @ (vecs - mean) ** 2
    return SensorState.from_vector(mean), np.sqrt(var)


@dataclass
class CalibrationStepRecord:
    time: int
    camera: str
    estimate: SensorState
    std: np.ndarray
    ess: float


@dataclass
class CalibrationResult:
    records: list[CalibrationStepRecord]
    particles: list[SensorParticle]
    final_targets: np.ndarray  # extracted conditional targets of the modal particle

    def last_records_per_step(self) -> list[CalibrationStepRecord]:
        by_time: dict[int, CalibrationStepRecord] = {}
        for rec in self.records:
            by_time[rec.time] = rec
        return [by_time[t] for t in sorted(by_time)]


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
    particles = init_calibration(prior, left, right_intrinsics, params.seed)
    resample_rng = derive_rng(params.seed, SALT_CALIBRATION, 1)
    records = []
    last_time = None
    for obs_set in observation_sets:
        dt_steps = 0 if last_time is None else obs_set.time - last_time
        if dt_steps < 0:
            raise ValueError("observation sets must be time-ordered")
        particles = joint_update(particles, obs_set, dt_steps, params)
        particles = resample(
            particles,
            params.resample_threshold,
            resample_rng,
            prior=prior,
            jitter=params.jitter,
            right_intrinsics=right_intrinsics,
            left=left,
        )
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
    targets, _ = phd_mod.extract_targets(modal.mixture)
    if targets:
        means = np.array([s.mean[:3] for s, _ in targets])
        world, ok = geo.from_disparity_masked(modal.mixture.frame, means)
        final_targets = world[ok]
    else:
        final_targets = np.empty((0, 3))
    return CalibrationResult(records=records, particles=particles, final_targets=final_targets)

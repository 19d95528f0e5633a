"""Gaussian-mixture PHD filtering over disparity space.

The multi-object belief is a weighted Gaussian mixture whose integral is the
expected number of objects. Prediction transports every component with the
single-object particle move (so the same machinery covers motion and changes
of disparity space), the update is the standard PHD measurement update with
Poisson clutter, and new components are born directly from observations.

The probability of detection is constant inside a camera's field of view and
zero outside. Components that straddle the image border are split into a
detected and a missed-detection Gaussian by sampling particles, weighting
them by p_D(y) and 1 - p_D(y) respectively, and refitting; components almost
surely inside or outside keep their shape and only re-weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.spatial
from scipy.linalg.lapack import dpotrf, dpotrs

from . import geometry as geo
from . import single_object as so
from .rng import SALT_PARTICLE, SALT_SPLIT, as_rng, derive_rng

# Relative widening of the merge prefilter's ball radius (see prune_merge).
_BALL_MARGIN = 1.0 + 1e-9
# Share of a component's split particles inside (or outside) the field of
# view above which it only re-weights and keeps its shape (see split_component).
_FAST_PATH_FRACTION = 0.999


@dataclass(frozen=True)
class WeightedGaussian:
    weight: float
    state: so.GaussianState

    def __post_init__(self):
        if not np.isfinite(self.weight) or self.weight < 0:
            raise ValueError("component weight must be finite and nonnegative")


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Unnormalised Gaussian mixture in one disparity frame; the total weight
    is the expected object count."""

    components: tuple[WeightedGaussian, ...]
    frame: geo.DisparityFrame = field(repr=False)

    def __post_init__(self):
        for c in self.components:
            if c.state.frame is not self.frame:
                raise ValueError("all components must live in the mixture's frame")

    @property
    def total_weight(self) -> float:
        return float(sum(c.weight for c in self.components))

    def __len__(self) -> int:
        return len(self.components)


def empty_mixture(frame: geo.DisparityFrame) -> GaussianMixture:
    return GaussianMixture(components=(), frame=frame)


@dataclass(frozen=True)
class ClutterModel:
    """Poisson clutter, uniform over the image rectangle [0, W) x [0, H)."""

    rate: float
    width: int
    height: int

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("clutter rate must be nonnegative")

    def density(self, z) -> float:
        u, v = z
        if 0.0 <= u < self.width and 0.0 <= v < self.height:
            return 1.0 / (self.width * self.height)
        return 0.0

    def log_intensity(self, z) -> float:
        """log(rate * density(z)); -inf where the density vanishes."""
        d = self.density(z)
        if self.rate == 0.0 or d == 0.0:
            return -np.inf
        return float(np.log(self.rate) + np.log(d))


@dataclass(frozen=True)
class DetectionModel:
    """Constant probability of detection inside the field of view."""

    p_inside: float
    width: int
    height: int

    def __post_init__(self):
        if not 0.0 <= self.p_inside <= 1.0:
            raise ValueError("probability of detection must be in [0, 1]")

    def inside(self, uv: np.ndarray) -> np.ndarray:
        u, v = uv[..., 0], uv[..., 1]
        return (u >= 0.0) & (u < self.width) & (v >= 0.0) & (v < self.height)


def split_component(
    weight: float,
    state: so.GaussianState,
    det: DetectionModel,
    n_particles: int,
    rng_seed,
) -> tuple[WeightedGaussian | None, WeightedGaussian | None]:
    """Split one weighted Gaussian into (missed, detected) parts.

    Either part may be None when its weight vanishes. The detection
    probability acts on the (u, v) coordinates of the state, which are the
    image coordinates of the camera owning the frame.
    """
    rng = as_rng(rng_seed)
    samples = so._sample_gaussian(state, n_particles, rng)
    inside = det.inside(samples[:, :2])
    frac = inside.mean()
    p = det.p_inside
    if frac >= _FAST_PATH_FRACTION:
        missed = None if (1.0 - p) * weight == 0.0 else WeightedGaussian((1.0 - p) * weight, state)
        detected = None if p * weight == 0.0 else WeightedGaussian(p * weight, state)
        return missed, detected
    if frac <= 1.0 - _FAST_PATH_FRACTION:
        return WeightedGaussian(weight, state), None

    w_det = p * inside  # p_D(y) per particle
    w_mis = 1.0 - w_det
    parts = []
    for w_particle in (w_mis, w_det):
        total = w_particle.sum()
        if total <= 0.0:
            parts.append(None)
            continue
        wn = w_particle / total
        ess_denom = 1.0 - np.sum(wn**2)
        if ess_denom <= 1e-12:
            # a single effective sample cannot support a refit; keep the
            # original shape with the (tiny) estimated weight
            parts.append(WeightedGaussian(weight * total / n_particles, state))
            continue
        mean = wn @ samples
        centred = samples - mean
        cov_chol = so.ensure_spd((centred * wn[:, None]).T @ centred / ess_denom)
        parts.append(
            WeightedGaussian(
                weight * total / n_particles,
                so.GaussianState.from_factor(mean, *cov_chol, state.frame),
            )
        )
    return parts[0], parts[1]


def split_detection(
    mix: GaussianMixture, det: DetectionModel, n_particles: int, seed_keys: tuple
) -> tuple[GaussianMixture, GaussianMixture]:
    """Split a predicted mixture into missed-detection and detection parts.

    Component k samples from the derived stream (\\*seed_keys, k), so results
    do not depend on evaluation order.
    """
    missed, detected = [], []
    for k, comp in enumerate(mix.components):
        rng = derive_rng(*seed_keys, k)
        m, d = split_component(comp.weight, comp.state, det, n_particles, rng)
        if m is not None:
            missed.append(m)
        if d is not None:
            detected.append(d)
    return (
        GaussianMixture(tuple(missed), mix.frame),
        GaussianMixture(tuple(detected), mix.frame),
    )


def phd_predict(
    mix: GaussianMixture,
    target: geo.DisparityFrame,
    p_survival: float,
    model: so.MotionModel | None,
    n_particles: int = 250,
    seed_keys: tuple = (0, 0, SALT_PARTICLE, 0),
) -> GaussianMixture:
    """PHD prediction: transport every component into ``target`` with the
    particle move (composing the motion model when given) and scale weights
    by the survival probability. Births join after the update (``phd_step``).

    A same-frame component whose transport degenerates (every particle
    singular) is retained unchanged so it can recover; a cross-frame one has
    no usable representation in the target space and is dropped. The
    field-of-view handling belongs to the detection split, not to prediction.
    """
    if not 0.0 <= p_survival <= 1.0:
        raise ValueError("survival probability must be in [0, 1]")
    moved = []
    for k, comp in enumerate(mix.components):
        rng = derive_rng(*seed_keys, k)
        try:
            state = so.particle_move(comp.state, target, model, n_particles, None, rng)
        except (so.DegeneratePredictionError, so.TargetLeftFovError, so.NumericalDegeneracyError):
            if comp.state.frame is not target:
                continue
            state = comp.state
        moved.append(WeightedGaussian(p_survival * comp.weight, state))
    return GaussianMixture(tuple(moved), target)


def birth_from_observations(
    Z: list[so.Observation],
    disparity_prior: tuple[float, float],
    velocity_prior: tuple[float, float] | None,
    birth_weight: float,
    frame: geo.DisparityFrame,
) -> GaussianMixture:
    """Observation-driven birth: one component per observation, built exactly
    like the single-object initialisation."""
    comps = tuple(
        WeightedGaussian(birth_weight, so.initialise(z, disparity_prior, velocity_prior, frame))
        for z in Z
    )
    return GaussianMixture(comps, frame)


def phd_update_with_denominators(
    missed: GaussianMixture,
    detected: GaussianMixture,
    Z: list[so.Observation],
    clutter: ClutterModel,
) -> tuple[GaussianMixture, np.ndarray]:
    """PHD measurement update, also returning per-observation log
    denominators log(lambda c(z) + sum_k w_k q_k(z)).

    The missed-detection part passes through unchanged; every observation
    adds one Kalman-updated copy of each detected component with weight
    w_k q_k(z) / (lambda c(z) + sum_k' w_k' q_k'(z)), computed in log space.
    The denominators are the per-observation factors of the multi-object
    likelihood (see ``phd_step``).

    Each detected component is factored once per distinct observation
    covariance R (gain, posterior covariance, Cholesky factor of S); each
    observation then costs one solve per component. The posterior copies
    of a component share its read-only posterior covariance and factor.
    """
    if missed.frame is not detected.frame:
        raise ValueError("missed and detected mixtures must share a frame")
    frame = missed.frame
    H = {dyn: geo.disparity_observation_matrix(geo.LEFT, dyn) for dyn in (False, True)}
    out = list(missed.components)
    log_denoms = np.empty(len(Z))
    log_weights = [np.log(c.weight) if c.weight > 0 else -np.inf for c in detected.components]
    factors: dict[bytes, list] = {}
    for j, z in enumerate(Z):
        if z.camera != frame.owner:
            raise ValueError("observations must come from the camera owning the frame")
        key = z.R.tobytes()
        if key not in factors:
            factors[key] = [
                so.innovation_factor(c.state.mean, c.state.cov, H[c.state.dynamic], z.R)
                for c in detected.components
            ]
        zj = np.asarray(z.z)
        updated = []
        log_terms = [clutter.log_intensity(z.z)]
        for comp, lw_prior, factor in zip(detected.components, log_weights, factors[key]):
            mean, loglik = so.factored_update(factor, comp.state.mean, zj)
            lw = lw_prior + loglik
            post = so.GaussianState.from_factor(mean, factor.post_cov, factor.post_chol, frame)
            updated.append((lw, post))
            log_terms.append(lw)
        log_denom = np.logaddexp.reduce(log_terms)
        log_denoms[j] = log_denom
        for lw, post in updated:
            w = 0.0 if not np.isfinite(lw - log_denom) else float(np.exp(lw - log_denom))
            out.append(WeightedGaussian(w, post))
    return GaussianMixture(tuple(out), frame), log_denoms


def prune_merge(
    mix: GaussianMixture,
    prune_threshold: float = 1e-6,
    merge_distance: float = 7.0,
    max_components: int = 200,
) -> GaussianMixture:
    """Drop low-weight components, merge nearby ones moment-matching, and cap
    the component count by descending weight.

    Starting from the heaviest component, a candidate joins its group when
    the squared Mahalanobis distance between the means is below the merge
    distance in both components' own metrics. The symmetric test stops a
    diffuse stray component from either swallowing tight well-localised ones
    or attaching to them and inflating their fit. Merging alone preserves
    total weight; pruning and the cap reduce it.

    Only the means inside a ball around the group head j are tested. Since
    d^T P_j^-1 d >= |d|^2 / lambda_max(P_j), a candidate farther than
    sqrt(merge_distance * lambda_max(P_j)) fails the head's own test, so
    leaving it out changes nothing. The ball is widened by a relative 1e-9
    against the rounding of lambda_max and of the distances, queried on a
    k-d tree of the means, and its hits are tested in the same weight order
    as a scan of all components: the groups, their order and the merged
    moments are exactly those of the all-pairs scan.
    """
    if prune_threshold <= 0 or merge_distance <= 0:
        raise ValueError("thresholds must be positive")
    comps = [c for c in mix.components if c.weight >= prune_threshold]
    if not comps:
        return GaussianMixture((), mix.frame)
    chols = []
    for c in comps:
        chol, info = dpotrf(c.state.cov, lower=1)
        # info > 0: numerically singular spread (e.g. a clutter ghost
        # stretched to enormous depth); the component never accepts a merge
        chols.append(chol if info == 0 else None)
    means = np.array([c.state.mean for c in comps])
    lambda_max = np.linalg.eigvalsh(np.array([c.state.cov for c in comps]))[:, -1]
    radii = np.sqrt(merge_distance * lambda_max * _BALL_MARGIN)
    tree = scipy.spatial.cKDTree(means)
    order = sorted(range(len(comps)), key=lambda i: -comps[i].weight)
    rank = [0] * len(comps)
    for r, i in enumerate(order):
        rank[i] = r
    assigned = [False] * len(comps)
    merged: list[WeightedGaussian] = []
    for j in order:
        if assigned[j]:
            continue
        group = [j]
        if chols[j] is not None:
            for i in sorted(tree.query_ball_point(means[j], radii[j]), key=rank.__getitem__):
                if assigned[i] or i == j or chols[i] is None:
                    continue
                diff = comps[i].state.mean - comps[j].state.mean
                if (
                    diff @ dpotrs(chols[i], diff, lower=1)[0] <= merge_distance
                    and diff @ dpotrs(chols[j], diff, lower=1)[0] <= merge_distance
                ):
                    group.append(i)
        for i in group:
            assigned[i] = True
        w = np.array([comps[i].weight for i in group])
        w_total = w.sum()
        mean = (w @ means[group]) / w_total
        cov = np.zeros_like(comps[j].state.cov)
        for i, wi in zip(group, w):
            d = comps[i].state.mean - mean
            cov += wi * (comps[i].state.cov + np.outer(d, d))
        cov /= w_total
        merged.append(
            WeightedGaussian(
                float(w_total),
                so.GaussianState.from_factor(mean, *so.ensure_spd(cov), mix.frame),
            )
        )
    merged.sort(key=lambda c: -c.weight)
    return GaussianMixture(tuple(merged[:max_components]), mix.frame)


def extract_targets(
    mix: GaussianMixture, weight_threshold: float = 0.5
) -> tuple[list[tuple[so.GaussianState, float]], int]:
    """Components above the weight threshold plus the rounded-total-weight
    cardinality estimate."""
    targets = [(c.state, c.weight) for c in mix.components if c.weight > weight_threshold]
    return targets, int(round(mix.total_weight))


def extract_targets_world(
    mix: GaussianMixture, weight_threshold: float = 0.5
) -> tuple[np.ndarray, int]:
    """The extracted target means mapped to world space, (k, 3), plus the
    cardinality estimate. A mean at d ~ 0 has no 3-D location and is left
    out."""
    targets, cardinality = extract_targets(mix, weight_threshold)
    if not targets:
        return np.empty((0, 3)), cardinality
    means = np.array([s.mean[:3] for s, _ in targets])
    world, ok = geo.from_disparity_masked(mix.frame, means)
    return world[ok], cardinality


@dataclass(frozen=True)
class ObservationSet:
    """All observations of one camera at one time step (order-free set)."""

    time: int
    camera: str
    observations: tuple[so.Observation, ...]


@dataclass(frozen=True)
class PhdParams:
    p_survival: float = 0.99
    p_detect: float = 0.95
    clutter_rate: float = 10.0
    disparity_prior: tuple[float, float] = (-7.0, 5.4)
    velocity_prior: tuple[float, float] | None = None
    birth_weight: float = 0.1
    prune_threshold: float = 1e-6
    merge_distance: float = 7.0
    max_components: int = 200
    n_move_particles: int = 250
    n_split_particles: int = 256
    extract_threshold: float = 0.5
    motion: so.MotionModel = so.MotionModel()
    seed: int = 0


@dataclass
class PhdStepRecord:
    time: int
    camera: str
    targets_world: np.ndarray  # (k, 3) extracted means mapped to world space
    cardinality: int
    total_weight: float
    n_components: int


@dataclass
class PhdTrackResult:
    records: list[PhdStepRecord]
    final_mixture: GaussianMixture

    def last_records_per_step(self) -> list[PhdStepRecord]:
        by_time: dict[int, PhdStepRecord] = {}
        for rec in self.records:
            by_time[rec.time] = rec
        return [by_time[t] for t in sorted(by_time)]


def phd_step(
    mixture: GaussianMixture,
    obs_set: ObservationSet,
    dt_steps: int,
    rig: geo.StereoRig,
    params: PhdParams,
) -> tuple[GaussianMixture, float]:
    """One GM-PHD step for one camera's observation set, ``dt_steps`` time
    steps after the previous set: predict (moving the mixture into the
    updating camera's space and composing motion when time advanced), split
    by detection, update, birth from the observations, prune and merge.

    Returns the new mixture and the log multi-object likelihood of the set

        log L(Z) = -lambda - W_det + sum_z log(lambda c(z) + sum_k w_k q_k(z)),

    with W_det the detected predicted weight; its per-observation terms are
    the update's denominators. The random streams are derived from
    (params.seed, obs_set.time, salt, camera), so every caller that steps the
    same mixture with the same parameters gets the same bits.
    """
    if dt_steps < 0:
        raise ValueError("observation sets must be time-ordered")
    target = rig.frame_for(obs_set.camera)
    side = geo.SIDE_INDEX[obs_set.camera]
    dynamic = params.velocity_prior is not None
    model = so._effective_model(params.motion, dt_steps) if dynamic else None
    survival = params.p_survival if dt_steps > 0 else 1.0
    if len(mixture) and (target is not mixture.frame or model is not None):
        mixture = phd_predict(
            mixture,
            target,
            survival,
            model,
            n_particles=params.n_move_particles,
            seed_keys=(params.seed, obs_set.time, SALT_PARTICLE, side),
        )
    elif len(mixture) and survival != 1.0:
        mixture = GaussianMixture(
            tuple(WeightedGaussian(survival * c.weight, c.state) for c in mixture.components),
            mixture.frame,
        )
    elif target is not mixture.frame:
        mixture = empty_mixture(target)

    cam = rig.camera(obs_set.camera)
    det = DetectionModel(params.p_detect, cam.width, cam.height)
    clutter = ClutterModel(params.clutter_rate, cam.width, cam.height)
    missed, detected = split_detection(
        mixture,
        det,
        params.n_split_particles,
        seed_keys=(params.seed, obs_set.time, SALT_SPLIT, side),
    )
    Z = list(obs_set.observations)
    mixture, log_denoms = phd_update_with_denominators(missed, detected, Z, clutter)
    log_lc = float(-clutter.rate - detected.total_weight + log_denoms.sum())
    birth = birth_from_observations(
        Z, params.disparity_prior, params.velocity_prior, params.birth_weight, target
    )
    mixture = GaussianMixture(mixture.components + birth.components, target)
    mixture = prune_merge(
        mixture, params.prune_threshold, params.merge_distance, params.max_components
    )
    return mixture, log_lc


def phd_track(
    rig: geo.StereoRig, observation_sets: list[ObservationSet], params: PhdParams
) -> PhdTrackResult:
    """Full GM-PHD recursion over per-camera observation sets in processing
    order: one ``phd_step`` per set, then target extraction.
    """
    if not observation_sets:
        raise ValueError("empty observation stream")
    mixture = empty_mixture(rig.frame_for(observation_sets[0].camera))
    records = []
    last_time = None
    for obs_set in observation_sets:
        dt_steps = 0 if last_time is None else obs_set.time - last_time
        mixture, _ = phd_step(mixture, obs_set, dt_steps, rig, params)
        world, cardinality = extract_targets_world(mixture, params.extract_threshold)
        records.append(
            PhdStepRecord(
                time=obs_set.time,
                camera=obs_set.camera,
                targets_world=world,
                cardinality=cardinality,
                total_weight=mixture.total_weight,
                n_components=len(mixture),
            )
        )
        last_time = obs_set.time
    return PhdTrackResult(records=records, final_mixture=mixture)

"""Single-object localisation and tracking in disparity space.

The object belief is a Gaussian in the disparity space of one camera
(3-D ``(u, v, d)`` when static, 6-D with velocities when dynamic). Camera
observations are linear in that space, so the measurement update is an exact
Kalman update. Nonlinear steps (the motion model expressed in world space,
and the change of disparity space when the other camera observes) are
handled by sampling particles, transporting them through 3-D and refitting a
Gaussian:

a) sample a particle representation of the belief,
b) map it into (extended) world space,
c) apply the Markov transition there,
d) map the result back into a disparity space,
e) recover mean and covariance,
f) apply the Kalman update with the new observation.

Transporting between the two cameras' disparity spaces (d) with a different
target space is the "particle move" used for non-rectified pairs.

Also provides the two comparison baselines: a bootstrap particle filter
operating directly in world space and an inverse-depth EKF.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrs

from . import geometry as geo
from .rng import SALT_PARTICLE, as_rng, derive_rng

COV_JITTER = 1e-9

# Fraction of the motion step used as the finite-difference probe when
# transporting velocities between spaces; small enough that probe pairs
# rarely straddle a camera plane, large enough to stay well above rounding.
VELOCITY_PROBE_SCALE = 1e-2


class DegeneratePredictionError(Exception):
    """All particles of a transport mapped to singular points."""


class TargetLeftFovError(Exception):
    """Field-of-view truncation removed (almost) every particle."""


class NumericalDegeneracyError(Exception):
    """An innovation or Jacobian became numerically singular."""


def symmetrise(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.T)


def ensure_spd(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrise and, if needed, add a small diagonal jitter so the matrix
    admits a Cholesky factorisation. The jitter starts at ``COV_JITTER``
    and escalates relative to the matrix scale for badly conditioned fits.
    Returns the matrix and the lower Cholesky factor that accepted it, a
    read-only checked pair for ``GaussianState.from_factor``; a non-finite
    matrix raises ``ValueError`` (numpy's Cholesky lets NaN through)."""
    S = symmetrise(np.asarray(P, dtype=float))
    eye = np.eye(S.shape[0])
    scale = max(1.0, float(np.abs(np.diag(S)).max()))
    eps = COV_JITTER
    for _ in range(8):
        try:
            L = np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            S = S + eps * eye
            eps = max(eps * 100.0, 1e-12 * scale)
            continue
        if not np.isfinite(S).all():
            raise ValueError("covariance must be finite")
        S.flags.writeable = L.flags.writeable = False
        return S, L
    raise NumericalDegeneracyError("covariance cannot be regularised")


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Gaussian belief in a tagged disparity space.

    mean is (u, v, d) or (u, v, d, du, dv, dd); cov is the matching SPD
    matrix and chol its lower Cholesky factor, both stored read-only so
    states can share them. States are values: every operation returns a new
    instance. A state built by a caller is checked and factored once; the
    library builds its states with ``from_factor``, which skips the re-check.
    """

    mean: np.ndarray
    cov: np.ndarray
    frame: geo.DisparityFrame = field(repr=False)
    chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape not in ((3,), (6,)) or cov.shape != (mean.size, mean.size):
            raise ValueError("state must be 3-D or 6-D with matching covariance")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("state mean/covariance must be finite")
        scale = max(1.0, float(np.abs(cov).max()))
        if np.abs(cov - cov.T).max() > 1e-12 * scale:
            raise ValueError("covariance is not symmetric")
        cov = symmetrise(cov)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            # accept semidefinite input (e.g. a zero-variance prior block) by
            # promoting it with the standard jitter; reject indefinite input
            cov = cov + COV_JITTER * np.eye(cov.shape[0])
            try:
                chol = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise ValueError("covariance is not positive semidefinite") from None
        cov.flags.writeable = chol.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "chol", chol)

    @property
    def dynamic(self) -> bool:
        return self.mean.size == 6

    @classmethod
    def from_factor(
        cls, mean: np.ndarray, cov: np.ndarray, chol: np.ndarray, frame: geo.DisparityFrame
    ) -> GaussianState:
        """A state around ``mean`` with a read-only covariance and factor
        pair from ``ensure_spd`` or another state. The pair is already
        checked, so only the mean is."""
        mean = np.asarray(mean, dtype=float)
        if mean.shape != (cov.shape[0],) or not np.isfinite(mean).all():
            raise ValueError("state mean must be finite and match the covariance")
        state = object.__new__(cls)
        object.__setattr__(state, "mean", mean)
        object.__setattr__(state, "cov", cov)
        object.__setattr__(state, "frame", frame)
        object.__setattr__(state, "chol", chol)
        return state


@dataclass(frozen=True)
class Observation:
    """Image-plane measurement (pixels) from one camera at one time step."""

    z: tuple[float, float]
    R: np.ndarray
    camera: str
    time: int = 0
    chol: np.ndarray = field(init=False, repr=False, compare=False)  # lower factor of R

    def __post_init__(self):
        z = tuple(float(v) for v in self.z)
        R = symmetrise(np.asarray(self.R, dtype=float))
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(R))):
            raise ValueError("observation and its covariance must be finite")
        chol = np.linalg.cholesky(R)
        if self.time < 0:
            raise ValueError("time index must be nonnegative")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "chol", chol)


@dataclass(frozen=True)
class MotionModel:
    """Constant-velocity world-space motion with white velocity noise.

    q is the velocity-increment variance per axis over one second
    (cm^2 s^-2); the per-step increment has variance q*dt. Whether an object
    moves at all is decided by its velocity prior: a static (3-D) state has
    no velocity to move with.
    """

    q: float = 0.0
    dt: float = 1.0

    def __post_init__(self):
        if self.q < 0:
            raise ValueError("process noise variance must be nonnegative")
        if self.dt <= 0:
            raise ValueError("dt must be positive")


def initialise(
    obs: Observation,
    disparity_prior: tuple[float, float],
    velocity_prior: tuple[float, float] | None,
    frame: geo.DisparityFrame,
) -> GaussianState:
    """Single-camera initialisation: the observation pins (u, v), the
    disparity prior covers the unknown depth (negative disparity included,
    no truncation), and an optional velocity prior extends the state."""
    if obs.camera != frame.owner:
        raise ValueError("initialising observation must come from the frame owner")
    mu_d, var_d = disparity_prior
    mean = [obs.z[0], obs.z[1], mu_d]
    blocks = [obs.R, np.array([[var_d]])]
    if velocity_prior is not None:
        mu_v, var_v = velocity_prior
        mean += [mu_v] * 3
        # var_v is a shared variance or one per (du, dv, dd) axis
        blocks.append(np.diag(np.broadcast_to(np.asarray(var_v, dtype=float), (3,)).copy()))
    cov = scipy.linalg.block_diag(*blocks)
    return GaussianState(mean=np.array(mean, dtype=float), cov=cov, frame=frame)


@dataclass(frozen=True, eq=False)
class InnovationFactor:
    """The observation-independent half of a Kalman update of one Gaussian
    under one observation model (H, R); every posterior state shares the
    checked pair (post_cov, post_chol) from ``ensure_spd``."""

    predicted: np.ndarray  # H m
    chol: np.ndarray  # lower Cholesky factor of S = H P H^T + R
    gain: np.ndarray  # K = P H^T S^-1
    post_cov: np.ndarray  # Joseph form (I - K H) P (I - K H)^T + K R K^T, made SPD
    post_chol: np.ndarray  # lower Cholesky factor of post_cov
    log_det: float  # log det S


def innovation_factor(
    mean: np.ndarray, cov: np.ndarray, H: np.ndarray, R: np.ndarray
) -> InnovationFactor:
    """Factor the innovation covariance once; any number of observations
    sharing (H, R) then update through ``factored_update``."""
    S = H @ cov @ H.T + R
    try:
        chol = np.linalg.cholesky(symmetrise(S))
    except np.linalg.LinAlgError:
        raise NumericalDegeneracyError("innovation covariance not invertible") from None
    K = dpotrs(chol, H @ cov, lower=1)[0].T
    I_KH = np.eye(mean.size) - K @ H
    post = ensure_spd(I_KH @ cov @ I_KH.T + K @ R @ K.T)
    return InnovationFactor(H @ mean, chol, K, *post, 2.0 * np.log(np.diag(chol)).sum())


def factored_update(
    factor: InnovationFactor, mean: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, float]:
    """The per-observation half of a Kalman update: the posterior mean and
    the log of the Gaussian predictive likelihood N(z; H m, S).

    The inputs must be finite (``GaussianState`` and ``Observation`` check
    that); the LAPACK solve does not check again."""
    innov = z - factor.predicted
    alpha = dpotrs(factor.chol, innov, lower=1)[0]
    post_mean = mean + factor.gain @ innov
    loglik = -0.5 * (innov @ alpha + factor.log_det + z.size * np.log(2.0 * np.pi))
    return post_mean, float(loglik)


def linear_gaussian_update(
    mean: np.ndarray, cov: np.ndarray, H: np.ndarray, z: np.ndarray, R: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Kalman measurement update; returns the posterior and the log of the
    Gaussian predictive likelihood N(z; H m, H P H^T + R)."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    z = np.asarray(z, dtype=float)
    if not all(np.all(np.isfinite(a)) for a in (mean, cov, z, R)):
        raise ValueError("update inputs must be finite")
    factor = innovation_factor(mean, cov, H, R)
    post_mean, loglik = factored_update(factor, mean, z)
    return post_mean, factor.post_cov, loglik


def kalman_update(state: GaussianState, obs: Observation) -> tuple[GaussianState, float]:
    """Exact measurement update in the state's disparity space.

    The observation matrix is chosen from the frame: the owning camera sees
    (u, v); for a physical rectified pair the partner sees (u + d, v).
    Returns the posterior state and the log predictive likelihood of ``obs``.
    """
    frame = state.frame
    if obs.camera == frame.owner:
        side = geo.LEFT
    elif frame.physical_pair:
        side = geo.RIGHT
    else:
        raise ValueError(
            f"camera {obs.camera!r} cannot update a state in the frame of {frame.owner!r};"
            " a particle move is required first"
        )
    H = geo.disparity_observation_matrix(side, state.dynamic)
    factor = innovation_factor(state.mean, state.cov, H, obs.R)
    mean, loglik = factored_update(factor, state.mean, np.asarray(obs.z))
    return GaussianState.from_factor(mean, factor.post_cov, factor.post_chol, frame), loglik


def _sample_gaussian(state: GaussianState, n: int, rng: np.random.Generator) -> np.ndarray:
    return state.mean + rng.standard_normal((n, state.mean.size)) @ state.chol.T


def _fit_gaussian(samples: np.ndarray, frame: geo.DisparityFrame) -> GaussianState:
    mean = samples.mean(axis=0)
    centred = samples - mean
    cov = centred.T @ centred / (samples.shape[0] - 1)
    return GaussianState.from_factor(mean, *ensure_spd(cov), frame)


def particle_move(
    state: GaussianState,
    target: geo.DisparityFrame,
    model: MotionModel | None,
    n_particles: int,
    fov_camera: geo.ProjectiveCamera | None,
    rng_seed,
) -> GaussianState:
    """Transport a Gaussian belief into another disparity space through 3-D,
    composing a world-space motion step when ``model`` is given, and refit a
    Gaussian. With ``target`` the state's own frame this is the motion
    prediction within one space.

    Velocities are transported without Jacobians by mapping a closely spaced
    point pair (x, x + v*eps) and differencing. A particle whose probe pair
    straddles a camera plane sits in the singular cone of the homogeneous
    map, where the difference quotient is meaningless, and is discarded.
    When ``fov_camera`` is given, particles whose world position falls
    outside its field of view are discarded before the fit.
    """
    if n_particles < 2:
        raise ValueError("need at least two particles")
    if model is not None and not state.dynamic:
        raise ValueError("constant-velocity transition requires a dynamic state")
    rng = as_rng(rng_seed)
    samples = _sample_gaussian(state, n_particles, rng)
    eps = VELOCITY_PROBE_SCALE * (model.dt if model is not None else 1.0)

    x, w1 = geo.from_disparity_homogeneous(state.frame, samples[:, :3])
    valid = np.abs(w1) > geo.W_TOL
    v = None
    if state.dynamic:
        x2, w2 = geo.from_disparity_homogeneous(
            state.frame, samples[:, :3] + eps * samples[:, 3:]
        )
        v = (x2 - x) / eps
        valid &= (np.abs(w2) > geo.W_TOL) & (w1 * w2 > 0.0)

    if model is not None:
        noise = rng.standard_normal((n_particles, 3)) * np.sqrt(model.q * model.dt)
        x = x + model.dt * v
        v = v + noise

    y, w3 = geo.to_disparity_homogeneous(target, x)
    valid &= np.abs(w3) > geo.W_TOL
    if state.dynamic:
        y2, w4 = geo.to_disparity_homogeneous(target, x + eps * v)
        y = np.concatenate([y, (y2 - y) / eps], axis=1)
        valid &= (np.abs(w4) > geo.W_TOL) & (w3 * w4 > 0.0)

    if fov_camera is not None:
        valid &= geo.in_fov_mask(fov_camera, x)

    kept = y[valid]
    if kept.shape[0] < 2:
        if fov_camera is not None:
            raise TargetLeftFovError("fewer than two particles survive the field of view")
        raise DegeneratePredictionError("all particles mapped to singular points")
    return _fit_gaussian(kept, target)


@dataclass(frozen=True)
class TrackingParams:
    disparity_prior: tuple[float, float] = (-7.0, 5.4)
    velocity_prior: tuple[float, float] | None = None
    motion: MotionModel = MotionModel()
    n_move_particles: int = 250
    seed: int = 0


@dataclass
class TrackResult:
    estimates: np.ndarray  # one (x, y, z) row per processed observation
    times: np.ndarray
    loglik: float
    counters: dict


def _effective_model(motion: MotionModel, dt_steps: int) -> MotionModel | None:
    if dt_steps <= 0:
        return None
    return replace(motion, dt=motion.dt * dt_steps)


def track_single(
    rig: geo.StereoRig, observations: list[Observation], params: TrackingParams
) -> TrackResult:
    """Recursive single-object estimation over a time-ordered observation
    stream (the cameras need not be synchronised).

    The first observation initialises the belief in its camera's disparity
    space. Afterwards each observation triggers: nothing (static object seen
    by the camera owning the current space), a particle move within the same
    space (dynamic object, time advanced), or a particle move into the other
    camera's space (with the motion step composed for a dynamic object when
    time advanced, and particles outside that camera's field of view
    dropped), followed by a Kalman update.
    The 3-D estimate is the disparity-space MAP (the mean) mapped to world
    space.
    """
    if not observations:
        raise ValueError("empty observation stream")
    dynamic = params.velocity_prior is not None
    counters = {"particle_predictions": 0, "particle_moves": 0, "kalman_updates": 0}
    estimates = []
    times = []
    total_loglik = 0.0
    state = None
    last_time = None
    for obs in observations:
        target = rig.frame_for(obs.camera)
        if state is None:
            state = initialise(obs, params.disparity_prior, params.velocity_prior, target)
        else:
            dt_steps = obs.time - last_time
            if dt_steps < 0:
                raise ValueError("observations must be time-ordered")
            model = _effective_model(params.motion, dt_steps) if dynamic else None
            rng = derive_rng(params.seed, obs.time, SALT_PARTICLE, geo.SIDE_INDEX[obs.camera], 0)
            if target is state.frame:
                if model is not None:
                    state = particle_move(state, target, model, params.n_move_particles, None, rng)
                    counters["particle_predictions"] += 1
            else:
                state = particle_move(
                    state, target, model, params.n_move_particles, rig.camera(obs.camera), rng
                )
                counters["particle_moves"] += 1
            state, loglik = kalman_update(state, obs)
            counters["kalman_updates"] += 1
            total_loglik += loglik
        estimates.append(geo.from_disparity(state.frame, state.mean[:3]))
        times.append(obs.time)
        last_time = obs.time
    return TrackResult(
        estimates=np.array(estimates),
        times=np.array(times),
        loglik=total_loglik,
        counters=counters,
    )


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Indices of a systematic resampling of normalised weights."""
    n = weights.size
    positions = (np.arange(n) + rng.random()) / n
    return np.searchsorted(np.cumsum(weights), positions).clip(max=n - 1)


@dataclass
class ParticleFilterResult:
    estimates: np.ndarray
    times: np.ndarray
    diverged: bool


def baseline_pf(
    rig: geo.StereoRig,
    observations: list[Observation],
    n_particles: int,
    disparity_prior: tuple[float, float],
    world_velocity_prior: tuple[float, float] | None = None,
    motion: MotionModel | None = None,
    seed: int = 0,
) -> ParticleFilterResult:
    """Bootstrap particle filter directly in world space.

    Initialised by sampling a ray bundle through the first observation with
    depth drawn from the disparity-equivalent prior; weighted by image-plane
    Gaussian likelihoods; systematically resampled when ESS < n/2. Weight
    underflow flags divergence but the run continues and is scored.
    """
    if not observations:
        raise ValueError("empty observation stream")
    rng = derive_rng(seed, 0, SALT_PARTICLE, 7)
    first = observations[0]
    frame = rig.frame_for(first.camera)
    mu_d, var_d = disparity_prior
    uv = np.asarray(first.z) + rng.standard_normal((n_particles, 2)) @ first.chol.T
    d = mu_d + np.sqrt(var_d) * rng.standard_normal(n_particles)
    x, valid = geo.from_disparity_masked(frame, np.column_stack([uv, d]))
    logw = np.where(valid, 0.0, -np.inf)
    v = None
    if world_velocity_prior is not None:
        mu_v, var_v = world_velocity_prior
        v = mu_v + np.sqrt(var_v) * rng.standard_normal((n_particles, 3))

    diverged = False
    estimates = []
    times = [first.time]
    last_time = first.time

    def normalised(logw):
        m = logw.max()
        if not np.isfinite(m):
            return None
        w = np.exp(logw - m)
        return w / w.sum()

    w = normalised(logw)
    if w is None:
        w = np.full(n_particles, 1.0 / n_particles)
        diverged = True
    estimates.append(w @ x)

    for obs in observations[1:]:
        dt_steps = obs.time - last_time
        if v is not None and motion is not None and dt_steps > 0:
            dt = motion.dt * dt_steps
            x = x + dt * v
            v = v + rng.standard_normal((n_particles, 3)) * np.sqrt(motion.q * dt)
        cam = rig.camera(obs.camera)
        uv_pred, in_front = geo.project_masked(cam, x)
        innov = uv_pred - np.asarray(obs.z)
        sol = dpotrs(obs.chol, innov.T, lower=1)[0].T
        step_ll = -0.5 * np.einsum("ij,ij->i", innov, sol)
        step_ll -= 0.5 * (2 * np.log(2 * np.pi) + 2 * np.log(np.diag(obs.chol)).sum())
        logw = logw + np.where(in_front, step_ll, -np.inf)
        w = normalised(logw)
        if w is None:
            # total weight underflow: report divergence, keep going
            diverged = True
            logw = np.zeros(n_particles)
            w = np.full(n_particles, 1.0 / n_particles)
        estimates.append(w @ x)
        ess = 1.0 / np.sum(w**2)
        if ess < 0.5 * n_particles:
            idx = systematic_resample(w, rng)
            x = x[idx]
            if v is not None:
                v = v[idx]
            logw = np.zeros(n_particles)
        times.append(obs.time)
        last_time = obs.time

    return ParticleFilterResult(
        estimates=np.array(estimates), times=np.array(times), diverged=diverged
    )


@dataclass
class InverseDepthResult:
    estimates: np.ndarray
    times: np.ndarray


def _ray_point(camera: geo.ProjectiveCamera, u: float, v: float, rho: float) -> np.ndarray:
    intr = camera.intrinsics
    m_cam = np.array([(u - intr.principal_u) / intr.fu, (v - intr.principal_v) / intr.fv, 1.0])
    return np.asarray(camera.pose.position) + (camera.pose.rotation() @ m_cam) / rho


def baseline_inverse_depth_ekf(
    rig: geo.StereoRig,
    observations: list[Observation],
    disparity_prior: tuple[float, float],
) -> InverseDepthResult:
    """EKF over (u, v, rho): pixel coordinates in the first camera plus
    inverse depth along its ray (depth measured along the optical axis, so
    rho is linear in disparity). The first camera observes the state
    linearly; the other camera's observation is linearised to first order.
    """
    if not observations:
        raise ValueError("empty observation stream")
    first = observations[0]
    anchor_side = first.camera
    anchor = rig.camera(anchor_side)
    frame = rig.frame_for(anchor_side)
    scale = anchor.intrinsics.fu * frame.baseline  # d = scale * rho
    mu_d, var_d = disparity_prior
    mean = np.array([first.z[0], first.z[1], mu_d / scale])
    cov = scipy.linalg.block_diag(first.R, np.array([[var_d / scale**2]]))

    R_wc_anchor = anchor.pose.rotation()
    intr = anchor.intrinsics

    def point(s):
        return _ray_point(anchor, s[0], s[1], s[2])

    estimates = [point(mean)]
    times = [first.time]

    for obs in observations[1:]:
        if obs.camera == anchor_side:
            H = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
            mean, cov, _ = linear_gaussian_update(mean, cov, H, np.asarray(obs.z), obs.R)
        else:
            cam = rig.camera(obs.camera)
            u, v, rho = mean
            m_cam = np.array(
                [(u - intr.principal_u) / intr.fu, (v - intr.principal_v) / intr.fv, 1.0]
            )
            x = np.asarray(anchor.pose.position) + (R_wc_anchor @ m_cam) / rho
            # chain rule: image jacobian of the observing camera times the
            # jacobian of the ray point w.r.t. (u, v, rho)
            xb = np.append(x, 1.0)
            a, b, w = cam.P @ xb
            if abs(w) <= geo.W_TOL:
                raise NumericalDegeneracyError("linearisation point on the camera plane")
            J_img = np.vstack(
                [(cam.P[0, :3] * w - a * cam.P[2, :3]) / w**2,
                 (cam.P[1, :3] * w - b * cam.P[2, :3]) / w**2]
            )
            J_ray = np.column_stack(
                [
                    R_wc_anchor @ np.array([1.0 / intr.fu, 0.0, 0.0]) / rho,
                    R_wc_anchor @ np.array([0.0, 1.0 / intr.fv, 0.0]) / rho,
                    -(R_wc_anchor @ m_cam) / rho**2,
                ]
            )
            H = J_img @ J_ray
            pred = np.array([a / w, b / w])
            if not np.isfinite(H @ cov).all():
                raise ValueError("linearised observation model is not finite")
            # EKF update with the innovation evaluated at the nonlinear
            # prediction rather than H @ mean
            factor = innovation_factor(mean, cov, H, obs.R)
            mean = mean + factor.gain @ (np.asarray(obs.z) - pred)
            cov = factor.post_cov
        estimates.append(point(mean))
        times.append(obs.time)

    return InverseDepthResult(estimates=np.array(estimates), times=np.array(times))

"""Projective camera models and disparity-space transforms.

Coordinate conventions used throughout the package:

* World frame: right-handed, units are centimetres.
* Camera frame: x right, y down, z forward (optical axis). A point is in
  front of a camera iff its camera-frame z coordinate is positive.
* Orientation: intrinsic yaw-pitch-roll. The camera-to-world rotation is
  ``R = Ry(yaw) @ Rx(pitch) @ Rz(roll)``; positive yaw tilts the optical
  axis towards +x.
* Image frame: pixels, origin top-left, u right, v down. The focal length
  may be negative, in which case the image is mirrored and the disparity of
  points in front of a horizontally rectified pair is negative.

A disparity space is attached to a horizontally rectified camera pair and
parametrises a world point ``x`` as ``y = (u, v, d)`` where ``(u, v)`` is the
projection onto the anchor ("left") camera and ``d = u_right - u_left``. The
companion camera is either a physical sensor or an abstract one displaced by
``ABSTRACT_BASELINE`` along the anchor's x axis, of which only the
projection matrix is formed. The map between world and disparity
coordinates is a single invertible 4x4 homogeneous transform, so Gaussian
image-plane noise stays Gaussian in disparity coordinates while a one-to-one
link with the 3-D world is preserved.

Points are plain numpy arrays: world points ``(..., 3)`` in cm, disparity
points ``(..., 3)`` in pixels (u, v, d), image points ``(..., 2)`` in pixels.
All operations accept single points or batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LEFT = "left"
RIGHT = "right"
# Stream index of each camera side in the derived random-number seeds.
SIDE_INDEX = {LEFT: 0, RIGHT: 1}

# Homogeneous components smaller than this are treated as singular.
W_TOL = 1e-12

# Baseline of the abstract companion that defines a single camera's
# disparity space; any nonzero value gives an equivalent space.
ABSTRACT_BASELINE = 1.0


class GeometryError(Exception):
    """Base class for geometric mapping failures."""


class ProjectionSingularError(GeometryError):
    """Point lies on (or numerically at) the camera plane."""


class SingularMappingError(GeometryError):
    """World-to-disparity map is singular for this point."""


class PointAtInfinityError(GeometryError):
    """Disparity point maps to infinity (d -> 0 for a far object)."""


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics. Focal length in mm (sign is a convention choice),
    pixel pitches in micrometres, principal point and image size in pixels.
    The defaults are the camera every preset uses."""

    focal_length_mm: float = -8.0
    pixel_size_u_um: float = 8.9
    pixel_size_v_um: float = 9.0
    principal_u: float = 400.0
    principal_v: float = 300.0
    width: int = 800
    height: int = 600

    def __post_init__(self):
        if self.pixel_size_u_um <= 0 or self.pixel_size_v_um <= 0:
            raise ValueError("pixel sizes must be strictly positive")
        if self.focal_length_mm == 0:
            raise ValueError("focal length must be nonzero")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")

    @property
    def fu(self) -> float:
        """Focal length over horizontal pixel pitch, in pixels."""
        return self.focal_length_mm * 1000.0 / self.pixel_size_u_um

    @property
    def fv(self) -> float:
        """Focal length over vertical pixel pitch, in pixels."""
        return self.focal_length_mm * 1000.0 / self.pixel_size_v_um

    @property
    def K(self) -> np.ndarray:
        return np.array(
            [
                [self.fu, 0.0, self.principal_u],
                [0.0, self.fv, self.principal_v],
                [0.0, 0.0, 1.0],
            ]
        )


@dataclass(frozen=True)
class CameraPose:
    """Camera position (cm) and intrinsic yaw/pitch/roll orientation (rad)."""

    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    yaw: float = 0.0
    pitch: float = 0.0
    roll: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite(self.position)):
            raise ValueError("camera position must be finite")
        if not np.all(np.isfinite([self.yaw, self.pitch, self.roll])):
            raise ValueError("orientation angles must be finite")

    def as_vector(self) -> np.ndarray:
        return np.array([*self.position, self.yaw, self.pitch, self.roll])

    @classmethod
    def from_vector(cls, v) -> "CameraPose":
        v = np.asarray(v, dtype=float)
        return cls(position=(v[0], v[1], v[2]), yaw=v[3], pitch=v[4], roll=v[5])

    def rotation(self) -> np.ndarray:
        """Camera-to-world rotation matrix R = Ry(yaw) Rx(pitch) Rz(roll)."""
        cy, sy = np.cos(self.yaw), np.sin(self.yaw)
        cx, sx = np.cos(self.pitch), np.sin(self.pitch)
        cz, sz = np.cos(self.roll), np.sin(self.roll)
        ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
        rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
        rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
        R = ry @ rx @ rz
        if not np.allclose(R @ R.T, np.eye(3), atol=1e-12):
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > 1e-12:
            raise ValueError("rotation determinant is not +1")
        return R


@dataclass(frozen=True, eq=False)
class ProjectiveCamera:
    """Calibrated pinhole camera with its cached 3x4 projection matrix."""

    intrinsics: CameraIntrinsics
    pose: CameraPose
    P: np.ndarray = field(repr=False)

    @property
    def width(self) -> int:
        return self.intrinsics.width

    @property
    def height(self) -> int:
        return self.intrinsics.height


def build_camera(intrinsics: CameraIntrinsics, pose: CameraPose) -> ProjectiveCamera:
    """Assemble P = K [R_wc | -R_wc c] from intrinsics and pose."""
    R = pose.rotation()
    c = np.asarray(pose.position, dtype=float)
    R_wc = R.T
    Rt = np.empty((3, 4))
    Rt[:, :3] = R_wc
    Rt[:, 3] = -R_wc @ c
    P = intrinsics.K @ Rt
    if np.linalg.matrix_rank(P) != 3:
        raise ValueError("projection matrix is rank deficient")
    return ProjectiveCamera(intrinsics=intrinsics, pose=pose, P=P)


def _homogenise(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    return np.concatenate([pts, np.ones(pts.shape[:-1] + (1,))], axis=-1)


def project(camera: ProjectiveCamera, x: np.ndarray) -> np.ndarray:
    """Project world point(s) onto the image plane, (u, v) in pixels.

    Raises ProjectionSingularError if any point lies on the camera plane.
    """
    z_bar = _homogenise(x) @ camera.P.T
    w = z_bar[..., 2]
    if np.any(np.abs(w) <= W_TOL):
        raise ProjectionSingularError("point on the camera plane")
    return z_bar[..., :2] / w[..., None]


def project_masked(camera: ProjectiveCamera, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched projection, flagging points strictly in front of the camera.

    Returns (uv, in_front) where rows of ``uv`` with ``~in_front`` are
    meaningless. Used by particle transports where behind-camera samples are
    legitimate and must not raise.
    """
    z_bar = _homogenise(x) @ camera.P.T
    w = z_bar[..., 2]
    in_front = w > W_TOL
    safe = np.where(in_front, w, 1.0)
    return z_bar[..., :2] / safe[..., None], in_front


def in_fov_mask(camera: ProjectiveCamera, x: np.ndarray) -> np.ndarray:
    """True where a world point projects inside [0, W) x [0, H) with the
    camera in front of it."""
    uv, in_front = project_masked(camera, x)
    u, v = uv[..., 0], uv[..., 1]
    return (
        in_front
        & (u >= 0.0)
        & (u < camera.width)
        & (v >= 0.0)
        & (v < camera.height)
    )


@dataclass(frozen=True, eq=False)
class DisparityFrame:
    """Invertible 4x4 map between world space and one disparity space.

    ``owner`` names the physical camera whose image plane anchors the space;
    ``physical_pair`` is True when the companion camera is a real sensor
    (rectified rig) rather than the abstract one.
    """

    P_d: np.ndarray = field(repr=False)
    P_d_inv: np.ndarray = field(repr=False)
    owner: str
    baseline: float
    physical_pair: bool


def _companion_projection(camera: ProjectiveCamera, baseline: float) -> np.ndarray:
    """Projection matrix of the camera displaced by ``baseline`` along its
    own x axis: P with only the first-row offset changed, so rows 2 and 3
    are shared bit-for-bit rather than up to rounding."""
    P_r = camera.P.copy()
    P_r[0, 3] += camera.intrinsics.fu * baseline
    return P_r


def _disparity_frame_from(
    P_l: np.ndarray, P_r: np.ndarray, baseline: float, owner: str, physical_pair: bool
) -> DisparityFrame:
    P_d = np.vstack([P_l[0], P_l[1], P_r[0] - P_l[0], P_l[2]])
    # P_d is defined up to scale; normalising the whole matrix so that the
    # homogenising row has unit norm improves the conditioning of the inverse.
    P_d = P_d / np.linalg.norm(P_d[3])
    det = np.linalg.det(P_d)
    if abs(det) <= 1e-12:
        raise ValueError("disparity transform is singular for this geometry")
    P_d_inv = np.linalg.inv(P_d)
    if not np.allclose(P_d @ P_d_inv, np.eye(4), atol=1e-10):
        raise ValueError("disparity transform inversion failed")
    return DisparityFrame(
        P_d=P_d, P_d_inv=P_d_inv, owner=owner, baseline=baseline, physical_pair=physical_pair
    )


def make_rectified_pair(
    left: ProjectiveCamera, baseline: float
) -> tuple[ProjectiveCamera, DisparityFrame]:
    """Build the physical right camera of a horizontally rectified pair and
    the disparity frame of the pair.

    The right camera shares K and orientation with the left camera; its
    centre moves so that its world-to-camera transform gains a +baseline
    offset along camera x.
    """
    if baseline == 0:
        raise ValueError("baseline must be nonzero")
    pose = left.pose
    c = np.asarray(pose.position, dtype=float) - baseline * pose.rotation()[:, 0]
    right = ProjectiveCamera(
        intrinsics=left.intrinsics,
        pose=CameraPose(position=tuple(c), yaw=pose.yaw, pitch=pose.pitch, roll=pose.roll),
        P=_companion_projection(left, baseline),
    )
    frame = _disparity_frame_from(left.P, right.P, baseline, owner=LEFT, physical_pair=True)
    return right, frame


def rectified_companion(camera: ProjectiveCamera, owner: str = LEFT) -> DisparityFrame:
    """Disparity frame of (camera, abstract companion rectified with it).

    The companion never produces observations; it only defines the space,
    so only its projection matrix is formed.
    """
    P_r = _companion_projection(camera, ABSTRACT_BASELINE)
    return _disparity_frame_from(
        camera.P, P_r, ABSTRACT_BASELINE, owner=owner, physical_pair=False
    )


def to_disparity(frame: DisparityFrame, x: np.ndarray) -> np.ndarray:
    """Map world point(s) to disparity coordinates (u, v, d)."""
    y_bar = _homogenise(x) @ frame.P_d.T
    w = y_bar[..., 3]
    if np.any(np.abs(w) <= W_TOL):
        raise SingularMappingError("point on the camera plane")
    return y_bar[..., :3] / w[..., None]


def from_disparity(frame: DisparityFrame, y: np.ndarray) -> np.ndarray:
    """Map disparity point(s) back to world coordinates."""
    x_bar = _homogenise(y) @ frame.P_d_inv.T
    w = x_bar[..., 3]
    if np.any(np.abs(w) <= W_TOL):
        raise PointAtInfinityError("disparity point maps to infinity")
    return x_bar[..., :3] / w[..., None]


def to_disparity_homogeneous(
    frame: DisparityFrame, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched world-to-disparity map returning the homogenising component
    alongside the dehomogenised points (rows with |w| <= W_TOL are garbage).

    The sign of w tells which side of the camera plane a point lies on, which
    particle transports use to reject probe pairs straddling the plane."""
    y_bar = _homogenise(x) @ frame.P_d.T
    w = y_bar[..., 3]
    safe = np.where(np.abs(w) > W_TOL, w, 1.0)
    return y_bar[..., :3] / safe[..., None], w


def from_disparity_homogeneous(
    frame: DisparityFrame, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched disparity-to-world map returning the homogenising component."""
    x_bar = _homogenise(y) @ frame.P_d_inv.T
    w = x_bar[..., 3]
    safe = np.where(np.abs(w) > W_TOL, w, 1.0)
    return x_bar[..., :3] / safe[..., None], w


def from_disparity_masked(
    frame: DisparityFrame, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched disparity-to-world map with a validity mask instead of raising."""
    x, w = from_disparity_homogeneous(frame, y)
    return x, np.abs(w) > W_TOL


def disparity_observation_matrix(camera_side: str, dynamic: bool = False) -> np.ndarray:
    """Orthographic projection from disparity space onto an image plane.

    The anchor camera of a frame sees (u, v); its rectified partner sees
    (u + d, v). For dynamic states the velocity block is unobserved.
    """
    if camera_side == LEFT:
        H = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    elif camera_side == RIGHT:
        H = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    else:
        raise ValueError(f"unknown camera side {camera_side!r}")
    if dynamic:
        H = np.hstack([H, np.zeros((2, 3))])
    return H


@dataclass(frozen=True, eq=False)
class StereoRig:
    """A physical camera pair plus the disparity frame(s) used to estimate in.

    For a rectified rig both sides share one frame with a physical partner;
    for a non-rectified rig each camera gets its own frame built with an
    abstract companion.
    """

    left: ProjectiveCamera
    right: ProjectiveCamera
    frames: dict[str, DisparityFrame] = field(repr=False)

    @classmethod
    def make_rectified(cls, left: ProjectiveCamera, baseline: float) -> "StereoRig":
        right, frame = make_rectified_pair(left, baseline)
        return cls(left=left, right=right, frames={LEFT: frame, RIGHT: frame})

    @classmethod
    def make_non_rectified(
        cls,
        left: ProjectiveCamera,
        right: ProjectiveCamera,
        left_frame: DisparityFrame | None = None,
    ) -> "StereoRig":
        if left_frame is None:
            left_frame = rectified_companion(left, owner=LEFT)
        right_frame = rectified_companion(right, owner=RIGHT)
        return cls(left=left, right=right, frames={LEFT: left_frame, RIGHT: right_frame})

    def camera(self, side: str) -> ProjectiveCamera:
        if side == LEFT:
            return self.left
        if side == RIGHT:
            return self.right
        raise ValueError(f"unknown camera side {side!r}")

    def frame_for(self, side: str) -> DisparityFrame:
        return self.frames[side]

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from disptrack import geometry as geo
from disptrack import single_object as so


def table_intrinsics(**kw):
    """Simulated camera of the localisation experiments: f=-8mm, 8.9x9.0um
    pixels, 800x600 image with centred principal point."""
    args = dict(
        focal_length_mm=-8.0,
        pixel_size_u_um=8.9,
        pixel_size_v_um=9.0,
        principal_u=400.0,
        principal_v=300.0,
    )
    args.update(kw)
    return geo.CameraIntrinsics(**args)


def unit_intrinsics():
    # fu = fv = 1 px, principal point at the origin
    return geo.CameraIntrinsics(
        focal_length_mm=1e-3,
        pixel_size_u_um=1.0,
        pixel_size_v_um=1.0,
        principal_u=0.0,
        principal_v=0.0,
    )


def identity_camera():
    return geo.build_camera(table_intrinsics(), geo.CameraPose())


def random_frustum_points(rng, n, z_range=(50.0, 500.0), spread=0.3):
    z = rng.uniform(*z_range, size=n)
    x = rng.uniform(-spread, spread, size=n) * z
    y = rng.uniform(-spread, spread, size=n) * z
    return np.column_stack([x, y, z])


class TestBuildCamera:
    def test_pixel_focal_lengths(self):
        intr = table_intrinsics()
        assert intr.fu == pytest.approx(-8000.0 / 8.9)
        assert intr.fv == pytest.approx(-8000.0 / 9.0)
        # spot values quoted to 2 dp
        assert round(intr.fu, 2) == -898.88
        assert round(intr.fv, 2) == -888.89

    def test_optical_axis_projects_to_principal_point(self):
        cam = identity_camera()
        assert geo.project(cam, np.array([0.0, 0.0, 100.0])) == pytest.approx([400.0, 300.0])

    def test_translated_rotated_camera_differs_in_all_rows(self):
        left = identity_camera()
        right = geo.build_camera(
            table_intrinsics(),
            geo.CameraPose(position=(30.0, 0.0, 0.0), yaw=-np.pi / 12),
        )
        for i in range(3):
            assert not np.allclose(left.P[i], right.P[i])

    def test_third_row_is_world_to_camera_z_axis(self):
        pose = geo.CameraPose(position=(5.0, -2.0, 1.0), yaw=0.3, pitch=-0.1, roll=0.05)
        cam = geo.build_camera(table_intrinsics(), pose)
        R_wc = pose.rotation().T
        np.testing.assert_allclose(cam.P[2, :3], R_wc[2], atol=1e-12)
        np.testing.assert_allclose(
            cam.P[2, 3], -R_wc[2] @ np.asarray(pose.position), atol=1e-12
        )

    def test_degenerate_intrinsics_rejected(self):
        with pytest.raises(ValueError):
            table_intrinsics(pixel_size_u_um=0.0)
        with pytest.raises(ValueError):
            table_intrinsics(focal_length_mm=0.0)

    def test_rotation_orthonormality(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pose = geo.CameraPose(yaw=rng.uniform(-3, 3), pitch=rng.uniform(-1.5, 1.5), roll=rng.uniform(-3, 3))
            R = pose.rotation()
            np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


class TestProject:
    def test_off_axis_point(self):
        cam = identity_camera()
        # u = u0 + fu * x/z evaluated by hand from the intrinsics
        expected_u = 400.0 + (-8000.0 / 8.9) * 0.1
        uv = geo.project(cam, np.array([10.0, 0.0, 100.0]))
        assert uv == pytest.approx([expected_u, 300.0])
        assert round(uv[0], 2) == 310.11

    def test_matches_naive_homogeneous_oracle(self):
        rng = np.random.default_rng(1)
        cam = geo.build_camera(
            table_intrinsics(),
            geo.CameraPose(position=(12.0, -4.0, -7.0), yaw=0.4, pitch=0.1, roll=-0.2),
        )
        pts = random_frustum_points(rng, 200)
        for x in pts:
            # independent oracle: explicit homogeneous multiply + divide
            xb = np.array([x[0], x[1], x[2], 1.0])
            zb = cam.P @ xb
            expected = np.array([zb[0] / zb[2], zb[1] / zb[2]])
            got = geo.project(cam, x)
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_point_on_camera_plane_raises(self):
        cam = identity_camera()
        with pytest.raises(geo.ProjectionSingularError):
            geo.project(cam, np.array([10.0, 5.0, 0.0]))


class TestRectifiedPair:
    def test_shared_rows_bitwise(self):
        left = identity_camera()
        right, frame = geo.make_rectified_pair(left, 1.0)
        assert np.array_equal(left.P[1], right.P[1])
        assert np.array_equal(left.P[2], right.P[2])
        assert frame.baseline == 1.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            geo.make_rectified_pair(identity_camera(), 0.0)

    def test_canonical_frame_matrix(self):
        left = geo.build_camera(unit_intrinsics(), geo.CameraPose())
        _, frame = geo.make_rectified_pair(left, 1.0)
        expected = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        np.testing.assert_allclose(frame.P_d, expected, atol=1e-15)

    def test_disparity_from_depth(self):
        left = identity_camera()
        _, frame = geo.make_rectified_pair(left, 1.0)
        fu = left.intrinsics.fu
        # last row of the first-rows difference is (0,0,0, fu*b), up to the
        # global normalisation of P_d
        scale = frame.P_d[3] @ np.array([0.0, 0.0, 1.0, 0.0])
        np.testing.assert_allclose(frame.P_d[2] / scale, [0.0, 0.0, 0.0, fu], atol=1e-9)
        y = geo.to_disparity(frame, np.array([0.0, 0.0, 100.0]))
        assert y == pytest.approx([400.0, 300.0, fu * 1.0 / 100.0])
        assert round(y[2], 4) == -8.9888

    def test_baseline_linearity(self):
        left = identity_camera()
        _, f1 = geo.make_rectified_pair(left, 1.0)
        _, f2 = geo.make_rectified_pair(left, 2.0)
        rng = np.random.default_rng(2)
        pts = random_frustum_points(rng, 50)
        y1 = geo.to_disparity(f1, pts)
        y2 = geo.to_disparity(f2, pts)
        np.testing.assert_allclose(y2[:, 2], 2.0 * y1[:, 2], rtol=1e-12)
        np.testing.assert_allclose(y2[:, :2], y1[:, :2], atol=1e-9)


class TestDisparityRoundTrip:
    def test_canonical_point(self):
        left = geo.build_camera(unit_intrinsics(), geo.CameraPose())
        _, frame = geo.make_rectified_pair(left, 1.0)
        y = geo.to_disparity(frame, np.array([0.0, 0.0, 2.0]))
        assert y == pytest.approx([0.0, 0.0, 0.5])
        x = geo.from_disparity(frame, np.array([0.0, 0.0, 0.5]))
        assert x == pytest.approx([0.0, 0.0, 2.0])

    def test_round_trip_random_points(self):
        rng = np.random.default_rng(3)
        cam = geo.build_camera(
            table_intrinsics(),
            geo.CameraPose(position=(-20.0, 0.0, 0.0), yaw=np.pi / 12),
        )
        frame = geo.rectified_companion(cam)
        pts = random_frustum_points(rng, 1000)
        back = geo.from_disparity(frame, geo.to_disparity(frame, pts))
        rel = np.linalg.norm(back - pts, axis=1) / np.linalg.norm(pts, axis=1)
        assert rel.max() < 1e-9

    def test_zero_disparity_is_at_infinity(self):
        left = identity_camera()
        _, frame = geo.make_rectified_pair(left, 1.0)
        with pytest.raises(geo.PointAtInfinityError):
            geo.from_disparity(frame, np.array([400.0, 300.0, 0.0]))

    def test_point_on_camera_plane_raises(self):
        left = identity_camera()
        _, frame = geo.make_rectified_pair(left, 1.0)
        with pytest.raises(geo.SingularMappingError):
            geo.to_disparity(frame, np.array([3.0, 1.0, 0.0]))


class TestObservationMatrices:
    def test_static_matrices(self):
        np.testing.assert_array_equal(
            geo.disparity_observation_matrix(geo.LEFT), [[1, 0, 0], [0, 1, 0]]
        )
        np.testing.assert_array_equal(
            geo.disparity_observation_matrix(geo.RIGHT), [[1, 0, 1], [0, 1, 0]]
        )

    def test_dynamic_matrices(self):
        np.testing.assert_array_equal(
            geo.disparity_observation_matrix(geo.LEFT, dynamic=True),
            [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]],
        )
        np.testing.assert_array_equal(
            geo.disparity_observation_matrix(geo.RIGHT, dynamic=True),
            [[1, 0, 1, 0, 0, 0], [0, 1, 0, 0, 0, 0]],
        )

    def test_projection_consistency_with_h(self):
        # H_left . to_disparity(x) == project(C_left, x), same for the right
        # camera: the observation becomes a linear map of the disparity state.
        rng = np.random.default_rng(4)
        left = identity_camera()
        right, frame = geo.make_rectified_pair(left, 1.0)
        pts = random_frustum_points(rng, 1000)
        y = geo.to_disparity(frame, pts)
        Hl = geo.disparity_observation_matrix(geo.LEFT)
        Hr = geo.disparity_observation_matrix(geo.RIGHT)
        np.testing.assert_allclose(y @ Hl.T, geo.project(left, pts), atol=1e-9)
        np.testing.assert_allclose(y @ Hr.T, geo.project(right, pts), atol=1e-9)


class TestRectifiedCompanion:
    def test_companion_equals_rectified_pair_frame(self):
        left = identity_camera()
        _, pair_frame = geo.make_rectified_pair(left, 1.0)
        companion = geo.rectified_companion(left)
        np.testing.assert_allclose(companion.P_d, pair_frame.P_d, atol=1e-15)
        assert companion.physical_pair is False
        assert pair_frame.physical_pair is True

    def test_rotated_camera_companion_consistency(self):
        cam = geo.build_camera(table_intrinsics(), geo.CameraPose(yaw=np.pi / 8))
        frame = geo.rectified_companion(cam)
        x = np.array([0.0, 0.0, 150.0])
        y = geo.to_disparity(frame, x)
        assert np.all(np.isfinite(y))
        # (u, v) of the disparity coordinates are the physical camera's pixels
        np.testing.assert_allclose(y[:2], geo.project(cam, x), atol=1e-9)

    def test_cross_frame_composition_is_identity(self):
        # two companion frames of a strongly non-rectified pair: mapping
        # through 3-D between them is the identity on the world
        left = geo.build_camera(
            table_intrinsics(), geo.CameraPose(position=(-100.0, 0.0, 0.0), yaw=np.pi / 8)
        )
        right = geo.build_camera(
            table_intrinsics(), geo.CameraPose(position=(100.0, 0.0, 0.0), yaw=-np.pi / 8)
        )
        f_l = geo.rectified_companion(left)
        f_r = geo.rectified_companion(right, owner=geo.RIGHT)
        rng = np.random.default_rng(5)
        pts = random_frustum_points(rng, 200, z_range=(80.0, 400.0), spread=0.15)
        y_l = geo.to_disparity(f_l, pts)
        y_r = geo.to_disparity(f_r, geo.from_disparity(f_l, y_l))
        back = geo.from_disparity(f_r, y_r)
        rel = np.linalg.norm(back - pts, axis=1) / np.linalg.norm(pts, axis=1)
        assert rel.max() < 1e-9


class TestStereoRig:
    def test_rectified_rig_shares_frame(self):
        rig = geo.StereoRig.make_rectified(identity_camera(), 1.0)
        frame = rig.frame_for(geo.RIGHT)
        assert rig.frame_for(geo.LEFT) is frame
        # the partner camera sees (u + d, v): it updates a state of the
        # shared frame through H = [[1, 0, 1], [0, 1, 0]]
        state = so.GaussianState(
            mean=np.array([400.0, 300.0, -9.0]), cov=np.diag([2.0, 3.0, 1.5]), frame=frame
        )
        obs = so.Observation(z=(392.5, 301.0), R=np.diag([1.0, 2.0]), camera=geo.RIGHT)
        post, loglik = so.kalman_update(state, obs)
        H = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        S = H @ state.cov @ H.T + obs.R
        K = state.cov @ H.T @ np.linalg.inv(S)
        innov = np.asarray(obs.z) - H @ state.mean
        np.testing.assert_allclose(post.mean, state.mean + K @ innov, rtol=1e-12)
        np.testing.assert_allclose(post.cov, (np.eye(3) - K @ H) @ state.cov, atol=1e-12)
        assert loglik == pytest.approx(
            multivariate_normal.logpdf(np.asarray(obs.z), H @ state.mean, S), rel=1e-12
        )

    def test_non_rectified_rig_rejects_cross_camera_matrix(self):
        left = identity_camera()
        right = geo.build_camera(
            table_intrinsics(), geo.CameraPose(position=(30.0, 0.0, 0.0), yaw=-np.pi / 12)
        )
        rig = geo.StereoRig.make_non_rectified(left, right)
        assert rig.frame_for(geo.LEFT) is not rig.frame_for(geo.RIGHT)
        # the right camera has no linear observation matrix in the left
        # camera's frame, so updating there needs a particle move first
        state = so.GaussianState(
            mean=np.array([400.0, 300.0, -9.0]), cov=np.eye(3), frame=rig.frame_for(geo.LEFT)
        )
        with pytest.raises(ValueError):
            so.kalman_update(state, so.Observation(z=(10.0, 10.0), R=np.eye(2), camera=geo.RIGHT))

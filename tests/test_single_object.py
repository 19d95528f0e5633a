import numpy as np
import pytest
import scipy.linalg

from disptrack import geometry as geo
from disptrack import phd
from disptrack import single_object as so


def table_intrinsics():
    return geo.CameraIntrinsics(
        focal_length_mm=-8.0,
        pixel_size_u_um=8.9,
        pixel_size_v_um=9.0,
        principal_u=400.0,
        principal_v=300.0,
    )


def identity_camera():
    return geo.build_camera(table_intrinsics(), geo.CameraPose())


def rectified_rig():
    return geo.StereoRig.make_rectified(identity_camera(), 1.0)


def skewed_rig(separation=200.0, yaw=np.pi / 8):
    left = geo.build_camera(
        table_intrinsics(), geo.CameraPose(position=(-separation / 2, 0.0, 0.0), yaw=yaw)
    )
    right = geo.build_camera(
        table_intrinsics(), geo.CameraPose(position=(separation / 2, 0.0, 0.0), yaw=-yaw)
    )
    return geo.StereoRig.make_non_rectified(left, right)


def world_transition(x, v, model, rng):
    """Independent transcription of the constant-velocity step used by the
    particle transport oracle below."""
    w = rng.standard_normal(v.shape) * np.sqrt(model.q * model.dt)
    return x + model.dt * v, v + w


def dense_transport_oracle(state, target, model, n, seed):
    """Reference transport: sample/map/transition/map-back/fit written
    directly against the geometry primitives, with the velocity carried
    through a small finite-difference probe."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    L = np.linalg.cholesky(state.cov)
    samples = state.mean + rng.standard_normal((n, state.mean.size)) @ L.T
    eps = so.VELOCITY_PROBE_SCALE * (model.dt if model is not None else 1.0)
    x = geo.from_disparity(state.frame, samples[:, :3])
    out = []
    if state.mean.size == 6:
        x2 = geo.from_disparity(state.frame, samples[:, :3] + eps * samples[:, 3:])
        v = (x2 - x) / eps
        if model is not None:
            x, v = world_transition(x, v, model, rng)
        y = geo.to_disparity(target, x)
        y2 = geo.to_disparity(target, x + eps * v)
        out = np.hstack([y, (y2 - y) / eps])
    else:
        out = geo.to_disparity(target, x)
    mean = out.mean(axis=0)
    centred = out - mean
    return mean, centred.T @ centred / (n - 1)


def assert_factor_exact(state):
    # the stored factor is bit for bit a fresh factorisation of the stored
    # covariance, so sampling with it draws what re-factoring would
    assert np.array_equal(state.chol, np.linalg.cholesky(state.cov))


class TestGaussianState:
    @pytest.mark.parametrize(
        "cov",
        [
            np.diag([1.0, np.nan, 1.0]),
            np.diag([1.0, np.inf, 1.0]),
            np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            np.diag([1.0, -1.0, 1.0]),
        ],
        ids=["nan", "inf", "asymmetric", "indefinite"],
    )
    def test_caller_built_state_rejects_bad_covariance(self, cov):
        frame = rectified_rig().frame_for(geo.LEFT)
        with pytest.raises(ValueError):
            so.GaussianState(mean=np.array([400.0, 300.0, -9.0]), cov=cov, frame=frame)

    def test_semidefinite_covariance_promoted_by_jitter(self):
        frame = rectified_rig().frame_for(geo.LEFT)
        cov = np.diag([4.0, 4.0, 0.0])
        state = so.GaussianState(mean=np.array([400.0, 300.0, -9.0]), cov=cov, frame=frame)
        assert np.array_equal(state.cov, cov + so.COV_JITTER * np.eye(3))
        assert_factor_exact(state)

    def test_cov_and_chol_read_only(self):
        frame = rectified_rig().frame_for(geo.LEFT)
        state = so.GaussianState(mean=np.zeros(3), cov=np.eye(3), frame=frame)
        for a in (state.cov, state.chol):
            with pytest.raises(ValueError):
                a[0, 0] = 2.0

    def test_from_factor_checks_the_mean(self):
        frame = rectified_rig().frame_for(geo.LEFT)
        cov, chol = so.ensure_spd(np.eye(3))
        for mean in (np.array([0.0, np.nan, 0.0]), np.zeros(6)):
            with pytest.raises(ValueError):
                so.GaussianState.from_factor(mean, cov, chol, frame)

    def test_ensure_spd_returns_the_accepting_factor(self):
        # rank one: the factorisation succeeds only after jitter
        cov, chol = so.ensure_spd(np.ones((3, 3)))
        assert not np.array_equal(cov, np.ones((3, 3)))
        assert np.array_equal(chol, np.linalg.cholesky(cov))
        assert not (cov.flags.writeable or chol.flags.writeable)
        with pytest.raises(ValueError):
            so.ensure_spd(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_library_made_states_keep_an_exact_factor(self):
        rig = skewed_rig()
        f_l, f_r = rig.frame_for(geo.LEFT), rig.frame_for(geo.RIGHT)
        obs = so.Observation(z=(400.0, 300.0), R=2.0 * np.eye(2), camera=geo.LEFT)
        born = so.initialise(obs, (-9.0, 5.4), (0.0, 0.03), f_l)
        moved = so.particle_move(born, f_r, so.MotionModel(q=0.08), 500, None, 7)
        updated, _ = so.kalman_update(
            born, so.Observation(z=(401.0, 299.0), R=np.eye(2), camera=geo.LEFT, time=1)
        )

        det = phd.DetectionModel(0.95, 800, 600)
        straddling = so.GaussianState(
            mean=np.array([2.0, 300.0, -9.0]), cov=np.diag([400.0, 4.0, 1.0]), frame=f_l
        )
        split = phd.split_component(1.0, straddling, det, 256, 0)
        assert all(part.state is not straddling for part in split)  # both refit

        detected = phd.GaussianMixture((phd.WeightedGaussian(1.0, straddling),), f_l)
        Z = [
            so.Observation(z=(5.0, 300.0), R=2.0 * np.eye(2), camera=geo.LEFT),
            so.Observation(z=(9.0, 301.0), R=2.0 * np.eye(2), camera=geo.LEFT),
        ]
        posterior, _ = phd.phd_update_with_denominators(
            phd.empty_mixture(f_l), detected, Z, phd.ClutterModel(1.0, 800, 600)
        )
        copies = [c.state for c in posterior.components]
        assert copies[0].chol is copies[1].chol  # the copies share one factor

        near = so.GaussianState(
            mean=straddling.mean + [1.0, 0.0, 0.0], cov=straddling.cov, frame=f_l
        )
        merged = phd.prune_merge(
            phd.GaussianMixture(
                (phd.WeightedGaussian(0.5, straddling), phd.WeightedGaussian(0.5, near)), f_l
            )
        )
        assert len(merged) == 1
        merged_state = merged.components[0].state

        for state in [born, moved, updated, *(p.state for p in split), *copies, merged_state]:
            assert_factor_exact(state)

    def test_observation_keeps_the_factor_of_r(self):
        obs = so.Observation(z=(1.0, 2.0), R=np.array([[2.0, 0.3], [0.3, 1.0]]), camera=geo.LEFT)
        assert np.array_equal(obs.chol, np.linalg.cholesky(obs.R))


class TestInitialise:
    def test_static_prior(self):
        rig = rectified_rig()
        obs = so.Observation(z=(400.0, 300.0), R=2.0 * np.eye(2), camera=geo.LEFT)
        state = so.initialise(obs, (7.0, 5.4), None, rig.frame_for(geo.LEFT))
        np.testing.assert_allclose(state.mean, [400.0, 300.0, 7.0])
        np.testing.assert_allclose(state.cov, np.diag([2.0, 2.0, 5.4]))

    def test_velocity_prior_appended(self):
        rig = rectified_rig()
        obs = so.Observation(z=(400.0, 300.0), R=2.0 * np.eye(2), camera=geo.LEFT)
        state = so.initialise(obs, (7.0, 5.4), (0.0, 0.03), rig.frame_for(geo.LEFT))
        np.testing.assert_allclose(state.mean, [400.0, 300.0, 7.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(np.diag(state.cov), [2.0, 2.0, 5.4, 0.03, 0.03, 0.03])

    def test_negative_disparity_prior_kept(self):
        rig = rectified_rig()
        obs = so.Observation(z=(380.0, 310.0), R=2.0 * np.eye(2), camera=geo.LEFT)
        state = so.initialise(obs, (-9.0, 5.4), None, rig.frame_for(geo.LEFT))
        assert state.mean[2] == -9.0

    def test_deterministic(self):
        rig = rectified_rig()
        obs = so.Observation(z=(395.0, 305.0), R=2.0 * np.eye(2), camera=geo.LEFT)
        a = so.initialise(obs, (-7.0, 5.4), None, rig.frame_for(geo.LEFT))
        b = so.initialise(obs, (-7.0, 5.4), None, rig.frame_for(geo.LEFT))
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)

    def test_wrong_camera_rejected(self):
        rig = skewed_rig()
        obs = so.Observation(z=(400.0, 300.0), R=np.eye(2), camera=geo.RIGHT)
        with pytest.raises(ValueError):
            so.initialise(obs, (-7.0, 5.4), None, rig.frame_for(geo.LEFT))


class TestKalmanUpdate:
    def test_scalar_conjugate_case(self):
        mean, cov, _ = so.linear_gaussian_update(
            np.array([0.0]), np.array([[1.0]]), np.array([[1.0]]), np.array([2.0]), np.array([[1.0]])
        )
        assert mean == pytest.approx([1.0])
        assert cov[0, 0] == pytest.approx(0.5)

    def test_equal_variance_average(self):
        rig = rectified_rig()
        obs0 = so.Observation(z=(400.0, 300.0), R=2.0 * np.eye(2), camera=geo.LEFT)
        state = so.initialise(obs0, (7.0, 5.4), None, rig.frame_for(geo.LEFT))
        obs1 = so.Observation(z=(402.0, 300.0), R=2.0 * np.eye(2), camera=geo.LEFT, time=1)
        post, _ = so.kalman_update(state, obs1)
        assert post.mean[0] == pytest.approx(401.0)
        assert post.mean[1] == pytest.approx(300.0)
        assert post.mean[2] == pytest.approx(7.0)  # d unobserved by the owner camera

    def test_factored_update_matches_one_piece_arithmetic(self):
        # the update written in one piece with scipy's checked solves
        rng = np.random.default_rng(5)
        for n in (3, 6):
            H = geo.disparity_observation_matrix(geo.LEFT, n == 6)
            for _ in range(10):
                A = rng.standard_normal((n, n))
                cov = A @ A.T + np.eye(n)
                mean = 100.0 * rng.standard_normal(n)
                z = rng.uniform(0.0, 800.0, 2)
                B = rng.standard_normal((2, 2))
                R = B @ B.T + np.eye(2)
                chol = np.linalg.cholesky(so.symmetrise(H @ cov @ H.T + R))
                innov = z - H @ mean
                alpha = scipy.linalg.cho_solve((chol, True), innov)
                K = scipy.linalg.cho_solve((chol, True), H @ cov).T
                I_KH = np.eye(n) - K @ H
                want_cov = so.ensure_spd(I_KH @ cov @ I_KH.T + K @ R @ K.T)[0]
                want_ll = -0.5 * (
                    innov @ alpha + 2.0 * np.log(np.diag(chol)).sum() + 2 * np.log(2.0 * np.pi)
                )
                post_mean, post_cov, loglik = so.linear_gaussian_update(mean, cov, H, z, R)
                assert np.array_equal(post_mean, mean + K @ innov)
                assert np.array_equal(post_cov, want_cov)
                assert loglik == float(want_ll)

    def test_non_finite_input_rejected(self):
        H = geo.disparity_observation_matrix(geo.LEFT)
        with pytest.raises(ValueError):
            so.linear_gaussian_update(np.array([np.nan, 0.0, 0.0]), np.eye(3), H, np.zeros(2), np.eye(2))

    def test_matches_dense_bayes_oracle(self):
        # importance-sampling Bayes oracle on random linear-Gaussian problems
        rng = np.random.default_rng(11)
        rig = rectified_rig()
        frame = rig.frame_for(geo.LEFT)
        n = 200_000
        for case in range(20):
            mean = np.array([rng.uniform(100, 700), rng.uniform(100, 500), rng.uniform(-15, -4)])
            A = rng.standard_normal((3, 3))
            cov = A @ A.T + 3.0 * np.eye(3)
            side = geo.LEFT if case % 2 == 0 else geo.RIGHT
            H = geo.disparity_observation_matrix(side)
            z = H @ mean + rng.standard_normal(2) * 2.0
            R = np.diag(rng.uniform(1.0, 4.0, size=2))
            state = so.GaussianState(mean=mean, cov=cov, frame=frame)
            obs = so.Observation(z=tuple(z), R=R, camera=geo.LEFT if side == geo.LEFT else geo.RIGHT)
            post, _ = so.kalman_update(state, obs)

            samples = rng.multivariate_normal(mean, cov, size=n)
            innov = z - samples @ H.T
            logw = -0.5 * np.einsum("ij,jk,ik->i", innov, np.linalg.inv(R), innov)
            w = np.exp(logw - logw.max())
            w /= w.sum()
            oracle_mean = w @ samples
            rel = np.linalg.norm(post.mean - oracle_mean) / np.linalg.norm(oracle_mean)
            assert rel < 0.005

    def test_predictive_loglik_value(self):
        rig = rectified_rig()
        frame = rig.frame_for(geo.LEFT)
        state = so.GaussianState(
            mean=np.array([400.0, 300.0, -9.0]), cov=np.diag([2.0, 2.0, 5.0]), frame=frame
        )
        obs = so.Observation(z=(401.0, 299.0), R=np.diag([1.0, 1.0]), camera=geo.LEFT)
        _, loglik = so.kalman_update(state, obs)
        # direct evaluation of N(z; Hm, HPH^T + R)
        S = np.diag([3.0, 3.0])
        innov = np.array([1.0, -1.0])
        expected = -0.5 * (innov @ np.linalg.solve(S, innov) + np.log(np.linalg.det(S)) + 2 * np.log(2 * np.pi))
        assert loglik == pytest.approx(expected)

    def test_cross_camera_in_nonrectified_frame_rejected(self):
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        state = so.GaussianState(
            mean=np.array([400.0, 300.0, -9.0]), cov=np.eye(3), frame=frame
        )
        obs = so.Observation(z=(10.0, 10.0), R=np.eye(2), camera=geo.RIGHT)
        with pytest.raises(ValueError):
            so.kalman_update(state, obs)


def fig2_prior_state(frame):
    """Dynamic prior used for the constant-velocity prediction checks:
    an object 1 m out moving at (2, 2, 0.5) cm/s."""
    x = np.array([0.0, 0.0, 100.0])
    v = np.array([2.0, 2.0, 0.5])
    y = geo.to_disparity(frame, x)
    y2 = geo.to_disparity(frame, x + v)
    mean = np.concatenate([y, y2 - y])
    cov = np.diag([4.0, 4.0, 1.0, 0.25, 0.25, 0.1])
    return so.GaussianState(mean=mean, cov=cov, frame=frame)


class TestParticlePrediction:
    def test_zero_velocity_zero_noise_is_identity_in_mean(self):
        rig = rectified_rig()
        frame = rig.frame_for(geo.LEFT)
        obs = so.Observation(z=(400.0, 300.0), R=2.0 * np.eye(2), camera=geo.LEFT)
        state = so.initialise(obs, (-9.0, 1.0), (0.0, 0.0), frame)
        model = so.MotionModel(q=0.0, dt=1.0)
        pred = so.particle_move(state, frame, model, 10_000, None, 123)
        se = np.sqrt(np.diag(state.cov)[:3] / 10_000)
        assert np.all(np.abs(pred.mean[:3] - state.mean[:3]) < 3 * se + 1e-6)

    def test_matches_dense_particle_oracle(self):
        rig = rectified_rig()
        frame = rig.frame_for(geo.LEFT)
        state = fig2_prior_state(frame)
        model = so.MotionModel(q=0.08, dt=1.0)
        oracle_mean, oracle_cov = dense_transport_oracle(state, frame, model, 1_000_000, seed=99)
        pred = so.particle_move(state, frame, model, 10_000, None, 7)
        se = np.sqrt(np.diag(oracle_cov) / 10_000)
        assert np.all(np.abs(pred.mean - oracle_mean) < 3 * se)
        rel = np.linalg.norm(pred.cov - oracle_cov) / np.linalg.norm(oracle_cov)
        assert rel < 0.05

    def test_variance_growth_under_noise(self):
        rig = rectified_rig()
        frame = rig.frame_for(geo.LEFT)
        rng = np.random.default_rng(5)
        model = so.MotionModel(q=0.08, dt=1.0)
        for i in range(50):
            x = np.array([rng.uniform(-30, 30), rng.uniform(-20, 20), rng.uniform(60, 300)])
            y = geo.to_disparity(frame, x)
            mean = np.concatenate([y, rng.normal(0, 0.05, size=3)])
            cov = np.diag(np.concatenate([rng.uniform(0.5, 3.0, 3), rng.uniform(0.02, 0.2, 3)]))
            state = so.GaussianState(mean=mean, cov=cov, frame=frame)
            pred = so.particle_move(state, frame, model, 20_000, None, 1000 + i)
            assert np.trace(pred.cov) >= np.trace(state.cov) * 0.98

    def test_static_state_rejected(self):
        rig = rectified_rig()
        frame = rig.frame_for(geo.LEFT)
        state = so.GaussianState(mean=np.array([400.0, 300.0, -9.0]), cov=np.eye(3), frame=frame)
        with pytest.raises(ValueError):
            so.particle_move(state, frame, so.MotionModel(), 100, None, 0)


class TestParticleMove:
    def test_same_frame_static_is_identity_in_mean(self):
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        x = np.array([0.0, 5.0, 150.0])
        mean = geo.to_disparity(frame, x)
        state = so.GaussianState(mean=mean, cov=np.diag([2.0, 2.0, 1.0]), frame=frame)
        moved = so.particle_move(state, frame, None, 20_000, None, 3)
        se = np.sqrt(np.diag(state.cov) / 20_000)
        assert np.all(np.abs(moved.mean - state.mean) < 3 * se)

    def test_cross_frame_matches_dense_oracle(self):
        # wide-separation pair: object ahead of both cameras, dynamic state
        rig = skewed_rig(separation=200.0, yaw=np.pi / 8)
        f_l, f_r = rig.frame_for(geo.LEFT), rig.frame_for(geo.RIGHT)
        x = np.array([0.0, 0.0, 150.0])
        v = np.array([0.0, 0.0, 0.0])
        y = geo.to_disparity(f_l, x)
        y2 = geo.to_disparity(f_l, x + v + 1e-12)
        mean = np.concatenate([y, y2 - y])
        cov = np.diag([2.0, 2.0, 0.5, 0.03, 0.03, 0.03])
        state = so.GaussianState(mean=mean, cov=cov, frame=f_l)
        model = so.MotionModel(q=0.0, dt=1.0)
        oracle_mean, oracle_cov = dense_transport_oracle(state, f_r, model, 1_000_000, seed=17)
        moved = so.particle_move(state, f_r, model, 10_000, None, 21)
        se = np.sqrt(np.diag(oracle_cov) / 10_000)
        assert np.all(np.abs(moved.mean - oracle_mean) < 3 * se)
        rel = np.linalg.norm(moved.cov - oracle_cov) / np.linalg.norm(oracle_cov)
        assert rel < 0.05

    def test_truncation_keeps_mean_inside_image(self):
        rig = skewed_rig(separation=200.0, yaw=np.pi / 8)
        f_l, f_r = rig.frame_for(geo.LEFT), rig.frame_for(geo.RIGHT)
        cam_r = rig.camera(geo.RIGHT)
        rng = np.random.default_rng(8)
        kept = 0
        for i in range(100):
            # states near the edge of the right camera's field of view
            x = np.array([rng.uniform(-80, -20), rng.uniform(-20, 20), rng.uniform(100, 220)])
            y = geo.to_disparity(f_l, x)
            state = so.GaussianState(mean=y, cov=np.diag([25.0, 4.0, 2.0]), frame=f_l)
            try:
                moved = so.particle_move(state, f_r, None, 2000, cam_r, 300 + i)
            except so.TargetLeftFovError:
                continue
            kept += 1
            assert 0.0 <= moved.mean[0] < cam_r.width
        assert kept > 50

    def test_all_particles_out_of_fov_raises(self):
        rig = skewed_rig()
        f_l, f_r = rig.frame_for(geo.LEFT), rig.frame_for(geo.RIGHT)
        cam_r = rig.camera(geo.RIGHT)
        # a point far outside the right camera's view
        x = np.array([-500.0, 0.0, 60.0])
        y = geo.to_disparity(f_l, x)
        state = so.GaussianState(mean=y, cov=np.diag([1.0, 1.0, 0.01]), frame=f_l)
        with pytest.raises(so.TargetLeftFovError):
            so.particle_move(state, f_r, None, 500, cam_r, 0)

    def test_deterministic_given_seed(self):
        rig = skewed_rig()
        f_l, f_r = rig.frame_for(geo.LEFT), rig.frame_for(geo.RIGHT)
        x = np.array([0.0, 0.0, 150.0])
        state = so.GaussianState(
            mean=geo.to_disparity(f_l, x), cov=np.diag([2.0, 2.0, 0.5]), frame=f_l
        )
        a = so.particle_move(state, f_r, None, 500, None, 42)
        b = so.particle_move(state, f_r, None, 500, None, 42)
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)


def noiseless_stream(rig, x, n_steps, R=None):
    obs = []
    if R is None:
        R = 1e-10 * np.eye(2)
    for t in range(n_steps):
        for side in (geo.LEFT, geo.RIGHT):
            z = geo.project(rig.camera(side), x)
            obs.append(so.Observation(z=tuple(z), R=R, camera=side, time=t))
    return obs


class TestTrackSingle:
    def test_noiseless_static_rectified_converges(self):
        rig = rectified_rig()
        x = np.array([3.0, -2.0, 100.0])
        obs = noiseless_stream(rig, x, 10)
        params = so.TrackingParams(disparity_prior=(-7.0, 5.4))
        result = so.track_single(rig, obs, params)
        assert np.linalg.norm(result.estimates[-1] - x) < 1e-6

    def test_rectified_static_uses_no_particle_steps(self):
        rig = rectified_rig()
        x = np.array([0.0, 0.0, 120.0])
        obs = noiseless_stream(rig, x, 5)
        params = so.TrackingParams(disparity_prior=(-7.0, 5.4))
        result = so.track_single(rig, obs, params)
        assert result.counters["particle_predictions"] == 0
        assert result.counters["particle_moves"] == 0
        assert result.counters["kalman_updates"] == len(obs) - 1

    def test_nonrectified_static_alternates_moves(self):
        rig = skewed_rig(separation=60.0, yaw=np.pi / 12)
        x = np.array([0.0, 0.0, 100.0])
        obs = noiseless_stream(rig, x, 6, R=2.0 * np.eye(2))
        params = so.TrackingParams(disparity_prior=(-9.0, 5.4), n_move_particles=200)
        result = so.track_single(rig, obs, params)
        assert result.counters["particle_moves"] == len(obs) - 1
        assert np.linalg.norm(result.estimates[-1] - x) < 2.0

    def test_deterministic_given_seed(self):
        rig = skewed_rig(separation=60.0, yaw=np.pi / 12)
        x = np.array([0.0, 0.0, 100.0])
        obs = noiseless_stream(rig, x, 4, R=2.0 * np.eye(2))
        params = so.TrackingParams(disparity_prior=(-9.0, 5.4), seed=5, n_move_particles=100)
        r1 = so.track_single(rig, obs, params)
        r2 = so.track_single(rig, obs, params)
        assert np.array_equal(r1.estimates, r2.estimates)


class TestBaselinePf:
    def test_well_initialised_noiseless_converges(self):
        rig = rectified_rig()
        x = np.array([0.0, 0.0, 100.0])
        true_d = geo.to_disparity(rig.frame_for(geo.LEFT), x)[2]
        obs = noiseless_stream(rig, x, 10, R=0.01 * np.eye(2))
        result = so.baseline_pf(rig, obs, 1000, (true_d, 0.5), seed=1)
        assert not result.diverged
        assert np.linalg.norm(result.estimates[-1] - x) < 1.0

    def test_resampling_restores_uniform_weights(self):
        rng = np.random.default_rng(0)
        w = rng.random(100)
        w /= w.sum()
        idx = so.systematic_resample(w, rng)
        assert idx.shape == (100,)
        post = np.full(100, 1.0 / 100)
        assert 1.0 / np.sum(post**2) == pytest.approx(100.0)

    def test_bad_prior_diverges_gracefully(self):
        rig = skewed_rig(separation=60.0, yaw=np.pi / 12)
        x = np.array([0.0, 0.0, 50.0])
        obs = noiseless_stream(rig, x, 8, R=2.0 * np.eye(2))
        # prior ray bundle misses the object depth entirely
        result = so.baseline_pf(rig, obs, 100, (-7.0, 2.0), seed=3)
        assert result.estimates.shape[0] == len(obs)
        assert np.all(np.isfinite(result.estimates))


class TestInverseDepthEkf:
    def test_rectified_small_noise_matches_disparity_filter(self):
        rig = rectified_rig()
        x = np.array([5.0, 2.0, 120.0])
        rng = np.random.default_rng(6)
        R = 0.5 * np.eye(2)
        obs = []
        for t in range(15):
            for side in (geo.LEFT, geo.RIGHT):
                z = geo.project(rig.camera(side), x) + rng.standard_normal(2) * np.sqrt(0.5)
                obs.append(so.Observation(z=tuple(z), R=R, camera=side, time=t))
        true_d = geo.to_disparity(rig.frame_for(geo.LEFT), x)[2]
        prior = (true_d + 2.0, 9.0)
        ds = so.track_single(rig, obs, so.TrackingParams(disparity_prior=prior))
        ekf = so.baseline_inverse_depth_ekf(rig, obs, prior)
        ds_err = np.linalg.norm(ds.estimates - x, axis=1)
        ekf_err = np.linalg.norm(ekf.estimates - x, axis=1)
        # for a rectified pair the observation is linear in (u, v, rho), so
        # both filters solve the same problem
        assert abs(np.sqrt((ds_err**2).mean()) - np.sqrt((ekf_err**2).mean())) < 0.1 * np.sqrt(
            (ds_err**2).mean()
        )

    def test_non_finite_linearisation_raises(self):
        # a zero-disparity prior puts the ray point at infinity, so the other
        # camera's linearised observation model is not finite
        rig = skewed_rig(separation=80.0, yaw=np.pi / 8)
        obs = noiseless_stream(rig, np.array([0.0, 0.0, 150.0]), 3, R=2.0 * np.eye(2))
        with np.errstate(all="ignore"), pytest.raises(ValueError):
            so.baseline_inverse_depth_ekf(rig, obs, (0.0, 1.0))

    def test_estimates_shape(self):
        rig = skewed_rig(separation=80.0, yaw=np.pi / 8)
        x = np.array([0.0, 0.0, 150.0])
        obs = noiseless_stream(rig, x, 5, R=2.0 * np.eye(2))
        result = so.baseline_inverse_depth_ekf(rig, obs, (-6.0, 17.64))
        assert result.estimates.shape == (len(obs), 3)

from dataclasses import replace

import numpy as np
import pytest

from disptrack import calibration as cal
from disptrack import geometry as geo
from disptrack import phd
from disptrack import single_object as so
from disptrack.rng import derive_rng


def table_intrinsics():
    return geo.CameraIntrinsics(-8.0, 8.9, 9.0, 400.0, 300.0)


def left_camera():
    return geo.build_camera(table_intrinsics(), geo.CameraPose())


TRUE_SENSOR = geo.CameraPose(position=(38.64, 0.0, 10.35), yaw=-np.pi / 6, pitch=0.0, roll=0.0)


def make_prior(count=50, sigma_scale=1.0):
    return cal.CalibrationPrior(
        mean=TRUE_SENSOR,
        position_sigma=(5.0 * sigma_scale,) * 3,
        orientation_sigma=(np.pi / 24 * sigma_scale, np.pi / 180 * sigma_scale, np.pi / 180 * sigma_scale),
        count=count,
    )


class TestInitCalibration:
    def test_sample_statistics(self):
        prior = make_prior(count=1500)
        particles = cal.init_calibration(prior, left_camera(), table_intrinsics(), 0)
        assert len(particles) == 1500
        vecs = np.array([p.rig.right.pose.as_vector() for p in particles])
        std = vecs.std(axis=0)
        np.testing.assert_allclose(std, prior.sigmas(), rtol=0.1)

    def test_zero_sigma_collapses_to_mean(self):
        prior = make_prior(count=20, sigma_scale=0.0)
        particles = cal.init_calibration(prior, left_camera(), table_intrinsics(), 1)
        for p in particles:
            np.testing.assert_allclose(
                p.rig.right.pose.as_vector(), TRUE_SENSOR.as_vector(), atol=1e-12
            )

    def test_weights_sum_to_one(self):
        particles = cal.init_calibration(make_prior(count=64), left_camera(), table_intrinsics(), 2)
        assert sum(p.weight for p in particles) == pytest.approx(1.0, abs=1e-12)

    def test_geometry_cache_matches_state(self):
        particles = cal.init_calibration(make_prior(count=3), left_camera(), table_intrinsics(), 3)
        for p in particles:
            # the cached projection is the one the hypothesis pose gives
            expected = geo.build_camera(table_intrinsics(), p.rig.right.pose)
            np.testing.assert_array_equal(p.rig.camera(geo.RIGHT).P, expected.P)
            # all particles share the left camera frame object
            assert p.rig.frame_for(geo.LEFT) is particles[0].rig.frame_for(geo.LEFT)


def calibration_params(**phd_fields):
    """CalibrationParams whose conditional PHD changes the given fields of
    the calibration default."""
    return cal.CalibrationParams(phd=replace(cal.CalibrationParams().phd, **phd_fields))


class TestCalibrationLikelihood:
    """The log multi-object likelihood that ``phd.phd_step`` returns and
    ``joint_update`` weights the sensor particles by."""

    def step(self, mixture, Z, **phd_fields):
        rig = cal._build_rig(left_camera(), mixture.frame, table_intrinsics(), TRUE_SENSOR)
        obs_set = phd.ObservationSet(time=0, camera=geo.LEFT, observations=tuple(Z))
        _, log_lc = phd.phd_step(mixture, obs_set, 0, rig, phd.PhdParams(**phd_fields))
        return log_lc

    def test_pure_clutter_closed_form(self):
        frame = geo.rectified_companion(left_camera())
        Z = [
            so.Observation(z=(100.0, 100.0), R=2.0 * np.eye(2), camera=geo.LEFT),
            so.Observation(z=(400.0, 300.0), R=2.0 * np.eye(2), camera=geo.LEFT),
            so.Observation(z=(700.0, 500.0), R=2.0 * np.eye(2), camera=geo.LEFT),
        ]
        log_l = self.step(phd.empty_mixture(frame), Z, clutter_rate=10.0)
        expected = -10.0 + 3.0 * np.log(10.0 / (800.0 * 600.0))
        assert log_l == pytest.approx(expected, abs=1e-12)

    def test_empty_observations(self):
        # a component well inside the image is detected with p_D = 0.95, so
        # W_det = 0.95 * 0.7
        frame = geo.rectified_companion(left_camera())
        state = so.GaussianState(
            mean=np.array([400.0, 300.0, -9.0]), cov=np.diag([2.0, 2.0, 1.0]), frame=frame
        )
        mixture = phd.GaussianMixture((phd.WeightedGaussian(0.7, state),), frame)
        log_l = self.step(mixture, [], p_detect=0.95, clutter_rate=0.0)
        assert log_l == pytest.approx(-0.95 * 0.7)

    def test_matches_independent_transcription(self):
        from scipy.stats import multivariate_normal

        frame = geo.rectified_companion(left_camera())
        state = so.GaussianState(
            mean=np.array([400.0, 300.0, -9.0]), cov=np.diag([2.0, 2.0, 1.0]), frame=frame
        )
        mixture = phd.GaussianMixture((phd.WeightedGaussian(0.9, state),), frame)
        z = so.Observation(z=(401.0, 299.0), R=np.eye(2), camera=geo.LEFT)
        log_l = self.step(mixture, [z], p_detect=0.95, clutter_rate=10.0)
        H = geo.disparity_observation_matrix(geo.LEFT)
        q = multivariate_normal.pdf(np.asarray(z.z), H @ state.mean, H @ state.cov @ H.T + z.R)
        w_det = 0.95 * 0.9
        expected = -10.0 - w_det + np.log(10.0 / 480000.0 + w_det * q)
        assert log_l == pytest.approx(expected, rel=1e-12)

    def test_agrees_with_update_denominators(self):
        frame = geo.rectified_companion(left_camera())
        rng = np.random.default_rng(0)
        comps = []
        for _ in range(3):
            mean = np.array([rng.uniform(100, 700), rng.uniform(100, 500), rng.uniform(-15, -5)])
            comps.append(
                phd.WeightedGaussian(
                    rng.uniform(0.2, 1.0),
                    so.GaussianState(mean=mean, cov=np.diag([2.0, 2.0, 1.0]), frame=frame),
                )
            )
        # with p_D = 1 inside the image every component is detected whole
        detected = phd.GaussianMixture(tuple(comps), frame)
        missed = phd.empty_mixture(frame)
        clutter = phd.ClutterModel(10.0, 800, 600)
        Z = [
            so.Observation(z=(rng.uniform(0, 800), rng.uniform(0, 600)), R=2.0 * np.eye(2), camera=geo.LEFT)
            for _ in range(4)
        ]
        _, log_denoms = phd.phd_update_with_denominators(missed, detected, Z, clutter)
        fused = -clutter.rate - detected.total_weight + log_denoms.sum()
        log_l = self.step(detected, Z, p_detect=1.0, clutter_rate=10.0)
        assert log_l == pytest.approx(fused, rel=1e-12)


def synthetic_sets(rig, targets, n_steps, seed, clutter_rate=10.0, p_detect=0.95):
    rng = np.random.default_rng(seed)
    sets = []
    for t in range(n_steps):
        for side in (geo.LEFT, geo.RIGHT):
            cam = rig.camera(side)
            obs = []
            for x in targets:
                uv, in_front = geo.project_masked(cam, np.asarray(x, dtype=float))
                if not in_front:
                    continue
                if rng.random() >= p_detect:
                    continue
                z = uv + rng.standard_normal(2) * np.sqrt(2.0)
                if 0 <= z[0] < cam.width and 0 <= z[1] < cam.height:
                    obs.append(so.Observation(z=tuple(z), R=2.0 * np.eye(2), camera=side, time=t))
            for _ in range(rng.poisson(clutter_rate)):
                obs.append(
                    so.Observation(
                        z=(rng.uniform(0, cam.width), rng.uniform(0, cam.height)),
                        R=2.0 * np.eye(2),
                        camera=side,
                        time=t,
                    )
                )
            idx = rng.permutation(len(obs))
            sets.append(phd.ObservationSet(time=t, camera=side, observations=tuple(obs[i] for i in idx)))
    return sets


TARGETS = [(-10.0, -8.0, 150.0), (20.0, 5.0, 200.0), (0.0, 10.0, 260.0)]


class TestJointUpdate:
    def test_single_particle_matches_phd_track(self):
        left = left_camera()
        prior = make_prior(count=1, sigma_scale=0.0)
        particles = cal.init_calibration(prior, left, table_intrinsics(), 0)
        rig = particles[0].rig
        sets = synthetic_sets(rig, TARGETS, 5, seed=42)
        params = calibration_params(
            disparity_prior=(-7.0, 8.0),
            birth_weight=0.01,
            prune_threshold=1e-6,
            max_components=200,
            n_move_particles=100,
            n_split_particles=256,
            seed=9,
        )
        reference = phd.phd_track(rig, sets, params.phd)
        last_time = None
        for obs_set in sets:
            dt_steps = 0 if last_time is None else obs_set.time - last_time
            particles = cal.joint_update(particles, obs_set, dt_steps, params)
            assert particles[0].weight == pytest.approx(1.0)
            last_time = obs_set.time
        final = particles[0].mixture
        ref = reference.final_mixture
        assert len(final) == len(ref)
        for a, b in zip(final.components, ref.components):
            assert a.weight == b.weight
            assert np.array_equal(a.state.mean, b.state.mean)
            assert np.array_equal(a.state.cov, b.state.cov)

    def test_true_geometry_particle_wins(self):
        left = left_camera()
        left_frame = geo.rectified_companion(left)
        wrong = geo.CameraPose(
            position=(TRUE_SENSOR.position[0] + 100.0, 0.0, TRUE_SENSOR.position[2]),
            yaw=TRUE_SENSOR.yaw,
            pitch=0.0,
            roll=0.0,
        )
        particles = [
            cal.SensorParticle(
                weight=0.5,
                mixture=phd.empty_mixture(left_frame),
                rig=cal._build_rig(left, left_frame, table_intrinsics(), s),
            )
            for s in (TRUE_SENSOR, wrong)
        ]
        true_rig = particles[0].rig
        sets = synthetic_sets(true_rig, TARGETS, 10, seed=7, clutter_rate=5.0)
        params = calibration_params(disparity_prior=(-7.0, 8.0), clutter_rate=5.0, seed=3)
        last_time = None
        for obs_set in sets:
            dt_steps = 0 if last_time is None else obs_set.time - last_time
            particles = cal.joint_update(particles, obs_set, dt_steps, params)
            total = sum(p.weight for p in particles)
            assert total == pytest.approx(1.0, abs=1e-12)
            last_time = obs_set.time
        weights = {id(p): p.weight for p in particles}
        assert particles[0].weight > 0.99  # the true-geometry hypothesis

    @pytest.mark.filterwarnings("error")
    def test_zero_weight_particle_stays_zero_without_warnings(self):
        left = left_camera()
        particles = cal.init_calibration(make_prior(count=3), left, table_intrinsics(), 4)
        particles = [replace(p, weight=w) for p, w in zip(particles, (0.0, 0.5, 0.5))]
        obs_set = synthetic_sets(particles[1].rig, TARGETS, 1, seed=5)[0]
        params = calibration_params(disparity_prior=(-7.0, 8.0), seed=3)
        stepped = cal.joint_update(particles, obs_set, 0, params)
        assert stepped[0].weight == 0.0
        assert sum(p.weight for p in stepped) == pytest.approx(1.0, abs=1e-12)


class TestResample:
    def make_population(self, weights):
        left = left_camera()
        frame = geo.rectified_companion(left)
        particles = []
        for i, w in enumerate(weights):
            s = geo.CameraPose(position=(float(i), 0.0, 0.0), yaw=0.0, pitch=0.0, roll=0.0)
            particles.append(
                cal.SensorParticle(
                    weight=w,
                    mixture=phd.empty_mixture(frame),
                    rig=cal._build_rig(left, frame, table_intrinsics(), s),
                )
            )
        return particles

    def test_uniform_weights_untouched(self):
        particles = self.make_population([0.25] * 4)
        out = cal.resample(particles, 0.5, derive_rng(0))
        assert out is particles

    def test_degenerate_population_collapses_to_winner(self):
        particles = self.make_population([1.0, 0.0, 0.0, 0.0])
        out = cal.resample(particles, 0.5, derive_rng(1))
        assert all(p.rig.right.pose == particles[0].rig.right.pose for p in out)
        assert all(p.weight == pytest.approx(0.25) for p in out)

    def test_post_resample_ess_is_full(self):
        particles = self.make_population([0.7, 0.1, 0.1, 0.1])
        out = cal.resample(particles, 0.99, derive_rng(2))
        assert cal.effective_sample_size(out) == pytest.approx(len(out))

    def test_resampling_never_decreases_ess(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = rng.random(8)
            w /= w.sum()
            particles = self.make_population(list(w))
            before = cal.effective_sample_size(particles)
            out = cal.resample(particles, 1.0, derive_rng(4))
            assert cal.effective_sample_size(out) >= before - 1e-9


class TestEstimateSensor:
    def test_identical_particles(self):
        left = left_camera()
        frame = geo.rectified_companion(left)
        s = TRUE_SENSOR
        particles = [
            cal.SensorParticle(
                weight=0.5, mixture=phd.empty_mixture(frame),
                rig=cal._build_rig(left, frame, table_intrinsics(), s),
            )
            for _ in range(2)
        ]
        est, std = cal.estimate_sensor(particles)
        np.testing.assert_allclose(est.as_vector(), s.as_vector(), atol=1e-12)
        np.testing.assert_allclose(std, 0.0, atol=1e-12)

    def test_symmetric_two_particle_midpoint(self):
        left = left_camera()
        frame = geo.rectified_companion(left)
        s1 = geo.CameraPose(position=(30.0, 0.0, 0.0), yaw=-0.4, pitch=0.0, roll=0.0)
        s2 = geo.CameraPose(position=(50.0, 0.0, 0.0), yaw=-0.6, pitch=0.0, roll=0.0)
        particles = [
            cal.SensorParticle(
                weight=0.5, mixture=phd.empty_mixture(frame),
                rig=cal._build_rig(left, frame, table_intrinsics(), s),
            )
            for s in (s1, s2)
        ]
        est, _ = cal.estimate_sensor(particles)
        np.testing.assert_allclose(est.as_vector(), (s1.as_vector() + s2.as_vector()) / 2)

    def test_prior_population_recovers_prior_mean(self):
        prior = make_prior(count=4000)
        particles = cal.init_calibration(prior, left_camera(), table_intrinsics(), 5)
        est, std = cal.estimate_sensor(particles)
        sig = prior.sigmas()
        err = np.abs(est.as_vector() - prior.mean.as_vector())
        assert np.all(err < 4.0 * sig / np.sqrt(4000) + 1e-12)


class TestCalibrate:
    def test_zero_uncertainty_prior_stays_at_truth(self):
        left = left_camera()
        prior = make_prior(count=4, sigma_scale=0.0)
        rig = cal._build_rig(left, geo.rectified_companion(left), table_intrinsics(), TRUE_SENSOR)
        sets = synthetic_sets(rig, TARGETS, 4, seed=11, clutter_rate=5.0)
        params = calibration_params(disparity_prior=(-7.0, 8.0), clutter_rate=5.0, seed=2)
        result = cal.calibrate(left, table_intrinsics(), sets, prior, params)
        for rec in result.records:
            np.testing.assert_allclose(rec.estimate.as_vector(), TRUE_SENSOR.as_vector(), atol=1e-10)

    def test_weights_normalised_every_step(self):
        left = left_camera()
        prior = make_prior(count=16, sigma_scale=0.5)
        rig = cal._build_rig(left, geo.rectified_companion(left), table_intrinsics(), TRUE_SENSOR)
        sets = synthetic_sets(rig, TARGETS, 3, seed=13, clutter_rate=5.0)
        params = calibration_params(disparity_prior=(-7.0, 8.0), clutter_rate=5.0, seed=4)
        particles = cal.init_calibration(prior, left, table_intrinsics(), params.phd.seed)
        last_time = None
        for obs_set in sets:
            dt_steps = 0 if last_time is None else obs_set.time - last_time
            particles = cal.joint_update(particles, obs_set, dt_steps, params)
            assert sum(p.weight for p in particles) == pytest.approx(1.0, abs=1e-12)
            last_time = obs_set.time

    def test_far_clutter_leaves_normalised_weights_unchanged(self):
        # appending an observation far from every component to a set
        # multiplies every particle's likelihood by almost the same clutter
        # factor, so the normalised weights stay put
        left = left_camera()
        prior = make_prior(count=8, sigma_scale=0.3)
        params = calibration_params(disparity_prior=(-7.0, 8.0), clutter_rate=5.0, seed=5)
        particles = cal.init_calibration(prior, left, table_intrinsics(), 6)
        rig0 = particles[0].rig
        sets = synthetic_sets(rig0, TARGETS, 2, seed=17, clutter_rate=5.0)
        last_time = None
        for obs_set in sets[:-1]:
            dt_steps = 0 if last_time is None else obs_set.time - last_time
            particles = cal.joint_update(particles, obs_set, dt_steps, params)
            last_time = obs_set.time
        final = sets[-1]
        dt_steps = final.time - last_time
        far_obs = so.Observation(
            z=(5.0, 590.0), R=2.0 * np.eye(2), camera=final.camera, time=final.time
        )
        with_far = phd.ObservationSet(
            time=final.time, camera=final.camera, observations=final.observations + (far_obs,)
        )
        base = np.array(
            [p.weight for p in cal.joint_update(list(particles), final, dt_steps, params)]
        )
        new = np.array(
            [p.weight for p in cal.joint_update(list(particles), with_far, dt_steps, params)]
        )
        np.testing.assert_allclose(new, base, atol=1e-6)

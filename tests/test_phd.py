from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import multivariate_normal

from disptrack import experiments as ex
from disptrack import geometry as geo
from disptrack import phd, sim
from disptrack import single_object as so
from disptrack.rng import SALT_PARTICLE, SALT_SPLIT, derive_rng


def table_intrinsics():
    return geo.CameraIntrinsics(
        focal_length_mm=-8.0,
        pixel_size_u_um=8.9,
        pixel_size_v_um=9.0,
        principal_u=400.0,
        principal_v=300.0,
    )


def skewed_rig(separation=40.0, yaw=np.pi / 12):
    left = geo.build_camera(
        table_intrinsics(), geo.CameraPose(position=(-separation / 2, 0.0, 0.0), yaw=yaw)
    )
    right = geo.build_camera(
        table_intrinsics(), geo.CameraPose(position=(separation / 2, 0.0, 0.0), yaw=-yaw)
    )
    return geo.StereoRig.make_non_rectified(left, right)


def state_at(frame, x, cov=None):
    mean = geo.to_disparity(frame, np.asarray(x, dtype=float))
    if cov is None:
        cov = np.diag([2.0, 2.0, 0.5])
    return so.GaussianState(mean=mean, cov=cov, frame=frame)


def mixture_of(frame, *weighted_states):
    return phd.GaussianMixture(
        tuple(phd.WeightedGaussian(w, s) for w, s in weighted_states), frame
    )


class TestPhdPredict:
    def test_identity_within_mc_tolerance(self):
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        mix = mixture_of(frame, (1.0, state_at(frame, [0.0, 0.0, 150.0])))
        pred = phd.phd_predict(mix, frame, 1.0, None, n_particles=20_000)
        comp = pred.components[0]
        se = np.sqrt(np.diag(mix.components[0].state.cov) / 20_000)
        assert np.all(np.abs(comp.state.mean - mix.components[0].state.mean) < 3 * se)
        assert pred.total_weight == pytest.approx(1.0)

    def test_survival_scales_weights(self):
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        mix = mixture_of(
            frame,
            (1.0, state_at(frame, [0.0, 0.0, 150.0])),
            (1.0, state_at(frame, [10.0, 0.0, 200.0])),
            (1.0, state_at(frame, [-10.0, 5.0, 250.0])),
        )
        pred = phd.phd_predict(mix, frame, 0.9, None, n_particles=500)
        assert [c.weight for c in pred.components] == pytest.approx([0.9, 0.9, 0.9])

    def test_single_component_equals_particle_move(self):
        # one component moved by the PHD prediction is bit-identical to the
        # single-object particle move with the same derived seed
        left = geo.build_camera(
            table_intrinsics(), geo.CameraPose(position=(-100.0, 0.0, 0.0), yaw=np.pi / 8)
        )
        right = geo.build_camera(
            table_intrinsics(), geo.CameraPose(position=(100.0, 0.0, 0.0), yaw=-np.pi / 8)
        )
        rig = geo.StereoRig.make_non_rectified(left, right)
        f_l, f_r = rig.frame_for(geo.LEFT), rig.frame_for(geo.RIGHT)
        state = state_at(f_l, [0.0, 0.0, 150.0])
        mix = mixture_of(f_l, (1.0, state))
        seed_keys = (17, 3, SALT_PARTICLE, 1)
        pred = phd.phd_predict(mix, f_r, 1.0, None, n_particles=500, seed_keys=seed_keys)
        direct = so.particle_move(state, f_r, None, 500, None, derive_rng(*seed_keys, 0))
        assert np.array_equal(pred.components[0].state.mean, direct.mean)
        assert np.array_equal(pred.components[0].state.cov, direct.cov)


class TestSplitDetection:
    def test_deep_inside_fast_path(self):
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        det = phd.DetectionModel(0.95, 800, 600)
        state = state_at(frame, [0.0, 0.0, 150.0])
        mix = mixture_of(frame, (1.0, state))
        missed, detected = phd.split_detection(mix, det, 256, seed_keys=(0,))
        assert missed.components[0].weight == pytest.approx(0.05)
        assert detected.components[0].weight == pytest.approx(0.95)
        assert np.array_equal(missed.components[0].state.mean, state.mean)
        assert np.array_equal(detected.components[0].state.mean, state.mean)

    def test_fully_outside(self):
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        det = phd.DetectionModel(0.95, 800, 600)
        mean = np.array([-500.0, 300.0, -9.0])  # far outside the image
        state = so.GaussianState(mean=mean, cov=np.diag([4.0, 4.0, 1.0]), frame=frame)
        mix = mixture_of(frame, (0.7, state))
        missed, detected = phd.split_detection(mix, det, 256, seed_keys=(0,))
        assert missed.components[0].weight == pytest.approx(0.7)
        assert len(detected) == 0

    def test_each_component_equals_split_component_on_its_stream(self):
        # the mixture split is bit-identical to splitting component k alone
        # with the derived stream (*seed_keys, k); the two identical
        # straddling components therefore refit from different particles
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        det = phd.DetectionModel(0.95, 800, 600)
        straddling = so.GaussianState(
            mean=np.array([2.0, 300.0, -9.0]), cov=np.diag([400.0, 4.0, 1.0]), frame=frame
        )
        outside = so.GaussianState(
            mean=np.array([-500.0, 300.0, -9.0]), cov=np.diag([4.0, 4.0, 1.0]), frame=frame
        )
        mix = mixture_of(
            frame,
            (1.0, state_at(frame, [0.0, 0.0, 150.0])),
            (0.7, straddling),
            (0.7, straddling),
            (0.3, outside),
        )
        seed_keys = (17, 3, SALT_SPLIT, 1)
        missed, detected = phd.split_detection(mix, det, 256, seed_keys)
        parts = [
            phd.split_component(c.weight, c.state, det, 256, derive_rng(*seed_keys, k))
            for k, c in enumerate(mix.components)
        ]
        for got, want in ((missed, [m for m, _ in parts]), (detected, [d for _, d in parts])):
            want = [w for w in want if w is not None]
            assert len(got) == len(want)
            for a, b in zip(got.components, want):
                assert a.weight == b.weight
                assert np.array_equal(a.state.mean, b.state.mean)
                assert np.array_equal(a.state.cov, b.state.cov)
        first, second = detected.components[1:3]
        assert not np.array_equal(first.state.mean, second.state.mean)

    def test_one_dimensional_analogue_of_halfplane_detection(self):
        # standard normal u-coordinate, detection probability 0.9 for u >= 0
        # and 0 otherwise; the v and d coordinates stay far inside
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        det = phd.DetectionModel(0.9, width=10**9, height=10**9)
        mean = np.array([0.0, 5e8, -9.0])
        cov = np.diag([1.0, 1.0, 0.01])
        state = so.GaussianState(mean=mean, cov=cov, frame=frame)
        missed, detected = phd.split_component(1.0, state, det, 200_000, 13)

        # dense weighted-fit oracle on one million fresh samples
        rng = np.random.default_rng(999)
        u = rng.standard_normal(1_000_000)
        w_det = 0.9 * (u >= 0)
        w_mis = 1.0 - w_det
        oracle_det_mean = (w_det * u).sum() / w_det.sum()
        oracle_mis_mean = (w_mis * u).sum() / w_mis.sum()

        assert detected.state.mean[0] > 0 > missed.state.mean[0]
        assert detected.state.mean[0] == pytest.approx(oracle_det_mean, abs=0.01)
        assert missed.state.mean[0] == pytest.approx(oracle_mis_mean, abs=0.01)
        # analytic values of the half-normal construction
        assert detected.state.mean[0] == pytest.approx(np.sqrt(2 / np.pi), abs=0.01)
        assert detected.weight == pytest.approx(0.45, abs=0.005)
        assert missed.weight == pytest.approx(0.55, abs=0.005)

    def test_weight_conservation(self):
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        det = phd.DetectionModel(0.95, 800, 600)
        rng = np.random.default_rng(4)
        for i in range(20):
            mean = np.array([rng.uniform(-100, 900), rng.uniform(-100, 700), -9.0])
            state = so.GaussianState(mean=mean, cov=np.diag([400.0, 400.0, 1.0]), frame=frame)
            m, d = phd.split_component(0.8, state, det, 4096, 100 + i)
            total = (m.weight if m else 0.0) + (d.weight if d else 0.0)
            assert total == pytest.approx(0.8, abs=1e-12)


def assert_same_components(got, want):
    """Two sequences of weighted Gaussians agree bit for bit."""
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.weight == b.weight
        assert np.array_equal(a.state.mean, b.state.mean)
        assert np.array_equal(a.state.cov, b.state.cov)


def last_update_input(monkeypatch):
    """The arguments of the last PHD update of a three-step six-targets run
    (by then its mixture holds tight and diffuse components), with the run's
    filter parameters."""
    preset = sim.load_config(Path(sim.__file__).parent / "presets" / "six-targets.json")
    cfg = replace(preset, n_steps=3)
    sets = sim.generate_observations(sim.generate_truth(cfg), cfg, 7)
    params = ex._phd_params(cfg, 7)
    calls = []
    update = phd.phd_update_with_denominators

    def capture(missed, detected, Z, clutter, prune_threshold=0.0):
        calls.append((missed, detected, Z, clutter))
        return update(missed, detected, Z, clutter, prune_threshold)

    monkeypatch.setattr(phd, "phd_update_with_denominators", capture)
    phd.phd_track(cfg.rig, sets, params)
    return (*calls[-1], params)


class TestPhdUpdate:
    def make_clutter(self, rate):
        return phd.ClutterModel(rate, 800, 600)

    def test_clutter_free_single_component(self):
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        state = state_at(frame, [0.0, 0.0, 150.0])
        detected = mixture_of(frame, (1.0, state))
        missed = phd.empty_mixture(frame)
        z = so.Observation(z=tuple(state.mean[:2]), R=2.0 * np.eye(2), camera=geo.LEFT)
        post = phd.phd_update_with_denominators(missed, detected, [z], self.make_clutter(0.0))[0]
        assert len(post) == 1
        assert post.components[0].weight == pytest.approx(1.0)

    def test_empty_observation_set_keeps_missed_only(self):
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        state = state_at(frame, [0.0, 0.0, 150.0])
        det = phd.DetectionModel(0.95, 800, 600)
        mix = mixture_of(frame, (1.0, state))
        missed, detected = phd.split_detection(mix, det, 256, seed_keys=(0,))
        post = phd.phd_update_with_denominators(missed, detected, [], self.make_clutter(10.0))[0]
        assert post.total_weight == pytest.approx(0.05)

    def test_weight_ratio_matches_scalar_reimplementation(self):
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        s1 = state_at(frame, [0.0, 0.0, 150.0])
        s2 = state_at(frame, [30.0, 10.0, 250.0])
        detected = mixture_of(frame, (0.6, s1), (0.4, s2))
        missed = phd.empty_mixture(frame)
        clutter = self.make_clutter(10.0)
        z = so.Observation(
            z=(s1.mean[0] + 1.0, s1.mean[1] - 0.5), R=2.0 * np.eye(2), camera=geo.LEFT
        )
        post = phd.phd_update_with_denominators(missed, detected, [z], clutter)[0]

        # independent transcription of the update weights
        H = geo.disparity_observation_matrix(geo.LEFT)
        qs = []
        for w, s in ((0.6, s1), (0.4, s2)):
            S = H @ s.cov @ H.T + z.R
            qs.append(w * multivariate_normal.pdf(np.asarray(z.z), H @ s.mean, S))
        denom = clutter.rate * clutter.density(z.z) + sum(qs)
        expected = [q / denom for q in qs]
        got = [c.weight for c in post.components]
        np.testing.assert_allclose(got, expected, rtol=1e-10)
        assert got[0] / got[1] == pytest.approx(qs[0] / qs[1], rel=1e-10)

    def test_association_weights_sum_to_one(self):
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        rng = np.random.default_rng(7)
        states = [
            state_at(frame, [rng.uniform(-30, 30), rng.uniform(-20, 20), rng.uniform(120, 300)])
            for _ in range(4)
        ]
        detected = mixture_of(frame, *((0.95 * rng.uniform(0.3, 1.2), s) for s in states))
        missed = phd.empty_mixture(frame)
        clutter = self.make_clutter(10.0)
        Z = [
            so.Observation(z=(rng.uniform(0, 800), rng.uniform(0, 600)), R=2.0 * np.eye(2), camera=geo.LEFT)
            for _ in range(5)
        ]
        post = phd.phd_update_with_denominators(missed, detected, Z, clutter)[0]
        H = geo.disparity_observation_matrix(geo.LEFT)
        k = len(detected.components)
        for j, z in enumerate(Z):
            assoc = [c.weight for c in post.components[j * k : (j + 1) * k]]
            qs = sum(
                c.weight * multivariate_normal.pdf(np.asarray(z.z), H @ c.state.mean, H @ c.state.cov @ H.T + z.R)
                for c in detected.components
            )
            clutter_share = clutter.rate * clutter.density(z.z) / (clutter.rate * clutter.density(z.z) + qs)
            assert sum(assoc) + clutter_share == pytest.approx(1.0, abs=1e-10)

    def test_posterior_weight_bounded(self):
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        s = state_at(frame, [0.0, 0.0, 150.0])
        det = phd.DetectionModel(0.95, 800, 600)
        mix = mixture_of(frame, (1.0, s), (0.8, state_at(frame, [5.0, 5.0, 180.0])))
        missed, detected = phd.split_detection(mix, det, 256, seed_keys=(1,))
        Z = [
            so.Observation(z=(400.0, 300.0), R=2.0 * np.eye(2), camera=geo.LEFT),
            so.Observation(z=(100.0, 100.0), R=2.0 * np.eye(2), camera=geo.LEFT),
        ]
        post = phd.phd_update_with_denominators(
            missed, detected, Z, self.make_clutter(10.0)
        )[0]
        bound = missed.total_weight + detected.total_weight + len(Z)
        assert post.total_weight <= bound + 1e-9

    def update_oracle(self, missed, detected, Z, clutter):
        # the update written per (observation, component) pair
        out = list(missed.components)
        log_denoms = []
        for z in Z:
            updated = []
            log_terms = [clutter.log_intensity(z.z)]
            for comp in detected.components:
                post, loglik = so.kalman_update(comp.state, z)
                lw = np.log(comp.weight) + loglik if comp.weight > 0 else -np.inf
                updated.append((lw, post))
                log_terms.append(lw)
            log_denom = np.logaddexp.reduce(log_terms)
            log_denoms.append(log_denom)
            for lw, post in updated:
                w = 0.0 if not np.isfinite(lw - log_denom) else float(np.exp(lw - log_denom))
                out.append(phd.WeightedGaussian(w, post))
        return out, np.array(log_denoms)

    @pytest.mark.parametrize("dynamic", [False, True])
    def test_matches_per_pair_kalman_updates_bit_for_bit(self, dynamic):
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        rng = np.random.default_rng(21)
        n = 6 if dynamic else 3
        comps = []
        for k in range(5):
            A = rng.standard_normal((n, n))
            mean = np.concatenate(
                [[rng.uniform(100, 700), rng.uniform(100, 500), rng.uniform(-15, -4)], rng.normal(size=n - 3)]
            )
            # the last component has zero weight and still gets its copies
            weight = 0.0 if k == 4 else rng.uniform(0.1, 1.0)
            comps.append((weight, so.GaussianState(mean=mean, cov=A @ A.T + 2.0 * np.eye(n), frame=frame)))
        detected = mixture_of(frame, *comps)
        missed = mixture_of(frame, (0.3, comps[0][1]))
        clutter = self.make_clutter(10.0)
        R_a, R_b = 2.0 * np.eye(2), np.array([[3.0, 0.4], [0.4, 1.5]])
        Z = [
            so.Observation(z=(rng.uniform(0, 800), rng.uniform(0, 600)), R=R, camera=geo.LEFT)
            for R in (R_a, R_b, R_a, R_b, R_a)
        ]
        post, log_denoms = phd.phd_update_with_denominators(missed, detected, Z, clutter)
        expected, expected_denoms = self.update_oracle(missed, detected, Z, clutter)
        assert np.array_equal(log_denoms, expected_denoms)
        assert len(post) == len(expected) == 1 + len(Z) * len(comps)
        for got, want in zip(post.components, expected):
            assert got.weight == want.weight
            assert np.array_equal(got.state.mean, want.state.mean)
            assert np.array_equal(got.state.cov, want.state.cov)
        for c in post.components[1:]:
            assert not c.state.cov.flags.writeable
            so.GaussianState(c.state.mean, c.state.cov, frame)  # re-validates
        assert any(c.weight == 0.0 for c in post.components[1:])

    def test_prune_threshold_builds_only_surviving_copies(self, monkeypatch):
        missed, detected, Z, clutter, params = last_update_input(monkeypatch)
        lambda_max = np.linalg.eigvalsh(np.array([c.state.cov for c in detected.components]))[:, -1]
        # tight and diffuse components, as on the phd-clutter workload
        assert lambda_max.min() < 10.0 and lambda_max.max() > 1e10
        t = params.prune_threshold
        full, full_denoms = phd.phd_update_with_denominators(missed, detected, Z, clutter)
        pruned, denoms = phd.phd_update_with_denominators(missed, detected, Z, clutter, t)
        assert np.array_equal(denoms, full_denoms)
        # the missed part passes through whole; prune_merge prunes it
        copies = full.components[len(missed) :]
        kept = [*missed.components, *(c for c in copies if c.weight >= t)]
        assert len(missed) < len(pruned) < len(full)
        assert_same_components(pruned.components, kept)
        full_merged, merged = (
            phd.prune_merge(m, t, params.merge_distance, params.max_components)
            for m in (full, pruned)
        )
        assert_same_components(merged.components, full_merged.components)

    def test_non_finite_observation_rejected(self):
        with pytest.raises(ValueError):
            so.Observation(z=(np.nan, 0.0), R=np.eye(2), camera=geo.LEFT)
        with pytest.raises(ValueError):
            so.Observation(z=(0.0, 0.0), R=np.array([[np.inf, 0.0], [0.0, 1.0]]), camera=geo.LEFT)


class TestBirth:
    def test_one_component_per_observation(self):
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        Z = [
            so.Observation(z=(100.0, 100.0), R=2.0 * np.eye(2), camera=geo.LEFT),
            so.Observation(z=(400.0, 300.0), R=2.0 * np.eye(2), camera=geo.LEFT),
            so.Observation(z=(700.0, 500.0), R=2.0 * np.eye(2), camera=geo.LEFT),
        ]
        birth = phd.birth_from_observations(Z, (-7.0, 5.4), None, 0.1, frame)
        assert len(birth) == 3
        assert birth.total_weight == pytest.approx(0.3)
        for comp, z in zip(birth.components, Z):
            np.testing.assert_allclose(comp.state.mean, [z.z[0], z.z[1], -7.0])

    def test_empty_observations(self):
        rig = skewed_rig()
        birth = phd.birth_from_observations([], (-7.0, 5.4), None, 0.1, rig.frame_for(geo.LEFT))
        assert len(birth) == 0


class TestPruneMerge:
    def test_identical_components_merge(self):
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        s = state_at(frame, [0.0, 0.0, 150.0])
        mix = mixture_of(frame, (0.5, s), (0.5, s))
        out = phd.prune_merge(mix, 1e-6, 7.0, 100)
        assert len(out) == 1
        assert out.components[0].weight == pytest.approx(1.0)
        np.testing.assert_allclose(out.components[0].state.mean, s.mean, atol=1e-12)
        np.testing.assert_allclose(out.components[0].state.cov, s.cov, atol=1e-12)

    def test_low_weight_pruned(self):
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        mix = mixture_of(
            frame, (1.0, state_at(frame, [0.0, 0.0, 150.0])), (1e-7, state_at(frame, [50.0, 0.0, 200.0]))
        )
        out = phd.prune_merge(mix, 1e-6, 7.0, 100)
        assert len(out) == 1

    def test_moment_matching_merge(self):
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        base = np.array([400.0, 300.0, -9.0])
        s1 = so.GaussianState(mean=base, cov=np.eye(3), frame=frame)
        s2 = so.GaussianState(mean=base + [2.0, 0.0, 0.0], cov=np.eye(3), frame=frame)
        mix = mixture_of(frame, (0.5, s1), (0.5, s2))
        out = phd.prune_merge(mix, 1e-6, 7.0, 100)
        assert len(out) == 1
        merged = out.components[0]
        assert merged.weight == pytest.approx(1.0)
        assert merged.state.mean[0] == pytest.approx(base[0] + 1.0)
        assert merged.state.cov[0, 0] == pytest.approx(2.0)  # 1 + unit mean spread
        assert merged.state.cov[1, 1] == pytest.approx(1.0)

    def test_merging_preserves_total_weight(self):
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        rng = np.random.default_rng(6)
        comps = []
        for _ in range(12):
            x = [rng.uniform(-20, 20), rng.uniform(-15, 15), rng.uniform(130, 160)]
            comps.append((rng.uniform(0.1, 1.0), state_at(frame, x)))
        mix = mixture_of(frame, *comps)
        out = phd.prune_merge(mix, 1e-9, 7.0, 100)
        assert out.total_weight == pytest.approx(mix.total_weight, abs=1e-10)
        assert out.total_weight <= mix.total_weight + 1e-10


def prune_merge_oracle(mix, prune_threshold, merge_distance, max_components):
    """The greedy merge scanning all remaining components for every group
    head (Vo & Ma 2006 with the symmetric gate): the reference that the
    ball-query prefilter must reproduce bit for bit."""
    comps = [c for c in mix.components if c.weight >= prune_threshold]
    chols = []
    for c in comps:
        try:
            chols.append(scipy.linalg.cho_factor(c.state.cov, lower=True))
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
            chols.append(None)
    merged = []
    remaining = sorted(range(len(comps)), key=lambda i: -comps[i].weight)
    while remaining:
        j = remaining[0]
        group = []
        rest = []
        for i in remaining:
            if i == j:
                group.append(i)
                continue
            if chols[i] is None or chols[j] is None:
                rest.append(i)
                continue
            diff = comps[i].state.mean - comps[j].state.mean
            if (
                diff @ scipy.linalg.cho_solve(chols[i], diff) <= merge_distance
                and diff @ scipy.linalg.cho_solve(chols[j], diff) <= merge_distance
            ):
                group.append(i)
            else:
                rest.append(i)
        w = np.array([comps[i].weight for i in group])
        means = np.array([comps[i].state.mean for i in group])
        w_total = w.sum()
        mean = (w @ means) / w_total
        cov = np.zeros_like(comps[j].state.cov)
        for i, wi in zip(group, w):
            d = comps[i].state.mean - mean
            cov += wi * (comps[i].state.cov + np.outer(d, d))
        cov /= w_total
        merged.append(
            phd.WeightedGaussian(
                float(w_total),
                so.GaussianState(mean=mean, cov=so.ensure_spd(cov)[0], frame=mix.frame),
            )
        )
        remaining = rest
    merged.sort(key=lambda c: -c.weight)
    return merged[:max_components]


def random_mixture(frame, rng, n, K):
    """Clusters of tight, diffuse and singular components with exact weight
    ties, so that groups of several sizes form and some pairs sit near the
    merge boundary."""
    centres = rng.uniform(-50.0, 50.0, size=(max(1, K // 4), n))
    comps = []
    for k in range(K):
        mean = centres[rng.integers(len(centres))] + rng.normal(scale=rng.choice([0.3, 3.0]), size=n)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        kind = k % 4
        if kind == 0:  # tight
            eig = rng.uniform(0.05, 1.0, n)
        elif kind == 1:  # diffuse along some axes
            eig = 10.0 ** rng.uniform(-1.0, 4.0, n)
        else:
            eig = rng.uniform(0.5, 10.0, n)
        state = so.GaussianState(mean=mean, cov=(Q * eig) @ Q.T, frame=frame)
        if kind == 3 and k % 8 == 3:
            # a spread LAPACK cannot factor (GaussianState would promote it,
            # so it is planted directly): it never accepts a merge
            object.__setattr__(state, "cov", np.diag(np.r_[1.0, np.zeros(n - 1)]))
        weight = 0.5 if k % 5 == 0 else float(rng.uniform(1e-7, 1.0))  # ties at 0.5
        comps.append(phd.WeightedGaussian(weight, state))
    return phd.GaussianMixture(tuple(comps), frame)


def diffuse_mixture(frame, rng, K):
    """Clusters of tight components and of diffuse ones stretched along a
    shared axis (lambda_max 1e10-1e15, as on the phd-clutter workload): the
    diffuse balls hold every mean, most of them outside the candidates' own
    balls, and diffuse components along one axis still merge."""
    comps = []
    for c in range(K // 10):
        centre = rng.uniform(-50.0, 50.0, 3)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        for k in range(10):
            if k % 2:  # diffuse along the cluster's first axis
                eig = np.r_[10.0 ** rng.uniform(10.0, 15.0), rng.uniform(0.5, 10.0, 2)]
                offset = Q[:, 0] * rng.normal(scale=np.sqrt(eig[0])) + rng.normal(scale=0.3, size=3)
            else:
                eig = rng.uniform(0.05, 1.0, 3)
                offset = rng.normal(scale=rng.choice([0.3, 3.0]), size=3)
            state = so.GaussianState(mean=centre + offset, cov=(Q * eig) @ Q.T, frame=frame)
            weight = 0.5 if k == 4 else float(rng.uniform(1e-7, 1.0))
            comps.append(phd.WeightedGaussian(weight, state))
    return phd.GaussianMixture(tuple(comps), frame)


class TestPruneMergeOracle:
    def assert_matches_oracle(self, mix):
        for merge_distance, max_components in ((7.0, 200), (50.0, 200), (7.0, 10)):
            got = phd.prune_merge(mix, 1e-6, merge_distance, max_components)
            want = prune_merge_oracle(mix, 1e-6, merge_distance, max_components)
            assert_same_components(got.components, want)

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("K", [0, 1, 2, 17, 90])
    def test_matches_all_pairs_scan_bit_for_bit(self, n, K):
        frame = skewed_rig().frame_for(geo.LEFT)
        rng = np.random.default_rng(1000 * n + K)
        mix = random_mixture(frame, rng, n, K)
        self.assert_matches_oracle(mix)
        if K == 90:
            # the inputs exercise merging, singular spreads and the cap
            assert len(phd.prune_merge(mix, 1e-6, 7.0, 200)) < K
            assert any(c.state.cov[1, 1] == 0.0 for c in mix.components)
            assert len(phd.prune_merge(mix, 1e-6, 7.0, 10)) == 10

    def test_diffuse_spreads_match_all_pairs_scan_bit_for_bit(self):
        frame = skewed_rig().frame_for(geo.LEFT)
        mix = diffuse_mixture(frame, np.random.default_rng(29), 120)
        self.assert_matches_oracle(mix)
        means = np.array([c.state.mean for c in mix.components])
        lambda_max = np.linalg.eigvalsh(np.array([c.state.cov for c in mix.components]))[:, -1]
        assert lambda_max.max() > 1e14
        # most pairs in a head's ball lie outside the candidate's own ball
        dist_sq = ((means[:, None] - means[None]) ** 2).sum(axis=-1)
        in_head_ball = dist_sq <= 7.0 * lambda_max[:, None]
        in_own_ball = dist_sq <= 7.0 * lambda_max[None, :]
        assert (in_head_ball & ~in_own_ball).sum() > (in_head_ball & in_own_ball).sum()
        # the inputs merge, and diffuse components survive the merge
        merged = phd.prune_merge(mix, 1e-6, 7.0, 200)
        assert len(merged) < len(mix)
        assert max(np.linalg.eigvalsh(c.state.cov)[-1] for c in merged.components) > 1e10


class TestExtractTargets:
    def test_counts(self):
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        comps = [(1.0 + 0.01 * i, state_at(frame, [5.0 * i, 0.0, 150.0 + 10 * i])) for i in range(6)]
        comps.append((0.08, state_at(frame, [0.0, 20.0, 300.0])))
        mix = mixture_of(frame, *comps)
        targets, cardinality = phd.extract_targets(mix)
        assert len(targets) == 6
        assert cardinality == round(mix.total_weight)

    def test_empty(self):
        rig = skewed_rig()
        targets, cardinality = phd.extract_targets(phd.empty_mixture(rig.frame_for(geo.LEFT)))
        assert targets == [] and cardinality == 0

    def test_rounding(self):
        rig = skewed_rig()
        frame = rig.frame_for(geo.LEFT)
        comps = [(0.8, state_at(frame, [10.0 * i, 0.0, 150.0])) for i in range(7)]
        mix = mixture_of(frame, *comps)  # total 5.6
        _, cardinality = phd.extract_targets(mix)
        assert cardinality == 6


class TestPhdTrack:
    def synchronous_sets(self, rig, x, n_steps, rng, sigma=np.sqrt(2.0)):
        sets = []
        for t in range(n_steps):
            for side in (geo.LEFT, geo.RIGHT):
                z = geo.project(rig.camera(side), x) + rng.standard_normal(2) * sigma
                obs = so.Observation(z=tuple(z), R=2.0 * np.eye(2), camera=side, time=t)
                sets.append(phd.ObservationSet(time=t, camera=side, observations=(obs,)))
        return sets

    def test_single_object_degenerates_to_single_filter(self):
        rig = skewed_rig()
        x = np.array([0.0, 0.0, 150.0])
        rng = np.random.default_rng(3)
        sets = self.synchronous_sets(rig, x, 6, rng)
        params = phd.PhdParams(
            p_survival=1.0,
            p_detect=1.0,
            clutter_rate=0.0,
            disparity_prior=(-9.0, 5.4),
            birth_weight=0.0,
            n_move_particles=200,
            seed=11,
        )
        flat_obs = [s.observations[0] for s in sets]
        track = so.track_single(
            rig,
            flat_obs,
            so.TrackingParams(disparity_prior=(-9.0, 5.4), n_move_particles=200, seed=11),
        )
        init = so.initialise(flat_obs[0], (-9.0, 5.4), None, rig.frame_for(geo.LEFT))
        start = phd.GaussianMixture((phd.WeightedGaussian(1.0, init),), rig.frame_for(geo.LEFT))
        mixture = start
        estimates = []
        # drive the recursion manually from the initialised component
        for obs_set in sets[1:]:
            target = rig.frame_for(obs_set.camera)
            side = 0 if obs_set.camera == geo.LEFT else 1
            if target is not mixture.frame:
                mixture = phd.phd_predict(
                    mixture,
                    target,
                    1.0,
                    None,
                    n_particles=200,
                    seed_keys=(11, obs_set.time, SALT_PARTICLE, side),
                )
            cam = rig.camera(obs_set.camera)
            det = phd.DetectionModel(1.0, cam.width, cam.height)
            clutter = phd.ClutterModel(0.0, cam.width, cam.height)
            missed, detected = phd.split_detection(
                mixture, det, 256, seed_keys=(11, obs_set.time, SALT_SPLIT, side)
            )
            mixture = phd.phd_update_with_denominators(
                missed, detected, list(obs_set.observations), clutter
            )[0]
            mixture = phd.prune_merge(mixture, 1e-6, 7.0, 100)
            targets, _ = phd.extract_targets(mixture)
            estimates.append(geo.from_disparity(target, targets[0][0].mean[:3]))
        # after five full update cycles the PHD estimate tracks the
        # single-object filter to well within one percent
        np.testing.assert_allclose(estimates[-1], track.estimates[-1], rtol=1e-9)

    def test_clutter_only_rarely_extracts(self):
        rig = skewed_rig()
        rng = np.random.default_rng(12)
        sets = []
        for t in range(30):
            for side in (geo.LEFT, geo.RIGHT):
                n_clutter = rng.poisson(10)
                obs = tuple(
                    so.Observation(
                        z=(rng.uniform(0, 800), rng.uniform(0, 600)),
                        R=2.0 * np.eye(2),
                        camera=side,
                        time=t,
                    )
                    for _ in range(n_clutter)
                )
                sets.append(phd.ObservationSet(time=t, camera=side, observations=obs))
        params = phd.PhdParams(
            disparity_prior=(-9.0, 5.4), birth_weight=0.01, n_move_particles=100, seed=5
        )
        result = phd.phd_track(rig, sets, params)
        n_extracted = np.array([len(r.targets_world) for r in result.records])
        assert np.mean(n_extracted == 0) >= 0.95

    def test_sets_out_of_time_order_rejected(self):
        rig = skewed_rig()
        sets = self.synchronous_sets(rig, np.array([0.0, 0.0, 150.0]), 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="time-ordered"):
            phd.phd_track(rig, [sets[2], sets[1]], phd.PhdParams(n_move_particles=50))

"""The benchmark's tracer must keep seeing every PHD stage.

``bench/tracing.py`` wraps module functions by name and relies on every
caller looking them up on the module at call time. A refactor that renames a
traced function, or reaches a stage through a local alias, makes a traced
benchmark run silently miss that stage. This test loads the tracer
read-only and checks that it wraps every target and sees each GM-PHD stage
from both callers of ``phd.phd_step``: tracking and calibration.
"""

import importlib.util
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from disptrack import calibration as cal
from disptrack import geometry as geo
from disptrack import phd
from disptrack import single_object as so

PHD_STAGES = (
    "phd_predict",
    "split_detection",
    "phd_update_with_denominators",
    "birth_from_observations",
    "prune_merge",
)


def load_tracing():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def two_step_sets(rig, targets, rng):
    """Synchronous sets over two steps (left, right, left, right), with
    detections of every target and a little clutter."""
    sets = []
    for t in range(2):
        for side in (geo.LEFT, geo.RIGHT):
            cam = rig.camera(side)
            obs = [
                so.Observation(
                    z=tuple(geo.project(cam, np.asarray(x)) + rng.standard_normal(2)),
                    R=2.0 * np.eye(2),
                    camera=side,
                    time=t,
                )
                for x in targets
            ]
            obs.append(
                so.Observation(
                    z=(rng.uniform(0, cam.width), rng.uniform(0, cam.height)),
                    R=2.0 * np.eye(2),
                    camera=side,
                    time=t,
                )
            )
            sets.append(phd.ObservationSet(time=t, camera=side, observations=tuple(obs)))
    return sets


def test_tracer_sees_every_phd_stage_from_tracking_and_calibration():
    tracing = load_tracing()
    left = geo.build_camera(geo.CameraIntrinsics(-8.0, 8.9, 9.0, 400.0, 300.0), geo.CameraPose())
    prior = cal.CalibrationPrior(
        mean=geo.CameraPose(position=(38.64, 0.0, 10.35), yaw=-np.pi / 6, pitch=0.0, roll=0.0),
        position_sigma=(0.0, 0.0, 0.0),
        orientation_sigma=(0.0, 0.0, 0.0),
        count=2,
    )
    particles = cal.init_calibration(prior, left, left.intrinsics, 0)
    rig = particles[0].rig
    sets = two_step_sets(rig, [(-10.0, -8.0, 150.0), (20.0, 5.0, 200.0)], np.random.default_rng(1))
    params = cal.CalibrationParams(
        phd=phd.PhdParams(
            disparity_prior=(-7.0, 8.0), n_move_particles=32, n_split_particles=64, seed=2
        )
    )

    tracer = tracing.Tracer()
    with tracer:
        assert tracer.missing == []
        tracked = phd.phd_track(rig, sets[:2], params.phd)
        from_tracking = Counter(tracer.calls)
        # a mixture in the right camera's frame, stepped with a left set one
        # step later, takes every stage including the prediction
        particles = [replace(p, mixture=tracked.final_mixture) for p in particles]
        cal.joint_update(particles, sets[2], 1, params)
        from_calibration = tracer.calls - from_tracking
    tracing.assert_untraced()

    for stage in PHD_STAGES:
        assert from_tracking[f"phd.{stage}"] > 0, stage
        assert from_calibration[f"phd.{stage}"] == len(particles), stage
    assert from_calibration["calibration.joint_update"] == 1

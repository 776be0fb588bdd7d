import logging

import numpy as np
import pytest

from padvio.graph import PoseState
from padvio.imu import WorldParams, preintegrate
from padvio.sim import (
    CameraModel,
    NoiseSpec,
    Profile,
    TrajectorySpec,
    evaluate_profile,
    generate,
    intervals,
    perturb_initialization,
    triangle_landmarks,
)
from padvio.vision import DEPTH_EPSILON, landmark_in_body, project

PAD = triangle_landmarks(1.0)
CAM = CameraModel(1.0)


def _reference_spec(n=7):
    return TrajectorySpec(
        duration=0.4 * (n - 1),
        angular_profile=Profile("constant", {"value": [0.05, -0.04, 0.12]}),
        accel_profile=Profile("constant", {"value": [0.25, 0.15, -9.51]}),
    )


def test_profile_constant_and_sinusoid():
    np.testing.assert_array_equal(
        evaluate_profile(Profile("constant", {"value": [1, 2, 3]}), 7.0), [1.0, 2.0, 3.0]
    )
    p = Profile("sinusoid", {"base": 1.0, "amplitude": 2.0, "frequency": 0.25})
    np.testing.assert_allclose(evaluate_profile(p, 1.0), np.full(3, 3.0), atol=1e-12)
    with pytest.raises(ValueError, match="unknown profile"):
        evaluate_profile(Profile("spline"), 0.0)


def test_triangle_landmarks_side_length():
    for i in range(3):
        d = np.linalg.norm(PAD[i] - PAD[(i + 1) % 3])
        assert abs(d - 1.0) < 1e-12
    np.testing.assert_allclose(PAD.mean(axis=0), np.zeros(3), atol=1e-12)


def test_hover_is_stationary():
    # constant thrust exactly cancels gravity; zero rates keep attitude level
    spec = TrajectorySpec(
        duration=2.0,
        angular_profile=Profile("constant", {"value": [0.0, 0.0, 0.0]}),
        accel_profile=Profile("constant", {"value": [0.0, 0.0, -9.81]}),
    )
    dataset = generate(spec, PAD, CAM, WorldParams(), NoiseSpec(0.0, 0.0, 0))
    for pose in dataset.ground_truth.poses:
        np.testing.assert_allclose(pose.p, [0.0, 0.0, -4.0], atol=1e-12)
        np.testing.assert_allclose(pose.v, np.zeros(3), atol=1e-12)
        np.testing.assert_array_equal(pose.R, np.eye(3))
    first = dataset.imu_samples[0]
    for s in dataset.imu_samples:
        np.testing.assert_array_equal(s.omega, first.omega)
        np.testing.assert_array_equal(s.accel, first.accel)


def test_zero_noise_preintegration_reproduces_relative_states():
    dataset = generate(_reference_spec(), PAD, CAM, WorldParams(), NoiseSpec(0.0, 0.0, 1))
    g = dataset.world.gravity
    poses = dataset.ground_truth.poses
    for k, chunk in enumerate(intervals(dataset)):
        delta = preintegrate(chunk)
        pose_i, pose_j = poses[k], poses[k + 1]
        dt = delta.dt_total
        np.testing.assert_allclose(pose_i.R @ delta.dR, pose_j.R, atol=1e-12)
        np.testing.assert_allclose(pose_i.v + g * dt + pose_i.R @ delta.dv, pose_j.v, atol=1e-12)
        np.testing.assert_allclose(
            pose_i.p + pose_i.v * dt + 0.5 * g * dt * dt + pose_i.R @ delta.dp,
            pose_j.p,
            atol=1e-12,
        )


def test_reference_scenario_counts():
    dataset = generate(_reference_spec(), PAD, CAM, WorldParams(), NoiseSpec(seed=0))
    assert dataset.ground_truth.n == 7
    assert len(dataset.imu_samples) == 120  # 6 intervals of 20 samples
    assert len(dataset.pixel_measurements) == 21  # 42 scalar pixel values
    assert len(intervals(dataset)) == 6
    assert all(len(chunk) == 20 for chunk in intervals(dataset))


def test_minimal_window_counts():
    dataset = generate(_reference_spec(n=2), PAD, CAM, WorldParams(), NoiseSpec(seed=0))
    assert dataset.ground_truth.n == 2
    assert len(dataset.imu_samples) == 20
    assert len(intervals(dataset)) == 1


def test_generate_is_reproducible():
    a = generate(_reference_spec(), PAD, CAM, WorldParams(), NoiseSpec(seed=9))
    b = generate(_reference_spec(), PAD, CAM, WorldParams(), NoiseSpec(seed=9))
    for sa, sb in zip(a.imu_samples, b.imu_samples):
        np.testing.assert_array_equal(sa.omega, sb.omega)
        np.testing.assert_array_equal(sa.accel, sb.accel)
    for ma, mb in zip(a.pixel_measurements, b.pixel_measurements):
        np.testing.assert_array_equal(ma.uv, mb.uv)
    c = generate(_reference_spec(), PAD, CAM, WorldParams(), NoiseSpec(seed=10))
    assert any(
        not np.array_equal(ma.uv, mc.uv)
        for ma, mc in zip(a.pixel_measurements, c.pixel_measurements)
    )


def test_generate_rejects_offplane_landmarks():
    bad = PAD.copy()
    bad[0, 2] = 0.3
    with pytest.raises(ValueError, match="ground plane"):
        generate(_reference_spec(), bad, CAM, WorldParams(), NoiseSpec())


def test_generate_rejects_uneven_sampling():
    spec = _reference_spec()
    spec.camera_dt = 0.45
    with pytest.raises(ValueError, match="multiple"):
        generate(spec, PAD, CAM, WorldParams(), NoiseSpec())


def test_behind_camera_measurements_dropped(caplog):
    # aircraft starts below the ground plane, so markers sit behind the camera
    spec = _reference_spec(n=2)
    spec.initial_pose = PoseState(np.eye(3), np.zeros(3), np.array([0.0, 0.0, 1.0]))
    spec.angular_profile = Profile("constant", {"value": [0.0, 0.0, 0.0]})
    spec.accel_profile = Profile("constant", {"value": [0.0, 0.0, -9.81]})
    with caplog.at_level(logging.WARNING):
        dataset = generate(spec, PAD, CAM, WorldParams(), NoiseSpec(0.0, 0.0, 0))
    assert dataset.pixel_measurements == []
    assert any("behind camera" in rec.message for rec in caplog.records)


def test_visibility_matches_per_observation_loop(caplog):
    # the aircraft falls through the pad part way, so later keyframes lose markers
    spec = TrajectorySpec(
        duration=4.0,
        initial_pose=PoseState(np.eye(3), np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -2.0])),
        angular_profile=Profile("constant", {"value": [0.05, -0.1, 0.2]}),
    )
    cam = CameraModel(300.0, np.array([1.0, 2.0]))
    with caplog.at_level(logging.WARNING):
        dataset = generate(spec, PAD, cam, WorldParams(), NoiseSpec(0.0, 0.0, 0))
    # reference: one landmark_in_body and one project call per (keyframe, landmark)
    expected = []
    for frame, pose in enumerate(dataset.ground_truth.poses, start=1):
        for lm, landmark in enumerate(PAD, start=1):
            q = landmark_in_body(pose, landmark)
            if q[2] > DEPTH_EPSILON:
                expected.append((frame, lm, project(cam, q)))
    dropped = dataset.ground_truth.n * len(PAD) - len(expected)
    assert dropped > 0 and len(expected) > 0
    got = dataset.pixel_measurements
    assert [(m.frame_index, m.landmark_id) for m in got] == [e[:2] for e in expected]
    np.testing.assert_array_equal([m.uv for m in got], [e[2] for e in expected])
    assert sum("behind camera" in rec.message for rec in caplog.records) == dropped


def test_perturb_truth_returns_copy():
    dataset = generate(_reference_spec(), PAD, CAM, WorldParams(), NoiseSpec(seed=2))
    window = perturb_initialization(dataset, "truth")
    np.testing.assert_array_equal(window.landmarks, dataset.ground_truth.landmarks)
    window.landmarks[0, 0] += 1.0
    assert window.landmarks[0, 0] != dataset.ground_truth.landmarks[0, 0]


def test_perturb_cold_sets_reference_values():
    dataset = generate(_reference_spec(), PAD, CAM, WorldParams(), NoiseSpec(seed=2))
    window = perturb_initialization(dataset, "cold")
    for pose in window.poses:
        np.testing.assert_array_equal(pose.R, np.eye(3))
        np.testing.assert_array_equal(pose.v, np.zeros(3))
        np.testing.assert_array_equal(pose.p, [0.0, 0.0, -4.0])
    # landmark altitudes start exactly on the constraint
    assert np.all(window.landmarks[:, 2] == 0.0)


def test_perturb_cold_keeps_dataset_prior_keyframe():
    spec = _reference_spec()
    spec.initial_pose = PoseState(np.eye(3), np.array([0.3, -0.2, 0.1]), np.array([0.4, -0.1, -5.0]))
    dataset = generate(spec, PAD, CAM, WorldParams(), NoiseSpec(seed=2))
    window = perturb_initialization(dataset, "cold")
    prior = dataset.ground_truth.poses[0]
    np.testing.assert_array_equal(window.poses[0].R, prior.R)
    np.testing.assert_array_equal(window.poses[0].v, prior.v)
    np.testing.assert_array_equal(window.poses[0].p, prior.p)
    assert window.poses[0].p is not prior.p  # a copy, not the dataset's arrays
    for pose in window.poses[1:]:
        np.testing.assert_array_equal(pose.R, np.eye(3))
        np.testing.assert_array_equal(pose.v, np.zeros(3))
        np.testing.assert_array_equal(pose.p, [0.0, 0.0, -4.0])


def test_perturb_cold_triangulates_landmarks_from_first_frame():
    # with no pixel noise the first frame's true pose equals the cold pose,
    # so the ray/ground intersection recovers the landmarks exactly
    dataset = generate(_reference_spec(), PAD, CAM, WorldParams(), NoiseSpec(0.0, 0.0, 3))
    window = perturb_initialization(dataset, "cold")
    np.testing.assert_allclose(window.landmarks, PAD, atol=1e-9)


def test_perturb_rejects_unknown_preset():
    dataset = generate(_reference_spec(), PAD, CAM, WorldParams(), NoiseSpec(seed=2))
    with pytest.raises(ValueError, match="preset"):
        perturb_initialization(dataset, "warm")

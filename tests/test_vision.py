import numpy as np
import pytest

from padvio.checks import central_difference
from padvio.graph import PoseState, pose_boxplus
from padvio.manifold import exp_map, hat
from padvio.vision import (
    CameraModel,
    DegenerateDepthError,
    PixelMeasurement,
    landmark_in_body,
    photometric_jacobian,
    photometric_residual,
    project,
    projection_differential,
)

from conftest import random_rotation


def _pose(R=None, p=None, v=None):
    return PoseState(
        np.eye(3) if R is None else R,
        np.zeros(3) if v is None else v,
        np.zeros(3) if p is None else p,
    )


def test_landmark_in_body_identity_pose():
    np.testing.assert_array_equal(landmark_in_body(_pose(), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_landmark_in_body_rotated_pose():
    R = exp_map([0.0, 0.0, np.pi / 2.0])
    expected = R.T @ np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(landmark_in_body(_pose(R=R), [1.0, 0.0, 0.0]), expected, atol=1e-15)


def test_landmark_in_body_translation_invariance(rng):
    pose = _pose(R=random_rotation(rng), p=rng.normal(0, 1, 3))
    landmark = rng.normal(0, 1, 3)
    shift = rng.normal(0, 5, 3)
    shifted_pose = _pose(R=pose.R, p=pose.p + shift)
    np.testing.assert_allclose(
        landmark_in_body(pose, landmark),
        landmark_in_body(shifted_pose, landmark + shift),
        atol=1e-12,
    )


def test_project_optical_axis():
    np.testing.assert_array_equal(project(CameraModel(1.0), [0.0, 0.0, 1.0]), [0.0, 0.0])


def test_project_direct_substitution():
    np.testing.assert_array_equal(project(CameraModel(500.0), [1.0, 2.0, 2.0]), [250.0, 500.0])


def test_project_scale_invariance(rng):
    cam = CameraModel(320.0, np.array([10.0, -4.0]))
    for _ in range(20):
        pt = np.array([rng.normal(), rng.normal(), rng.uniform(0.5, 4.0)])
        lam = rng.uniform(0.1, 10.0)
        np.testing.assert_allclose(project(cam, lam * pt), project(cam, pt), atol=1e-9)


def test_project_principal_point_offset():
    np.testing.assert_array_equal(
        project(CameraModel(1.0, np.array([5.0, 7.0])), [0.0, 0.0, 1.0]), [5.0, 7.0]
    )


@pytest.mark.parametrize("z", [0.0, 1e-7, -1e-7])
def test_project_rejects_degenerate_depth(z):
    with pytest.raises(DegenerateDepthError):
        project(CameraModel(1.0), [0.1, 0.2, z])


def test_residual_zero_when_measurement_matches():
    cam = CameraModel(500.0)
    meas = PixelMeasurement(1, 1, project(cam, [1.0, 2.0, 2.0]))
    np.testing.assert_array_equal(
        photometric_residual(cam, _pose(), [1.0, 2.0, 2.0], meas), [0.0, 0.0]
    )


def test_residual_is_predicted_minus_measured():
    cam = CameraModel(500.0)
    meas = PixelMeasurement(1, 1, np.array([248.0, 503.0]))
    np.testing.assert_array_equal(
        photometric_residual(cam, _pose(), [1.0, 2.0, 2.0], meas), [2.0, -3.0]
    )


def test_jacobian_velocity_block_identically_zero(rng):
    for _ in range(20):
        pose = _pose(R=random_rotation(rng), p=rng.normal(0, 1, 3))
        q = np.array([rng.normal(), rng.normal(), rng.uniform(1.0, 5.0)])
        meas = PixelMeasurement(1, 1, np.zeros(2))
        _, J = photometric_jacobian(CameraModel(400.0), pose, pose.p + pose.R @ q, meas)
        np.testing.assert_array_equal(J[:, 3:6], np.zeros((2, 3)))


def test_inner_point_jacobian_blocks(rng):
    # d q / d landmark = R^T and d q / d position = -I, by finite differences
    pose = _pose(R=random_rotation(rng), p=rng.normal(0, 1, 3))
    landmark = rng.normal(0, 1, 3)

    def q_of_landmark(d):
        return landmark_in_body(pose, landmark + d)

    def q_of_position(d):
        return landmark_in_body(pose_boxplus(pose, np.concatenate([np.zeros(6), d])), landmark)

    np.testing.assert_allclose(central_difference(q_of_landmark, 3), pose.R.T, atol=1e-9)
    np.testing.assert_allclose(central_difference(q_of_position, 3), -np.eye(3), atol=1e-9)


def test_rotation_block_first_order_identity(rng):
    # d/d(dr) of Exp(-dr) R^T (p_l - p) at 0 is hat(R^T (p_l - p))
    pose = _pose(R=random_rotation(rng), p=rng.normal(0, 1, 3))
    landmark = rng.normal(0, 1, 3)
    q = landmark_in_body(pose, landmark)

    def q_of_rotation(d):
        return exp_map(-d) @ pose.R.T @ (landmark - pose.p)

    np.testing.assert_allclose(central_difference(q_of_rotation, 3), hat(q), atol=1e-9)


def test_chain_rule_factorization(rng):
    # full Jacobian equals the projection differential times the inner 3x12 Jacobian
    for _ in range(20):
        cam = CameraModel(rng.uniform(100, 700), rng.normal(0, 3, 2))
        pose = _pose(R=random_rotation(rng), p=rng.normal(0, 1, 3))
        q = np.array([rng.normal(), rng.normal(), rng.uniform(1.0, 5.0)])
        landmark = pose.p + pose.R @ q
        inner = np.zeros((3, 12))
        inner[:, 0:3] = hat(q)
        inner[:, 6:9] = -np.eye(3)
        inner[:, 9:12] = pose.R.T
        expected = projection_differential(cam, landmark_in_body(pose, landmark)) @ inner
        _, J = photometric_jacobian(cam, pose, landmark, PixelMeasurement(1, 1, np.zeros(2)))
        np.testing.assert_allclose(J, expected, atol=1e-12)


def test_jacobian_matches_finite_differences(rng):
    worst = 0.0
    for _ in range(100):
        cam = CameraModel(rng.uniform(100, 800), rng.normal(0, 5, 2))
        pose = _pose(R=random_rotation(rng, 0.8), p=rng.normal(0, 2, 3), v=rng.normal(0, 1, 3))
        q = np.array([rng.normal(), rng.normal(), rng.uniform(1.0, 5.0)])
        landmark = pose.p + pose.R @ q
        meas = PixelMeasurement(1, 1, rng.normal(0, 50, 2))

        def residual_at(d):
            return photometric_residual(cam, pose_boxplus(pose, d[:9]), landmark + d[9:], meas)

        numeric = central_difference(residual_at, 12)
        _, analytic = photometric_jacobian(cam, pose, landmark, meas)
        err = np.abs(analytic - numeric).max() / max(1.0, np.abs(numeric).max())
        worst = max(worst, err)
    assert worst < 1e-5


def _observation_stack(rng, K):
    cam = CameraModel(rng.uniform(100, 800), rng.normal(0, 5, 2))
    poses = [_pose(R=random_rotation(rng, 0.8), p=rng.normal(0, 2, 3), v=rng.normal(0, 1, 3)) for _ in range(K)]
    points = np.column_stack([rng.normal(size=(K, 2)), rng.uniform(1.0, 5.0, K)])
    landmarks = np.array([pose.p + pose.R @ q for pose, q in zip(poses, points)])
    uv = rng.normal(0, 50, (K, 2))
    stacked = PoseState(*(np.array([getattr(pose, f) for pose in poses]) for f in ("R", "v", "p")))
    return cam, poses, stacked, landmarks, uv


def test_stack_matches_per_element_calls(rng):
    cam, poses, stacked, landmarks, uv = _observation_stack(rng, 6)
    meas = PixelMeasurement(np.ones(6, dtype=int), np.arange(1, 7), uv)
    r = photometric_residual(cam, stacked, landmarks, meas)
    fused_r, J = photometric_jacobian(cam, stacked, landmarks, meas)
    assert r.shape == (6, 2) and J.shape == (6, 2, 12)
    # the fused call's residual is the residual-only call's, bit for bit
    np.testing.assert_array_equal(fused_r, r)
    single_meas = [PixelMeasurement(1, k + 1, uv[k]) for k in range(6)]
    singles = [
        photometric_residual(cam, pose, lm, m) for pose, lm, m in zip(poses, landmarks, single_meas)
    ]
    np.testing.assert_allclose(r, singles, rtol=1e-15, atol=1e-15)
    singles = [
        photometric_jacobian(cam, pose, lm, m)[1] for pose, lm, m in zip(poses, landmarks, single_meas)
    ]
    np.testing.assert_allclose(J, singles, rtol=1e-15, atol=1e-15)


def test_stack_depth_check_covers_whole_batch(rng):
    cam, poses, stacked, landmarks, uv = _observation_stack(rng, 5)
    # move the 4th and 5th points onto the camera planes of their poses: depth 0
    for k in (3, 4):
        landmarks[k] = poses[k].p + poses[k].R @ np.array([0.3, -0.2, 0.0])
    meas = PixelMeasurement(np.array([1, 1, 2, 2, 3]), np.array([1, 3, 2, 4, 1]), uv)
    for call in (photometric_residual, photometric_jacobian):
        with pytest.raises(DegenerateDepthError, match=r"\(frame 2, landmark 4\)") as info:
            call(cam, stacked, landmarks, meas)
        assert (info.value.frame_index, info.value.landmark_id) == (2, 4)
        assert abs(info.value.depth) <= 1e-12

import numpy as np
import pytest

from padvio.checks import central_difference
from padvio.graph import PoseState, pose_boxplus
from padvio.imu import (
    ImuSample,
    PreintegratedDelta,
    WorldParams,
    imu_residual,
    imu_residual_jacobian,
    integrate,
    preintegrate,
)
from padvio.manifold import SMALL_ANGLE, exp_map

from conftest import random_rotation


def test_integrate_stationary_sample():
    delta = integrate(PreintegratedDelta(), ImuSample(np.zeros(3), np.zeros(3), 0.02))
    np.testing.assert_array_equal(delta.dR, np.eye(3))
    np.testing.assert_array_equal(delta.dv, np.zeros(3))
    np.testing.assert_array_equal(delta.dp, np.zeros(3))
    assert delta.dt_total == 0.02
    assert delta.sample_count == 1


def test_integrate_single_accel_step():
    # one step: dp picks up the half accel term, dv the full one
    delta = integrate(PreintegratedDelta(), ImuSample(np.zeros(3), np.array([1.0, 0, 0]), 0.02))
    np.testing.assert_allclose(delta.dv, [0.02, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(delta.dp, [0.0002, 0.0, 0.0], atol=1e-15)


def test_integrate_twenty_samples_per_interval():
    samples = [ImuSample(np.zeros(3), np.zeros(3), 0.02) for _ in range(20)]
    delta = preintegrate(samples)
    assert delta.sample_count == 20
    assert abs(delta.dt_total - 0.4) < 1e-12


def test_integrate_rejects_bad_dt():
    with pytest.raises(ValueError, match="dt"):
        integrate(PreintegratedDelta(), ImuSample(np.zeros(3), np.zeros(3), 0.0))


def _forward_integrate(pose, samples, gravity):
    # independent restatement of the discrete motion model
    R, v, p = pose.R.copy(), pose.v.copy(), pose.p.copy()
    for s in samples:
        a_world = R @ s.accel
        p = p + v * s.dt + 0.5 * gravity * s.dt**2 + 0.5 * a_world * s.dt**2
        v = v + gravity * s.dt + a_world * s.dt
        R = R @ exp_map(s.omega * s.dt)
    return PoseState(R, v, p)


def test_residual_vanishes_on_forward_integrated_states(rng):
    world = WorldParams()
    for _ in range(10):
        pose_i = PoseState(random_rotation(rng, 0.8), rng.normal(0, 1, 3), rng.normal(0, 2, 3))
        samples = [
            ImuSample(rng.normal(0, 0.3, 3), rng.normal(0, 2, 3), 0.02) for _ in range(20)
        ]
        pose_j = _forward_integrate(pose_i, samples, world.gravity)
        delta = preintegrate(samples)
        residual = imu_residual(delta, pose_i, pose_j, world)
        assert np.linalg.norm(residual) < 1e-10


def test_residual_zero_for_identity_case():
    delta = PreintegratedDelta(dt_total=1.0)
    pose = PoseState(np.eye(3), np.zeros(3), np.zeros(3))
    world = WorldParams(np.zeros(3))
    np.testing.assert_array_equal(imu_residual(delta, pose, pose, world), np.zeros(9))


def test_residual_position_shift_passes_through():
    delta = PreintegratedDelta(dt_total=1.0)
    world = WorldParams(np.zeros(3))
    pose_i = PoseState(np.eye(3), np.zeros(3), np.zeros(3))
    pose_j = PoseState(np.eye(3), np.zeros(3), np.zeros(3))
    base = imu_residual(delta, pose_i, pose_j, world)
    shifted = PoseState(np.eye(3), np.zeros(3), np.array([0.1, 0.0, 0.0]))
    moved = imu_residual(delta, pose_i, shifted, world)
    np.testing.assert_allclose(moved[6:9] - base[6:9], [0.1, 0.0, 0.0], atol=1e-15)


def test_residual_requires_positive_dt():
    pose = PoseState(np.eye(3), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="dt_total"):
        imu_residual(PreintegratedDelta(), pose, pose, WorldParams())


def _random_instance(rng):
    delta = PreintegratedDelta(
        dR=random_rotation(rng, 0.6),
        dv=rng.normal(0, 1, 3),
        dp=rng.normal(0, 1, 3),
        dt_total=rng.uniform(0.1, 1.0),
        sample_count=1,
    )
    pose_i = PoseState(random_rotation(rng, 0.8), rng.normal(0, 1, 3), rng.normal(0, 2, 3))
    pose_j = PoseState(
        pose_i.R @ delta.dR @ random_rotation(rng, 0.3),
        rng.normal(0, 1, 3),
        rng.normal(0, 2, 3),
    )
    return delta, pose_i, pose_j


def test_jacobian_velocity_block_is_rotation_transpose(rng):
    world = WorldParams()
    for _ in range(10):
        delta, pose_i, pose_j = _random_instance(rng)
        _, J = imu_residual_jacobian(delta, pose_i, pose_j, world)
        np.testing.assert_array_equal(J[3:6, 12:15], pose_i.R.T)


def test_jacobian_zero_blocks(rng):
    world = WorldParams()
    delta, pose_i, pose_j = _random_instance(rng)
    _, J = imu_residual_jacobian(delta, pose_i, pose_j, world)
    # rotation residual never touches velocities or positions
    np.testing.assert_array_equal(J[0:3, 3:9], np.zeros((3, 6)))
    np.testing.assert_array_equal(J[0:3, 12:18], np.zeros((3, 6)))
    # velocity residual never touches positions or the second attitude
    np.testing.assert_array_equal(J[3:6, 6:12], np.zeros((3, 6)))
    np.testing.assert_array_equal(J[3:6, 15:18], np.zeros((3, 3)))


def test_jacobian_matches_finite_differences(rng):
    world = WorldParams()
    worst = 0.0
    for _ in range(100):
        delta, pose_i, pose_j = _random_instance(rng)

        def residual_at(d):
            return imu_residual(
                delta, pose_boxplus(pose_i, d[:9]), pose_boxplus(pose_j, d[9:]), world
            )

        numeric = central_difference(residual_at, 18)
        _, analytic = imu_residual_jacobian(delta, pose_i, pose_j, world)
        err = np.abs(analytic - numeric).max() / max(1.0, np.abs(numeric).max())
        worst = max(worst, err)
    assert worst < 1e-5


def test_delta_independent_of_states(rng):
    # same samples always give the same delta, whatever the poses are
    samples = [ImuSample(rng.normal(0, 0.2, 3), rng.normal(0, 1, 3), 0.02) for _ in range(5)]
    first = preintegrate(samples)
    second = preintegrate(samples)
    np.testing.assert_array_equal(first.dR, second.dR)
    np.testing.assert_array_equal(first.dv, second.dv)
    np.testing.assert_array_equal(first.dp, second.dp)


def _stack_fields(items, names):
    return {name: np.array([getattr(item, name) for item in items]) for name in names}


def test_stack_matches_per_element_calls(rng):
    world = WorldParams()
    instances = [_random_instance(rng) for _ in range(5)]
    # an exactly matched rotation (r_rot = 0) and one below SMALL_ANGLE
    for k, angle in ((1, 0.0), (3, 0.3 * SMALL_ANGLE)):
        delta, pose_i, _ = instances[k]
        R_j = pose_i.R @ delta.dR @ exp_map(angle * np.array([0.0, 0.6, 0.8]))
        instances[k] = (delta, pose_i, PoseState(R_j, rng.normal(0, 1, 3), rng.normal(0, 2, 3)))
    deltas, poses_i, poses_j = zip(*instances)
    delta = PreintegratedDelta(**_stack_fields(deltas, ("dR", "dv", "dp", "dt_total")))
    pose_i = PoseState(**_stack_fields(poses_i, ("R", "v", "p")))
    pose_j = PoseState(**_stack_fields(poses_j, ("R", "v", "p")))

    r = imu_residual(delta, pose_i, pose_j, world)
    fused_r, J = imu_residual_jacobian(delta, pose_i, pose_j, world)
    assert r.shape == (5, 9) and J.shape == (5, 9, 18)
    # the fused call's residual is the residual-only call's, bit for bit, the
    # zero-angle and below-SMALL_ANGLE elements included
    np.testing.assert_array_equal(fused_r, r)
    np.testing.assert_allclose(
        r, [imu_residual(*args, world) for args in instances], rtol=1e-15, atol=1e-15
    )
    np.testing.assert_allclose(
        J, [imu_residual_jacobian(*args, world)[1] for args in instances], rtol=1e-15, atol=1e-15
    )
    assert np.linalg.norm(r[3, 0:3]) < SMALL_ANGLE


def test_stack_requires_every_dt_positive(rng):
    instances = [_random_instance(rng) for _ in range(3)]
    deltas, poses_i, poses_j = zip(*instances)
    fields = _stack_fields(deltas, ("dR", "dv", "dp", "dt_total"))
    fields["dt_total"][2] = 0.0
    pose_i = PoseState(**_stack_fields(poses_i, ("R", "v", "p")))
    pose_j = PoseState(**_stack_fields(poses_j, ("R", "v", "p")))
    with pytest.raises(ValueError, match="dt_total"):
        imu_residual(PreintegratedDelta(**fields), pose_i, pose_j, WorldParams())

"""The per-iteration SO(3) and IMU kernels against the wrapper-based formulas
they replace, bit for bit.

The kernels call numpy ufuncs and array methods where these references call
the Python-level wrappers around them (`np.linalg.norm`, `np.clip`,
`np.trace`, `np.stack`, `np.eye`, `np.swapaxes`, `np.any`, `np.all`). Each
replacement is the wrapper's own formula, so every output must have the
reference's bits, signed zeros included. A rewrite that reorders a sum or
fuses a multiply-add (`einsum`, FMA) changes some last bits and fails here.
"""

import numpy as np
import pytest

from padvio.graph import PoseState
from padvio.imu import PreintegratedDelta, WorldParams, _inv_right_jacobian, imu_residual_jacobian
from padvio.manifold import PI_MARGIN, SMALL_ANGLE, exp_map, hat, log_map

# --- the wrapper-based formulas, as the kernels had them ---------------------


def reference_hat(v):
    v = np.asarray(v, dtype=float)
    S = np.zeros(v.shape[:-1] + (9,))
    S[..., np.array([7, 2, 3])] = v
    S[..., np.array([5, 6, 1])] = -v
    return S.reshape(v.shape[:-1] + (3, 3))


def reference_exp_map(phi):
    phi = np.asarray(phi, dtype=float)
    angle = np.linalg.norm(phi, axis=-1)
    small = angle < SMALL_ANGLE
    safe = np.where(small, 1.0, angle)
    a = np.where(small, 1.0 - angle * angle / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - angle * angle / 24.0, (1.0 - np.cos(safe)) / (safe * safe))
    S = reference_hat(phi)
    return np.eye(3) + a[..., None, None] * S + b[..., None, None] * (S @ S)


def reference_log_map(R):
    R = np.asarray(R, dtype=float)
    c = np.clip((np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    angle = np.arccos(c)
    near_pi = angle >= np.pi - PI_MARGIN
    if np.any(near_pi):
        first = float(angle[near_pi].flat[0])
        raise ValueError(f"log_map: rotation angle {first:.9f} rad is within {PI_MARGIN:g} of pi")
    u = 0.5 * np.stack(
        [R[..., 2, 1] - R[..., 1, 2], R[..., 0, 2] - R[..., 2, 0], R[..., 1, 0] - R[..., 0, 1]],
        axis=-1,
    )
    small = angle < SMALL_ANGLE
    safe = np.where(small, 1.0, angle)
    scale = np.where(small, 1.0 + angle * angle / 6.0, safe / np.sin(safe))
    return u * scale[..., None]


def reference_inv_right_jacobian(phi):
    angle = np.linalg.norm(phi, axis=-1)
    small = angle < SMALL_ANGLE
    safe = np.where(small, 1.0, angle)
    coef = np.where(
        small,
        1.0 / 12.0,
        1.0 / (safe * safe) - (1.0 + np.cos(safe)) / (2.0 * safe * np.sin(safe)),
    )
    S = reference_hat(phi)
    return np.eye(3) + 0.5 * S + coef[..., None, None] * (S @ S)


def reference_imu_residual_jacobian(delta, pose_i, pose_j, world):
    dt = np.asarray(delta.dt_total, dtype=float)
    if not np.all(dt > 0.0):
        raise ValueError("imu_residual: delta.dt_total must be positive")
    g = np.asarray(world.gravity, dtype=float)
    step = dt[..., None]
    Ri_T = np.swapaxes(pose_i.R, -1, -2)
    A = Ri_T @ pose_j.R
    r_rot = reference_log_map(np.swapaxes(delta.dR, -1, -2) @ A)
    vel = pose_j.v - pose_i.v - g * step
    pos = pose_j.p - pose_i.p - pose_i.v * step - 0.5 * g * step * step
    terms = Ri_T @ np.stack([vel, pos], axis=-1)
    vel_term, pos_term = terms[..., 0], terms[..., 1]
    residual = np.concatenate([r_rot, vel_term - delta.dv, pos_term - delta.dp], axis=-1)
    Jr_inv = reference_inv_right_jacobian(residual[..., 0:3])
    J = np.zeros(residual.shape[:-1] + (9, 18))
    J[..., 0:3, 0:3] = -Jr_inv @ np.swapaxes(A, -1, -2)
    J[..., 0:3, 9:12] = Jr_inv
    J[..., 3:6, 0:3] = reference_hat(vel_term)
    J[..., 3:6, 3:6] = -Ri_T
    J[..., 3:6, 12:15] = Ri_T
    J[..., 6:9, 0:3] = reference_hat(pos_term)
    J[..., 6:9, 3:6] = -Ri_T * dt[..., None, None]
    J[..., 6:9, 6:9] = -np.eye(3)
    J[..., 6:9, 15:18] = A
    return residual, J


# --- inputs and the comparison -----------------------------------------------


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def _tangents(rng):
    """(3, 8, 3) rotation vectors: generic ones, a zero vector of -0.0
    entries, a plain zero vector, one below SMALL_ANGLE, and vectors with
    -0.0 entries on both branches."""
    phi = rng.uniform(-2.0, 2.0, (24, 3))
    phi[0] = -0.0
    phi[1] = 0.0
    phi[2] = 0.4 * SMALL_ANGLE * np.array([0.6, -0.8, 0.0])
    phi[3] = [-0.0, 0.7, -0.0]
    phi[4] = [-0.0, 0.3 * SMALL_ANGLE, 0.0]
    phi[5] = [1e-3, -0.0, -2e-3]
    return phi.reshape(3, 8, 3)


def _rotations(rng):
    """(3, 8, 3, 3) attitudes: the exponentials of `_tangents`, with the
    identity's off-diagonal entries as -0.0 in one and a rounded, slightly
    non-orthonormal matrix in another."""
    R = reference_exp_map(_tangents(rng))
    R[0, 0] = np.eye(3)
    R[0, 0][~np.eye(3, dtype=bool)] = -0.0
    R[0, 6] = np.round(R[0, 6], 6)
    return R


@pytest.fixture
def phi(rng):
    return _tangents(rng)


def test_hat_keeps_every_bit(phi):
    assert_same_bits(hat(phi), reference_hat(phi))
    for v in phi[0]:
        assert_same_bits(hat(v), reference_hat(v))


def test_exp_map_keeps_every_bit(phi):
    assert_same_bits(exp_map(phi), reference_exp_map(phi))
    for v in phi[0]:
        assert_same_bits(exp_map(v), reference_exp_map(v))


def test_log_map_keeps_every_bit(rng):
    R = _rotations(rng)
    assert_same_bits(log_map(R), reference_log_map(R))
    for M in R[0]:
        assert_same_bits(log_map(M), reference_log_map(M))


def test_log_map_rejects_a_near_pi_rotation_with_the_same_error(rng):
    R = _rotations(rng)
    R[1, 3] = reference_exp_map([0.0, np.pi - 1e-7, 0.0])
    for stack in (R, R[1, 3]):
        with pytest.raises(ValueError) as expected:
            reference_log_map(stack)
        with pytest.raises(ValueError) as got:
            log_map(stack)
        assert str(got.value) == str(expected.value)


def test_inv_right_jacobian_keeps_every_bit(phi):
    assert_same_bits(_inv_right_jacobian(phi), reference_inv_right_jacobian(phi))
    for v in phi[0]:
        assert_same_bits(_inv_right_jacobian(v), reference_inv_right_jacobian(v))


def _factors(rng, lead):
    """Random IMU factors with leading axes `lead`; the first factor's two
    states match its delta exactly at zero motion, so its rotation residual
    is a zero vector and its entries hold -0.0."""
    R_i = reference_exp_map(rng.uniform(-1.0, 1.0, lead + (3,)))
    R_j = reference_exp_map(rng.uniform(-1.0, 1.0, lead + (3,)))
    dR = reference_exp_map(rng.uniform(-0.5, 0.5, lead + (3,)))
    v_i, v_j, p_i, p_j, dv, dp = (rng.standard_normal(lead + (3,)) for _ in range(6))
    dt = rng.uniform(0.05, 1.0, lead)
    first = (0,) * len(lead)
    R_i[first] = R_j[first] = dR[first] = np.eye(3)
    v_i[first] = v_j[first] = p_i[first] = p_j[first] = dv[first] = dp[first] = -0.0
    return PreintegratedDelta(dR, dv, dp, dt), PoseState(R_i, v_i, p_i), PoseState(R_j, v_j, p_j)


@pytest.mark.parametrize("lead", [(), (6,), (2, 5)])
def test_imu_residual_jacobian_keeps_every_bit(rng, lead):
    for world in (WorldParams(), WorldParams(np.zeros(3))):
        delta, pose_i, pose_j = _factors(rng, lead)
        residual, J = imu_residual_jacobian(delta, pose_i, pose_j, world)
        expected_residual, expected_J = reference_imu_residual_jacobian(delta, pose_i, pose_j, world)
        assert_same_bits(residual, expected_residual)
        assert_same_bits(J, expected_J)


@pytest.mark.parametrize("bad_dt", [0.0, -0.1, np.nan])
def test_imu_residual_jacobian_rejects_a_dt_total_that_is_not_positive(rng, bad_dt):
    delta, pose_i, pose_j = _factors(rng, (4,))
    delta.dt_total[2] = bad_dt
    with pytest.raises(ValueError, match="delta.dt_total must be positive"):
        reference_imu_residual_jacobian(delta, pose_i, pose_j, WorldParams())
    with pytest.raises(ValueError, match="delta.dt_total must be positive"):
        imu_residual_jacobian(delta, pose_i, pose_j, WorldParams())

"""IMU preintegration between camera keyframes and the 9-dof motion residual.

Raw gyro/accelerometer samples between two keyframes are folded into a single
relative-motion measurement (dR, dv, dp) that never depends on the absolute
states, so re-linearization during optimization costs nothing. The residual
compares that measurement against the gravity-corrected relative state:

    r_rot = Log(dR^T R_i^T R_j)
    r_vel = R_i^T (v_j - v_i - g dt)          - dv
    r_pos = R_i^T (p_j - p_i - v_i dt - g dt^2 / 2) - dp

No bias states and no covariance propagation; residual weights are handled
by the problem assembly.

Samples and deltas are stacked records. An `ImuSample` holds m readings
field by field, omega and accel (..., m, 3) and dt (..., m), whose leading
axes run over keyframe intervals; a `PreintegratedDelta` holds one delta
per leading index, so the n-1 deltas of a window are one record with dR
(n-1,3,3), dv and dp (n-1,3) and dt_total (n-1,). `integrate` absorbs the
samples: one `exp_map` call gives every step rotation, the running product
of dR is the one loop (over the m samples, batched across intervals), and
dv, dp and dt_total are in-order cumulative sums, so the result has the
bits of absorbing the samples one at a time. `preintegrate` folds the
samples from the fresh delta.

`imu_residual` returns the residuals alone, for finite-difference checks;
`imu_residual_jacobian` returns the (residual, Jacobian) pair from one
evaluation of the relative motion, for the Gauss-Newton assembly. Both
broadcast over leading axes: given K factors' fields stacked as dR (K,3,3),
dv and dp (K,3), dt_total (K,), pose R (K,3,3) and v, p (K,3), they give
(K, 9) residuals and (K, 9, 18) Jacobians. A single factor is the stack with
no leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .manifold import SMALL_ANGLE, exp_map, hat, log_map


@dataclass
class ImuSample:
    """Gyro + accelerometer readings, each held constant over its dt seconds:
    omega and accel (..., m, 3), dt (..., m), in sample order."""

    omega: np.ndarray  # rad/s, body frame
    accel: np.ndarray  # m/s^2 specific force, body frame
    dt: np.ndarray  # s


@dataclass
class PreintegratedDelta:
    """Accumulated relative motion between keyframes. Fresh value is (I, 0, 0, 0).

    The fields may carry leading axes, one index per keyframe interval."""

    dR: np.ndarray = field(default_factory=lambda: np.eye(3))
    dv: np.ndarray = field(default_factory=lambda: np.zeros(3))
    dp: np.ndarray = field(default_factory=lambda: np.zeros(3))
    dt_total: np.ndarray | float = 0.0


@dataclass
class WorldParams:
    """World-frame constants. Default frame has z down, so gravity is +9.81 on z."""

    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 9.81]))


def _running_sum(start, terms):
    """Partial sums over axis -2 of (..., k, d) terms, from start (..., d):
    k + 1 rows, each sum added in order from start, as a loop would."""
    start = np.broadcast_to(start, terms.shape[:-2] + terms.shape[-1:])
    return np.cumsum(np.concatenate([start[..., None, :], terms], axis=-2), axis=-2)


def integrate(delta: PreintegratedDelta, samples: ImuSample) -> PreintegratedDelta:
    """Absorb m stacked samples in order: omega and accel (..., m, 3), dt (..., m).

    Leading axes run over keyframe intervals and broadcast against the
    delta's. Sample k adds dv_k dt_k + R_k a_k dt_k^2 / 2 to dp, R_k a_k dt_k
    to dv and the factor Exp(w_k dt_k) to dR, where R_k and dv_k are the
    values before step k. Every sum runs in sample order, so each field has
    the bits of absorbing one sample at a time.
    """
    dt = np.asarray(samples.dt, dtype=float)
    valid = (dt > 0.0) & np.isfinite(dt)
    if not np.all(valid):
        raise ValueError(f"integrate: sample dt must be positive, got {dt[~valid].flat[0]}")
    omega = np.asarray(samples.omega, dtype=float)
    accel = np.asarray(samples.accel, dtype=float)
    if not (np.isfinite(omega).all() and np.isfinite(accel).all()):
        raise ValueError("integrate: sample entries must be finite")
    m = dt.shape[-1]
    step = dt[..., None]
    lead = np.broadcast_shapes(np.shape(delta.dR)[:-2], dt.shape[:-1])
    step_rotations = exp_map(omega * step)
    # running product dR_k, the attitude each sample's specific force is rotated by
    dR = np.array(np.broadcast_to(delta.dR, lead + (3, 3)))
    before = np.empty(lead + (m, 3, 3))
    for k in range(m):
        before[..., k, :, :] = dR
        dR = dR @ step_rotations[..., k, :, :]
    rotated_accel = (before @ accel[..., None])[..., 0]
    dv = _running_sum(delta.dv, rotated_accel * step)
    # dp's terms interleaved per sample: dv_k dt_k, then R_k a_k dt_k^2 / 2
    dp_terms = np.stack([dv[..., :-1, :] * step, 0.5 * rotated_accel * step * step], axis=-2)
    dp = _running_sum(delta.dp, dp_terms.reshape(lead + (2 * m, 3)))
    dt_total = _running_sum(np.asarray(delta.dt_total)[..., None], dt[..., None])
    return PreintegratedDelta(dR, dv[..., -1, :], dp[..., -1, :], dt_total[..., -1, 0])


def preintegrate(samples: ImuSample) -> PreintegratedDelta:
    """Fold stacked samples into deltas, one per leading index, from the fresh value."""
    return integrate(PreintegratedDelta(), samples)


def _relative_motion(delta: PreintegratedDelta, pose_i, pose_j, world: WorldParams):
    """The (..., 9) residual and the terms its Jacobian reuses, over leading axes:
    (residual, dt, R_i^T, R_i^T R_j, velocity term, position term)."""
    dt = np.asarray(delta.dt_total, dtype=float)
    if not np.all(dt > 0.0):
        raise ValueError("imu_residual: delta.dt_total must be positive")
    g = np.asarray(world.gravity, dtype=float)
    step = dt[..., None]
    Ri_T = np.swapaxes(pose_i.R, -1, -2)
    A = Ri_T @ pose_j.R
    r_rot = log_map(np.swapaxes(delta.dR, -1, -2) @ A)
    vel = pose_j.v - pose_i.v - g * step
    pos = pose_j.p - pose_i.p - pose_i.v * step - 0.5 * g * step * step
    terms = Ri_T @ np.stack([vel, pos], axis=-1)
    vel_term, pos_term = terms[..., 0], terms[..., 1]
    residual = np.concatenate([r_rot, vel_term - delta.dv, pos_term - delta.dp], axis=-1)
    return residual, dt, Ri_T, A, vel_term, pos_term


def imu_residual(delta: PreintegratedDelta, pose_i, pose_j, world: WorldParams) -> np.ndarray:
    """Stacked (..., 9) residuals [r_rot; r_vel; r_pos]; zero when the two
    states match the preintegrated measurement exactly."""
    return _relative_motion(delta, pose_i, pose_j, world)[0]


def _inv_right_jacobian(phi: np.ndarray) -> np.ndarray:
    """Inverse right Jacobians of SO(3), (..., 3) to (..., 3, 3):
    Log(Exp(phi) Exp(eps)) ~ phi + Jr_inv(phi) eps."""
    angle = np.linalg.norm(phi, axis=-1)
    small = angle < SMALL_ANGLE
    safe = np.where(small, 1.0, angle)
    coef = np.where(
        small,
        1.0 / 12.0,
        1.0 / (safe * safe) - (1.0 + np.cos(safe)) / (2.0 * safe * np.sin(safe)),
    )
    S = hat(phi)
    return np.eye(3) + 0.5 * S + coef[..., None, None] * (S @ S)


def imu_residual_jacobian(delta: PreintegratedDelta, pose_i, pose_j, world: WorldParams):
    """The (..., 9) residuals of imu_residual and their (..., 9, 18) Jacobians
    w.r.t. the boxplus increments of both poses, from one evaluation.

    Column blocks are [dR_i, dv_i, dp_i, dR_j, dv_j, dp_j], each 3 wide,
    matching the retraction R <- R Exp(dR), v <- v + dv, p <- p + R dp
    (pre-update R). Certified against central finite differences.
    """
    residual, dt, Ri_T, A, vel_term, pos_term = _relative_motion(delta, pose_i, pose_j, world)
    Jr_inv = _inv_right_jacobian(residual[..., 0:3])

    J = np.zeros(residual.shape[:-1] + (9, 18))
    J[..., 0:3, 0:3] = -Jr_inv @ np.swapaxes(A, -1, -2)
    J[..., 0:3, 9:12] = Jr_inv
    J[..., 3:6, 0:3] = hat(vel_term)
    J[..., 3:6, 3:6] = -Ri_T
    J[..., 3:6, 12:15] = Ri_T
    J[..., 6:9, 0:3] = hat(pos_term)
    J[..., 6:9, 3:6] = -Ri_T * dt[..., None, None]
    J[..., 6:9, 6:9] = -np.eye(3)
    J[..., 6:9, 15:18] = A
    return residual, J

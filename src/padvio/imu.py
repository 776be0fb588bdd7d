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

The residual and its Jacobian broadcast over leading axes: given K factors'
fields stacked as dR (K,3,3), dv and dp (K,3), dt_total (K,), pose R (K,3,3)
and v, p (K,3), they return (K, 9) residuals and (K, 9, 18) Jacobians.
A single factor is the stack with no leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .manifold import SMALL_ANGLE, exp_map, hat, log_map


@dataclass
class ImuSample:
    """One gyro + accelerometer reading held constant over dt seconds."""

    omega: np.ndarray  # rad/s, body frame
    accel: np.ndarray  # m/s^2 specific force, body frame
    dt: float


@dataclass
class PreintegratedDelta:
    """Accumulated relative motion between two keyframes. Fresh value is (I, 0, 0, 0, 0).

    The factor functions also take K deltas stacked field by field."""

    dR: np.ndarray = field(default_factory=lambda: np.eye(3))
    dv: np.ndarray = field(default_factory=lambda: np.zeros(3))
    dp: np.ndarray = field(default_factory=lambda: np.zeros(3))
    dt_total: float = 0.0
    sample_count: int = 0


@dataclass
class WorldParams:
    """World-frame constants. Default frame has z down, so gravity is +9.81 on z."""

    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 9.81]))


def integrate(delta: PreintegratedDelta, sample: ImuSample) -> PreintegratedDelta:
    """Absorb one sample. Position updates before velocity before rotation,
    using the pre-step dR and dv, so the sums over samples k run exclusive of
    the step being applied."""
    dt = float(sample.dt)
    if not (dt > 0.0) or not np.isfinite(dt):
        raise ValueError(f"integrate: sample dt must be positive, got {sample.dt}")
    omega = np.asarray(sample.omega, dtype=float)
    accel = np.asarray(sample.accel, dtype=float)
    if not (np.isfinite(omega).all() and np.isfinite(accel).all()):
        raise ValueError("integrate: sample entries must be finite")
    rotated_accel = delta.dR @ accel
    dp = delta.dp + delta.dv * dt + 0.5 * rotated_accel * dt * dt
    dv = delta.dv + rotated_accel * dt
    dR = delta.dR @ exp_map(omega * dt)
    return PreintegratedDelta(dR, dv, dp, delta.dt_total + dt, delta.sample_count + 1)


def preintegrate(samples: Iterable[ImuSample]) -> PreintegratedDelta:
    """Fold a sample sequence into one delta, starting from the fresh value."""
    delta = PreintegratedDelta()
    for sample in samples:
        delta = integrate(delta, sample)
    return delta


def _relative_motion(delta: PreintegratedDelta, pose_i, pose_j, world: WorldParams):
    """Terms shared by the residual and its Jacobian, over leading axes:
    (dt, R_i^T, R_i^T R_j, r_rot, velocity term, position term)."""
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
    return dt, Ri_T, A, r_rot, terms[..., 0], terms[..., 1]


def imu_residual(delta: PreintegratedDelta, pose_i, pose_j, world: WorldParams) -> np.ndarray:
    """Stacked (..., 9) residuals [r_rot; r_vel; r_pos]; zero when the two
    states match the preintegrated measurement exactly."""
    _, _, _, r_rot, vel_term, pos_term = _relative_motion(delta, pose_i, pose_j, world)
    return np.concatenate([r_rot, vel_term - delta.dv, pos_term - delta.dp], axis=-1)


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


def imu_residual_jacobian(
    delta: PreintegratedDelta, pose_i, pose_j, world: WorldParams
) -> np.ndarray:
    """(..., 9, 18) Jacobians of imu_residual w.r.t. the boxplus increments of both poses.

    Column blocks are [dR_i, dv_i, dp_i, dR_j, dv_j, dp_j], each 3 wide,
    matching the retraction R <- R Exp(dR), v <- v + dv, p <- p + R dp
    (pre-update R). Certified against central finite differences.
    """
    dt, Ri_T, A, r_rot, vel_term, pos_term = _relative_motion(delta, pose_i, pose_j, world)
    Jr_inv = _inv_right_jacobian(r_rot)

    J = np.zeros(r_rot.shape[:-1] + (9, 18))
    J[..., 0:3, 0:3] = -Jr_inv @ np.swapaxes(A, -1, -2)
    J[..., 0:3, 9:12] = Jr_inv
    J[..., 3:6, 0:3] = hat(vel_term)
    J[..., 3:6, 3:6] = -Ri_T
    J[..., 3:6, 12:15] = Ri_T
    J[..., 6:9, 0:3] = hat(pos_term)
    J[..., 6:9, 3:6] = -Ri_T * dt[..., None, None]
    J[..., 6:9, 6:9] = -np.eye(3)
    J[..., 6:9, 15:18] = A
    return J

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
(n-1,3,3), dv and dp (n-1,3) and dt_total (n-1,). `propagate` steps
the discrete motion model (its docstring states it) and holds the one loop
over IMU steps; the simulator calls it with world gravity, and `integrate`
with zero gravity from a delta, keeping the last state. `preintegrate`
folds the samples from the fresh delta.

`imu_residual` returns the residuals alone, for finite-difference checks;
`imu_residual_jacobian` returns the (residual, Jacobian) pair from one
evaluation of the relative motion, for the Gauss-Newton assembly. Both
broadcast over leading axes: given K factors' fields stacked as dR (K,3,3),
dv and dp (K,3), dt_total (K,), pose R (K,3,3) and v, p (K,3), they give
(K, 9) residuals and (K, 9, 18) Jacobians. A single factor is the stack with
no leading axes. The residual and Jacobian kernels run on every Gauss-Newton
iteration, so they call only numpy ufuncs and array methods, not the
Python-level wrappers around them; each replacement is the wrapper's own
formula, so every result keeps its bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .manifold import SMALL_ANGLE, exp_map, hat, log_map

_EYE = np.eye(3)
_NEG_EYE = -_EYE
_EYE.flags.writeable = _NEG_EYE.flags.writeable = False


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
    """In-order sums over axis -2: from start (..., d), each of m steps adds
    the (..., m, d) terms in list order; the last term has every leading
    axis. Returns the sums before and after each step, (..., m + 1, d)."""
    *lead, m, d = terms[-1].shape
    stride = len(terms)
    sums = np.empty((*lead, stride * m + 1, d))
    sums[..., 0, :] = start
    for j, term in enumerate(terms, 1):
        sums[..., j::stride, :] = term
    return np.cumsum(sums, axis=-2, out=sums)[..., ::stride, :]


def propagate(R, v, p, omega, accel, dt, gravity):
    """Every state of the discrete motion model over m stacked readings:

        p <- p + v dt + g dt^2 / 2 + R a dt^2 / 2
        v <- v + g dt + R a dt
        R <- R Exp(w dt)

    From R (..., 3, 3) and v, p (..., 3), with arrays w = omega and a =
    accel (..., m, 3), dt (..., m) and the gravity 3-vector g, it returns
    R (..., m+1, 3, 3) and v, p (..., m+1, 3), the first state included;
    R, omega and dt set the leading axes, and v, p and accel broadcast.
    The attitude product is the one loop over steps; v and p are in-order
    sums, so each state has the bits of stepping once at a time. A zero g
    would add exact zeros, so its terms are left out.

    One flight (no leading axes) steps each attitude with `ndarray.dot`, a
    batch (flights, or keyframe intervals) with one `np.matmul` over the
    stack. For a contiguous 3x3 pair both call the same BLAS `dgemm`, so a
    flight has the same bits alone as in a batch; `ndarray.dot` skips the
    ufunc and `__array_function__` dispatch, which costs more than the 3x3
    product itself once per IMU sample.
    """
    step = dt[..., None]
    rotations = exp_map(omega * step)
    lead = np.broadcast_shapes(np.shape(R)[:-2], rotations.shape[:-3])
    # the attitudes step-major, so that each step's product is written into one block
    Rs = np.empty((dt.shape[-1] + 1, *lead, 3, 3))
    Rs[0] = R
    blocks = list(Rs)
    product = np.matmul if lead else np.ndarray.dot
    for before, rotation, after in zip(blocks, np.moveaxis(rotations, -3, 0), blocks[1:]):
        product(before, rotation, out=after)
    Rs = np.moveaxis(Rs, 0, -3)
    world_accel = (Rs[..., :-1, :, :] @ accel[..., None])[..., 0]
    # per step, v adds g dt then R a dt, and p adds v dt, g dt^2 / 2 then R a dt^2 / 2
    gs = [gravity] if np.any(gravity) else []
    v = _running_sum(v, [g * step for g in gs] + [world_accel * step])
    p_terms = [0.5 * g * step * step for g in gs] + [0.5 * world_accel * step * step]
    return Rs, v, _running_sum(p, [v[..., :-1, :] * step] + p_terms)


def integrate(delta: PreintegratedDelta, samples: ImuSample) -> PreintegratedDelta:
    """Absorb m stacked samples in order: omega and accel (..., m, 3), dt (..., m).

    Leading axes run over keyframe intervals and broadcast against the
    delta's. dR, dv and dp are the last state of `propagate` from the
    delta with zero gravity, and dt_total is an in-order sum, so each field
    has the bits of absorbing one sample at a time.
    """
    dt = np.asarray(samples.dt, dtype=float)
    valid = (dt > 0.0) & np.isfinite(dt)
    if not np.all(valid):
        raise ValueError(f"integrate: sample dt must be positive, got {dt[~valid].flat[0]}")
    omega = np.asarray(samples.omega, dtype=float)
    accel = np.asarray(samples.accel, dtype=float)
    if not (np.isfinite(omega).all() and np.isfinite(accel).all()):
        raise ValueError("integrate: sample entries must be finite")
    dR, dv, dp = propagate(delta.dR, delta.dv, delta.dp, omega, accel, dt, np.zeros(3))
    dt_total = _running_sum(np.asarray(delta.dt_total)[..., None], [dt[..., None]])
    return PreintegratedDelta(dR[..., -1, :, :], dv[..., -1, :], dp[..., -1, :], dt_total[..., -1, 0])


def preintegrate(samples: ImuSample) -> PreintegratedDelta:
    """Fold stacked samples into deltas, one per leading index, from the fresh value."""
    return integrate(PreintegratedDelta(), samples)


def _relative_motion(delta: PreintegratedDelta, pose_i, pose_j, world: WorldParams):
    """The (..., 9) residual and the terms its Jacobian reuses, over leading axes:
    (residual, dt, R_i^T, R_i^T R_j, [velocity term, position term] as the
    columns of one (..., 3, 2) array)."""
    dt = np.asarray(delta.dt_total, dtype=float)
    if not (dt > 0.0).all():
        raise ValueError("imu_residual: delta.dt_total must be positive")
    g = np.asarray(world.gravity, dtype=float)
    step = dt[..., None]
    Ri_T = pose_i.R.swapaxes(-1, -2)
    A = Ri_T @ pose_j.R
    r_rot = log_map(delta.dR.swapaxes(-1, -2) @ A)
    vel = pose_j.v - pose_i.v - g * step
    # the columns [vel, pos], as np.stack([vel, pos], axis=-1) gives them
    columns = np.empty(vel.shape + (2,))
    columns[..., 0] = vel
    columns[..., 1] = pose_j.p - pose_i.p - pose_i.v * step - 0.5 * g * step * step
    terms = Ri_T @ columns
    residual = np.concatenate([r_rot, terms[..., 0] - delta.dv, terms[..., 1] - delta.dp], axis=-1)
    return residual, dt, Ri_T, A, terms


def imu_residual(delta: PreintegratedDelta, pose_i, pose_j, world: WorldParams) -> np.ndarray:
    """Stacked (..., 9) residuals [r_rot; r_vel; r_pos]; zero when the two
    states match the preintegrated measurement exactly."""
    return _relative_motion(delta, pose_i, pose_j, world)[0]


def _inv_right_jacobian(phi: np.ndarray) -> np.ndarray:
    """Inverse right Jacobians of SO(3), (..., 3) to (..., 3, 3):
    Log(Exp(phi) Exp(eps)) ~ phi + Jr_inv(phi) eps."""
    angle = np.sqrt(np.add.reduce(phi * phi, axis=-1))  # np.linalg.norm(phi, axis=-1)
    small = angle < SMALL_ANGLE
    safe = np.where(small, 1.0, angle)
    coef = np.where(
        small,
        1.0 / 12.0,
        1.0 / (safe * safe) - (1.0 + np.cos(safe)) / (2.0 * safe * np.sin(safe)),
    )
    S = hat(phi)
    return _EYE + 0.5 * S + coef[..., None, None] * (S @ S)


def imu_residual_jacobian(delta: PreintegratedDelta, pose_i, pose_j, world: WorldParams):
    """The (..., 9) residuals of imu_residual and their (..., 9, 18) Jacobians
    w.r.t. the boxplus increments of both poses, from one evaluation.

    Column blocks are [dR_i, dv_i, dp_i, dR_j, dv_j, dp_j], each 3 wide,
    matching the retraction R <- R Exp(dR), v <- v + dv, p <- p + R dp
    (pre-update R). Certified against central finite differences.
    """
    residual, dt, Ri_T, A, terms = _relative_motion(delta, pose_i, pose_j, world)
    Jr_inv = _inv_right_jacobian(residual[..., 0:3])

    lead = residual.shape[:-1]
    J = np.zeros(lead + (9, 18))
    J[..., 0:3, 0:3] = -Jr_inv @ A.swapaxes(-1, -2)
    J[..., 0:3, 9:12] = Jr_inv
    # hat of the velocity term over hat of the position term, from one call
    J[..., 3:9, 0:3] = hat(terms.swapaxes(-1, -2)).reshape(lead + (6, 3))
    J[..., 3:6, 3:6] = -Ri_T
    J[..., 3:6, 12:15] = Ri_T
    J[..., 6:9, 3:6] = -Ri_T * dt[..., None, None]
    J[..., 6:9, 6:9] = _NEG_EYE
    J[..., 6:9, 15:18] = A
    return residual, J

"""Optimization window, boxplus retraction, and stacked residual/Jacobian assembly.

State ordering conventions (fixed so outputs are bit-reproducible):

* increment vector: [dR, dv, dp] (3 each) for poses 2..n, then [dp_l] per
  landmark; pose 1 is the prior and has no columns,
* residual vector: the n-1 IMU residuals (9 rows each) in keyframe order,
  then photometric residuals (2 rows each) sorted by frame then landmark,
* weights: 1 on IMU rows, photometric_weight (default 1000) on pixel rows.

With every landmark visible in every frame the stacked system therefore has
(n-1)*9 + n*N*2 rows and (n-1)*9 + N*3 columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .imu import PreintegratedDelta, WorldParams, imu_residual, imu_residual_jacobian
from .manifold import exp_map
from .vision import (
    CameraModel,
    DegenerateDepthError,
    PixelMeasurement,
    photometric_jacobian,
    photometric_residual,
)


@dataclass
class PoseState:
    """One keyframe state: attitude (body to world), velocity and position in world frame."""

    R: np.ndarray
    v: np.ndarray
    p: np.ndarray

    def copy(self) -> "PoseState":
        return PoseState(self.R.copy(), self.v.copy(), self.p.copy())


@dataclass
class WindowState:
    """n keyframe poses plus N landmark positions; pose 1 is the fixed prior."""

    poses: List[PoseState]
    landmarks: np.ndarray  # (N, 3) world positions

    def __post_init__(self):
        self.landmarks = np.atleast_2d(np.asarray(self.landmarks, dtype=float))
        if len(self.poses) < 2:
            raise ValueError("WindowState needs at least 2 poses")
        if self.landmarks.shape[0] < 1 or self.landmarks.shape[1] != 3:
            raise ValueError("WindowState needs at least one (3,) landmark")

    @property
    def n(self) -> int:
        return len(self.poses)

    @property
    def num_landmarks(self) -> int:
        return self.landmarks.shape[0]

    @property
    def dim(self) -> int:
        """Length of the boxplus increment: 9 per updatable pose plus 3 per landmark."""
        return 9 * (self.n - 1) + 3 * self.num_landmarks

    def copy(self) -> "WindowState":
        return WindowState([pose.copy() for pose in self.poses], self.landmarks.copy())


@dataclass
class Problem:
    """A window plus its measurements: one preintegrated delta per keyframe
    interval and a sparse list of pixel detections."""

    window: WindowState
    deltas: List[PreintegratedDelta]
    measurements: List[PixelMeasurement]
    cam: CameraModel
    world: WorldParams
    photometric_weight: float = 1000.0


def pose_boxplus(pose: PoseState, delta: np.ndarray) -> PoseState:
    """Retract a 9-vector [dR, dv, dp] onto one pose. The position increment
    is expressed in the body frame of the pre-update attitude."""
    delta = np.asarray(delta, dtype=float)
    return PoseState(
        R=pose.R @ exp_map(delta[0:3]),
        v=pose.v + delta[3:6],
        p=pose.p + pose.R @ delta[6:9],
    )


def boxplus(window: WindowState, delta: np.ndarray) -> WindowState:
    """Retract a full increment vector onto the window. Pose 1 is untouched."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (window.dim,):
        raise ValueError(f"boxplus: increment has length {delta.size}, expected {window.dim}")
    poses = [window.poses[0]]
    for t in range(1, window.n):
        off = 9 * (t - 1)
        poses.append(pose_boxplus(window.poses[t], delta[off : off + 9]))
    landmarks = window.landmarks + delta[9 * (window.n - 1) :].reshape(-1, 3)
    return WindowState(poses, landmarks)


def _check_problem(problem: Problem) -> None:
    n = problem.window.n
    N = problem.window.num_landmarks
    if len(problem.deltas) != n - 1:
        raise ValueError(f"problem has {len(problem.deltas)} deltas, expected {n - 1}")
    for m in problem.measurements:
        if not (1 <= m.frame_index <= n and 1 <= m.landmark_id <= N):
            raise ValueError(
                f"measurement (frame {m.frame_index}, landmark {m.landmark_id}) "
                f"out of range for n={n}, N={N}"
            )


def _ordered_measurements(problem: Problem) -> List[PixelMeasurement]:
    return sorted(problem.measurements, key=lambda m: (m.frame_index, m.landmark_id))


def stacked_residual(problem: Problem) -> np.ndarray:
    """Residual vector only (no Jacobian); used by finite-difference checks."""
    _check_problem(problem)
    window = problem.window
    parts = []
    for k, delta in enumerate(problem.deltas):
        parts.append(imu_residual(delta, window.poses[k], window.poses[k + 1], problem.world))
    for m in _ordered_measurements(problem):
        pose = window.poses[m.frame_index - 1]
        landmark = window.landmarks[m.landmark_id - 1]
        try:
            parts.append(photometric_residual(problem.cam, pose, landmark, m))
        except DegenerateDepthError as err:
            raise DegenerateDepthError(err.depth, m.frame_index, m.landmark_id) from None
    return np.concatenate(parts)


def weights_vector(problem: Problem) -> np.ndarray:
    """Diagonal of the weight matrix W in residual row order."""
    n = problem.window.n
    return np.concatenate(
        [
            np.ones(9 * (n - 1)),
            np.full(2 * len(problem.measurements), float(problem.photometric_weight)),
        ]
    )


def assemble(problem: Problem):
    """Stacked residual, dense Jacobian in boxplus column order, and weight diagonal."""
    _check_problem(problem)
    window = problem.window
    n = window.n
    measurements = _ordered_measurements(problem)
    rows = 9 * (n - 1) + 2 * len(measurements)
    dim = window.dim
    residual = np.zeros(rows)
    jacobian = np.zeros((rows, dim))

    for k, delta in enumerate(problem.deltas):
        pose_i, pose_j = window.poses[k], window.poses[k + 1]
        r = imu_residual(delta, pose_i, pose_j, problem.world)
        J = imu_residual_jacobian(delta, pose_i, pose_j, problem.world)
        row = 9 * k
        residual[row : row + 9] = r
        if k >= 1:  # pose i columns exist only when i is not the prior
            col_i = 9 * (k - 1)
            jacobian[row : row + 9, col_i : col_i + 9] = J[:, 0:9]
        col_j = 9 * k
        jacobian[row : row + 9, col_j : col_j + 9] = J[:, 9:18]

    base = 9 * (n - 1)  # photometric rows and landmark columns both start here
    for idx, m in enumerate(measurements):
        pose = window.poses[m.frame_index - 1]
        landmark = window.landmarks[m.landmark_id - 1]
        try:
            r = photometric_residual(problem.cam, pose, landmark, m)
            J = photometric_jacobian(problem.cam, pose, landmark)
        except DegenerateDepthError as err:
            raise DegenerateDepthError(err.depth, m.frame_index, m.landmark_id) from None
        row = base + 2 * idx
        residual[row : row + 2] = r
        if m.frame_index >= 2:
            col = 9 * (m.frame_index - 2)
            jacobian[row : row + 2, col : col + 9] = J[:, 0:9]
        col_l = base + 3 * (m.landmark_id - 1)
        jacobian[row : row + 2, col_l : col_l + 3] = J[:, 9:12]

    return residual, jacobian, weights_vector(problem)


def cost(problem: Problem) -> float:
    """Weighted squared residual e^T W e."""
    r = stacked_residual(problem)
    return float(r @ (weights_vector(problem) * r))


def altitude_constraint(problem: Problem):
    """The landmark altitudes as fixed increment entries.

    Returns (fixed, c): fixed[i] = 9(n-1) + 3i + 2 indexes landmark i's z
    increment, c_i is its current altitude, so a step with delta[fixed] = -c
    lands every landmark on z = 0.
    """
    window = problem.window
    fixed = 9 * (window.n - 1) + 3 * np.arange(window.num_landmarks) + 2
    return fixed, window.landmarks[:, 2].copy()


def min_landmarks(n: int) -> int:
    """Smallest landmark count N with N (2n - 3) > 9.

    This is the paper's row count, which treats all n keyframes as unknowns,
    the prior included: 9(n-1) + 2nN rows against 9n + 3N columns, with
    strictly more rows than columns. `assemble` gives pose 1 no columns (see
    the module docstring), so its system has N (2n - 3) more rows than
    columns whatever N is; at n = 6, N = 1 that surplus is exactly the
    prior's 9 degrees of freedom and the paper's count is square."""
    if 2 * n - 3 <= 0:
        raise ValueError(f"window length {n} is too short (need 2n - 3 > 0)")
    return 9 // (2 * n - 3) + 1

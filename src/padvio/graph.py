"""Optimization window, boxplus retraction, and stacked residual/Jacobian assembly.

State ordering conventions (fixed so outputs are bit-reproducible):

* increment vector: [dR, dv, dp] (3 each) for poses 2..n, then [dp_l] per
  landmark; pose 1 is the prior and has no columns,
* residual vector: the n-1 IMU residuals (9 rows each) in keyframe order,
  then photometric residuals (2 rows each) sorted by frame then landmark,
* weights: 1 on IMU rows, photometric_weight (default 1000) on pixel rows.

With every landmark visible in every frame the stacked system therefore has
(n-1)*9 + n*N*2 rows and (n-1)*9 + N*3 columns.

`stacked_residual` and `assemble` gather the factor inputs once into stacks
(poses R (n,3,3), v and p (n,3); deltas dR (n-1,3,3), dv and dp (n-1,3),
dt_total (n-1,); K sorted measurements as (K,) frame and landmark index
arrays with (K,2) uv values) and make one call per factor type:
`stacked_residual` calls the residual-only functions, and `assemble` the
Jacobian calls, each of which returns the residuals with their Jacobians
from one evaluation: (n-1,9) IMU residuals with (n-1,9,18) Jacobians and
(K,2) pixel residuals with (K,2,12) Jacobians. A degenerate depth is raised
by the pixel factor, naming the first such measurement in sorted order.
`assemble` returns the blocks with their column indices as a
`BlockJacobian`; the dense (rows x dim) Jacobian is built only by its
`toarray()`, for finite-difference certification and tests.
`pose_boxplus` broadcasts too, so `boxplus` retracts poses 2..n in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, NamedTuple, Tuple

import numpy as np

from .imu import PreintegratedDelta, WorldParams, imu_residual, imu_residual_jacobian
from .manifold import exp_map
from .vision import CameraModel, PixelMeasurement, photometric_jacobian, photometric_residual


@dataclass
class PoseState:
    """One keyframe state: attitude (body to world), velocity and position in world frame.

    Factor functions also take a stack of poses: R (K,3,3), v and p (K,3)."""

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
    """Retract (..., 9) increments [dR, dv, dp] onto poses with matching
    leading axes. The position increment is expressed in the body frame of
    the pre-update attitude."""
    delta = np.asarray(delta, dtype=float)
    return PoseState(
        R=pose.R @ exp_map(delta[..., 0:3]),
        v=pose.v + delta[..., 3:6],
        p=pose.p + (pose.R @ delta[..., 6:9, None])[..., 0],
    )


def _stack(poses: List[PoseState]) -> PoseState:
    """One PoseState whose fields carry a leading axis over `poses`."""
    return PoseState(
        R=np.array([pose.R for pose in poses], dtype=float),
        v=np.array([pose.v for pose in poses], dtype=float),
        p=np.array([pose.p for pose in poses], dtype=float),
    )


def _take(poses: PoseState, index) -> PoseState:
    return PoseState(poses.R[index], poses.v[index], poses.p[index])


def boxplus(window: WindowState, delta: np.ndarray) -> WindowState:
    """Retract a full increment vector onto the window. Pose 1 is untouched."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (window.dim,):
        raise ValueError(f"boxplus: increment has length {delta.size}, expected {window.dim}")
    n = window.n
    moved = pose_boxplus(_stack(window.poses[1:]), delta[: 9 * (n - 1)].reshape(n - 1, 9))
    poses = [window.poses[0]] + [_take(moved, t) for t in range(n - 1)]
    landmarks = window.landmarks + delta[9 * (n - 1) :].reshape(-1, 3)
    return WindowState(poses, landmarks)


class _FactorInputs(NamedTuple):
    """Every factor's inputs, stacked along a leading axis per factor type."""

    deltas: PreintegratedDelta  # n-1 deltas
    pose_i: PoseState  # poses 1..n-1
    pose_j: PoseState  # poses 2..n
    meas: PixelMeasurement  # K measurements sorted by (frame, landmark)
    seen_from: PoseState  # the observing pose of each measurement
    landmarks: np.ndarray  # (K, 3) the observed landmark of each measurement


def _gather(problem: Problem) -> _FactorInputs:
    """Stack the inputs of every factor; rejects a delta count or a
    measurement index that does not fit the window."""
    window = problem.window
    n, N = window.n, window.num_landmarks
    if len(problem.deltas) != n - 1:
        raise ValueError(f"problem has {len(problem.deltas)} deltas, expected {n - 1}")
    frames = np.array([m.frame_index for m in problem.measurements], dtype=np.intp)
    ids = np.array([m.landmark_id for m in problem.measurements], dtype=np.intp)
    outside = (frames < 1) | (frames > n) | (ids < 1) | (ids > N)
    if np.any(outside):
        first = np.flatnonzero(outside)[0]
        raise ValueError(
            f"measurement (frame {frames[first]}, landmark {ids[first]}) "
            f"out of range for n={n}, N={N}"
        )
    order = np.lexsort((ids, frames))
    uv = np.array([m.uv for m in problem.measurements], dtype=float).reshape(-1, 2)
    meas = PixelMeasurement(frames[order], ids[order], uv[order])

    deltas = problem.deltas
    stacked_deltas = PreintegratedDelta(
        dR=np.array([d.dR for d in deltas], dtype=float),
        dv=np.array([d.dv for d in deltas], dtype=float),
        dp=np.array([d.dp for d in deltas], dtype=float),
        dt_total=np.array([d.dt_total for d in deltas], dtype=float),
    )
    poses = _stack(window.poses)
    return _FactorInputs(
        deltas=stacked_deltas,
        pose_i=_take(poses, slice(0, n - 1)),
        pose_j=_take(poses, slice(1, n)),
        meas=meas,
        seen_from=_take(poses, meas.frame_index - 1),
        landmarks=window.landmarks[meas.landmark_id - 1],
    )


def stacked_residual(problem: Problem) -> np.ndarray:
    """Residual vector only (no Jacobian); used by finite-difference checks."""
    f = _gather(problem)
    imu = imu_residual(f.deltas, f.pose_i, f.pose_j, problem.world)
    pixel = photometric_residual(problem.cam, f.seen_from, f.landmarks, f.meas)
    return np.concatenate([imu.reshape(-1), pixel.reshape(-1)])


def _span(starts: np.ndarray, width: int) -> np.ndarray:
    """(len(starts), width) indices start, start + 1, ..., start + width - 1."""
    return starts[:, None] + np.arange(width)


@dataclass(frozen=True)
class BlockJacobian:
    """The stacked Jacobian held as its factor blocks.

    `factors` holds one (blocks, cols) pair per factor type in row order:
    the (n-1, 9, 18) IMU blocks, then the (K, 2, 12) pixel blocks. Each
    factor's rows follow the previous factor's; cols (K, width) gives the
    column of every block column in a space of 9n + 3N columns that puts the
    prior pose first (pose k at 9(k-1), landmark i at 9n + 3(i-1)), so the
    first PRIOR columns are dropped from the dense (rows, dim) matrix.
    """

    factors: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    shape: Tuple[int, int]

    PRIOR: ClassVar[int] = 9

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def nbytes(self) -> int:
        return sum(blocks.nbytes for blocks, _ in self.factors)

    def toarray(self) -> np.ndarray:
        """The dense (rows, dim) Jacobian in boxplus column order."""
        rows, dim = self.shape
        dense = np.zeros((rows, self.PRIOR + dim))
        start = 0
        for blocks, cols in self.factors:
            count, height, _ = blocks.shape
            block_rows = np.arange(start, start + count * height).reshape(count, height)
            dense[block_rows[:, :, None], cols[:, None, :]] = blocks
            start += count * height
        return dense[:, self.PRIOR :]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.toarray(), dtype=dtype)


def assemble(problem: Problem):
    """Stacked residual, block Jacobian (see `BlockJacobian`) and weight diagonal."""
    f = _gather(problem)
    n = problem.window.n
    frames, ids = f.meas.frame_index, f.meas.landmark_id
    imu_r, imu_J = imu_residual_jacobian(f.deltas, f.pose_i, f.pose_j, problem.world)
    pixel_r, pixel_J = photometric_jacobian(problem.cam, f.seen_from, f.landmarks, f.meas)
    residual = np.concatenate([imu_r.reshape(-1), pixel_r.reshape(-1)])

    # IMU factor k joins poses k+1 and k+2: 18 adjacent columns from 9k; pixel
    # factor m joins its observing pose and its landmark
    imu_cols = _span(9 * np.arange(n - 1), 18)
    pixel_cols = np.concatenate([_span(9 * (frames - 1), 9), _span(9 * n + 3 * (ids - 1), 3)], axis=1)
    jacobian = BlockJacobian(
        ((imu_J, imu_cols), (pixel_J, pixel_cols)), (residual.size, problem.window.dim)
    )
    weights = np.concatenate([np.ones(imu_r.size), np.full(pixel_r.size, float(problem.photometric_weight))])
    return residual, jacobian, weights


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

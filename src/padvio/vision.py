"""Pinhole projection of landmarks and the 2-vector photometric residual.

The camera frame coincides with the body frame: a landmark at world position
p_l seen from pose (R, p) sits at q = R^T (p_l - p) in front of the camera,
and projects to (f x/z + cx, f y/z + cy).

`photometric_residual` returns the residuals alone, for finite-difference
checks; `photometric_jacobian` returns the (residual, Jacobian) pair from one
camera-frame point, for the Gauss-Newton assembly. Both take the measurements
and name the first one in batch order whose predicted depth is degenerate.

Every function here broadcasts over leading axes: K observations given as
pose R (K,3,3), p (K,3), landmarks (K,3) and measured uv (K,2) give (K,3)
camera-frame points, (K,2) residuals, (K,2,3) projection differentials and
(K,2,9) Jacobians. A single observation is the stack with no leading axes.
The camera broadcasts like every other record: a (K,) focal with a (K,2)
principal point gives each observation its own camera.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .manifold import hat

# Predicted depths at or below this magnitude are degenerate.
DEPTH_EPSILON = 1e-6

# The Jacobian's nine columns, in order, differentiate the observing pose's
# increment entries POSE_ENTRIES (its attitude and position in the
# [dR, dv, dp] order of `graph.pose_boxplus`), then the landmark's three.
# Velocity never enters the projection, so it has no columns.
POSE_ENTRIES = np.array([0, 1, 2, 6, 7, 8])


class DegenerateDepthError(RuntimeError):
    """Projection attempted at |z| <= DEPTH_EPSILON (behind or on the camera plane).

    The photometric factors name the measurement; `project` has none to name."""

    def __init__(self, depth: float, frame_index: int | None = None, landmark_id: int | None = None):
        self.depth = depth
        self.frame_index = frame_index
        self.landmark_id = landmark_id
        where = ""
        if frame_index is not None or landmark_id is not None:
            where = f" (frame {frame_index}, landmark {landmark_id})"
        super().__init__(f"degenerate projection depth z={depth:.3e}{where}")


@dataclass
class CameraModel:
    """Pinhole intrinsics; focal (...,) and principal point (..., 2) may carry leading axes."""

    focal: float  # pixels
    principal_point: np.ndarray = field(default_factory=lambda: np.zeros(2))


@dataclass
class PixelMeasurement:
    """Landmark detections in keyframe images, 1-based indices: K detections
    as (K,) frame_index and landmark_id arrays and (K, 2) uv values. The uv
    values may carry leading batch axes, (..., K, 2), one set per problem of
    a batch that shares the (K,) pattern. One detection is the record with
    no K axis; `meas[k]` picks detection k and an index array or slice picks
    a sub-batch."""

    frame_index: np.ndarray
    landmark_id: np.ndarray
    uv: np.ndarray  # pixels

    def __len__(self) -> int:
        return len(self.frame_index)

    def __getitem__(self, index) -> "PixelMeasurement":
        return PixelMeasurement(self.frame_index[index], self.landmark_id[index], self.uv[..., index, :])


def _check_depth(z: np.ndarray, meas: PixelMeasurement | None = None) -> None:
    """Raise for the first degenerate depth in batch order, naming its measurement if given.

    The measurement's fields broadcast against the depths, so (K,) detections
    seen from poses with extra leading axes, (B, K), name the right pair."""
    degenerate = np.abs(z) <= DEPTH_EPSILON
    if degenerate.any():
        index = int(np.flatnonzero(degenerate)[0])
        depth = float(np.ravel(z)[index])
        if meas is None:
            raise DegenerateDepthError(depth)
        frame, landmark = (
            int(np.broadcast_to(ids, np.shape(z)).flat[index]) for ids in (meas.frame_index, meas.landmark_id)
        )
        raise DegenerateDepthError(depth, frame, landmark)


def landmark_in_body(pose, landmark: np.ndarray) -> np.ndarray:
    """Landmark position in the observing body/camera frame: R^T (p_l - p)."""
    offset = np.asarray(landmark, dtype=float) - pose.p
    return (pose.R.swapaxes(-1, -2) @ offset[..., None])[..., 0]


def _pinhole(cam: CameraModel, pt: np.ndarray) -> np.ndarray:
    focal = np.asarray(cam.focal)[..., None]
    return np.asarray(cam.principal_point, dtype=float) + focal * (pt[..., 0:2] / pt[..., 2:3])


def _pinhole_differential(cam: CameraModel, pt: np.ndarray) -> np.ndarray:
    z = pt[..., 2]
    D = np.zeros(pt.shape[:-1] + (2, 3))
    D[..., 0, 0] = D[..., 1, 1] = z
    D[..., :, 2] = -pt[..., 0:2]
    return (cam.focal / (z * z))[..., None, None] * D


def project(cam: CameraModel, pt: np.ndarray) -> np.ndarray:
    """Pinhole projection of camera-frame points to pixel coordinates."""
    pt = np.asarray(pt, dtype=float)
    _check_depth(pt[..., 2])
    return _pinhole(cam, pt)


def photometric_residual(cam: CameraModel, pose, landmark: np.ndarray, meas: PixelMeasurement) -> np.ndarray:
    """Predicted minus measured pixel coordinates."""
    q = landmark_in_body(pose, landmark)
    _check_depth(q[..., 2], meas)
    return _pinhole(cam, q) - np.asarray(meas.uv, dtype=float)


def photometric_jacobian(cam: CameraModel, pose, landmark: np.ndarray, meas: PixelMeasurement):
    """The photometric residuals and their (..., 2, 9) Jacobians, from one evaluation.

    Column blocks are [dR, dp, dp_l] (see `POSE_ENTRIES`). The camera-frame
    point obeys q(dR) = Exp(-dR) R^T (p_l - p) to first order, so the inner
    3x9 Jacobian is [hat(q), -I, R^T]; the projection differential chains on
    top.
    """
    q = landmark_in_body(pose, landmark)
    _check_depth(q[..., 2], meas)
    P = _pinhole_differential(cam, q)
    J = np.empty(q.shape[:-1] + (2, 9))
    J[..., 0:3] = P @ hat(q)
    J[..., 3:6] = -P
    # matmul is about twice as fast on a contiguous R^T as on the transposed view, same bits
    J[..., 6:9] = P @ np.ascontiguousarray(pose.R.swapaxes(-1, -2))
    return _pinhole(cam, q) - np.asarray(meas.uv, dtype=float), J

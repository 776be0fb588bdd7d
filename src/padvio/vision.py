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
(K,2,12) Jacobians. A single observation is the stack with no leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .manifold import hat

# Predicted depths at or below this magnitude are degenerate.
DEPTH_EPSILON = 1e-6


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
    focal: float  # pixels
    principal_point: np.ndarray = field(default_factory=lambda: np.zeros(2))


@dataclass
class PixelMeasurement:
    """One detected landmark in one keyframe's image. Indices are 1-based.

    A batch holds (K,) index arrays and (K, 2) uv values."""

    frame_index: int
    landmark_id: int
    uv: np.ndarray  # pixels


def _check_depth(z: np.ndarray, meas: PixelMeasurement | None = None) -> None:
    """Raise for the first degenerate depth in batch order, naming its measurement if given."""
    degenerate = np.abs(z) <= DEPTH_EPSILON
    if np.any(degenerate):
        index = int(np.flatnonzero(degenerate)[0])
        depth = float(np.ravel(z)[index])
        if meas is None:
            raise DegenerateDepthError(depth)
        frame = int(np.ravel(meas.frame_index)[index])
        raise DegenerateDepthError(depth, frame, int(np.ravel(meas.landmark_id)[index]))


def landmark_in_body(pose, landmark: np.ndarray) -> np.ndarray:
    """Landmark position in the observing body/camera frame: R^T (p_l - p)."""
    offset = np.asarray(landmark, dtype=float) - pose.p
    return (np.swapaxes(pose.R, -1, -2) @ offset[..., None])[..., 0]


def _pinhole(cam: CameraModel, pt: np.ndarray) -> np.ndarray:
    return np.asarray(cam.principal_point, dtype=float) + cam.focal * (pt[..., 0:2] / pt[..., 2:3])


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


def projection_differential(cam: CameraModel, pt: np.ndarray) -> np.ndarray:
    """(..., 2, 3) derivative of the pinhole projection at camera-frame points."""
    pt = np.asarray(pt, dtype=float)
    _check_depth(pt[..., 2])
    return _pinhole_differential(cam, pt)


def photometric_residual(cam: CameraModel, pose, landmark: np.ndarray, meas: PixelMeasurement) -> np.ndarray:
    """Predicted minus measured pixel coordinates."""
    q = landmark_in_body(pose, landmark)
    _check_depth(q[..., 2], meas)
    return _pinhole(cam, q) - np.asarray(meas.uv, dtype=float)


def photometric_jacobian(cam: CameraModel, pose, landmark: np.ndarray, meas: PixelMeasurement):
    """The photometric residuals and their (..., 2, 12) Jacobians, from one evaluation.

    Column blocks are [dR, dv, dp, dp_l]. The camera-frame point obeys
    q(dR) = Exp(-dR) R^T (p_l - p) to first order, so the inner 3x12 Jacobian
    is [hat(q), 0, -I, R^T]; the projection differential chains on top.
    Velocity never enters the projection, so its block is identically zero.
    """
    q = landmark_in_body(pose, landmark)
    _check_depth(q[..., 2], meas)
    P = _pinhole_differential(cam, q)
    J = np.zeros(q.shape[:-1] + (2, 12))
    J[..., 0:3] = P @ hat(q)
    J[..., 6:9] = -P
    J[..., 9:12] = P @ np.swapaxes(pose.R, -1, -2)
    return _pinhole(cam, q) - np.asarray(meas.uv, dtype=float), J

"""SO(3) primitives: hat/vee maps and the exponential/logarithm pair.

Rotations are plain 3x3 numpy arrays (direction cosine matrices, body to
world). Tangent vectors are 3-vectors in radians (axis times angle).

`hat`, `exp_map` and `log_map` broadcast over leading axes: a (..., 3) stack
of tangent vectors maps to a (..., 3, 3) stack of matrices and back, and a
single vector or matrix is the stack with no leading axes. Branches such as
the small-angle Taylor series are chosen per element.
"""

from __future__ import annotations

import numpy as np

# Below this angle the Rodrigues coefficients switch to their Taylor series.
SMALL_ANGLE = 1e-8

# log_map rejects rotations whose angle is within this margin of pi, where
# the (R - R^T) / (2 sin phi) formula degenerates.
PI_MARGIN = 1e-6

# flat positions of +v and -v in the row-major 3x3 hat matrix
_HAT_PLUS = np.array([7, 2, 3])
_HAT_MINUS = np.array([5, 6, 1])


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrices of (..., 3) vectors, so that hat(a) @ b == cross(a, b)."""
    v = np.asarray(v, dtype=float)
    S = np.zeros(v.shape[:-1] + (9,))
    S[..., _HAT_PLUS] = v
    S[..., _HAT_MINUS] = -v
    return S.reshape(v.shape[:-1] + (3, 3))


def vee(S: np.ndarray) -> np.ndarray:
    """Inverse of hat for one matrix. Rejects input that is not skew-symmetric."""
    S = np.asarray(S, dtype=float)
    if np.abs(S + S.T).max() >= 1e-9:
        raise ValueError("vee: input matrix is not skew-symmetric")
    return np.array([S[2, 1], S[0, 2], S[1, 0]])


def exp_map(phi: np.ndarray) -> np.ndarray:
    """Rodrigues formula, (..., 3) rotation vectors to (..., 3, 3) rotation matrices."""
    phi = np.asarray(phi, dtype=float)
    angle = np.linalg.norm(phi, axis=-1)
    small = angle < SMALL_ANGLE
    safe = np.where(small, 1.0, angle)
    # second-order Taylor of sin(a)/a and (1 - cos a)/a^2 below SMALL_ANGLE
    a = np.where(small, 1.0 - angle * angle / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - angle * angle / 24.0, (1.0 - np.cos(safe)) / (safe * safe))
    S = hat(phi)
    return np.eye(3) + a[..., None, None] * S + b[..., None, None] * (S @ S)


def log_map(R: np.ndarray) -> np.ndarray:
    """(..., 3, 3) rotation matrices to (..., 3) rotation vectors.

    The angle comes from arccos((trace - 1)/2); if any input's angle is
    within PI_MARGIN of pi the call is rejected rather than special-cased,
    since keyframe-to-keyframe rotations in this problem are small.
    """
    R = np.asarray(R, dtype=float)
    c = np.clip((np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    angle = np.arccos(c)
    near_pi = angle >= np.pi - PI_MARGIN
    if np.any(near_pi):
        first = float(angle[near_pi].flat[0])
        raise ValueError(
            f"log_map: rotation angle {first:.9f} rad is within {PI_MARGIN:g} of pi"
        )
    # half the vee of (R - R^T) equals sin(angle) * axis
    u = 0.5 * np.stack(
        [R[..., 2, 1] - R[..., 1, 2], R[..., 0, 2] - R[..., 2, 0], R[..., 1, 0] - R[..., 0, 1]],
        axis=-1,
    )
    small = angle < SMALL_ANGLE
    safe = np.where(small, 1.0, angle)
    scale = np.where(small, 1.0 + angle * angle / 6.0, safe / np.sin(safe))
    return u * scale[..., None]


def is_rotation(R: np.ndarray, tol: float = 1e-9) -> bool:
    """True if R is orthonormal with determinant +1 to the given tolerance."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3) or not np.isfinite(R).all():
        return False
    if np.abs(R.T @ R - np.eye(3)).max() >= tol:
        return False
    return abs(np.linalg.det(R) - 1.0) <= tol

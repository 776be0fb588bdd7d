"""SO(3) primitives: hat/vee maps and the exponential/logarithm pair.

Rotations are plain 3x3 numpy arrays (direction cosine matrices, body to
world). Tangent vectors are 3-vectors in radians (axis times angle).

`hat`, `exp_map` and `log_map` broadcast over leading axes: a (..., 3) stack
of tangent vectors maps to a (..., 3, 3) stack of matrices and back, and a
single vector or matrix is the stack with no leading axes. The small-angle
Taylor series is chosen per element by `by_angle`, which the inverse right
Jacobian in `imu` shares; only the formulas some element takes are
evaluated.

These maps run on every Gauss-Newton iteration, so they call only numpy
ufuncs and array methods, not the Python-level wrappers around them
(`np.linalg.norm`, `np.clip`, `np.trace`, `np.stack`, `np.eye`); each
replacement is the wrapper's own formula, so every result keeps its bits.
"""

from __future__ import annotations

import numpy as np

# Below this angle the Rodrigues coefficients switch to their Taylor series.
SMALL_ANGLE = 1e-8

# log_map rejects rotations whose angle is within this margin of pi, where
# the (R - R^T) / (2 sin phi) formula degenerates.
PI_MARGIN = 1e-6


class NearPiRotationError(ValueError):
    """log_map was given a rotation whose angle is within PI_MARGIN of pi."""


_EYE = np.eye(3)
_EYE.flags.writeable = False

# in a flattened 3x3, the entries (2,1), (0,2), (1,0) and then (1,2), (2,0),
# (0,1), whose differences are twice the vee of R - R^T
_VEE_ENTRIES = np.array([7, 2, 3, 5, 6, 1])


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrices of (..., 3) vectors, so that hat(a) @ b == cross(a, b)."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"hat: expected (..., 3) vectors, got shape {v.shape}")
    S = np.zeros(v.shape[:-1] + (3, 3))
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    S[..., 2, 1], S[..., 0, 2], S[..., 1, 0] = x, y, z
    np.negative(x, out=S[..., 1, 2])
    np.negative(y, out=S[..., 2, 0])
    np.negative(z, out=S[..., 0, 1])
    return S


def vee(S: np.ndarray) -> np.ndarray:
    """Inverse of hat for one matrix. Rejects input that is not skew-symmetric."""
    S = np.asarray(S, dtype=float)
    if np.abs(S + S.T).max() >= 1e-9:
        raise ValueError("vee: input matrix is not skew-symmetric")
    return np.array([S[2, 1], S[0, 2], S[1, 0]])


def by_angle(angle, taylor, exact):
    """The coefficients taylor(angle) where angle < SMALL_ANGLE and exact(angle)
    elsewhere; each function returns a tuple of arrays shaped like angle.

    When no angle is small only exact runs, and when every angle is only
    taylor runs: an `exp_map` of retraction steps near convergence takes
    that path, 45 of 456 calls over three `reference` operations. Otherwise
    both run, exact on 1.0 in place of each small angle so that it divides
    by no zero, and np.where selects; selecting copies bits, so the
    coefficients have the same bits on each path."""
    small = angle < SMALL_ANGLE
    if not small.any():
        return exact(angle)
    if small.all():
        return taylor(angle)
    both = zip(taylor(angle), exact(np.where(small, 1.0, angle)))
    return tuple(np.where(small, t, e) for t, e in both)


def _exp_taylor(angle):
    # second-order Taylor of sin(a)/a and (1 - cos a)/a^2
    square = angle * angle
    return 1.0 - square / 6.0, 0.5 - square / 24.0


def _exp_exact(angle):
    return np.sin(angle) / angle, (1.0 - np.cos(angle)) / (angle * angle)


def exp_map(phi: np.ndarray) -> np.ndarray:
    """Rodrigues formula, (..., 3) rotation vectors to (..., 3, 3) rotation matrices."""
    phi = np.asarray(phi, dtype=float)
    angle = np.sqrt(np.add.reduce(phi * phi, axis=-1))  # np.linalg.norm(phi, axis=-1)
    a, b = by_angle(angle, _exp_taylor, _exp_exact)
    S = hat(phi)
    return _EYE + a[..., None, None] * S + b[..., None, None] * (S @ S)


def log_map(R: np.ndarray) -> np.ndarray:
    """(..., 3, 3) rotation matrices to (..., 3) rotation vectors.

    The angle comes from arccos((trace - 1)/2); if any input's angle is
    within PI_MARGIN of pi the call is rejected rather than special-cased,
    since keyframe-to-keyframe rotations in this problem are small.
    """
    R = np.asarray(R, dtype=float)
    # np.clip(x, -1, 1) is np.minimum(np.maximum(x, -1), 1)
    c = np.minimum(np.maximum((R.trace(axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0), 1.0)
    angle = np.arccos(c)
    near_pi = angle >= np.pi - PI_MARGIN
    if near_pi.any():
        first = float(angle[near_pi].flat[0])
        raise NearPiRotationError(
            f"log_map: rotation angle {first:.9f} rad is within {PI_MARGIN:g} of pi"
        )
    # half the vee of (R - R^T) equals sin(angle) * axis
    entries = R.reshape(R.shape[:-2] + (9,)).take(_VEE_ENTRIES, axis=-1)
    u = 0.5 * (entries[..., :3] - entries[..., 3:])
    (scale,) = by_angle(angle, _log_taylor, _log_exact)
    return u * scale[..., None]


def _log_taylor(angle):
    return (1.0 + angle * angle / 6.0,)  # second-order Taylor of a / sin(a)


def _log_exact(angle):
    return (angle / np.sin(angle),)


def is_rotation(R: np.ndarray, tol: float = 1e-9):
    """Whether R is orthonormal with determinant +1 to the given tolerance.

    Broadcasts over leading axes: a (..., 3, 3) stack gives a bool array over
    its leading axes, one matrix a bool. A matrix with a non-finite entry is
    not a rotation, and input whose last two axes are not (3, 3) gives False."""
    R = np.asarray(R, dtype=float)
    if R.shape[-2:] != (3, 3):
        return False
    finite = np.isfinite(R).all(axis=(-2, -1))
    R = np.where(finite[..., None, None], R, _EYE)  # non-finite entries would warn in the products
    orthonormal = np.abs(R.swapaxes(-1, -2) @ R - _EYE).max(axis=(-2, -1)) < tol
    rotation = finite & orthonormal & (np.abs(np.linalg.det(R) - 1.0) <= tol)
    return bool(rotation) if rotation.ndim == 0 else rotation

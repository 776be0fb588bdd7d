"""The rules for a valid input, shared by the CLI's config check and the library.

Each rule returns the value (an array rule a float array) or raises a
ValueError whose message starts with the name it was given, so each caller
keeps its own names: `focal` in the config is `cam.focal` in `sim.generate`.
No rule takes a boolean or a string for a number, or NaN or an infinity.
"""

import numbers
import sys

import numpy as np

from .manifold import is_rotation


def _is_finite_real(value) -> bool:
    # NaN fails the comparison, and an int past the float range could not become a float
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def integer(value, name: str, minimum: int = 0):
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def real(value, name: str, positive: bool = False):
    """A finite real, > 0 if positive and >= 0 otherwise."""
    if not (_is_finite_real(value) and (value > 0 if positive else value >= 0)):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value!r}")
    return value


def boolean(value, name: str):
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def finite_array(value):
    """value as a float array if every entry is a finite real, else None."""
    if isinstance(value, np.ndarray) and value.dtype.type is np.float64:
        array = value.astype(float)  # no float64 overflows the cast
        return array if np.isfinite(array).all() else None
    if isinstance(value, np.ndarray) and np.issubdtype(value.dtype, np.floating):
        # converted first, so a longdouble past the float range becomes inf and fails
        with np.errstate(over="ignore"):
            array = value.astype(float)
        return array if np.isfinite(array).all() else None
    entries = np.asarray(value, dtype=object)  # numpy would read a listed True or "1" as 1.0
    if not all(_is_finite_real(x) for x in entries.flat):
        return None
    return entries.astype(float)


def vector(value, name: str, size: int) -> np.ndarray:
    array = finite_array(value)
    if array is None or array.shape != (size,):
        raise ValueError(f"{name} must be a finite {size}-vector")
    return array


def rotation(value, name: str) -> np.ndarray:
    """A finite (3, 3) array that is a rotation matrix (`manifold.is_rotation`)."""
    array = finite_array(value)
    if array is None or array.shape != (3, 3) or not is_rotation(array):
        raise ValueError(f"{name} must be a rotation matrix")
    return array


def ground_landmarks(value, name: str) -> np.ndarray:
    """An (N, 3) array of finite marker positions, N >= 1, all on the plane z = 0."""
    array = finite_array(value)
    if array is None or array.ndim != 2 or len(array) < 1 or array.shape[1] != 3:
        raise ValueError(f"{name} must be an (N, 3) array of finite numbers")
    if np.any(array[:, 2] != 0.0):
        raise ValueError(f"{name} must all lie on the ground plane z = 0")
    return array

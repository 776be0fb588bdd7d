import warnings

import numpy as np
import pytest

from padvio.inputs import finite_array


@pytest.mark.parametrize(
    "value",
    [
        np.array([1.0, np.nan]),
        np.array([[0.0, -np.inf]]),
        np.array([np.nan], dtype=np.float32),
        # finite as a longdouble, but past the float range once converted
        np.array([np.longdouble("1e400"), 1.0]),
    ],
)
def test_finite_array_rejects_a_float_array_with_a_non_finite_entry(value):
    assert finite_array(value) is None


@pytest.mark.parametrize("value", [[True, 1.0], ["1", 2.0], [1.0, None], np.array([1.0, True], dtype=object)])
def test_finite_array_rejects_a_listed_bool_string_or_none(value):
    # numpy would read a listed True or "1" as 1.0
    assert finite_array(value) is None


@pytest.mark.parametrize(
    "value", [np.array([1.5, -2.0]), np.array([1.5, -2.0], dtype=np.float32), [1.5, -2], np.array([3, 4])]
)
def test_finite_array_returns_a_float_copy(value):
    array = finite_array(value)
    assert array.dtype == np.float64
    np.testing.assert_array_equal(array, np.asarray(value, dtype=float))
    assert array is not value


def _finite_float_array(value):
    # every float dtype through one conversion, whose overflow gives inf
    with np.errstate(over="ignore"):
        array = value.astype(float)
    return array if np.isfinite(array).all() else None


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.longdouble])
@pytest.mark.parametrize(
    "entries",
    [[1.5, -2.0, 0.0], [1.0, np.nan], [np.inf, 1.0], [-np.inf], ["1e400", 1.0]],
    ids=["finite", "nan", "inf", "-inf", "1e400"],
)
def test_finite_array_of_each_float_dtype_matches_one_conversion(dtype, entries):
    # "1e400" is finite only as a longdouble wider than float64; other dtypes read it as inf
    with np.errstate(over="ignore"):
        value = np.array(entries, dtype=dtype)
    want = _finite_float_array(value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = finite_array(value)
    if want is None:
        assert got is None
    else:
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

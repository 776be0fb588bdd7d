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

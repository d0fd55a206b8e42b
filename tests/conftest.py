import numpy as np
import pytest


@pytest.fixture(params=["C", "F", "strided"])
def in_layout(request):
    """Copy a 2D array into C order, Fortran order, or a strided slice of a
    larger array, so that column views of every layout are exercised."""

    def convert(array):
        array = np.asarray(array)
        if request.param == "C":
            return np.ascontiguousarray(array)
        if request.param == "F":
            return np.asfortranarray(array)
        wide = np.zeros((2 * array.shape[0], array.shape[1] + 1), dtype=array.dtype)
        wide[::2, 1:] = array
        return wide[::2, 1:]

    return convert


def bitwise_equal(got, want) -> bool:
    """Same shape, dtype and bytes in logical order, so the sign of a zero counts."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes())
